"""The package names that perfbench/ binds stay bound.

perfbench/tracer.py wraps functions by module attribute and name, its closure
wrapper binds ``generate_closure``'s ``backend`` argument, and perfbench/run.py
records ``_kernels.BACKEND``.  Removing any of them breaks the traced benchmark
pass, so this test runs the tracer over three CLI commands, one of them an
``apply`` whose field the tracer sees read once.
"""

import importlib.util
from pathlib import Path

from spincover import _kernels, cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_removes(tmp_path):
    field = tmp_path / "field.txt"
    field.write_text("0; 1,0,0; 1; 0\n0; -1,0,0; i; 0\n")
    original_main = cli.main
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(["table", "--gen=i,0;0,i"]) == 0
        assert cli.main(["doublegroup", "2"]) == 0
        assert cli.main(["apply", "P", str(field)]) == 0
    finally:
        tracer.remove()
    snapshot = tracer.snapshot()
    assert snapshot["groups.generate_closure.exact.calls"] == 1
    assert snapshot["ptgroup.SpinorSampleField.from_text.calls"] == 1
    assert isinstance(_kernels.BACKEND, str)
    assert cli.main is original_main
