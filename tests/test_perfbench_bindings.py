"""The package names that perfbench/ binds stay bound.

perfbench/tracer.py wraps functions by module attribute and name, its closure
wrapper binds ``generate_closure``'s ``backend`` argument, and perfbench/run.py
records ``_kernels.BACKEND``.  Removing any of them breaks the traced benchmark
pass, so this test runs the tracer over two CLI commands.
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


def test_tracer_installs_runs_and_removes():
    original_main = cli.main
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(["table", "--gen=i,0;0,i"]) == 0
        assert cli.main(["doublegroup", "2"]) == 0
    finally:
        tracer.remove()
    assert tracer.snapshot()["groups.generate_closure.exact.calls"] == 1
    assert isinstance(_kernels.BACKEND, str)
    assert cli.main is original_main
