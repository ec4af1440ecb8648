"""Goldens of the `verify` report, clean and with injected faults.

Both goldens are ``verify all --seed 42 --samples 20 --format json``.  The
faulty run replaces functions in ``spincover.verify``'s namespace with
versions that misbehave on some inputs but not on the first sample, so the
first-witness strings of the failing assertions are pinned as well.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from spincover import cover, ptgroup, semidirect, verify
from spincover.cli import main
from spincover.cover import HALF_TURN_Y, IDENTITY3
from spincover.ptgroup import SpacetimeSymmetry, SpinorSampleField, SpinorValue

GOLDEN = Path(__file__).parent / "golden"
ARGV = ["verify", "all", "--seed", "42", "--samples", "20", "--format", "json"]


def install_faults(monkeypatch):
    """Make verify's view of six functions wrong on a subset of inputs."""

    def covering_map(m):
        image = cover.covering_map(m)
        return HALF_TURN_Y * image if m.rows[0][0].re > Fraction(1, 2) else image

    def extended_covering_map(m):
        image = cover.extended_covering_map(m)
        return IDENTITY3 if m.rows[1][1].im.denominator % 5 == 0 else image

    def to_unitary(e):
        fused = semidirect.to_unitary(e)
        return -fused if e.su2_part.rows[0][1].re < 0 else fused

    def spacetime_projection(g):
        image = ptgroup.spacetime_projection(g)
        if g.matrix.rows[0][0].re.denominator % 3 == 0:
            return SpacetimeSymmetry(image.spatial * HALF_TURN_Y, image.time_sign)
        return image

    def apply_symmetry(g, f):
        result = ptgroup.apply_symmetry(g, f)
        return SpinorSampleField(
            {e: -v if e.x[0] == 1 else v for e, v in result.samples.items()}
        )

    def ray_project(value):
        if value.u.re.denominator % 3 == 0:
            value = SpinorValue(value.v, value.u)
        return ptgroup.ray_project(value)

    faults = (
        covering_map,
        extended_covering_map,
        to_unitary,
        spacetime_projection,
        apply_symmetry,
        ray_project,
    )
    for fn in faults:
        monkeypatch.setattr(verify, fn.__name__, fn)


@pytest.mark.parametrize(
    "faulty, code, golden",
    [(False, 0, "verify_all_seed42_samples20.json"),
     (True, 1, "verify_all_seed42_samples20_faults.json")],
    ids=["clean", "faults"],
)
def test_verify_all_golden(monkeypatch, capsys, faulty, code, golden):
    if faulty:
        install_faults(monkeypatch)
    assert main(ARGV) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_verify_all_text_failures(monkeypatch, capsys):
    install_faults(monkeypatch)
    assert main([*ARGV[:-1], "text"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads((GOLDEN / "verify_all_seed42_samples20_faults.json").read_text(encoding="utf-8"))
    expected = []
    for suite in report["suites"]:
        for assertion in suite["assertions"]:
            status = "PASS" if assertion["pass"] else "FAIL"
            expected.append(f"[{suite['suite']}] {status}  {assertion['assertion']}")
            if not assertion["pass"] and assertion["witness"] is not None:
                expected.append(f"    witness: {assertion['witness']}")
    expected.append("FAILURES detected")
    assert sum(line.startswith("    witness: ") for line in expected) == 17
    assert captured.out == "\n".join(expected) + "\n"


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match=r"unknown suite 'bogus'; choose from"):
        verify.run_suites("bogus", 0, 1)
