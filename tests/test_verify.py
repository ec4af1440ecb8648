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
from spincover.cover import (
    HALF_TURN_Y,
    IDENTITY2,
    IDENTITY3,
    SPACE_INVERSION,
    UnitaryMat2,
    parity_operator,
)
from spincover.ptgroup import (
    SpacetimeSymmetry,
    SpinorSampleField,
    SpinorValue,
    time_reversal_operator,
)
from spincover.scalars import I_UNIT

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


# -- one fault per witness branch ------------------------------------------------
#
# Each fault below breaks exactly the law of one failure branch that the
# golden faults above never reach; the test pins that assertion's witness.


def _exact_sequence():
    return verify.check_exact_sequence([IDENTITY2, -IDENTITY2, parity_operator()])


def _suite(name):
    return lambda: verify.run_suites(name, 42, 4)[0]


def _every_matrix_special(monkeypatch):
    monkeypatch.setattr(UnitaryMat2, "is_special", lambda self: True)


def _parity_lift_has_det_one(monkeypatch):
    monkeypatch.setattr(verify, "parity_operator", time_reversal_operator)


def _section_of_minus_one_is_parity(monkeypatch):
    monkeypatch.setattr(
        verify, "determinant_section", lambda s: IDENTITY2 if s == 1 else parity_operator()
    )


def _rotation_image_inverted(monkeypatch):
    monkeypatch.setattr(verify, "covering_map", lambda a: SPACE_INVERSION * cover.covering_map(a))


def _inverse_times_i(monkeypatch):
    inverse = UnitaryMat2.inverse
    monkeypatch.setattr(UnitaryMat2, "inverse", lambda self: inverse(self).scalar_mul(I_UNIT))


def _det_one_when_top_left_real_part_positive(monkeypatch):
    det_sign = UnitaryMat2.det_sign.fget
    monkeypatch.setattr(
        UnitaryMat2,
        "det_sign",
        property(lambda self: 1 if self.rows[0][0].re > 0 else det_sign(self)),
    )


def _from_unitary_negates(monkeypatch):
    monkeypatch.setattr(verify, "from_unitary", lambda c: semidirect.from_unitary(-c))


def _pair_projection_splits_antipodes(monkeypatch):
    def project_to_o3(e):
        image = semidirect.project_to_o3(e)
        return SPACE_INVERSION * image if e.su2_part.rows[0][0].re > 0 else image

    monkeypatch.setattr(verify, "project_to_o3", project_to_o3)


def _pair_projection_constant(monkeypatch):
    monkeypatch.setattr(verify, "project_to_o3", lambda e: IDENTITY3)


def _projection_drops_time_sign(monkeypatch):
    def spacetime_projection(g):
        return SpacetimeSymmetry(ptgroup.spacetime_projection(g).spatial, 1)

    monkeypatch.setattr(verify, "spacetime_projection", spacetime_projection)


def _projection_splits_antipodes(monkeypatch):
    def spacetime_projection(g):
        image = ptgroup.spacetime_projection(g)
        if g.matrix.rows[0][0].re > 0:
            return SpacetimeSymmetry(image.spatial * SPACE_INVERSION, image.time_sign)
        return image

    monkeypatch.setattr(verify, "spacetime_projection", spacetime_projection)


def _projection_constant(monkeypatch):
    monkeypatch.setattr(verify, "spacetime_projection", lambda g: SpacetimeSymmetry(IDENTITY3, 1))


A = "-5/7+4/7i,-2/7-2/7i;2/7-2/7i,-5/7-4/7i"
E = "(-5/7-2/7i,-2/7-4/7i;2/7-4/7i,-5/7+2/7i | 1,0;0,1)"

WITNESS_FAULTS = [
    (
        _every_matrix_special,
        _exact_sequence,
        "kernel of det equals the embedded special subgroup on samples",
        "i,0;0,i",
    ),
    (
        _parity_lift_has_det_one,
        _exact_sequence,
        "det is surjective onto {+1,-1} (witnesses: identity, parity lift)",
        "0,-1;1,0",
    ),
    (
        _section_of_minus_one_is_parity,
        _exact_sequence,
        "section is a homomorphism on Z2 (all four products)",
        "signs (-1, -1)",
    ),
    (_rotation_image_inverted, _suite("cover"), "projected rotations are orthogonal with det +1", A),
    (
        _inverse_times_i,
        _suite("cover"),
        "det +1 subgroup is normal in the extension",
        "36/85-67/85i,-12/85+36/85i;-12/85-36/85i,-36/85-67/85i ; " + A,
    ),
    (
        _det_one_when_top_left_real_part_positive,
        _suite("cover"),
        "determinant is multiplicative on the extension",
        "-8/15-37/45i,4/45+8/45i;4/45-8/45i,8/15-37/45i ; "
        "16/65-57/65i,24/65+12/65i;24/65-12/65i,-16/65-57/65i",
    ),
    (
        _pair_projection_splits_antipodes,
        _suite("semidirect"),
        "projection fibers are exactly antipodal matrix pairs",
        E,
    ),
    (_from_unitary_negates, _suite("semidirect"), "projection fibers are exactly antipodal matrix pairs", E),
    (
        _pair_projection_constant,
        _suite("semidirect"),
        "projection fibers are exactly antipodal matrix pairs",
        E + " ; (-25/97+48/97i,72/97+36/97i;-72/97+36/97i,-25/97-48/97i | 1,0;0,1)",
    ),
    (
        _projection_drops_time_sign,
        _suite("ptgroup"),
        "canonical reversals project to pure time flip, inversion, full reversal",
        "0,-1;1,0 @ -1",
    ),
    (
        _projection_splits_antipodes,
        _suite("ptgroup"),
        "spacetime projection identifies exactly antipodal elements",
        A + " @ +1",
    ),
    (
        _projection_constant,
        _suite("ptgroup"),
        "spacetime projection identifies exactly antipodal elements",
        A + " @ +1 ; -18/29-20/29i,-9/29+6/29i;-9/29-6/29i,18/29-20/29i @ +1",
    ),
]


@pytest.mark.parametrize(
    "fault, run, assertion, witness",
    WITNESS_FAULTS,
    ids=[fault.__name__.lstrip("_") for fault, *_ in WITNESS_FAULTS],
)
def test_fault_fails_with_its_witness(monkeypatch, fault, run, assertion, witness):
    fault(monkeypatch)
    report = run()
    (check,) = [c for c in report.checks if c.name == assertion]
    assert not check.passed
    assert check.witness == witness
