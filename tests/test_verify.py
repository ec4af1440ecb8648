"""Goldens of the `verify` report, clean and with injected faults.

The clean and the faulty golden are ``verify all --seed 42 --samples 20
--format json``; a third, clean one is the same command at seed 7 with 300
samples, and a fourth is the clean text report at seed 42.  The faulty run replaces functions in ``spincover.verify``'s
namespace with versions that misbehave on some inputs but not on the
first sample, so the first-witness strings of the failing assertions are
pinned as well.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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
from spincover.scalars import I_UNIT, GaussianRational

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
    "argv, faulty, code, golden",
    [(ARGV, False, 0, "verify_all_seed42_samples20.json"),
     (ARGV, True, 1, "verify_all_seed42_samples20_faults.json"),
     (["verify", "all", "--seed", "7", "--samples", "300", "--format", "json"], False, 0,
      "verify_all_seed7_samples300.json"),
     (ARGV[:-2], False, 0, "verify_all_seed42_samples20.txt")],
    ids=["clean", "faults", "clean-seed7-samples300", "clean-text"],
)
def test_verify_all_golden(monkeypatch, capsys, argv, faulty, code, golden):
    if faulty:
        install_faults(monkeypatch)
    assert main(argv) == code
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


class TestCheck:
    """The one item-wise assertion primitive, ``verify._Checks.check``."""

    def test_law_that_holds_has_no_witness(self):
        checks = verify._Checks()
        checks.check("sums commute", [(1, 2), (3, 4)], lambda a, b: a + b == b + a)
        assert checks == [verify.CheckResult("sums commute", True, None)]

    def test_witness_is_the_first_failing_item_and_later_items_are_not_tried(self):
        seen = []

        def law(n):
            seen.append(n)
            return n < 3

        checks = verify._Checks()
        checks.check("small", zip(range(10)), law)
        assert checks == [verify.CheckResult("small", False, "3")]
        assert seen == [0, 1, 2, 3]

    def test_witness_joins_to_text_str_and_int_parts(self):
        checks = verify._Checks()
        checks.check("never", [(IDENTITY2, GaussianRational(Fraction(1, 2), -1), -1)], lambda *item: False)
        assert checks[0].witness == "1,0;0,1 ; 1/2-i ; -1"


def test_ptgroup_suite_projects_each_reused_value_once(monkeypatch):
    """One ptgroup run projects each element it reuses, and rays each base
    spinor, once; a second run computes them all again and reports the same.

    At seed 42 with 100 samples the 1,991 projections are the 48 products
    of the canonical generator x element pairs, the 500 sampled products
    and the 500 negated elements, each projected directly, and the 943
    distinct elements of the 16-element canonical closure and the 500
    sampled pairs.  The 799 rays are the 600 rescaled values, the 100
    parity images and the 2 basis spinors, each rayed directly, and the 97
    distinct base spinors.  Projecting and raying every operand where a
    law names it takes 3,147 and 1,402 calls.
    """
    counts = Counter()

    def counted(fn):
        def wrapper(arg):
            counts[fn.__name__] += 1
            return fn(arg)

        return wrapper

    monkeypatch.setattr(verify, "spacetime_projection", counted(ptgroup.spacetime_projection))
    monkeypatch.setattr(verify, "ray_project", counted(ptgroup.ray_project))
    expected = {"spacetime_projection": 1991, "ray_project": 799}
    first = verify.run_ptgroup_suite(42, 100)
    assert counts == expected
    counts.clear()
    assert verify.run_ptgroup_suite(42, 100) == first
    assert counts == expected
    assert first.all_pass


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match=r"unknown suite 'bogus'; choose from"):
        verify.run_suites("bogus", 0, 1)


class _Drawing(Exception):
    """Raised by a stand-in for random.Random: the suite took its samples."""


def _no_generator(monkeypatch):
    def generator(seed):
        raise _Drawing(seed)

    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=generator))


@pytest.mark.parametrize("samples", [0, -5, verify.VERIFY_SAMPLE_LIMIT + 1])
def test_sample_count_out_of_bounds_is_refused_before_any_draw(monkeypatch, samples):
    # With no samples the sampled laws would check no item and pass.
    _no_generator(monkeypatch)
    refusal = rf"^samples must be in 1\.\.100000, got {samples}$"
    with pytest.raises(ValueError, match=refusal):
        verify.run_suites("all", 1, samples)
    with pytest.raises(ValueError, match=refusal):
        verify.run_semidirect_suite(1, samples)


@pytest.mark.parametrize("samples", [True, 2.0, "20", None], ids=["bool", "float", "str", "none"])
def test_sample_count_that_is_not_an_int_is_refused_before_any_draw(monkeypatch, samples):
    # True is not one sample, and a float is not refused later by range().
    _no_generator(monkeypatch)
    refusal = rf"^samples must be an int, not {type(samples).__name__}$"
    for run in (verify.run_cover_suite, verify.run_semidirect_suite, verify.run_ptgroup_suite):
        with pytest.raises(TypeError, match=refusal):
            run(1, samples)
    with pytest.raises(TypeError, match=refusal):
        verify.run_suites("all", 1, samples)


@pytest.mark.parametrize("seed", [True, 1.5, "seed", None], ids=["bool", "float", "str", "none"])
def test_seed_that_is_not_an_int_is_refused_before_any_draw(monkeypatch, seed):
    # random.Random takes each of these: True as seed 1, None as OS entropy.
    _no_generator(monkeypatch)
    refusal = rf"^seed must be an int, not {type(seed).__name__}$"
    for run in (verify.run_cover_suite, verify.run_semidirect_suite, verify.run_ptgroup_suite):
        with pytest.raises(TypeError, match=refusal):
            run(seed, 10)
    with pytest.raises(TypeError, match=refusal):
        verify.run_suites("all", seed, 10)


@pytest.mark.parametrize("samples", [1, verify.VERIFY_SAMPLE_LIMIT])
def test_sample_count_at_the_bounds_is_taken(monkeypatch, samples):
    _no_generator(monkeypatch)
    for run in (verify.run_cover_suite, verify.run_semidirect_suite, verify.run_ptgroup_suite):
        with pytest.raises(_Drawing):
            run(1, samples)
    with pytest.raises(_Drawing):
        verify.run_suites("all", 1, samples)


# -- one fault per witness branch ------------------------------------------------
#
# Each fault below breaks one clause of one law that the golden faults above
# never reach; the test pins that assertion's witness, its first failing item.


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
FIBER = E + " ; (-25/97+48/97i,72/97+36/97i;-72/97+36/97i,-25/97-48/97i | 1,0;0,1)"
ANTIPODES = A + " @ +1 ; -18/29-20/29i,-9/29+6/29i;-9/29-6/29i,18/29-20/29i @ +1"

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
        "0,-1;1,0 ; -1",
    ),
    (
        _section_of_minus_one_is_parity,
        _exact_sequence,
        "section is a homomorphism on Z2 (all four products)",
        "-1 ; -1",
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
        FIBER,
    ),
    (_from_unitary_negates, _suite("semidirect"), "projection fibers are exactly antipodal matrix pairs", FIBER),
    (
        _pair_projection_constant,
        _suite("semidirect"),
        "projection fibers are exactly antipodal matrix pairs",
        FIBER,
    ),
    (
        _projection_drops_time_sign,
        _suite("ptgroup"),
        "canonical reversals project to pure time flip, inversion, full reversal",
        "0,-1;1,0 @ -1 ; 1,0,0;0,1,0;0,0,1 @ -1",
    ),
    (
        _projection_splits_antipodes,
        _suite("ptgroup"),
        "spacetime projection identifies exactly antipodal elements",
        ANTIPODES,
    ),
    (
        _projection_constant,
        _suite("ptgroup"),
        "spacetime projection identifies exactly antipodal elements",
        ANTIPODES,
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
