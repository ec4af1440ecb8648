"""Seeded invariant suites behind the `verify` command.

Each suite is a fixed ordered list of named assertions over exact samples
drawn from a seeded generator, so a given (suite, seed, samples) triple
always produces the identical report.  Assertions never raise on failure;
they record a witness string instead, the one for the first item that
breaks the assertion (:meth:`_Checks.check`).  :class:`CheckResult` and
:class:`SuiteReport` are the only assertion records, also for the split
extension checks of :func:`check_exact_sequence`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterable, Optional

from .cover import (
    IDENTITY2,
    IDENTITY3,
    SPACE_INVERSION,
    UnitaryMat2,
    covering_map,
    determinant_section,
    extended_covering_map,
    parity_operator,
    stereographic_su2,
)
from .groups import _close, spinor_pt_group
from .ptgroup import (
    Event,
    SpacetimeSymmetry,
    SpinorSampleField,
    SpinorSymmetry,
    SpinorValue,
    apply_symmetry,
    ray_project,
    spacetime_projection,
    time_reversal_operator,
    transform_value,
)
from .scalars import I_UNIT, GaussianRational
from .semidirect import (
    SemidirectElement,
    compose,
    from_unitary,
    project_to_o3,
    to_unitary,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Optional[str] = None

    def to_json(self) -> dict:
        return {"assertion": self.name, "pass": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "all_pass": self.all_pass,
            "assertions": [c.to_json() for c in self.checks],
        }


class _Checks(list):
    """The ordered :class:`CheckResult` list of one suite run."""

    def check(self, name: str, items: Iterable, predicate: Callable[..., Optional[str]]) -> None:
        """Append assertion ``name``.  ``predicate`` returns a witness string
        for an item that breaks the assertion and None otherwise; the
        assertion fails with the witness of the first such item."""
        witness = next((w for w in map(predicate, items) if w is not None), None)
        self.append(CheckResult(name, witness is None, witness))


# -- seeded exact sampling ----------------------------------------------------


def sample_rational(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def sample_su2(rng: random.Random) -> UnitaryMat2:
    return stereographic_su2(sample_rational(rng, 3), sample_rational(rng, 3), sample_rational(rng, 3))


def sample_extended(rng: random.Random) -> UnitaryMat2:
    m = sample_su2(rng)
    if rng.randint(0, 1):
        return m * parity_operator()
    return m


def sample_pair_element(rng: random.Random) -> SemidirectElement:
    sign = -1 if rng.randint(0, 1) else 1
    return SemidirectElement(sample_su2(rng), sign)


def sample_symmetry(rng: random.Random) -> SpinorSymmetry:
    return SpinorSymmetry(sample_extended(rng), -1 if rng.randint(0, 1) else 1)


def sample_unit_spinor(rng: random.Random) -> SpinorValue:
    return SpinorValue(*sample_su2(rng).rows[0])


def _order8_matrices() -> list[UnitaryMat2]:
    group = spinor_pt_group()
    assert group.element_source is not None
    return [group.element_source[label] for label in group.labels]


# -- cover suite ---------------------------------------------------------------


def check_exact_sequence(samples: Iterable[UnitaryMat2]) -> SuiteReport:
    """Check, on the given samples, that det splits the extension by Z2.

    The checks: the kernel of det coincides with the embedded special
    subgroup on the samples, det is surjective onto {+1, -1} (witnessed by
    the identity and the parity lift), and the section s -> diag(+/-1, 1)
    is a homomorphic right inverse of det (all four products checked).
    """
    checks = _Checks()

    def kernel(m):
        (z, w), (c, d) = m.rows
        canonical = c == -w.conjugate() and d == z.conjugate()
        if m.is_special() != canonical:
            return m.to_text()

    checks.check("kernel of det equals the embedded special subgroup on samples", samples, kernel)

    def has_sign(item):
        m, sign = item
        if m.det_sign != sign:
            return m.to_text()

    surjection = [(IDENTITY2, 1), (parity_operator(), -1)]
    checks.check("det is surjective onto {+1,-1} (witnesses: identity, parity lift)", surjection, has_sign)

    right_inverse = all(determinant_section(s).det_sign == s for s in (1, -1))
    checks.append(CheckResult("section is a right inverse of det on both signs", right_inverse))

    def homomorphic(signs):
        s, t = signs
        if determinant_section(s) * determinant_section(t) != determinant_section(s * t):
            return f"signs ({s}, {t})"

    checks.check("section is a homomorphism on Z2 (all four products)", product((1, -1), repeat=2), homomorphic)
    return SuiteReport("exact-sequence", tuple(checks))


def run_cover_suite(seed: int, samples: int) -> SuiteReport:
    rng = random.Random(seed)
    pairs = [(sample_su2(rng), sample_su2(rng)) for _ in range(samples)]
    specials = [a for a, _ in pairs]
    checks = _Checks()

    def rotation_hom(pair):
        a, b = pair
        if covering_map(a * b) != covering_map(a) * covering_map(b):
            return f"{a.to_text()} ; {b.to_text()}"

    checks.check("rotation projection is multiplicative on sampled pairs", pairs, rotation_hom)

    def antipodal(a):
        if covering_map(a) != covering_map(-a):
            return a.to_text()

    checks.check("antipodal matrices project to the same rotation", specials, antipodal)

    def proper_image(a):
        image = covering_map(a)
        if image.det_sign != 1 or not image.is_orthogonal():
            return a.to_text()

    checks.check("projected rotations are orthogonal with det +1", specials, proper_image)

    parity = parity_operator()
    extended_pairs = [
        (a * parity if k % 2 else a, b * parity if k % 3 == 0 else b)
        for k, (a, b) in enumerate(pairs)
    ]

    def extended_hom(pair):
        c, d = pair
        if extended_covering_map(c * d) != extended_covering_map(c) * extended_covering_map(d):
            return f"{c.to_text()} ; {d.to_text()}"

    checks.check("extended projection is multiplicative across both components", extended_pairs, extended_hom)

    kernel_pool = [m for pair in extended_pairs for m in pair] + _order8_matrices()

    def kernel(c):
        in_kernel = extended_covering_map(c) == IDENTITY3
        central = c in (IDENTITY2, -IDENTITY2)
        if in_kernel != central:
            return c.to_text()

    checks.check("extended projection kernel is exactly {I, -I}", kernel_pool, kernel)

    def diagram(a):
        if extended_covering_map(a) != covering_map(a):
            return a.to_text()

    checks.check("embedding commutes with the two projections on det +1", specials, diagram)

    def normality(pair):
        a, b = pair
        if (b * a * b.inverse()).det_sign != 1:
            return f"{b.to_text()} ; {a.to_text()}"

    conjugators = [d for _, d in extended_pairs]
    checks.check("det +1 subgroup is normal in the extension", zip(specials, conjugators), normality)

    def det_mult(pair):
        c, d = pair
        if (c * d).det_sign != c.det_sign * d.det_sign:
            return f"{c.to_text()} ; {d.to_text()}"

    checks.check("determinant is multiplicative on the extension", extended_pairs, det_mult)

    sequence_samples = [IDENTITY2, -IDENTITY2, parity, determinant_section(-1)] + [
        m for pair in extended_pairs[: max(1, samples // 10)] for m in pair
    ]
    checks.extend(check_exact_sequence(sequence_samples).checks)
    return SuiteReport("cover", tuple(checks))


# -- semidirect suite -----------------------------------------------------------


def run_semidirect_suite(seed: int, samples: int) -> SuiteReport:
    rng = random.Random(seed)
    pairs = [(sample_pair_element(rng), sample_pair_element(rng)) for _ in range(samples)]
    firsts = [e for e, _ in pairs]
    checks = _Checks()

    def fuse_hom(pair):
        e1, e2 = pair
        if to_unitary(compose(e1, e2)) != to_unitary(e1) * to_unitary(e2):
            return f"{e1.to_text()} ; {e2.to_text()}"

    checks.check("fusing pairs to matrices preserves products", pairs, fuse_hom)

    order8 = _order8_matrices()

    def round_trip_matrix(c):
        if to_unitary(from_unitary(c)) != c:
            return c.to_text()

    matrices = chain(order8, (to_unitary(e) for e in firsts))
    checks.check("matrix -> pair -> matrix round trip is the identity", matrices, round_trip_matrix)

    def round_trip_pair(e):
        if from_unitary(to_unitary(e)) != e:
            return e.to_text()

    checks.check("pair -> matrix -> pair round trip is the identity", firsts, round_trip_pair)

    projection_pool = [from_unitary(c) for c in order8] + [e for pair in pairs for e in pair]

    def projections_agree(e):
        if project_to_o3(e) != extended_covering_map(to_unitary(e)):
            return e.to_text()

    checks.check("pair projection equals the matrix projection", projection_pool, projections_agree)

    spinors = [sample_unit_spinor(rng) for _ in range(min(samples, 50))]

    def action_triangle(item):
        e, value = item
        stepwise = transform_value(e.su2_part, transform_value(determinant_section(e.sign), value))
        if stepwise != transform_value(to_unitary(e), value):
            return e.to_text()

    checks.check(
        "pair action on spinor values equals the fused-matrix action", zip(firsts, spinors), action_triangle
    )

    def fiber(pair):
        e, other = pair
        partner = from_unitary(-to_unitary(e))
        if project_to_o3(partner) != project_to_o3(e):
            return e.to_text()
        if to_unitary(partner) == to_unitary(e):
            return e.to_text()
        same_base = project_to_o3(other) == project_to_o3(e)
        antipodal = to_unitary(other) in (to_unitary(e), -to_unitary(e))
        if same_base != antipodal:
            return f"{e.to_text()} ; {other.to_text()}"

    checks.check("projection fibers are exactly antipodal matrix pairs", pairs, fiber)
    return SuiteReport("semidirect", tuple(checks))


# -- ptgroup suite ---------------------------------------------------------------


def _standard_field() -> SpinorSampleField:
    values = [
        SpinorValue(GaussianRational(1), GaussianRational(0, 1)),
        SpinorValue(GaussianRational(Fraction(3, 5)), GaussianRational(Fraction(4, 5))),
        SpinorValue(GaussianRational(0), GaussianRational(1)),
        SpinorValue(GaussianRational(1, 2), GaussianRational(-2, 3)),
    ]
    events = []
    for t in (Fraction(-1), Fraction(0), Fraction(1)):
        for x in (
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(-1), Fraction(0), Fraction(0)),
        ):
            events.append(Event(t, x))
    samples = {ev: values[k % len(values)] for k, ev in enumerate(events)}
    return SpinorSampleField(samples)


def _canonical_symmetries() -> list[SpinorSymmetry]:
    parity = parity_operator()
    treverse = time_reversal_operator()
    out = []
    for matrix in (IDENTITY2, -IDENTITY2):
        for sign in (1, -1):
            out.append(SpinorSymmetry(matrix, sign))
    for sign in (1, -1):
        out.append(SpinorSymmetry(parity, sign))
        out.append(SpinorSymmetry(treverse, sign))
    return out


def run_ptgroup_suite(seed: int, samples: int) -> SuiteReport:
    rng = random.Random(seed)
    checks = _Checks()

    # The order-8 subgroup generated by the canonical parity and
    # time-reversal pairs, in discovery order.
    lifted, _ = _close(
        [SpinorSymmetry.parity(), SpinorSymmetry.time_reversal()],
        SpinorSymmetry.identity(),
        lambda a, b: a * b,
        8,
    )
    canonical = _canonical_symmetries()
    exhaustive = chain(product(canonical, repeat=2), product(lifted, repeat=2))

    def projection_hom(pair):
        g, h = pair
        if spacetime_projection(g * h) != spacetime_projection(g) * spacetime_projection(h):
            return f"{g.to_text()} ; {h.to_text()}"

    checks.check("spacetime projection is multiplicative on the canonical pairs", exhaustive, projection_hom)

    expected_values = [
        (SpinorSymmetry.time_reversal(), SpacetimeSymmetry(IDENTITY3, -1)),
        (SpinorSymmetry.parity(), SpacetimeSymmetry(SPACE_INVERSION, 1)),
        (
            SpinorSymmetry.parity() * SpinorSymmetry.time_reversal(),
            SpacetimeSymmetry(SPACE_INVERSION, -1),
        ),
    ]

    def canonical_values(item):
        element, expected = item
        if spacetime_projection(element) != expected:
            return element.to_text()

    checks.check(
        "canonical reversals project to pure time flip, inversion, full reversal", expected_values, canonical_values
    )

    sampled_pairs = [(sample_symmetry(rng), sample_symmetry(rng)) for _ in range(max(samples, 500))]
    checks.check("spacetime projection is multiplicative on sampled pairs", sampled_pairs, projection_hom)

    def two_to_one(pair):
        g, h = pair
        negated = SpinorSymmetry(-g.matrix, g.time_sign)
        if spacetime_projection(negated) != spacetime_projection(g):
            return g.to_text()
        same = spacetime_projection(g) == spacetime_projection(h)
        antipodal = h.time_sign == g.time_sign and h.matrix in (g.matrix, -g.matrix)
        if same != antipodal:
            return f"{g.to_text()} ; {h.to_text()}"

    checks.check("spacetime projection identifies exactly antipodal elements", sampled_pairs, two_to_one)

    field = _standard_field()
    parity = parity_operator()

    full_turn = SpinorSymmetry(-IDENTITY2, 1)
    ok = apply_symmetry(full_turn, field) == -field
    checks.append(CheckResult("the lift of a full turn negates every field value", ok))

    p_elem = SpinorSymmetry.parity()
    ok = apply_symmetry(p_elem, apply_symmetry(p_elem, field)) == -field
    checks.append(CheckResult("applying parity twice negates the field", ok))

    t_elem = SpinorSymmetry.time_reversal()
    ok = apply_symmetry(t_elem, apply_symmetry(t_elem, field)) == -field
    checks.append(CheckResult("applying time reversal twice negates the field", ok))

    pt_matrix = (SpinorSymmetry.parity() * SpinorSymmetry.time_reversal()).matrix
    pt_product = SpinorSymmetry(pt_matrix, -1)
    pt_squares = (pt_matrix * pt_matrix == IDENTITY2) and (
        apply_symmetry(pt_product, apply_symmetry(pt_product, field)) == field
    )
    checks.append(CheckResult("the parity-time matrix squares to +I and its double action is trivial", pt_squares))

    def follows(element, source_of, formula):
        """Predicate on events: the transformed value at an event is
        ``formula`` of the field value at ``source_of(event)``."""
        transformed = apply_symmetry(element, field)

        def mismatch(event):
            if formula(field.value_at(source_of(event))) != transformed.value_at(event):
                return event.to_text()

        return mismatch

    reversal = follows(t_elem, Event.time_flipped, lambda s: SpinorValue(-s.v.conjugate(), s.u.conjugate()))
    checks.check("time reversal matches its componentwise formula", field.events(), reversal)
    inversion = follows(p_elem, Event.space_flipped, lambda s: SpinorValue(I_UNIT * s.u, I_UNIT * s.v))
    checks.check("parity matches its componentwise formula", field.events(), inversion)
    # The improper antiunitary sector entered with the parity matrix; the
    # action supplies the time-reversal factor itself, so the applied
    # matrix is parity * time-reversal.
    full_reversal = follows(
        SpinorSymmetry(parity, -1),
        lambda e: e.time_flipped().space_flipped(),
        lambda s: SpinorValue(-I_UNIT * s.v.conjugate(), I_UNIT * s.u.conjugate()),
    )
    checks.check("parity-time matches its componentwise formula", field.events(), full_reversal)

    spinors = [sample_unit_spinor(rng) for _ in range(min(samples, 100))]
    phases = [
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(0, 1),
        GaussianRational(0, -1),
        GaussianRational(Fraction(3, 5), Fraction(4, 5)),
        GaussianRational(Fraction(3, 5), Fraction(-4, 5)),
    ]

    def phase_invariance(item):
        value, phase = item
        if ray_project(value.scale(phase)) != ray_project(value):
            return value.to_text()

    checks.check("rays are invariant under unit phases", product(spinors, phases), phase_invariance)

    def parity_on_rays(value):
        if ray_project(transform_value(parity, value)) != ray_project(value):
            return value.to_text()

    checks.check("parity acts trivially on rays", spinors, parity_on_rays)

    basis_distinct = ray_project(SpinorValue(GaussianRational(1), GaussianRational(0))) != ray_project(
        SpinorValue(GaussianRational(0), GaussianRational(1))
    )
    checks.append(CheckResult("orthogonal basis spinors give distinct rays", basis_distinct))

    return SuiteReport("ptgroup", tuple(checks))


_SUITE_RUNNERS = {
    "cover": run_cover_suite,
    "semidirect": run_semidirect_suite,
    "ptgroup": run_ptgroup_suite,
}
SUITE_NAMES = tuple(_SUITE_RUNNERS)


def run_suites(suite: str, seed: int, samples: int) -> list[SuiteReport]:
    """Run one named suite, or all of them for ``suite="all"``."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITE_RUNNERS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES + ('all',)}")
    return [_SUITE_RUNNERS[name](seed, samples) for name in names]
