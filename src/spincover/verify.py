"""Seeded invariant suites behind the `verify` command.

Each suite is a fixed ordered list of named assertions over exact samples
drawn from a seeded generator, so a given (suite, seed, samples) triple
always produces the identical report.  Assertions never raise on failure;
an item-wise assertion is a law, a bool of one sampled item, and records as
its witness the first item that breaks it, its parts' texts joined by
``" ; "`` (:meth:`_Checks.check`).  :class:`CheckResult` and
:class:`SuiteReport` are the only assertion records, also for the split
extension checks of :func:`check_exact_sequence`.  A ptgroup run computes
the projection of each symmetry its laws reuse, and the ray of each base
spinor, once, in caches built by that run and dropped with it.  Its
canonical projection law is checked on generator x element pairs of the
group P, T and K = (I, -1) generate, which by induction on word length
decide it on every pair of that group.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
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
from .groups import _as_int, _close, _pt_matrices
from .ptgroup import (
    Event,
    SpacetimeSymmetry,
    SpinorSampleField,
    SpinorSymmetry,
    SpinorValue,
    apply_symmetry,
    pt_symmetries,
    ray_project,
    spacetime_projection,
    transform_value,
)
from .scalars import I_UNIT, GaussianRational, Record
from .semidirect import (
    SemidirectElement,
    compose,
    from_unitary,
    project_to_o3,
    to_unitary,
)


class CheckResult(Record):
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: Optional[str] = None) -> None:
        super().__init__(name, passed, witness)

    def to_json(self) -> dict:
        return {"assertion": self.name, "pass": self.passed, "witness": self.witness}


class SuiteReport(Record):
    __slots__ = ("suite", "checks")

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

    def check(self, name: str, items: Iterable[tuple], law: Callable[..., bool]) -> None:
        """Append assertion ``name``: ``law(*item)`` holds for every item.

        The assertion fails at its first failing item, and the law runs on
        no item after it.  The witness is that item, each part's
        ``to_text()`` (``str()`` for a part without one) joined by ``" ; "``.
        """
        failing = next((item for item in items if not law(*item)), None)
        witness = None if failing is None else " ; ".join(
            part.to_text() if hasattr(part, "to_text") else str(part) for part in failing
        )
        self.append(CheckResult(name, failing is None, witness))


#: The most samples a suite takes: ``verify all`` at the cap takes 20-26 s
#: and 96 MB peak RSS in one process (Python 3.11.7, one core of a 2-vCPU
#: Intel Xeon under varying load).
VERIFY_SAMPLE_LIMIT = 100_000


def _seeded(seed: int, samples: int) -> random.Random:
    """random.Random(seed) once seed and samples are ints, samples in 1..VERIFY_SAMPLE_LIMIT:
    Random takes a float, str or None seed, and no samples would pass every sampled law."""
    if not 1 <= _as_int(samples, "samples") <= VERIFY_SAMPLE_LIMIT:
        raise ValueError(f"samples must be in 1..{VERIFY_SAMPLE_LIMIT}, got {samples}")
    return random.Random(_as_int(seed, "seed"))


# -- seeded exact sampling ----------------------------------------------------


# Each draw of one of n values reads rng.getrandbits as Random.choice does
# (Random._randbelow): k = n.bit_length() bits, drawn again while the value
# is n or more.  So every seed gives the samples, and ends in the RNG state,
# of rng.randint over the same bounds; a sign is -1 where randint(0, 1)
# draws 1.


def sample_ratio(rng: random.Random) -> tuple[int, int]:
    """A rational in [-3, 3] as an unreduced pair (n, d), 1 <= d <= 3."""
    bits = rng.getrandbits
    n = bits(3)  # one of the 7 numerators -3..3
    while n == 7:
        n = bits(3)
    d = bits(2)  # one of the 3 denominators 1..3
    while d == 3:
        d = bits(2)
    return n - 3, d + 1


def _sample_sign(rng: random.Random) -> int:
    bit = rng.getrandbits(2)
    while bit > 1:
        bit = rng.getrandbits(2)
    return -1 if bit else 1


def sample_su2(rng: random.Random) -> UnitaryMat2:
    return stereographic_su2(sample_ratio(rng), sample_ratio(rng), sample_ratio(rng))


def sample_extended(rng: random.Random) -> UnitaryMat2:
    m = sample_su2(rng)
    if _sample_sign(rng) == -1:  # the det -1 coset: m times the parity lift i I
        return m.scalar_mul(I_UNIT)
    return m


def sample_pair_element(rng: random.Random) -> SemidirectElement:
    sign = _sample_sign(rng)
    return SemidirectElement(sample_su2(rng), sign)


def sample_symmetry(rng: random.Random) -> SpinorSymmetry:
    # Both parts come validated: a sampled unitary and a drawn sign.
    return SpinorSymmetry._from_fields(sample_extended(rng), _sample_sign(rng))


def sample_unit_spinor(rng: random.Random) -> SpinorValue:
    return SpinorValue(*sample_su2(rng).rows[0])


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
        return m.is_special() == (c == -w.conjugate() and d == z.conjugate())

    checks.check("kernel of det equals the embedded special subgroup on samples", zip(samples), kernel)

    def has_sign(m, sign):
        return m.det_sign == sign

    surjection = [(IDENTITY2, 1), (parity_operator(), -1)]
    checks.check("det is surjective onto {+1,-1} (witnesses: identity, parity lift)", surjection, has_sign)

    right_inverse = all(determinant_section(s).det_sign == s for s in (1, -1))
    checks.append(CheckResult("section is a right inverse of det on both signs", right_inverse))

    def homomorphic(s, t):
        return determinant_section(s) * determinant_section(t) == determinant_section(s * t)

    checks.check("section is a homomorphism on Z2 (all four products)", product((1, -1), repeat=2), homomorphic)
    return SuiteReport("exact-sequence", tuple(checks))


def run_cover_suite(seed: int, samples: int) -> SuiteReport:
    rng = _seeded(seed, samples)
    pairs = [(sample_su2(rng), sample_su2(rng)) for _ in range(samples)]
    specials = [a for a, _ in pairs]
    checks = _Checks()

    def rotation_hom(a, b):
        return covering_map(a * b) == covering_map(a) * covering_map(b)

    checks.check("rotation projection is multiplicative on sampled pairs", pairs, rotation_hom)

    def antipodal(a):
        return covering_map(a) == covering_map(-a)

    checks.check("antipodal matrices project to the same rotation", zip(specials), antipodal)

    def proper_image(a):
        image = covering_map(a)
        return image.det_sign == 1 and image.is_orthogonal()

    checks.check("projected rotations are orthogonal with det +1", zip(specials), proper_image)

    # scalar_mul(I_UNIT) is the product with the parity lift i I.
    extended_pairs = [
        (a.scalar_mul(I_UNIT) if k % 2 else a, b.scalar_mul(I_UNIT) if k % 3 == 0 else b)
        for k, (a, b) in enumerate(pairs)
    ]

    def extended_hom(c, d):
        return extended_covering_map(c * d) == extended_covering_map(c) * extended_covering_map(d)

    checks.check("extended projection is multiplicative across both components", extended_pairs, extended_hom)

    kernel_pool = zip(chain(*extended_pairs, _pt_matrices()))

    def kernel(c):
        return (extended_covering_map(c) == IDENTITY3) == (c in (IDENTITY2, -IDENTITY2))

    checks.check("extended projection kernel is exactly {I, -I}", kernel_pool, kernel)

    def diagram(a):
        return extended_covering_map(a) == covering_map(a)

    checks.check("embedding commutes with the two projections on det +1", zip(specials), diagram)

    def normality(b, a):
        return (b * a * b.inverse()).det_sign == 1

    conjugators = (d for _, d in extended_pairs)
    checks.check("det +1 subgroup is normal in the extension", zip(conjugators, specials), normality)

    def det_mult(c, d):
        return (c * d).det_sign == c.det_sign * d.det_sign

    checks.check("determinant is multiplicative on the extension", extended_pairs, det_mult)

    head = chain(*extended_pairs[: max(1, samples // 10)])
    sequence_samples = [IDENTITY2, -IDENTITY2, parity_operator(), determinant_section(-1), *head]
    checks.extend(check_exact_sequence(sequence_samples).checks)
    return SuiteReport("cover", tuple(checks))


# -- semidirect suite -----------------------------------------------------------


def run_semidirect_suite(seed: int, samples: int) -> SuiteReport:
    rng = _seeded(seed, samples)
    pairs = [(sample_pair_element(rng), sample_pair_element(rng)) for _ in range(samples)]
    firsts = [e for e, _ in pairs]
    checks = _Checks()

    def fuse_hom(e1, e2):
        return to_unitary(compose(e1, e2)) == to_unitary(e1) * to_unitary(e2)

    checks.check("fusing pairs to matrices preserves products", pairs, fuse_hom)

    order8 = list(_pt_matrices())

    def round_trip_matrix(c):
        return to_unitary(from_unitary(c)) == c

    matrices = chain(order8, (to_unitary(e) for e in firsts))
    checks.check("matrix -> pair -> matrix round trip is the identity", zip(matrices), round_trip_matrix)

    def round_trip_pair(e):
        return from_unitary(to_unitary(e)) == e

    checks.check("pair -> matrix -> pair round trip is the identity", zip(firsts), round_trip_pair)

    projection_pool = [from_unitary(c) for c in order8] + [e for pair in pairs for e in pair]

    def projections_agree(e):
        return project_to_o3(e) == extended_covering_map(to_unitary(e))

    checks.check("pair projection equals the matrix projection", zip(projection_pool), projections_agree)

    spinors = [sample_unit_spinor(rng) for _ in range(min(samples, 50))]

    def action_triangle(e, value):
        stepwise = transform_value(e.su2_part, transform_value(determinant_section(e.sign), value))
        return stepwise == transform_value(to_unitary(e), value)

    checks.check(
        "pair action on spinor values equals the fused-matrix action", zip(firsts, spinors), action_triangle
    )

    def fiber(e, other):
        base, fused = project_to_o3(e), to_unitary(e)
        partner = from_unitary(-fused)
        return (
            project_to_o3(partner) == base
            and to_unitary(partner) != fused
            and (project_to_o3(other) == base) == (to_unitary(other) in (fused, -fused))
        )

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


def run_ptgroup_suite(seed: int, samples: int) -> SuiteReport:
    rng = _seeded(seed, samples)
    checks = _Checks()
    # Each sampled or canonical element is projected, and each base spinor
    # rayed, once per call; products, negations and rescaled values, which
    # no other law meets, are projected and rayed directly.
    project = cache(spacetime_projection)
    ray = cache(ray_project)
    p_elem, t_elem, pt_elem = pt_symmetries().values()

    # P, T and the bare conjugation K = (I, -1) generate the 16 elements
    # (z M, a), z in {1, i, -1, -i}, M in {I, T}, a = +/-1: the order-8
    # group of P and T, +/-I, and P and T at both time signs.  The law on
    # the 48 generator x element pairs decides it on all 256 pairs.  The
    # pairs (g, e) give proj(e) = 1; each element is a word w = g1...gk,
    # the group being finite, and induction on k gives
    # proj(w h) = proj(g1)...proj(gk) proj(h) = proj(w) proj(h).
    generators = [p_elem, t_elem, SpinorSymmetry(IDENTITY2, -1)]
    closed, _ = _close(generators, SpinorSymmetry(IDENTITY2, 1), lambda a, b: a * b, 16)

    def projection_hom(g, h):
        return spacetime_projection(g * h) == project(g) * project(h)

    checks.check(
        "spacetime projection is multiplicative on the canonical pairs", product(generators, closed), projection_hom
    )

    expected_values = [
        (t_elem, SpacetimeSymmetry(IDENTITY3, -1)),
        (p_elem, SpacetimeSymmetry(SPACE_INVERSION, 1)),
        (pt_elem, SpacetimeSymmetry(SPACE_INVERSION, -1)),
    ]

    def canonical_values(element, expected):
        return project(element) == expected

    checks.check(
        "canonical reversals project to pure time flip, inversion, full reversal", expected_values, canonical_values
    )

    sampled_pairs = [(sample_symmetry(rng), sample_symmetry(rng)) for _ in range(max(samples, 500))]
    checks.check("spacetime projection is multiplicative on sampled pairs", sampled_pairs, projection_hom)

    def two_to_one(g, h):
        image = project(g)
        negated = SpinorSymmetry(-g.matrix, g.time_sign)
        antipodal = h.time_sign == g.time_sign and h.matrix in (g.matrix, -g.matrix)
        return spacetime_projection(negated) == image and (project(h) == image) == antipodal

    checks.check("spacetime projection identifies exactly antipodal elements", sampled_pairs, two_to_one)

    field = _standard_field()

    full_turn = SpinorSymmetry(-IDENTITY2, 1)
    ok = apply_symmetry(full_turn, field) == -field
    checks.append(CheckResult("the lift of a full turn negates every field value", ok))

    ok = apply_symmetry(p_elem, apply_symmetry(p_elem, field)) == -field
    checks.append(CheckResult("applying parity twice negates the field", ok))

    ok = apply_symmetry(t_elem, apply_symmetry(t_elem, field)) == -field
    checks.append(CheckResult("applying time reversal twice negates the field", ok))

    # As matrices (iT)^2 = +I; as operators (iT K)^2 = iT conj(iT) = -I.
    pt_squares = (pt_elem.matrix * pt_elem.matrix == IDENTITY2) and (
        apply_symmetry(pt_elem, apply_symmetry(pt_elem, field)) == -field
    )
    checks.append(
        CheckResult("the parity-time matrix squares to +I and its double action negates the field", pt_squares)
    )

    # The transformed value at (t, x) is a formula of the field value at
    # (a t, b x), an Event built from Fractions apart from the action's kernel.
    componentwise = [
        ("time reversal", t_elem, -1, 1, lambda s: SpinorValue(-s.v.conjugate(), s.u.conjugate())),
        ("parity", p_elem, 1, -1, lambda s: SpinorValue(I_UNIT * s.u, I_UNIT * s.v)),
        ("parity-time", pt_elem, -1, -1, lambda s: SpinorValue(-I_UNIT * s.v.conjugate(), I_UNIT * s.u.conjugate())),
    ]
    for name, element, a, b, formula in componentwise:
        transformed = apply_symmetry(element, field)

        def law(event):
            source = Event(a * event.t, tuple(b * q for q in event.x))
            return formula(field.value_at(source)) == transformed.value_at(event)

        checks.check(f"{name} matches its componentwise formula", zip(field.events()), law)

    spinors = [sample_unit_spinor(rng) for _ in range(min(samples, 100))]
    phases = [
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(0, 1),
        GaussianRational(0, -1),
        GaussianRational(Fraction(3, 5), Fraction(4, 5)),
        GaussianRational(Fraction(3, 5), Fraction(-4, 5)),
    ]

    def phase_invariance(value, phase):
        return ray_project(value.scale(phase)) == ray(value)

    checks.check("rays are invariant under unit phases", product(spinors, phases), phase_invariance)

    def parity_on_rays(value):
        return ray_project(transform_value(p_elem.matrix, value)) == ray(value)

    checks.check("parity acts trivially on rays", zip(spinors), parity_on_rays)

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
    """Run one named suite, or all of them for ``suite="all"``.  A sample
    count outside 1..VERIFY_SAMPLE_LIMIT is a ValueError."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITE_RUNNERS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES + ('all',)}")
    return [_SUITE_RUNNERS[name](seed, samples) for name in names]
