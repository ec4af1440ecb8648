import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from spincover import ptgroup
from spincover.cover import (
    HALF_TURN_Y,
    IDENTITY2,
    IDENTITY3,
    PAULI_Z,
    SPACE_INVERSION,
    UnitaryMat2,
    covering_map,
    determinant_section,
    extended_covering_map,
    parity_operator,
    quaternion_to_su2,
    rational_unit_quaternion,
)
from spincover.groups import (
    ORDER_MULTISET,
    IsomorphismWitness,
    Refutation,
    _close,
    _closure_group,
    cyclic,
    decide_isomorphism,
    dicyclic,
    direct_product,
    spacetime_pt_group,
    spinor_pt_group,
)
from spincover.ptgroup import (
    DomainClosureError,
    Event,
    FieldParseError,
    RayPoint,
    SpacetimeSymmetry,
    SpinorSampleField,
    SpinorSymmetry,
    SpinorValue,
    ZeroSpinorError,
    _SCALED_ORDER_MAX_BITS,
    _in_event_order,
    apply_symmetry,
    composition_defect,
    inner_product,
    pt_symmetries,
    ray_project,
    spacetime_projection,
    transform_value,
)
from spincover.scalars import (
    ExactKey,
    GaussianRational,
    ScalarParseError,
    ScalarSizeError,
    common_key,
    echo,
    parse_complex,
    parse_ratio,
)
from spincover.semidirect import (
    SemidirectElement,
    compose,
    from_unitary,
    project_to_o3,
    to_unitary,
    twist_automorphism,
)
from spincover.verify import sample_extended, sample_symmetry, sample_unit_spinor

G = GaussianRational


def gr(re=0, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def symmetric_events():
    events = []
    for t in (-1, 0, 1):
        for x in ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 1), (0, 0, -1)):
            events.append(Event.make(t, *x))
    return events


def varied_field():
    values = [
        SpinorValue(gr(1), gr(0, 1)),
        SpinorValue(gr(Fraction(3, 5)), gr(Fraction(4, 5))),
        SpinorValue(gr(0), gr(1)),
        SpinorValue(gr(2, -1), gr(Fraction(1, 3))),
        SpinorValue(gr(0), gr(0)),
    ]
    events = symmetric_events()
    return SpinorSampleField({e: values[i % len(values)] for i, e in enumerate(events)})


def constant(u, v):
    return SpinorSampleField({e: SpinorValue(u, v) for e in symmetric_events()})


# Rebinds written on an event's Fraction coordinates, apart from the key
# kernel apply_symmetry moves events by: the test oracles use these.


def time_flipped(e: Event) -> Event:
    return Event(-e.t, e.x)


def space_flipped(e: Event) -> Event:
    return Event(e.t, tuple(-q for q in e.x))


def rotated(e: Event, rotation) -> Event:
    return Event(e.t, rotation.apply(e.x))


class TestTimeReversalOperator:
    def test_matrix(self, treverse):
        assert treverse.rows == ((gr(0), gr(-1)), (gr(1), gr(0)))

    def test_squares_to_minus_identity(self, treverse):
        assert treverse * treverse == -IDENTITY2

    def test_det_plus_one(self, treverse):
        assert treverse.det_sign == 1

    def test_covers_half_turn_y(self, treverse):
        from spincover.cover import covering_map

        assert covering_map(treverse) == HALF_TURN_Y


# The module functions check the type of each argument at their entry: a
# wrong type is a TypeError naming the expected type, not an AttributeError
# from an attribute lookup further in.
WRONG_TYPE_CALLS = [
    pytest.param(lambda: covering_map("x"), "covering_map takes a UnitaryMat2, not str", id="covering_map"),
    pytest.param(
        lambda: extended_covering_map(1),
        "extended_covering_map takes a UnitaryMat2, not int",
        id="extended_covering_map",
    ),
    pytest.param(
        lambda: twist_automorphism(1, "x"), "twist_automorphism takes a UnitaryMat2, not str", id="twist_automorphism"
    ),
    pytest.param(lambda: from_unitary(1), "from_unitary takes a UnitaryMat2, not int", id="from_unitary"),
    pytest.param(
        lambda: compose(SemidirectElement(IDENTITY2, 1), "x"),
        "compose takes two SemidirectElements, not str",
        id="compose",
    ),
    pytest.param(lambda: to_unitary(1), "to_unitary takes a SemidirectElement, not int", id="to_unitary"),
    pytest.param(lambda: project_to_o3(1), "project_to_o3 takes a SemidirectElement, not int", id="project_to_o3"),
    pytest.param(
        lambda: spacetime_projection(1),
        "spacetime_projection takes a SpinorSymmetry, not int",
        id="spacetime_projection",
    ),
    pytest.param(lambda: ray_project(1), "ray_project takes a SpinorValue, not int", id="ray_project"),
    pytest.param(
        lambda: apply_symmetry(1, SpinorSampleField.from_text("0; 0,0,0; 1; 0\n")),
        "apply_symmetry takes a SpinorSymmetry, not int",
        id="apply_symmetry",
    ),
    pytest.param(
        lambda: apply_symmetry(pt_symmetries()["P"], "x"),
        "apply_symmetry acts on a SpinorSampleField, not str",
        id="apply_symmetry-field",
    ),
]


@pytest.mark.parametrize("call, message", WRONG_TYPE_CALLS)
def test_module_functions_give_a_type_error_for_a_wrong_type(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


class TestSymmetryTypes:
    @pytest.mark.parametrize(
        "matrix", ["x", 1, IDENTITY3, ((1, 0), (0, 1))], ids=["str", "int", "orthogonal", "tuple"]
    )
    def test_spinor_symmetry_takes_a_unitary_matrix(self, matrix):
        with pytest.raises(TypeError, match="^SpinorSymmetry takes a UnitaryMat2, not "):
            SpinorSymmetry(matrix, 1)

    @pytest.mark.parametrize("spatial", ["x", 1, IDENTITY2], ids=["str", "int", "unitary"])
    def test_spacetime_symmetry_takes_an_orthogonal_matrix(self, spatial):
        with pytest.raises(TypeError, match="^SpacetimeSymmetry takes an OrthogonalMat3, not "):
            SpacetimeSymmetry(spatial, -1)


class TestSpacetimeProjection:
    def test_identity(self):
        g = SpinorSymmetry(IDENTITY2, 1)
        assert spacetime_projection(g) == SpacetimeSymmetry(IDENTITY3, 1)

    def test_time_reversal_is_pure_time_flip(self):
        g = pt_symmetries()["T"]
        assert spacetime_projection(g) == SpacetimeSymmetry(IDENTITY3, -1)

    def test_parity_is_space_inversion(self):
        g = pt_symmetries()["P"]
        assert spacetime_projection(g) == SpacetimeSymmetry(SPACE_INVERSION, 1)

    def test_product_element_is_full_reversal(self):
        p, t = pt_symmetries()["P"], pt_symmetries()["T"]
        g = p * t
        assert spacetime_projection(g) == SpacetimeSymmetry(SPACE_INVERSION, -1)

    def test_kernel(self):
        for matrix in (IDENTITY2, -IDENTITY2):
            g = SpinorSymmetry(matrix, 1)
            assert spacetime_projection(g) == SpacetimeSymmetry(IDENTITY3, 1)

    def test_homomorphism_on_samples(self, rng):
        for _ in range(300):
            g, h = sample_symmetry(rng), sample_symmetry(rng)
            assert spacetime_projection(g * h) == spacetime_projection(g) * spacetime_projection(h)

    def test_two_to_one(self, rng):
        for _ in range(100):
            g = sample_symmetry(rng)
            twin = SpinorSymmetry(-g.matrix, g.time_sign)
            assert spacetime_projection(twin) == spacetime_projection(g)

    def test_twisted_composition_reduces_to_componentwise_on_commuting_parts(self):
        p = SpacetimeSymmetry(SPACE_INVERSION, 1)
        t = SpacetimeSymmetry(IDENTITY3, -1)
        assert (t * p).spatial == SPACE_INVERSION
        assert (p * t).spatial == SPACE_INVERSION
        assert (t * t) == SpacetimeSymmetry(IDENTITY3, 1)

    def test_composition_is_componentwise(self):
        # The 120-degree turn about (1, 1, 1) does not commute with the half
        # turn about y, and a time flip leaves it as it is.
        turn = covering_map(CYCLIC_TURN.matrix)
        t = SpacetimeSymmetry(IDENTITY3, -1)
        assert HALF_TURN_Y * turn * HALF_TURN_Y != turn
        assert t * SpacetimeSymmetry(turn, 1) == SpacetimeSymmetry(turn, -1)
        assert SpacetimeSymmetry(turn, -1) * SpacetimeSymmetry(turn, -1) == SpacetimeSymmetry(turn * turn, 1)


class TestSemidirectBridge:
    """A twisted pair with a time sign is the double-cover element
    (to_unitary(pair), sign), and from_unitary splits its matrix back."""

    def test_parity_pair(self):
        g = SpinorSymmetry(to_unitary(from_unitary(parity_operator())), 1)
        assert g == pt_symmetries()["P"]

    def test_time_reversal_pair(self, treverse):
        g = pt_symmetries()["T"]
        e, sign = from_unitary(g.matrix), g.time_sign
        assert sign == -1
        assert e == from_unitary(treverse)
        assert e.sign == 1

    def test_round_trip(self, rng):
        for _ in range(50):
            g = sample_symmetry(rng)
            e, sign = from_unitary(g.matrix), g.time_sign
            assert SpinorSymmetry(to_unitary(e), sign) == g

    def test_pair_projection_values(self):
        def projection(e):
            return spacetime_projection(SpinorSymmetry(to_unitary(e), 1))

        assert projection(from_unitary(parity_operator())) == SpacetimeSymmetry(SPACE_INVERSION, 1)
        assert projection(from_unitary(IDENTITY2)) == SpacetimeSymmetry(IDENTITY3, 1)
        assert projection(from_unitary(-IDENTITY2)) == SpacetimeSymmetry(IDENTITY3, 1)


class TestRotationAction:
    def test_identity_fixes_field(self):
        f = varied_field()
        assert apply_symmetry(SpinorSymmetry(IDENTITY2, 1), f) == f

    def test_minus_identity_negates(self):
        f = varied_field()
        assert apply_symmetry(SpinorSymmetry(-IDENTITY2, 1), f) == -f

    def test_time_reversal_matrix_as_plain_rotation_at_origin(self, treverse):
        events = [Event.make(t, 0, 0, 0) for t in (-1, 0, 1)]
        value = SpinorValue(gr(1), gr(0, 1))
        f = SpinorSampleField({e: value for e in events})
        g = apply_symmetry(SpinorSymmetry(treverse, 1), f)
        expected = transform_value(treverse, value)
        for e in events:
            assert g.value_at(e) == expected

    def test_argument_rebinding(self, treverse):
        # the half turn about y sends (1,0,0) to (-1,0,0)
        f = varied_field()
        g = apply_symmetry(SpinorSymmetry(treverse, 1), f)
        probe = Event.make(0, 1, 0, 0)
        source = Event.make(0, -1, 0, 0)
        assert g.value_at(probe) == transform_value(treverse, f.value_at(source))

    def test_missing_event_reported(self, treverse):
        f = SpinorSampleField({Event.make(0, 1, 0, 0): SpinorValue(gr(1), gr(0))})
        with pytest.raises(DomainClosureError) as err:
            apply_symmetry(SpinorSymmetry(treverse, 1), f)
        assert "-1" in str(err.value)


class TestTimeReversalAction:
    def test_constant_field_formula(self, treverse):
        f = constant(gr(1), gr(0, 1))
        g = apply_symmetry(SpinorSymmetry(treverse, -1), f)
        for e in f.events():
            assert g.value_at(e) == SpinorValue(gr(0, 1), gr(1))

    def test_double_application_negates(self, treverse):
        f = varied_field()
        t = SpinorSymmetry(treverse, -1)
        assert apply_symmetry(t, apply_symmetry(t, f)) == -f

    def test_identity_matrix_conjugates_and_flips_time(self):
        f = varied_field()
        g = apply_symmetry(SpinorSymmetry(IDENTITY2, -1), f)
        for e in f.events():
            assert g.value_at(e) == f.value_at(time_flipped(e)).conjugate()

    def test_real_field_with_identity_matrix_only_flips_time(self):
        events = symmetric_events()
        samples = {
            e: SpinorValue(gr(i % 3), gr(-(i % 2))) for i, e in enumerate(events)
        }
        f = SpinorSampleField(samples)
        g = apply_symmetry(SpinorSymmetry(IDENTITY2, -1), f)
        for e in events:
            assert g.value_at(e) == f.value_at(time_flipped(e))


class TestParityAction:
    def test_constant_field_formula(self, parity):
        f = constant(gr(1), gr(Fraction(2, 7)))
        g = apply_symmetry(SpinorSymmetry(parity, 1), f)
        for e in f.events():
            assert g.value_at(e) == SpinorValue(gr(0, 1), gr(0, Fraction(2, 7)))

    def test_double_application_negates(self, parity):
        f = varied_field()
        p = SpinorSymmetry(parity, 1)
        assert apply_symmetry(p, apply_symmetry(p, f)) == -f

    def test_support_moves_to_reflected_point(self, parity):
        here = Event.make(0, 1, 0, 0)
        there = Event.make(0, -1, 0, 0)
        zero = SpinorValue(gr(0), gr(0))
        bump = SpinorValue(gr(1), gr(0))
        f = SpinorSampleField({here: bump, there: zero})
        g = apply_symmetry(SpinorSymmetry(parity, 1), f)
        assert g.value_at(here) == zero.scale(gr(0, 1))
        assert g.value_at(there) == transform_value(parity, bump)


class TestParityTimeAction:
    def test_basis_spinor_formulas(self):
        pt = pt_symmetries()["PT"]
        f = constant(gr(1), gr(0))
        g = apply_symmetry(pt, f)
        for e in f.events():
            assert g.value_at(e) == SpinorValue(gr(0), gr(0, 1))
        f2 = constant(gr(0), gr(1))
        g2 = apply_symmetry(pt, f2)
        for e in f2.events():
            assert g2.value_at(e) == SpinorValue(gr(0, -1), gr(0))

    def test_combined_matrix_is_parity_times_time_reversal(self, parity, treverse):
        # parity * time reversal is ((0,-i),(i,0)) at time sign -1
        combined = pt_symmetries()["PT"]
        i = gr(0, 1)
        assert combined == SpinorSymmetry(parity * treverse, -1)
        assert combined.matrix.rows == ((gr(0), -i), (i, gr(0)))

    def test_full_argument_flip(self):
        pt = pt_symmetries()["PT"]
        f = varied_field()
        g = apply_symmetry(pt, f)
        for e in f.events():
            source = f.value_at(space_flipped(time_flipped(e)))
            assert g.value_at(e) == transform_value(pt.matrix, source.conjugate())


class TestDispatch:
    def test_identity_element(self):
        f = varied_field()
        assert apply_symmetry(SpinorSymmetry(IDENTITY2, 1), f) == f

    def test_full_turn_negates(self):
        f = varied_field()
        assert apply_symmetry(SpinorSymmetry(-IDENTITY2, 1), f) == -f

    def test_half_turn_lift_applied_twice_negates(self, treverse):
        # any det=+1 matrix squaring to -I lifts a spatial half turn; two
        # applications traverse the full turn and flip the field's sign
        i = gr(0, 1)
        for matrix in (PAULI_Z.scalar_mul(i), treverse):
            assert matrix * matrix == -IDENTITY2
            g = SpinorSymmetry(matrix, 1)
            f = varied_field()
            assert apply_symmetry(g, apply_symmetry(g, f)) == -f


def axis_orbit_field(coefficient):
    """(coefficient(x), 0) at t = 0 on the 12 points of the orbit of
    x = (1, 2, 3) under the cyclic axis permutation and the half turn about z."""
    orbit, todo = set(), [(1, 2, 3)]
    while todo:
        a, b, c = point = todo.pop()
        if point not in orbit:
            orbit.add(point)
            todo += [(c, a, b), (-a, -b, c)]
    return SpinorSampleField({Event.make(0, *x): SpinorValue(gr(coefficient(x)), gr(0)) for x in orbit})


# Lifts of the 120-degree turn about (1, 1, 1) and of the half turn about z.
# The rotations do not commute, so acting by one after the other reads each
# value from another event than acting by their product does.
CYCLIC_TURN = SpinorSymmetry(UnitaryMat2.from_text("1/2-1/2i,-1/2-1/2i;1/2-1/2i,1/2+1/2i"), 1)
HALF_TURN_Z = SpinorSymmetry(UnitaryMat2.from_text("i,0;0,-i"), 1)


class TestCompositionDefect:
    def test_double_time_reversal_has_no_defect(self):
        g = pt_symmetries()["T"]
        f = varied_field()
        report = composition_defect(g, g, f)
        assert report.law_holds
        assert report.witnesses == ()

    def test_commuting_rotations_have_no_defect(self, treverse):
        a = SpinorSymmetry(treverse, 1)
        b = SpinorSymmetry(-treverse, 1)
        report = composition_defect(a, b, varied_field())
        assert report.law_holds

    def test_antiunitary_square_has_no_defect(self):
        # (i sigma3) conj(i sigma3) = identity, so both paths apply the identity
        i_sigma3 = PAULI_Z.scalar_mul(gr(0, 1))
        g = SpinorSymmetry(i_sigma3, -1)
        assert g * g == SpinorSymmetry(IDENTITY2, 1)
        report = composition_defect(g, g, varied_field())
        assert report.law_holds
        assert report.witnesses == ()

    @pytest.mark.parametrize(
        "g, h, field, witnesses",
        [
            # Time reversal after parity: one improper antiunitary element.
            (
                pt_symmetries()["T"],
                pt_symmetries()["P"],
                lambda: SpinorSampleField({Event.make(0, 0, 0, 0): SpinorValue(gr(1), gr(1))}),
                0,
            ),
            # Rotations that do not commute read other events, whatever the values.
            (CYCLIC_TURN, HALF_TURN_Z, lambda: axis_orbit_field(lambda x: int(x[0] > 0)), 12),
            (CYCLIC_TURN, HALF_TURN_Z, lambda: axis_orbit_field(lambda x: x[0] + 10), 12),
            # The time sector drops the half turn about z: the one-step path
            # flips time only, the two-step path also turns.
            (SpinorSymmetry(HALF_TURN_Z.matrix, -1), HALF_TURN_Z, lambda: axis_orbit_field(lambda x: x[0] + 10), 12),
        ],
        ids=["time-parity", "rotations-zero-values", "rotations-distinct-values", "time-sector-rotation"],
    )
    def test_witnesses(self, g, h, field, witnesses):
        report = composition_defect(g, h, field())
        assert len(report.witnesses) == witnesses
        assert report.law_holds == (witnesses == 0)

    def test_json_schema(self):
        g = pt_symmetries()["T"]
        payload = composition_defect(g, g, varied_field()).to_json()
        assert set(payload) == {"pair", "law_holds", "witnesses"}
        assert payload["law_holds"] is True
        assert payload["witnesses"] == []


# -- the P/T group under the operator product ----------------------------------

APPLY_FIELD = Path(__file__).parent / "golden" / "apply_field.txt"


def pt_closure():
    """P and T closed under SpinorSymmetry.__mul__: the elements in discovery
    order and the group of their table."""
    elements, table = _close(
        [pt_symmetries()["P"], pt_symmetries()["T"]], SpinorSymmetry(IDENTITY2, 1), lambda a, b: a * b, 8
    )
    return elements, _closure_group(elements, table, "P/T operators")


def plain_product(a, b):
    """The direct product O(3) x Z2, written out."""
    return SpacetimeSymmetry(a.spatial * b.spatial, a.time_sign * b.time_sign)


class TestPTOperatorGroup:
    """P and T under the operator product: a group action on the golden
    apply field, a homomorphism onto the plain O(3) x Z2, and the group Dic8,
    while their matrices alone form Z4 x Z2."""

    def test_action_law_on_every_pair(self):
        f = SpinorSampleField.from_text(APPLY_FIELD.read_text(encoding="utf-8"))
        elements, _ = pt_closure()
        assert len(elements) == 8
        acted = {g: apply_symmetry(g, f) for g in elements}
        failures = [
            (g.to_text(), h.to_text())
            for g, h in product(elements, repeat=2)
            if apply_symmetry(g, acted[h]) != acted[g * h]
        ]
        assert failures == []

    def test_projection_onto_plain_product(self, rng):
        # The products and the projection build their results without the
        # constructors' checks: each equals, in type and value and field by
        # field, what the validating constructors build.
        def same(built, checked):
            fields = zip(built._fields(), checked._fields(), strict=True)
            return type(built) is type(checked) and all(type(a) is type(b) and a == b for a, b in fields)

        elements, _ = pt_closure()
        sampled = [(sample_symmetry(rng), sample_symmetry(rng)) for _ in range(200)]
        for g, h in [*product(elements, repeat=2), *sampled]:
            right = h.matrix.conjugate() if g.time_sign == -1 else h.matrix
            assert same(g * h, SpinorSymmetry(g.matrix * right, g.time_sign * h.time_sign))
            pg, ph = spacetime_projection(g), spacetime_projection(h)
            assert same(pg, SpacetimeSymmetry(pg.spatial, pg.time_sign))
            assert same(pg * ph, plain_product(pg, ph))
            assert spacetime_projection(g * h) == plain_product(pg, ph)
        g, pg = elements[1], spacetime_projection(elements[1])
        for left, right in [(g, pg), (pg, g), (g, g.matrix), (pg, pg.spatial), (g, -1), (pg, 1)]:
            with pytest.raises(TypeError):
                left * right

    def test_operators_form_dic8_and_matrices_z4xz2(self):
        _, group = pt_closure()
        z4xz2 = direct_product(cyclic(4), cyclic(2))
        assert isinstance(decide_isomorphism(group, dicyclic(8)), IsomorphismWitness)
        assert decide_isomorphism(group, z4xz2) == Refutation(
            ORDER_MULTISET, [1, 2, 4, 4, 4, 4, 4, 4], [1, 2, 2, 2, 4, 4, 4, 4]
        )
        assert isinstance(decide_isomorphism(spinor_pt_group(), z4xz2), IsomorphismWitness)

    def test_pt_symmetries_are_the_paper_elements(self):
        # P = i I, T = ((0, -1), (1, 0)) K, and PT their operator product.
        named = [(name, g.matrix, g.time_sign) for name, g in pt_symmetries().items()]
        assert named == [
            ("P", UnitaryMat2.from_text("i,0;0,i"), 1),
            ("T", UnitaryMat2.from_text("0,-1;1,0"), -1),
            ("PT", UnitaryMat2.from_text("0,-i;i,0"), -1),
        ]

    def test_named_tables_are_what_p_and_t_generate(self):
        # The oracle is the operator closure of P and T, built here.
        elements, _ = pt_closure()
        spinor = spinor_pt_group()
        matrices = [spinor.element_source[label] for label in spinor.labels]
        assert len(matrices) == 8
        assert set(matrices) == {g.matrix for g in elements}

        projections = {spacetime_projection(g) for g in elements}
        assert len(projections) == 4
        spacetime = spacetime_pt_group()
        assert {spacetime.element_source[label] for label in spacetime.labels} == projections
        assert len(spacetime.labels) == 4
        p, t = pt_symmetries()["P"], pt_symmetries()["T"]
        assert p in elements and t in elements
        for label, g in [("P", p), ("T", t), ("PT", p * t)]:
            assert spacetime.element_source[label] == spacetime_projection(g)


gaussian_values = st.builds(
    G, st.fractions(min_value=-9, max_value=9, max_denominator=12), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


class TestRaySpace:
    def test_phase_does_not_matter(self):
        a = ray_project(SpinorValue(gr(1), gr(0)))
        b = ray_project(SpinorValue(gr(0, 1), gr(0)))
        assert a == b

    def test_orthogonal_spinors_differ(self):
        a = ray_project(SpinorValue(gr(1), gr(0)))
        b = ray_project(SpinorValue(gr(0), gr(1)))
        assert a != b

    def test_parity_preserves_every_ray(self, rng, parity):
        for _ in range(100):
            value = sample_unit_spinor(rng)
            assert ray_project(transform_value(parity, value)) == ray_project(value)

    def test_unit_phases_preserve_rays(self, rng):
        phases = [gr(1), gr(-1), gr(0, 1), gr(0, -1),
                  gr(Fraction(3, 5), Fraction(4, 5)), gr(Fraction(3, 5), Fraction(-4, 5))]
        for _ in range(30):
            value = sample_unit_spinor(rng)
            for phase in phases:
                assert ray_project(value.scale(phase)) == ray_project(value)

    def test_zero_rejected(self):
        with pytest.raises(ZeroSpinorError):
            ray_project(SpinorValue(gr(0), gr(0)))

    def test_equality_matches_projective_slope(self, rng):
        # Rays compare by their slope v/u.  The reference is the criterion
        # with no slope and no square root: a and b span one ray exactly
        # when |<a,b>|^2 = |a|^2 |b|^2.  Equal rays hash equal.
        def norm_sq(a):
            return inner_product(a, a).re

        on_axes = [  # u = 0 twice, v = 0 twice
            SpinorValue(gr(0), gr(2, -1)),
            SpinorValue(gr(0), gr(0, Fraction(1, 3))),
            SpinorValue(gr(Fraction(1, 3)), gr(0)),
            SpinorValue(gr(-2, 1), gr(0)),
        ]
        values = on_axes + [sample_unit_spinor(rng) for _ in range(20)]
        scales = [gr(1), gr(0, 1), gr(2, -3), gr(Fraction(-1, 5))]
        for a in values:
            for b in values + [a.scale(c) for c in scales]:
                same_ray = inner_product(a, b).norm_sq() == norm_sq(a) * norm_sq(b)
                assert (ray_project(a) == ray_project(b)) == same_ray
                if same_ray:
                    assert hash(ray_project(a)) == hash(ray_project(b))

    def test_slope_is_exact_value(self):
        assert ray_project(SpinorValue(gr(2), gr(0, 1))) == RayPoint(gr(0, Fraction(1, 2)))
        assert ray_project(SpinorValue(gr(0), gr(3))) == RayPoint(None)
        with pytest.raises(TypeError, match="RayPoint takes a GaussianRational slope or None"):
            RayPoint(Fraction(1, 2))

    @given(gaussian_values, gaussian_values)
    @example(G(0), G(0))
    @example(G(0), G(Fraction(-7, 6), 2))
    @example(G(Fraction(4, 9), Fraction(-2, 3)), G(0))
    def test_slope_is_the_quotient(self, u, v):
        # The slope is written from the numerators with one gcd; the
        # reference is GaussianRational division, on values of any norm.
        value = SpinorValue(u, v)
        if value.is_zero():
            with pytest.raises(ZeroSpinorError):
                ray_project(value)
        elif u.is_zero():
            assert ray_project(value).slope is None
        else:
            assert ray_project(value).slope == v / u

    def test_hash_consistent_with_equality(self, rng):
        for _ in range(50):
            value = sample_unit_spinor(rng)
            scaled = value.scale(gr(0, 1))
            assert hash(ray_project(value)) == hash(ray_project(scaled))

    def test_unit_representative_criterion(self, rng):
        # for unit representatives equality is a unit-modulus inner product
        for _ in range(50):
            a, b = sample_unit_spinor(rng), sample_unit_spinor(rng)
            if ray_project(a) == ray_project(b):
                assert inner_product(a, b).norm_sq() == 1


class TestFieldFiles:
    def test_round_trip(self):
        f = varied_field()
        text = f.to_text()
        assert SpinorSampleField.from_text(text) == f

    def test_canonical_line_order(self):
        f = varied_field()
        events = f.events()
        assert events == sorted(events)
        parsed_back = [line.split(";")[0].strip() for line in f.to_lines()]
        times = [Fraction(p) for p in parsed_back]
        assert times == sorted(times)

    def test_samples_kept_in_event_order(self):
        a, b, c = Event.make(-1, 0, 0, 0), Event.make(0, 2, 0, 0), Event.make(0, 1, 0, 0)
        one, i = SpinorValue(gr(1), gr(0)), SpinorValue(gr(0), gr(1))
        f = SpinorSampleField({a: one, b: i, c: one})
        assert list(f.samples) == f.events() == [a, c, b]
        assert f == SpinorSampleField({c: one, b: i, a: one})
        assert f != SpinorSampleField({a: one, b: one, c: one})
        assert f.to_lines() == ["-1; 0,0,0; 1; 0", "0; 1,0,0; 1; 0", "0; 2,0,0; 0; 1"]

    def test_grammar_example(self):
        text = "0; 0,0,0; 1; i\n1; 1/2,0,-1; 3/5+4/5i; 0\n"
        f = SpinorSampleField.from_text(text)
        assert f.value_at(Event.make(0, 0, 0, 0)) == SpinorValue(gr(1), gr(0, 1))
        assert f.to_text() == text

    def test_parse_error_carries_line_number(self):
        with pytest.raises(FieldParseError) as err:
            SpinorSampleField.from_text("0; 0,0,0; 1; i\nbroken line\n")
        assert err.value.line_number == 2

    def test_duplicate_event_rejected(self):
        with pytest.raises(FieldParseError):
            SpinorSampleField.from_text("0; 0,0,0; 1; 0\n0; 0,0,0; 0; 1\n")

    def test_wrong_coordinate_count_rejected(self):
        with pytest.raises(FieldParseError) as err:
            SpinorSampleField.from_text("0; 0,0; 1; 0\n")
        assert "three spatial coordinates" in str(err.value)

    def test_bad_scalar_rejected_with_line(self):
        with pytest.raises(FieldParseError) as err:
            SpinorSampleField.from_text("0; 0,0,0; 1; 0\n1; 0,0,0; 0.5; 0\n")
        assert err.value.line_number == 2

    def test_blank_lines_skipped(self):
        f = SpinorSampleField.from_text("\n0; 0,0,0; 1; 0\n\n")
        assert len(f.events()) == 1

    def test_lines_end_only_at_line_feed(self):
        # A carriage return is whitespace: a CRLF line reads as an LF line,
        # and a lone CR does not end a line.
        assert SpinorSampleField.from_text("0; 0,0,0; 1; 0\r\n") == SpinorSampleField.from_text("0; 0,0,0; 1; 0\n")
        with pytest.raises(FieldParseError) as err:
            SpinorSampleField.from_text("0; 0,0,0; 1; 0\r1; 0,0,0; 1; 0\n")
        assert str(err.value) == "line 1: expected 't; x1,x2,x3; u; v', got '0; 0,0,0; 1; 0\\r1; 0,0,0; 1; 0'"


class TestFieldSurface:
    def test_constructor_and_map_values_check_types(self):
        with pytest.raises(TypeError, match="field events must be Event, not str"):
            SpinorSampleField({"x": 1})
        with pytest.raises(TypeError, match="field values must be SpinorValue, not tuple"):
            SpinorSampleField({Event.make(0, 0, 0, 0): (1, 2)})
        f = varied_field()
        with pytest.raises(TypeError, match="field values must be SpinorValue, not tuple"):
            f.map_values(lambda v: (v.u, v.v))
        with pytest.raises(TypeError, match="field events must be Event, not tuple"):
            f.value_at((0, 0, 0, 0))

    def test_immutable_unhashable_copyable(self):
        f = varied_field()
        # Equality, copy and pickle are ExactKey's, over the one dict key.
        assert isinstance(f, ExactKey)
        assert not {"__eq__", "__reduce__", "_from_keys"} & set(vars(SpinorSampleField))
        with pytest.raises(AttributeError):
            f.samples = {}
        with pytest.raises(AttributeError, match="^SpinorSampleField is immutable$"):
            del f._key
        assert f == varied_field()
        with pytest.raises(TypeError):
            hash(f)
        # The repr is a constructor call over the exact types.
        names = {cls.__name__: cls for cls in (SpinorSampleField, Event, SpinorValue, GaussianRational, Fraction)}
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f)), eval(repr(f), names)):
            assert g == f and g.events() == f.events() and g.to_text() == f.to_text()
        assert f != f.to_text() and f.__eq__(f.to_text()) is NotImplemented

    def test_samples_are_built_on_each_call(self):
        f = varied_field()
        f.samples.clear()
        assert f.samples == varied_field().samples and f.samples is not f.samples

    # With 2^bits as large as the bound, the least common denominator has
    # more bits than scaled sort keys take.
    @pytest.mark.parametrize("bits", [2, _SCALED_ORDER_MAX_BITS])
    def test_events_sorted_by_value(self, bits):
        big = 2**bits
        coordinates = [Fraction(1, big + 1), Fraction(1, big + 3), Fraction(-2, big), Fraction(1, 3), 0]
        events = [Event.make(t, x, 0, 0) for t in coordinates for x in coordinates]
        f = SpinorSampleField({e: SpinorValue(gr(1), gr(0)) for e in reversed(events)})
        assert f.events() == sorted(events)
        assert SpinorSampleField.from_text(f.to_text()).events() == sorted(events)

    # 2^200 * 3^35 has 256 bits, so scaled keys sort it; with 3^36 the lcm
    # passes the bound and the sort compares Events.  Either way the order is
    # the Events' order.
    @pytest.mark.parametrize("bits, denominators", [(256, [2**200, 3**35, 6]), (258, [2**200, 3**36, 6])])
    def test_event_order_either_side_of_the_bound(self, bits, denominators):
        rng = random.Random(bits)

        def coordinate() -> Fraction:
            d = rng.choice(denominators)
            return Fraction(rng.randint(-2 * d, 2 * d), d)

        keys = {Event.make(coordinate(), coordinate(), 0, 0)._key for _ in range(300)}
        keys |= {Event.make(0, coordinate(), coordinate(), 0)._key for _ in range(300)}
        assert lcm(*{key[4] for key in keys}).bit_length() == bits
        assert list(_in_event_order(dict.fromkeys(keys))) == sorted(keys, key=Event._from_key)

    def test_event_order_gives_up_the_lcm_at_the_bound(self, monkeypatch):
        # 64 odd 21-bit denominators have an lcm of over a thousand bits; the
        # fold stops within one denominator of the bound.
        results = []

        def recording_lcm(*args: int) -> int:
            results.append(lcm(*args))
            return results[-1]

        monkeypatch.setattr(ptgroup, "lcm", recording_lcm)
        keys = [Event.make(Fraction(k, 2**20 + 2 * d + 1), 0, 0, 0)._key for d in range(64) for k in (-1, 1)]
        assert list(_in_event_order(dict.fromkeys(keys))) == sorted(keys, key=Event._from_key)
        assert max(r.bit_length() for r in results) <= _SCALED_ORDER_MAX_BITS + 21


class TestClosureMetadata:
    def test_rotation_reports_first_missing_event(self, treverse):
        from spincover.cover import covering_map

        f = SpinorSampleField({Event.make(0, 1, 0, 0): SpinorValue(gr(1), gr(0))})
        rotation = covering_map(treverse)
        with pytest.raises(DomainClosureError) as err:
            apply_symmetry(SpinorSymmetry(treverse, 1), f)
        assert err.value.missing == rotated(Event.make(0, 1, 0, 0), rotation)

    def test_flips_report_first_missing_event(self, treverse, parity):
        one = SpinorValue(gr(1), gr(0))
        f = SpinorSampleField({Event.make(1, 0, 0, 0): one, Event.make(2, 1, 0, 0): one})
        with pytest.raises(DomainClosureError) as err:
            apply_symmetry(SpinorSymmetry(treverse, -1), f)
        assert err.value.missing == Event.make(-1, 0, 0, 0)
        with pytest.raises(DomainClosureError) as err:
            apply_symmetry(SpinorSymmetry(parity, 1), f)
        assert err.value.missing == Event.make(2, -1, 0, 0)

    def test_symmetric_domain_is_closed(self, treverse, parity):
        f = varied_field()
        assert apply_symmetry(SpinorSymmetry(treverse, -1), f).events() == f.events()
        assert apply_symmetry(SpinorSymmetry(parity, 1), f).events() == f.events()


# -- one grammar: the field reader against a per-token oracle -----------------

# str.isspace() characters, with the eight that str.splitlines() also breaks
# lines at: a field line ends only at "\n".
SPACES = [
    "", "", "", " ", "\t", "  ", "\u00a0", "\u3000", "\u2003", "\x1f",
    "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]
NUMERALS = ["0", "1", "2", "3", "7", "12", "007", "00"]
DENOMINATORS = ["1", "2", "3", "4", "12", "007", "0"]
JUNK = ["\u0661", "\uff11", ".", "x", "e", "_", "ii", "/", "+", "-", "1 2", "(", "\u00a0i", "+-", "/-"]
JUNK_LINES = st.lists(st.sampled_from(SPACES + NUMERALS + JUNK + [";", ",", "i"])).map("".join)


@st.composite
def ratio_texts(draw, signed=True):
    text = draw(st.sampled_from(["", "", "+", "-"])) if signed else ""
    text += draw(st.sampled_from(NUMERALS))
    if draw(st.booleans()):
        text += "/" + draw(st.sampled_from(DENOMINATORS))
    return text


@st.composite
def complex_texts(draw):
    form = draw(st.integers(0, 2))
    if form == 0:
        return draw(ratio_texts())
    coefficient = "" if draw(st.booleans()) else draw(ratio_texts(signed=False))
    if form == 1:
        return draw(st.sampled_from(["", "+", "-"])) + coefficient + "i"
    return draw(ratio_texts()) + draw(st.sampled_from(["+", "-"])) + coefficient + "i"


@st.composite
def scalar_texts(draw, kind):
    """Mostly a scalar of the grammar, sometimes junk."""
    if draw(st.integers(0, 19)) == 0:
        return "".join(draw(st.lists(st.sampled_from(NUMERALS + JUNK + ["i"]), max_size=4)))
    return draw(kind)


@st.composite
def field_lines(draw):
    def space():
        return draw(st.sampled_from(SPACES))

    scalars = [draw(scalar_texts(ratio_texts())) for _ in range(4)]
    scalars += [draw(scalar_texts(complex_texts())) for _ in range(2)]
    separators = [";", ",", ",", ";", ";"]
    if draw(st.integers(0, 19)) == 0:
        separators[draw(st.integers(0, 4))] = draw(st.sampled_from([";", ",", ";;", "", " "]))
    pieces = [space() + scalars[0]]
    for separator, scalar in zip(separators, scalars[1:]):
        pieces += [space(), separator, space(), scalar]
    return "".join(pieces) + space()


def _outcome(parse):
    try:
        return parse()
    except FieldParseError as exc:
        return str(exc)


def _fields_by_tokens(text):
    """from_text as an independent oracle: each line stripped, split and read
    token by token with parse_ratio, parse_complex and common_key, its first
    fault named in the order line shape, coordinate count, time, the three
    coordinates, u, v; the field built from Event and SpinorValue objects by
    the constructor."""
    samples = {}
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 4:
            raise FieldParseError(number, f"expected 't; x1,x2,x3; u; v', got {echo(raw)}")
        coords = [c.strip() for c in parts[1].split(",")]
        if len(coords) != 3:
            raise FieldParseError(number, f"expected three spatial coordinates, got {echo(parts[1])}")
        try:
            event = Event._from_key(common_key([parse_ratio(parts[0]), *map(parse_ratio, coords)]))
            value = SpinorValue(parse_complex(parts[2]), parse_complex(parts[3]))
        except ScalarParseError as exc:
            raise FieldParseError(number, str(exc)) from None
        if event in samples:
            raise FieldParseError(number, f"duplicate event ({event.to_text()})")
        samples[event] = value
    return SpinorSampleField(samples)


def _in_order(field):
    """The field and its events, so equal outcomes also agree on the order."""
    return field, field.events()


@st.composite
def pooled_field_texts(draw):
    """A field text whose lines draw their tokens from small pools, at most
    3 times, 4 places and 5 values, each token spaced anew on each line, with
    no two lines at the same event (pool tokens differ in value)."""
    times = draw(st.lists(scalar_texts(ratio_texts()), min_size=1, max_size=3, unique_by=_ratio_or_text))
    places = draw(st.lists(
        st.tuples(*[scalar_texts(ratio_texts())] * 3), min_size=1, max_size=4,
        unique_by=lambda place: tuple(map(_ratio_or_text, place)),
    ))
    values = draw(st.lists(scalar_texts(complex_texts()), min_size=1, max_size=5))
    picks = draw(st.lists(
        st.tuples(*[st.integers(0, len(pool) - 1) for pool in (times, places, values, values)]),
        max_size=12, unique_by=lambda pick: pick[:2],
    ))

    def spaced(token):
        return draw(st.sampled_from(SPACES)) + token + draw(st.sampled_from(SPACES))

    return "\n".join(
        f"{spaced(times[t])};{','.join(map(spaced, places[x]))};{spaced(values[u])};{spaced(values[v])}"
        for t, x, u, v in picks
    )


def _ratio_or_text(text):
    """The value of a rational token, or the token itself when it has none."""
    try:
        return Fraction(*parse_ratio(text))
    except ScalarParseError:
        return text


class TestOneGrammar:
    @given(field_lines() | JUNK_LINES)
    def test_one_line_reads_as_the_tokens_read(self, raw):
        # The same field from a well-formed line, nothing from a blank one,
        # and the same message from a bad one.
        expected = _outcome(lambda: _in_order(_fields_by_tokens(raw)))
        assert _outcome(lambda: _in_order(SpinorSampleField.from_text(raw))) == expected

    @given(st.lists(field_lines(), max_size=6), st.booleans(), st.sampled_from(["\n", "\r\n"]))
    def test_from_text_is_the_per_token_loop(self, lines, repeat_first, end):
        text = end.join(lines + lines[:repeat_first])
        expected = _outcome(lambda: _in_order(_fields_by_tokens(text)))
        assert _outcome(lambda: _in_order(SpinorSampleField.from_text(text))) == expected

    @given(pooled_field_texts())
    def test_repeated_tokens_read_as_the_tokens_read(self, text):
        expected = _outcome(lambda: _in_order(_fields_by_tokens(text)))
        assert _outcome(lambda: _in_order(SpinorSampleField.from_text(text))) == expected

    def test_examples_accepted_by_both(self):
        for raw in ("+0;\t-0 , 0,\u00a00 ;\u30001+0i ; +0i", "2/4; 007,0,0; i; -i", "1;0,0,0;1-2/3i;-1/2+i"):
            assert len(_fields_by_tokens(raw).events()) == 1
            assert _in_order(SpinorSampleField.from_text(raw)) == _in_order(_fields_by_tokens(raw))

    @pytest.mark.parametrize("bad, message", [
        ("1/2; 0,0,0; 1/0+i; i", "not a complex scalar: '1/0+i'"),
        ("1/0; 0,0,0; 1; i", "zero denominator in rational scalar: '1/0'"),
        ("1/2; 0,0,x; 1; i", "not a rational scalar: 'x'"),
        ("1/2; 0,0,0; 1; i; i", "expected 't; x1,x2,x3; u; v', got '1/2; 0,0,0; 1; i; i'"),
    ])
    def test_reused_tokens_do_not_hide_a_fault(self, bad, message):
        # The bad line repeats tokens that the lines before it had read.
        with pytest.raises(FieldParseError) as err:
            SpinorSampleField.from_text(f"1/2; 0,0,0; 1; i\n0; 1,0,0; 1; i\n{bad}\n")
        assert str(err.value) == f"line 3: {message}" and err.value.line_number == 3

    def test_each_distinct_token_is_read_once(self, monkeypatch):
        # 81 lines over 3 times, 4 coordinates and 4 values.  " 1" is a
        # token of its own, read once, though it is the value of "1".  The
        # memo reads each distinct token once per call, the time and the
        # coordinates through one ratio reader.
        times, coordinates, values = ["0", "1/2", "-1"], ["0", "1", "-1/3"], ["1", "i", "3/5+4/5i", "-2"]
        lines = [
            f"{t};{x1},{x2},{x3};{values[k % 4]};{values[(k + 1) % 4]}"
            for k, (t, x1, x2, x3) in enumerate(product(times, coordinates, coordinates, ["0", " 1", "-1/3"]))
        ]
        text = "\n".join(lines) + "\n"
        distinct_ratios = ["0", "1/2", "-1", "1", "-1/3", " 1"]
        ratio_reads, value_reads = Counter(), Counter()

        def counted(read, reads):
            def counting(token):
                reads[token] += 1
                return read(token)
            return counting

        monkeypatch.setattr(ptgroup, "parse_ratio", counted(ptgroup.parse_ratio, ratio_reads))
        monkeypatch.setattr(ptgroup, "parse_complex_key", counted(ptgroup.parse_complex_key, value_reads))
        field = SpinorSampleField.from_text(text)
        assert len(field.events()) == len(lines) == 81
        assert ratio_reads == Counter(distinct_ratios)
        assert value_reads == Counter(values)
        # The memo lives for one call: a second call reads each token again.
        assert SpinorSampleField.from_text(text) == field
        assert ratio_reads == Counter(distinct_ratios * 2)
        assert value_reads == Counter(values * 2)
        assert _in_order(field) == _in_order(_fields_by_tokens(text))

    def test_one_time_in_two_spellings_gives_one_key(self):
        f = SpinorSampleField.from_text("1/2; 0,0,0; 1; 0\n2/4; 1/3,0,0; 1; 0\n")
        half = Fraction(1, 2)
        assert f.events() == [Event.make(half, 0, 0, 0), Event.make(half, Fraction(1, 3), 0, 0)]
        assert list(f._key) == [(1, 0, 0, 0, 2), (3, 2, 0, 0, 6)]
        with pytest.raises(FieldParseError, match=r"^line 2: duplicate event \(1/2; 0,0,0\)$"):
            SpinorSampleField.from_text("1/2; 0,0,0; 1; 0\n2/4; 0,0,0; 1; 0\n")


# -- the key-level action against an object-level reference ------------------

ROTATION_120 = UnitaryMat2.from_text("1/2-1/2i,-1/2-1/2i;1/2-1/2i,1/2+1/2i")
# The six transforms of the benchmark's apply workload.
BENCHMARK_TRANSFORMS = [
    *pt_symmetries().values(),
    SpinorSymmetry(UnitaryMat2.from_text("i,0;0,-i"), 1),
    SpinorSymmetry(ROTATION_120, 1),
    SpinorSymmetry(ROTATION_120, -1),
]
small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
# Seeds, not st.randoms(): a field's text makes thousands of random calls,
# and hypothesis would record and shrink each one.
seeds = st.integers(0, 2**32 - 1)


def spacetime_orbit(t, x):
    """(t, x) under time flip, x -> -x, the half turn about z and the cyclic
    axis permutation: a domain every benchmark transform keeps."""
    orbit, todo = set(), [(t, *x)]
    while todo:
        point = todo.pop()
        if point in orbit:
            continue
        orbit.add(point)
        s, a, b, c = point
        todo += [(-s, a, b, c), (s, -a, -b, -c), (s, -a, -b, c), (s, c, a, b)]
    return orbit


@st.composite
def sample_fields(draw):
    """A field of Event and SpinorValue objects: its domain drawn as is, or
    at x = 0 (which every rotation keeps) with t closed under flips, or
    closed under every benchmark rebind."""
    points = draw(st.lists(st.tuples(small, st.tuples(small, small, small)), min_size=1, max_size=3))
    closure = draw(st.sampled_from(["none", "origin", "orbit"]))
    domain = set()
    for t, x in points:
        if closure == "none":
            domain.add((t, *x))
        elif closure == "origin":
            domain |= {(t, 0, 0, 0), (-t, 0, 0, 0)}
        else:
            domain |= spacetime_orbit(t, x)
    gaussians = st.builds(G, small, small)
    values = draw(st.lists(st.builds(SpinorValue, gaussians, gaussians), min_size=1, max_size=5))
    return SpinorSampleField({Event.make(*p): values[k % len(values)] for k, p in enumerate(sorted(domain))})


def ratio_text(rng, q, signed=True):
    """q unreduced by a random factor, with an optional leading zero and, if
    signed, an optional '+'."""
    k = rng.randint(1, 3)
    n, d = q.numerator * k, q.denominator * k
    sign = "-" if n < 0 else rng.choice(["", "+"] if signed else [""])
    text = sign + rng.choice(["", "0"]) + str(abs(n))
    return text + f"/{d}" if d != 1 or rng.randint(0, 1) else text


def complex_text(rng, z):
    if rng.randint(0, 1):
        return str(z)
    sign = "-" if z.im < 0 else "+"
    return f"{ratio_text(rng, z.re)}{sign}{ratio_text(rng, abs(z.im), signed=False)}i"


def field_text(rng, field):
    """The field's samples as non-canonical lines, on a coin flip in event
    order or shuffled, so that the reader meets both."""
    lines = []
    for event, value in field.samples.items():
        scalars = [ratio_text(rng, q) for q in (event.t, *event.x)]
        scalars += [complex_text(rng, z) for z in (value.u, value.v)]
        line = scalars[0]
        for separator, scalar in zip(";,,;;", scalars[1:]):
            line += rng.choice(["", " ", "\t", "\u00a0"]) + separator + rng.choice(["", " "]) + scalar
        lines.append(line)
    if rng.random() < 0.5:
        rng.shuffle(lines)
    return "\n".join(lines) + "\n"


@st.composite
def symmetries(draw):
    """One random det +/-1 matrix in each of the four sectors."""
    rng = random.Random(draw(seeds))
    out = []
    for special in (True, False):
        m = sample_extended(rng)
        if m.is_special() != special:
            m = m * determinant_section(-1)
        out += [SpinorSymmetry(m, 1), SpinorSymmetry(m, -1)]
    return out


def reference_action(g, f):
    """g acting on f through Event and SpinorValue objects: per event,
    transform_value(A, v.conjugate() if antiunitary else v) with
    v = value_at(rebind(event))."""
    matrix = g.matrix
    if g.matrix.is_special():
        rotation = covering_map(matrix)
        rebind = (lambda e: rotated(e, rotation)) if g.time_sign == 1 else time_flipped
    elif g.time_sign == 1:
        rebind = space_flipped
    else:
        rebind = lambda e: space_flipped(time_flipped(e))
    antiunitary = g.time_sign == -1
    out = {}
    for event in f.events():
        value = f.value_at(rebind(event))
        out[event] = transform_value(matrix, value.conjugate() if antiunitary else value)
    return SpinorSampleField(out)


def _outcome_of_action(act):
    """The result's events and lines, or the first missing event."""
    try:
        result = act()
    except DomainClosureError as exc:
        return exc.missing
    return result.events(), result.to_lines()


class TestKeyLevelAction:
    # Without the explain phase, which traces every line of every shrunk
    # example: a failure reports in seconds instead of minutes.
    @settings(deadline=None, phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(sample_fields(), symmetries(), seeds)
    def test_action_matches_object_reference(self, f, random_symmetries, seed):
        parsed = SpinorSampleField.from_text(field_text(random.Random(seed), f))
        assert parsed == f and parsed.events() == f.events() == sorted(f.events())
        for g in random_symmetries + BENCHMARK_TRANSFORMS:
            expected = _outcome_of_action(lambda: reference_action(g, f))
            assert _outcome_of_action(lambda: apply_symmetry(g, parsed)) == expected

    def test_rotation_over_25_reduces_the_moved_keys(self):
        # A rotation about z with denominator 25 maps the z axis to itself:
        # each moved key comes out over 25 times the event's denominator and
        # is reduced back to the event's own key.
        golden = Path(__file__).parent / "golden"
        f = SpinorSampleField.from_text((golden / "apply_field_z_axis.txt").read_text(encoding="utf-8"))
        g = SpinorSymmetry(UnitaryMat2.from_text("3/5+4/5i,0;0,3/5-4/5i"), 1)
        assert lcm(*[q.denominator for row in covering_map(g.matrix).rows for q in row]) == 25
        result = apply_symmetry(g, f)
        assert result == reference_action(g, f)
        assert result.to_text() == (golden / "apply_rotation_z_25.txt").read_text(encoding="utf-8")


# -- integer events against a Fraction-tuple reference ------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
# (t, x1, x2, x3)
coordinates = st.tuples(rationals, rationals, rationals, rationals)


def orthogonal(x, y, z, improper):
    rotation = covering_map(quaternion_to_su2(rational_unit_quaternion(x, y, z)))
    return -rotation if improper else rotation


orthogonals = st.builds(orthogonal, rationals, rationals, rationals, st.booleans())


def reference(event: Event) -> tuple[Fraction, ...]:
    return (event.t, *event.x)


def unreduced(q: Fraction, k: int) -> str:
    """q written with numerator and denominator scaled by k; zero as -0 or 0/k."""
    if q == 0:
        return "-0" if k % 2 else f"0/{k}"
    return f"{q.numerator * k}/{q.denominator * k}"


def field_line(c, k: int) -> str:
    t, x1, x2, x3 = (unreduced(q, k) for q in c)
    return f"{t}; {x1},{x2},{x3}; 1; 0\n"


def parsed(c, k: int) -> Event:
    return SpinorSampleField.from_text(field_line(c, k)).events()[0]


def moved(event: Event, spatial, time_sign: int) -> Event:
    """The event (a t, S x) by the key kernel of the field action."""
    (key,) = ptgroup._moved_keys([event.as_integer_tuple()], spatial, time_sign)
    return Event._from_key(key)


def assert_canonical(event: Event) -> None:
    t, a, b, c, d = event.as_integer_tuple()
    assert d > 0 and gcd(t, a, b, c, d) == 1
    assert reference(event) == (Fraction(t, d), Fraction(a, d), Fraction(b, d), Fraction(c, d))


class TestIntegerEvents:
    """Integer-numerator events against (t, x1, x2, x3) Fraction tuples."""

    @given(coordinates, st.integers(1, 12), orthogonals)
    def test_equal_values_are_equal_events(self, c, k, r):
        built = Event(c[0], c[1:])
        same = [
            built,
            Event.make(*c),
            parsed(c, k),
            moved(moved(built, IDENTITY3, -1), IDENTITY3, -1),
            moved(moved(built, SPACE_INVERSION, 1), SPACE_INVERSION, 1),
            moved(built, IDENTITY3, 1),
            moved(moved(built, r, 1), r.transpose(), 1),
            moved(moved(built, r, -1), r.transpose(), -1),
        ]
        for event in same:
            assert reference(event) == c
            assert event == built and hash(event) == hash(built)
            assert event.as_integer_tuple() == built.as_integer_tuple()
            assert_canonical(event)

    # Few distinct values, so equal leading coordinates over different
    # denominators are common.
    @given(st.lists(st.tuples(*[st.fractions(-1, 1, max_denominator=4)] * 4), min_size=2, max_size=6))
    def test_order_is_value_order(self, cs):
        events = [Event.make(*c) for c in cs]
        assert [reference(e) for e in sorted(events)] == sorted(cs)
        a, b = events[0], events[1]
        ra, rb = reference(a), reference(b)
        assert (a < b, a <= b, a > b, a >= b, a == b) == (ra < rb, ra <= rb, ra > rb, ra >= rb, ra == rb)

    @given(coordinates, orthogonals, st.sampled_from([1, -1]))
    def test_derived_events(self, c, r, a):
        t, *x = c
        event = Event.make(*c)
        assert moved(event, r, a) == Event(a * t, r.apply(x))
        assert reference(moved(event, r, a)) == (a * t, *r.apply(x))
        assert reference(moved(event, IDENTITY3, -1)) == (-t, *x)
        assert reference(moved(event, SPACE_INVERSION, 1)) == (t, *(-q for q in x))
        for derived in (moved(event, r, a), moved(event, IDENTITY3, -1), moved(event, SPACE_INVERSION, 1)):
            assert_canonical(derived)

    @pytest.mark.parametrize("denominator", [1, 3])
    def test_unprintable_event_is_size_error(self, int_digit_limit, denominator):
        # A whole-number event prints its numerators with str, any other
        # through format_ratio: both refuse one digit too many alike.
        event = Event.make(0, Fraction(10**int_digit_limit, denominator), 0, 0)
        with pytest.raises(ScalarSizeError) as err:
            event.to_text()
        assert str(err.value) == f"a scalar has more than {int_digit_limit} digits, the most Python prints"

    @given(coordinates, st.integers(2, 12))
    def test_unreduced_text_is_a_duplicate(self, c, k):
        with pytest.raises(FieldParseError) as err:
            SpinorSampleField.from_text(field_line(c, 1) + field_line(c, k))
        assert err.value.line_number == 2
        assert f"duplicate event ({Event.make(*c).to_text()})" in str(err.value)

    def test_half_and_two_quarters_are_one_event(self):
        with pytest.raises(FieldParseError, match=r"line 2: duplicate event \(1/2; 0,0,0\)"):
            SpinorSampleField.from_text("1/2; 0,0,0; 1; 0\n2/4; 0,0,0; 0; 1\n")

    def test_immutable_and_compared_only_with_events(self):
        event = Event.make(Fraction(1, 2), 0, 0, 0)
        with pytest.raises(AttributeError):
            event.t = Fraction(0)
        assert copy.copy(event) == pickle.loads(pickle.dumps(event)) == event
        assert event != event.as_integer_tuple()
        with pytest.raises(TypeError):
            event < (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
