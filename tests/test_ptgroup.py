import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from spincover.cover import (
    HALF_TURN_Y,
    IDENTITY2,
    IDENTITY3,
    PAULI_Z,
    SPACE_INVERSION,
    UnitaryMat2,
    covering_map,
    determinant_section,
    quaternion_to_su2,
    rational_unit_quaternion,
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
    _match_line,
    _parse_line_by_tokens,
    apply_symmetry,
    composition_defect,
    inner_product,
    ray_project,
    spacetime_projection,
    time_reversal_operator,
    transform_value,
)
from spincover.scalars import GaussianRational
from spincover.semidirect import from_unitary, parity_element, to_unitary
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


class TestSpacetimeProjection:
    def test_identity(self):
        g = SpinorSymmetry.identity()
        assert spacetime_projection(g) == SpacetimeSymmetry(IDENTITY3, 1)

    def test_time_reversal_is_pure_time_flip(self):
        g = SpinorSymmetry.time_reversal()
        assert spacetime_projection(g) == SpacetimeSymmetry(IDENTITY3, -1)

    def test_parity_is_space_inversion(self):
        g = SpinorSymmetry.parity()
        assert spacetime_projection(g) == SpacetimeSymmetry(SPACE_INVERSION, 1)

    def test_product_element_is_full_reversal(self):
        g = SpinorSymmetry.parity() * SpinorSymmetry.time_reversal()
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


class TestSemidirectBridge:
    """A twisted pair with a time sign is the double-cover element
    (to_unitary(pair), sign), and from_unitary splits its matrix back."""

    def test_parity_pair(self):
        g = SpinorSymmetry(to_unitary(parity_element()), 1)
        assert g == SpinorSymmetry.parity()

    def test_time_reversal_pair(self, treverse):
        g = SpinorSymmetry.time_reversal()
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

        assert projection(parity_element()) == SpacetimeSymmetry(SPACE_INVERSION, 1)
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
            assert g.value_at(e) == f.value_at(e.time_flipped()).conjugate()

    def test_real_field_with_identity_matrix_only_flips_time(self):
        events = symmetric_events()
        samples = {
            e: SpinorValue(gr(i % 3), gr(-(i % 2))) for i, e in enumerate(events)
        }
        f = SpinorSampleField(samples)
        g = apply_symmetry(SpinorSymmetry(IDENTITY2, -1), f)
        for e in events:
            assert g.value_at(e) == f.value_at(e.time_flipped())


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
    def test_basis_spinor_formulas(self, parity):
        f = constant(gr(1), gr(0))
        g = apply_symmetry(SpinorSymmetry(parity, -1), f)
        for e in f.events():
            assert g.value_at(e) == SpinorValue(gr(0), gr(0, 1))
        f2 = constant(gr(0), gr(1))
        g2 = apply_symmetry(SpinorSymmetry(parity, -1), f2)
        for e in f2.events():
            assert g2.value_at(e) == SpinorValue(gr(0, -1), gr(0))

    def test_combined_matrix_is_parity_times_time_reversal(self, parity, treverse):
        # for the parity lift the applied matrix is ((0,-i),(i,0))
        combined = parity * treverse
        i = gr(0, 1)
        assert combined.rows == ((gr(0), -i), (i, gr(0)))

    def test_full_argument_flip(self, parity, treverse):
        f = varied_field()
        g = apply_symmetry(SpinorSymmetry(parity, -1), f)
        for e in f.events():
            source = f.value_at(e.time_flipped().space_flipped())
            assert g.value_at(e) == transform_value(parity * treverse, source.conjugate())


class TestDispatch:
    def test_identity_element(self):
        f = varied_field()
        assert apply_symmetry(SpinorSymmetry.identity(), f) == f

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
        g = SpinorSymmetry.time_reversal()
        f = varied_field()
        report = composition_defect(g, g, f)
        assert report.law_holds
        assert report.sign_defect == GaussianRational(1)
        assert report.witnesses == ()

    def test_commuting_rotations_have_no_defect(self, treverse):
        a = SpinorSymmetry(treverse, 1)
        b = SpinorSymmetry(-treverse, 1)
        report = composition_defect(a, b, varied_field())
        assert report.law_holds

    def test_antiunitary_sector_sign_defect(self):
        i = gr(0, 1)
        i_sigma3 = PAULI_Z.scalar_mul(i)
        g = SpinorSymmetry(i_sigma3, -1)
        f = varied_field()
        report = composition_defect(g, g, f)
        assert not report.law_holds
        assert report.sign_defect == GaussianRational(-1)
        assert report.witnesses
        # two-step path applies i*sigma3 * conj(i*sigma3) = identity,
        # one-step applies (i*sigma3)^2 = -identity
        assert report.matrix_two_step == IDENTITY2
        assert report.matrix_one_step == -IDENTITY2

    @pytest.mark.parametrize(
        "g, h, field, witnesses",
        [
            # (i, -i) against (-i, -i): not proportional.
            (
                SpinorSymmetry.time_reversal(),
                SpinorSymmetry.parity(),
                lambda: SpinorSampleField({Event.make(0, 0, 0, 0): SpinorValue(gr(1), gr(1))}),
                1,
            ),
            # 0 against (1/2 + i/2)(1, 1) at the first event, then the
            # reverse: the one-step value is zero where the two-step one is not.
            (CYCLIC_TURN, HALF_TURN_Z, lambda: axis_orbit_field(lambda x: int(x[0] > 0)), 12),
            # Proportional at every event, by 2/3 at the first and 3/2 at the second.
            (CYCLIC_TURN, HALF_TURN_Z, lambda: axis_orbit_field(lambda x: x[0] + 10), 12),
        ],
        ids=["not-proportional", "zero-denominator", "inconsistent-ratio"],
    )
    def test_no_global_scalar(self, g, h, field, witnesses):
        report = composition_defect(g, h, field())
        assert not report.law_holds
        assert report.sign_defect is None
        assert len(report.witnesses) == witnesses
        assert report.to_json()["sign_defect"] is None

    def test_json_schema(self):
        g = SpinorSymmetry.time_reversal()
        payload = composition_defect(g, g, varied_field()).to_json()
        for key in ("pair", "law_holds", "sign_defect", "witnesses"):
            assert key in payload
        assert payload["law_holds"] is True
        assert payload["sign_defect"] == "1"
        assert payload["witnesses"] == []


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
        with pytest.raises(AttributeError):
            f.samples = {}
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


class TestClosureMetadata:
    def test_rotation_reports_first_missing_event(self, treverse):
        from spincover.cover import covering_map

        f = SpinorSampleField({Event.make(0, 1, 0, 0): SpinorValue(gr(1), gr(0))})
        rotation = covering_map(treverse)
        with pytest.raises(DomainClosureError) as err:
            apply_symmetry(SpinorSymmetry(treverse, 1), f)
        assert err.value.missing == Event.make(0, 1, 0, 0).rotated(rotation)

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


# -- one grammar: the line match against the per-token parser -----------------

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
    """from_text with every line read by the per-token parser alone, and the
    field built from Event and SpinorValue objects by the constructor."""
    samples = {}
    for number, raw in enumerate(text.split("\n"), start=1):
        sample = _parse_line_by_tokens(raw, number)
        if sample is None:
            continue
        event, value = Event._from_key(sample[0]), value_of_key(sample[1])
        if event in samples:
            raise FieldParseError(number, f"duplicate event ({event.to_text()})")
        samples[event] = value
    return SpinorSampleField(samples)


def value_of_key(key):
    return SpinorValue(G._from_key(key[:3]), G._from_key(key[3:]))


def _in_order(field):
    """The field and its events, so equal outcomes also agree on the order."""
    return field, field.events()


class TestOneGrammar:
    @given(field_lines() | JUNK_LINES)
    def test_match_accepts_exactly_what_the_tokens_accept(self, raw):
        by_tokens = _outcome(lambda: _parse_line_by_tokens(raw, 1))
        matched = _match_line(raw)
        # A blank line (None) or a bad one (its message) is not matched.
        assert matched == (by_tokens if isinstance(by_tokens, tuple) else None)

    @given(st.lists(field_lines(), max_size=6), st.booleans(), st.sampled_from(["\n", "\r\n"]))
    def test_from_text_is_the_per_token_loop(self, lines, repeat_first, end):
        text = end.join(lines + lines[:repeat_first])
        expected = _outcome(lambda: _in_order(_fields_by_tokens(text)))
        assert _outcome(lambda: _in_order(SpinorSampleField.from_text(text))) == expected

    def test_examples_accepted_by_both(self):
        for raw in ("+0;\t-0 , 0,\u00a00 ;\u30001+0i ; +0i", "2/4; 007,0,0; i; -i", "1;0,0,0;1-2/3i;-1/2+i"):
            assert _match_line(raw) == _parse_line_by_tokens(raw, 1) is not None


# -- the key-level action against an object-level reference ------------------

ROTATION_120 = UnitaryMat2.from_text("1/2-1/2i,-1/2-1/2i;1/2-1/2i,1/2+1/2i")
# The six transforms of the benchmark's apply workload.
BENCHMARK_TRANSFORMS = [
    SpinorSymmetry.parity(),
    SpinorSymmetry.time_reversal(),
    SpinorSymmetry.parity_time(),
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
    """The field's samples as non-canonical lines in a random order."""
    lines = []
    for event, value in field.samples.items():
        scalars = [ratio_text(rng, q) for q in (event.t, *event.x)]
        scalars += [complex_text(rng, z) for z in (value.u, value.v)]
        line = scalars[0]
        for separator, scalar in zip(";,,;;", scalars[1:]):
            line += rng.choice(["", " ", "\t", "\u00a0"]) + separator + rng.choice(["", " "]) + scalar
        lines.append(line)
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
        rebind = (lambda e: e.rotated(rotation)) if g.time_sign == 1 else Event.time_flipped
    elif g.time_sign == 1:
        rebind = Event.space_flipped
    else:
        matrix = matrix * time_reversal_operator()
        rebind = lambda e: e.time_flipped().space_flipped()
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
            built.time_flipped().time_flipped(),
            built.space_flipped().space_flipped(),
            built.rotated(IDENTITY3),
            built.rotated(r).rotated(r.transpose()),
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

    @given(coordinates, orthogonals)
    def test_derived_events(self, c, r):
        t, *x = c
        event = Event.make(*c)
        assert event.rotated(r) == Event(t, r.apply(x))
        assert reference(event.rotated(r)) == (t, *r.apply(x))
        assert reference(event.time_flipped()) == (-t, *x)
        assert reference(event.space_flipped()) == (t, *(-q for q in x))
        for derived in (event.rotated(r), event.time_flipped(), event.space_flipped()):
            assert_canonical(derived)

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
