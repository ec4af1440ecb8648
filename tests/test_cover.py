import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincover.cover import (
    HALF_TURN_Y,
    IDENTITY2,
    IDENTITY3,
    PAULI_Z,
    SPACE_INVERSION,
    OrthogonalMat3,
    UnitaryMat2,
    covering_map,
    determinant_section,
    extended_covering_map,
    parity_operator,
    quaternion_to_su2,
    rational_unit_quaternion,
    stereographic_su2,
    su2_from_zw,
)
from spincover.ptgroup import SpinorSymmetry
from spincover.scalars import GaussianRational
from spincover.semidirect import SemidirectElement
from spincover.verify import (
    CheckResult,
    SuiteReport,
    check_exact_sequence,
    sample_extended,
    sample_pair_element,
    sample_su2,
    sample_symmetry,
)


class TestMatrixTypes:
    def test_unitarity_enforced(self):
        with pytest.raises(ValueError):
            UnitaryMat2([[1, 1], [0, 1]])

    def test_det_must_be_unit(self):
        with pytest.raises(ValueError):
            # unitary but det = i
            UnitaryMat2([[GaussianRational(0, 1), 0], [0, 1]])

    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            OrthogonalMat3([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        # The same numerators stored without the constructor's check.
        assert not OrthogonalMat3._from_key((1, 1, 0, 0, 1, 0, 0, 0, 1, 1)).is_orthogonal()
        assert OrthogonalMat3._from_key((1, 0, 0, 0, 1, 0, 0, 0, 1, 1)).is_orthogonal()

    def test_no_mixed_products(self):
        for left, right in ((IDENTITY2, 2), (HALF_TURN_Y, 2), (IDENTITY2, HALF_TURN_Y), (HALF_TURN_Y, IDENTITY2)):
            with pytest.raises(TypeError):
                left * right

    def test_shape_enforced(self):
        for rows in ([[1, 0]], [[1, 0], [0]], [[1, 0], [0, 1], [0, 0]]):
            with pytest.raises(ValueError, match="^expected a 2x2 matrix$"):
                UnitaryMat2(rows)
        for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1], [0, 0, 1]]):
            with pytest.raises(ValueError, match="^expected a 3x3 matrix$"):
                OrthogonalMat3(rows)

    def test_apply_takes_gaussian_rationals(self):
        one, zero = GaussianRational(1), GaussianRational(0)
        assert IDENTITY2.apply(one, zero) == (one, zero)
        for u, v in ((1, zero), (one, Fraction(0))):
            with pytest.raises(TypeError, match="UnitaryMat2.apply takes two GaussianRational components"):
                IDENTITY2.apply(u, v)

    def test_matrix_text_round_trip(self):
        p = parity_operator()
        assert p.to_text() == str(p) == "i,0;0,i"
        assert UnitaryMat2.from_text(p.to_text()) == p
        assert HALF_TURN_Y.to_text() == str(HALF_TURN_Y) == "-1,0,0;0,1,0;0,0,-1"
        assert OrthogonalMat3.from_text(HALF_TURN_Y.to_text()) == HALF_TURN_Y

    def test_su2_form_automatic_for_special(self, rng):
        for _ in range(50):
            m = sample_su2(rng)
            (z, w), (c, d) = m.rows
            assert c == -w.conjugate() and d == z.conjugate()
            assert z.norm_sq() + w.norm_sq() == 1

    def test_product_stays_unitary(self, rng):
        for _ in range(30):
            a, b = sample_extended(rng), sample_extended(rng)
            assert is_unitary(a * b)

    def test_quaternion_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="not unitary"):
            quaternion_to_su2((Fraction(1), Fraction(1), Fraction(0), Fraction(0)))


class TestCoveringMap:
    def test_identity(self):
        assert covering_map(IDENTITY2) == IDENTITY3

    def test_half_turn_y(self, treverse):
        # ((0,-1),(1,0)) covers the half turn about the y axis
        assert covering_map(treverse) == HALF_TURN_Y

    def test_frozen_rational_example(self):
        # z = 3/5+4/5i, w = 0; the image entries expanded by hand:
        # z^2 = -7/25 + 24/25 i, |z|^2 - |w|^2 = 1
        m = su2_from_zw(
            GaussianRational(Fraction(3, 5), Fraction(4, 5)), GaussianRational(0)
        )
        expected = OrthogonalMat3(
            [
                [Fraction(-7, 25), Fraction(24, 25), 0],
                [Fraction(-24, 25), Fraction(-7, 25), 0],
                [0, 0, 1],
            ]
        )
        image = covering_map(m)
        assert image == expected
        assert image.is_orthogonal()
        assert image.det_sign == 1

    def test_rejects_improper_input(self, parity):
        with pytest.raises(ValueError):
            covering_map(parity)

    def test_homomorphism_on_samples(self, rng):
        for _ in range(200):
            a, b = sample_su2(rng), sample_su2(rng)
            assert covering_map(a * b) == covering_map(a) * covering_map(b)

    def test_two_to_one(self, rng):
        for _ in range(100):
            a = sample_su2(rng)
            assert covering_map(a) == covering_map(-a)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
vectors = st.tuples(rationals, rationals, rationals)
quaternions = vectors.map(lambda v: rational_unit_quaternion(*v))


def reference_rotation(q) -> list[list[Fraction]]:
    """The covering_map docstring formula on Fraction (re, im) pairs, for
    z = a + b i and w = c + d i."""
    a, b, c, d = q
    z2, w2 = (a * a - b * b, 2 * a * b), (c * c - d * d, 2 * c * d)
    zw, zwc = (a * c - b * d, a * d + b * c), (a * c + b * d, b * c - a * d)
    return [
        [z2[0] - w2[0], z2[1] + w2[1], -2 * zw[0]],
        [-(z2[1] - w2[1]), z2[0] + w2[0], 2 * zw[1]],
        [2 * zwc[0], 2 * zwc[1], a * a + b * b - c * c - d * d],
    ]


def entries(m: OrthogonalMat3) -> list[list[Fraction]]:
    return [list(row) for row in m.rows]


class TestStereographicSU2:
    @given(vectors, st.integers(1, 6))
    def test_equals_the_quaternion_route(self, v, k):
        m = stereographic_su2(*[(q.numerator, q.denominator) for q in v])
        assert m == quaternion_to_su2(rational_unit_quaternion(*v))
        assert m.is_special()
        # The ratios may come in any terms.
        assert stereographic_su2(*[(k * q.numerator, k * q.denominator) for q in v]) == m

    def test_sampler_matches_the_fraction_route(self):
        # The samplers draw (n, d) pairs and signs by rng.getrandbits, read
        # as Random.choice reads it; the route they replaced built a Fraction
        # from each randint pair and drew each coin by randint(0, 1).  Same
        # draws, same values, same RNG state.
        pairs, fractions = random.Random(2004), random.Random(2004)

        def su2():
            x, y, z = (Fraction(fractions.randint(-3, 3), fractions.randint(1, 3)) for _ in range(3))
            return quaternion_to_su2(rational_unit_quaternion(x, y, z))

        def extended():
            m = su2()
            return m.scalar_mul(GaussianRational(0, 1)) if fractions.randint(0, 1) else m

        for _ in range(5000):
            assert sample_su2(pairs) == su2()
            assert sample_extended(pairs) == extended()
            sign = -1 if fractions.randint(0, 1) else 1
            assert sample_pair_element(pairs) == SemidirectElement(su2(), sign)
            matrix = extended()
            assert sample_symmetry(pairs) == SpinorSymmetry(matrix, -1 if fractions.randint(0, 1) else 1)
        assert pairs.getstate() == fractions.getstate()


class TestIntegerOrthogonal:
    """Integer-numerator O(3) matrices against Fraction reference arithmetic."""

    @given(quaternions)
    def test_covering_map_formula(self, q):
        image = covering_map(quaternion_to_su2(q))
        assert entries(image) == reference_rotation(q)
        assert image.det_sign == 1

    @given(quaternions, quaternions, vectors)
    def test_operations(self, q1, q2, v):
        r1, r2 = reference_rotation(q1), reference_rotation(q2)
        m1, m2 = covering_map(quaternion_to_su2(q1)), covering_map(quaternion_to_su2(q2))
        product = [[sum(r1[i][k] * r2[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        assert entries(m1 * m2) == product
        assert entries(-m1) == [[-x for x in row] for row in r1]
        assert (-m1).det_sign == -1
        assert entries(m1.transpose()) == [list(col) for col in zip(*r1)]
        assert m1.apply(v) == tuple(sum(r1[i][k] * v[k] for k in range(3)) for i in range(3))
        # Stored in lowest terms: equal to, and hashing like, the matrix
        # rebuilt from its Fraction entries.
        for m in (m1, m1 * m2, -m1, m1.transpose()):
            rebuilt = OrthogonalMat3(m.rows)
            assert m == rebuilt and hash(m) == hash(rebuilt) and m.det_sign == rebuilt.det_sign
            assert m.is_orthogonal()


def unitary_from(q, special: bool) -> UnitaryMat2:
    """((z, w), (-conj w, conj z)) for det +1, ((z, w), (conj w, -conj z)) for det -1."""
    z, w = GaussianRational(q[0], q[1]), GaussianRational(q[2], q[3])
    if special:
        return UnitaryMat2([[z, w], [-w.conjugate(), z.conjugate()]])
    return UnitaryMat2([[z, w], [w.conjugate(), -z.conjugate()]])


# The eight unit quaternions on the axes give the matrices with zero
# entries, such as i*I, where z or w vanishes.
AXES = [tuple(Fraction(s if k == j else 0) for k in range(4)) for j in range(4) for s in (1, -1)]
unitaries = st.builds(unitary_from, st.sampled_from(AXES) | quaternions, st.booleans())
small_gaussians = st.builds(GaussianRational, rationals, rationals)
PHASES = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1), GaussianRational(0, -1))


def matmul(x, y) -> list[list[GaussianRational]]:
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]


def is_unitary(m: UnitaryMat2) -> bool:
    """M M^dagger = I, computed from the rows of M."""
    rows = m.rows
    dagger = [[rows[j][i].conjugate() for j in range(2)] for i in range(2)]
    one, zero = GaussianRational(1), GaussianRational(0)
    return matmul(rows, dagger) == [[one, zero], [zero, one]]


def assert_canonical_unitary(m: UnitaryMat2, rows) -> None:
    """m has the entries ``rows``, is stored in lowest terms and equals,
    hashes and has the det sign of the matrix rebuilt from its rows."""
    assert [list(row) for row in m.rows] == [list(row) for row in rows]
    *n, d = m._key
    assert len(n) == 8 and d > 0 and gcd(d, *n) == 1
    (a, b), (c, e) = m.rows
    assert a * e - b * c == GaussianRational(m.det_sign)
    rebuilt = UnitaryMat2(m.rows)
    assert m == rebuilt and hash(m) == hash(rebuilt) and m.det_sign == rebuilt.det_sign
    assert is_unitary(m)


class TestIntegerUnitary:
    """Integer-numerator unitaries against GaussianRational-entry arithmetic
    on their rows."""

    @given(unitaries, unitaries, st.sampled_from(PHASES))
    def test_operations(self, m1, m2, phase):
        r1 = m1.rows
        assert_canonical_unitary(m1, r1)
        assert_canonical_unitary(m1 * m2, matmul(r1, m2.rows))
        assert_canonical_unitary(-m1, [[-x for x in row] for row in r1])
        assert_canonical_unitary(m1.conjugate(), [[x.conjugate() for x in row] for row in r1])
        assert_canonical_unitary(
            m1.inverse(), [[r1[j][i].conjugate() for j in range(2)] for i in range(2)]
        )
        assert_canonical_unitary(m1.scalar_mul(phase), [[phase * x for x in row] for row in r1])
        assert m1 * m1.inverse() == IDENTITY2

    @given(unitaries, small_gaussians, small_gaussians)
    def test_apply(self, m, u, v):
        (a, b), (c, e) = m.rows
        assert m.apply(u, v) == (a * u + b * v, c * u + e * v)

    @given(unitaries)
    def test_covering_map(self, m):
        if not m.is_special():
            m = m * determinant_section(-1)
        z, w = m.rows[0]
        assert m.rows[1] == (-w.conjugate(), z.conjugate())
        assert entries(covering_map(m)) == reference_rotation((z.re, z.im, w.re, w.im))

    def test_rejects_other_phases(self):
        with pytest.raises(ValueError, match="scalar factor must be one of 1, -1, i, -i"):
            IDENTITY2.scalar_mul(GaussianRational(Fraction(3, 5), Fraction(4, 5)))

    @pytest.mark.parametrize("phase", [GaussianRational(2), GaussianRational(1, 1), GaussianRational(0, -2)])
    def test_a_gaussian_rational_off_the_four_roots_is_a_value_error(self, phase):
        with pytest.raises(ValueError, match="^scalar factor must be one of 1, -1, i, -i$"):
            IDENTITY2.scalar_mul(phase)

    @pytest.mark.parametrize(
        "phase, type_name", [(1, "int"), (1.0, "float"), (True, "bool"), ("i", "str"), (1j, "complex")]
    )
    def test_phase_of_another_type_is_a_type_error(self, phase, type_name):
        with pytest.raises(TypeError, match=f"^scalar factor must be a GaussianRational, not {type_name}$"):
            IDENTITY2.scalar_mul(phase)


class TestExtendedCoveringMap:
    def test_parity_maps_to_space_inversion(self, parity):
        assert extended_covering_map(parity) == SPACE_INVERSION

    def test_special_input_agrees_with_covering_map(self, rng):
        for _ in range(50):
            a = sample_su2(rng)
            assert extended_covering_map(a) == covering_map(a)

    def test_kernel_elements(self):
        assert extended_covering_map(IDENTITY2) == IDENTITY3
        assert extended_covering_map(-IDENTITY2) == IDENTITY3

    def test_kernel_is_center_on_samples(self, rng):
        for _ in range(100):
            c = sample_extended(rng)
            in_kernel = extended_covering_map(c) == IDENTITY3
            assert in_kernel == (c in (IDENTITY2, -IDENTITY2))

    def test_homomorphism_across_components(self, rng):
        for _ in range(200):
            c, d = sample_extended(rng), sample_extended(rng)
            assert extended_covering_map(c * d) == extended_covering_map(c) * extended_covering_map(d)

    def test_image_det_matches_input_det(self, rng):
        for _ in range(50):
            c = sample_extended(rng)
            assert extended_covering_map(c).det_sign == c.det_sign

    def test_normality_of_special_subgroup(self, rng):
        for _ in range(100):
            a = sample_su2(rng)
            b = sample_extended(rng)
            assert (b * a * b.inverse()).det_sign == 1


class TestParityOperator:
    def test_matrix_value(self, parity):
        i = GaussianRational(0, 1)
        assert parity.rows == ((i, GaussianRational(0)), (GaussianRational(0), i))

    def test_squares_to_minus_identity(self, parity):
        assert parity * parity == -IDENTITY2

    def test_det(self, parity):
        assert parity.det_sign == -1


class TestDeterminantSection:
    def test_values(self):
        assert determinant_section(1) == IDENTITY2
        assert determinant_section(-1) == -PAULI_Z

    def test_right_inverse_of_det(self):
        for s in (1, -1):
            assert determinant_section(s).det_sign == s

    def test_section_squares(self):
        m = determinant_section(-1)
        assert m * m == IDENTITY2

    def test_rejects_other_signs(self):
        with pytest.raises(ValueError):
            determinant_section(0)


class TestExactSequence:
    def test_canonical_samples_pass(self, parity):
        report = check_exact_sequence([IDENTITY2, -IDENTITY2, parity, -PAULI_Z])
        assert isinstance(report, SuiteReport)
        assert report.all_pass
        assert [c.name for c in report.checks] == [
            "kernel of det equals the embedded special subgroup on samples",
            "det is surjective onto {+1,-1} (witnesses: identity, parity lift)",
            "section is a right inverse of det on both signs",
            "section is a homomorphism on Z2 (all four products)",
        ]
        assert all(isinstance(c, CheckResult) and c.witness is None for c in report.checks)

    def test_sampled_extension_passes(self, rng):
        samples = [sample_extended(rng) for _ in range(100)]
        assert check_exact_sequence(samples).all_pass

    def test_json_shape(self, parity):
        payload = check_exact_sequence([parity]).to_json()
        assert set(payload) == {"suite", "all_pass", "assertions"}
        for entry in payload["assertions"]:
            assert set(entry) == {"assertion", "pass", "witness"}

    def test_package_export(self):
        import spincover

        assert spincover.check_exact_sequence is check_exact_sequence


class TestQuaternions:
    def test_origin_maps_to_identity_quaternion(self):
        q = rational_unit_quaternion(Fraction(0), Fraction(0), Fraction(0))
        assert q == (1, 0, 0, 0)

    def test_unit_x(self):
        q = rational_unit_quaternion(Fraction(1), Fraction(0), Fraction(0))
        assert q == (0, 1, 0, 0)

    def test_half_x(self):
        q = rational_unit_quaternion(Fraction(1, 2), Fraction(0), Fraction(0))
        assert q == (Fraction(3, 5), Fraction(4, 5), 0, 0)

    def test_always_unit(self, rng):
        for _ in range(200):
            a, b, c, d = rational_unit_quaternion(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            assert a * a + b * b + c * c + d * d == 1

    def test_identity_quaternion_to_identity_matrix(self):
        q = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        assert quaternion_to_su2(q) == IDENTITY2

    def test_pure_b_component(self):
        q = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
        m = quaternion_to_su2(q)
        i = GaussianRational(0, 1)
        assert m == UnitaryMat2([[i, 0], [0, -i]])
        assert m.det_sign == 1

    def test_rational_point(self):
        q = (Fraction(3, 5), Fraction(4, 5), Fraction(0), Fraction(0))
        m = quaternion_to_su2(q)
        z, w = m.rows[0]
        assert z == GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert w == GaussianRational(0)
