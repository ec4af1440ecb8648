import pytest

from spincover.cover import (
    IDENTITY2,
    PAULI_Z,
    XY_MIRROR,
    covering_map,
    determinant_section,
    extended_covering_map,
    parity_operator,
)
from spincover.groups import spinor_pt_group
from spincover.scalars import GaussianRational
from spincover.semidirect import (
    IDENTITY_ELEMENT,
    SemidirectElement,
    compose,
    from_unitary,
    parity_element,
    project_to_o3,
    to_unitary,
    twist_automorphism,
)
from spincover.verify import sample_pair_element, sample_su2


def order8_matrices():
    group = spinor_pt_group()
    return [group.element_source[label] for label in group.labels]


class TestZ2Rep:
    """The Z2 factor is a sign; its section matrix is determinant_section."""

    def test_only_two_matrices_allowed(self):
        for b, sign in ((IDENTITY2, 1), (determinant_section(-1), -1)):
            e = SemidirectElement.from_text(f"(1,0;0,1 | {b.to_text()})")
            assert e == SemidirectElement(IDENTITY2, sign)
        with pytest.raises(ValueError, match="section matrix"):
            SemidirectElement.from_text(f"(1,0;0,1 | {PAULI_Z.to_text()})")
        for sign in (0, 2, -2):
            with pytest.raises(ValueError):
                SemidirectElement(IDENTITY2, sign)

    def test_special_part_must_have_det_plus_one(self):
        with pytest.raises(ValueError, match=r"special part must have det = \+1"):
            SemidirectElement(parity_operator(), 1)

    def test_signs(self):
        for sign in (1, -1):
            e = SemidirectElement(IDENTITY2, sign)
            assert e.sign == sign
            assert to_unitary(e) == determinant_section(sign)
            assert e.to_text() == f"(1,0;0,1 | {determinant_section(sign).to_text()})"

    def test_multiplication(self):
        identity, mirror = (SemidirectElement(IDENTITY2, s) for s in (1, -1))
        assert compose(mirror, mirror) == identity
        assert compose(mirror, identity) == mirror
        assert compose(identity, mirror) == mirror


class TestTwist:
    def test_identity_section_acts_trivially(self, rng):
        for _ in range(20):
            a = sample_su2(rng)
            assert twist_automorphism(1, a) == a

    def test_mirror_twist_formula(self, rng):
        for _ in range(20):
            a = sample_su2(rng)
            z, w = a.rows[0]
            twisted = twist_automorphism(-1, a)
            tz, tw = twisted.rows[0]
            assert (tz, tw) == (z, -w)

    def test_mirror_twist_is_involutive(self, rng):
        for _ in range(20):
            a = sample_su2(rng)
            assert twist_automorphism(-1, twist_automorphism(-1, a)) == a

    def test_rejects_improper_matrix(self):
        for sign in (1, -1):
            with pytest.raises(ValueError, match=r"the twist acts on det = \+1 matrices"):
                twist_automorphism(sign, parity_operator())

    def test_twist_is_an_automorphism(self, rng):
        for _ in range(50):
            a, b = sample_su2(rng), sample_su2(rng)
            assert twist_automorphism(-1, a * b) == twist_automorphism(
                -1, a
            ) * twist_automorphism(-1, b)


class TestCompose:
    def test_left_identity(self, rng):
        e = sample_pair_element(rng)
        assert compose(IDENTITY_ELEMENT, e) == e
        assert compose(e, IDENTITY_ELEMENT) == e

    def test_special_parts_embed(self, rng):
        a, b = sample_su2(rng), sample_su2(rng)
        e = compose(SemidirectElement(a, 1), SemidirectElement(b, 1))
        assert e == SemidirectElement(a * b, 1)

    def test_parity_element_squares(self):
        p = parity_element()
        assert compose(p, p) == SemidirectElement(-IDENTITY2, 1)

    def test_associativity_on_samples(self, rng):
        for _ in range(50):
            e1, e2, e3 = (sample_pair_element(rng) for _ in range(3))
            assert compose(compose(e1, e2), e3) == compose(e1, compose(e2, e3))

    def test_inverse(self, rng):
        for _ in range(20):
            e = sample_pair_element(rng)
            assert compose(e, e.inverse()) == IDENTITY_ELEMENT
            assert compose(e.inverse(), e) == IDENTITY_ELEMENT


class TestFusion:
    def test_special_element_fuses_to_itself(self, rng):
        a = sample_su2(rng)
        assert to_unitary(SemidirectElement(a, 1)) == a

    def test_parity_element_fuses_to_parity(self):
        assert to_unitary(parity_element()) == parity_operator()

    def test_parity_element_value(self):
        p = parity_element()
        minus_i_sigma3 = IDENTITY2.scalar_mul(GaussianRational(0, -1)) * PAULI_Z
        assert p == SemidirectElement(minus_i_sigma3, -1)

    def test_mirror_fusion_has_det_minus_one(self):
        e = SemidirectElement(IDENTITY2, -1)
        assert to_unitary(e) == determinant_section(-1)
        assert to_unitary(e).det_sign == -1

    def test_round_trips_on_order8(self):
        for c in order8_matrices():
            assert to_unitary(from_unitary(c)) == c

    def test_round_trips_on_samples(self, rng):
        for _ in range(100):
            e = sample_pair_element(rng)
            assert from_unitary(to_unitary(e)) == e

    def test_fusion_is_homomorphic(self, rng):
        for _ in range(200):
            e1, e2 = sample_pair_element(rng), sample_pair_element(rng)
            assert to_unitary(compose(e1, e2)) == to_unitary(e1) * to_unitary(e2)

    def test_det_tracks_section(self, rng):
        e = sample_pair_element(rng)
        assert to_unitary(e).det_sign == e.sign


class TestProjection:
    def test_identity_section_projects_by_covering_map(self, rng):
        a = sample_su2(rng)
        assert project_to_o3(SemidirectElement(a, 1)) == covering_map(a)

    def test_mirror_section_appends_xy_mirror(self):
        e = SemidirectElement(IDENTITY2, -1)
        assert project_to_o3(e) == XY_MIRROR

    def test_mirror_section_general(self, rng):
        for _ in range(30):
            a = sample_su2(rng)
            e = SemidirectElement(a, -1)
            assert project_to_o3(e) == covering_map(a) * XY_MIRROR

    def test_agrees_with_extended_covering_map(self, rng):
        pool = [from_unitary(c) for c in order8_matrices()]
        pool += [sample_pair_element(rng) for _ in range(100)]
        for e in pool:
            assert project_to_o3(e) == extended_covering_map(to_unitary(e))

    def test_parity_element_projects_to_space_inversion(self):
        from spincover.cover import SPACE_INVERSION

        assert project_to_o3(parity_element()) == SPACE_INVERSION

    def test_fibers_are_antipodal(self, rng):
        for _ in range(50):
            e = sample_pair_element(rng)
            partner = from_unitary(-to_unitary(e))
            assert partner != e
            assert project_to_o3(partner) == project_to_o3(e)


class TestTextFormat:
    def test_round_trip(self, rng):
        e = sample_pair_element(rng)
        assert SemidirectElement.from_text(e.to_text()) == e

    def test_parity_element_text(self):
        text = parity_element().to_text()
        assert text == "(-i,0;0,i | -1,0;0,1)"
        assert SemidirectElement.from_text(text) == parity_element()

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            SemidirectElement.from_text("1,0;0,1")
        with pytest.raises(ValueError):
            SemidirectElement.from_text("(1,0;0,1)")
