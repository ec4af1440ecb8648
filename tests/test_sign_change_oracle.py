"""The sign-change forms of the projections and fusions, against the matrix
products they stand for.

``extended_covering_map``, ``spacetime_projection``, ``project_to_o3``,
``to_unitary``, ``from_unitary`` and ``twist_automorphism`` multiply by a
fixed signed diagonal matrix or a fourth root of unity by changing signs
on the integer key.  Each test here keeps the product formula as the
reference and compares it with the function on every element of three
pools: the order-48 closure of README's ``table --gen`` example, the
order-8 group of the P and T matrices, and 200 seeded ``sample_symmetry``
draws.  Equal values have equal keys, so a sign change that left the key
out of lowest terms fails here too.
"""

import random

import pytest

from spincover.cover import (
    HALF_TURN_Y,
    XY_MIRROR,
    UnitaryMat2,
    covering_map,
    determinant_section,
    extended_covering_map,
)
from spincover.groups import generate_closure, spinor_pt_group
from spincover.ptgroup import SpinorSymmetry, spacetime_projection
from spincover.scalars import I_UNIT
from spincover.semidirect import (
    SemidirectElement,
    from_unitary,
    project_to_o3,
    to_unitary,
    twist_automorphism,
)
from spincover.verify import sample_symmetry

README_GENERATORS = ("1/2-1/2i,-1/2-1/2i;1/2-1/2i,1/2+1/2i", "0,-1;1,0", "i,0;0,i")


def _elements(group):
    return [group.element_source[label] for label in group.labels]


@pytest.fixture(scope="module")
def symmetries():
    """Every matrix of the two finite groups at both time signs, then the
    sampled symmetries."""
    octahedral = _elements(generate_closure([UnitaryMat2.from_text(g) for g in README_GENERATORS]))
    order8 = _elements(spinor_pt_group())
    assert (len(octahedral), len(order8)) == (48, 8)
    finite = [SpinorSymmetry(m, a) for m in octahedral + order8 for a in (1, -1)]
    rng = random.Random(24)
    sampled = [sample_symmetry(rng) for _ in range(200)]
    assert {(g.matrix.det_sign, g.time_sign) for g in sampled} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    return finite + sampled


@pytest.fixture(scope="module")
def matrices(symmetries):
    return [g.matrix for g in symmetries]


def test_extended_covering_map_matches_the_factorisation(matrices):
    for c in matrices:
        if c.det_sign == 1:
            assert extended_covering_map(c) == covering_map(c)
        else:
            assert extended_covering_map(c) == -covering_map(c.scalar_mul(-I_UNIT)), c.to_text()


def test_spacetime_projection_matches_the_half_turn_product(symmetries):
    for g in symmetries:
        image = extended_covering_map(g.matrix)
        expected = image * HALF_TURN_Y if g.time_sign == -1 else image
        projection = spacetime_projection(g)
        assert projection.spatial == expected, g.to_text()
        assert projection.time_sign == g.time_sign


def test_from_unitary_matches_the_section_product(matrices):
    for c in matrices:
        expected = SemidirectElement(c, 1) if c.det_sign == 1 else SemidirectElement(c * determinant_section(-1), -1)
        assert from_unitary(c) == expected, c.to_text()


def _pairs(matrices):
    """Both pairs (A, +1) and (A, -1) for the special part A of each matrix."""
    return [SemidirectElement(from_unitary(c).su2_part, s) for c in matrices for s in (1, -1)]


def test_to_unitary_matches_the_section_product(matrices):
    for e in _pairs(matrices):
        assert to_unitary(e) == e.su2_part * determinant_section(e.sign), e.to_text()


def test_project_to_o3_matches_the_mirror_product(matrices):
    for e in _pairs(matrices):
        rotation = covering_map(e.su2_part)
        expected = rotation * XY_MIRROR if e.sign == -1 else rotation
        assert project_to_o3(e) == expected, e.to_text()


def test_twist_automorphism_matches_conjugation_by_the_section(matrices):
    for e in _pairs(matrices):
        section = determinant_section(e.sign)
        expected = section * e.su2_part * section.inverse()
        assert twist_automorphism(e.sign, e.su2_part) == expected, e.to_text()
