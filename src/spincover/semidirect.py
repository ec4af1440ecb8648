"""The twisted-pair form of the det = +/-1 unitary group.

A pair (A, s) holds a det = +1 matrix A and a sign s in {+1, -1}, the Z2
factor.  The sign stands for the section matrix
:func:`~spincover.cover.determinant_section` (s), which is I or
diag(-1, 1); that function is the only place the section is chosen.  Pairs
compose with a twist: the left factor's section conjugates the right
factor's special part, and the signs multiply.  Fusing a pair into the
single matrix A * section(s) is an isomorphism onto the det = +/-1 group,
and the bundle projection onto O(3) transports along it.  In text a pair
is written ``(A | B)`` with B the section matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import (
    IDENTITY2,
    OrthogonalMat3,
    UnitaryMat2,
    XY_MIRROR,
    covering_map,
    determinant_section,
    parity_operator,
)


def twist_automorphism(sign: int, a: UnitaryMat2) -> UnitaryMat2:
    """Conjugate a det = +1 matrix by the section matrix of ``sign``.

    This is the Z2 action defining the twisted composition.  The identity
    section acts trivially; the mirror section acts as the involution
    ((z, w), ...) -> ((z, -w), ...).
    """
    if not a.is_special():
        raise ValueError("the twist acts on det = +1 matrices")
    section = determinant_section(sign)
    if sign == 1:
        return a
    return section * a * section.inverse()


@dataclass(frozen=True)
class SemidirectElement:
    """A pair (special part, section sign) under the twisted composition."""

    su2_part: UnitaryMat2
    sign: int

    def __post_init__(self) -> None:
        if not self.su2_part.is_special():
            raise ValueError("special part must have det = +1")
        determinant_section(self.sign)  # raises unless the sign is the int 1 or -1

    def inverse(self) -> "SemidirectElement":
        return from_unitary(to_unitary(self).inverse())

    def to_text(self) -> str:
        return f"({self.su2_part.to_text()} | {determinant_section(self.sign).to_text()})"

    @classmethod
    def from_text(cls, text: str) -> "SemidirectElement":
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"expected '(A | B)', got {text!r}")
        left, sep, right = body[1:-1].partition("|")
        if not sep:
            raise ValueError(f"expected '(A | B)', got {text!r}")
        su2_part = UnitaryMat2.from_text(left)
        section = UnitaryMat2.from_text(right)
        if section != determinant_section(section.det_sign):
            raise ValueError("section matrix must be I or diag(-1, 1)")
        return cls(su2_part, section.det_sign)


IDENTITY_ELEMENT = SemidirectElement(IDENTITY2, 1)


def compose(e1: SemidirectElement, e2: SemidirectElement) -> SemidirectElement:
    """Twisted composition: (A', s') (A, s) = (A' B' A B'^-1, s' s), B' the
    section matrix of s'."""
    twisted = twist_automorphism(e1.sign, e2.su2_part)
    return SemidirectElement(e1.su2_part * twisted, e1.sign * e2.sign)


def to_unitary(e: SemidirectElement) -> UnitaryMat2:
    """Fuse a pair into the single matrix A * B; det matches the section sign."""
    return e.su2_part * determinant_section(e.sign)


def from_unitary(c: UnitaryMat2) -> SemidirectElement:
    """Split a det = +/-1 matrix back into a pair; inverse of :func:`to_unitary`."""
    if c.is_special():
        return SemidirectElement(c, 1)
    # The section matrix of -1 is an involution, so c = (c B) B.
    return SemidirectElement(c * determinant_section(-1), -1)


def project_to_o3(e: SemidirectElement) -> OrthogonalMat3:
    """The bundle projection of a pair onto O(3).

    Sign +1: the rotation of the special part.  Sign -1: that rotation
    followed by the xy-plane mirror diag(1, 1, -1).  Always equal to the
    extended covering map of the fused matrix.
    """
    rotation = covering_map(e.su2_part)
    if e.sign == 1:
        return rotation
    return rotation * XY_MIRROR


def parity_element() -> SemidirectElement:
    """The pair that fuses to the parity lift i*I: (diag(-i, i), -1)."""
    return from_unitary(parity_operator())
