"""The twisted-pair form of the det = +/-1 unitary group.

A pair (A, s) holds a det = +1 matrix A and a sign s in {+1, -1}, the Z2
factor.  The sign stands for the section matrix
:func:`~spincover.cover.determinant_section` (s), which is I or
diag(-1, 1); that function is the only place the section is chosen.  Pairs
compose with a twist: the left factor's section conjugates the right
factor's special part, and the signs multiply.  Fusing a pair into the
single matrix A * section(s) is an isomorphism onto the det = +/-1 group,
and the bundle projection onto O(3) transports along it.  A pair prints
as ``(A | B)`` with B the section matrix; no input reads one.
"""

from __future__ import annotations

from .cover import (
    IDENTITY2,
    OrthogonalMat3,
    UnitaryMat2,
    _signed_image,
    determinant_section,
)
from .scalars import Record, as_sign


def twist_automorphism(sign: int, a: UnitaryMat2) -> UnitaryMat2:
    """Conjugate a det = +1 matrix by the section matrix of ``sign``.

    This is the Z2 action defining the twisted composition.  The identity
    section acts trivially.  The section diag(-1, 1) is its own inverse,
    and B A B has entries B_i A_ij B_j, so it negates the off-diagonal
    entries: the involution ((z, w), ...) -> ((z, -w), ...).
    """
    if type(a) is not UnitaryMat2:
        raise TypeError(f"twist_automorphism takes a UnitaryMat2, not {type(a).__name__}")
    if not a.is_special():
        raise ValueError("the twist acts on det = +1 matrices")
    section = determinant_section(sign)
    if sign == 1:
        return a
    return a._between_diagonals(section, section)


class SemidirectElement(Record):
    """A pair (special part, section sign) under the twisted composition."""

    __slots__ = ("su2_part", "sign")

    def __init__(self, su2_part: UnitaryMat2, sign: int) -> None:
        if not isinstance(su2_part, UnitaryMat2):
            raise TypeError(f"SemidirectElement takes a UnitaryMat2, not {type(su2_part).__name__}")
        if not su2_part.is_special():
            raise ValueError("special part must have det = +1")
        as_sign(sign)
        object.__setattr__(self, "su2_part", su2_part)
        object.__setattr__(self, "sign", sign)

    def to_text(self) -> str:
        return f"({self.su2_part.to_text()} | {determinant_section(self.sign).to_text()})"


def compose(e1: SemidirectElement, e2: SemidirectElement) -> SemidirectElement:
    """Twisted composition: (A', s') (A, s) = (A' B' A B'^-1, s' s), B' the
    section matrix of s'."""
    for e in (e1, e2):
        if type(e) is not SemidirectElement:
            raise TypeError(f"compose takes two SemidirectElements, not {type(e).__name__}")
    twisted = twist_automorphism(e1.sign, e2.su2_part)
    return SemidirectElement(e1.su2_part * twisted, e1.sign * e2.sign)


def to_unitary(e: SemidirectElement) -> UnitaryMat2:
    """Fuse a pair into the single matrix A * B; det matches the section sign.

    B is I or diag(-1, 1), so A * B is A with its first column negated
    when the sign is -1.
    """
    if type(e) is not SemidirectElement:
        raise TypeError(f"to_unitary takes a SemidirectElement, not {type(e).__name__}")
    if e.sign == 1:
        return e.su2_part
    return e.su2_part._between_diagonals(IDENTITY2, determinant_section(-1))


def from_unitary(c: UnitaryMat2) -> SemidirectElement:
    """Split a det = +/-1 matrix back into a pair; inverse of :func:`to_unitary`."""
    if type(c) is not UnitaryMat2:
        raise TypeError(f"from_unitary takes a UnitaryMat2, not {type(c).__name__}")
    if c.is_special():
        return SemidirectElement(c, 1)
    # The section matrix B of -1 is an involution, so c = (c B) B; c B is
    # c with its first column negated.
    return SemidirectElement(c._between_diagonals(IDENTITY2, determinant_section(-1)), -1)


def project_to_o3(e: SemidirectElement) -> OrthogonalMat3:
    """The bundle projection of a pair onto O(3).

    Sign s: the rotation of the special part times diag(1, 1, s), the
    xy-plane mirror for s = -1, which negates its third column; the
    covering map's column-signed kernel writes it in one step.  Always
    equal to the extended covering map of the fused matrix.
    """
    if type(e) is not SemidirectElement:
        raise TypeError(f"project_to_o3 takes a SemidirectElement, not {type(e).__name__}")
    return _signed_image(e.su2_part, 1, 1, e.sign)
