"""Exact 2x2 unitary and 3x3 orthogonal matrices and the spin covering maps.

The unitary matrices here have determinant +1 or -1 exactly; the det = +1
part is SU(2) and the det = -1 coset is reached by multiplying with the
parity lift i*Identity.  The two-to-one projection onto rotations is
:func:`covering_map`, and :func:`extended_covering_map` extends it over the
det = -1 coset so that the image is all of O(3) with the same kernel
{I, -I}.  :func:`determinant_section` is the homomorphic section of det,
+1 -> I and -1 -> diag(-1, 1), and the only place that section is chosen;
the finite checks that it splits the extension by Z2 are
:func:`spincover.verify.check_exact_sequence`.

Everything is computed over Gaussian rationals, so homomorphism and kernel
statements are checked by exact equality, never by closeness.  A
:class:`UnitaryMat2` holds four :class:`~spincover.scalars.GaussianRational`
entries.  An :class:`OrthogonalMat3` holds nine integer numerators over
one positive denominator in lowest terms, so a product is an integer 3x3
matmul plus one gcd; its ``rows`` are Fractions.  :func:`covering_map`
writes those numerators straight from the integer triples of z and w.

Topology is out of scope: the two-component group here double-covers O(3)
but, being disconnected, is not a universal cover; nothing in this package
asserts or depends on connectivity statements, only on finite algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .scalars import (
    I_UNIT,
    ONE,
    ZERO,
    GaussianRational,
    ScalarParseError,
    as_rational,
    format_complex,
    format_rational,
    parse_complex,
    parse_rational,
)

Entry = GaussianRational
Row2 = tuple[Entry, Entry]
#: A quaternion (a, b, c, d) with rational components.
Quaternion = tuple[Fraction, Fraction, Fraction, Fraction]


def _entry(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


class UnitaryMat2:
    """A 2x2 unitary matrix over Gaussian rationals with det in {+1, -1}.

    Unitarity and the determinant constraint are validated exactly on
    construction, so every instance is an element of the det = +/-1
    unitary group.  For det = +1 the matrix automatically has the form
    ((z, w), (-conj w, conj z)) with |z|^2 + |w|^2 = 1.
    """

    __slots__ = ("_rows", "_det_sign")

    def __init__(self, rows: Sequence[Sequence[object]]) -> None:
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 matrix")
        m = tuple(tuple(_entry(v) for v in r) for r in rows)
        object.__setattr__(self, "_rows", m)
        object.__setattr__(self, "_det_sign", _unitary_det_sign(m))

    @classmethod
    def _trusted(cls, rows: tuple[Row2, Row2], det_sign: int) -> "UnitaryMat2":
        # Internal: for results of operations that preserve unitarity and
        # the det = +/-1 constraint by construction (products, negation,
        # conjugation).  External inputs always go through __init__.
        self = object.__new__(cls)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_det_sign", det_sign)
        return self

    @property
    def rows(self) -> tuple[Row2, Row2]:
        return self._rows

    @property
    def det_sign(self) -> int:
        return self._det_sign

    def is_special(self) -> bool:
        return self._det_sign == 1

    def is_unitary(self) -> bool:
        """Recheck the defining equations (used by the invariant tests)."""
        return _recheck(_unitary_det_sign, (self._rows,), self._det_sign)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UnitaryMat2 is immutable")

    def __getitem__(self, index: int) -> Row2:
        return self._rows[index]

    def __mul__(self, other: "UnitaryMat2") -> "UnitaryMat2":
        if not isinstance(other, UnitaryMat2):
            return NotImplemented
        a, b = self._rows, other._rows
        rows = (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
        )
        return UnitaryMat2._trusted(rows, self._det_sign * other._det_sign)

    def __neg__(self) -> "UnitaryMat2":
        rows = tuple(tuple(-v for v in row) for row in self._rows)
        return UnitaryMat2._trusted(rows, self._det_sign)

    def scalar_mul(self, phase: GaussianRational) -> "UnitaryMat2":
        """Multiply by a fourth root of unity; det scales by phase squared."""
        ph2 = phase * phase
        if ph2 == ONE:
            sign = self._det_sign
        elif ph2 == -ONE:
            sign = -self._det_sign
        else:
            raise ValueError("scalar factor must be one of 1, -1, i, -i")
        rows = tuple(tuple(phase * v for v in row) for row in self._rows)
        return UnitaryMat2._trusted(rows, sign)

    def conjugate(self) -> "UnitaryMat2":
        """Entrywise complex conjugate (still unitary with the same det)."""
        rows = tuple(tuple(v.conjugate() for v in row) for row in self._rows)
        return UnitaryMat2._trusted(rows, self._det_sign)

    def conjugate_transpose(self) -> "UnitaryMat2":
        r = self._rows
        rows = (
            (r[0][0].conjugate(), r[1][0].conjugate()),
            (r[0][1].conjugate(), r[1][1].conjugate()),
        )
        return UnitaryMat2._trusted(rows, self._det_sign)

    def inverse(self) -> "UnitaryMat2":
        return self.conjugate_transpose()

    def apply(self, u: GaussianRational, v: GaussianRational) -> tuple[GaussianRational, GaussianRational]:
        r = self._rows
        return (r[0][0] * u + r[0][1] * v, r[1][0] * u + r[1][1] * v)

    def su2_components(self) -> tuple[GaussianRational, GaussianRational]:
        """Return (z, w) for a det = +1 matrix ((z, w), (-conj w, conj z))."""
        if self._det_sign != 1:
            raise ValueError("only det = +1 matrices have SU(2) components")
        return self._rows[0][0], self._rows[0][1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitaryMat2):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def sort_key(self) -> tuple:
        return tuple(part for row in self._rows for v in row for part in v.sort_key())

    def to_text(self) -> str:
        return ";".join(",".join(format_complex(v) for v in row) for row in self._rows)

    @classmethod
    def from_text(cls, text: str) -> "UnitaryMat2":
        return cls(_parse_rows(text, parse_complex, 2))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"UnitaryMat2.from_text({self.to_text()!r})"


class OrthogonalMat3:
    """A 3x3 rational orthogonal matrix; R * R^T = I exactly, det = +/-1.

    Stored as nine integer numerators, row by row, over one positive
    denominator, in lowest terms, so equal matrices have equal storage.
    ``rows`` and indexing give the entries as Fractions.
    """

    __slots__ = ("_num", "_den", "_det_sign")

    def __init__(self, rows: Sequence[Sequence[object]]) -> None:
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("expected a 3x3 matrix")
        entries = [as_rational(v) for r in rows for v in r]
        den = lcm(*(v.denominator for v in entries))
        # Every entry is in lowest terms, so the numerators over the least
        # common denominator have no common factor with it.
        num = tuple(v.numerator * (den // v.denominator) for v in entries)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_det_sign", _orthogonal_det_sign(num, den))

    @classmethod
    def _reduced(cls, num: tuple[int, ...], den: int, det_sign: int) -> "OrthogonalMat3":
        # Internal: for operations preserving orthogonality by construction;
        # ``num``/``den`` (den > 0) is brought to lowest terms.
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple(n // g for n in num), den // g
        self = object.__new__(cls)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_det_sign", det_sign)
        return self

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        n, d = self._num, self._den
        return tuple(tuple(Fraction(v, d) for v in n[i : i + 3]) for i in (0, 3, 6))

    @property
    def det_sign(self) -> int:
        return self._det_sign

    def is_orthogonal(self) -> bool:
        """Recheck the defining equations (used by the invariant tests)."""
        return _recheck(_orthogonal_det_sign, (self._num, self._den), self._det_sign)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("OrthogonalMat3 is immutable")

    def __getitem__(self, index: int) -> tuple[Fraction, ...]:
        return self.rows[index]

    def __mul__(self, other: "OrthogonalMat3") -> "OrthogonalMat3":
        if not isinstance(other, OrthogonalMat3):
            return NotImplemented
        a, b = self._num, other._num
        num = tuple(
            a[i] * b[j] + a[i + 1] * b[j + 3] + a[i + 2] * b[j + 6]
            for i in (0, 3, 6)
            for j in (0, 1, 2)
        )
        return OrthogonalMat3._reduced(num, self._den * other._den, self._det_sign * other._det_sign)

    def __neg__(self) -> "OrthogonalMat3":
        return OrthogonalMat3._reduced(tuple(-n for n in self._num), self._den, -self._det_sign)

    def transpose(self) -> "OrthogonalMat3":
        n = self._num
        num = (n[0], n[3], n[6], n[1], n[4], n[7], n[2], n[5], n[8])
        return OrthogonalMat3._reduced(num, self._den, self._det_sign)

    def inverse(self) -> "OrthogonalMat3":
        return self.transpose()

    def integer_apply(self, x: int, y: int, z: int) -> tuple[int, int, int, int]:
        """(X, Y, Z, d) with R (x, y, z)/e = (X, Y, Z)/(d e) for every e > 0:
        the integer numerators times (x, y, z), then the denominator."""
        n = self._num
        return (
            n[0] * x + n[1] * y + n[2] * z,
            n[3] * x + n[4] * y + n[5] * z,
            n[6] * x + n[7] * y + n[8] * z,
            self._den,
        )

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
        v = [as_rational(c) for c in v]
        common = lcm(*(c.denominator for c in v))
        x, y, z, den = self.integer_apply(*(c.numerator * (common // c.denominator) for c in v))
        den *= common
        return (Fraction(x, den), Fraction(y, den), Fraction(z, den))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrthogonalMat3):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def to_text(self) -> str:
        return ";".join(",".join(format_rational(v) for v in row) for row in self.rows)

    @classmethod
    def from_text(cls, text: str) -> "OrthogonalMat3":
        return cls(_parse_rows(text, parse_rational, 3))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"OrthogonalMat3.from_text({self.to_text()!r})"


def _unitary_det_sign(m: tuple[Row2, Row2]) -> int:
    """The sign of det M; ValueError unless M * M^dagger = I and det = +/-1."""
    (a, b), (c, d) = m
    # M * M^dagger = I, checked entry by entry.
    if (
        a * a.conjugate() + b * b.conjugate() != ONE
        or c * c.conjugate() + d * d.conjugate() != ONE
        or not (a * c.conjugate() + b * d.conjugate()).is_zero()
    ):
        raise ValueError("matrix is not unitary")
    det = a * d - b * c
    if det == ONE:
        return 1
    if det == -ONE:
        return -1
    raise ValueError(f"determinant must be +1 or -1, got {det}")


def _orthogonal_det_sign(n: tuple[int, ...], d: int) -> int:
    """The sign of det R for R = N/d; ValueError unless N * N^T = d^2 I."""
    d2 = d * d
    for i in (0, 3, 6):
        for j in (0, 3, 6):
            if n[i] * n[j] + n[i + 1] * n[j + 1] + n[i + 2] * n[j + 2] != (d2 if i == j else 0):
                raise ValueError("matrix is not orthogonal")
    det = (
        n[0] * (n[4] * n[8] - n[5] * n[7])
        - n[1] * (n[3] * n[8] - n[5] * n[6])
        + n[2] * (n[3] * n[7] - n[4] * n[6])
    )
    return 1 if det > 0 else -1  # det N = +/-d^3 for every orthogonal N/d


def _recheck(det_sign_of, args: tuple, det_sign: int) -> bool:
    try:
        return det_sign_of(*args) == det_sign
    except ValueError:
        return False


def _parse_rows(text: str, scalar_parser, size: int) -> list[list]:
    rows = [part for part in text.strip().split(";")]
    if len(rows) != size:
        raise ScalarParseError(f"expected {size} rows separated by ';', got {len(rows)}")
    parsed = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != size:
            raise ScalarParseError(f"expected {size} entries per row, got {len(cells)}")
        parsed.append([scalar_parser(cell) for cell in cells])
    return parsed


# -- fixed matrices ---------------------------------------------------------

IDENTITY2 = UnitaryMat2([[ONE, ZERO], [ZERO, ONE]])
PAULI_X = UnitaryMat2([[ZERO, ONE], [ONE, ZERO]])
PAULI_Y = UnitaryMat2([[ZERO, -I_UNIT], [I_UNIT, ZERO]])
PAULI_Z = UnitaryMat2([[ONE, ZERO], [ZERO, -ONE]])

IDENTITY3 = OrthogonalMat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
SPACE_INVERSION = OrthogonalMat3([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
#: The half turn about the y axis, diag(-1, 1, -1).
HALF_TURN_Y = OrthogonalMat3([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
#: diag(1, 1, -1), the mirror through the xy plane.
XY_MIRROR = OrthogonalMat3([[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def parity_operator() -> UnitaryMat2:
    """The spinor lift of spatial inversion: i * Identity, squaring to -I."""
    return IDENTITY2.scalar_mul(I_UNIT)


def su2_from_zw(z: GaussianRational, w: GaussianRational) -> UnitaryMat2:
    """Build ((z, w), (-conj w, conj z)); requires |z|^2 + |w|^2 = 1."""
    return UnitaryMat2([[z, w], [-w.conjugate(), z.conjugate()]])


def covering_map(matrix: UnitaryMat2) -> OrthogonalMat3:
    """The two-to-one homomorphism from det = +1 unitaries onto rotations.

    For ((z, w), (-conj w, conj z)) the image rotation is

        [  Re(z^2 - w^2)   Im(z^2 + w^2)   -2 Re(z w) ]
        [ -Im(z^2 - w^2)   Re(z^2 + w^2)    2 Im(z w) ]
        [  2 Re(z conj w)  2 Im(z conj w)  |z|^2 - |w|^2 ]

    computed exactly.  A and -A map to the same rotation.
    """
    if not matrix.is_special():
        raise ValueError("covering_map requires det = +1; use extended_covering_map")
    # With z = (a + b i)/p and w = (c + e i)/q every entry is an integer
    # over p^2 q^2.  Orthogonality with det +1 is automatic for unit (z, w);
    # the invariant suites recheck it sample by sample via is_orthogonal().
    z, w = matrix.su2_components()
    a, b, p = z.as_integer_triple()
    c, e, q = w.as_integer_triple()
    p2, q2, pq = p * p, q * q, p * q
    z2_re, w2_re = (a * a - b * b) * q2, (c * c - e * e) * p2
    z2_im, w2_im = 2 * a * b * q2, 2 * c * e * p2
    num = (
        z2_re - w2_re, z2_im + w2_im, -2 * (a * c - b * e) * pq,
        w2_im - z2_im, z2_re + w2_re, 2 * (a * e + b * c) * pq,
        2 * (a * c + b * e) * pq, 2 * (b * c - a * e) * pq, (a * a + b * b) * q2 - (c * c + e * e) * p2,
    )
    return OrthogonalMat3._reduced(num, p2 * q2, 1)


def extended_covering_map(matrix: UnitaryMat2) -> OrthogonalMat3:
    """Extend the covering map over the det = -1 coset, onto all of O(3).

    A det = -1 matrix C factors as C = A * (i I) with A = C * (-i I) of
    det +1; its image is minus the rotation of A.  The factorisation is
    recomputed here, never trusted from the caller.  The image determinant
    matches the input determinant and the kernel stays {I, -I}.
    """
    if matrix.is_special():
        return covering_map(matrix)
    special_part = matrix.scalar_mul(-I_UNIT)
    return -covering_map(special_part)


_MINUS_SECTION = -PAULI_Z


def determinant_section(sign: int) -> UnitaryMat2:
    """The homomorphic right inverse of det: +1 -> I, -1 -> diag(-1, 1).

    diag(1, -1) would serve equally well; the single fixed choice keeps the
    twisted-pair form of the extension canonical.
    """
    if sign == 1:
        return IDENTITY2
    if sign == -1:
        return _MINUS_SECTION
    raise ValueError(f"sign must be +1 or -1, got {sign}")


def rational_unit_quaternion(x: Fraction, y: Fraction, z: Fraction) -> Quaternion:
    """Map a rational 3-vector to a rational point (a, b, c, d) of the unit 3-sphere.

    Inverse stereographic projection: with s = x^2 + y^2 + z^2 the image is
    ((1-s)/(1+s), 2x/(1+s), 2y/(1+s), 2z/(1+s)).  Every rational input gives
    an exactly unit quaternion; only (-1, 0, 0, 0) is unreachable.
    """
    x, y, z = as_rational(x), as_rational(y), as_rational(z)
    s = x * x + y * y + z * z
    return ((1 - s) / (1 + s), 2 * x / (1 + s), 2 * y / (1 + s), 2 * z / (1 + s))


def quaternion_to_su2(q: Quaternion) -> UnitaryMat2:
    """Identify a unit quaternion (a, b, c, d) with the det = +1 matrix
    built from z = a + b i and w = c + d i; the matrix's unitarity check
    raises ValueError unless |z|^2 + |w|^2 = 1."""
    a, b, c, d = q
    return su2_from_zw(GaussianRational(a, b), GaussianRational(c, d))
