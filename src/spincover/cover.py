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
statements are checked by exact equality, never by closeness.  Both
matrix types are :class:`~spincover.scalars.ExactKey` values: a
:class:`UnitaryMat2` is the real and imaginary parts of its four entries,
eight integer numerators, and an :class:`OrthogonalMat3` its nine entries,
each over one positive denominator in lowest terms.  A product is integer
matrix work plus one gcd, negation and conjugation only flip signs, and
the det sign is read off the key.  A product with a fixed signed
diagonal matrix only changes signs too: diag(r) M diag(c) has entries
r_i M_ij c_j, which ``UnitaryMat2._between_diagonals`` writes on the key
for the section diag(-1, 1).  ``rows`` gives GaussianRational and
Fraction entries.  :func:`covering_map` writes the rotation's numerators
over d^2 straight from the numerators of z and w over d;
:func:`extended_covering_map` sends the det = -1 coset through the same
formula, since C = A (i I) with A's entries read off C's by a sign change
and a swap of real and imaginary parts.  That one kernel takes a sign
for each column, so an image times a signed diagonal diag(s0, s1, s2),
such as HALF_TURN_Y in the spacetime projection or XY_MIRROR in the pair
projection, is written as one key with one reduction.

Topology is out of scope: the two-component group here double-covers O(3)
but, being disconnected, is not a universal cover; nothing in this package
asserts or depends on connectivity statements, only on finite algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .scalars import (
    I_UNIT,
    ONE,
    ZERO,
    ExactKey,
    GaussianRational,
    ScalarParseError,
    _reduced,
    as_rational,
    as_sign,
    common_key,
    format_complex,
    format_rational,
    lowest_terms,
    parse_complex,
    parse_rational,
)

#: A quaternion (a, b, c, d) with rational components.
Quaternion = tuple[Fraction, Fraction, Fraction, Fraction]


class UnitaryMat2(ExactKey):
    """A 2x2 unitary matrix over Gaussian rationals with det in {+1, -1}.

    Unitarity and the determinant constraint are validated exactly on
    construction, so every instance is an element of the det = +/-1
    unitary group.  For det = +1 the matrix automatically has the form
    ((z, w), (-conj w, conj z)) with |z|^2 + |w|^2 = 1.

    Stored as eight integer numerators, the real and imaginary parts of
    each entry row by row, over one positive denominator, in lowest terms.
    ``rows`` gives the entries as GaussianRationals.
    """

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[object]]) -> None:
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 matrix")
        entries = [v if isinstance(v, GaussianRational) else GaussianRational(v) for r in rows for v in r]
        key = common_key([(n, z._key[2]) for z in entries for n in z._key[:2]])
        _check_unitary(key)
        super().__init__(key)

    @property
    def rows(self) -> tuple[tuple[GaussianRational, GaussianRational], ...]:
        *n, d = self._key
        return tuple((_reduced(n[i], n[i + 1], d), _reduced(n[i + 2], n[i + 3], d)) for i in (0, 4))

    @property
    def det_sign(self) -> int:
        # det = +1 exactly when the second row is (-conj w, conj z); for a
        # det = -1 matrix that would force z = w = 0.
        a, b, c, e, f, g, h, k, _ = self._key
        return 1 if (f, g, h, k) == (-c, e, a, -b) else -1

    def is_special(self) -> bool:
        return self.det_sign == 1

    def __mul__(self, other: "UnitaryMat2") -> "UnitaryMat2":
        if not isinstance(other, UnitaryMat2):
            return NotImplemented
        a, b, c, e, f, g, h, k, d = self._key
        p, q, r, s, t, u, v, w, m = other._key
        # (a + b i, c + e i; f + g i, h + k i) (p + q i, r + s i; t + u i, v + w i)
        return UnitaryMat2._from_key(lowest_terms((
            a * p - b * q + c * t - e * u, a * q + b * p + c * u + e * t,
            a * r - b * s + c * v - e * w, a * s + b * r + c * w + e * v,
            f * p - g * q + h * t - k * u, f * q + g * p + h * u + k * t,
            f * r - g * s + h * v - k * w, f * s + g * r + h * w + k * v,
            d * m,
        )))

    def __neg__(self) -> "UnitaryMat2":
        *n, d = self._key
        return UnitaryMat2._from_key((*[-x for x in n], d))

    def scalar_mul(self, phase: GaussianRational) -> "UnitaryMat2":
        """Multiply by a fourth root of unity; det scales by phase squared."""
        if not isinstance(phase, GaussianRational):
            raise TypeError(f"scalar factor must be a GaussianRational, not {type(phase).__name__}")
        p, q, den = phase._key
        if den != 1 or p * p + q * q != 1:
            raise ValueError("scalar factor must be one of 1, -1, i, -i")
        a, b, c, e, f, g, h, k, d = self._key
        # Times the unit p + q i, the key stays in lowest terms.
        return UnitaryMat2._from_key((
            a * p - b * q, a * q + b * p, c * p - e * q, c * q + e * p,
            f * p - g * q, f * q + g * p, h * p - k * q, h * q + k * p, d,
        ))

    def conjugate(self) -> "UnitaryMat2":
        """Entrywise complex conjugate (still unitary with the same det)."""
        a, b, c, e, f, g, h, k, d = self._key
        return UnitaryMat2._from_key((a, -b, c, -e, f, -g, h, -k, d))

    def inverse(self) -> "UnitaryMat2":
        """The conjugate transpose, the inverse of a unitary matrix."""
        a, b, c, e, f, g, h, k, d = self._key
        return UnitaryMat2._from_key((a, -b, f, -g, c, -e, h, -k, d))

    def _between_diagonals(self, left: "UnitaryMat2", right: "UnitaryMat2") -> "UnitaryMat2":
        """``left * self * right`` for signed diagonal ``left`` and ``right``:
        entry (i, j) times left_i right_j, a sign change on the key."""
        l0, l1, r0, r1 = left._key[0], left._key[6], right._key[0], right._key[6]
        a, b, c, e, f, g, h, k, d = self._key
        s00, s01, s10, s11 = l0 * r0, l0 * r1, l1 * r0, l1 * r1
        return UnitaryMat2._from_key((
            s00 * a, s00 * b, s01 * c, s01 * e, s10 * f, s10 * g, s11 * h, s11 * k, d,
        ))

    def apply(self, u: GaussianRational, v: GaussianRational) -> tuple[GaussianRational, GaussianRational]:
        if not (isinstance(u, GaussianRational) and isinstance(v, GaussianRational)):
            raise TypeError("UnitaryMat2.apply takes two GaussianRational components")
        (key,) = self.integer_apply_all([u._key + v._key])
        return GaussianRational._from_key(key[:3]), GaussianRational._from_key(key[3:])

    def integer_apply_all(self, values: Iterable[tuple[int, ...]], conjugate: bool = False) -> list[tuple[int, ...]]:
        """The product with each value key (p, q, m, r, s, n), the spinor
        u = (p + q i)/m, v = (r + s i)/n with m, n > 0, or with its
        conjugate when ``conjugate`` is set: each result the two keys of
        its components joined, each in lowest terms, in the values' order."""
        a, b, c, e, f, g, h, k, d = self._key
        sign = -1 if conjugate else 1
        out = []
        for p, q, m, r, s, n in values:
            # Entry times u over d m, entry times v over d n: both over d m n.
            x, y = p * n, sign * q * n
            z, w = r * m, sign * s * m
            den = d * m * n
            ur, ui = a * x - b * y + c * z - e * w, a * y + b * x + c * w + e * z
            vr, vi = f * x - g * y + h * z - k * w, f * y + g * x + h * w + k * z
            gu, gv = gcd(ur, ui, den), gcd(vr, vi, den)
            out.append((ur // gu, ui // gu, den // gu, vr // gv, vi // gv, den // gv))
        return out

    def to_text(self) -> str:
        return ";".join(",".join(format_complex(v) for v in row) for row in self.rows)

    @classmethod
    def from_text(cls, text: str) -> "UnitaryMat2":
        return cls(_parse_rows(text, parse_complex, 2))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"UnitaryMat2.from_text({self.to_text()!r})"


class OrthogonalMat3(ExactKey):
    """A 3x3 rational orthogonal matrix; R * R^T = I exactly, det = +/-1.

    Stored as nine integer numerators, row by row, over one positive
    denominator, in lowest terms, so equal matrices have equal storage.
    ``rows`` gives the entries as Fractions.
    """

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[object]]) -> None:
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("expected a 3x3 matrix")
        key = common_key([(v.numerator, v.denominator) for r in rows for v in map(as_rational, r)])
        _check_orthogonal(key)
        super().__init__(key)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        *n, d = self._key
        return tuple(tuple(Fraction(v, d) for v in n[i : i + 3]) for i in (0, 3, 6))

    @property
    def det_sign(self) -> int:
        n = self._key
        det = (
            n[0] * (n[4] * n[8] - n[5] * n[7])
            - n[1] * (n[3] * n[8] - n[5] * n[6])
            + n[2] * (n[3] * n[7] - n[4] * n[6])
        )
        return 1 if det > 0 else -1  # det N = +/-d^3 for every orthogonal N/d

    def is_orthogonal(self) -> bool:
        """Recheck the defining equations (used by the invariant tests)."""
        return _recheck(_check_orthogonal, self._key)

    def __mul__(self, other: "OrthogonalMat3") -> "OrthogonalMat3":
        if not isinstance(other, OrthogonalMat3):
            return NotImplemented
        a, b, c, e, f, g, h, k, m, d = self._key
        p, q, r, s, t, u, v, w, x, n = other._key
        return OrthogonalMat3._from_key(lowest_terms((
            a * p + b * s + c * v, a * q + b * t + c * w, a * r + b * u + c * x,
            e * p + f * s + g * v, e * q + f * t + g * w, e * r + f * u + g * x,
            h * p + k * s + m * v, h * q + k * t + m * w, h * r + k * u + m * x,
            d * n,
        )))

    def __neg__(self) -> "OrthogonalMat3":
        *n, d = self._key
        return OrthogonalMat3._from_key((*[-x for x in n], d))

    def transpose(self) -> "OrthogonalMat3":
        n = self._key
        return OrthogonalMat3._from_key((n[0], n[3], n[6], n[1], n[4], n[7], n[2], n[5], n[8], n[9]))

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
        """R v: with v = (x, y, z)/e, the integer numerators times (x, y, z), over d e."""
        x, y, z, e = common_key([(c.numerator, c.denominator) for c in map(as_rational, v)])
        n = self._key
        de = n[9] * e
        return (
            Fraction(n[0] * x + n[1] * y + n[2] * z, de),
            Fraction(n[3] * x + n[4] * y + n[5] * z, de),
            Fraction(n[6] * x + n[7] * y + n[8] * z, de),
        )

    def to_text(self) -> str:
        return ";".join(",".join(format_rational(v) for v in row) for row in self.rows)

    @classmethod
    def from_text(cls, text: str) -> "OrthogonalMat3":
        return cls(_parse_rows(text, parse_rational, 3))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"OrthogonalMat3.from_text({self.to_text()!r})"


def _check_unitary(key: tuple[int, ...]) -> None:
    """ValueError unless M * M^dagger = I and det M = +/-1 for the key of M."""
    a, b, c, e, f, g, h, k, d = key
    d2 = d * d
    # M * M^dagger = d^2 I for the numerators, checked entry by entry.
    if (
        a * a + b * b + c * c + e * e != d2
        or f * f + g * g + h * h + k * k != d2
        or a * f + b * g + c * h + e * k != 0
        or b * f - a * g + e * h - c * k != 0
    ):
        raise ValueError("matrix is not unitary")
    det_re, det_im = a * h - b * k - c * f + e * g, a * k + b * h - c * g - e * f
    if det_im != 0 or det_re not in (d2, -d2):
        raise ValueError(f"determinant must be +1 or -1, got {_reduced(det_re, det_im, d2)}")


def _check_orthogonal(n: tuple[int, ...]) -> None:
    """ValueError unless R * R^T = I for the key of R, that is N * N^T = d^2 I."""
    d2 = n[9] * n[9]
    for i in (0, 3, 6):
        for j in (0, 3, 6):
            if n[i] * n[j] + n[i + 1] * n[j + 1] + n[i + 2] * n[j + 2] != (d2 if i == j else 0):
                raise ValueError("matrix is not orthogonal")


def _recheck(check, key: tuple[int, ...]) -> bool:
    try:
        check(key)
    except ValueError:
        return False
    return True


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
    if type(matrix) is not UnitaryMat2:
        raise TypeError(f"covering_map takes a UnitaryMat2, not {type(matrix).__name__}")
    if not matrix.is_special():
        raise ValueError("covering_map requires det = +1; use extended_covering_map")
    a, b, c, e, *_, d = matrix._key
    return _rotation(a, b, c, e, d, 1, 1, 1)


def extended_covering_map(matrix: UnitaryMat2) -> OrthogonalMat3:
    """Extend the covering map over the det = -1 coset, onto all of O(3).

    A det = -1 matrix C factors as C = A * (i I) with A = C * (-i I) of
    det +1, and its image is minus the rotation of A.  Times -i an entry
    x + y i of C becomes y - x i, so the image is the rotation formula of
    :func:`covering_map` on the first row of C so rewritten, with its nine
    numerators negated; no factor A is built.  The image determinant
    matches the input determinant and the kernel stays {I, -I}.
    """
    if type(matrix) is not UnitaryMat2:
        raise TypeError(f"extended_covering_map takes a UnitaryMat2, not {type(matrix).__name__}")
    return _signed_image(matrix, 1, 1, 1)


def _signed_image(matrix: UnitaryMat2, s0: int, s1: int, s2: int) -> OrthogonalMat3:
    """``extended_covering_map(matrix)`` times diag(s0, s1, s2), in one step."""
    a, b, c, e, *_, d = matrix._key
    if matrix.is_special():
        return _rotation(a, b, c, e, d, s0, s1, s2)
    return _rotation(b, -a, e, -c, d, -s0, -s1, -s2)


def su2_trace(matrix: UnitaryMat2) -> tuple[int, int]:
    """(n, d) with tr A = n/d, for ``matrix`` = A or A * (i I), A in SU(2)."""
    # tr A = 2 Re z for A's first row (z, w).  For det -1, A = matrix * (-i I)
    # as in extended_covering_map: z is the first entry times -i, and Re z
    # is that entry's imaginary part.
    a, b, *_, d = matrix._key
    return (2 * a if matrix.is_special() else 2 * b), d


def _rotation(a: int, b: int, c: int, e: int, d: int, s0: int, s1: int, s2: int) -> OrthogonalMat3:
    """The rotation of ((z, w), (-conj w, conj z)) for z = (a + b i)/d and
    w = (c + e i)/d, times the signed diagonal diag(s0, s1, s2): its nine
    numerators over d^2, column j times the sign s_j, in lowest terms."""
    # Orthogonality with det +1 is automatic for unit (z, w); the invariant
    # suites recheck it sample by sample via is_orthogonal().
    z2_re, w2_re, z2_im, w2_im = a * a - b * b, c * c - e * e, 2 * a * b, 2 * c * e
    return OrthogonalMat3._from_key(lowest_terms((
        s0 * (z2_re - w2_re), s1 * (z2_im + w2_im), -2 * s2 * (a * c - b * e),
        s0 * (w2_im - z2_im), s1 * (z2_re + w2_re), 2 * s2 * (a * e + b * c),
        2 * s0 * (a * c + b * e), 2 * s1 * (b * c - a * e), s2 * (a * a + b * b - c * c - e * e),
        d * d,
    )))


_MINUS_SECTION = -PAULI_Z


def determinant_section(sign: int) -> UnitaryMat2:
    """The homomorphic right inverse of det: +1 -> I, -1 -> diag(-1, 1).

    diag(1, -1) would serve equally well; the single fixed choice keeps the
    twisted-pair form of the extension canonical.
    """
    return IDENTITY2 if as_sign(sign) == 1 else _MINUS_SECTION


#: A rational number as an integer pair (n, d), d > 0, in any terms.
Ratio = tuple[int, int]


def _stereographic(ratios: Sequence[Ratio]) -> tuple[int, int, int, int, int]:
    """(D^2 - S, 2XD, 2YD, 2ZD, D^2 + S) for the ratios x = X/D, y = Y/D and
    z = Z/D over the lcm D of their denominators, with S = X^2 + Y^2 + Z^2.
    For ratios not in lowest terms D, and so the result, may carry a common
    factor; both callers divide it out."""
    (x, p), (y, q), (z, r) = ratios
    d = lcm(p, q, r)
    big_x, big_y, big_z = x * (d // p), y * (d // q), z * (d // r)
    d_sq, s = d * d, big_x * big_x + big_y * big_y + big_z * big_z
    return d_sq - s, 2 * big_x * d, 2 * big_y * d, 2 * big_z * d, d_sq + s


def rational_unit_quaternion(x: Fraction, y: Fraction, z: Fraction) -> Quaternion:
    """Map a rational 3-vector to a rational point (a, b, c, d) of the unit 3-sphere.

    Inverse stereographic projection: with s = x^2 + y^2 + z^2 the image is
    ((1-s)/(1+s), 2x/(1+s), 2y/(1+s), 2z/(1+s)).  Every rational input gives
    an exactly unit quaternion; only (-1, 0, 0, 0) is unreachable.

    Computed in integers: over a common denominator D, x = X/D, y = Y/D and
    z = Z/D, the image is (D^2 - S, 2XD, 2YD, 2ZD) / (D^2 + S) with
    S = X^2 + Y^2 + Z^2.
    """
    ratios = [(v.numerator, v.denominator) for v in map(as_rational, (x, y, z))]
    a, b, c, e, n = _stereographic(ratios)
    return (Fraction(a, n), Fraction(b, n), Fraction(c, n), Fraction(e, n))


def stereographic_su2(x: Ratio, y: Ratio, z: Ratio) -> UnitaryMat2:
    """``quaternion_to_su2(rational_unit_quaternion(x, y, z))`` for x, y and
    z given as (n, d) pairs in any terms, so no ``Fraction`` is built, with
    the matrix key written straight from the integer numerators: with
    z = (a + b i)/n and w = (c + e i)/n it is ((z, w), (-conj w, conj z)).
    The unitarity check still runs on the key."""
    a, b, c, e, n = _stereographic((x, y, z))
    # Reduced before the key repeats them, so the key's two copies of a
    # and of e are one int each, as in a key built from reduced ratios.
    g = gcd(a, b, c, e, n)
    if g != 1:
        a, b, c, e, n = a // g, b // g, c // g, e // g, n // g
    key = (a, b, c, e, -c, e, a, -b, n)
    _check_unitary(key)
    return UnitaryMat2._from_key(key)


def quaternion_to_su2(q: Quaternion) -> UnitaryMat2:
    """Identify a unit quaternion (a, b, c, d) with the det = +1 matrix
    built from z = a + b i and w = c + d i; the matrix's unitarity check
    raises ValueError unless |z|^2 + |w|^2 = 1."""
    a, b, c, d = q
    return su2_from_zw(GaussianRational(a, b), GaussianRational(c, d))
