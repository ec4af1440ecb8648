"""Exact complex scalars over the Gaussian rationals.

Every matrix entry in the matrix layers of this package is a
:class:`GaussianRational`, a complex number (a + b i)/d stored as three
Python ints with d > 0 and gcd(a, b, d) = 1.  That canonical triple is the
only representation of its value, so a sum or a product is integer
arithmetic plus one gcd, and equality and hashing compare the triple.
``re``, ``im`` and ``norm_sq()`` return :class:`fractions.Fraction`
values; the text grammar below is read into and written from the ints.

A caller's number enters the exact layer only through :func:`as_rational`,
which takes ints and Fractions and refuses everything else, and a
:class:`GaussianRational` combines and compares only with another
:class:`GaussianRational`.  All arithmetic is exact; no float value is
ever involved.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from typing import Union

_RationalLike = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")
# \s in a str pattern matches exactly the characters for which str.isspace()
# is true.
_SPACE_RE = re.compile(r"\s")


class ScalarParseError(ValueError):
    """Raised when a scalar string is not in the wire grammar."""


class ScalarDigitsError(ScalarParseError):
    """Raised when a scalar in the input has more digits than Python reads
    into an int (``sys.get_int_max_str_digits()``, 4300 by default)."""


class ScalarSizeError(ValueError):
    """Raised when a scalar has more digits than Python converts to text
    (``sys.get_int_max_str_digits()``, 4300 by default)."""


def as_rational(value: _RationalLike) -> Fraction:
    """The one way a caller's number enters the exact layer: an int (not a
    bool) or a Fraction.  Anything else, a float or a str too, is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"exact scalars take int or Fraction values, not {type(value).__name__}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Immutable and hashable.  Field operations are exact: associativity,
    distributivity and inverses hold by exact equality.
    """

    __slots__ = ("_abd",)

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0) -> None:
        re, im = as_rational(re), as_rational(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        # re and im are in lowest terms, so gcd(a, b, d) = 1 already.
        _set_abd(self, (re.numerator * (d // p), im.numerator * (d // q), d))

    def as_integer_triple(self) -> tuple[int, int, int]:
        """(a, b, d) with self = (a + b i)/d, d > 0 and gcd(a, b, d) = 1."""
        return self._abd

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __mul__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    def __truediv__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self * other.inverse()

    def __neg__(self) -> "GaussianRational":
        a, b, d = self._abd
        return _canonical(-a, -b, d)

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._abd
        return _canonical(a, -b, d)

    def inverse(self) -> "GaussianRational":
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        a, b, d = self._abd
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return _reduced(d * a, -d * b, n)

    def norm_sq(self) -> Fraction:
        """Exact squared modulus re^2 + im^2, a nonnegative rational."""
        a, b, d = self._abd
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return self._abd[0] == 0 and self._abd[1] == 0

    # -- comparison and hashing -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._abd == other._abd

    def __hash__(self) -> int:
        return hash(self._abd)

    def sort_key(self) -> tuple:
        return (self.re, self.im)

    # -- conversion ------------------------------------------------------

    def __str__(self) -> str:
        return format_complex(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_abd = GaussianRational._abd.__set__


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b i)/d of a triple already in canonical form."""
    z = object.__new__(GaussianRational)
    _set_abd(z, (a, b, d))
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b i)/d for any d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        return _canonical(a // g, b // g, d // g)
    return _canonical(a, b, d)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


# -- text grammar ---------------------------------------------------------
#
# Rationals:   p/q with the /q omitted when q = 1, e.g. "3/5", "-2", "0".
# Complex:     a+bi / a-bi, compressed: "0", "3/5", "i", "-i", "2i",
#              "1+i", "1-2/3i".  Printing always emits the reduced
#              canonical form.  The parser also accepts a leading "+",
#              leading zeros, unreduced fractions and zero coefficients
#              ("2/4", "+0i", "1+0i"), but no whitespace inside a scalar.


def parse_ratio(text: str) -> tuple[int, int]:
    """(n, d) with d > 0 for a rational scalar in the grammar, unreduced."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ScalarParseError(f"not a rational scalar: {text!r}")
    numerator, _, denominator = s.partition("/")
    try:
        n, d = int(numerator), int(denominator or 1)
    except ValueError:  # more digits than int() reads
        raise ScalarDigitsError(
            f"rational scalar has more than {sys.get_int_max_str_digits()} digits, "
            "the most Python reads"
        ) from None
    if d == 0:
        raise ScalarParseError(f"zero denominator in rational scalar: {text!r}")
    return n, d


def parse_rational(text: str) -> Fraction:
    return Fraction(*parse_ratio(text))


def format_ratio(n: int, d: int) -> str:
    """Canonical text of n/d for d > 0."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # more digits than str() writes
        raise ScalarSizeError(
            f"a scalar has more than {sys.get_int_max_str_digits()} digits, the most Python prints"
        ) from None


def format_rational(value: Fraction) -> str:
    value = as_rational(value)
    return format_ratio(value.numerator, value.denominator)


def _parse_imag_coefficient(token: str) -> tuple[int, int]:
    if token in ("", "+"):
        return 1, 1
    if token == "-":
        return -1, 1
    return parse_ratio(token)


def parse_complex(text: str) -> GaussianRational:
    """Parse ``a+bi`` / ``a-bi`` and its compressed forms."""
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar")
    if _SPACE_RE.search(s):
        raise ScalarParseError(f"not a complex scalar: {text!r}")
    if not s.endswith("i"):
        n, d = parse_ratio(s)
        return _reduced(n, 0, d)
    body = s[:-1]
    split = 0
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            split = k
            break
    re_token, im_token = body[:split], body[split:]
    try:
        im_n, im_d = _parse_imag_coefficient(im_token)
        re_n, re_d = parse_ratio(re_token) if re_token else (0, 1)
    except ScalarDigitsError:
        raise
    except ScalarParseError:
        raise ScalarParseError(f"not a complex scalar: {text!r}") from None
    return _reduced(re_n * im_d, im_n * re_d, re_d * im_d)


def _imag_text(b: int, d: int) -> str:
    """The imaginary term of b/d i, signed, with a unit coefficient omitted."""
    coefficient = format_ratio(b, d)
    if coefficient in ("1", "-1"):
        return coefficient[:-1] + "i"
    return coefficient + "i"


def format_complex(value: GaussianRational) -> str:
    a, b, d = value._abd
    if b == 0:
        return format_ratio(a, d)
    if a == 0:
        return _imag_text(b, d)
    return format_ratio(a, d) + ("+" if b > 0 else "") + _imag_text(b, d)
