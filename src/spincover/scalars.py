"""Exact complex scalars over the Gaussian rationals.

Every matrix entry in the matrix layers of this package is a
:class:`GaussianRational`: a complex number whose real and imaginary parts
are arbitrary-precision rationals.  A caller's number enters the exact
layer only through :func:`as_rational`, which takes ints and Fractions and
refuses everything else, and a :class:`GaussianRational` combines and
compares only with another :class:`GaussianRational`.  All arithmetic is
exact and equality is structural; no float value is ever involved.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

_RationalLike = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


class ScalarParseError(ValueError):
    """Raised when a scalar string is not in the wire grammar."""


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

    __slots__ = ("_re", "_im")

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0) -> None:
        object.__setattr__(self, "_re", as_rational(re))
        object.__setattr__(self, "_im", as_rational(im))

    @classmethod
    def _wrap(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # Internal fast path: components are already Fraction instances.
        self = object.__new__(cls)
        object.__setattr__(self, "_re", re)
        object.__setattr__(self, "_im", im)
        return self

    @property
    def re(self) -> Fraction:
        return self._re

    @property
    def im(self) -> Fraction:
        return self._im

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational._wrap(self._re + other._re, self._im + other._im)

    def __sub__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational._wrap(self._re - other._re, self._im - other._im)

    def __mul__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational._wrap(
            self._re * other._re - self._im * other._im,
            self._re * other._im + self._im * other._re,
        )

    def __truediv__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self * other.inverse()

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._wrap(-self._re, -self._im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._wrap(self._re, -self._im)

    def inverse(self) -> "GaussianRational":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return GaussianRational._wrap(self._re / n, -self._im / n)

    def norm_sq(self) -> Fraction:
        """Exact squared modulus re^2 + im^2, a nonnegative rational."""
        return self._re * self._re + self._im * self._im

    def is_zero(self) -> bool:
        return self._re == 0 and self._im == 0

    # -- comparison and hashing -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        return hash((self._re, self._im))

    def sort_key(self) -> tuple:
        return (self._re, self._im)

    # -- conversion ------------------------------------------------------

    def __str__(self) -> str:
        return format_complex(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self._re!r}, {self._im!r})"


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


def parse_rational(text: str) -> Fraction:
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ScalarParseError(f"not a rational scalar: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in rational scalar: {text!r}") from None


def format_rational(value: Fraction) -> str:
    return str(as_rational(value))


def _parse_imag_coefficient(token: str) -> Fraction:
    if token in ("", "+"):
        return Fraction(1)
    if token == "-":
        return Fraction(-1)
    return parse_rational(token)


def parse_complex(text: str) -> GaussianRational:
    """Parse ``a+bi`` / ``a-bi`` and its compressed forms."""
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar")
    if any(c.isspace() for c in s):
        raise ScalarParseError(f"not a complex scalar: {text!r}")
    if not s.endswith("i"):
        return GaussianRational(parse_rational(s), 0)
    body = s[:-1]
    split = 0
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            split = k
            break
    re_token, im_token = body[:split], body[split:]
    try:
        im_part = _parse_imag_coefficient(im_token)
        re_part = parse_rational(re_token) if re_token else Fraction(0)
    except ScalarParseError:
        raise ScalarParseError(f"not a complex scalar: {text!r}") from None
    return GaussianRational(re_part, im_part)


def _imag_str(coefficient: Fraction) -> str:
    if coefficient == 1:
        return "i"
    if coefficient == -1:
        return "-i"
    return f"{coefficient}i"


def format_complex(value: GaussianRational) -> str:
    if value.im == 0:
        return format_rational(value.re)
    if value.re == 0:
        return _imag_str(value.im)
    sign = "+" if value.im > 0 else "-"
    magnitude = abs(value.im)
    tail = "i" if magnitude == 1 else f"{magnitude}i"
    return f"{value.re}{sign}{tail}"

