"""Exact values as canonical integer keys, and the Gaussian rationals.

Every exact value in this package (a scalar, a matrix, a sample event) is
an :class:`ExactKey`: one tuple of Python ints holding its numerators and
then one positive denominator, in lowest terms (gcd 1).  That key is the
only representation of its value, so equality and hashing compare it, copy
and pickle rebuild from it, and arithmetic is integer work plus one gcd.
:func:`lowest_terms` and :func:`common_key` are the one place the form is
made.

A :class:`GaussianRational` is the key (a, b, d) of (a + b i)/d.  ``re``,
``im`` and ``norm_sq()`` return :class:`fractions.Fraction` values; the
text grammar below, defined once for the scalar parsers and the field
lines of :mod:`spincover.ptgroup`, is read into and written from the ints.

A caller's number enters the exact layer only through :func:`as_rational`,
which takes ints and Fractions and refuses everything else, and a
:class:`GaussianRational` combines and compares only with another
:class:`GaussianRational`.  A sign enters only through :func:`as_sign`.
All arithmetic is exact; no float value is ever involved.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Sequence, Union

_RationalLike = Union[int, Fraction]


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


def as_sign(value: int, name: str = "sign") -> int:
    """The one check of a sign: the int 1 or -1.  Any other type, a bool
    or a float too, is a TypeError; any other int is a ValueError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be the int 1 or -1, not {type(value).__name__}")
    if value != 1 and value != -1:
        raise ValueError(f"{name} must be +1 or -1, got {value}")
    return value


class ExactKey:
    """An immutable exact value stored as one canonical integer key.

    ``_key`` holds the numerators, then one positive denominator, with gcd
    1, so equal values have equal keys: ``==`` and ``hash`` compare the key
    and copy and pickle rebuild from it.  A subclass gives the numerators
    their meaning, and its constructor checks a caller's value and passes
    the key on to this one.
    """

    __slots__ = ("_key",)

    def __init__(self, key: tuple[int, ...]) -> None:
        _set_key(self, key)

    @classmethod
    def _from_key(cls, key: tuple[int, ...]):
        """The value of a key already in lowest terms with d > 0."""
        value = object.__new__(cls)
        _set_key(value, key)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self) -> tuple:
        return (type(self)._from_key, (self._key,))


_set_key = ExactKey._key.__set__


def lowest_terms(key: tuple[int, ...]) -> tuple[int, ...]:
    """A key (numerators, then d > 0) in any terms, divided by its gcd."""
    g = gcd(*key)
    return key if g == 1 else tuple(n // g for n in key)


def common_key(ratios: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The key of the ratios n/d, d > 0 and in any terms, over their least
    common denominator."""
    d = lcm(*[q for _, q in ratios])
    return lowest_terms((*[n * (d // q) for n, q in ratios], d))


class GaussianRational(ExactKey):
    """A complex number with exact rational real and imaginary parts.

    Immutable and hashable.  Field operations are exact: associativity,
    distributivity and inverses hold by exact equality.
    """

    __slots__ = ()

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0) -> None:
        re, im = as_rational(re), as_rational(im)
        super().__init__(common_key([(re.numerator, re.denominator), (im.numerator, im.denominator)]))

    def as_integer_triple(self) -> tuple[int, int, int]:
        """(a, b, d) with self = (a + b i)/d, d > 0 and gcd(a, b, d) = 1."""
        return self._key

    @property
    def re(self) -> Fraction:
        a, _, d = self._key
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._key
        return Fraction(b, d)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        a, b, d = self._key
        c, e, f = other._key
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        a, b, d = self._key
        c, e, f = other._key
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __mul__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        a, b, d = self._key
        c, e, f = other._key
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    def __truediv__(self, other: object) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self * other.inverse()

    def __neg__(self) -> "GaussianRational":
        a, b, d = self._key
        return GaussianRational._from_key((-a, -b, d))

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._key
        return GaussianRational._from_key((a, -b, d))

    def inverse(self) -> "GaussianRational":
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        a, b, d = self._key
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return _reduced(d * a, -d * b, n)

    def norm_sq(self) -> Fraction:
        """Exact squared modulus re^2 + im^2, a nonnegative rational."""
        a, b, d = self._key
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return self._key[0] == 0 and self._key[1] == 0

    # Named in this class too, so perfbench/tracer.py can wrap them by name.
    __eq__ = ExactKey.__eq__
    __hash__ = ExactKey.__hash__

    # -- conversion ------------------------------------------------------

    def __str__(self) -> str:
        return format_complex(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b i)/d for any d > 0: :func:`lowest_terms` for three
    ints, without building a generic key."""
    g = gcd(a, b, d)
    if g != 1:
        return GaussianRational._from_key((a // g, b // g, d // g))
    return GaussianRational._from_key((a, b, d))


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
#              ("2/4", "+0i", "1+0i"), but no whitespace inside a scalar,
#              and ASCII digits only.
#
# RATIO_PATTERN captures a numerator and a denominator (absent when it is
# 1).  COMPLEX_PATTERN, which the lookahead keeps from being empty, captures
# a real part (absent in "2i"), which nothing but a signed imaginary part
# may follow, then the imaginary part's sign (absent when there is no
# imaginary part), numerator (absent in "i" and "-i") and denominator: the
# five arguments of complex_key.
RATIO_PATTERN = r"([+-]?[0-9]+)(?:/([0-9]+))?"
_IMAGINARY_PATTERN = r"([+-]?)(?:([0-9]+)(?:/([0-9]+))?)?i"
COMPLEX_PATTERN = rf"(?=[-+0-9i])(?:{RATIO_PATTERN}(?![0-9/i]))?(?:{_IMAGINARY_PATTERN})?"
_RATIO_RE = re.compile(RATIO_PATTERN)
_COMPLEX_RE = re.compile(COMPLEX_PATTERN)
_DIGITS_MESSAGE = "rational scalar has more than {} digits, the most Python reads"
_ECHO_LIMIT = 40


def echo(text: str, show: Callable[[str], str] = repr) -> str:
    """A rejected token for an error message, as ``show`` prints it (its
    repr by default): the whole token up to 40 characters, else its first
    40 and its length, so that a huge number does not make a huge message."""
    if len(text) <= _ECHO_LIMIT:
        return show(text)
    return f"{show(text[:_ECHO_LIMIT])}... ({len(text)} characters)"


def parse_ratio(text: str) -> tuple[int, int]:
    """(n, d) with d > 0 for a rational scalar in the grammar, unreduced."""
    m = _RATIO_RE.fullmatch(text.strip())
    if m is None:
        raise ScalarParseError(f"not a rational scalar: {echo(text)}")
    try:
        n, d = int(m[1]), int(m[2] or 1)
    except ValueError:  # more digits than int() reads
        raise ScalarDigitsError(_DIGITS_MESSAGE.format(sys.get_int_max_str_digits())) from None
    if d == 0:
        raise ScalarParseError(f"zero denominator in rational scalar: {echo(text)}")
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


def complex_key(
    re_n: Optional[str], re_d: Optional[str], im_sign: Optional[str], im_n: Optional[str], im_d: Optional[str]
) -> tuple[int, int, int]:
    """The key (a, b, d) of the captures of :data:`COMPLEX_PATTERN`.

    ``int()`` raises ValueError on more digits than it reads, and a zero
    denominator raises ZeroDivisionError.  The imaginary part is read
    first, and in each part the digits before the denominator's check:
    that order decides which fault :func:`parse_complex` reports in a
    token with two.
    """
    b, e = (0, 1) if im_sign is None else (int(im_sign + (im_n or "1")), int(im_d or 1))
    if e == 0:
        raise ZeroDivisionError("zero denominator")
    a, f = int(re_n or 0), int(re_d or 1)
    if f == 0:
        raise ZeroDivisionError("zero denominator")
    return lowest_terms((a * e, b * f, f * e))


def parse_complex(text: str) -> GaussianRational:
    """Parse ``a+bi`` / ``a-bi`` and its compressed forms, rationals included.

    A well-formed token with more digits than ``int()`` reads raises
    :class:`ScalarDigitsError`; any other token that is not a complex
    scalar, a zero denominator too, raises ``not a complex scalar: ...``.
    """
    m = _COMPLEX_RE.fullmatch(text.strip())
    if m is not None:
        try:
            return GaussianRational._from_key(complex_key(*m.groups()))
        except ValueError:  # more digits than int() reads
            raise ScalarDigitsError(_DIGITS_MESSAGE.format(sys.get_int_max_str_digits())) from None
        except ZeroDivisionError:
            pass
    raise ScalarParseError(f"not a complex scalar: {echo(text)}")


def _imag_text(b: int, d: int) -> str:
    """The imaginary term of b/d i, signed, with a unit coefficient omitted."""
    coefficient = format_ratio(b, d)
    if coefficient in ("1", "-1"):
        return coefficient[:-1] + "i"
    return coefficient + "i"


def format_complex(value: GaussianRational) -> str:
    return format_complex_key(*value._key)


def format_complex_key(a: int, b: int, d: int) -> str:
    """Canonical text of (a + b i)/d for d > 0, written straight from the ints."""
    if b == 0:
        return format_ratio(a, d)
    if a == 0:
        return _imag_text(b, d)
    return format_ratio(a, d) + ("+" if b > 0 else "") + _imag_text(b, d)
