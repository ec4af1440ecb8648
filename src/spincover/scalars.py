"""Exact values as canonical integer keys, and the Gaussian rationals.

Every exact value in this package (a scalar, a matrix, a sample event, a
sample field) is an :class:`ExactKey`: one canonical key, the only
representation of its value, so equality and hashing compare it and copy
and pickle rebuild from it.  For a scalar, a matrix or an event the key is
one tuple of Python ints holding its numerators and then one positive
denominator, in lowest terms (gcd 1), so arithmetic is integer work plus
one gcd; :func:`lowest_terms` and :func:`common_key` are the one place
that form is made.  For a sample field the key is one dict, in event
order, from event keys to value keys.  The package's other values, such
as a symmetry (U, a) or a spinor value (u, v), are each a :class:`Record`
of named fields, compared, hashed, copied and pickled by those fields.
Both kinds are :class:`Immutable`.

A :class:`GaussianRational` is the key (a, b, d) of (a + b i)/d.  ``re``,
``im`` and ``norm_sq()`` return :class:`fractions.Fraction` values; the
text grammar below is read into and written from the ints by the scalar
parsers, which the field reader of :mod:`spincover.ptgroup` calls too.

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
from typing import Callable, Sequence, Union

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


class Immutable:
    """A value whose attributes are set once, by its constructor through
    the slot descriptors or ``object.__setattr__``: setting or deleting
    any attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Immutable):
    """An immutable record whose fields are the names in its ``__slots__``.

    A subclass lists its fields in constructor order; this constructor sets
    them by position, then by name, and a missing field, an unknown name or
    a value too many is a TypeError.  A subclass writes its own ``__init__``
    only to check, convert or default its arguments, or as a fast path that
    a profile of ``verify`` pays for.  Records are equal when they have one
    type and equal fields, and hash by their fields; against any other type
    ``==`` is NotImplemented, so a record never equals a tuple.  The repr is
    a keyword constructor call, and copy, deepcopy and pickle call the
    constructor on the fields.
    """

    __slots__ = ()

    def __init__(self, *values: object, **named: object) -> None:
        fields = self.__slots__
        if len(values) > len(fields) or named.keys() != set(fields[len(values):]):
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)}), by position or by name")
        for name, value in (*zip(fields, values), *named.items()):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return (type(self), self._fields())


class ExactKey(Immutable):
    """An immutable exact value stored as one canonical key.

    Equal values have equal keys: ``==`` and ``hash`` compare ``_key``,
    and copy and pickle rebuild from it.  A scalar, matrix or event key
    holds the numerators, then one positive denominator, with gcd 1; a
    sample field's key is its dict, in event order, from event keys to
    value keys, and the field sets ``__hash__`` to None.  A subclass gives
    the key its meaning, and its constructor checks a caller's value and
    passes the key on to this one.
    """

    __slots__ = ("_key",)

    def __init__(self, key: tuple[int, ...] | dict) -> None:
        _set_key(self, key)

    @classmethod
    def _from_key(cls, key: tuple[int, ...] | dict):
        """The value of a key already canonical: a tuple in lowest terms
        with d > 0, or a field's dict already in event order."""
        value = object.__new__(cls)
        _set_key(value, key)
        return value

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
    return key if g == 1 else tuple([n // g for n in key])


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
#              canonical form: each nonzero part over its own denominator
#              in lowest terms, the imaginary one with a unit coefficient
#              written as its sign alone.  The parser also accepts a
#              leading "+", leading zeros, unreduced fractions and zero
#              coefficients ("2/4", "+0i", "1+0i"), but no whitespace
#              inside a scalar, and ASCII digits only.
#
# _RATIO_PATTERN captures a numerator and a denominator (absent when it is
# 1).  The complex pattern, which the lookahead keeps from being empty,
# captures a real part (absent in "2i"), which nothing but a signed
# imaginary part may follow, then the imaginary part's sign (absent when
# there is no imaginary part), numerator (absent in "i" and "-i", where it
# is 1) and denominator: the five captures parse_complex_key converts to
# ints, each on its own, and joins over one denominator.
_RATIO_PATTERN = r"([+-]?[0-9]+)(?:/([0-9]+))?"
_IMAGINARY_PATTERN = r"([+-]?)(?:([0-9]+)(?:/([0-9]+))?)?i"
_RATIO_RE = re.compile(_RATIO_PATTERN)
_COMPLEX_RE = re.compile(rf"(?=[-+0-9i])(?:{_RATIO_PATTERN}(?![0-9/i]))?(?:{_IMAGINARY_PATTERN})?")
_DIGITS_MESSAGE = "rational scalar has more than {} digits, the most Python reads"
_SIZE_MESSAGE = "a scalar has more than {} digits, the most Python prints"
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
        raise ScalarSizeError(_SIZE_MESSAGE.format(sys.get_int_max_str_digits())) from None


def format_rational(value: Fraction) -> str:
    value = as_rational(value)
    return format_ratio(value.numerator, value.denominator)


def parse_complex_key(text: str) -> tuple[int, int, int]:
    """The key (a, b, d) of a complex scalar in the grammar: the key-level
    half of :func:`parse_complex`, with the same refusals.

    The imaginary part is read first, and in each part the digits before
    the denominator's check: that order decides which fault a token with
    two reports.
    """
    m = _COMPLEX_RE.fullmatch(text.strip())
    if m is not None:
        re_n, re_d, im_sign, im_n, im_d = m.groups()
        try:
            if im_sign is None:
                b, e = 0, 1
            else:
                b = 1 if im_n is None else int(im_n)
                e = 1 if im_d is None else int(im_d)
                if im_sign == "-":
                    b = -b
            if e != 0:
                a = 0 if re_n is None else int(re_n)
                f = 1 if re_d is None else int(re_d)
                if f != 0:
                    a, b, d = a * e, b * f, f * e
                    g = gcd(a, b, d)
                    return (a // g, b // g, d // g)
        except ValueError:  # more digits than int() reads
            raise ScalarDigitsError(_DIGITS_MESSAGE.format(sys.get_int_max_str_digits())) from None
    raise ScalarParseError(f"not a complex scalar: {echo(text)}")


def parse_complex(text: str) -> GaussianRational:
    """Parse ``a+bi`` / ``a-bi`` and its compressed forms, rationals included.

    A well-formed token with more digits than ``int()`` reads raises
    :class:`ScalarDigitsError`; any other token that is not a complex
    scalar, a zero denominator too, raises ``not a complex scalar: ...``.
    """
    return GaussianRational._from_key(parse_complex_key(text))


def format_complex(value: GaussianRational) -> str:
    return format_complex_key(*value._key)


def format_complex_key(a: int, b: int, d: int) -> str:
    """Canonical text of (a + b i)/d for d > 0, written straight from the
    ints: each part reduced by its own gcd with d."""
    if b == 0:
        return format_ratio(a, d)
    g = gcd(b, d)
    n, m = b // g, d // g
    try:
        if m != 1:
            imag = f"{n}/{m}i"
        elif n == 1:
            imag = "i"
        elif n == -1:
            imag = "-i"
        else:
            imag = f"{n}i"
        if a == 0:
            return imag
        g = gcd(a, d)
        a, d = a // g, d // g
        real = f"{a}" if d == 1 else f"{a}/{d}"
    except ValueError:  # more digits than str() writes
        raise ScalarSizeError(_SIZE_MESSAGE.format(sys.get_int_max_str_digits())) from None
    return f"{real}+{imag}" if b > 0 else real + imag
