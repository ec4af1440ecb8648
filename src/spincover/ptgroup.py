"""Parity and time reversal acting on spin-1/2 sample fields.

The symmetry elements here are pairs (C, a): a det = +/-1 unitary matrix C
together with a time sign a in {+1, -1}, multiplying componentwise.  The
group is a double cover of the spacetime symmetries (O(3) x time flip);
:func:`spacetime_projection` is the two-to-one projection, normalised so
that the canonical time-reversal pair projects to a pure time flip with no
spatial rotation.

Spinor fields are finite exact sample maps from events (t, x) to
two-component Gaussian-rational values.  An :class:`Event` is an
:class:`~spincover.scalars.ExactKey` of four integer numerators (t, x1, x2,
x3) over one denominator.  A :class:`SpinorSampleField` stores one dict, in
event order, from each event key (those five ints) to a value key (the
keys (a, b, d) of the two components joined into six ints).  Parsing,
sorting, the four actions and printing work on these int tuples and build
no :class:`Event` or :class:`SpinorValue` per sample; the objects are built
only at the library surface.  A field line (ending only at a line feed)
is read by one match of a pattern built from the scalar patterns of
:mod:`spincover.scalars`; the per-token parser, through the scalar
parsers, reads only the lines that pattern rejects and says why.  Time
signs are checked by :func:`~spincover.scalars.as_sign`.  The four actions
(rotation, time reversal, parity, parity-time) rebind arguments literally
and, in the antiunitary sectors, conjugate values by negating their
imaginary numerators inside the matrix product, so every transformation
law is checked by exact equality on the sampled events.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import lcm
from typing import Mapping, Optional

from .cover import (
    HALF_TURN_Y,
    IDENTITY2,
    OrthogonalMat3,
    UnitaryMat2,
    covering_map,
    extended_covering_map,
    parity_operator,
)
from .scalars import (
    COMPLEX_PATTERN,
    ONE,
    RATIO_PATTERN,
    ZERO,
    ExactKey,
    GaussianRational,
    ScalarParseError,
    as_rational,
    as_sign,
    common_key,
    complex_key,
    echo,
    format_complex,
    format_complex_key,
    format_ratio,
    lowest_terms,
    parse_complex,
    parse_ratio,
)


def time_reversal_operator() -> UnitaryMat2:
    """The unitary part of time reversal: ((0, -1), (1, 0)), det +1.

    It squares to -I, and the full time-reversal action pairs it with
    entrywise conjugation of the field values.
    """
    return UnitaryMat2([[ZERO, -ONE], [ONE, ZERO]])


@dataclass(frozen=True)
class SpinorSymmetry:
    """A double-cover element: (matrix, time sign), componentwise product."""

    matrix: UnitaryMat2
    time_sign: int

    def __post_init__(self) -> None:
        as_sign(self.time_sign, "time sign")

    def __mul__(self, other: "SpinorSymmetry") -> "SpinorSymmetry":
        return SpinorSymmetry(self.matrix * other.matrix, self.time_sign * other.time_sign)

    @classmethod
    def identity(cls) -> "SpinorSymmetry":
        return cls(IDENTITY2, 1)

    @classmethod
    def parity(cls) -> "SpinorSymmetry":
        return cls(parity_operator(), 1)

    @classmethod
    def time_reversal(cls) -> "SpinorSymmetry":
        return cls(time_reversal_operator(), -1)

    @classmethod
    def parity_time(cls) -> "SpinorSymmetry":
        """The transformation that reverses both space and time.

        This is (parity matrix, -1): the improper antiunitary sector enters
        the time-reversal matrix through the action itself, so the values
        are multiplied by parity*time-reversal and conjugated while both
        arguments flip.  The bare group product of :meth:`parity` and
        :meth:`time_reversal` is a different element (its matrix already
        contains the time-reversal factor) and is obtained by multiplying
        them.
        """
        return cls(parity_operator(), -1)

    def to_text(self) -> str:
        return f"{self.matrix.to_text()} @ {self.time_sign:+d}"


@dataclass(frozen=True)
class SpacetimeSymmetry:
    """A spatial orthogonal matrix together with a time sign.

    Composition carries an inner twist: a time-reversing left factor
    conjugates the right factor's spatial part by the fixed half turn about
    the y axis.  This is the group law transported through the double-cover
    projection (the unique one making that projection multiplicative on
    every pair); it reduces to the componentwise product whenever the
    spatial parts involved commute with the half turn, in particular on all
    products of pure inversions, pure time flips and y-axis half turns.
    """

    spatial: OrthogonalMat3
    time_sign: int

    def __post_init__(self) -> None:
        as_sign(self.time_sign, "time sign")

    def __mul__(self, other: "SpacetimeSymmetry") -> "SpacetimeSymmetry":
        rhs_spatial = other.spatial
        if self.time_sign == -1:
            rhs_spatial = HALF_TURN_Y * rhs_spatial * HALF_TURN_Y
        return SpacetimeSymmetry(self.spatial * rhs_spatial, self.time_sign * other.time_sign)

    def to_text(self) -> str:
        return f"{self.spatial.to_text()} @ {self.time_sign:+d}"

    def to_json(self) -> dict:
        return {"spatial": self.spatial.to_text(), "time_sign": self.time_sign}


def spacetime_projection(g: SpinorSymmetry) -> SpacetimeSymmetry:
    """Project a double-cover element to its spacetime symmetry, two-to-one.

    The spatial part is the extended covering image of the matrix; when the
    time sign is -1 it is multiplied by the half turn about y, so that the
    canonical time-reversal pair maps to (identity, -1) and the canonical
    parity-time pair maps to (-identity, -1).  The kernel is
    {(I, +1), (-I, +1)}.
    """
    spatial = extended_covering_map(g.matrix)
    if g.time_sign == -1:
        spatial = spatial * HALF_TURN_Y
    return SpacetimeSymmetry(spatial, g.time_sign)


# -- spinor values and sample fields ---------------------------------------


@dataclass(frozen=True)
class SpinorValue:
    """A two-component complex value (u, v)."""

    u: GaussianRational
    v: GaussianRational

    def __post_init__(self) -> None:
        if not (isinstance(self.u, GaussianRational) and isinstance(self.v, GaussianRational)):
            raise TypeError("SpinorValue takes two GaussianRational components")

    def conjugate(self) -> "SpinorValue":
        return SpinorValue(self.u.conjugate(), self.v.conjugate())

    def __neg__(self) -> "SpinorValue":
        return SpinorValue(-self.u, -self.v)

    def scale(self, factor: GaussianRational) -> "SpinorValue":
        return SpinorValue(factor * self.u, factor * self.v)

    def norm_sq(self) -> Fraction:
        return self.u.norm_sq() + self.v.norm_sq()

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def to_text(self) -> str:
        return f"{format_complex(self.u)}; {format_complex(self.v)}"


def transform_value(matrix: UnitaryMat2, value: SpinorValue) -> SpinorValue:
    u, v = matrix.apply(value.u, value.v)
    return SpinorValue(u, v)


def inner_product(a: SpinorValue, b: SpinorValue) -> GaussianRational:
    return a.u.conjugate() * b.u + a.v.conjugate() * b.v


@total_ordering
class Event(ExactKey):
    """A sample point (t, x), ordered by value: by t, then by x.

    Stored as four integer numerators (t, x1, x2, x3) over one positive
    denominator, with gcd 1, so equal events have equal storage: ``==`` and
    ``hash`` compare one int tuple and ``<`` cross-multiplies once.  ``t``
    and ``x`` give the coordinates as Fractions.  The constructor takes a
    Fraction t and a tuple of three Fractions; :meth:`make` also takes ints.
    """

    __slots__ = ()

    def __init__(self, t: Fraction, x: tuple[Fraction, Fraction, Fraction]) -> None:
        if not (
            isinstance(t, Fraction)
            and isinstance(x, tuple)
            and len(x) == 3
            and isinstance(x[0], Fraction)
            and isinstance(x[1], Fraction)
            and isinstance(x[2], Fraction)
        ):
            raise TypeError("Event takes a Fraction t and a tuple of three Fraction coordinates")
        super().__init__(common_key([(c.numerator, c.denominator) for c in (t, *x)]))

    @classmethod
    def make(cls, t, x1, x2, x3) -> "Event":
        return cls(as_rational(t), (as_rational(x1), as_rational(x2), as_rational(x3)))

    def as_integer_tuple(self) -> tuple[int, int, int, int, int]:
        """(t, x1, x2, x3, d) with the event (t, x1, x2, x3)/d, d > 0 and gcd 1."""
        return self._key

    @property
    def t(self) -> Fraction:
        key = self._key
        return Fraction(key[0], key[4])

    @property
    def x(self) -> tuple[Fraction, Fraction, Fraction]:
        _, a, b, c, d = self._key
        return (Fraction(a, d), Fraction(b, d), Fraction(c, d))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        t, a, b, c, d = self._key
        u, p, q, r, e = other._key
        return (t * e, a * e, b * e, c * e) < (u * d, p * d, q * d, r * d)

    def time_flipped(self) -> "Event":
        return Event._from_key(_time_flipped(self._key))

    def space_flipped(self) -> "Event":
        return Event._from_key(_space_flipped(self._key))

    def rotated(self, rotation: OrthogonalMat3) -> "Event":
        return Event._from_key(_rotated(self._key, rotation))

    def to_text(self) -> str:
        return _event_text(self._key)

    def __repr__(self) -> str:
        return f"Event(t={self.t!r}, x={self.x!r})"


# Event keys (t, x1, x2, x3, d): the rebinds of the four actions, and text.


def _time_flipped(key: tuple[int, ...]) -> tuple[int, ...]:
    t, a, b, c, d = key
    return (-t, a, b, c, d)


def _space_flipped(key: tuple[int, ...]) -> tuple[int, ...]:
    t, a, b, c, d = key
    return (t, -a, -b, -c, d)


def _time_space_flipped(key: tuple[int, ...]) -> tuple[int, ...]:
    t, a, b, c, d = key
    return (-t, -a, -b, -c, d)


def _rotated(key: tuple[int, ...], rotation: OrthogonalMat3) -> tuple[int, ...]:
    t, a, b, c, d = key
    x1, x2, x3, e = rotation.integer_apply(a, b, c)
    return lowest_terms((t * e, x1, x2, x3, d * e))


def _event_text(key: tuple[int, ...]) -> str:
    t, a, b, c, d = key
    return f"{format_ratio(t, d)}; {format_ratio(a, d)},{format_ratio(b, d)},{format_ratio(c, d)}"


# Sorting scales every event key to the least common denominator of the
# field, so the order is a sort of int tuples.  That denominator can grow
# with the field (n distinct prime denominators multiply), so past this
# many bits the sort compares Events, whose order cross-multiplies pairs.
_SCALED_ORDER_MAX_BITS = 256


def _in_event_order(samples: dict[tuple[int, ...], tuple[int, ...]]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The key dict sorted by event value: by t, then by x."""
    common = lcm(*{key[4] for key in samples})
    if common.bit_length() > _SCALED_ORDER_MAX_BITS:
        order = sorted(samples, key=Event._from_key)
    else:
        def scaled(key: tuple[int, ...]) -> tuple[int, ...]:
            t, a, b, c, d = key
            m = common // d
            return (t * m, a * m, b * m, c * m)

        order = sorted(samples, key=scaled)
    return {key: samples[key] for key in order}


def _event_key(event: Event) -> tuple[int, ...]:
    if not isinstance(event, Event):
        raise TypeError(f"field events must be Event, not {type(event).__name__}")
    return event._key


def _value_key(value: SpinorValue) -> tuple[int, ...]:
    if not isinstance(value, SpinorValue):
        raise TypeError(f"field values must be SpinorValue, not {type(value).__name__}")
    return value.u._key + value.v._key


def _value_of(key: tuple[int, ...]) -> SpinorValue:
    return SpinorValue(GaussianRational._from_key(key[:3]), GaussianRational._from_key(key[3:]))


class DomainClosureError(KeyError):
    """A field transformation needed a sample event that is not present."""

    def __init__(self, missing: Event) -> None:
        self.missing = missing
        super().__init__(f"field domain is missing the event ({missing.to_text()})")

    def __str__(self) -> str:
        return f"field domain is missing the event ({self.missing.to_text()})"


class FieldParseError(ValueError):
    """A field file line is not in the `t; x1,x2,x3; u; v` grammar."""

    def __init__(self, line_number: int, message: str) -> None:
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class SpinorSampleField:
    """A finite exact map from events to spinor values.

    Immutable and unhashable.  Stored as one dict, sorted by event once when
    the field is built, from each event key (``Event._key``) to a value key
    (the keys of the two components joined into six ints); fields derived
    from a sorted one keep its order and are not sorted again.  The
    constructor takes a mapping of :class:`Event` to :class:`SpinorValue`
    (anything else is a TypeError), and ``samples``, :meth:`events` and
    :meth:`value_at` build fresh objects on each call.  The transformations
    look up the rebound source events and raise :class:`DomainClosureError`
    naming the first missing one.
    """

    __slots__ = ("_keys",)

    def __init__(self, samples: Mapping[Event, SpinorValue]) -> None:
        keys = {_event_key(event): _value_key(value) for event, value in samples.items()}
        _set_keys(self, _in_event_order(keys))

    @classmethod
    def _from_keys(cls, keys: dict[tuple[int, ...], tuple[int, ...]]) -> "SpinorSampleField":
        """The field of a key dict already sorted by event, without sorting again."""
        field = object.__new__(cls)
        _set_keys(field, keys)
        return field

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SpinorSampleField is immutable")

    def __reduce__(self) -> tuple:
        return (SpinorSampleField._from_keys, (self._keys,))

    @property
    def samples(self) -> dict[Event, SpinorValue]:
        """A new dict of the samples, in event order."""
        return {Event._from_key(e): _value_of(v) for e, v in self._keys.items()}

    def events(self) -> list[Event]:
        return [Event._from_key(e) for e in self._keys]

    def value_at(self, event: Event) -> SpinorValue:
        try:
            return _value_of(self._keys[_event_key(event)])
        except KeyError:
            raise DomainClosureError(event) from None

    def map_values(self, fn) -> "SpinorSampleField":
        return SpinorSampleField._from_keys({e: _value_key(fn(_value_of(v))) for e, v in self._keys.items()})

    def scale(self, factor: GaussianRational) -> "SpinorSampleField":
        return self.map_values(lambda v: v.scale(factor))

    def __neg__(self) -> "SpinorSampleField":
        return self.map_values(lambda v: -v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinorSampleField):
            return NotImplemented
        return self._keys == other._keys

    def __repr__(self) -> str:
        return f"SpinorSampleField({self.samples!r})"

    def to_lines(self) -> list[str]:
        return [
            f"{_event_text(e)}; {format_complex_key(a, b, d)}; {format_complex_key(p, q, n)}"
            for e, (a, b, d, p, q, n) in self._keys.items()
        ]

    def to_text(self) -> str:
        """One line per sample, each ending in a newline; "" for no samples."""
        return "".join([f"{line}\n" for line in self.to_lines()])

    @classmethod
    def from_text(cls, text: str) -> "SpinorSampleField":
        """The field of a text of ``t; x1,x2,x3; u; v`` lines.

        Lines end only at a line feed (a carriage return is whitespace).
        Each line is read by one match of :data:`_LINE_RE`; a line that does
        not match (a blank line, or a bad one) goes to
        :func:`_parse_line_by_tokens`, which skips it or raises the
        :class:`FieldParseError` that explains it.
        """
        samples: dict[tuple[int, ...], tuple[int, ...]] = {}
        for number, raw in enumerate(text.split("\n"), start=1):
            sample = _match_line(raw) or _parse_line_by_tokens(raw, number)
            if sample is None:
                continue
            event, value = sample
            if event in samples:
                raise FieldParseError(number, f"duplicate event ({_event_text(event)})")
            samples[event] = value
        return cls._from_keys(_in_event_order(samples))


_set_keys = SpinorSampleField._keys.__set__


# One field line, t; x1,x2,x3; u; v: the scalar patterns of the grammar
# with any whitespace (\s in a str pattern is exactly str.isspace) around
# each scalar and separator.
_LINE_RE = re.compile(
    rf"\s*{RATIO_PATTERN}\s*;\s*{RATIO_PATTERN}\s*,\s*{RATIO_PATTERN}\s*,\s*{RATIO_PATTERN}\s*;"
    rf"\s*{COMPLEX_PATTERN}\s*;\s*{COMPLEX_PATTERN}\s*"
)


def _match_line(raw: str) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (event key, value key) of a well-formed line, or None for any
    other line: one that :data:`_LINE_RE` rejects, or whose match holds a
    zero denominator or more digits than ``int()`` reads."""
    m = _LINE_RE.fullmatch(raw)
    if m is None:
        return None
    t, tq, a, aq, b, bq, c, cq, *complexes = m.groups()
    try:
        tq, aq, bq, cq = int(tq or 1), int(aq or 1), int(bq or 1), int(cq or 1)
        d = lcm(tq, aq, bq, cq)  # 0 when a denominator is, and then d // 0 raises
        event = lowest_terms((
            int(t) * (d // tq), int(a) * (d // aq), int(b) * (d // bq), int(c) * (d // cq), d
        ))
        value = complex_key(*complexes[:5]) + complex_key(*complexes[5:])
    except (ValueError, ZeroDivisionError):  # more digits than int() reads, or a zero denominator
        return None
    return event, value


def _parse_line_by_tokens(raw: str, number: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Read one field line token by token: None for a blank line, else its
    (event key, value key), or the :class:`FieldParseError` that says what
    is wrong."""
    line = raw.strip()
    if not line:
        return None
    parts = [p.strip() for p in line.split(";")]
    if len(parts) != 4:
        raise FieldParseError(number, f"expected 't; x1,x2,x3; u; v', got {echo(raw)}")
    coords = [c.strip() for c in parts[1].split(",")]
    if len(coords) != 3:
        raise FieldParseError(number, f"expected three spatial coordinates, got {echo(parts[1])}")
    try:
        event = common_key([parse_ratio(parts[0]), *map(parse_ratio, coords)])
        value = parse_complex(parts[2])._key + parse_complex(parts[3])._key
    except ScalarParseError as exc:
        raise FieldParseError(number, str(exc)) from None
    return event, value


# -- the four actions -------------------------------------------------------


def _act(
    matrix: UnitaryMat2, f: SpinorSampleField, rebind, antiunitary: bool
) -> SpinorSampleField:
    """g(event) = matrix * f(rebind(event)) on the key dict, with rebind
    taking an event key to an event key.  In an antiunitary sector the
    value is conjugated by negating its two imaginary numerators on the way
    into the product.  A missing source event raises DomainClosureError."""
    keys = f._keys
    times = matrix.integer_apply
    sign = -1 if antiunitary else 1
    out = {}
    for event in keys:
        source = rebind(event)
        try:
            p, q, m, r, s, n = keys[source]
        except KeyError:
            raise DomainClosureError(Event._from_key(source)) from None
        out[event] = times(p, sign * q, m, r, sign * s, n)
    return SpinorSampleField._from_keys(out)


def apply_rotation(matrix: UnitaryMat2, f: SpinorSampleField) -> SpinorSampleField:
    """Unitary sector with trivial time sign: g(t, x) = A f(t, R x).

    R is the rotation covering image of A, applied to the argument exactly
    as written (not inverted); the composition behaviour this induces is
    surfaced by :func:`composition_defect`.
    """
    rotation = covering_map(matrix)
    return _act(matrix, f, lambda key: _rotated(key, rotation), False)


def apply_time_reversal(matrix: UnitaryMat2, f: SpinorSampleField) -> SpinorSampleField:
    """Antiunitary sector: g(t, x) = A conj(f(-t, x))."""
    if not matrix.is_special():
        raise ValueError("time-reversal sector takes a det = +1 matrix")
    return _act(matrix, f, _time_flipped, True)


def apply_parity(matrix: UnitaryMat2, f: SpinorSampleField) -> SpinorSampleField:
    """Improper sector: g(t, y) = B f(t, -y)."""
    if matrix.is_special():
        raise ValueError("parity sector takes a det = -1 matrix")
    return _act(matrix, f, _space_flipped, False)


def apply_parity_time(matrix: UnitaryMat2, f: SpinorSampleField) -> SpinorSampleField:
    """Improper antiunitary sector: g(t, y) = B T conj(f(-t, -y)),
    with T the unitary part of time reversal."""
    if matrix.is_special():
        raise ValueError("parity-time sector takes a det = -1 matrix")
    combined = matrix * time_reversal_operator()
    return _act(combined, f, _time_space_flipped, True)


def apply_symmetry(g: SpinorSymmetry, f: SpinorSampleField) -> SpinorSampleField:
    """Dispatch on (det, time sign) to the four sector actions."""
    if g.matrix.is_special():
        if g.time_sign == 1:
            return apply_rotation(g.matrix, f)
        return apply_time_reversal(g.matrix, f)
    if g.time_sign == 1:
        return apply_parity(g.matrix, f)
    return apply_parity_time(g.matrix, f)


@dataclass(frozen=True)
class CompositionDefect:
    """Comparison of acting twice against acting by the group product.

    ``matrix_two_step`` is the matrix the two-step path actually applies to
    the field values: the left matrix times the right matrix conjugated
    entrywise when the left element is antiunitary.  ``matrix_one_step`` is
    the plain product matrix.  ``sign_defect`` is the single scalar relating
    the two result fields when one exists (1 when they agree exactly).
    """

    left: SpinorSymmetry
    right: SpinorSymmetry
    law_holds: bool
    sign_defect: Optional[GaussianRational]
    witnesses: tuple[Event, ...]
    matrix_two_step: UnitaryMat2
    matrix_one_step: UnitaryMat2

    def to_json(self) -> dict:
        return {
            "pair": [self.left.to_text(), self.right.to_text()],
            "law_holds": self.law_holds,
            "sign_defect": None if self.sign_defect is None else format_complex(self.sign_defect),
            "witnesses": [w.to_text() for w in self.witnesses],
            "matrix_two_step": self.matrix_two_step.to_text(),
            "matrix_one_step": self.matrix_one_step.to_text(),
        }


def _global_ratio(numerator: SpinorSampleField, denominator: SpinorSampleField) -> Optional[GaussianRational]:
    """The scalar r with numerator = r * denominator pointwise, if one exists."""
    ratio: Optional[GaussianRational] = None
    for event in denominator.events():
        d = denominator.value_at(event)
        n = numerator.value_at(event)
        if d.is_zero():
            if not n.is_zero():
                return None
            continue
        candidate = n.u / d.u if not d.u.is_zero() else n.v / d.v
        if n != d.scale(candidate):
            return None
        if ratio is None:
            ratio = candidate
        elif ratio != candidate:
            return None
    return ratio


def composition_defect(
    g: SpinorSymmetry, h: SpinorSymmetry, f: SpinorSampleField
) -> CompositionDefect:
    """Act by h then g, act by g*h, and report how the two paths differ.

    The value matrices compose with a conjugation twist in the antiunitary
    sector; argument rebinding composes in the opposite order in the
    rotation sector.  Both effects show up here as per-event mismatches,
    with the global scalar extracted when the mismatch is one overall
    factor.
    """
    two_step = apply_symmetry(g, apply_symmetry(h, f))
    one_step = apply_symmetry(g * h, f)
    witnesses = tuple(
        e for e in f.events() if two_step.value_at(e) != one_step.value_at(e)
    )
    law_holds = not witnesses
    sign = ONE if law_holds else _global_ratio(two_step, one_step)
    right_matrix = h.matrix.conjugate() if g.time_sign == -1 else h.matrix
    return CompositionDefect(
        left=g,
        right=h,
        law_holds=law_holds,
        sign_defect=sign,
        witnesses=witnesses,
        matrix_two_step=g.matrix * right_matrix,
        matrix_one_step=(g * h).matrix,
    )


# -- ray space ---------------------------------------------------------------


class ZeroSpinorError(ValueError):
    """The zero value has no ray."""


@dataclass(frozen=True)
class RayPoint:
    """A spinor value modulo a global complex scale.

    Two rays are equal exactly when |<a, b>|^2 = |a|^2 |b|^2, which avoids
    any square-root normalisation; for unit representatives this is the
    unit-modulus inner product criterion.
    """

    representative: SpinorValue

    def __post_init__(self) -> None:
        if self.representative.is_zero():
            raise ZeroSpinorError("cannot project the zero spinor to a ray")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RayPoint):
            return NotImplemented
        a, b = self.representative, other.representative
        return inner_product(a, b).norm_sq() == a.norm_sq() * b.norm_sq()

    def __hash__(self) -> int:
        # The projective slope determines the ray and is scale-free.
        a = self.representative
        if a.u.is_zero():
            return hash(("ray-at-infinity",))
        return hash(("ray", a.v / a.u))


def ray_project(value: SpinorValue) -> RayPoint:
    """Project a nonzero spinor value to its ray."""
    return RayPoint(value)
