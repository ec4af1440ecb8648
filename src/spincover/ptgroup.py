"""Parity and time reversal acting on spin-1/2 sample fields.

The symmetry elements here are pairs (U, a): a det = +/-1 unitary matrix U
together with a time sign a in {+1, -1}.  The pair stands for the operator
U K^a on field values, K entrywise conjugation, so a = -1 marks an
antiunitary element and pairs multiply as operators:
(U1, a)(U2, b) = (U1 conj^a(U2), ab).  The group is a double cover of the
spacetime symmetries, the plain direct product O(3) x Z2 of a spatial
matrix and a time flip; :func:`spacetime_projection` is the two-to-one
homomorphism onto it, normalised so that the canonical time-reversal pair
projects to a pure time flip with no spatial rotation.  P and T generate
the quaternion group Dic8 under this product, while their matrices alone
generate Z4 x Z2 (``spinor_pt_group``).  :func:`pt_symmetries` is the one
definition of P, T and PT: the tables ``GPT_hat`` and ``GPT_spacetime``,
the named transforms of ``apply`` and the P/T pools of ``verify`` are
built from it.

Spinor fields are finite exact sample maps from events (t, x) to
two-component Gaussian-rational values.  An :class:`Event` is an
:class:`~spincover.scalars.ExactKey` of four integer numerators (t, x1, x2,
x3) over one denominator.  A :class:`SpinorSampleField` is an
:class:`~spincover.scalars.ExactKey` too: its key is one dict, in event
order, from each event key (those five ints) to a value key (the keys
(a, b, d) of the two components joined into six ints).  Parsing,
sorting, the action and printing work on these int tuples and build
no :class:`Event` or :class:`SpinorValue` per sample; the objects are built
only at the library surface.  A field line (ending only at a line feed)
is split at ``;`` into its time, place and two value tokens; each distinct
token of a text is read once, by the scalar parsers of
:mod:`spincover.scalars`, and remembered for the rest of that text.  A
line they reject is read again, its tokens stripped, by the same
readers, to name its first fault.  Time signs are checked by
:func:`~spincover.scalars.as_sign`.  The one field action,
:func:`apply_symmetry`, moves every event key by one kernel to (a t, S x);
its one ``if`` only picks S: the rotation R(U) when det U = +1 and
a = +1, else det U I.  In the antiunitary sectors it conjugates values
by negating their imaginary numerators inside the matrix product, so
every transformation law is checked by exact equality on the sampled
events.
A ray is held as its exact slope, so ray equality is value equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, total_ordering
from math import lcm
from operator import is_
from typing import Iterable, Mapping, Optional

from .cover import (
    IDENTITY3,
    SPACE_INVERSION,
    OrthogonalMat3,
    UnitaryMat2,
    _signed_image,
    covering_map,
    parity_operator,
)
from .scalars import (
    ONE,
    ZERO,
    ExactKey,
    GaussianRational,
    Record,
    ScalarParseError,
    _reduced,
    as_rational,
    as_sign,
    common_key,
    echo,
    format_complex,
    format_complex_key,
    format_ratio,
    lowest_terms,
    parse_complex_key,
    parse_ratio,
)


def time_reversal_operator() -> UnitaryMat2:
    """The unitary part of time reversal: ((0, -1), (1, 0)), det +1.

    It squares to -I, and the full time-reversal action pairs it with
    entrywise conjugation of the field values.
    """
    return UnitaryMat2([[ZERO, -ONE], [ONE, ZERO]])


class SpinorSymmetry(Record):
    """A double-cover element (U, a): the operator U K^a on field values.

    K is entrywise conjugation, so the product is the operator product
    (U1, a)(U2, b) = (U1 conj^a(U2), ab): K moving past U2 conjugates it.
    This is the law under which :func:`apply_symmetry` acts on the values.
    """

    __slots__ = ("matrix", "time_sign")

    def __init__(self, matrix: UnitaryMat2, time_sign: int) -> None:
        if not isinstance(matrix, UnitaryMat2):
            raise TypeError(f"SpinorSymmetry takes a UnitaryMat2, not {type(matrix).__name__}")
        _set_symmetry_matrix(self, matrix)
        _set_symmetry_sign(self, as_sign(time_sign, "time sign"))

    @classmethod
    def _from_fields(cls, matrix: UnitaryMat2, time_sign: int) -> "SpinorSymmetry":
        """The symmetry of a matrix and a time sign taken from validated
        symmetries, without the constructor's checks."""
        symmetry = object.__new__(cls)
        _set_symmetry_matrix(symmetry, matrix)
        _set_symmetry_sign(symmetry, time_sign)
        return symmetry

    def __eq__(self, other: object) -> bool:
        if type(other) is not SpinorSymmetry:
            return NotImplemented
        return self.matrix == other.matrix and self.time_sign == other.time_sign

    def __hash__(self) -> int:
        return hash((self.matrix, self.time_sign))

    def __mul__(self, other: "SpinorSymmetry") -> "SpinorSymmetry":
        if type(other) is not SpinorSymmetry:
            return NotImplemented
        right = other.matrix.conjugate() if self.time_sign == -1 else other.matrix
        return SpinorSymmetry._from_fields(self.matrix * right, self.time_sign * other.time_sign)

    def to_text(self) -> str:
        return f"{self.matrix.to_text()} @ {self.time_sign:+d}"


_set_symmetry_matrix = SpinorSymmetry.matrix.__set__
_set_symmetry_sign = SpinorSymmetry.time_sign.__set__


def pt_symmetries() -> dict[str, SpinorSymmetry]:
    """P, T and PT by name, in table order: the one definition of the three.

    P is (i I, +1) and T is (((0, -1), (1, 0)), -1); PT is their operator
    product.  The tables ``GPT_hat`` and ``GPT_spacetime`` of
    :mod:`spincover.groups`, the named transforms of ``apply`` and the
    P/T pools of ``verify`` are all built from this map.
    """
    p, t = SpinorSymmetry(parity_operator(), 1), SpinorSymmetry(time_reversal_operator(), -1)
    return {"P": p, "T": t, "PT": p * t}


class SpacetimeSymmetry(Record):
    """A spatial orthogonal matrix together with a time sign: an element of
    the direct product O(3) x Z2, multiplying componentwise."""

    __slots__ = ("spatial", "time_sign")

    def __init__(self, spatial: OrthogonalMat3, time_sign: int) -> None:
        if not isinstance(spatial, OrthogonalMat3):
            raise TypeError(f"SpacetimeSymmetry takes an OrthogonalMat3, not {type(spatial).__name__}")
        _set_spatial(self, spatial)
        _set_spacetime_sign(self, as_sign(time_sign, "time sign"))

    @classmethod
    def _from_fields(cls, spatial: OrthogonalMat3, time_sign: int) -> "SpacetimeSymmetry":
        """The symmetry of a spatial matrix and a time sign taken from
        validated values, without the constructor's checks."""
        symmetry = object.__new__(cls)
        _set_spatial(symmetry, spatial)
        _set_spacetime_sign(symmetry, time_sign)
        return symmetry

    def __eq__(self, other: object) -> bool:
        if type(other) is not SpacetimeSymmetry:
            return NotImplemented
        return self.spatial == other.spatial and self.time_sign == other.time_sign

    def __hash__(self) -> int:
        return hash((self.spatial, self.time_sign))

    def __mul__(self, other: "SpacetimeSymmetry") -> "SpacetimeSymmetry":
        if type(other) is not SpacetimeSymmetry:
            return NotImplemented
        return SpacetimeSymmetry._from_fields(self.spatial * other.spatial, self.time_sign * other.time_sign)

    def to_text(self) -> str:
        return f"{self.spatial.to_text()} @ {self.time_sign:+d}"

    def to_json(self) -> dict:
        return {"spatial": self.spatial.to_text(), "time_sign": self.time_sign}


_set_spatial = SpacetimeSymmetry.spatial.__set__
_set_spacetime_sign = SpacetimeSymmetry.time_sign.__set__


def spacetime_projection(g: SpinorSymmetry) -> SpacetimeSymmetry:
    """Project a double-cover element to its spacetime symmetry, two-to-one.

    The spatial part is the extended covering image of the matrix; when the
    time sign is -1 it is multiplied by the half turn about y,
    diag(-1, 1, -1), the image of the time-reversal matrix T, because
    U K = (U T^-1)(T K) and T K projects to the pure time flip.  So for
    time sign a the spatial part is the image times diag(a, 1, a), which
    the covering map's column-signed kernel writes in one step.  The
    canonical time-reversal pair maps to (identity, -1) and the
    parity-time pair to (-identity, -1).  This is a homomorphism from the
    operator product onto the componentwise product of
    :class:`SpacetimeSymmetry`, with kernel {(I, +1), (-I, +1)}.
    """
    if type(g) is not SpinorSymmetry:
        raise TypeError(f"spacetime_projection takes a SpinorSymmetry, not {type(g).__name__}")
    a = g.time_sign
    return SpacetimeSymmetry._from_fields(_signed_image(g.matrix, a, 1, a), a)


# -- spinor values and sample fields ---------------------------------------


class SpinorValue(Record):
    """A two-component complex value (u, v)."""

    __slots__ = ("u", "v")

    def __init__(self, u: GaussianRational, v: GaussianRational) -> None:
        if not (isinstance(u, GaussianRational) and isinstance(v, GaussianRational)):
            raise TypeError("SpinorValue takes two GaussianRational components")
        _set_u(self, u)
        _set_v(self, v)

    def __eq__(self, other: object) -> bool:
        if type(other) is not SpinorValue:
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def conjugate(self) -> "SpinorValue":
        return SpinorValue(self.u.conjugate(), self.v.conjugate())

    def __neg__(self) -> "SpinorValue":
        return SpinorValue(-self.u, -self.v)

    def scale(self, factor: GaussianRational) -> "SpinorValue":
        return SpinorValue(factor * self.u, factor * self.v)

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def to_text(self) -> str:
        return f"{format_complex(self.u)}; {format_complex(self.v)}"


_set_u = SpinorValue.u.__set__
_set_v = SpinorValue.v.__set__


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

    def to_text(self) -> str:
        return _event_text(self._key)

    def __repr__(self) -> str:
        return f"Event(t={self.t!r}, x={self.x!r})"


# Event keys (t, x1, x2, x3, d): the one rebind, and text.


def _moved_keys(keys: Iterable[tuple[int, ...]], spatial: OrthogonalMat3, time_sign: int) -> list[tuple[int, ...]]:
    """The key of (a t, S x) for each event key (t, x), in order: S's nine
    numerators times x, and a e t, over S's denominator e times the event's."""
    n0, n1, n2, n3, n4, n5, n6, n7, n8, e = spatial._key
    scale = time_sign * e
    moved = [
        (scale * t, n0 * a + n1 * b + n2 * c, n3 * a + n4 * b + n5 * c, n6 * a + n7 * b + n8 * c, d * e)
        for t, a, b, c, d in keys
    ]
    # With e = 1, S is an integer orthogonal matrix, so a signed permutation,
    # which keeps gcd(t, x, d) = 1: the keys are already in lowest terms.
    return moved if e == 1 else list(map(lowest_terms, moved))


def _event_text(key: tuple[int, ...]) -> str:
    """The text of an event key; a whole-number event (d = 1) prints its
    numerators as they are."""
    t, a, b, c, d = key
    if d == 1:
        try:
            return f"{t}; {a},{b},{c}"
        except ValueError:  # more digits than str() writes: format_ratio says so
            pass
    return f"{format_ratio(t, d)}; {format_ratio(a, d)},{format_ratio(b, d)},{format_ratio(c, d)}"


# Sorting scales every event key to the least common denominator of the
# field, so the order is a sort of int tuples.  That denominator can grow
# with the field (n distinct prime denominators multiply), so past this
# many bits the sort compares Events, whose order cross-multiplies pairs.
# The lcm is folded one distinct denominator at a time and given up as soon
# as it passes the bound, so it never grows past it by more than one factor.
_SCALED_ORDER_MAX_BITS = 256


def _in_event_order(samples: dict[tuple[int, ...], tuple[int, ...]]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The key dict sorted by event value: by t, then by x.  A dict the
    sort leaves in order, as a field file written in event order is, is
    returned itself; on any other the check stops at the first key the
    sort moved."""
    common = 1
    for d in {key[4] for key in samples}:
        common = lcm(common, d)
        if common.bit_length() > _SCALED_ORDER_MAX_BITS:
            order = sorted(samples, key=Event._from_key)
            break
    else:
        def scaled(key: tuple[int, ...]) -> tuple[int, ...]:
            t, a, b, c, d = key
            m = common // d
            return (t * m, a * m, b * m, c * m)

        order = sorted(samples, key=scaled)
    if all(map(is_, order, samples)):
        return samples
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


class SpinorSampleField(ExactKey):
    """A finite exact map from events to spinor values.

    Immutable and unhashable.  An :class:`~spincover.scalars.ExactKey`
    whose key is one dict, sorted by event once when the field is built,
    from each event key (``Event._key``) to a value key (the keys of the
    two components joined into six ints), so ``==``, copy and pickle are
    the key's; fields derived from a sorted one keep its order and are not
    sorted again.  The
    constructor takes a mapping of :class:`Event` to :class:`SpinorValue`
    (anything else is a TypeError), and ``samples``, :meth:`events` and
    :meth:`value_at` build fresh objects on each call.  The transformations
    look up the rebound source events and raise :class:`DomainClosureError`
    naming the first missing one.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, samples: Mapping[Event, SpinorValue]) -> None:
        keys = {_event_key(event): _value_key(value) for event, value in samples.items()}
        super().__init__(_in_event_order(keys))

    @property
    def samples(self) -> dict[Event, SpinorValue]:
        """A new dict of the samples, in event order."""
        return {Event._from_key(e): _value_of(v) for e, v in self._key.items()}

    def events(self) -> list[Event]:
        return [Event._from_key(e) for e in self._key]

    def value_at(self, event: Event) -> SpinorValue:
        try:
            return _value_of(self._key[_event_key(event)])
        except KeyError:
            raise DomainClosureError(event) from None

    def map_values(self, fn) -> "SpinorSampleField":
        return SpinorSampleField._from_key({e: _value_key(fn(_value_of(v))) for e, v in self._key.items()})

    def __neg__(self) -> "SpinorSampleField":
        return self.map_values(lambda v: -v)

    def __repr__(self) -> str:
        return f"SpinorSampleField({self.samples!r})"

    def to_lines(self) -> list[str]:
        return [
            f"{_event_text(e)}; {format_complex_key(a, b, d)}; {format_complex_key(p, q, n)}"
            for e, (a, b, d, p, q, n) in self._key.items()
        ]

    def to_text(self) -> str:
        """One line per sample, each ending in a newline; "" for no samples."""
        lines = self.to_lines()
        lines.append("")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "SpinorSampleField":
        """The field of a text of ``t; x1,x2,x3; u; v`` lines.

        Lines end only at a line feed (a carriage return is whitespace).
        Each line is split at ``;`` into its time, place and two value
        tokens, which the scalar parsers read through three readers
        memoized for this call, so a distinct token is read once however
        many lines repeat it (sample grids repeat most of theirs): a ratio
        reader, :func:`~spincover.scalars.parse_ratio` in lowest terms, for
        the time and each coordinate; a place reader, which splits its
        token at ``,`` into exactly three coordinates and joins their
        ratios with :func:`~spincover.scalars.common_key`; and
        :func:`~spincover.scalars.parse_complex_key` for the values.  The
        time and the place join over the lcm of their denominators, or
        over the one they share when they are equal, as on every line of a
        whole-number grid.  A line that does not split into four tokens or
        holds a token a reader rejects is skipped when it is blank or
        whitespace only; else its tokens and coordinates are stripped and
        read again, by the same readers, and the
        :class:`FieldParseError` names the first fault in the order: line
        shape, coordinate count, time, the three coordinates, u, v.  The
        samples are put in event order by :func:`_in_event_order`.
        """
        ratio = cache(lambda token: lowest_terms(parse_ratio(token)))

        @cache
        def place(token: str) -> tuple[int, ...]:
            x1, x2, x3 = token.split(",")
            return common_key([ratio(x1), ratio(x2), ratio(x3)])

        complex_value = cache(parse_complex_key)
        samples: dict[tuple[int, ...], tuple[int, ...]] = {}
        for number, raw in enumerate(text.split("\n"), start=1):
            try:
                t, x, u, v = raw.split(";")
                n, d = ratio(t)
                a, b, c, e = place(x)
                if d == e:
                    event = (n, a, b, c, d)
                else:
                    m = lcm(d, e)
                    # Already in lowest terms, as (n, d) and (a, b, c, e)
                    # are: a prime that divides m fails to divide m // d,
                    # and then divides d but not n, or fails to divide
                    # m // e, and then divides e but not all of a, b, c.
                    event = (n * (m // d), a * (m // e), b * (m // e), c * (m // e), m)
                value = complex_value(u) + complex_value(v)
            except ValueError:  # a blank line, or the first fault below
                if not raw.strip():
                    continue
                tokens = [token.strip() for token in raw.split(";")]
                if len(tokens) != 4:
                    raise FieldParseError(number, f"expected 't; x1,x2,x3; u; v', got {echo(raw)}") from None
                t, x, u, v = tokens
                coords = [c.strip() for c in x.split(",")]
                if len(coords) != 3:
                    raise FieldParseError(number, f"expected three spatial coordinates, got {echo(x)}") from None
                try:  # the line was rejected, so one of these reads raises
                    for token in (t, *coords):
                        ratio(token)
                    complex_value(u)
                    complex_value(v)
                except ScalarParseError as exc:
                    raise FieldParseError(number, str(exc)) from None
            if event in samples:
                raise FieldParseError(number, f"duplicate event ({_event_text(event)})")
            samples[event] = value
        return cls._from_key(_in_event_order(samples))


# -- the field action -------------------------------------------------------


def apply_symmetry(g: SpinorSymmetry, f: SpinorSampleField) -> SpinorSampleField:
    """Act by g = (U, a) on f: (g f)(e) = U conj^a(f(rebind(e))).

    The values follow the operator product: acting by h and then by g
    multiplies them as g * h does.  The rebound source events are listed
    first, their values looked up, and the values multiplied by U in one
    call, :meth:`~spincover.cover.UnitaryMat2.integer_apply_all`; in an
    antiunitary sector (a = -1) it conjugates each value by negating its
    two imaginary numerators on the way into the product.  Every source
    event is (a t, S x), by one kernel on the event keys; the sector ``if``
    only picks S: R, the covering image of U, when det U = +1 and a = +1,
    else det U I.  So time reversal (+1, -1) rebinds to (-t, x), parity
    (-1, +1) to (t, -x) and parity-time (-1, -1) to (-t, -x).

    That is the point map of :func:`spacetime_projection` when the spatial
    part is +/-I, as on the eight elements P and T generate, where the
    action is a group action.  Otherwise a rotation rebinds by R, not R^-1,
    and the other sectors drop the rotation part, so a pair can fail the
    law at the events (see :func:`composition_defect`); the apply goldens
    and the benchmark's expected outputs pin these rebinds.

    A missing source event raises :class:`DomainClosureError`.
    """
    if type(g) is not SpinorSymmetry:
        raise TypeError(f"apply_symmetry takes a SpinorSymmetry, not {type(g).__name__}")
    if type(f) is not SpinorSampleField:
        raise TypeError(f"apply_symmetry acts on a SpinorSampleField, not {type(f).__name__}")
    matrix, a, det = g.matrix, g.time_sign, g.matrix.det_sign
    if det == 1 and a == 1:
        spatial = covering_map(matrix)
    else:
        spatial = IDENTITY3 if det == 1 else SPACE_INVERSION
    keys = f._key
    sources = _moved_keys(keys, spatial, a)
    try:
        values = list(map(keys.__getitem__, sources))
    except KeyError:
        missing = next(source for source in sources if source not in keys)
        raise DomainClosureError(Event._from_key(missing)) from None
    return SpinorSampleField._from_key(dict(zip(keys, matrix.integer_apply_all(values, a == -1))))


class CompositionDefect(Record):
    """Acting by ``right`` and then ``left``, against acting by their product.

    ``witnesses`` are the events where the two results differ, in event
    order; the law holds when there are none.
    """

    __slots__ = ("left", "right", "witnesses")

    @property
    def law_holds(self) -> bool:
        return not self.witnesses

    def to_json(self) -> dict:
        return {
            "pair": [self.left.to_text(), self.right.to_text()],
            "law_holds": self.law_holds,
            "witnesses": [w.to_text() for w in self.witnesses],
        }


def composition_defect(
    g: SpinorSymmetry, h: SpinorSymmetry, f: SpinorSampleField
) -> CompositionDefect:
    """Act by h then g, act by g*h, and report the events where they differ.

    Both paths apply the same matrix with the same conjugation, so a
    witness is an event the two paths read from different source events.
    It takes a pair of rotations that do not commute there, as the rotation
    sector rebinds by S = R, not R^-1, or an element whose spatial part is
    not +/-I (see :func:`apply_symmetry`).
    """
    two_step = apply_symmetry(g, apply_symmetry(h, f))
    one_step = apply_symmetry(g * h, f)
    witnesses = tuple(
        e for e in f.events() if two_step.value_at(e) != one_step.value_at(e)
    )
    return CompositionDefect(left=g, right=h, witnesses=witnesses)


# -- ray space ---------------------------------------------------------------


class ZeroSpinorError(ValueError):
    """The zero value has no ray."""


class RayPoint(Record):
    """A nonzero spinor value (u, v) modulo a global complex scale.

    Held as its exact slope v/u, or None for the ray of (0, 1).  The slope
    is scale-free and determines the ray, so equality and hashing are exact
    value comparisons with no square root.
    """

    __slots__ = ("slope",)

    def __init__(self, slope: Optional[GaussianRational]) -> None:
        if not (slope is None or isinstance(slope, GaussianRational)):
            raise TypeError("RayPoint takes a GaussianRational slope or None")
        _set_slope(self, slope)

    def __eq__(self, other: object) -> bool:
        if type(other) is not RayPoint:
            return NotImplemented
        return self.slope == other.slope

    def __hash__(self) -> int:
        return hash((self.slope,))


_set_slope = RayPoint.slope.__set__


def ray_project(value: SpinorValue) -> RayPoint:
    """Project a nonzero spinor value (u, v) to its ray, the slope v/u."""
    if type(value) is not SpinorValue:
        raise TypeError(f"ray_project takes a SpinorValue, not {type(value).__name__}")
    # For u = (a + b i)/d and v = (p + q i)/n the slope is
    # d (p + q i)(a - b i) / (n (a^2 + b^2)), reduced by one gcd.
    a, b, d = value.u._key
    if a == 0 and b == 0:
        if value.v.is_zero():
            raise ZeroSpinorError("cannot project the zero spinor to a ray")
        return RayPoint(None)
    p, q, n = value.v._key
    return RayPoint(_reduced(d * (p * a + q * b), d * (q * a - p * b), n * (a * a + b * b)))
