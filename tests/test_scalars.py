import copy
import pickle
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincover.cover import (
    IDENTITY2,
    IDENTITY3,
    OrthogonalMat3,
    covering_map,
    determinant_section,
    quaternion_to_su2,
    rational_unit_quaternion,
)
from spincover.ptgroup import Event, SpacetimeSymmetry, SpinorSymmetry, SpinorValue
from spincover.semidirect import SemidirectElement
from spincover.scalars import (
    GaussianRational,
    ScalarDigitsError,
    ScalarParseError,
    format_complex,
    format_rational,
    parse_complex,
    parse_ratio,
    parse_rational,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(lambda g: not g.is_zero())

# Every exact constructor of caller input, fed one bad component.
EXACT_CONSTRUCTORS = {
    "GaussianRational": GaussianRational,
    "OrthogonalMat3": lambda v: OrthogonalMat3([[v, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "Event.make": lambda v: Event.make(v, 0, 0, 0),
    "rational_unit_quaternion": lambda v: rational_unit_quaternion(v, 0, 0),
    "quaternion_to_su2": lambda v: quaternion_to_su2((v, 0, 0, 0)),
}
NOT_EXACT = {"float": 0.5, "bool": True, "str": "1/2"}
# Event and SpinorValue take only the types of their coordinates and
# components; Event.make is the converting constructor.
WRONG_RECORD_TYPES = {
    "Event-floats": (lambda v: Event(v, (0.1, 0, 0)), 0.5),
    "Event-int-t": (lambda v: Event(v, (Fraction(0),) * 3), 1),
    "Event-list-x": (lambda v: Event(Fraction(0), v), [Fraction(0)] * 3),
    "Event-two-coordinates": (lambda v: Event(Fraction(0), v), (Fraction(0),) * 2),
    "SpinorValue-ints": (lambda v: SpinorValue(v, 2), 1),
    "SpinorValue-Fraction": (lambda v: SpinorValue(GaussianRational(0), v), Fraction(1, 2)),
}

# Every constructor of a sign, with the name its ValueError gives the sign.
SIGNED = {
    "determinant_section": (determinant_section, "sign"),
    "SemidirectElement": (lambda s: SemidirectElement(IDENTITY2, s), "sign"),
    "SpinorSymmetry": (lambda s: SpinorSymmetry(IDENTITY2, s), "time sign"),
    "SpacetimeSymmetry": (lambda s: SpacetimeSymmetry(IDENTITY3, s), "time sign"),
}


class TestSigns:
    """A sign is the int 1 or -1: other types are a TypeError, other ints a
    ValueError."""

    @pytest.mark.parametrize("name", SIGNED)
    @pytest.mark.parametrize("value", [1.0, -1.0, True, False, Fraction(-1), "1"], ids=repr)
    def test_other_types_rejected(self, name, value):
        build, _ = SIGNED[name]
        with pytest.raises(TypeError, match="must be the int 1 or -1"):
            build(value)

    @pytest.mark.parametrize("name", SIGNED)
    def test_other_ints_rejected(self, name):
        build, what = SIGNED[name]
        for value in (0, 2, -2):
            with pytest.raises(ValueError, match=f"^{what} must be \\+1 or -1, got {value}$"):
                build(value)

    @pytest.mark.parametrize("name", SIGNED)
    def test_signs_accepted(self, name):
        build, _ = SIGNED[name]
        assert build(1) != build(-1)


def test_exact_values_copy_pickle_and_refuse_setattr():
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    m = quaternion_to_su2((Fraction(3, 5), Fraction(0), Fraction(0), Fraction(4, 5)))
    values = [z, m, covering_map(m), Event.make(Fraction(1, 2), 0, -3, Fraction(2, 7)), SpinorValue(z, -z)]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
        for name in ("_key", "re", "rows", "t", "u", "anything"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)


class TestArithmetic:
    def test_i_squared(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1)

    def test_unit_modulus_product(self):
        z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert z * z.conjugate() == GaussianRational(1)

    def test_scalar_multiply(self):
        z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        assert GaussianRational(2) * z == GaussianRational(1, Fraction(2, 3))

    def test_conjugate_examples(self):
        assert GaussianRational(1, 2).conjugate() == GaussianRational(1, -2)
        zero = GaussianRational(0)
        assert zero.conjugate() == zero
        z = GaussianRational(Fraction(3, 7), -1)
        assert z.conjugate().conjugate() == z

    def test_norm_sq_examples(self):
        assert GaussianRational(Fraction(3, 5), Fraction(4, 5)).norm_sq() == 1
        assert GaussianRational(0).norm_sq() == 0
        assert GaussianRational(1, 1).norm_sq() == 2

    @pytest.mark.parametrize(
        "build,value",
        [
            pytest.param(build, value, id=f"{name}-{kind}")
            for name, build in EXACT_CONSTRUCTORS.items()
            for kind, value in NOT_EXACT.items()
        ]
        + [pytest.param(build, value, id=name) for name, (build, value) in WRONG_RECORD_TYPES.items()],
    )
    def test_floats_rejected(self, build, value):
        with pytest.raises(TypeError):
            build(value)

    def test_accepts_ints_and_fractions(self):
        for build in EXACT_CONSTRUCTORS.values():
            build(1)
            build(Fraction(1))

    def test_no_mixed_equality(self):
        one = GaussianRational(1)
        assert one != 1
        assert one != Fraction(1)
        assert one not in {1}
        assert one in {GaussianRational(1)}

    @pytest.mark.parametrize(
        "combine",
        [
            lambda z: z * 2,
            lambda z: 2 * z,
            lambda z: z + 1,
            lambda z: 1 - z,
            lambda z: z / Fraction(2),
            lambda z: 1 / z,
        ],
        ids=["z*2", "2*z", "z+1", "1-z", "z/Fraction", "1/z"],
    )
    def test_no_mixed_arithmetic(self, combine):
        with pytest.raises(TypeError):
            combine(GaussianRational(Fraction(1, 2), 3))

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(0).inverse()


class TestFieldAxioms:
    @given(gaussians, gaussians, gaussians)
    def test_add_associative(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(gaussians, gaussians, gaussians)
    def test_mul_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(gaussians, gaussians, gaussians)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(nonzero_gaussians)
    def test_inverse(self, x):
        assert x * x.inverse() == GaussianRational(1)

    @given(gaussians, gaussians)
    def test_norm_multiplicative(self, x, y):
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()

    @given(gaussians)
    def test_conjugation_involution(self, x):
        assert x.conjugate().conjugate() == x

    @given(gaussians)
    def test_norm_nonnegative_real(self, x):
        n = x.norm_sq()
        assert isinstance(n, Fraction)
        assert n >= 0


def pair(z: GaussianRational) -> tuple[Fraction, Fraction]:
    return z.re, z.im


def assert_canonical(z: GaussianRational) -> None:
    a, b, d = z.as_integer_triple()
    assert d > 0 and gcd(a, b, d) == 1
    rebuilt = GaussianRational(z.re, z.im)
    assert rebuilt.as_integer_triple() == (a, b, d) and hash(rebuilt) == hash(z)


class TestIntegerTriples:
    """The integer-triple operators against a (Fraction, Fraction) reference."""

    @given(gaussians)
    def test_canonical_triple(self, x):
        assert_canonical(x)
        a, b, d = x.as_integer_triple()
        assert (x.re, x.im) == (Fraction(a, d), Fraction(b, d))

    @given(rationals, rationals, st.integers(1, 12))
    def test_equal_values_have_equal_triples(self, re, im, k):
        # The same value built from scaled-up components.
        x = GaussianRational(re, im)
        y = GaussianRational(Fraction(re.numerator * k, re.denominator * k), im)
        z = parse_complex(f"{re.numerator * k}/{re.denominator * k}+{im}i".replace("+-", "-"))
        assert x.as_integer_triple() == y.as_integer_triple() == z.as_integer_triple()
        assert x == y == z and hash(x) == hash(y) == hash(z)

    @given(gaussians, gaussians)
    def test_ring_operations(self, x, y):
        (p, q), (r, s) = pair(x), pair(y)
        assert pair(x + y) == (p + r, q + s)
        assert pair(x - y) == (p - r, q - s)
        assert pair(x * y) == (p * r - q * s, p * s + q * r)
        assert pair(-x) == (-p, -q)
        assert pair(x.conjugate()) == (p, -q)
        assert x.norm_sq() == p * p + q * q
        assert (x == y) == ((p, q) == (r, s))
        assert (hash(x) == hash(y)) or (p, q) != (r, s)

    @given(gaussians, nonzero_gaussians)
    def test_division(self, x, y):
        (p, q), (r, s) = pair(x), pair(y)
        n = r * r + s * s
        assert pair(y.inverse()) == (r / n, -s / n)
        assert pair(x / y) == ((p * r + q * s) / n, (q * r - p * s) / n)
        assert_canonical(y.inverse())
        assert_canonical(x / y)

    @given(gaussians, gaussians)
    def test_results_are_canonical(self, x, y):
        for z in (x + y, x - y, x * y, -x, x.conjugate()):
            assert_canonical(z)

    def test_zero_is_one_triple(self):
        x = GaussianRational(Fraction(1, 3), 2)
        assert (x - x).as_integer_triple() == (0, 0, 1) == GaussianRational(0).as_integer_triple()


# The exact error of tokens the field tests do not reach.  In a double
# fault the part read first decides the message: the imaginary part of a
# complex scalar, then the real part, and in each the digits before the
# zero denominator.  A token the complex pattern rejects is not a complex
# scalar, whatever digits it holds.  Messages echo the raw text, and a
# token longer than 40 characters as its first 40 and its length.
# "{digits}" stands for a value one digit longer than Python reads into an
# int: 1 and 4300 zeros.
DIGITS = "rational scalar has more than {limit} digits, the most Python reads"


def echoed(head: str, length: int) -> str:
    """The echo of a token of the given length that starts with head and
    then runs into the zeros of {digits}."""
    return f"{(head + '0' * 40)[:40]!r}... ({length} characters)"


PARSE_FAILURES = [
    (parse_complex, "1/0+{digits}i", ScalarDigitsError, DIGITS),
    (parse_complex, "{digits}+1/0i", ScalarParseError, "not a complex scalar: " + echoed("1", 4306)),
    (parse_complex, "{digits}/0+i", ScalarDigitsError, DIGITS),
    (parse_complex, "1/2/3+{digits}i", ScalarParseError, "not a complex scalar: " + echoed("1/2/3+1", 4308)),
    (parse_complex, "x-1/{digits}i", ScalarParseError, "not a complex scalar: " + echoed("x-1/1", 4306)),
    (parse_complex, "x+-{digits}i", ScalarParseError, "not a complex scalar: " + echoed("x+-1", 4305)),
    (parse_complex, "x{digits}i", ScalarParseError, "not a complex scalar: " + echoed("x1", 4303)),
    (parse_complex, "{digits}", ScalarDigitsError, DIGITS),
    (parse_ratio, "{digits}/0", ScalarDigitsError, DIGITS),
    (parse_ratio, "{digits}/", ScalarParseError, "not a rational scalar: " + echoed("1", 4302)),
    (parse_complex, "{digits}/0", ScalarDigitsError, DIGITS),
    (parse_ratio, " 1/0 ", ScalarParseError, "zero denominator in rational scalar: ' 1/0 '"),
    (parse_complex, " 1/0 ", ScalarParseError, "not a complex scalar: ' 1/0 '"),
    (parse_complex, " 1/0i ", ScalarParseError, "not a complex scalar: ' 1/0i '"),
    (parse_complex, "x+1/0i", ScalarParseError, "not a complex scalar: 'x+1/0i'"),
    (parse_complex, " 1 +i", ScalarParseError, "not a complex scalar: ' 1 +i'"),
    (parse_complex, "1 2", ScalarParseError, "not a complex scalar: '1 2'"),
    (parse_ratio, "1 2", ScalarParseError, "not a rational scalar: '1 2'"),
    (parse_ratio, "", ScalarParseError, "not a rational scalar: ''"),
    (parse_complex, "", ScalarParseError, "not a complex scalar: ''"),
    (parse_complex, " \t\u3000", ScalarParseError, "not a complex scalar: ' \\t\\u3000'"),
    (parse_ratio, "+", ScalarParseError, "not a rational scalar: '+'"),
    (parse_complex, "+", ScalarParseError, "not a complex scalar: '+'"),
    (parse_ratio, "i/2", ScalarParseError, "not a rational scalar: 'i/2'"),
    (parse_complex, "i/2", ScalarParseError, "not a complex scalar: 'i/2'"),
    (parse_ratio, "1/2/3", ScalarParseError, "not a rational scalar: '1/2/3'"),
    (parse_complex, "1/2/3", ScalarParseError, "not a complex scalar: '1/2/3'"),
    (parse_ratio, "i", ScalarParseError, "not a rational scalar: 'i'"),
    (parse_complex, "ii", ScalarParseError, "not a complex scalar: 'ii'"),
    (parse_complex, "+i+i", ScalarParseError, "not a complex scalar: '+i+i'"),
    (parse_complex, "1/2i/3i", ScalarParseError, "not a complex scalar: '1/2i/3i'"),
]


class TestTextGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", GaussianRational(0)),
            ("3/5", GaussianRational(Fraction(3, 5))),
            ("-2", GaussianRational(-2)),
            ("i", GaussianRational(0, 1)),
            ("-i", GaussianRational(0, -1)),
            ("2i", GaussianRational(0, 2)),
            ("3/5i", GaussianRational(0, Fraction(3, 5))),
            ("1+i", GaussianRational(1, 1)),
            ("1-i", GaussianRational(1, -1)),
            ("1+2/3i", GaussianRational(1, Fraction(2, 3))),
            ("-1/2-4/5i", GaussianRational(Fraction(-1, 2), Fraction(-4, 5))),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize(
        "bad",
        [
            "", "x", "1.5", "1+", "i2", "2/-3i", "+-i", "1e3", "1/0", "1/0i", "1+2/0i",
            "1 + i", "1 +i", "- i", "3 /5i", "\u0663", "1\u00a0+i", "1+\u2003i",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ScalarParseError):
            parse_complex(bad)

    def test_inner_whitespace_is_what_isspace_says(self):
        spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        assert "\u00a0" in spaces and "\u2003" in spaces and "\u200b" not in spaces
        for space in spaces:
            for text in (f"1{space}+i", f"1+{space}i", f"3{space}/5"):
                with pytest.raises(ScalarParseError) as err:
                    parse_complex(text)
                assert str(err.value) == f"not a complex scalar: {text!r}"

    @pytest.mark.parametrize("parse, text, error, message", PARSE_FAILURES)
    def test_parse_failure_message(self, int_digit_limit, parse, text, error, message):
        digits = "1" + "0" * int_digit_limit
        with pytest.raises(ScalarParseError) as err:
            parse(text.replace("{digits}", digits))
        assert type(err.value) is error
        assert str(err.value) == message.replace("{digits}", digits).replace("{limit}", str(int_digit_limit))

    def test_rational_canonical_form(self):
        assert format_rational(parse_rational("6/4")) == "3/2"
        assert format_rational(parse_rational("-10/5")) == "-2"
        assert format_rational(parse_rational("0")) == "0"

    @given(gaussians)
    def test_round_trip(self, x):
        assert parse_complex(format_complex(x)) == x

    @given(gaussians)
    def test_printing_is_canonical(self, x):
        text = format_complex(x)
        assert format_complex(parse_complex(text)) == text

