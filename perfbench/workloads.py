"""The four benchmark workloads: seeded inputs, op lists and answer checks.

Every op goes through ``spincover.cli.main(argv)`` with stdout and stderr
captured, except the one isomorphism pair the CLI cannot spell, which uses
the public library calls.  Every check compares against an answer the code
under test did not compute: hand-written values, this module's own
``Fraction`` arithmetic, or its own loops over the group tables.

Package functions are always looked up through their module at call time
(``cli.main``, ``groups.find_isomorphism``) so that the tracer's wrappers
see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from spincover import cli, groups

# A check returns None when the op's answer is right, else the reason.
Check = Callable[[int, object], Optional[str]]


@dataclass
class Op:
    """One timed operation: ``run`` returns (exit code, output)."""

    label: str
    run: Callable[[], tuple[int, object]]
    check: Optional[Check] = None


def cli_run(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return run


# -- verify --------------------------------------------------------------------

VERIFY_SAMPLES = 100


def _verify_check() -> Check:
    first: list[str] = []

    def check(code: int, out: object) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        report = json.loads(out)
        failed = [
            a["assertion"]
            for suite in report["suites"]
            for a in suite["assertions"]
            if a["pass"] is not True
        ]
        if failed or report["all_pass"] is not True:
            return f"assertions failed: {failed}"
        if not first:
            first.append(out)
        elif out != first[0]:
            return "JSON differs from the first pass with the same seed"
        return None

    return check


def build_verify(seed: int, workdir: Path, checked: bool) -> list[Op]:
    rng = random.Random(seed)
    cli_seed = rng.randrange(1, 2**31)
    suites = ["cover", "semidirect", "ptgroup"]
    rng.shuffle(suites)
    return [
        Op(
            f"verify {suite}",
            cli_run(["verify", suite, "--seed", str(cli_seed),
                     "--samples", str(VERIFY_SAMPLES), "--format", "json"]),
            _verify_check() if checked else None,
        )
        for suite in suites
    ]


# -- apply ---------------------------------------------------------------------

# Complex numbers here are (re, im) pairs of Fractions.
Cx = tuple[Fraction, Fraction]
Spinor = tuple[Cx, Cx]
EventKey = tuple[Fraction, Fraction, Fraction, Fraction]

H = Fraction(1, 2)
ROTATION_120 = "1/2-1/2i,-1/2-1/2i;1/2-1/2i,1/2+1/2i"
# The same matrix as ROTATION_120, entry by entry.
M_120 = (((H, -H), (-H, -H)), ((H, -H), (H, H)))
M_HALF_TURN_Z = (((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
                 ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1))))


def _mul(a: Cx, b: Cx) -> Cx:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a: Cx, b: Cx) -> Cx:
    return (a[0] + b[0], a[1] + b[1])


def _conj(a: Cx) -> Cx:
    return (a[0], -a[1])


def _neg(a: Cx) -> Cx:
    return (-a[0], -a[1])


def _times_i(a: Cx) -> Cx:
    return (-a[1], a[0])


def _matvec(m, s: Spinor) -> Spinor:
    return (_add(_mul(m[0][0], s[0]), _mul(m[0][1], s[1])),
            _add(_mul(m[1][0], s[0]), _mul(m[1][1], s[1])))


def format_complex(a: Cx) -> str:
    """The package's canonical wire form, written out from its grammar."""
    re, im = a
    if im == 0:
        return str(re)
    tail = "i" if abs(im) == 1 else f"{abs(im)}i"
    if re == 0:
        return tail if im > 0 else "-" + tail
    return f"{re}{'+' if im > 0 else '-'}{tail}"


def _line(key: EventKey, value: Spinor) -> str:
    t, x1, x2, x3 = key
    return f"{t}; {x1},{x2},{x3}; {format_complex(value[0])}; {format_complex(value[1])}"


# Each transform: the CLI token and g(t, x) as (source event, value map).
# P = i*I; T = ((0,-1),(1,0)) with conjugation; PT = (P*T) with
# conjugation at (-t, -x); the two rotations act as A f(t, R x) with R
# their covering rotations: a half turn about z, and the cyclic axis
# permutation R x = (x3, x1, x2); "@-1" is the time-reversal sector,
# A conj(f(-t, x)), with no spatial rebinding.
def _t_flip(v: Spinor) -> Spinor:
    return (_neg(_conj(v[1])), _conj(v[0]))


APPLY_TRANSFORMS: dict[str, tuple[Callable[[EventKey], EventKey], Callable[[Spinor], Spinor]]] = {
    "P": (lambda k: (k[0], -k[1], -k[2], -k[3]),
          lambda v: (_times_i(v[0]), _times_i(v[1]))),
    "T": (lambda k: (-k[0], k[1], k[2], k[3]), _t_flip),
    "PT": (lambda k: (-k[0], -k[1], -k[2], -k[3]),
           lambda v: tuple(_times_i(c) for c in _t_flip(v))),
    "i,0;0,-i": (lambda k: (k[0], -k[1], -k[2], k[3]),
                 lambda v: _matvec(M_HALF_TURN_Z, v)),
    ROTATION_120: (lambda k: (k[0], k[3], k[1], k[2]),
                   lambda v: _matvec(M_120, v)),
    ROTATION_120 + "@-1": (lambda k: (-k[0], k[1], k[2], k[3]),
                           lambda v: _matvec(M_120, (_conj(v[0]), _conj(v[1])))),
}

# t in {-2, -3/2, ..., 2}, x in {-4..4}^3: closed under t -> -t, x -> -x
# and cyclic axis permutation; 9 * 9^3 = 6561 events.
APPLY_TIMES = [Fraction(k, 2) for k in range(-4, 5)]
APPLY_COORDS = [Fraction(k) for k in range(-4, 5)]


def make_field(seed: int) -> dict[EventKey, Spinor]:
    rng = random.Random(seed)

    def rational() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return {
        (t, x1, x2, x3): ((rational(), rational()), (rational(), rational()))
        for t in APPLY_TIMES
        for x1 in APPLY_COORDS
        for x2 in APPLY_COORDS
        for x3 in APPLY_COORDS
    }


def field_text(samples: dict[EventKey, Spinor]) -> str:
    return "".join(_line(k, v) + "\n" for k, v in samples.items())


def expected_apply_output(samples: dict[EventKey, Spinor], token: str) -> str:
    source, value = APPLY_TRANSFORMS[token]
    return "".join(_line(k, value(samples[source(k)])) + "\n" for k in sorted(samples))


def _text_check(expected: str) -> Check:
    def check(code: int, out: object) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        if out != expected:
            return "output differs from the expected text"
        return None

    return check


def build_apply(seed: int, workdir: Path, checked: bool) -> list[Op]:
    samples = make_field(seed)
    path = workdir / "field.txt"
    path.write_text(field_text(samples), encoding="utf-8")
    tokens = list(APPLY_TRANSFORMS)
    random.Random(seed).shuffle(tokens)
    return [
        Op(
            f"apply {token}",
            cli_run(["apply", token, str(path)]),
            _text_check(expected_apply_output(samples, token)) if checked else None,
        )
        for token in tokens
    ]


# -- doublegroup -----------------------------------------------------------------

# The binary octahedral group: 120-degree rotation, quarter turn about z
# (as the det +1 lift ((0,-1),(1,0))) and the central i*I.
OCTAHEDRAL_GENERATORS = [ROTATION_120, "0,-1;1,0", "i,0;0,i"]

# Rows and columns P, T, PT, -P, -T, -PT, -I, from P = iI, T = ((0,-1),(1,0)):
# P and T commute, P^2 = T^2 = -I, (PT)^2 = I.
GPT_HAT_TABLE = """\
       P    T   PT   -P   -T  -PT   -I
  P   -I   PT   -T    I  -PT    T   -P
  T   PT   -I   -P  -PT    I    P   -T
 PT   -T   -P    I    T    P   -I  -PT
 -P    I  -PT    T   -I   PT   -T    P
 -T  -PT    I    P   PT   -I   -P    T
-PT    T    P   -I   -T   -P    I   PT
 -I   -P   -T  -PT    P    T   PT    I
"""


def _doublegroup_check(n: int) -> Check:
    def check(code: int, out: object) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        verdicts = json.loads(out)["verdicts"]
        got = sorted((v["n"], v["convention"], v["isomorphic"]) for v in verdicts)
        want = [(n, -1, False), (n, 1, True)]
        return None if got == want else f"verdicts {got}, expected {want}"

    return check


def _latin_square(table: list[list[int]]) -> bool:
    n = len(table)
    cols = range(n)
    return all(sorted(row) == list(cols) for row in table) and all(
        sorted(row[j] for row in table) == list(cols) for j in cols
    )


def _octahedral_check(code: int, out: object) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(out)
    if len(payload["elements"]) != 48:
        return f"closure order {len(payload['elements'])}, expected 48"
    if not _latin_square(payload["table"]):
        return "table is not a Latin square"
    return None


def build_doublegroup(seed: int, workdir: Path, checked: bool) -> list[Op]:
    ops = [
        Op(f"doublegroup {n}", cli_run(["doublegroup", str(n), "--format", "json"]),
           _doublegroup_check(n) if checked else None)
        for n in range(groups.DOUBLE_GROUP_MIN_N, groups.DOUBLE_GROUP_MAX_N + 1)
    ]
    ops.append(Op(
        "table --gen octahedral",
        cli_run(["table", *(f"--gen={g}" for g in OCTAHEDRAL_GENERATORS), "--format", "json"]),
        _octahedral_check if checked else None,
    ))
    ops.append(Op("table GPT_hat", cli_run(["table", "GPT_hat"]),
                  _text_check(GPT_HAT_TABLE) if checked else None))
    random.Random(seed).shuffle(ops)
    return ops


# -- iso ---------------------------------------------------------------------------

# (group a, group b, isomorphic); None marks the size-limit refusal (exit 3).
ISO_PAIRS: list[tuple[str, str, Optional[bool]]] = [
    ("Dic256", "Dic256", True),
    ("Dih256", "Dih256", True),
    ("Z16xZ16", "Z16xZ16", True),
    ("x".join(["Z2"] * 8), "x".join(["Z2"] * 8), True),
    ("Dih256", "Dic256", False),
    ("Dic64", "Dih64", False),
    ("Z300", "Z300", None),
]


def _product(*factors: groups.FiniteGroup) -> groups.FiniteGroup:
    result = factors[0]
    for extra in factors[1:]:
        result = groups.direct_product(result, extra)
    return result


def _table_of(spec: str) -> list[list[int]]:
    """The table the CLI builds for a spec, via the public group constructors."""
    if spec.startswith("Dih"):
        return groups.dihedral(int(spec[3:])).table
    if spec.startswith("Dic"):
        return groups.dicyclic(int(spec[3:])).table
    return _product(*(groups.cyclic(int(f[1:])) for f in spec.split("x"))).table


def _preserves_products(a: list[list[int]], b: list[list[int]], phi: list[int]) -> bool:
    n = len(a)
    if len(b) != n or sorted(phi) != list(range(n)):
        return False
    return all(phi[a[i][j]] == b[phi[i]][phi[j]] for i in range(n) for j in range(n))


def _iso_check(
    group_a: str, group_b: str, isomorphic: Optional[bool], tables: dict[str, list[list[int]]]
) -> Check:
    """``tables`` caches the tables by spec: they are built during the
    untimed warm-up pass, so traced passes see no check-side package calls."""

    def table(spec: str) -> list[list[int]]:
        if spec not in tables:
            tables[spec] = _table_of(spec)
        return tables[spec]

    def check(code: int, out: object) -> Optional[str]:
        if isomorphic is None:
            return None if code == 3 else f"exit code {code}, expected 3"
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(out)
        if payload["isomorphic"] is not isomorphic:
            return f"isomorphic={payload['isomorphic']}, expected {isomorphic}"
        if isomorphic:
            if not _preserves_products(table(group_a), table(group_b), payload["witness"]):
                return "witness does not preserve products"
        elif payload["order_multisets"]["group_a"] == payload["order_multisets"]["group_b"]:
            return "refuted pair reported equal element-order multisets"
        return None

    return check


def _equal_multiset_pair() -> tuple[int, object]:
    """Z4 x Z4 x Z2 x Z2 against Dic8 x Z2^3: same element orders, one
    abelian and one not, so the search must run to exhaustion."""
    z2, z4 = groups.cyclic(2), groups.cyclic(4)
    abelian = _product(z4, z4, z2, z2)
    quaternionic = _product(groups.dicyclic(8), z2, z2, z2)
    return 0, groups.find_isomorphism(abelian, quaternionic)


def _equal_multiset_check(code: int, out: object) -> Optional[str]:
    return None if out is None else "found an isomorphism between non-isomorphic groups"


def build_iso(seed: int, workdir: Path, checked: bool) -> list[Op]:
    tables: dict[str, list[list[int]]] = {}
    ops = [
        Op(f"iso {a} {b}", cli_run(["iso", a, b, "--format", "json"]),
           _iso_check(a, b, iso, tables) if checked else None)
        for a, b, iso in ISO_PAIRS
    ]
    ops.append(Op("find_isomorphism Z4xZ4xZ2xZ2 Dic8xZ2xZ2xZ2", _equal_multiset_pair,
                  _equal_multiset_check if checked else None))
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[int, Path, bool], list[Op]]] = {
    "verify": build_verify,
    "apply": build_apply,
    "doublegroup": build_doublegroup,
    "iso": build_iso,
}
