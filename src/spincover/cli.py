"""Command-line front end.

Subcommands: ``apply`` (transform a spinor field file), ``table`` (the
Cayley table of a group spec or of ``--gen`` matrices), ``iso``
(isomorphism verdicts), ``doublegroup`` (the reflection vs rotation
double-group comparison) and ``verify`` (the seeded invariant suites).
``table`` and ``iso`` read group specs with one reader,
:func:`_parse_group_spec`.  Each hands its result to one writer, :func:`_emit`, as two
callables, the JSON payload and the text; only ``apply`` prints more,
three stderr lines under ``--format text``.  Exit codes: 0 success or all
assertions passed, 1 assertion failure, 2 input error, 3 resource limit.

:func:`main` may be called any number of times in one process.  It builds
its argparse parser on the first call and reuses it on every later one,
and keeps no other state between calls.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Optional, Sequence

from .cover import UnitaryMat2
from .groups import (
    DOUBLE_GROUP_MAX_N,
    DOUBLE_GROUP_MIN_N,
    ISOMORPHISM_ORDER_LIMIT,
    ClosureLimitError,
    FiniteGroup,
    IsomorphismSizeError,
    IsomorphismWitness,
    cyclic,
    decide_isomorphism,
    dicyclic,
    dihedral,
    direct_product,
    double_group_verdict,
    generate_closure,
    spacetime_pt_group,
    spinor_pt_group,
)
from .ptgroup import (
    DomainClosureError,
    FieldParseError,
    SpinorSampleField,
    SpinorSymmetry,
    apply_symmetry,
    pt_symmetries,
    spacetime_projection,
)
from .scalars import ScalarSizeError, echo
from .verify import SUITE_NAMES, VERIFY_SAMPLE_LIMIT, run_suites

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ASSERTION_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3


class InputError(ValueError):
    """User-facing input problem; maps to exit code 2."""


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _json_text(value: object, newline: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it.

    With ``indent`` set the stdlib runs its pure-Python encoder; here the
    strings go through its C escaper, and a list of plain ints, as every
    Cayley-table row and witness is, is one join.  Only dicts with str keys,
    lists, tuples, str, int, bool and None are written; any other type is a
    ``TypeError``.  ``newline`` is a line break plus the indent of
    ``value``'s own level.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None or value is True or value is False:
        return _JSON_WORDS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:  # exact ints: a bool prints as a word
            items = map(str, value)
        else:
            items = (_json_text(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (_json_string(key) + ": " + _json_text(item, inner) for key, item in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args: argparse.Namespace, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Write a subcommand's result: under ``--format json``, ``payload()`` plus
    ``schema_version`` as JSON with a two-space indent, keys sorted, non-ASCII
    escaped and one trailing newline, as ``json.dumps(..., indent=2,
    sort_keys=True)`` gives; else ``text()``.  Only the form printed is built.
    It goes to ``--out`` or to stdout, flushed; a failed write is an input
    error.  :func:`main` has refused a missing ``--out`` directory or a directory."""
    if args.fmt == "json":
        output = _json_text({"schema_version": SCHEMA_VERSION, **payload()}) + "\n"
    else:
        output = text()
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(output)
        else:
            print(output, end="", flush=True)
    except OSError as exc:
        if not args.out:
            # The unwritten bytes stay in stdout's buffer, and the flush at
            # interpreter exit would fail on them again: send them to the
            # null device instead.
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise InputError(str(exc)) from exc


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    parser.add_argument("--out", metavar="PATH", help="write the result to PATH instead of stdout")


# -- apply ---------------------------------------------------------------------


def _parse_transform(token: str) -> SpinorSymmetry:
    """P, T, PT, a matrix literal, or a matrix@sign pair like `i,0;0,i@-1`."""
    named = pt_symmetries()
    if token in named:
        return named[token]
    matrix_text, at, sign_text = token.partition("@")
    time_sign = 1
    if at:
        if sign_text not in ("1", "+1", "-1"):
            raise InputError(f"time sign must be +1 or -1, got {echo(sign_text)}")
        time_sign = int(sign_text)
    try:
        matrix = UnitaryMat2.from_text(matrix_text)
    except ValueError as exc:
        raise InputError(f"bad transform {echo(token)}: {exc}") from exc
    return SpinorSymmetry(matrix, time_sign)


def _cmd_apply(args: argparse.Namespace) -> int:
    symmetry = _parse_transform(args.transform)
    try:
        with open(args.field, "r", encoding="utf-8-sig") as handle:
            field = SpinorSampleField.from_text(handle.read())
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except (UnicodeDecodeError, FieldParseError) as exc:
        raise InputError(f"{args.field}: {exc}") from exc
    try:
        transformed = apply_symmetry(symmetry, field)
    except DomainClosureError as exc:
        raise InputError(str(exc)) from exc
    projection = spacetime_projection(symmetry)
    if args.fmt == "text":
        print(f"matrix: {symmetry.matrix.to_text()}", file=sys.stderr)
        print(f"time sign: {symmetry.time_sign:+d}", file=sys.stderr)
        print(f"spacetime projection: {projection.to_text()}", file=sys.stderr)
    _emit(args, lambda: {
        "matrix": symmetry.matrix.to_text(),
        "time_sign": symmetry.time_sign,
        "spacetime_projection": projection.to_json(),
        "field": transformed.to_lines(),
    }, transformed.to_text)
    return EXIT_OK


# -- table ---------------------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> int:
    if (args.group is not None) == bool(args.gen):
        raise InputError("give one group spec or --gen matrices")
    if args.group is not None:
        group = _parse_group_spec(args.group)()
        omit_identity = True
    else:
        try:
            generators = [UnitaryMat2.from_text(g) for g in args.gen]
        except ValueError as exc:
            raise InputError(f"bad generator: {exc}") from exc
        group = generate_closure(generators)
        omit_identity = False
    _emit(args, group.cayley_json, lambda: group.cayley_text(omit_identity=omit_identity))
    return EXIT_OK


# -- group specs ---------------------------------------------------------------

_NAMED_GROUPS: dict[str, Callable[[], FiniteGroup]] = {
    "GPT_hat": spinor_pt_group,
    "GPT_spacetime": spacetime_pt_group,
}


def _parse_group_spec(spec: str) -> Callable[[], FiniteGroup]:
    """Parse GPT_hat, GPT_spacetime, or a direct product of factors Zn,
    Dih<order> and Dic<order> joined by x (Z4xZ2, Dic8xZ2xZ2) into a builder
    for its table: the one reader of ``table``'s and ``iso``'s groups.  The
    order is read off the spec and checked against the cap here, before any
    table exists.  A product is built as one table and validated once, with
    no group for a partial product.
    """
    if spec in _NAMED_GROUPS:
        return _NAMED_GROUPS[spec]
    constructors = {"Dih": dihedral, "Dic": dicyclic, "Z": cyclic}
    factors = []
    for factor in spec.split("x"):
        if factor in _NAMED_GROUPS:
            raise InputError(f"bad group spec {echo(spec)}: {factor} cannot be a product factor")
        kind = next((k for k in constructors if factor.startswith(k)), None)
        if kind is None:
            raise InputError(
                f"unknown group spec {echo(factor)}; expected Zn, Dih<order>, Dic<order>, "
                f"products of them like Dic8xZ2, or one of {tuple(_NAMED_GROUPS)}"
            )
        factors.append((constructors[kind], _parse_positive(factor[len(kind):], spec)))
    order = math.prod(k for _, k in factors)
    if order > ISOMORPHISM_ORDER_LIMIT:
        shown = order if order < 10**_ORDER_DIGITS else f"at least 10^{_ORDER_DIGITS}"
        raise IsomorphismSizeError(
            f"{echo(spec, str)} has order {shown}; groups are supported up to order {ISOMORPHISM_ORDER_LIMIT}"
        )

    def build() -> FiniteGroup:
        try:
            groups = [constructor(k) for constructor, k in factors]
        except ValueError as exc:
            raise InputError(f"bad group spec {echo(spec)}: {exc}") from exc
        return direct_product(*groups)

    return build


#: Most digits of an order that a group spec or ``doublegroup`` reads and
#: a spec prints.  An order of more digits is over every cap all the same,
#: so _read_digits gives 10**40 for it and int() never reads it.
_ORDER_DIGITS = 40


def _read_digits(text: str) -> Optional[int]:
    """ASCII decimal digits as an int, or None for any other text: int()
    would also take ``1_2``, ``+3``, `` 5`` and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        return None
    digits = text.lstrip("0")
    return int(digits or "0") if len(digits) <= _ORDER_DIGITS else 10**_ORDER_DIGITS


def _parse_positive(text: str, spec: str) -> int:
    value = _read_digits(text)
    if not value:
        raise InputError(f"bad group spec {echo(spec)}: factor order must be a positive decimal integer")
    return value


# -- iso -----------------------------------------------------------------------


def _cmd_iso(args: argparse.Namespace) -> int:
    build_a = _parse_group_spec(args.group_a)
    build_b = _parse_group_spec(args.group_b)
    group_a = build_a()
    # Equal specs name one group: one table is built and validated, and
    # decide_isomorphism computes its signatures once.
    group_b = group_a if args.group_b == args.group_a else build_b()
    outcome = decide_isomorphism(group_a, group_b)
    isomorphic = isinstance(outcome, IsomorphismWitness)

    def payload() -> dict:
        if isomorphic:
            found = {"witness": list(outcome.mapping)}
        else:
            multisets = {
                "group_a": list(group_a.order_multiset()),
                "group_b": list(group_b.order_multiset()),
            }
            found = {"order_multisets": multisets, "refuted_by": outcome.to_json()}
        return {"group_a": args.group_a, "group_b": args.group_b, "isomorphic": isomorphic, **found}

    def text() -> str:
        if isomorphic:
            pairs = zip(group_a.labels, (group_b.labels[j] for j in outcome.mapping))
            found = "witness: " + ", ".join(f"{a} -> {b}" for a, b in pairs)
        else:
            found = outcome.text()
        verdict = "isomorphic" if isomorphic else "not isomorphic"
        return f"{args.group_a} vs {args.group_b}: {verdict}\n{found}\n"

    _emit(args, payload, text)
    return EXIT_OK


# -- doublegroup -----------------------------------------------------------------


def _axis_order(text: str) -> int:
    """Read ``doublegroup``'s n: an optional ``-`` and ASCII digits.  The
    range is double_group_verdict's to check."""
    negative = text.startswith("-")
    value = _read_digits(text[negative:])
    if value is None:
        raise argparse.ArgumentTypeError("axis order must be a decimal integer")
    return -value if negative else value


def _cmd_doublegroup(args: argparse.Namespace) -> int:
    conventions = (1, -1) if args.convention == "both" else (int(args.convention),)
    try:
        verdicts = double_group_verdict(args.n, conventions)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    def text() -> str:
        lines = []
        for v in verdicts:
            outcome = "isomorphic" if v.isomorphic else "not isomorphic"
            agrees = "matches" if v.claim_match else "CONTRADICTS"
            lines.append(
                f"n={v.n} parity_square={v.convention:+d}: {outcome} "
                f"({agrees} the expected verdict)"
            )
            if v.invariant_used:
                lines.append(f"  {v.invariant_used}")
        return "\n".join(lines) + "\n"

    _emit(args, lambda: {"verdicts": [v.to_json() for v in verdicts]}, text)
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


def _verify_integer(text: str) -> int:
    """Read ``verify``'s --seed and --samples: an optional ``-`` and ASCII
    digits, by the rule of ``doublegroup``'s n, but with every digit kept,
    so that no seed is clamped.  The range of --samples is _cmd_verify's to
    check."""
    if _read_digits(text[text.startswith("-"):]) is None:
        raise argparse.ArgumentTypeError("must be a decimal integer")
    try:
        return int(text)
    except ValueError:  # more digits than int() reads
        raise argparse.ArgumentTypeError("too many digits") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise InputError("--samples must be at least 1")
    if args.samples > VERIFY_SAMPLE_LIMIT:
        print(
            f"resource limit: --samples {echo(str(args.samples), str)}; "
            f"verify takes at most {VERIFY_SAMPLE_LIMIT} samples",
            file=sys.stderr,
        )
        return EXIT_RESOURCE_LIMIT
    reports = run_suites(args.suite, args.seed, args.samples)
    all_pass = all(r.all_pass for r in reports)

    def text() -> str:
        lines = []
        for report in reports:
            for check in report.checks:
                status = "PASS" if check.passed else "FAIL"
                lines.append(f"[{report.suite}] {status}  {check.name}")
                if not check.passed and check.witness:
                    lines.append(f"    witness: {check.witness}")
        lines.append("all suites passed" if all_pass else "FAILURES detected")
        return "\n".join(lines) + "\n"

    _emit(args, lambda: {
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "samples": args.samples,
        "all_pass": all_pass,
        "suites": [r.to_json() for r in reports],
    }, text)
    return EXIT_OK if all_pass else EXIT_ASSERTION_FAILURE


# -- parser ------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``spincover`` parser, built on the first call and shared by every
    later one.  Parsing keeps no state on it: each call gets a new namespace,
    ``--gen`` appends to a new list, and every default is None, an int or a
    str."""
    parser = argparse.ArgumentParser(
        prog="spincover",
        description="Exact spin double covers: transform spinor fields, "
        "render Cayley tables, test group isomorphisms, verify invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="transform a spinor field file")
    p_apply.add_argument(
        "transform",
        help="P, T, PT, a matrix literal like 'i,0;0,i', or matrix@timesign",
    )
    p_apply.add_argument("field", help="field file: one 't; x1,x2,x3; u; v' line per sample")
    _add_common_flags(p_apply)

    p_table = sub.add_parser("table", help="render a Cayley table")
    p_table.add_argument(
        "group", nargs="?",
        help=f"group spec, as iso reads it: {', '.join(_NAMED_GROUPS)}, Zn, Dih<order>, Dic<order> "
        "or a product of those factors like Dic8xZ2",
    )
    p_table.add_argument(
        "--gen",
        action="append",
        metavar="MATRIX",
        help="generator matrix literal (repeatable); closed over exact arithmetic; "
        "use --gen=MATRIX when the literal starts with a minus sign",
    )
    _add_common_flags(p_table)

    p_iso = sub.add_parser("iso", help="test two groups for isomorphism")
    p_iso.add_argument("group_a")
    p_iso.add_argument("group_b")
    _add_common_flags(p_iso)

    p_double = sub.add_parser(
        "doublegroup", help="compare reflection and rotation double groups"
    )
    p_double.add_argument(
        "n", type=_axis_order, help=f"principal axis order, {DOUBLE_GROUP_MIN_N}..{DOUBLE_GROUP_MAX_N}"
    )
    p_double.add_argument(
        "--convention", choices=("+1", "-1", "both"), default="both",
        help="parity-lift square convention to test",
    )
    _add_common_flags(p_double)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    p_verify.add_argument("--seed", type=_verify_integer, default=0)
    p_verify.add_argument("--samples", type=_verify_integer, default=1000)
    _add_common_flags(p_verify)

    return parser


_COMMANDS = {
    "apply": _cmd_apply,
    "table": _cmd_table,
    "iso": _cmd_iso,
    "doublegroup": _cmd_doublegroup,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A missing --out directory, or an --out that is a directory, is
        # refused before the work, not after it.
        if args.out:
            out_dir = os.path.dirname(args.out) or "."
            if not os.path.isdir(out_dir):
                raise InputError(f"cannot write --out {args.out!r}: no directory {out_dir!r}")
            if os.path.isdir(args.out):
                raise InputError(f"cannot write --out {args.out!r}: it is a directory")
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ClosureLimitError, IsomorphismSizeError, ScalarSizeError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
