"""Command-line front end.

Subcommands: ``apply`` (transform a spinor field file), ``table`` (Cayley
tables), ``iso`` (isomorphism verdicts), ``doublegroup`` (the reflection vs
rotation double-group comparison) and ``verify`` (the seeded invariant
suites).  Exit codes: 0 success or all assertions passed, 1 assertion
failure, 2 input error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
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
    spacetime_projection,
)
from .scalars import ScalarParseError, ScalarSizeError, echo
from .verify import SUITE_NAMES, run_suites

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ASSERTION_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3


class InputError(ValueError):
    """User-facing input problem; maps to exit code 2."""


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_output(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(str(exc)) from exc
    else:
        sys.stdout.write(text)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    parser.add_argument("--out", metavar="PATH", help="write the result to PATH instead of stdout")


# -- apply ---------------------------------------------------------------------


def _parse_transform(token: str) -> SpinorSymmetry:
    """P, T, PT, a matrix literal, or a matrix@sign pair like `i,0;0,i@-1`."""
    named = {
        "P": SpinorSymmetry.parity,
        "T": SpinorSymmetry.time_reversal,
        "PT": SpinorSymmetry.parity_time,
    }
    if token in named:
        return named[token]()
    matrix_text, at, sign_text = token.partition("@")
    time_sign = 1
    if at:
        if sign_text not in ("1", "+1", "-1"):
            raise InputError(f"time sign must be +1 or -1, got {echo(sign_text)}")
        time_sign = int(sign_text)
    try:
        matrix = UnitaryMat2.from_text(matrix_text)
    except (ScalarParseError, ValueError) as exc:
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
    if args.fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "matrix": symmetry.matrix.to_text(),
            "time_sign": symmetry.time_sign,
            "spacetime_projection": projection.to_json(),
            "field": transformed.to_lines(),
        }
        _write_output(_json_dump(payload), args.out)
    else:
        print(f"matrix: {symmetry.matrix.to_text()}", file=sys.stderr)
        print(f"time sign: {symmetry.time_sign:+d}", file=sys.stderr)
        print(f"spacetime projection: {projection.to_text()}", file=sys.stderr)
        _write_output(transformed.to_text(), args.out)
    return EXIT_OK


# -- table ---------------------------------------------------------------------

_NAMED_GROUPS: dict[str, Callable[[], FiniteGroup]] = {
    "GPT_hat": spinor_pt_group,
    "GPT_spacetime": spacetime_pt_group,
}


def _named_group(token: str) -> FiniteGroup:
    if token not in _NAMED_GROUPS:
        raise InputError(f"unknown named group {echo(token)}; expected one of {tuple(_NAMED_GROUPS)}")
    return _NAMED_GROUPS[token]()


def _cmd_table(args: argparse.Namespace) -> int:
    if args.group and args.gen:
        raise InputError("give either a named group or --gen matrices, not both")
    if args.group:
        group = _named_group(args.group)
        omit_identity = True
    elif args.gen:
        try:
            generators = [UnitaryMat2.from_text(g) for g in args.gen]
        except (ScalarParseError, ValueError) as exc:
            raise InputError(f"bad generator: {exc}") from exc
        group = generate_closure(generators)
        omit_identity = False
    else:
        raise InputError("expected a named group or at least one --gen matrix")
    if args.fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION, **group.cayley_json()}
        _write_output(_json_dump(payload), args.out)
    else:
        _write_output(group.cayley_text(omit_identity=omit_identity), args.out)
    return EXIT_OK


# -- iso -----------------------------------------------------------------------


def _parse_group_spec(spec: str) -> Callable[[], FiniteGroup]:
    """Parse GPT_hat, GPT_spacetime, or a direct product of factors Zn,
    Dih<order> and Dic<order> joined by x (Z4xZ2, Dic8xZ2xZ2) into a builder
    for its table.  The order is read off the spec and checked against the
    search cap here, before any table exists.  A product is built as one
    table and validated once, with no group for a partial product.
    """
    if spec in _NAMED_GROUPS:
        return _NAMED_GROUPS[spec]
    constructors = {"Dih": dihedral, "Dic": dicyclic, "Z": cyclic}
    factors = []
    for factor in spec.split("x"):
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
            f"{echo(spec, str)} has order {shown}; isomorphism search supports orders up to "
            f"{ISOMORPHISM_ORDER_LIMIT}"
        )

    def build() -> FiniteGroup:
        try:
            groups = [constructor(k) for constructor, k in factors]
        except ValueError as exc:
            raise InputError(f"bad group spec {echo(spec)}: {exc}") from exc
        return direct_product(*groups)

    return build


#: Most digits of an order that a group spec reads and prints.  A factor
#: order of more digits is over the search cap all the same, so
#: _parse_positive gives 10**40 for it and int() never reads it.
_ORDER_DIGITS = 40


def _parse_positive(text: str, spec: str) -> int:
    digits = text.lstrip("0")
    if not (digits and text.isascii() and text.isdigit()):
        raise InputError(f"bad group spec {echo(spec)}")
    return int(digits) if len(digits) <= _ORDER_DIGITS else 10**_ORDER_DIGITS


def _cmd_iso(args: argparse.Namespace) -> int:
    build_a = _parse_group_spec(args.group_a)
    build_b = _parse_group_spec(args.group_b)
    group_a, group_b = build_a(), build_b()
    outcome = decide_isomorphism(group_a, group_b)
    isomorphic = isinstance(outcome, IsomorphismWitness)
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "group_a": args.group_a,
        "group_b": args.group_b,
        "isomorphic": isomorphic,
    }
    if isomorphic:
        payload["witness"] = list(outcome.mapping)
    else:
        payload["order_multisets"] = {
            "group_a": list(group_a.order_multiset()),
            "group_b": list(group_b.order_multiset()),
        }
        payload["refuted_by"] = outcome.to_json()
    if args.fmt == "json":
        _write_output(_json_dump(payload), args.out)
    else:
        lines = [f"{args.group_a} vs {args.group_b}: "
                 f"{'isomorphic' if isomorphic else 'not isomorphic'}"]
        if isomorphic:
            mapped = ", ".join(
                f"{group_a.labels[i]} -> {group_b.labels[outcome.mapping[i]]}"
                for i in range(group_a.order)
            )
            lines.append(f"witness: {mapped}")
        else:
            lines.append(outcome.text())
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- doublegroup -----------------------------------------------------------------


def _cmd_doublegroup(args: argparse.Namespace) -> int:
    try:
        verdicts = double_group_verdict(args.n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.convention != "both":
        wanted = int(args.convention)
        verdicts = [v for v in verdicts if v.convention == wanted]
    if args.fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "verdicts": [v.to_json() for v in verdicts],
        }
        _write_output(_json_dump(payload), args.out)
    else:
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
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


#: The most samples ``verify`` takes: a run at the cap takes about 40 s
#: and 100 MB (Python 3.11 on x86-64).
VERIFY_SAMPLE_LIMIT = 100_000


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
    if args.fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "suite": args.suite,
            "seed": args.seed,
            "samples": args.samples,
            "all_pass": all_pass,
            "suites": [r.to_json() for r in reports],
        }
        _write_output(_json_dump(payload), args.out)
    else:
        lines = []
        for report in reports:
            for check in report.checks:
                status = "PASS" if check.passed else "FAIL"
                lines.append(f"[{report.suite}] {status}  {check.name}")
                if not check.passed and check.witness:
                    lines.append(f"    witness: {check.witness}")
        lines.append("all suites passed" if all_pass else "FAILURES detected")
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_pass else EXIT_ASSERTION_FAILURE


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p_table.add_argument("group", nargs="?", help=f"named group: {', '.join(_NAMED_GROUPS)}")
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
        "n", type=int, help=f"principal axis order, {DOUBLE_GROUP_MIN_N}..{DOUBLE_GROUP_MAX_N}"
    )
    p_double.add_argument(
        "--convention", choices=("+1", "-1", "both"), default="both",
        help="parity-lift square convention to test",
    )
    _add_common_flags(p_double)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=1000)
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
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ClosureLimitError, IsomorphismSizeError, ScalarSizeError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT


if __name__ == "__main__":
    raise SystemExit(main())
