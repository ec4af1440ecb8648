import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spincover import cli, groups
from spincover.cli import main

GOLDEN = Path(__file__).parent / "golden"

CONSTANT_FIELD = "0; 0,0,0; 1; 0\n"

SYMMETRIC_FIELD = (
    "-1; 0,0,0; 1; i\n"
    "0; 0,0,0; 3/5+4/5i; 0\n"
    "1; 0,0,0; 0; 1\n"
)

ROTATION_120 = "1/2-1/2i,-1/2-1/2i;1/2-1/2i,1/2+1/2i"
# The six transforms of the benchmark's apply workload, by golden file name.
# Their goldens transform apply_field.txt: t in {-2/3, 0, 2/3} and x in
# {-3/7, -1/5, 0, 1/5, 3/7}^3, closed under negation and cyclic axis
# permutation, lines shuffled and every fifth coordinate unreduced.
APPLY_GOLDEN_TRANSFORMS = {
    "P": "P",
    "T": "T",
    "PT": "PT",
    "half_turn_z": "i,0;0,-i",
    "rotation_120": ROTATION_120,
    "rotation_120_time": ROTATION_120 + "@-1",
}


# Accepted non-canonical lines: a leading "+", "007", "2/4", "1+0i", "+0i",
# "-0", tabs, U+00A0 and U+3000 around scalars and separators, blank and
# whitespace-only lines, CRLF line ends and no newline after the last line.
APPLY_EDGE_FIELD = GOLDEN / "apply_field_edge.txt"

# Malformed fields and the message each exits 2 with, under P and T alike.
# "{digits}" stands for a value one digit longer than Python reads into an
# int, and "{limit}" for that limit.
DIGITS_MESSAGE = "line 1: rational scalar has more than {limit} digits, the most Python reads"
MALFORMED_FIELDS = [
    pytest.param("1/0; 0,0,0; 1; 0\n", "line 1: zero denominator in rational scalar: '1/0'", id="zero-den-t"),
    pytest.param("0; 0,0,2/0; 1; 0\n", "line 1: zero denominator in rational scalar: '2/0'", id="zero-den-x"),
    pytest.param("0; 0,0,0; 1/0+i; 0\n", "line 1: not a complex scalar: '1/0+i'", id="zero-den-re"),
    pytest.param("0; 0,0,0; 1; 1-1/0i\n", "line 1: not a complex scalar: '1-1/0i'", id="zero-den-im"),
    pytest.param("0; 0,0,0; 1/0i; 0\n", "line 1: not a complex scalar: '1/0i'", id="zero-den-pure-im"),
    pytest.param("{digits}; 0,0,0; 1; 0\n", DIGITS_MESSAGE, id="digits-t"),
    pytest.param("0; {digits},0,0; 1; 0\n", DIGITS_MESSAGE, id="digits-x1"),
    pytest.param("0; 0,{digits},0; 1; 0\n", DIGITS_MESSAGE, id="digits-x2"),
    pytest.param("0; 0,0,1/{digits}; 1; 0\n", DIGITS_MESSAGE, id="digits-x3-den"),
    pytest.param("0; 0,0,0; {digits}+i; 0\n", DIGITS_MESSAGE, id="digits-u-re"),
    pytest.param("0; 0,0,0; 1+{digits}i; 0\n", DIGITS_MESSAGE, id="digits-u-im"),
    pytest.param("0; 0,0,0; 1; 1/{digits}-i\n", DIGITS_MESSAGE, id="digits-v-re-den"),
    pytest.param("0; 0,0,0; 1; -{digits}i\n", DIGITS_MESSAGE, id="digits-v-im"),
    pytest.param("0; 0,0,0; 1; 1-1/{digits}i\n", DIGITS_MESSAGE, id="digits-v-im-den"),
    pytest.param("0; 0,0,0; 1 + i; 0\n", "line 1: not a complex scalar: '1 + i'", id="inner-space-complex"),
    pytest.param("0; 0,0,1 /2; 1; 0\n", "line 1: not a rational scalar: '1 /2'", id="inner-space-rational"),
    pytest.param("0; 0,0,0; 1; 1\u00a0i\n", "line 1: not a complex scalar: '1\\xa0i'", id="inner-nbsp"),
    pytest.param("\u0661; 0,0,0; 1; 0\n", "line 1: not a rational scalar: '\u0661'", id="arabic-indic-digit"),
    pytest.param("0; 0,0,0; \uff11; 0\n", "line 1: not a complex scalar: '\uff11'", id="fullwidth-digit"),
    pytest.param("0; 0,0,0; 1/-2i; 0\n", "line 1: not a complex scalar: '1/-2i'", id="slash-minus"),
    pytest.param("0; 0,0,0; 1+-2i; 0\n", "line 1: not a complex scalar: '1+-2i'", id="plus-minus"),
    pytest.param("0; 0,0,0; 1i1; 0\n", "line 1: not a complex scalar: '1i1'", id="inner-i"),
    pytest.param("0; 0.5,0,0; 1; 0\n", "line 1: not a rational scalar: '0.5'", id="decimal-point"),
    pytest.param("0; 0,0,0; ; 0\n", "line 1: not a complex scalar: ''", id="empty-scalar"),
    pytest.param("0; 0,0,0\n", "line 1: expected 't; x1,x2,x3; u; v', got '0; 0,0,0'", id="two-parts"),
    pytest.param(
        "0; 0,0,0; 1; 0; 1\n", "line 1: expected 't; x1,x2,x3; u; v', got '0; 0,0,0; 1; 0; 1'", id="five-parts"
    ),
    pytest.param(
        "{digits}; 0,0,0\n",
        "line 1: expected 't; x1,x2,x3; u; v', got '1" + "0" * 39 + "'... (4308 characters)",
        id="two-parts-digits",
    ),
    pytest.param("0; 0,0; 1; 0\n", "line 1: expected three spatial coordinates, got '0,0'", id="two-coordinates"),
    pytest.param(
        "0; 0,0,0,0; 1; 0\n", "line 1: expected three spatial coordinates, got '0,0,0,0'", id="four-coordinates"
    ),
    pytest.param("0; 0,0,0; 1; 0\n0; 0,0,0; 0; 1\n", "line 2: duplicate event (0; 0,0,0)", id="duplicate"),
    pytest.param(
        "1/2; 0,0,0; 1; 0\n\n2/4; 0,0,0; 0; 1\n", "line 3: duplicate event (1/2; 0,0,0)", id="duplicate-unreduced"
    ),
    pytest.param(
        "-0; +0,0/3,0; 1; 0\n 0 ;0,0,0;i;i\n", "line 2: duplicate event (0; 0,0,0)", id="duplicate-spaced"
    ),
    pytest.param("0; 0,0,0; 1; 0\n1; 0,0,0; 1i1; 0\n", "line 2: not a complex scalar: '1i1'", id="bad-after-good"),
    pytest.param(
        "0;\f0,0,0; 1; 0\x85\u2028\n1; 0,0,0; 1i1; 0\n",
        "line 2: not a complex scalar: '1i1'",
        id="line-ends-only-at-newline",
    ),
    pytest.param(
        "0; 0,0,0; 1; 0\n\ufeff1; 0,0,0; 1; 0\n",
        "line 2: not a rational scalar: '\\ufeff1'",
        id="byte-order-mark-after-start",
    ),
]


# Golden `doublegroup 3` output, text and JSON; the CLI output is byte-stable.
DOUBLEGROUP_3_TEXT = (
    "n=3 parity_square=+1: isomorphic (matches the expected verdict)\n"
    "n=3 parity_square=-1: not isomorphic (matches the expected verdict)\n"
    "  element-order multiset: [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6] vs [1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 6, 6]\n"
)

DOUBLEGROUP_3_JSON = (
    '{\n'
    '  "schema_version": 1,\n'
    '  "verdicts": [\n'
    '    {\n'
    '      "convention": 1,\n'
    '      "isomorphic": true,\n'
    '      "n": 3,\n'
    '      "paper_claim_match": true,\n'
    '      "witness": [\n'
    '        0,\n'
    '        1,\n'
    '        2,\n'
    '        3,\n'
    '        4,\n'
    '        5,\n'
    '        6,\n'
    '        7,\n'
    '        8,\n'
    '        9,\n'
    '        10,\n'
    '        11\n'
    '      ]\n'
    '    },\n'
    '    {\n'
    '      "convention": -1,\n'
    '      "invariant_used": "element-order multiset: [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6] vs [1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 6, 6]",\n'
    '      "isomorphic": false,\n'
    '      "n": 3,\n'
    '      "paper_claim_match": true\n'
    '    }\n'
    '  ]\n'
    '}\n'
)


# One small call per subcommand, for the checks of the one writer.
EMIT_CALLS = {
    "apply": ["apply", "PT", str(GOLDEN / "apply_field.txt")],
    "table": ["table", "GPT_hat"],
    "iso": ["iso", "Z2xZ2xZ2", "Z2xZ4"],
    "doublegroup": ["doublegroup", "3"],
    "verify": ["verify", "cover", "--seed", "42", "--samples", "5"],
}


def write_field(tmp_path, text, name="field.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestApply:
    def test_parity_on_constant_field(self, tmp_path, capsys):
        field = write_field(tmp_path, CONSTANT_FIELD)
        out = tmp_path / "out.txt"
        code = main(["apply", "P", field, "--out", str(out)])
        assert code == 0
        assert out.read_text() == "0; 0,0,0; i; 0\n"
        info = capsys.readouterr().err
        assert "i,0;0,i" in info
        assert "-1,0,0;0,-1,0;0,0,-1" in info

    def test_time_reversal_formula(self, tmp_path):
        field = write_field(tmp_path, "0; 0,0,0; 1; i\n")
        out = tmp_path / "out.txt"
        assert main(["apply", "T", field, "--out", str(out)]) == 0
        assert out.read_text() == "0; 0,0,0; i; 1\n"

    def test_parity_time(self, tmp_path):
        field = write_field(tmp_path, CONSTANT_FIELD)
        out = tmp_path / "out.txt"
        assert main(["apply", "PT", field, "--out", str(out)]) == 0
        assert out.read_text() == "0; 0,0,0; 0; i\n"

    def test_improper_antiunitary_pair_applies_its_matrix(self, tmp_path):
        # C@-1 with det C = -1 applies C K: here i * conj((1, i)) = (i, 1)
        field = write_field(tmp_path, "0; 0,0,0; 1; i\n")
        out = tmp_path / "out.txt"
        assert main(["apply", "i,0;0,i@-1", field, "--out", str(out)]) == 0
        assert out.read_text() == "0; 0,0,0; i; 1\n"

    @pytest.mark.parametrize(
        "transform, projection",
        [
            ("P", "-1,0,0;0,-1,0;0,0,-1 @ +1"),
            ("T", "1,0,0;0,1,0;0,0,1 @ -1"),
            ("PT", "-1,0,0;0,-1,0;0,0,-1 @ -1"),
        ],
    )
    def test_projection_line_is_the_rebind(self, tmp_path, capsys, transform, projection):
        # One nonzero sample, at (1; 1,2,3), among zeros on its orbit under the
        # flips: the transform moves it to that event's image under the printed
        # projection.
        bump = (1, 1, 2, 3)
        lines = [
            f"{s}; {r},{2 * r},{3 * r}; {int((s, r) == (1, 1))}; 0\n" for s in (-1, 1) for r in (-1, 1)
        ]
        field = write_field(tmp_path, "".join(lines))
        assert main(["apply", transform, field]) == 0
        captured = capsys.readouterr()
        assert f"spacetime projection: {projection}" in captured.err.splitlines()
        spatial, sign = projection.split(" @ ")
        rows = [[int(entry) for entry in row.split(",")] for row in spatial.split(";")]
        x = [sum(r * c for r, c in zip(row, bump[1:])) for row in rows]
        moved = [line.split("; ")[:2] for line in captured.out.splitlines() if not line.endswith("; 0; 0")]
        assert moved == [[str(int(sign) * bump[0]), f"{x[0]},{x[1]},{x[2]}"]]

    def test_identity_matrix_literal_round_trips_bytes(self, tmp_path):
        field = write_field(tmp_path, SYMMETRIC_FIELD)
        out = tmp_path / "out.txt"
        assert main(["apply", "1,0;0,1", field, "--out", str(out)]) == 0
        assert out.read_text() == SYMMETRIC_FIELD

    def test_g0_pair_syntax(self, tmp_path):
        # matrix@-1 enters the antiunitary sector: T = 0,-1;1,0 at sign -1
        field = write_field(tmp_path, "0; 0,0,0; 1; i\n")
        out = tmp_path / "out.txt"
        assert main(["apply", "0,-1;1,0@-1", field, "--out", str(out)]) == 0
        assert out.read_text() == "0; 0,0,0; i; 1\n"

    def test_json_envelope(self, tmp_path, capsys):
        field = write_field(tmp_path, CONSTANT_FIELD)
        assert main(["apply", "P", field, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["matrix"] == "i,0;0,i"
        assert payload["spacetime_projection"]["time_sign"] == 1
        assert payload["field"] == ["0; 0,0,0; i; 0"]

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        field = write_field(tmp_path, "not a field\n")
        assert main(["apply", "P", field]) == 2
        assert "line 1" in capsys.readouterr().err
        field = write_field(tmp_path, "0; 0,0,0; 1/0; 0\n", "zero.txt")
        assert main(["apply", "P", field]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        field = write_field(tmp_path, CONSTANT_FIELD, "constant.txt")
        assert main(["apply", "1/0,0;0,1", field]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_oversized_input_scalar_is_input_error(self, tmp_path, capsys, int_digit_limit):
        # One more digit than Python reads into an int.
        digits = "1" + "0" * int_digit_limit
        for line in (
            f"0; 0,0,0; {digits}; 0",
            f"0; 0,0,0; 1+{digits}i; 0",
            f"0; 0,0,0; {digits}+i; 0",
        ):
            field = write_field(tmp_path, line + "\n")
            assert main(["apply", "P", field]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "more than 4300 digits" in err
            assert digits not in err

    def test_unprintable_result_scalar_is_resource_limit(self, tmp_path, capsys, int_digit_limit):
        # u = 1/(9 * 10^4299) prints; the rotation doubles its denominator
        # to 18 * 10^4299, one digit more than Python writes.
        field = write_field(tmp_path, f"0; 0,0,0; 1/9{'0' * (int_digit_limit - 1)}; 0\n")
        for fmt in ("text", "json"):
            assert main(["apply", ROTATION_120, field, "--format", fmt]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1].startswith("resource limit: ")

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("name", list(APPLY_GOLDEN_TRANSFORMS))
    def test_golden_field(self, capsys, name, fmt, suffix):
        field = str(GOLDEN / "apply_field.txt")
        assert main(["apply", APPLY_GOLDEN_TRANSFORMS[name], field, "--format", fmt]) == 0
        golden = GOLDEN / f"apply_{name}.{suffix}"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("transform", ["P", "T"])
    def test_golden_edge_field(self, capsys, transform, fmt, suffix):
        assert main(["apply", transform, str(APPLY_EDGE_FIELD), "--format", fmt]) == 0
        golden = GOLDEN / f"apply_edge_{transform}.{suffix}"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_byte_order_mark_and_crlf_print_the_plain_bytes(self, tmp_path, capsys):
        plain = GOLDEN / "apply_field.txt"
        assert main(["apply", "P", str(plain)]) == 0
        expected = capsys.readouterr().out
        marked = tmp_path / "bom.txt"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["apply", "P", str(marked)]) == 0
        assert capsys.readouterr().out == expected

    def test_edge_field_keeps_its_bytes(self):
        raw = APPLY_EDGE_FIELD.read_bytes()
        assert b"\r\n" in raw and "\u00a0".encode() in raw and "\u3000".encode() in raw
        assert not raw.endswith(b"\n")

    @pytest.mark.parametrize("transform", ["P", "T"])
    @pytest.mark.parametrize("text, message", MALFORMED_FIELDS)
    def test_malformed_field_message(self, tmp_path, capsys, request, transform, text, message):
        if "{digits}" in text:
            limit = request.getfixturevalue("int_digit_limit")
            text = text.replace("{digits}", "1" + "0" * limit)
            message = message.replace("{limit}", str(limit))
        field = write_field(tmp_path, text)
        assert main(["apply", transform, field]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {field}: {message}\n"

    def test_missing_fractional_event(self, tmp_path, capsys):
        field = write_field(tmp_path, "2/6; 2/4,-2/7,0; 1; 0\n")
        missing = {
            "T": "-1/3; 1/2,-2/7,0",
            "P": "1/3; -1/2,2/7,0",
            "PT": "-1/3; -1/2,2/7,0",
            "i,0;0,-i": "1/3; -1/2,2/7,0",
            ROTATION_120: "1/3; 0,1/2,-2/7",
        }
        for token, event in missing.items():
            assert main(["apply", token, field]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: field domain is missing the event ({event})\n"

    def test_empty_field_prints_nothing(self, tmp_path, capsys):
        for text in ("", "\n\n"):
            field = write_field(tmp_path, text)
            assert main(["apply", "P", field]) == 0
            assert capsys.readouterr().out == ""
            assert main(["apply", "P", field, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["field"] == []

    def test_closure_violation_is_input_error(self, tmp_path, capsys):
        field = write_field(tmp_path, "1; 0,0,0; 1; 0\n")
        assert main(["apply", "T", field]) == 2
        assert "missing the event" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        binary = tmp_path / "binary.dat"
        binary.write_bytes(b"\x7fELF\x02\x01\xd0\xff\n")
        for path in (tmp_path / "nope.txt", tmp_path, binary):
            assert main(["apply", "P", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_bad_transform(self, tmp_path):
        field = write_field(tmp_path, CONSTANT_FIELD)
        assert main(["apply", "1,1;0,1", field]) == 2
        assert main(["apply", "i,0;0,i@0", field]) == 2
        assert main(["apply", "i,0;0,i@", field]) == 2

    def test_bad_transform_message(self, tmp_path, capsys):
        field = write_field(tmp_path, CONSTANT_FIELD)
        assert main(["apply", "i,0;0,2/4x", field]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad transform 'i,0;0,2/4x': not a complex scalar: '2/4x'\n"

    def test_wrong_row_count_message(self, tmp_path, capsys):
        field = write_field(tmp_path, CONSTANT_FIELD)
        assert main(["apply", "1,0", field]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad transform '1,0': expected 2 rows separated by ';', got 1\n"

    @pytest.mark.parametrize(
        "transform, start",
        [
            ("1,0;0," + "x" * 4994, "error: bad transform '1,0;0," + "x" * 34 + "'... (5000 characters): "),
            ("i,0;0,i@" + "1" * 4992, "error: time sign must be +1 or -1, got '" + "1" * 40 + "'... (4992 characters)"),
        ],
        ids=["matrix", "time-sign"],
    )
    def test_long_transform_echo_is_bounded(self, tmp_path, capsys, transform, start):
        field = write_field(tmp_path, CONSTANT_FIELD)
        assert len(transform) == 5000
        assert main(["apply", transform, field]) == 2
        err = capsys.readouterr().err
        assert err.startswith(start)
        assert err.count("\n") == 1 and len(err) <= 200, err

    def test_inverse_round_trip(self, tmp_path):
        original = "-2; 0,0,0; 1/3-i; 0\n0; 0,0,0; 1; i\n2; 0,0,0; 0; 2/7\n"
        field = write_field(tmp_path, original)
        once = tmp_path / "once.txt"
        back = tmp_path / "back.txt"
        matrix = "3/5+4/5i,0;0,3/5-4/5i"
        inverse = "3/5-4/5i,0;0,3/5+4/5i"
        assert main(["apply", matrix, field, "--out", str(once)]) == 0
        assert main(["apply", inverse, str(once), "--out", str(back)]) == 0
        assert back.read_text() == original


class TestTable:
    def test_named_spinor_group(self, capsys):
        assert main(["table", "GPT_hat"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[0].split() == ["P", "T", "PT", "-P", "-T", "-PT", "-I"]
        assert lines[1].split() == ["P", "-I", "PT", "-T", "I", "-PT", "T", "-P"]

    def test_named_spacetime_group(self, capsys):
        assert main(["table", "GPT_spacetime"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines[0].split() == ["P", "T", "PT"]
        assert lines[1].split() == ["P", "1", "PT", "T"]

    @pytest.mark.parametrize("name", ["GPT_hat"])
    def test_named_golden(self, capsys, name):
        assert main(["table", name]) == 0
        golden = GOLDEN / f"table_{name}.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_generated_table(self, capsys):
        assert main(["table", "--gen=-1,0;0,-1"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 3  # header + identity row + generator row

    @pytest.mark.parametrize(
        "generators, table",
        [(["1,0;0,1"], [[0]]), (["-1,0;0,-1", "-1,0;0,-1"], [[0, 1], [1, 0]])],
        ids=["identity", "minus_identity_twice"],
    )
    def test_degenerate_generators(self, capsys, generators, table):
        assert main(["table", *(f"--gen={g}" for g in generators), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["elements"] == [f"e{i}" for i in range(len(table))]
        assert payload["table"] == table

    def test_json_table(self, capsys):
        assert main(["table", "GPT_hat", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["elements"] == ["P", "T", "PT", "-P", "-T", "-PT", "-I", "I"]
        assert len(payload["table"]) == 8

    def test_generated_octahedral_golden(self, capsys):
        # Pins the closure order: identity, the generators as given, then
        # each new product in the order the breadth-first walk finds it.
        generators = ["1/2-1/2i,-1/2-1/2i;1/2-1/2i,1/2+1/2i", "0,-1;1,0", "i,0;0,i"]
        argv = ["table", *(f"--gen={g}" for g in generators), "--format", "json"]
        assert main(argv) == 0
        golden = GOLDEN / "table_gen_octahedral.json"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_requires_exactly_one_source(self, capsys):
        assert main(["table"]) == 2
        assert main(["table", "GPT_hat", "--gen", "1,0;0,1"]) == 2

    def test_unknown_name(self):
        assert main(["table", "GPT_bogus"]) == 2

    def test_max_order_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--gen=i,0;0,i", "--max-order", "5"])
        assert exc.value.code == 2

    def test_zero_denominator_is_input_error(self, capsys):
        assert main(["table", "--gen", "1/0,0;0,1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_generator_message(self, capsys):
        assert main(["table", "--gen", "1,0;0,1/0+i"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad generator: not a complex scalar: '1/0+i'\n"

    def test_wrong_row_length_message(self, capsys):
        assert main(["table", "--gen=1,0,0;0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad generator: expected 2 entries per row, got 3\n"

    def test_infinite_order_generator_is_refused(self, capsys):
        # diag(a, conj a) with a = 3/5+4/5i, which is no root of unity
        argv = ["table", "--gen", "i,0;0,i", "--gen", "3/5+4/5i,0;0,3/5-4/5i"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: generator 3/5+4/5i,0;0,3/5-4/5i ")
        assert "infinite order" in err

    def test_infinite_group_is_refused(self, capsys):
        # two order-4 generators whose product has trace -8/5, so infinite order
        argv = ["table", "--gen", "0,i;i,0", "--gen", "3/5i,4/5i;4/5i,-3/5i"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: closure passed 48 elements")
        assert "infinite" in err


class TestIso:
    def test_spinor_group_vs_z4xz2(self, capsys):
        assert main(["iso", "GPT_hat", "Z4xZ2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isomorphic"] is True
        assert "witness" in payload

    def test_spacetime_group_vs_klein(self, capsys):
        assert main(["iso", "GPT_spacetime", "Z2xZ2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["isomorphic"] is True

    def test_z4_vs_klein(self, capsys):
        assert main(["iso", "Z4", "Z2xZ2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isomorphic"] is False
        assert payload["order_multisets"]["group_a"] == [1, 2, 4, 4]
        assert payload["order_multisets"]["group_b"] == [1, 2, 2, 2]
        assert payload["refuted_by"] == {
            "invariant": "element-order multiset",
            "group_a": [1, 2, 4, 4],
            "group_b": [1, 2, 2, 2],
            "search_nodes": 0,
        }

    def test_dihedral_vs_dicyclic(self, capsys):
        assert main(["iso", "Dih8", "Dic8", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["isomorphic"] is False

    def test_z4_vs_klein_text(self, capsys):
        assert main(["iso", "Z4", "Z2xZ2"]) == 0
        assert capsys.readouterr().out == (
            "Z4 vs Z2xZ2: not isomorphic\n"
            "element-order multiset: [1, 2, 4, 4] vs [1, 2, 2, 2]\n"
        )

    def test_equal_multisets_text_names_the_invariant(self, capsys):
        assert main(["iso", "Dic8xZ2", "Z4xZ4"]) == 0
        assert capsys.readouterr().out == (
            "Dic8xZ2 vs Z4xZ4: not isomorphic\nabelian: False vs True\n"
        )

    @pytest.mark.parametrize(
        "group_a, group_b",
        [
            ("Z4xZ4xZ2xZ2", "Dic8xZ2xZ2xZ2"),
            ("Dic8xZ2xZ2xZ2", "Z4xZ4xZ2xZ2"),
            ("Z4xZ4xZ4xZ2", "Dic8xZ4xZ2xZ2"),
            ("Dic8xZ4xZ2xZ2", "Z4xZ4xZ4xZ2"),
            ("Z4xZ4xZ4xZ2xZ2", "Dic8xZ4xZ2xZ2xZ2"),
            ("Dic8xZ4xZ2xZ2xZ2", "Z4xZ4xZ4xZ2xZ2"),
        ],
    )
    def test_equal_multisets_refuted_without_search(self, capsys, group_a, group_b):
        # Orders 64, 128 and 256, one side abelian: equal element-order
        # multisets, so only the abelian rung can decide, with no search node.
        assert main(["iso", group_a, group_b, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isomorphic"] is False
        multisets = payload["order_multisets"]
        assert multisets["group_a"] == multisets["group_b"]
        assert payload["refuted_by"] == {
            "invariant": "abelian",
            "group_a": group_a.startswith("Z"),
            "group_b": group_b.startswith("Z"),
            "search_nodes": 0,
        }

    def test_product_with_dihedral_factor(self, capsys):
        assert main(["iso", "Dih8xZ2", "Z2xDih8", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isomorphic"] is True
        assert len(payload["witness"]) == 16

    def test_size_limit_exit_code(self, capsys):
        assert main(["iso", "Z32xZ16", "Z32xZ16"]) == 3
        assert capsys.readouterr().err == (
            "resource limit: Z32xZ16 has order 512; isomorphism search supports orders up to 256\n"
        )

    def test_node_budget_exit_code(self, capsys, monkeypatch):
        assert main(["iso", "Dih16", "Dih16"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(groups, "ISOMORPHISM_NODE_BUDGET", 2)
        assert main(["iso", "Dih16", "Dih16"]) == 3
        assert capsys.readouterr().err == (
            "resource limit: isomorphism search passed its budget of 2 nodes at order 16\n"
        )

    def test_bad_spec(self, capsys):
        assert main(["iso", "Q8", "Z8"]) == 2
        assert main(["iso", "Dih3", "Z3"]) == 2
        assert main(["iso", "Dic6", "Z6"]) == 2
        for spec in ("Z+2", "Z\u0663", "Z1_000", "Dih+8", "Dih3xZ2", "Z2xDic6", "Q8xZ2",
                     "Dic8x", "xZ2", "Dic8xDih", "Z2xY2"):
            assert main(["iso", spec, "Z2"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_digit_limit_spec_is_resource_limit(self, capsys, int_digit_limit):
        # An order one digit longer than Python reads is over the cap, and
        # is refused without reading it.
        spec = "Z1" + "0" * int_digit_limit
        assert main(["iso", spec, "Z2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"resource limit: {spec[:40]}... ({len(spec)} characters) has order at least "
            "10^40; isomorphism search supports orders up to 256\n"
        )

    @pytest.mark.parametrize(
        "spec, code",
        [("Z2x" * 1666 + "Z2", 3), ("Q" * 5000, 2), ("Z2x" * 1666 + "Z0", 2)],
        ids=["over-size", "unknown-factor", "zero-order"],
    )
    def test_long_spec_echo_is_bounded(self, capsys, spec, code):
        assert len(spec) == 5000
        assert main(["iso", spec, "Z2"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) <= 200, err
        assert "... (5000 characters)" in err

    @pytest.mark.parametrize(
        "group_a, group_b",
        [
            ("GPT_hat", "Z4xZ2"),
            ("GPT_spacetime", "Z2xZ2"),
            ("Z2xZ4", "Z4xZ2"),
            ("Dih4", "Z2xZ2"),
            ("Dic4", "Z4"),
            ("Z6", "Z2xZ3"),
            ("Z12", "Z4xZ3"),
            # Order 256 from uneven factors, with a witness that is not the identity.
            ("Z2xZ4xZ32", "Z32xZ4xZ2"),
        ],
    )
    def test_golden_witness(self, capsys, group_a, group_b):
        assert main(["iso", group_a, group_b, "--format", "json"]) == 0
        golden = GOLDEN / f"iso_{group_a}_{group_b}.json"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "group_a, group_b", [("Dih8xZ2xZ2", "Dih8xZ2xZ2"), ("Z2xZ2xZ2", "Z2xZ4")]
    )
    def test_golden_text(self, capsys, group_a, group_b):
        # The text witness prints the nested ((a,b),c) labels of a product.
        assert main(["iso", group_a, group_b]) == 0
        golden = GOLDEN / f"iso_{group_a}_{group_b}.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_size_cap_checked_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("group table built for an over-size spec")

        for name in ("cyclic", "dihedral", "dicyclic", "direct_product"):
            monkeypatch.setattr(cli, name, refuse)
        assert main(["iso", "Z300", "Z300"]) == 3
        assert main(["iso", "Z4", "Z32xZ16"]) == 3
        assert main(["iso", "GPT_hat", "Z2x" * 8 + "Z2"]) == 3
        assert main(["iso", "Dih512", "Dic512"]) == 3
        assert main(["iso", "Dic8xZ4xZ4xZ4", "Z2"]) == 3
        assert main(["iso", "Dih3xDic256", "Z2"]) == 3


class TestDoubleGroup:
    def test_n3_json(self, capsys):
        assert main(["doublegroup", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        verdicts = {v["convention"]: v for v in payload["verdicts"]}
        assert verdicts[1]["isomorphic"] is True
        assert verdicts[-1]["isomorphic"] is False
        assert all(v["paper_claim_match"] for v in payload["verdicts"])

    def test_single_convention(self, capsys):
        assert main(["doublegroup", "3", "--convention", "-1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["verdicts"]) == 1
        assert payload["verdicts"][0]["convention"] == -1

    def test_out_of_range(self, capsys):
        assert main(["doublegroup", "13"]) == 2
        assert main(["doublegroup", "1"]) == 2

    def test_golden_n3(self, capsys):
        assert main(["doublegroup", "3"]) == 0
        assert capsys.readouterr().out == DOUBLEGROUP_3_TEXT
        assert main(["doublegroup", "3", "--format", "json"]) == 0
        assert capsys.readouterr().out == DOUBLEGROUP_3_JSON

    @pytest.mark.parametrize("n", range(2, 13))
    def test_golden_json(self, capsys, n):
        assert main(["doublegroup", str(n), "--format", "json"]) == 0
        golden = GOLDEN / f"doublegroup_n{n}.json"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_help_states_the_axis_range(self, capsys, monkeypatch):
        # The range in the help text is read from the two constants.
        monkeypatch.setattr(cli, "DOUBLE_GROUP_MAX_N", 64)
        with pytest.raises(SystemExit) as exc:
            main(["doublegroup", "--help"])
        assert exc.value.code == 0
        assert "principal axis order, 2..64" in capsys.readouterr().out

    def test_tolerance_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["doublegroup", "3", "--tolerance", "0.5"])
        assert exc.value.code == 2


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "cover", "--seed", "7", "--samples", "40"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_json_report_deterministic(self, capsys):
        args = ["verify", "semidirect", "--seed", "42", "--samples", "30", "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema_version"] == 1
        assert payload["all_pass"] is True

    def test_different_seeds_change_nothing_about_validity(self, capsys):
        assert main(["verify", "ptgroup", "--seed", "99", "--samples", "30"]) == 0
        capsys.readouterr()

    def test_all_runs(self, capsys):
        assert main(["verify", "all", "--seed", "1", "--samples", "20"]) == 0
        payload = capsys.readouterr().out
        assert "all suites passed" in payload

    def test_samples_must_be_positive(self, capsys):
        assert main(["verify", "cover", "--samples", "0"]) == 2
        assert main(["verify", "cover", "--samples", "-5"]) == 2
        captured = capsys.readouterr()
        assert "all suites passed" not in captured.out
        assert "--samples" in captured.err

    def test_samples_over_the_cap_are_refused_before_sampling(self, capsys, monkeypatch):
        def run_suites(*args):
            raise AssertionError("run_suites ran")

        monkeypatch.setattr(cli, "run_suites", run_suites)
        assert cli.VERIFY_SAMPLE_LIMIT == 100_000
        assert main(["verify", "all", "--samples", "100000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource limit: --samples 100000000; verify takes at most 100000 samples\n"
        assert main(["verify", "cover", "--samples", "100001"]) == 3
        assert capsys.readouterr().err.startswith("resource limit: --samples 100001; ")

    def test_byte_identical_across_processes(self):
        cmd = [
            sys.executable, "-m", "spincover.cli",
            "verify", "cover", "--seed", "42", "--samples", "25", "--format", "json",
        ]
        runs = [subprocess.run(cmd, capture_output=True, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()


def test_python_dash_m_is_the_console_script(capsys):
    # The child imports the same spincover as this process.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "spincover", "table", "GPT_hat"], capture_output=True, text=True, check=True, env=env
    )
    assert main(["table", "GPT_hat"]) == 0
    assert run.stdout == capsys.readouterr().out
    assert run.stdout.strip() and run.stderr == ""


class TestOutput:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", list(EMIT_CALLS))
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, command, fmt):
        argv = EMIT_CALLS[command] + ["--format", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        written = capsys.readouterr()
        assert out.read_bytes() == printed.out.encode("utf-8")
        assert written.out == "" and written.err == printed.err
        if fmt == "json":
            assert json.loads(printed.out)["schema_version"] == 1

    @pytest.mark.parametrize("command", list(EMIT_CALLS))
    def test_unwritable_out_is_input_error(self, tmp_path, capsys, command):
        # Only apply prints stderr lines of its own, and before the error.
        argv = EMIT_CALLS[command]
        assert main(argv) == 0
        header = capsys.readouterr().err
        out = tmp_path / "missing" / "x"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(header + "error: ") and err.count("\n") == header.count("\n") + 1
        assert not out.exists()
