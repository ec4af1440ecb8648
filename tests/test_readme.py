"""README's examples run as written.

Every ``spincover`` line of README's ``sh`` blocks runs through
:func:`spincover.cli.main` in a directory that holds the golden apply field
as ``field.txt``, and must exit 0.  A trailing ``# comment`` on such a line
states what the output shows, and :data:`COMMENT_CHECKS` checks it.  The
``python`` block runs as well.
"""

import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from spincover.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FIELD = Path(__file__).parent / "golden" / "apply_field.txt"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def _table_order(out: str) -> int:
    """The order of a group printed by `table`, whose identity row is omitted."""
    return len(out.splitlines()[0].split()) + 1


# Each trailing comment of an example, and what it says of the example's stdout.
COMMENT_CHECKS = {
    "the order-8 group of the P and T matrices": lambda out: _table_order(out) == 8,
    "the Klein group of P and T downstairs": lambda out: _table_order(out) == 4,
    "order 48, the bound": lambda out: len(json.loads(out)["elements"]) == 48,
    "isomorphic, witness printed": lambda out: ": isomorphic\nwitness: " in out,
    "element-order multiset: [1, 2, 4, 4] vs [1, 2, 2, 2]": (
        lambda out: out.endswith(": not isomorphic\nelement-order multiset: [1, 2, 4, 4] vs [1, 2, 2, 2]\n")
    ),
    "equal multisets; abelian: False vs True": lambda out: out.endswith(": not isomorphic\nabelian: False vs True\n"),
}


def _examples() -> list[tuple[list[str], str]]:
    """(argv after `spincover`, trailing comment or "") for each example."""
    examples = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            if argv and argv[0] == "spincover":
                examples.append((argv[1:], comment.strip()))
    return examples


EXAMPLES = _examples()


def test_every_example_is_found():
    assert {argv[0] for argv, _ in EXAMPLES} == {"apply", "table", "iso", "doublegroup", "verify"}
    assert {comment for _, comment in EXAMPLES if comment} == set(COMMENT_CHECKS)


@pytest.mark.parametrize("argv, comment", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_sh_example(tmp_path, monkeypatch, capsys, argv, comment):
    shutil.copyfile(FIELD, tmp_path / "field.txt")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if comment:
        assert COMMENT_CHECKS[comment](out), out


def test_python_example(tmp_path, monkeypatch):
    (block,) = _blocks("python")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["witness"] is not None
