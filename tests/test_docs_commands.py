"""Every ``python -m repro …`` command the docs show parses with the real CLI.

The fenced code blocks of README.md and docs/REPRODUCING.md are what a
reader copies.  Each command found there goes through
:func:`repro.cli.build_parser` — parsed only, never run — so a removed
or renamed flag cannot outlive its option in the docs.  Backslash
continuations are joined, ``#`` comments dropped, and a command is the
part of a shell pipeline (``|``, ``&&``, ``;``) that invokes the module.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
_OPERATORS = {"|", "||", "&&", ";"}


def _documented_commands(text):
    """``(line, argv)`` of every ``python -m repro`` command in *text*'s fenced blocks."""
    out = []
    for block in _FENCE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            segment = []
            for tok in tokens + [";"]:
                if tok not in _OPERATORS:
                    segment.append(tok)
                    continue
                for i in range(len(segment) - 2):
                    if segment[i].startswith("python") and segment[i + 1 : i + 3] == ["-m", "repro"]:
                        out.append((line.strip(), segment[i + 3 :]))
                segment = []
    return out


def test_extractor_handles_continuations_comments_and_pipes():
    text = (
        "```bash\n"
        "python -m repro solve fv1 \\\n    --partition uniform:128+o32   # a comment\n"
        "echo '{}' \\\n    | python -m repro serve -\n"
        "REPRO_RUNS=4 python -m repro experiment T2 && ls\n"
        "pytest -q\n"
        "```\n"
        "outside a fence: python -m repro solve nope --bogus\n"
    )
    argvs = [argv for _, argv in _documented_commands(text)]
    assert argvs == [
        ["solve", "fv1", "--partition", "uniform:128+o32"],
        ["serve", "-"],
        ["experiment", "T2"],
    ]


@pytest.mark.parametrize("doc", ["README.md", "docs/REPRODUCING.md"])
def test_documented_commands_parse(doc):
    commands = _documented_commands((ROOT / doc).read_text())
    assert commands, f"no python -m repro commands found in {doc}"
    parser = build_parser()
    failures = []
    for line, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            failures.append(line)
    assert not failures, f"{doc}: commands the CLI rejects: {failures}"
