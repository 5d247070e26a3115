"""The README's CLI examples: each `$ fslab ...` line, run in process, exits
as shown and prints what is shown."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from fslab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, int, str]]:
    """(command, exit code, shown output) for each `$ fslab` line of the
    first code block under `## CLI`. The exit code is the one a following
    `$ echo $?` shows, or 0."""
    text = README.read_text()
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert block, "README has no ## CLI code block"
    examples = []
    for chunk in re.split(r"^(?=\$ fslab )", block.group(1), flags=re.MULTILINE):
        if not chunk.startswith("$ fslab "):
            continue
        command, _, rest = chunk.partition("\n")
        shown, _, echo = rest.partition("$ echo $?\n")
        code = int(echo.split("\n", 1)[0]) if echo else 0
        examples.append((command[2:], code, shown.rstrip("\n") + "\n"))
    assert examples, "README's ## CLI block has no $ fslab examples"
    return examples


EXAMPLES = _examples()


@pytest.mark.parametrize("command,code,shown", EXAMPLES, ids=[c for c, _, _ in EXAMPLES])
def test_readme_cli_example(capsys, command, code, shown):
    got = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    out = captured.out + captured.err
    assert got == code, out
    if "..." in shown:
        assert out.startswith(shown.split("...", 1)[0])
    else:
        assert out == shown
