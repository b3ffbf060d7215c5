"""The README's examples, run as doctests so they stay true, and its command
lines, parsed as the CLI parses them."""

import doctest
import re
from pathlib import Path

import pytest

from markovnorm import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_command_lines_parse():
    # A line of an sh block that runs markovnorm, without its comment and its
    # redirection, so that no example shows a flag the CLI does not take.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    words = [line.split("#")[0].split(">")[0].split()
             for block in blocks for line in block.splitlines()]
    argvs = [w[1:] for w in words if w[:1] == ["markovnorm"]]
    assert len(argvs) >= 10
    for argv in argvs:
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"markovnorm {' '.join(argv)} does not parse")
