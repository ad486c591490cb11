"""Every `flowpoly ...` example in the README's sh blocks runs and exits 0,
so an example cannot keep an option or a spec the CLI no longer takes."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from flowpoly import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def examples() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.strip().startswith("flowpoly ")
    ]


def test_readme_has_cli_examples():
    assert len(examples()) >= 10


@pytest.mark.parametrize("line", examples())
def test_readme_example_exits_0(capsys, line):
    argv = shlex.split(line, comments=True)
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err
