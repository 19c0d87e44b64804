"""The README's command-line examples are accepted by the real parser.

Each ``python3 -m multiecho`` line of the README's ``sh`` blocks is parsed
with :func:`multiecho.cli.build_parser`, and its ``json`` config is read by
the config reader every command uses; nothing is run.
"""

import re
import shlex
from pathlib import Path

import pytest

from multiecho.cli import _load_config, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
PREFIX = ["python3", "-m", "multiecho"]


def readme_commands() -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.DOTALL)
    return [line.strip() for block in blocks for line in block.splitlines()
            if shlex.split(line)[:3] == PREFIX]


def test_readme_shows_every_command():
    shown = {shlex.split(line)[3] for line in readme_commands()}
    assert shown == {"phantom", "mask", "simulate", "reconstruct", "evaluate", "export",
                     "sweep"}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    args = build_parser().parse_args(shlex.split(line)[3:])
    assert callable(args.func)


def test_readme_config_is_accepted(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "config.json"
    path.write_text(blocks[0])
    problems = []
    assert _load_config(str(path), problems) and problems == []
