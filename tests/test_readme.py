"""The README's examples are accepted by the real package.

Each ``python3 -m multiecho`` line of the README's ``sh`` blocks is parsed
with :func:`multiecho.cli.build_parser`, its ``json`` config is read by the
config reader every command uses, and its ``python`` quick start is compiled
and every name it takes from the package is resolved, as is every
`` `me.<name>` `` its prose mentions; nothing is run.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

import multiecho as me
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


def test_readme_quick_start_names_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    tree = ast.parse(blocks[0])
    compile(tree, "README.md", "exec")
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "me"}
    assert used and [name for name in sorted(used) if not hasattr(me, name)] == []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            assert all(hasattr(module, alias.name) for alias in node.names)


def test_readme_prose_names_resolve():
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    named = set(re.findall(r"`me\.(\w+)", prose))
    assert named and [name for name in sorted(named) if not hasattr(me, name)] == []
