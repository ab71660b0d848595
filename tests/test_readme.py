"""The README's library examples run as written, its library section calls
only real functions, and its CLI sections name only real flags."""

from __future__ import annotations

import builtins
import importlib
import pkgutil
import re
from pathlib import Path

from test_oracle import walkthrough

import direns
from direns import cli
from direns.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def library_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", library_section(), flags=re.DOTALL)


def test_library_use_calls_only_real_functions():
    # Every name the section writes as `name(` is an attribute of direns, of
    # one of its modules or, as `len(`, a builtin.
    modules = [builtins, direns] + [importlib.import_module(f"direns.{m.name}")
                                    for m in pkgutil.iter_modules(direns.__path__)]
    called = set(re.findall(r"`(\w+)\(", library_section()))
    assert "generate" in called
    assert sorted(name for name in called if not any(hasattr(m, name) for m in modules)) == []


def test_library_use_blocks_run(tmp_path, monkeypatch, capsys):
    # Run as written, after the walkthrough's commands in the same directory:
    # the second block reads their fits.csv and labels.csv.
    monkeypatch.chdir(tmp_path)
    for argv in walkthrough():
        assert main(argv) == 0, argv
    first, second = library_blocks()
    capsys.readouterr()
    exec(compile(first, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "[6.65 2.85]"
    names: dict = {}
    exec(compile(second, str(README), "exec"), names)
    assert names["mse_kl"].shape == (len(names["fits"]),)


def test_cli_sections_name_only_real_flags():
    # From the walkthrough to the library section: a command's bullet names
    # only that command's flags, and any other text only flags some command
    # has, or --help/--version.
    flags = {name: set(command_flags.split()) for name, (_, _, command_flags) in cli._COMMANDS.items()}
    known = set().union(*flags.values()) | {"--help", "--version"}
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI walkthrough\n", 1)[1].split("\n## Library use\n", 1)[0]
    bullets = re.findall(r"^- `([a-z-]+)` (.*?)(?=^- |^$)", section, flags=re.MULTILINE | re.DOTALL)
    assert sorted(name for name, _ in bullets) == sorted(flags)
    for name, bullet in bullets:
        assert set(FLAG.findall(bullet)) <= flags[name], name
        section = section.replace(bullet, "")
    assert set(FLAG.findall(section)) <= known

