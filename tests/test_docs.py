"""README's "Library" section names the public API; every name it
backticks must exist, and every call it shows must name real parameters,
so the documented API cannot drift from the code. Likewise every
command-line flag README names must be accepted, every key of the
emitted variable map must be named in "Emitted files", and every example
in "Program format" must parse. No source line is longer than 95
characters, so the package's line count cannot fall by packing code."""

import argparse
import ast
import glob
import inspect
import os
import re
import sys

import aspsubcount
from aspsubcount import cli, parse_program, sat, surplus_formula

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def section(title: str) -> str:
    text = open(README).read()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_section() -> str:
    return re.sub(r"```.*?```", "", section("Library"), flags=re.S)


def resolves(dotted: str) -> bool:
    obj = aspsubcount
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_library_names_resolve():
    spans = re.findall(r"`([^`]*)`", library_section())
    assert len(spans) > 10
    for span in spans:
        match = re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(\(.*\))?", span)
        assert match, f"`{span}` is not an identifier"
        assert resolves(match.group(1)), f"`{span}` is not in aspsubcount"


def test_library_calls_name_real_parameters():
    # an argument is a parameter's name, or name=...; nested calls are skipped
    calls = re.findall(r"`([A-Za-z_][\w.]*)\((.*?)\)`", library_section())
    assert len(calls) >= 5
    for dotted, args in calls:
        obj = aspsubcount
        for name in dotted.split("."):
            obj = getattr(obj, name)
        params = inspect.signature(obj).parameters
        for arg in filter(None, (a.strip() for a in args.split(","))):
            if "(" not in arg:
                name = arg.split("=", 1)[0]
                assert name in params, f"`{dotted}({args})`: {name} is not a parameter"


def test_readme_flags_are_accepted():
    text = open(README).read()
    # the Install section's flags belong to pip, not to aspsubcount
    text = re.sub(r"\n## Install\n.*?(?=\n## )", "", text, flags=re.S)
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert "--threshold" in flags
    [subparsers] = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    accepted = set()
    for subparser in subparsers.choices.values():
        accepted |= set(subparser._option_string_actions)
    assert sorted(flags - accepted) == []


def test_variable_map_keys_are_documented(example1):
    text = section("Emitted files")
    keys = surplus_formula(example1).variable_map(example1)
    assert len(keys) >= 3
    for key in keys:
        assert f"`{key}`" in text, f"phi2.map.json key {key!r} is not in README"


def test_program_format_examples_parse():
    blocks = re.findall(r"```\n(.*?)```", section("Program format"), flags=re.S)
    assert len(blocks) >= 2
    for block in blocks:
        assert parse_program(block).rules


def test_engine_constants_are_stated_with_their_values():
    text = open(README).read()
    for name in ("WEIGHT_CAP", "WIDTH_RATIO", "MERGE_CLAUSES"):
        stated = f"`sat.{name} = {getattr(sat, name)}`"
        assert stated in text, f"README does not state {stated}"


def test_no_runtime_dependencies():
    # README says the package is pure Python with no runtime dependencies:
    # every import is relative or of the standard library
    sources = glob.glob(os.path.join(ROOT, "src", "aspsubcount", "*.py"))
    assert len(sources) >= 5
    for path in sources:
        for node in ast.walk(ast.parse(open(path).read(), path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path} imports {name}"
    pyproject = open(os.path.join(ROOT, "pyproject.toml")).read()
    assert re.findall(r"^dependencies = (.*)$", pyproject, flags=re.M) == ["[]"]


def test_source_lines_fit_in_95_characters():
    sources = glob.glob(os.path.join(ROOT, "src", "aspsubcount", "*.py"))
    assert len(sources) >= 5
    for path in sources:
        for number, line in enumerate(open(path).read().splitlines(), 1):
            assert len(line) <= 95, f"{path}:{number} has {len(line)} characters"
