"""Guards over the source tree and the README that no single module test
covers: the suite names agree everywhere they are listed, and no
invariant is an ``assert`` that ``python -O`` would strip."""

import argparse
import ast
import re
from pathlib import Path

import jwkit
from jwkit import cli

_ROOT = Path(__file__).resolve().parent.parent


def _suite_help() -> str:
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.help for a in sub.choices["verify"]._actions if a.dest == "suite")


def test_suite_names_agree_in_readme_help_and_runners():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    listed = readme.split("### Verification suites", 1)[1].split("The flag is repeatable", 1)[0]
    in_readme = re.findall(r"`([a-z]+(?:-[a-z]+)*)`", listed)
    in_help = _suite_help().removeprefix("repeatable; ").split(", ")
    assert in_readme == in_help == list(cli._SUITE_RUNNERS) == list(cli._SUITES)


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(Path(jwkit.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
