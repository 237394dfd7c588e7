"""Guards over the source tree and the README that no single module test
covers: the suite names agree everywhere they are listed, no invariant is
an ``assert`` that ``python -O`` would strip or an untyped
``AssertionError``, every public entry that takes a KL table refuses
one of another group, the entries that take an element id and no table
refuse a value that is not one, and the README's counts of stored KL
columns are those a run gives."""

import argparse
import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import jwkit
from jwkit import cli
from jwkit.grank import grrk, grrk_w0, poincare_interval
from jwkit.gtl import GTLElt, check_ideal_closure, gen_jw_closed, gen_jw_projection, gtl_multiply
from jwkit.hecke import HeckeElt, KLTable, antisymmetriser, kl_basis, to_kl_basis, verify_bar_invariance
from jwkit.tl import closed_jw, jw_minus, monomial, project_pi

from oracles import grp

_ROOT = Path(__file__).resolve().parent.parent


def _readme_numbers(pattern: str) -> list[int]:
    """The integers the README pattern captures, thousands separators
    dropped; the pattern matches across line breaks."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(pattern.replace(" ", r"\s+"), readme)
    assert match, pattern
    return [int(n.replace(",", "")) for n in match.groups()]


def _suite_help() -> str:
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.help for a in sub.choices["verify"]._actions if a.dest == "suite")


def test_suite_names_agree_in_readme_help_and_runners():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    listed = readme.split("### Verification suites", 1)[1].split("The flag is repeatable", 1)[0]
    in_readme = re.findall(r"`([a-z]+(?:-[a-z]+)*)`", listed)
    in_help = _suite_help().removeprefix("repeatable; ").split(", ")
    assert in_readme == in_help == list(cli._SUITE_RUNNERS) == list(cli._SUITES)


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    """An invariant raises a typed error that the CLI maps to an exit code:
    neither ``assert`` nor ``raise AssertionError``."""
    found = []
    for path in sorted(Path(jwkit.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Assert) or _raises_assertion_error(n)
        ]
    assert found == []


# every public entry that takes a KL table, called on A3 with a table of
# another group: B3, or A2 for the entries that take type A only
_ENTRIES = {
    "gtl_multiply": ("B", lambda g, t: gtl_multiply(GTLElt.beta(g, 1), GTLElt.beta(g, 2), t)),
    "kl_basis": ("B", lambda g, t: kl_basis(g, 5, t)),
    "to_kl_basis": ("B", lambda g, t: to_kl_basis(HeckeElt.std(g, g.w0), t)),
    "grrk": ("B", lambda g, t: grrk(g, t, g.w0)),
    "grrk_w0": ("B", grrk_w0),
    "antisymmetriser": ("B", antisymmetriser),
    "check_ideal_closure": ("B", check_ideal_closure),
    "verify_bar_invariance": ("B", verify_bar_invariance),
    "gen_jw_closed": ("B", gen_jw_closed),
    "gen_jw_projection": ("B", gen_jw_projection),
    "closed_jw": ("A", lambda g, t: closed_jw(4, g, t)),
    "project_pi": ("A", lambda g, t: project_pi(HeckeElt.std(g, g.w0), t)),
    "jw_minus": ("A", lambda g, t: jw_minus(4, g, t)),
}


@pytest.mark.parametrize("memoised", [False, True], ids=["fresh", "memoised"])
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_every_entry_refuses_a_table_of_another_group(entry, memoised):
    family, call = _ENTRIES[entry]
    rank = 2 if family == "A" else 3
    g, t = grp("A", 3), KLTable(grp(family, rank))
    if memoised:
        grrk_w0(t.group, t)
        t.fc_w_graph()
        for x in range(t.group.size):
            t.column_packed(x)
    with pytest.raises(ValueError, match=f"KL table of {family} rank {rank} used for A rank 3"):
        call(g, t)


@pytest.mark.parametrize("entry", [monomial, poincare_interval], ids=lambda f: f.__name__)
@pytest.mark.parametrize("rank", [1, 3])
def test_entries_without_a_table_refuse_ids_that_are_not_element_ids(entry, rank):
    # list indexing used to read -1 as w0 and True as 1: monomial(A1, -1)
    # returned u_1's diagram, poincare_interval(A3, -1) w0's polynomial
    # without its v^-6 term, and poincare_interval(A3, 24) an IndexError
    g = grp("A", rank)
    for x in (-1, -2, g.size, True, 1.0, "1", None):
        with pytest.raises(ValueError, match="is not an element id of this group"):
            entry(g, x)


def test_readme_states_the_cold_f4_cache(tmp_path):
    """README's "Caching" counts the stored columns, their entries and the
    bytes of the file that a cold ``jw --family F4 --allow-large`` writes."""
    columns, entries, size = _readme_numbers(
        r"a cold `jw --family F4 --allow-large` stores ([\d,]+) columns \(([\d,]+) entries\) in ([\d,]+) B"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["jw", "--family", "F4", "--allow-large", "--cache-dir", str(tmp_path)]) == 0
    (path,) = tmp_path.iterdir()
    stored = [line.split() for line in path.read_text().splitlines() if line.startswith("c ")]
    assert [len(stored), sum(len(c) // 2 - 1 for c in stored), path.stat().st_size] == [columns, entries, size]


def test_readme_states_the_fc_closures():
    """README's TL_W product counts the columns that filling the columns
    of the fully commutative elements stores, in F4 and H4."""
    expected = _readme_numbers(r"filling them stores (\d+) columns in F4 and (\d+) in H4")
    stored = []
    for family in ("F4", "H4"):
        g = grp(family, allow_large=True)
        t = KLTable(g)
        for x in g.fc_elements():
            t.column_packed(x)
        stored.append(len(t.computed_columns()))
    assert stored == expected
