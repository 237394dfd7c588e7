"""Tests for the command-line front end."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from jwkit import cli, hecke
from jwkit.hecke import KLTable, load_kl_cache
from jwkit.qpoly import LaurentPoly, RatFunc, quantum_factorial, quantum_int

from oracles import grp


def _run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rat(doc):
    return RatFunc.from_triples(doc)


# -- group ------------------------------------------------------------------------------


def test_group_json(capsys):
    code, out, _ = _run(capsys, "group", "--family", "A", "--rank", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "family": "A",
        "rank": 3,
        "m": None,
        "order": 24,
        "longest_length": 6,
        "fully_commutative": 14,
    }


def test_group_csv_and_latex(capsys):
    code, out, _ = _run(capsys, "group", "--family", "I2", "--m", "7", "--output", "csv")
    assert code == 0
    assert out.splitlines()[1] == "I2,2,7,14,7,13"
    code, out, _ = _run(capsys, "group", "--family", "B", "--rank", "2", "--output", "latex")
    assert code == 0
    assert "\\begin{tabular}" in out and "8" in out


# -- jw ----------------------------------------------------------------------------------


def test_jw_j3_closed(capsys):
    code, out, _ = _run(capsys, "jw", "--family", "A", "--rank", "3", "--method", "closed")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "closed" and doc["sign"] == "plus"
    two, three = quantum_int(2), quantum_int(3)
    expected = {
        "e": RatFunc.one(),
        "1": RatFunc(-two, three),
        "2": RatFunc(-two, three),
        "12": RatFunc(LaurentPoly.one(), three),
        "21": RatFunc(LaurentPoly.one(), three),
    }
    got = {r["word"]: _rat(r["coefficient"]) for r in doc["records"]}
    assert got == expected
    # FC enumeration order and 1-based diagram arrays
    assert [r["word"] for r in doc["records"]] == ["e", "1", "2", "12", "21"]
    assert doc["records"][0]["diagram"] == [4, 5, 6, 1, 2, 3]


def test_jw_methods_agree(capsys):
    docs = []
    for method in ("closed", "wenzl", "projection"):
        code, out, _ = _run(capsys, "jw", "--family", "A", "--rank", "4", "--method", method)
        assert code == 0
        docs.append(json.loads(out)["records"])
    assert docs[0] == docs[1] == docs[2]


def test_jw_rank_one(capsys):
    code, out, _ = _run(capsys, "jw", "--family", "A", "--rank", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["records"] == [
        {"word": "e", "diagram": [2, 1], "coefficient": {"num": [[0, 1, 1]], "den": [[0, 1, 1]], "display": "1"}}
    ]


def test_jw_minus(capsys):
    code, out, _ = _run(capsys, "jw", "--family", "A", "--rank", "2", "--sign", "minus")
    assert code == 0
    doc = json.loads(out)
    got = {r["word"]: _rat(r["coefficient"]) for r in doc["records"]}
    assert got == {
        "e": RatFunc.one(),
        "1": RatFunc(LaurentPoly.one(), quantum_int(2)),
    }


def test_jw_i24_coefficients(capsys):
    code, out, _ = _run(capsys, "jw", "--family", "I2", "--m", "4")
    assert code == 0
    doc = json.loads(out)
    got = {r["word"]: _rat(r["coefficient"]) for r in doc["records"]}
    num = LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})
    den = LaurentPoly({4: 1, 2: 2, 0: 2, -2: 2, -4: 1})
    assert got["1"] == RatFunc(-num, den)
    assert "diagram" not in doc["records"][0]
    assert len(doc["records"]) == 7


def test_jw_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "jw", "--family", "B", "--rank", "2", "--output", "csv")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_jw_invalid_combinations(capsys):
    for argv in [
        ("jw", "--family", "B", "--rank", "2", "--method", "wenzl"),
        ("jw", "--family", "B", "--rank", "2", "--sign", "minus"),
        ("jw", "--family", "A", "--rank", "3", "--sign", "minus", "--method", "wenzl"),
        ("jw", "--family", "A", "--rank", "0"),
    ]:
        code, _, err = _run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err


# -- other computation commands --------------------------------------------------------------


def test_grrk_csv(capsys):
    code, out, _ = _run(capsys, "grrk", "--family", "I2", "--m", "5", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,length,polynomial"
    assert len(lines) == 11
    # the longest element's graded rank is the full interval polynomial
    assert lines[-1].startswith("9,5,")


def test_kl_a2(capsys):
    code, out, _ = _run(capsys, "kl", "--family", "A", "--rank", "2", "--output", "csv")
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 19  # sum of Bruhat interval sizes in S3
    w0_rows = [l for l in lines if l.startswith("5,")]
    assert len(w0_rows) == 6
    for row in w0_rows:
        y = int(row.split(",")[1])
        h = row.split(",")[-1]
        assert h == repr(LaurentPoly({3 - [0, 1, 1, 2, 2, 3][y]: 1}))


def test_esign_a2(capsys):
    code, out, _ = _run(capsys, "esign", "--family", "A", "--rank", "2")
    assert code == 0
    doc = json.loads(out)
    fact3 = quantum_factorial(3)
    assert LaurentPoly.from_triples(doc["normalizer"]["grrk_w0"]) == fact3
    coeffs = {r["index"]: _rat(r["coefficient"]) for r in doc["records"]}
    assert len(coeffs) == 6
    assert coeffs[0] == RatFunc(LaurentPoly({-3: 1}), fact3)


# -- verify ------------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "suite,family,rank,m",
    [
        ("parity", "B", "3", None),
        ("bar-invariance", "A", "3", None),
        ("bruhat-order", "B", "2", None),
        ("triple-agreement", "A", "3", None),
        ("idempotency", "A", "3", None),
        ("idempotency", "I2", None, "5"),
        ("annihilation", "A", "3", None),
        ("annihilation", "B", "2", None),
        ("mu-identity", "A", "2", None),
        ("ideal-closure", "B", "2", None),
        ("gen-agreement", "B", "2", None),
    ],
)
def test_verify_suites_pass(capsys, suite, family, rank, m):
    argv = ["verify", "--suite", suite, "--family", family]
    if rank:
        argv += ["--rank", rank]
    if m:
        argv += ["--m", m]
    code, out, err = _run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == [] and doc["checks"] > 0
    assert "0 failures" in err


def test_verify_multiple_suites(capsys):
    code, out, err = _run(
        capsys,
        "verify", "--family", "B", "--rank", "2",
        "--suite", "parity", "--suite", "bar-invariance", "--suite", "idempotency",
    )
    assert code == 0
    docs = json.loads(out)
    assert [d["suite"] for d in docs] == ["parity", "bar-invariance", "idempotency"]
    assert all(d["failures"] == [] and d["checks"] > 0 for d in docs)
    assert err.count("0 failures") == 3


def test_verify_multiple_suites_one_failure(capsys, monkeypatch):
    monkeypatch.setitem(cli._SUITE_RUNNERS, "parity", lambda g, t: (3, [{"check": "parity"}]))
    code, out, _ = _run(
        capsys,
        "verify", "--family", "A", "--rank", "2",
        "--suite", "bar-invariance", "--suite", "parity",
    )
    assert code == 1
    docs = json.loads(out)
    assert docs[0]["failures"] == [] and docs[1]["failures"] == [{"check": "parity"}]


def test_verify_reports_failures(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITE_RUNNERS, "parity", lambda g, t: (3, [{"check": "parity", "element": 1}])
    )
    code, out, _ = _run(capsys, "verify", "--suite", "parity", "--family", "A", "--rank", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["failures"] == [{"check": "parity", "element": 1}]


def test_verify_usage_errors(capsys):
    code, _, err = _run(capsys, "verify", "--family", "A", "--rank", "2")
    assert code == 2 and "--suite" in err
    code, _, err = _run(capsys, "verify", "--suite", "nope", "--family", "A", "--rank", "2")
    assert code == 2 and "unknown suite" in err
    code, _, err = _run(
        capsys, "verify", "--suite", "triple-agreement", "--family", "B", "--rank", "2"
    )
    assert code == 2 and "family A" in err
    for output in ("csv", "latex"):
        code, out, err = _run(
            capsys, "verify", "--suite", "parity", "--family", "A", "--rank", "2", "--output", output
        )
        assert code == 2 and out == "" and "JSON" in err


# -- KL data that breaks a Kazhdan-Lusztig law -------------------------------------------------


def _add_to_h_e_w0(g, table, exponent):
    table.column_packed(g.w0)[0] += 1 << (exponent * hecke._B)


def _corrupt_tables(monkeypatch, exponent):
    """Every KL table the CLI builds gets v^exponent added to h_{e,w0}."""
    build = cli._build

    def corrupt(cfg, needs_kl):
        g, table, cache_path = build(cfg, needs_kl)
        if table is not None:
            _add_to_h_e_w0(g, table, exponent)
        return g, table, cache_path

    monkeypatch.setattr(cli, "_build", corrupt)


def test_parity_suite_reports_corrupt_column():
    g = grp("A", 2)
    t = KLTable(g)
    _add_to_h_e_w0(g, t, 2)  # h_{e,w0}: v^3 -> v^3 + v^2
    assert cli._suite_parity(g, t) == (6, [{"check": "parity", "element": 5}])


def test_bar_invariance_suite_reports_corrupt_column():
    g = grp("A", 2)
    t = KLTable(g)
    _add_to_h_e_w0(g, t, 1)  # h_{e,w0}: v^3 -> v^3 + v, parity intact
    checks, failures = cli._suite_bar_invariance(g, t)
    assert checks == 6
    assert failures == [{"check": "bar-invariance", "detail": "b_5 is not bar-invariant"}]


@pytest.mark.parametrize("suite", ["parity", "bar-invariance"])
def test_verify_on_corrupt_table_reports_failure(capsys, monkeypatch, suite):
    _corrupt_tables(monkeypatch, 1 if suite == "bar-invariance" else 2)
    code, out, _ = _run(capsys, "verify", "--suite", suite, "--family", "A", "--rank", "2")
    assert code == 1
    assert json.loads(out)["failures"][0]["check"] == suite


@pytest.mark.parametrize("command", ["esign", "grrk", "jw"])
@pytest.mark.parametrize("exponent", [1, 2])  # breaks bar symmetry / parity of grrk(w0)
def test_corrupt_table_exits_3(capsys, monkeypatch, command, exponent):
    _corrupt_tables(monkeypatch, exponent)
    rank = "3" if command == "jw" else "2"  # jw counts strands
    code, out, err = _run(capsys, command, "--family", "A", "--rank", rank)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("output", ["json", "csv", "latex"])
@pytest.mark.parametrize("command", ["kl", "grrk", "esign", "jw"])
def test_kl_law_breach_in_last_column_leaves_stdout_empty(capsys, monkeypatch, command, output):
    """Every column before w0's is filled, then the recursion breaks a law:
    no part of the document may have been written."""
    combine = KLTable._combine

    def breach_at_w0(self, s, z, cz):
        g = self.group
        if g.left[z][s] == g.w0:
            raise hecke.KLLawError("KL recursion lost unitriangularity")
        return combine(self, s, z, cz)

    monkeypatch.setattr(KLTable, "_combine", breach_at_w0)
    rank = "4" if command == "jw" else "3"  # jw counts strands
    code, out, err = _run(capsys, command, "--family", "A", "--rank", rank, "--output", output)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- errors and gating ------------------------------------------------------------------------


def test_usage_errors(capsys):
    for argv in [
        ("group", "--family", "D", "--rank", "4"),
        ("group", "--family", "I2"),  # missing --m
        ("group", "--family", "A", "--rank", "2", "--m", "4"),
        ("group", "--family", "A", "--rank", "2", "--threads", "0"),
        ("group", "--family", "A", "--rank", "2", "--bogus"),
        ("kl", "--family", "A", "--rank", "7"),  # S8 without --allow-large
        ("group", "--family", "I2", "--m", "5", "--rank", "3"),
        ("jw", "--family", "I2", "--m", "5", "--rank", "3"),
    ]:
        code, _, err = _run(capsys, *argv)
        assert code == 2, argv
    code, _, err = _run(capsys, "group", "--family", "D", "--rank", "4")
    assert "type D" in err


def test_large_family_gating(capsys):
    code, _, err = _run(capsys, "grrk", "--family", "F4")
    assert code == 2 and "--allow-large" in err
    code, _, err = _run(capsys, "grrk", "--family", "F4", "--allow-large")
    assert code == 2 and "cache" in err
    # group needs no KL data, so --allow-large alone suffices; but without
    # the flag it is still refused
    code, _, err = _run(capsys, "group", "--family", "F4")
    assert code == 2


@pytest.mark.parametrize(
    "argv, needs_kl",
    [
        (("kl", "--family", "A", "--rank", "6"), True),  # S_7, 5040 elements
        (("group", "--family", "A", "--rank", "6"), False),
        (("grrk", "--family", "B", "--rank", "5"), True),  # 3840 elements
        (("group", "--family", "B", "--rank", "5"), False),
        (("jw", "--family", "A", "--rank", "7"), True),  # j_7 lives over S_7
        (("jw", "--family", "A", "--rank", "7", "--method", "wenzl"), False),
        (("group", "--family", "I2", "--m", "576"), False),  # as many elements as F4
    ],
)
def test_groups_as_large_as_f4_are_gated(capsys, argv, needs_kl):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--allow-large" in err
    if needs_kl:
        code, out, err = _run(capsys, *argv, "--allow-large")
        assert code == 2 and out == "" and "cache" in err


def test_groups_below_f4_order_are_not_gated(capsys):
    for argv in [
        ("group", "--family", "A", "--rank", "5"),
        ("group", "--family", "B", "--rank", "4"),
        ("group", "--family", "I2", "--m", "575"),
        ("jw", "--family", "A", "--rank", "4"),
    ]:
        code, _, _ = _run(capsys, *argv)
        assert code == 0, argv


# -- caching -----------------------------------------------------------------------------------


def test_cache_cold_warm_identical(capsys, tmp_path):
    argv = ("grrk", "--family", "B", "--rank", "2", "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *argv)
    assert code == 0
    assert (tmp_path / "kl-B-2.kltab").exists()
    code, warm, _ = _run(capsys, *argv)
    assert code == 0
    assert cold == warm


def test_cache_warm_run_leaves_file_untouched(capsys, tmp_path, monkeypatch):
    argv = ("grrk", "--family", "B", "--rank", "3", "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *argv)
    assert code == 0
    path = tmp_path / "kl-B-3.kltab"
    before = path.stat().st_mtime_ns, path.read_bytes()
    writes = []
    monkeypatch.setattr(cli, "write_kl_cache", lambda *a: writes.append(a))
    code, warm, _ = _run(capsys, *argv)
    assert code == 0 and warm == cold
    assert writes == []
    assert (path.stat().st_mtime_ns, path.read_bytes()) == before


def test_cache_missing_columns_are_added(capsys, tmp_path):
    """esign needs only the column of w0 and what it rests on; kl then
    computes the rest and rewrites the file with every column."""
    cache = ("--cache-dir", str(tmp_path))
    code, _, _ = _run(capsys, "esign", "--family", "A", "--rank", "3", *cache)
    assert code == 0
    path = tmp_path / "kl-A-3.kltab"
    partial = path.read_text()
    code, _, _ = _run(capsys, "kl", "--family", "A", "--rank", "3", *cache)
    assert code == 0
    full = path.read_text()
    assert full != partial
    table = KLTable(grp("A", 3))
    load_kl_cache(str(path), table)
    assert len(table.computed_columns()) == 24 and not table.unsaved


def test_cache_corruption_recovers(capsys, tmp_path):
    argv = ("grrk", "--family", "A", "--rank", "2", "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *argv)
    assert code == 0
    path = tmp_path / "kl-A-2.kltab"
    path.write_text(path.read_text().rsplit("end", 1)[0])  # truncate the count record
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert out == cold
    assert "warning" in err and "cache" in err
    # the rewritten cache is valid again
    code, out, err = _run(capsys, *argv)
    assert code == 0 and out == cold and "warning" not in err


@pytest.mark.parametrize("spoil", ["undecodable-byte", "directory"])
def test_unreadable_cache_is_recomputed(capsys, tmp_path, spoil):
    """A cache path holding bytes that are not text, or a directory, is
    warned about and recomputed, never a traceback with exit 1."""
    argv = ("grrk", "--family", "A", "--rank", "2", "--cache-dir")
    code, cold, _ = _run(capsys, *argv, str(tmp_path / "cold"))
    assert code == 0
    path = tmp_path / "spoilt" / "kl-A-2.kltab"
    if spoil == "directory":
        path.mkdir(parents=True)
    else:
        shutil.copytree(tmp_path / "cold", path.parent)
        path.write_bytes(path.read_bytes().replace(b"kltable", b"kl\xfftable", 1))
    code, out, err = _run(capsys, *argv, str(path.parent))
    assert code == 0 and out == cold
    assert "warning" in err and "ignoring cache" in err


@pytest.mark.parametrize(
    "command,rank,old,new",
    [
        ("kl", "2", "5 0 3:1", "5 0 2:1 3:1"),
        ("esign", "2", "5 0 3:1", "5 0 2:1 3:1"),
        ("kl", "3", "23 0 6:1", "23 0 0:1 2:1 4:5 6:1"),
        ("grrk", "3", "23 0 6:1", "23 0 0:1 2:1 4:5 6:1"),
    ],
)
def test_cache_entry_breaking_kl_laws_recovers(capsys, tmp_path, command, rank, old, new):
    argv = (command, "--family", "A", "--rank", rank, "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *argv)
    assert code == 0
    path = tmp_path / f"kl-A-{rank}.kltab"
    lines = path.read_text().splitlines()
    lines[lines.index(old)] = new  # still well formed
    path.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert out == cold
    assert "warning" in err and "invalid term" in err


@pytest.mark.parametrize("command", ["kl", "esign"])
def test_cache_edit_within_kl_laws_recovers(capsys, tmp_path, command):
    """2 v^3 for h_{e,w0} keeps the degree and parity laws; the checksum
    rejects it, the table is recomputed, and a clean cache stays silent."""
    argv = (command, "--family", "A", "--rank", "2", "--cache-dir", str(tmp_path))
    code, cold, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    path = tmp_path / "kl-A-2.kltab"
    lines = path.read_text().splitlines()
    lines[lines.index("5 0 3:1")] = "5 0 3:2"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, *argv)
    assert code == 0 and out == cold
    assert "warning" in err and "checksum" in err
    if command == "kl":
        rec = [r for r in json.loads(out)["records"] if (r["x"], r["y"]) == (5, 0)]
        assert [r["display"] for r in rec] == ["v^3"]
    code, out, err = _run(capsys, *argv)
    assert code == 0 and out == cold and err == ""


def test_cache_of_format_1_is_recomputed(capsys, tmp_path):
    argv = ("grrk", "--family", "B", "--rank", "2", "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *argv)
    path = tmp_path / "kl-B-2.kltab"
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("kltable 2", "kltable 1")
    lines[-1] = lines[-1].rsplit(" ", 1)[0]  # format 1 had no checksum
    path.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, *argv)
    assert code == 0 and out == cold
    assert "warning" in err and "header mismatch" in err
    assert path.read_text().startswith("kltable 2 B 2\n")


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JWKIT_CACHE_DIR", str(tmp_path))
    code, _, _ = _run(capsys, "grrk", "--family", "I2", "--m", "4")
    assert code == 0
    assert (tmp_path / "kl-I2-m4.kltab").exists()


def test_cache_unwritable_warns(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    argv = (
        "grrk",
        "--family",
        "A",
        "--rank",
        "2",
        "--cache-dir",
        str(blocker / "sub"),
    )
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert "warning" in err and "could not write" in err
    assert json.loads(out)["records"]


def test_reader_closing_stdout_early_ends_quietly():
    """A reader that stops after a few bytes (``jwkit kl ... | head``) cuts
    the streamed document short; the run still ends with its exit code
    and no traceback."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "jwkit.cli", "kl", "--family", "A", "--rank", "4"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{\n  "famil'  # the document is larger than a pipe buffer
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
