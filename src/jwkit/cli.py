"""Command-line front end.

Subcommands:

* ``group``: build a Coxeter group, print order / longest length / FC count;
* ``kl``: print the full table of KL polynomials h_{y,x};
* ``grrk``: print the graded rank of every element;
* ``esign``: print the sign idempotent of the Hecke algebra;
* ``jw``: print a Jones-Wenzl document (closed formula, Wenzl recursion,
  or projection of the sign idempotent);
* ``verify``: run a named verification suite and exit 0 or 1.

Conventions shared by every subcommand:

* generator indices in emitted words are 1-based; the identity prints
  as ``e``;
* ``--rank`` is the Coxeter rank, with one exception: for ``jw`` in
  family A the rank is the strand count n, so ``jw --family A --rank 3``
  prints j_3, which lives over the symmetric group S_3 = A_2 (this is
  the usual indexing of TL_n).  F4, H3, H4 and I2(m) take no rank other
  than their own (I2: 2);
* documents are deterministic: the same arguments produce byte-identical
  output across runs, warm or cold cache;
* documents are streamed: each subcommand does all of its work first
  (group, KL columns, graded ranks, suites, cache write) and returns a
  header and an iterator of records or rows, which one writer renders to
  stdout as they come.  A run that fails writes nothing to stdout.  JSON
  is rendered by a fixed-schema emitter that matches the standard
  library's encoder with ``indent=2``; ``verify`` prints JSON only.  A
  records document fills one layout per record at its value slots
  (_layout), and renders each distinct polynomial once
  (_poly_texts, _ratfunc_cells), in a memo made for that document alone;
* exit codes: 0 success, 1 verification failure, 2 invalid input or
  unsupported family, 3 KL data that breaks a Kazhdan-Lusztig law (for
  instance a cache file edited into a well-formed but wrong table),
  found outside the ``parity`` and ``bar-invariance`` suites, which
  report it as a failure.

``--allow-large`` is the opt-in of jwkit.coxeter.build_group, which
refuses every group with at least LARGE_ORDER = 1152 elements (the order
of F4) without it.  For such a group, subcommands that need
Kazhdan-Lusztig data also require a cache directory (``--cache-dir`` or
the JWKIT_CACHE_DIR environment variable) so the expensive columns
persist across runs.  For ``jw --family A`` the group is S_n, so j_7 is
gated.  A group of more than MAX_ORDER = 10^7 elements is refused with
or without the flag (exit 2).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from .coxeter import (
    LARGE_ORDER,
    GroupTable,
    LargeComputationError,
    UnsupportedFamilyError,
    build_group,
    classical_order,
    presentation,
)
from .grank import grrk, grrk_w0
from .gtl import (
    GTLElt,
    IdealClosureError,
    check_ideal_closure,
    gen_jw_closed,
    gen_jw_projection,
    gtl_multiply,
)
from .hecke import (
    CacheFormatError,
    KLLawError,
    KLTable,
    antisymmetriser,
    kl_product_coeffs,
    load_kl_cache,
    verify_bar_invariance,
    write_kl_cache,
)
from .qpoly import LaurentPoly, RatFunc
from .tl import (
    Diagram,
    TLElt,
    closed_jw,
    fc_diagrams,
    jw_minus,
    multiply_tl,
    project_pi,
    wenzl_jw,
)

class UsageError(Exception):
    """Invalid input; maps to exit code 2."""


# -- document rendering ------------------------------------------------------------


def _poly_latex(p: LaurentPoly) -> str:
    if p.is_zero:
        return "0"
    bits = []
    terms = sorted(p.items(), key=lambda ec: -ec[0])
    for e, c in terms:
        if e == 0:
            base = ""
        elif e == 1:
            base = "v"
        else:
            base = "v^{%d}" % e
        coeff = "" if abs(c) == 1 and base else str(abs(c))
        bits.append(("-" if c < 0 else "+", coeff + base))
    head = ("-" if bits[0][0] == "-" else "") + bits[0][1]
    return head + "".join(f" {s} {t}" for s, t in bits[1:])


def _rat_latex(r: RatFunc) -> str:
    if r.den.is_one:
        return _poly_latex(r.num)
    return "\\frac{%s}{%s}" % (_poly_latex(r.num), _poly_latex(r.den))


def _json(obj, depth: int = 0) -> str:
    """``obj`` as the standard JSON encoder with ``indent=2`` (and its
    default ``ensure_ascii``) renders it at nesting level ``depth``.  The
    schema is fixed: dicts with str keys, lists, tuples, str, int, bool
    and None.  Anything else, floats included, raises TypeError rather
    than being rendered some other way."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        return _json_object(((k, _json(v, depth + 1)) for k, v in obj.items()), depth)
    if isinstance(obj, (list, tuple)):
        return _json_block("[", [_json(v, depth + 1) for v in obj], "]", depth)
    raise TypeError(f"a document cannot hold {type(obj).__name__}")


def _json_object(members, depth: int) -> str:
    """A JSON object from (key, value already rendered at depth + 1) pairs."""
    items = []
    for key, text in members:
        if not isinstance(key, str):
            raise TypeError(f"document keys must be str, not {type(key).__name__}")
        items.append(encode_basestring_ascii(key) + ": " + text)
    return _json_block("{", items, "}", depth)


def _json_block(opening: str, items: list[str], closing: str, depth: int) -> str:
    if not items:
        return opening + closing
    inner = "\n" + "  " * (depth + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * depth + closing


def _layout(keys, depth: int) -> str:
    """The emitter's layout of an object with these keys at nesting level
    depth, with %s at each value slot: ``layout % texts`` is the object
    whose values render as texts, so a record renders only its values."""
    return _json_object(((k, "%s") for k in keys), depth)


def _poly_texts(depth: int):
    """The one renderer of polynomials in a JSON document: a function
    p -> (p.to_triples() as the emitter renders it at depth, repr(p)).  A
    document holds few distinct polynomials (its coefficients are ratios of
    graded ranks), so each is rendered once, in a memo keyed by the
    LaurentPoly.  Each document makes its own and drops it: no rendering
    state outlives a cli.run call."""
    memo: dict[LaurentPoly, tuple[str, str]] = {}

    def texts(p: LaurentPoly) -> tuple[str, str]:
        t = memo.get(p)
        if t is None:
            t = memo[p] = (_json(p.to_triples(), depth), repr(p))
        return t

    return texts


def _ratfunc_cells(depth: int):
    """A function r -> the text at depth of the coefficient cell
    {"num": ..., "den": ..., "display": repr(r)}: num and den through one
    _poly_texts memo, and the display joined from their reprs as
    RatFunc.__repr__ writes it."""
    texts = _poly_texts(depth + 1)
    layout = _layout(("num", "den", "display"), depth)

    def cell(r: RatFunc) -> str:
        num, shown = texts(r.num)
        den, below = texts(r.den)
        if below != "1":  # the den is not 1
            if len(r.num._terms) > 1:
                shown = "(" + shown + ")"
            shown += "/(" + below + ")"
        return layout % (num, den, encode_basestring_ascii(shown))

    return cell


def _write_json(out, fields, records=None) -> None:
    """Write ``fields`` as a JSON document with ``indent=2`` and a final
    newline.  With ``records`` (texts rendered at depth 2), ``fields``
    is an object that gets a last member "records", whose items are
    written as they come: the whole document is never held in memory."""
    if records is None:
        out.write(_json(fields) + "\n")
        return
    head = _json_object([*((k, _json(v, 1)) for k, v in fields.items()), ("records", "[")], 0)
    out.write(head[:-2])  # without the closing "\n}"; the records follow
    sep = "\n    "
    for text in records:
        out.write(sep + text)
        sep = ",\n    "
    out.write("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")


def _write_table(out, output: str, title: str, columns: list[str], rows) -> None:
    """Write a csv or LaTeX table row by row."""
    if output == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)
        return
    out.write("%% %s\n\\begin{tabular}{%s}\n" % (title, "l" * len(columns)))
    out.write(" & ".join(columns) + " \\\\\n\\hline\n")
    for row in rows:
        out.write(" & ".join(row) + " \\\\\n")
    out.write("\\end{tabular}\n")


# -- group construction and caching ---------------------------------------------------


def _build(cfg: argparse.Namespace, needs_kl: bool):
    """Build the group and, when needed, its KL table with cache attach."""
    cache_dir = cfg.cache_dir or os.environ.get("JWKIT_CACHE_DIR")
    pres = presentation(cfg.family, rank=cfg.rank, m=cfg.m)
    order = classical_order(pres)
    # build_group refuses a large group without --allow-large; an allowed
    # one that needs KL data must also keep its columns in a cache
    if order >= LARGE_ORDER and cfg.allow_large and needs_kl and not cache_dir:
        raise UsageError(
            f"a group of order {order} requires a cache directory for KL data; "
            "pass --cache-dir or set JWKIT_CACHE_DIR"
        )
    g = build_group(pres, allow_large=cfg.allow_large)
    if not needs_kl:
        return g, None, None
    table = KLTable(g)
    cache_path = None
    if cache_dir:
        tag = f"m{pres.m_parameter}" if pres.family == "I2" else str(pres.rank)
        cache_path = os.path.join(cache_dir, f"kl-{pres.family}-{tag}.kltab")
        if os.path.exists(cache_path):
            try:
                load_kl_cache(cache_path, table)
            except (CacheFormatError, OSError) as exc:
                print(f"warning: ignoring cache {cache_path}: {exc}", file=sys.stderr)
    return g, table, cache_path


def _save_cache(table: Optional[KLTable], cache_path: Optional[str]) -> None:
    """Write the table to its cache file unless the file already holds
    every column (it was loaded and nothing was computed since)."""
    if table is None or cache_path is None or not table.unsaved:
        return
    try:
        write_kl_cache(cache_path, table)
    except OSError as exc:
        print(f"warning: could not write cache {cache_path}: {exc}", file=sys.stderr)


def _group_doc_header(g: GroupTable) -> dict:
    pres = g.presentation
    return {
        "family": pres.family,
        "rank": pres.rank,
        "m": pres.m_parameter if pres.family == "I2" else None,
    }


# -- subcommands -----------------------------------------------------------------------


def _cmd_group(cfg: argparse.Namespace):
    g, _, _ = _build(cfg, needs_kl=False)
    doc = _group_doc_header(g)
    doc.update(
        {
            "order": g.size,
            "longest_length": g.length[g.w0],
            "fully_commutative": len(g.fc_elements()),
        }
    )
    if cfg.output == "json":
        return doc, None
    row = [str(v) if v is not None else "" for v in doc.values()]
    return ("Coxeter group summary", list(doc)), [row]


def _cmd_kl(cfg: argparse.Namespace):
    g, table, cache_path = _build(cfg, needs_kl=True)
    for x in g.representatives():  # every stored column, before any output
        table.column_packed(x)
    _save_cache(table, cache_path)
    polys = [LaurentPoly(d) for d in table.terms]  # by polynomial id

    def columns():  # one relabelled column at a time, with its ys in order
        for x in range(g.size):
            col = table.column_ids(x)
            yield x, col, sorted(col)

    if cfg.output == "json":
        cut = _layout(("x", "y", "word_x", "word_y", "h", "display"), 2).split("%s")
        ids = [str(x) for x in range(g.size)]
        words = [encode_basestring_ascii(g.word_str(x)) for x in range(g.size)]
        texts = map(_poly_texts(3), polys)  # the one renderer; polys are already distinct
        cells = [cut[4] + h + cut[5] + encode_basestring_ascii(shown) + cut[6] for h, shown in texts]
        join = "".join

        def records():  # each joins x's id, y's id, x's word, y's word, then h's cell
            for x, col, ys in columns():
                head, mid = cut[0] + ids[x] + cut[1], cut[2] + words[x] + cut[3]
                for y in ys:
                    yield join((head, ids[y], mid, words[y], cells[col[y]]))

        return _group_doc_header(g), records()
    words = [g.word_str(x) for x in range(g.size)]
    cells = [repr(h) if cfg.output == "csv" else "$" + _poly_latex(h) + "$" for h in polys]
    rows = ([str(x), str(y), words[x], words[y], cells[col[y]]] for x, col, ys in columns() for y in ys)
    return ("Kazhdan-Lusztig polynomials h_{y,x}", ["x", "y", "word_x", "word_y", "h"]), rows


def _cmd_grrk(cfg: argparse.Namespace):
    g, table, cache_path = _build(cfg, needs_kl=True)
    ranks = [(x, g.length[x], grrk(g, table, x).value) for x in range(g.size)]
    _save_cache(table, cache_path)
    if cfg.output == "json":
        layout = _layout(("index", "length", "word", "grrk", "display"), 2)
        texts = _poly_texts(3)

        def records():
            for x, l, p in ranks:
                rank, shown = texts(p)
                word, shown = encode_basestring_ascii(g.word_str(x)), encode_basestring_ascii(shown)
                yield layout % (x, l, word, rank, shown)

        return _group_doc_header(g), records()
    cell = repr if cfg.output == "csv" else (lambda p: "$" + _poly_latex(p) + "$")
    rows = ([str(x), str(l), cell(p)] for x, l, p in ranks)
    return ("graded ranks", ["index", "length", "polynomial"]), rows


def _cmd_esign(cfg: argparse.Namespace):
    g, table, cache_path = _build(cfg, needs_kl=True)
    e = antisymmetriser(g, table)
    den = grrk_w0(g, table).value
    records = [(x, e.coeffs[x]) for x in sorted(e.coeffs)]
    _save_cache(table, cache_path)
    if cfg.output == "json":
        doc = _group_doc_header(g)
        doc["normalizer"] = {"grrk_w0": den.to_triples(), "display": repr(den)}
        layout = _layout(("index", "word", "coefficient"), 2)
        cell = _ratfunc_cells(3)
        return doc, (layout % (x, encode_basestring_ascii(g.word_str(x)), cell(c)) for x, c in records)
    cell = repr if cfg.output == "csv" else (lambda c: "$" + _rat_latex(c) + "$")
    rows = ([str(x), g.word_str(x), cell(c)] for x, c in records)
    return ("sign idempotent, standard basis coefficients", ["index", "word", "coefficient"]), rows


def _jw_type_a(cfg: argparse.Namespace):
    """The records of the type A jw document: (word, diagram partner
    array 1-based, coefficient)."""
    n = cfg.rank
    if n is None or n < 1:
        raise UsageError("jw --family A requires --rank n >= 1 (the strand count)")
    if n == 1:
        # TL_1 is trivial and has no Coxeter group behind it
        d = Diagram.identity(1)
        return [("e", [q + 1 for q in d.partner], RatFunc.one())]
    cfg_a = argparse.Namespace(**{**vars(cfg), "rank": n - 1})
    if cfg.method == "wenzl":
        g, _, _ = _build(cfg_a, needs_kl=False)
        j = wenzl_jw(n)
        table = cache_path = None
    else:
        g, table, cache_path = _build(cfg_a, needs_kl=True)
        if cfg.sign == "minus":
            j = jw_minus(n, g, table)
        elif cfg.method == "closed":
            j = closed_jw(n, g, table)
        else:
            j = project_pi(antisymmetriser(g, table), table)
    by_diagram = {d: x for x, d in fc_diagrams(g).items()}
    records = []
    for d in sorted(j.coeffs, key=lambda d: by_diagram[d]):
        x = by_diagram[d]
        records.append((g.word_str(x), [q + 1 for q in d.partner], j.coeffs[d]))
    _save_cache(table, cache_path)
    return records


def _cmd_jw(cfg: argparse.Namespace):
    fam = cfg.family
    if cfg.method == "wenzl" and fam != "A":
        raise UsageError("the Wenzl recursion is specific to family A")
    if cfg.sign == "minus":
        if fam != "A":
            raise UsageError("the sign-twisted algebra TL_n^- is specific to family A")
        if cfg.method != "closed":
            raise UsageError("--sign minus is computed by the closed formula only")
    if fam == "A":
        records = _jw_type_a(cfg)
    else:
        g, table, cache_path = _build(cfg, needs_kl=True)
        j = gen_jw_closed(g, table) if cfg.method == "closed" else gen_jw_projection(g, table)
        records = [(g.word_str(x), None, j.coeffs[x]) for x in sorted(j.coeffs)]
        _save_cache(table, cache_path)
    if cfg.output == "json":
        doc = {"family": fam, "rank": cfg.rank, "m": cfg.m, "sign": cfg.sign, "method": cfg.method}
        cell = _ratfunc_cells(3)
        if fam != "A":
            layout = _layout(("word", "coefficient"), 2)
            return doc, (layout % (encode_basestring_ascii(w), cell(c)) for w, _, c in records)
        layout = _layout(("word", "diagram", "coefficient"), 2)
        return doc, (
            layout % (encode_basestring_ascii(w), _json_block("[", [*map(str, d)], "]", 3), cell(c))
            for w, d, c in records
        )
    if cfg.output == "csv":
        if fam == "A":
            cols = ["word", "diagram", "coefficient"]
            rows = ([w, " ".join(map(str, d)), repr(c)] for w, d, c in records)
        else:
            cols = ["word", "coefficient"]
            rows = ([w, repr(c)] for w, _, c in records)
        return ("Jones-Wenzl coefficients", cols), rows
    sym = "u" if fam == "A" else "\\beta"
    rows = (
        ["$%s_{%s}$" % (sym, w) if w != "e" else "$1$", "$" + _rat_latex(c) + "$"]
        for w, _, c in records
    )
    return ("Jones-Wenzl coefficients", ["element", "coefficient"]), rows


# -- verification suites -----------------------------------------------------------------


def _suite_parity(g, table):
    """grrk(x) lies in v^length(x) Z[v^-2] and is bar symmetric; grrk
    checks both and raises KLLawError otherwise."""
    failures = []
    for x in range(g.size):
        try:
            grrk(g, table, x)
        except KLLawError:
            failures.append({"check": "parity", "element": x})
    return g.size, failures


def _suite_bar_invariance(g, table):
    try:
        return verify_bar_invariance(g, table), []
    except KLLawError as exc:
        return g.size, [{"check": "bar-invariance", "detail": str(exc)}]


def _suite_bruhat_order(g, table):
    from .coxeter import bruhat_leq_subword

    if g.length[g.w0] > 20:
        raise UsageError("bruhat-order suite needs length(w0) <= 20 for its oracle")
    failures = []
    for x in range(g.size):
        for y in range(g.size):
            if g.bruhat_leq(y, x) != bruhat_leq_subword(g, y, x):
                failures.append({"check": "bruhat-order", "pair": [y, x]})
    return g.size * g.size, failures


def _require_family_a(g):
    if g.presentation.family != "A":
        raise UsageError("this suite is specific to family A")


def _suite_triple_agreement(g, table):
    _require_family_a(g)
    n = g.rank + 1
    jc = closed_jw(n, g, table)
    failures = []
    if wenzl_jw(n) != jc:
        failures.append({"check": "wenzl-vs-closed"})
    if project_pi(antisymmetriser(g, table), table) != jc:
        failures.append({"check": "projection-vs-closed"})
    return 2 * len(jc.coeffs), failures


def _suite_idempotency(g, table):
    failures = []
    if g.presentation.family == "A":
        n = g.rank + 1
        checks = 0
        for name, j in [
            ("closed", closed_jw(n, g, table)),
            ("wenzl", wenzl_jw(n)),
            ("projection", project_pi(antisymmetriser(g, table), table)),
            ("minus", jw_minus(n, g, table)),
        ]:
            checks += 1
            if multiply_tl(j, j) != j:
                failures.append({"check": "idempotency", "construction": name})
        return checks, failures
    j = gen_jw_closed(g, table)
    if gtl_multiply(j, j, table) != j:
        failures.append({"check": "idempotency", "construction": "closed"})
    return 1, failures


def _suite_annihilation(g, table):
    failures = []
    checks = 0
    if g.presentation.family == "A":
        n = g.rank + 1
        j = closed_jw(n, g, table)
        jm = jw_minus(n, g, table)
        for i in range(n - 1):
            u = TLElt.gen(n, i)
            um = TLElt.gen(n, i, sign=-1)
            for name, prod in [
                ("j*u", j * u),
                ("u*j", u * j),
                ("jminus*u", jm * um),
                ("u*jminus", um * jm),
            ]:
                checks += 1
                if prod.coeffs:
                    failures.append({"check": "annihilation", "product": name, "i": i})
        return checks, failures
    j = gen_jw_closed(g, table)
    gens = [x for x in range(g.size) if g.length[x] == 1]
    for x in gens:
        b = GTLElt.beta(g, x)
        for name, prod in [("j*b", gtl_multiply(j, b, table)), ("b*j", gtl_multiply(b, j, table))]:
            checks += 1
            if prod.coeffs:
                failures.append({"check": "annihilation", "product": name, "s": x})
    return checks, failures


def _suite_mu_identity(g, table):
    """The annihilation identity in KL coordinates: for every y and s,
    sum over x of (-1)^length(x) grrk(x w0) mu^s_{y,x} vanishes, where
    mu^s_{y,x} is the coefficient of b_y in b_x b_s."""
    grw = [grrk(g, table, g.multiply(x, g.w0)).value for x in range(g.size)]
    failures = []
    checks = 0
    for s in range(g.rank):
        acc: dict[int, LaurentPoly] = {}
        for x in range(g.size):
            w = grw[x] if g.length[x] % 2 == 0 else -grw[x]
            for y, coeff in kl_product_coeffs(table, x, s).items():
                prev = acc.get(y, LaurentPoly.zero())
                acc[y] = prev + w * coeff
        for y in range(g.size):
            checks += 1
            if not acc.get(y, LaurentPoly.zero()).is_zero:
                failures.append({"check": "mu-identity", "y": y, "s": s})
    return checks, failures


def _suite_ideal_closure(g, table):
    try:
        checks = check_ideal_closure(g, table)
    except IdealClosureError as exc:
        return 0, [{"check": "ideal-closure", "detail": str(exc)}]
    return checks, []


def _suite_gen_agreement(g, table):
    jc = gen_jw_closed(g, table)
    jp = gen_jw_projection(g, table)
    failures = []
    if set(jc.coeffs) != set(jp.coeffs):
        failures.append({"check": "gen-agreement", "detail": "support mismatch"})
    else:
        for x, c in jc.coeffs.items():
            if jp.coeffs[x] != c:
                failures.append({"check": "gen-agreement", "element": x})
    return len(jc.coeffs) + 1, failures


_SUITE_RUNNERS = {
    "parity": _suite_parity,
    "bar-invariance": _suite_bar_invariance,
    "bruhat-order": _suite_bruhat_order,
    "triple-agreement": _suite_triple_agreement,
    "idempotency": _suite_idempotency,
    "annihilation": _suite_annihilation,
    "mu-identity": _suite_mu_identity,
    "ideal-closure": _suite_ideal_closure,
    "gen-agreement": _suite_gen_agreement,
}
_SUITES = tuple(_SUITE_RUNNERS)


def _cmd_verify(cfg: argparse.Namespace):
    if cfg.output != "json":
        raise UsageError("verify prints a JSON report only; --output must be json")
    if not cfg.suite:
        raise UsageError("verify requires --suite NAME; known suites: " + ", ".join(_SUITES))
    for name in cfg.suite:
        if name not in _SUITE_RUNNERS:
            raise UsageError(f"unknown suite {name!r}; known suites: " + ", ".join(_SUITES))
    g, table, cache_path = _build(cfg, needs_kl=True)
    docs = []
    failed = False
    for name in cfg.suite:
        checks, failures = _SUITE_RUNNERS[name](g, table)
        doc = _group_doc_header(g)
        doc.update({"suite": name, "checks": checks, "failures": failures})
        docs.append(doc)
        failed = failed or bool(failures)
        print(f"suite {name}: {checks} checks, {len(failures)} failures", file=sys.stderr)
    _save_cache(table, cache_path)
    return docs[0] if len(docs) == 1 else docs, None, 1 if failed else 0


# -- argument parsing ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="jwkit", description="Jones-Wenzl idempotent toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, info in [
        ("group", "print order, longest length, and FC count of a Coxeter group"),
        ("kl", "print all Kazhdan-Lusztig polynomials h_{y,x}"),
        ("grrk", "print graded ranks of every element"),
        ("esign", "print the sign idempotent in the standard basis"),
        ("jw", "print a Jones-Wenzl document"),
        ("verify", "run a verification suite"),
    ]:
        p = sub.add_parser(name, help=info)
        # every subcommand's namespace has method, sign and suite; only jw
        # and verify take them as options
        p.set_defaults(method="closed", sign="plus", suite=[])
        p.add_argument(
            "--family", required=True, type=lambda f: f.strip().upper(), help="A, B, C, F4, H3, H4, or I2"
        )
        p.add_argument("--rank", type=int)
        p.add_argument("--m", type=int, help="dihedral parameter (I2 only)")
        p.add_argument("--output", choices=["json", "csv", "latex"], default="json")
        p.add_argument("--cache-dir", help="KL cache directory (or JWKIT_CACHE_DIR)")
        p.add_argument("--allow-large", action="store_true", help="opt in to large computations")
        if name == "jw":
            p.add_argument("--method", choices=["closed", "wenzl", "projection"])
            p.add_argument("--sign", choices=["plus", "minus"])
        if name == "verify":
            p.add_argument("--suite", action="append", help="repeatable; " + ", ".join(_SUITES))
    return parser


def run(argv) -> int:
    """Parse argv, run one subcommand, print its document; returns the
    exit code (0 ok, 1 verification failure, 2 bad input, 3 KL data that
    breaks a Kazhdan-Lusztig law)."""
    parser = _build_parser()
    try:
        cfg = parser.parse_args(argv)
        if cfg.m is not None and cfg.family != "I2":
            raise UsageError("--m only applies to family I2")
        if cfg.command == "verify":
            head, items, code = _cmd_verify(cfg)
        else:
            head, items = {
                "group": _cmd_group,
                "kl": _cmd_kl,
                "grrk": _cmd_grrk,
                "esign": _cmd_esign,
                "jw": _cmd_jw,
            }[cfg.command](cfg)
            code = 0
        # every subcommand has finished its work (and saved its cache)
        # before anything is written, so a failure leaves stdout empty
        try:
            if cfg.output == "json":
                _write_json(sys.stdout, head, items)
            else:
                _write_table(sys.stdout, cfg.output, *head, items)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout early (``jwkit kl ... | head``); stdout
            # now goes to devnull so that the flush at exit stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except (UsageError, UnsupportedFamilyError, LargeComputationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KLLawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
