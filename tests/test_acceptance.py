"""Acceptance gate: ten exact criteria, one visible PASS/FAIL line each.

Every assertion is at tolerance zero; all arithmetic is in Q(v).  The
F4 legs of criteria 8 and 9 (about two seconds, nearly all KL and
generalised-TL work) and the H4 group-order check of criterion 10 (a
fraction of a second) run as tests of their own.  The n = 7 leg of
criterion 2 (the triple agreement on S_7, marked ``stretch``) runs on a
KL table that is freed when the test ends, and so does the n = 7 leg of
criterion 3 (wenzl_jw(7) idempotent and annihilating, about 2 s).

Full KL data for H4 (|W| = 14400) is a documented long-running option of
the library, exercised through the CLI with --allow-large; it is not part
of the acceptance gate and no test pretends otherwise.

One note on criterion 4: its law "[T_w0]^2 = grrk(w0) [T_w0]" conflicts
with its own "e_sign^2 = e_sign" on every group with odd length(w0),
since [T_w0] delta_s = -v [T_w0] forces
[T_w0]^2 = (-1)^length(w0) grrk(w0) [T_w0].  The suite checks the signed
law on every listed group, and additionally the literal unsigned form on
the groups where length(w0) is even (there the two coincide).  The
per-criterion line records this.
"""

import json
import time
from functools import lru_cache

import conftest
import pytest

from jwkit import cli
from jwkit.coxeter import classical_order, presentation
from jwkit.grank import grrk
from jwkit.gtl import GTLElt, check_ideal_closure, gen_jw_closed, gen_jw_projection, gtl_multiply
from jwkit.hecke import (
    HeckeElt,
    KLTable,
    antisymmetriser,
    kl_basis,
    t_w0_class,
    verify_bar_invariance,
)
from jwkit.qpoly import LaurentPoly, RatFunc, parity_class, quantum_factorial, quantum_int
from jwkit.tl import TLElt, closed_jw, jw_minus, multiply_tl, project_pi, wenzl_jw

from oracles import catalan, grp, kl_basis_bruteforce, times_gen

# the group list shared by criteria 4, 5, 6: A_{<=4}, B2, B3, H3, I2(m <= 8)
GROUPS = (
    [("A", r, None) for r in (1, 2, 3, 4)]
    + [("B", 2, None), ("B", 3, None), ("H3", 3, None)]
    + [("I2", 2, m) for m in (3, 4, 5, 6, 7, 8)]
)

# criterion 8/9 group list (F4 in a leg of its own)
GEN_GROUPS = [("B", 2, None), ("B", 3, None), ("H3", 3, None)] + [
    ("I2", 2, m) for m in (3, 4, 5, 6, 7, 8)
]


@lru_cache(maxsize=None)
def table(family, rank, m=None):
    return KLTable(grp(family, rank, m))


def report(num, ok, detail):
    """Register one visible line per criterion; conftest prints them in
    the terminal summary, outside pytest's capture."""
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:>3}: {tag}  {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {num}: {detail}"


def _gname(args):
    family, rank, m = args
    return f"I2({m})" if family == "I2" else f"{family}{rank if family in 'AB' else ''}"


# -- criterion 1: the j_3 regression through the CLI -----------------------------------


def test_criterion_01_j3_regression(capsys):
    t0 = time.monotonic()
    code = cli.run(["jw", "--family", "A", "--rank", "3", "--method", "closed"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    ok = code == 0
    doc = json.loads(out) if ok else {}
    two, three = quantum_int(2), quantum_int(3)
    expected = {
        "e": RatFunc.one(),
        "1": RatFunc(-two, three),
        "2": RatFunc(-two, three),
        "12": RatFunc(LaurentPoly.one(), three),
        "21": RatFunc(LaurentPoly.one(), three),
    }
    got = {r["word"]: RatFunc.from_triples(r["coefficient"]) for r in doc.get("records", [])}
    ok = ok and got == expected and elapsed < 1.0
    report(1, ok, f"jw --family A --rank 3: 5 exact coefficients in {elapsed:.2f}s")


# -- criterion 2: triple agreement ------------------------------------------------------


def _constructions(n, g, t):
    return closed_jw(n, g, t), wenzl_jw(n), project_pi(antisymmetriser(g, t), t)


@lru_cache(maxsize=None)
def _triple(n):
    return _constructions(n, grp("A", n - 1), table("A", n - 1))


def test_criterion_02_triple_agreement():
    ok = True
    for n in range(2, 7):
        jc, jwz, jpr = _triple(n)
        ok = ok and jc == jwz == jpr
    report(2, ok, "closed = wenzl = projection coefficientwise, n = 2..6")


@pytest.mark.stretch
def test_criterion_02_stretch_n7():
    """On a KL table of its own, outside the cached table() and _triple(),
    so the A6 table (about 380 MB at its peak) is freed with the test."""
    t0 = time.monotonic()
    g = grp("A", 6, allow_large=True)
    jc, jwz, jpr = _constructions(7, g, KLTable(g))
    ok = jc == jwz == jpr and len(jc.coeffs) == catalan(7)
    report(2, ok, f"stretch leg: triple agreement at n = 7 in {time.monotonic()-t0:.0f}s")


# -- criterion 3: idempotency and annihilation -------------------------------------------


def _idempotent_annihilating(j, n, sign=1):
    if multiply_tl(j, j) != j:
        return False
    for i in range(n - 1):
        u = TLElt.gen(n, i, sign)
        if multiply_tl(j, u).coeffs or multiply_tl(u, j).coeffs:
            return False
    return True


def test_criterion_03_idempotent_annihilation():
    ok = all(_idempotent_annihilating(j, n) for n in range(2, 7) for j in _triple(n))
    ok = ok and _idempotent_annihilating(wenzl_jw(7), 7)
    for n in range(2, 7):
        jm = jw_minus(n, grp("A", n - 1), table("A", n - 1))
        ok = ok and _idempotent_annihilating(jm, n, sign=-1)
    report(
        3,
        ok,
        "j^2 = j, j u_i = u_i j = 0 (3 constructions, n <= 6; wenzl_jw(7)); j_n^- laws n <= 6",
    )


# -- criterion 4: antisymmetriser laws ----------------------------------------------------


def test_criterion_04_antisymmetriser_laws():
    ok = True
    even_checked = 0
    minus_v = RatFunc(LaurentPoly({1: -1}))
    for args in GROUPS:
        g = grp(*args)
        t = table(*args)
        e = antisymmetriser(g, t)
        ok = ok and e * e == e
        for s in range(g.rank):
            ok = ok and times_gen(e, s, side="right") == e.scale(minus_v)
            bs = kl_basis(g, g.right[0][s], t)
            ok = ok and not (e * bs).coeffs and not (bs * e).coeffs
        tw = t_w0_class(g)
        grrk_w0 = grrk(g, t, g.w0).value
        lw0 = g.length[g.w0]
        signed = grrk_w0 if lw0 % 2 == 0 else -grrk_w0
        ok = ok and tw * tw == tw.scale(RatFunc(signed))
        if lw0 % 2 == 0:
            even_checked += 1
            ok = ok and tw * tw == tw.scale(RatFunc(grrk_w0))
    report(
        4,
        ok,
        "e^2 = e, e d_s = -v e, e b_s = b_s e = 0 on 13 groups; "
        f"[T]^2 = (-1)^l(w0) grrk(w0) [T] everywhere, literal unsigned form on the "
        f"{even_checked} even-l(w0) groups (sign note: the unsigned law is "
        "inconsistent with e^2 = e when l(w0) is odd)",
    )


# -- criterion 5: KL sanity ----------------------------------------------------------------


def test_criterion_05_kl_sanity():
    ok = True
    for args in GROUPS:
        g = grp(*args)
        t = table(*args)
        col = t.column(g.w0)
        ok = ok and set(col) == set(range(g.size))
        for x, h in col.items():
            ok = ok and h == LaurentPoly({g.length[g.w0] - g.length[x]: 1})
        ok = ok and verify_bar_invariance(g, t) == g.size
    for m in (3, 4, 5, 6, 7, 8):
        g = grp("I2", 2, m)
        t = table("I2", 2, m)
        for x in range(g.size):
            col = t.column(x)
            oracle = kl_basis_bruteforce(g, x)
            ok = ok and col == oracle
            for y, h in col.items():
                ok = ok and h == LaurentPoly({g.length[x] - g.length[y]: 1})
    report(5, ok, "b_w0 columns exact, all b_x bar-invariant (13 groups); "
           "dihedral tables match the brute-force bar-repair oracle")


# -- criterion 6: the parity lemma ------------------------------------------------------------


def test_criterion_06_parity():
    ok = True
    checked = 0
    for args in GROUPS:
        g = grp(*args)
        t = table(*args)
        for x in range(g.size):
            checked += 1
            ok = ok and parity_class(grrk(g, t, x).value, g.length[x])
    report(6, ok, f"grrk(x) in v^l(x) Z[v^-2] for all {checked} elements of 13 groups")


# -- criterion 7: the mu-identity --------------------------------------------------------------


def test_criterion_07_mu_identity():
    ok = True
    checked = 0
    for args in [("A", 2, None), ("A", 3, None), ("B", 2, None), ("B", 3, None),
                 ("I2", 2, 5), ("I2", 2, 6), ("I2", 2, 7)]:
        g = grp(*args)
        t = table(*args)
        checks, failures = cli._suite_mu_identity(g, t)
        checked += checks
        ok = ok and not failures
    report(7, ok, f"sum_x (-1)^l(x) grrk(x w0) mu^s_(y,x) = 0 for all {checked} (y, s) pairs")


# -- criterion 8: generalised agreement --------------------------------------------------------


def _gen_laws(g, t):
    jc = gen_jw_closed(g, t)
    if jc != gen_jw_projection(g, t):
        return False
    if gtl_multiply(jc, jc, t) != jc:
        return False
    for x in range(g.size):
        if g.length[x] == 1:
            b = GTLElt.beta(g, x)
            if gtl_multiply(jc, b, t).coeffs or gtl_multiply(b, jc, t).coeffs:
                return False
    return True


def test_criterion_08_generalised_agreement():
    ok = True
    for args in GEN_GROUPS:
        ok = ok and _gen_laws(grp(*args), table(*args))
    report(8, ok, "gen_jw closed = projection, idempotent, annihilating on "
           "B2, B3, H3, I2(3..8); F4 in leg 8+9")


# -- criterion 9: ideal closure ----------------------------------------------------------------


def test_criterion_09_ideal_closure():
    ok = True
    checked = 0
    for args in GEN_GROUPS:
        g = grp(*args)
        n = check_ideal_closure(g, table(*args))
        checked += n
        ok = ok and n == (g.size - len(g.fc_elements())) * g.rank
    report(9, ok, f"b_x b_s stays non-FC for all {checked} non-FC (x, s) pairs of criterion-8 groups")


def test_criteria_08_09_f4_leg():
    t0 = time.monotonic()
    g = grp("F4", 4, allow_large=True)
    t = KLTable(g)
    ok = _gen_laws(g, t)
    n = check_ideal_closure(g, t)
    ok = ok and n == (g.size - len(g.fc_elements())) * g.rank
    report("8+9", ok, f"F4 leg: gen-JW laws and ideal closure ({n} pairs) "
           f"in {time.monotonic()-t0:.0f}s")


# -- criterion 10: combinatorial counts ----------------------------------------------------------


def test_criterion_10_counts():
    ok = True
    order_checks = (
        [("A", r, None) for r in range(1, 7)]
        + [("B", r, None) for r in (2, 3, 4)]
        + [("H3", 3, None)]
        + [("I2", 2, m) for m in (3, 5, 7, 8, 12)]
        + [("F4", 4, None)]
    )
    for args in order_checks:
        g = grp(*args, allow_large=True)
        ok = ok and g.size == classical_order(presentation(args[0], rank=args[1], m=args[2]))
    for n in range(2, 8):
        g = grp("A", n - 1, allow_large=True)
        ok = ok and len(g.fc_elements()) == catalan(n)
    for n in range(2, 8):
        g = grp("A", n - 1, allow_large=True)
        t = table("A", n - 1) if n < 7 else KLTable(g)  # keeps no A6 table in table()
        ok = ok and grrk(g, t, g.w0).value == quantum_factorial(n)
    report(10, ok, "|W| classical on 16 groups (H4 in leg 10+); FC = Catalan(n) and "
           "grrk(w0) = [n]! in S_n for n <= 7")


def test_criterion_10_h4_order():
    g = grp("H4", allow_large=True)
    ok = g.size == classical_order(presentation("H4", rank=4)) == 14400
    report("10+", ok, "H4 order 14400 confirmed by enumeration")
