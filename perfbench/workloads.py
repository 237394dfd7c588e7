"""The benchmark's workloads: seeded inputs, job lists and their checks.

A workload is a fixed list of jobs run one after another (a closed loop
with one client).  CLI jobs call the public entry point ``jwkit.cli.run``
with a fixed argument list; their stdout digest, stderr digest and exit
code are pinned in ``expected.json``.  Seeded jobs build random algebra
elements from plain data made by ``generate`` and multiply them through
the public API.  Each product is checked with an exact law that does not
rerun the kernel it checks:

* ``j a = a_e j`` and ``a j = a_e j``, where ``j`` is the Jones-Wenzl
  element (it kills every non-identity basis element) and ``a_e`` is the
  identity coefficient of ``a``;
* the identity coefficient of ``x y`` is ``x_e y_e``, since the map that
  kills every non-identity basis element is an algebra character;
* ``(x y) z = x (y z)`` on the first few triples.

Every jwkit function is looked up on its module at call time, so the
tracer's wrappers are seen.  Only ``run`` is timed; ``check`` runs after
it, outside the timing.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from jwkit import cli, coxeter, gtl, hecke, qpoly, tl

WORKLOADS = ("typeA-n6", "gtl-B4-H3", "f4-cache")

# Sizes of the seeded batches.  They are the same for every seed, so the
# kernels do the same amount of work on every seed (same compose calls).
TL_N = 6
TL_FC = 132  # fully commutative elements of S_6 (Catalan(6))
TL_J_PRODUCTS = 10  # each a is used for j a and for a j
TL_PAIRS = 6
TL_SUPPORT = 6
B4_FC, H3_FC = 83, 44
B4_PAIRS, H3_PAIRS = 12, 8
GTL_SUPPORT = 4
ASSOC_TRIPLES = 3  # pairs also checked by associativity, per batch
COEFF_TERMS = 2  # terms per numerator off the identity
COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]
    check: Callable[[dict, object], list]
    pin: str | None = None  # CLI jobs: the key of their pinned result


# -- seeded inputs (plain data; jwkit sees only these) -------------------------------


def _coefficient(rng, terms: int, den: int):
    """A numerator with ``terms`` terms, exponents in [-2, 2], over the
    quantum integer [den]."""
    return [[e, rng.choice(COEFFS)] for e in sorted(rng.sample(range(-2, 3), terms))], den


def _element(rng, fc_count: int, support: int, with_identity: bool, rational: bool):
    """(fc index, coefficient) pairs; index 0 is the identity.  An identity
    coefficient is a monomial: j a = a_e j then costs the same on every
    seed, where a two-term a_e makes the gcds behind it vary severalfold."""
    picks = rng.sample(range(1, fc_count), support - with_identity)
    out = [(0, _coefficient(rng, 1, 1))] if with_identity else []
    for i, x in enumerate(picks, start=len(out)):
        # denominators cycle through 1, [2], [3] by position
        out.append((x, _coefficient(rng, COEFF_TERMS, i % 3 + 1 if rational else 1)))
    return out


def generate(workload: str, seed: int) -> dict:
    """The workload's random inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "typeA-n6":
        def elt(with_identity):
            return _element(rng, TL_FC, TL_SUPPORT, with_identity, rational=True)
        return {
            "a": [elt(True) for _ in range(TL_J_PRODUCTS)],
            "pairs": [[elt(False) for _ in range(3)] for _ in range(TL_PAIRS)],
        }
    if workload == "gtl-B4-H3":
        def elt(fc_count, with_identity=False):
            return _element(rng, fc_count, GTL_SUPPORT, with_identity, rational=False)
        return {
            "B4": [[elt(B4_FC) for _ in range(3)] for _ in range(B4_PAIRS)],
            "H3": [[elt(H3_FC) for _ in range(3)] for _ in range(H3_PAIRS)],
            "a": elt(H3_FC, with_identity=True),
        }
    if workload == "f4-cache":
        return {}
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _ratfunc(coeff) -> qpoly.RatFunc:
    terms, den = coeff
    return qpoly.RatFunc(qpoly.LaurentPoly(dict(terms)), qpoly.quantum_int(den))


# -- CLI jobs ----------------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_job(argv: list, pins: dict, keep: bool = False) -> Job:
    """One ``jwkit.cli.run`` call.  ``{cache}`` in argv is the run's cache
    directory; the pin is looked up under the unsubstituted argv."""
    key = " ".join(argv)

    def run(ctx):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run([a.format(**ctx["paths"]) for a in argv])
        return code, out.getvalue(), err.getvalue()

    def check(ctx, result):
        code, out, err = result
        if keep:
            ctx["docs"][key] = out
        if ctx.get("tracer"):
            ctx["tracer"].counters["cli.stdout_bytes"] += len(out.encode())
        pin = pins.get(key)
        if pin is None:
            return [f"no pinned result for {key!r}"]
        got = {"exit": code, "stdout_sha256": sha256(out), "stderr_sha256": sha256(err)}
        return [f"{k}: expected {pin[k]}, got {got[k]}" for k in got if got[k] != pin[k]]

    return Job(key, run, check, key)


# -- laws for seeded products --------------------------------------------------------------


def _law_kills(j, a, unit):
    def check(ctx, prod):
        return [] if prod == j(ctx).scale(a(ctx).coefficient(unit)) else ["j a != a_e j"]
    return check


def _law_pair(x, y, z, mul, unit, assoc: bool):
    def check(ctx, prod):
        fails = []
        X, Y = x(ctx), y(ctx)
        if prod.coefficient(unit) != X.coefficient(unit) * Y.coefficient(unit):
            fails.append("identity coefficient of x y != x_e y_e")
        if assoc:
            Z = z(ctx)
            if mul(ctx, prod, Z) != mul(ctx, X, mul(ctx, Y, Z)):
                fails.append("(x y) z != x (y z)")
        return fails
    return check


def _product_jobs(prefix, j, n_j, n_pairs, mul, unit):
    """``j a`` and ``a j`` for the first n_j operands ctx["ops"][prefix + "a"]
    (when j is given), and ``x y`` for the first n_pairs triples (x, y, z) of
    ctx["ops"][prefix + "pairs"], each with its law."""
    jobs = []
    for i in range(n_j):
        a = lambda ctx, i=i: ctx["ops"][prefix + "a"][i]
        jobs.append(Job(f"{prefix}j*a[{i}]", lambda ctx, a=a: mul(ctx, j(ctx), a(ctx)),
                        _law_kills(j, a, unit)))
        jobs.append(Job(f"{prefix}a[{i}]*j", lambda ctx, a=a: mul(ctx, a(ctx), j(ctx)),
                        _law_kills(j, a, unit)))
    for i in range(n_pairs):
        x, y, z = (lambda ctx, i=i, k=k: ctx["ops"][prefix + "pairs"][i][k] for k in range(3))
        jobs.append(Job(f"{prefix}x*y[{i}]", lambda ctx, x=x, y=y: mul(ctx, x(ctx), y(ctx)),
                        _law_pair(x, y, z, mul, unit, assoc=i < ASSOC_TRIPLES)))
    return jobs


def _no_failures(ctx, result):
    return []


# -- typeA-n6 ---------------------------------------------------------------------------


def _typea_jobs(inputs, pins):
    n = str(TL_N)
    closed = ["jw", "--family", "A", "--rank", n, "--method", "closed"]
    jobs = [
        cli_job(closed, pins, keep=True),
        cli_job(["jw", "--family", "A", "--rank", n, "--method", "wenzl"], pins),
        cli_job(["jw", "--family", "A", "--rank", n, "--method", "projection"], pins),
        cli_job(["jw", "--family", "A", "--rank", n, "--sign", "minus"], pins),
        cli_job(["kl", "--family", "A", "--rank", str(TL_N - 1)], pins),
        cli_job(["verify", "--family", "A", "--rank", str(TL_N - 1),
                 "--suite", "triple-agreement"], pins),
    ]

    def decode_j(ctx):
        doc = json.loads(ctx["docs"][" ".join(closed)])
        ctx["j"] = tl.TLElt(TL_N, {
            tl.Diagram(TL_N, tuple(p - 1 for p in r["diagram"])):
                qpoly.RatFunc.from_triples(r["coefficient"])
            for r in doc["records"]
        })
        return ctx["j"]

    def check_j(ctx, j):
        ok = len(j.coeffs) == TL_FC and j.coefficient(tl.Diagram.identity(TL_N)) == 1
        return [] if ok else ["decoded j_6 has the wrong support or identity coefficient"]

    def operands(ctx):
        g = coxeter.build_group(coxeter.presentation("A", TL_N - 1))
        fc = g.fc_elements()
        if len(fc) != TL_FC:
            raise ValueError(f"S_{TL_N} has {len(fc)} FC elements, expected {TL_FC}")

        def elt(spec):
            return tl.TLElt(TL_N, {tl.monomial(g, fc[x]): _ratfunc(c) for x, c in spec})

        ctx["ops"] = {"a": [elt(s) for s in inputs["a"]],
                      "pairs": [[elt(s) for s in t] for t in inputs["pairs"]]}
        return ctx["ops"]

    mul = lambda ctx, x, y: tl.multiply_tl(x, y)
    jobs += [Job("decode j_6", decode_j, check_j), Job("operands", operands, _no_failures)]
    jobs += _product_jobs("", lambda ctx: ctx["j"], TL_J_PRODUCTS, TL_PAIRS, mul,
                          tl.Diagram.identity(TL_N))
    return jobs


# -- gtl-B4-H3 ----------------------------------------------------------------------------


def _gtl_jobs(inputs, pins):
    h3_closed = ["jw", "--family", "H3", "--method", "closed"]
    jobs = [
        cli_job(["jw", "--family", "B", "--rank", "4", "--method", "closed"], pins),
        cli_job(["jw", "--family", "B", "--rank", "4", "--method", "projection"], pins),
        cli_job(h3_closed, pins, keep=True),
        cli_job(["jw", "--family", "H3", "--method", "projection"], pins),
        cli_job(["esign", "--family", "B", "--rank", "4"], pins),
        cli_job(["verify", "--family", "B", "--rank", "4",
                 "--suite", "gen-agreement", "--suite", "ideal-closure"], pins),
        cli_job(["verify", "--family", "H3", "--suite", "idempotency"], pins),
    ]

    def operands(ctx):
        ops = {}
        for name, pres, count in (("B4", ("B", 4), B4_FC), ("H3", ("H3", None), H3_FC)):
            g = coxeter.build_group(coxeter.presentation(*pres))
            fc = g.fc_elements()
            if len(fc) != count:
                raise ValueError(f"{name} has {len(fc)} FC elements, expected {count}")
            elt = lambda spec, g=g, fc=fc: gtl.GTLElt(g, {fc[x]: _ratfunc(c) for x, c in spec})
            ctx[name] = (g, hecke.KLTable(g))
            ops[name + "pairs"] = [[elt(s) for s in t] for t in inputs[name]]
        ops["H3a"] = [elt(inputs["a"])]
        ctx["ops"] = ops
        return ops

    def decode_j(ctx):
        g, _ = ctx["H3"]
        doc = json.loads(ctx["docs"][" ".join(h3_closed)])
        coeffs = {}
        for r in doc["records"]:
            x = 0
            for letter in r["word"].replace("e", ""):
                x = g.right[x][int(letter) - 1]
            coeffs[x] = qpoly.RatFunc.from_triples(r["coefficient"])
        ctx["j"] = gtl.GTLElt(g, coeffs)
        return ctx["j"]

    def check_j(ctx, j):
        ok = len(j.coeffs) == H3_FC and j.coefficient(0) == 1
        return [] if ok else ["decoded j_H3 has the wrong support or identity coefficient"]

    def mul_in(group):
        return lambda ctx, x, y: gtl.gtl_multiply(x, y, ctx[group][1])

    jobs += [Job("operands and KL tables", operands, _no_failures),
             Job("decode j_H3", decode_j, check_j)]
    jobs += _product_jobs("B4", None, 0, B4_PAIRS, mul_in("B4"), 0)
    jobs += _product_jobs("H3", lambda ctx: ctx["j"], 1, H3_PAIRS, mul_in("H3"), 0)
    return jobs


# -- f4-cache -----------------------------------------------------------------------------

F4_ARGV = ["jw", "--family", "F4", "--allow-large", "--cache-dir", "{cache}"]
F4_CACHE_FILE = "kl-F4-4.kltab"


def _f4_jobs(inputs, pins):
    cold, warm = cli_job(F4_ARGV, pins), cli_job(F4_ARGV, pins)
    pinned = cold.check

    def check_cold(ctx, result):
        fails = pinned(ctx, result)
        if not os.path.isfile(os.path.join(ctx["paths"]["cache"], F4_CACHE_FILE)):
            fails.append("the cold run wrote no cache file")
        return fails

    return [Job("cold " + cold.name, cold.run, check_cold, cold.pin),
            Job("warm " + warm.name, warm.run, warm.check, warm.pin)]


def jobs(workload: str, inputs: dict, pins: dict) -> list:
    return {"typeA-n6": _typea_jobs, "gtl-B4-H3": _gtl_jobs, "f4-cache": _f4_jobs}[workload](
        inputs, pins
    )


# -- running -------------------------------------------------------------------------------


def new_pass(workdir: str, tracer=None) -> dict:
    """Fresh per-pass state, with an empty cache directory."""
    cache = os.path.join(workdir, "cache")
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    return {"paths": {"cache": cache}, "docs": {}, "tracer": tracer}


def run_pass(job_list: list, ctx: dict, log=None):
    """Run every job once, in order.  Returns (seconds spent in jobs,
    [(job name, start, seconds, failures)]), start a ``time.perf_counter``
    reading.  A job fails on an exception or a failed check; it never
    stops the pass."""
    tracer = ctx.get("tracer")
    total, results = 0.0, []
    for job in job_list:
        t0 = time.perf_counter()
        try:
            with tracer.job() if tracer else nullcontext():
                out = job.run(ctx)
        except Exception as exc:  # a failed job is counted, not fatal
            out, fails = None, [f"raised {type(exc).__name__}: {exc}"]
        else:
            fails = None
        dt = time.perf_counter() - t0
        total += dt
        if fails is None:
            try:
                fails = job.check(ctx, out)
            except Exception as exc:
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        results.append((job.name, t0, dt, fails))
        if log:
            log(job.name, dt, fails)
    return total, results
