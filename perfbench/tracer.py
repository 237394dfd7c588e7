"""Per-layer tracing of jwkit from outside the package.

The tracer replaces the public functions of the seven layer modules,
plus a few named methods, with timing wrappers.  It patches every place
the function object is reachable: the defining module, every module that
imported it by name (``from .grank import grrk`` in ``tl``, ``gtl`` and
``cli``), the ``jwkit`` package namespace and class-level aliases such as
``LaurentPoly.__rmul__``.  A wrapper counts calls and measures self time,
its span minus the time covered by the traced calls it made.  Spans are
aggregated per function in memory rather than stored one by one, because
the qpoly layer makes millions of calls per workload.

Only work inside a job span (``Tracer.job``) is recorded.  Outside one
the wrappers call straight through, so the benchmark's correctness checks
add nothing to the per-layer numbers.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("qpoly", "coxeter", "hecke", "grank", "tl", "gtl", "cli")

# methods traced under a key of their own: key -> (layer, class, attribute)
METHODS = {
    "qpoly.ratfunc": ("qpoly", "RatFunc", "__init__"),
    "qpoly.laurent_mul": ("qpoly", "LaurentPoly", "__mul__"),
    "hecke.product": ("hecke", "HeckeElt", "__mul__"),
    "hecke.kl.fill": ("hecke", "KLTable", "column_packed"),
    "hecke.kl.decode": ("hecke", "KLTable", "column"),
}

# public functions whose key is not "<layer>.<name>"
RENAMED = {
    ("hecke", "write_kl_cache"): "hecke.cache.write",
    ("hecke", "load_kl_cache"): "hecke.cache.load",
}

ROOT = "bench.job"


class Tracer:
    """Wrap with ``with tracer.installed():``, record with ``with tracer.job():``.

    ``stats`` maps a key to [calls, self seconds];
    ``counters`` holds the work counts observed at the same boundaries.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.active = False
        self._stack = [0.0]
        self._grrk_args: set = set()

    def _timed(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def job(self):
        """Record one job as a root span in the ``bench`` layer.  Its self
        time is the benchmark's own glue inside the job."""
        stat = self.stats.setdefault(ROOT, [0, 0.0])
        before = Counter(self.counters)
        self._grrk_args = set()
        self._stack.append(0.0)
        self.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.active = False
            stat[0] += 1
            stat[1] += dt - self._stack.pop()
            c = self.counters
            c["grank.grrk.distinct"] += len(self._grrk_args)
            loaded = c["hecke.kl.columns_loaded"] - before["hecke.kl.columns_loaded"]
            if loaded:
                computed = c["hecke.kl.columns_computed"] - before["hecke.kl.columns_computed"]
                c["hecke.cache.warm_loaded"] += loaded
                c["hecke.cache.warm_needed"] += loaded + computed

    # -- counting hooks; each runs inside the span of the function it observes --------

    def _hooks(self, cache_error):
        counters = self.counters
        tracer = self

        def build_group(orig):
            def hooked(*args, **kwargs):
                g = orig(*args, **kwargs)
                counters["coxeter.elements_built"] += g.size
                return g

            return hooked

        def column_packed(orig):
            def hooked(table, x):
                before = len(table._cols)
                col = orig(table, x)
                counters["hecke.kl.columns_computed"] += len(table._cols) - before
                return col

            return hooked

        def write_kl_cache(orig):
            def hooked(path, table):
                n = orig(path, table)
                counters["hecke.cache.bytes_written"] += os.path.getsize(path)
                return n

            return hooked

        def load_kl_cache(orig):
            def hooked(path, table):
                counters["hecke.cache.bytes_read"] += os.path.getsize(path)
                try:
                    added = orig(path, table)
                except cache_error:
                    counters["hecke.cache.load_failed"] += 1
                    raise
                counters["hecke.kl.columns_loaded"] += added
                return added

            return hooked

        def grrk(orig):
            def hooked(g, cache, x):
                tracer._grrk_args.add((id(cache), x))
                return orig(g, cache, x)

            return hooked

        return {
            "coxeter.build_group": build_group,
            "hecke.kl.fill": column_packed,
            "hecke.cache.write": write_kl_cache,
            "hecke.cache.load": load_kl_cache,
            "grank.grrk": grrk,
        }

    # -- installation -----------------------------------------------------------------

    @staticmethod
    def targets() -> list[tuple[str, object]]:
        """(key, function) for every traced function of the imported package."""
        out = []
        for layer in LAYERS:
            mod = sys.modules["jwkit." + layer]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and (layer, name) != ("cli", "main")
                ):
                    out.append((RENAMED.get((layer, name), f"{layer}.{name}"), fn))
        for key, (layer, cls, attr) in METHODS.items():
            out.append((key, vars(getattr(sys.modules["jwkit." + layer], cls))[attr]))
        return out

    @contextmanager
    def installed(self):
        """Wrap every alias of every traced function; restore them on exit."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "jwkit"]
        owners = modules + [
            c
            for m in modules
            for c in vars(m).values()
            if inspect.isclass(c) and c.__module__ == m.__name__
        ]
        hooks = self._hooks(sys.modules["jwkit.hecke"].CacheFormatError)
        patches = []
        try:
            for key, fn in self.targets():
                wrapped = self._timed(key, hooks[key](fn) if key in hooks else fn)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            patches.append((owner, attr, fn))
                            setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, fn in reversed(patches):
                setattr(owner, attr, fn)


def per_layer_metrics(tracer: Tracer, traced_wall: float, overhead: float) -> dict:
    """Every per-layer metric of the benchmark, name -> (value, unit).
    ``traced_wall`` is the raw time of the traced jobs, which the layer
    self times add up to; ``overhead`` is the traced minus the untraced
    time of the same job list."""
    stats, c = tracer.stats, tracer.counters

    def calls(key):
        return stats.get(key, [0])[0], "count"

    def self_s(key):
        return stats.get(key, [0, 0.0])[1], "s"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    def count(name, unit="count"):
        return c[name], unit

    m = {}
    for key in ("coxeter.build_group", "hecke.product", "hecke.to_kl_basis", "grank.grrk",
                "tl.multiply_tl", "tl.compose", "gtl.gtl_multiply", "qpoly.ratfunc",
                "qpoly.laurent_mul"):
        m[key + ".calls"] = calls(key)
        m[key + ".self_s"] = self_s(key)
    for key in ("grank.jw_coefficient", "tl.monomial", "qpoly.poly_lcm",
                "qpoly.poly_exact_div", "cli.run"):
        m[key + ".calls"] = calls(key)
    for key in ("hecke.kl_product_coeffs", "hecke.antisymmetriser", "tl.wenzl_jw",
                "tl.closed_jw", "tl.project_pi", "gtl.gen_jw_closed", "gtl.gen_jw_projection",
                "gtl.check_ideal_closure"):
        m[key + ".self_s"] = self_s(key)
    for key in ("hecke.kl.fill", "hecke.kl.decode", "hecke.cache.write", "hecke.cache.load"):
        m[key + "_s"] = self_s(key)
    m["coxeter.elements_built"] = count("coxeter.elements_built")
    m["hecke.kl.columns_computed"] = count("hecke.kl.columns_computed")
    m["hecke.kl.columns_loaded"] = count("hecke.kl.columns_loaded")
    m["hecke.cache.bytes_written"] = count("hecke.cache.bytes_written", "B")
    m["hecke.cache.bytes_read"] = count("hecke.cache.bytes_read", "B")
    m["hecke.cache.load_failed"] = count("hecke.cache.load_failed")
    m["hecke.cache.hit_ratio"] = ratio(c["hecke.cache.warm_loaded"], c["hecke.cache.warm_needed"])
    m["grank.grrk.distinct_ratio"] = ratio(c["grank.grrk.distinct"], stats.get("grank.grrk", [0])[0])
    m["cli.stdout_bytes"] = count("cli.stdout_bytes", "B")
    # layer self times; with bench.self_s they account for trace.wall_s
    for layer in ("bench",) + LAYERS:
        m[layer + ".self_s"] = sum(v[1] for k, v in stats.items() if k.split(".")[0] == layer), "s"
    m["trace.wall_s"] = traced_wall, "s"
    m["trace.overhead_s"] = overhead, "s"
    return m
