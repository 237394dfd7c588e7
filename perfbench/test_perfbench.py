"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run short slices of the real job lists and take about ten seconds.
They are not part of the repository's tier-1 run, which collects ``tests/``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import hostspeed  # noqa: E402
from tracer import LAYERS, Tracer, per_layer_metrics  # noqa: E402

import jwkit  # noqa: E402
from jwkit import grank, qpoly, tl  # noqa: E402

PINS = json.loads((HERE / "expected.json").read_text())
A6_CLOSED = "jw --family A --rank 6 --method closed"
A6_WENZL = "jw --family A --rank 6 --method wenzl"


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    monkeypatch.delenv("JWKIT_CACHE_DIR", raising=False)
    return workloads.new_pass(str(tmp_path))


def _jobs(workload, names, pins=PINS, seed=0):
    by_name = {j.name: j for j in workloads.jobs(workload, workloads.generate(workload, seed), pins)}
    return [by_name[n] for n in names]


def _failed(results):
    return [name for name, *_, fails in results if fails]


def test_generation_is_deterministic_with_fixed_sizes():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7)
    one, two = (workloads.generate("typeA-n6", s) for s in (1, 2))
    assert one != two
    for inputs in (one, two):
        elements = inputs["a"] + [e for t in inputs["pairs"] for e in t]
        assert len(inputs["a"]) == workloads.TL_J_PRODUCTS
        assert len(inputs["pairs"]) == workloads.TL_PAIRS
        assert {len(e) for e in elements} == {workloads.TL_SUPPORT}
        assert all(a[0][0] == 0 and len(a[0][1][0]) == 1 for a in inputs["a"])
    gtl_inputs = workloads.generate("gtl-B4-H3", 3)
    assert len(gtl_inputs["B4"]) == workloads.B4_PAIRS
    assert {len(e) for t in gtl_inputs["B4"] + gtl_inputs["H3"] for e in t} == {
        workloads.GTL_SUPPORT
    }


def test_tampered_digest_is_a_failed_job(ctx):
    _, results = workloads.run_pass(_jobs("typeA-n6", [A6_WENZL]), ctx)
    assert _failed(results) == []
    tampered = {k: dict(v) for k, v in PINS.items()}
    tampered[A6_WENZL]["stdout_sha256"] = "0" * 64
    _, results = workloads.run_pass(_jobs("typeA-n6", [A6_WENZL], tampered), ctx)
    assert _failed(results) == [A6_WENZL]


def test_perturbed_products_are_failed_jobs(ctx):
    names = [A6_CLOSED, "decode j_6", "operands", "j*a[0]", "x*y[0]"]
    _, results = workloads.run_pass(_jobs("typeA-n6", names), ctx)
    assert _failed(results) == []

    # a non-identity term: j a = a_e j catches it on j*a, associativity on x*y
    extra = tl.TLElt(workloads.TL_N, {tl.Diagram.cupcap(workloads.TL_N, 0): qpoly.RatFunc.one()})
    jobs = _jobs("typeA-n6", names)
    for job in jobs[3:]:
        job.run = lambda c, run=job.run: run(c) + extra
    _, results = workloads.run_pass(jobs, workloads.new_pass(ctx["paths"]["cache"] + "-2"))
    assert _failed(results) == ["j*a[0]", "x*y[0]"]


def test_tracer_wraps_every_alias_and_accounts_for_wall(ctx):
    original = jwkit.grank.grrk
    tracer = Tracer()
    cache_job = workloads.cli_job(["jw", "--family", "B", "--rank", "3", "--cache-dir", "{cache}"], {})
    names = [A6_WENZL, A6_CLOSED, "decode j_6", "operands", "j*a[0]", "x*y[0]"]
    jobs = _jobs("typeA-n6", names) + [cache_job, cache_job]
    traced_ctx = workloads.new_pass(ctx["paths"]["cache"] + "-traced", tracer)
    with tracer.installed():
        wrapped = jwkit.grank.grrk
        assert wrapped is not original and wrapped.__wrapped__ is not None
        assert jwkit.tl.grrk is wrapped and jwkit.cli.grrk is wrapped and jwkit.grrk is wrapped
        assert jwkit.tl.to_kl_basis is jwkit.hecke.to_kl_basis is jwkit.gtl.to_kl_basis
        assert qpoly.LaurentPoly.__rmul__ is qpoly.LaurentPoly.__mul__
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "jwkit"]
        for _, fn in Tracer.targets():
            for m in modules:
                assert all(v is not fn for v in vars(m).values())
        wall, results = workloads.run_pass(jobs, traced_ctx)
    assert grank.grrk is original and jwkit.cli.grrk is original

    # digests and laws hold with tracing on; the cache job has no pin
    assert _failed(results) == [cache_job.name] * 2
    m = {k: v for k, (v, _) in per_layer_metrics(tracer, wall, 0.0).items()}
    layer_sum = sum(m[layer + ".self_s"] for layer in ("bench",) + LAYERS)
    assert abs(layer_sum - m["trace.wall_s"]) <= 0.03 * m["trace.wall_s"]
    assert m["cli.run.calls"] == 4
    assert m["grank.grrk.calls"] > 0 and m["tl.monomial.calls"] > 0
    assert m["tl.multiply_tl.calls"] >= 2 and m["tl.compose.calls"] > 0
    assert m["hecke.kl.columns_loaded"] > 0 and m["hecke.cache.hit_ratio"] == 1.0
    assert m["hecke.cache.bytes_written"] > 0 and m["hecke.cache.load_failed"] == 0
    assert 0 < m["grank.grrk.distinct_ratio"] < 1


def test_host_speed_scale_covers_every_job():
    with hostspeed.Sampler() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * hostspeed.PERIOD_S:
            hostspeed.loop_seconds()
        t1 = time.perf_counter()
    for window in ((t0, t1), (t0, t0), (t1 + 60, t1 + 60)):
        assert 0.05 < speed.scale(*window) < 20


def test_benchmark_json_names_every_printed_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    printed = per_layer_metrics(Tracer(), 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_, u) in printed.items()}


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "typeA-n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
