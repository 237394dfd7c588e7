"""One benchmark run inside a fresh interpreter; ``run.py`` starts it.

It imports jwkit from the checkout's ``src`` (never an installed copy),
builds the workload's seeded inputs and job list, then runs the list:

* ``--trace 0``: passes over the job list, one after another, while
  another pass still fits in ``--seconds`` (always at least one);
* ``--trace 1``: one untraced pass, then one traced pass.

Pass times are reported raw and scaled to the reference host speed
(``hostspeed.py``); ``wall_s`` is the median scaled pass time.

With ``--probe`` it stops as soon as the first job is ready, to sample
set-up time.  The last stdout line is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _log(pass_no):
    def log(name, seconds, fails):
        status = "ok" if not fails else "FAILED: " + "; ".join(fails)
        print(f"pass {pass_no} {seconds:9.3f} s  {name}  {status}")
    return log


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started us")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import jwkit

    if Path(jwkit.__file__).resolve().parent != src / "jwkit":
        print(f"perfbench: imported jwkit from {jwkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import hostspeed
    import workloads
    from tracer import Tracer, per_layer_metrics

    try:
        inputs = workloads.generate(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "expected.json").read_text())
    job_list = workloads.jobs(args.workload, inputs, pins)
    setup_s = (time.monotonic() - args.spawned_at) * hostspeed.REFERENCE_S / statistics.median(
        hostspeed.loop_seconds() for _ in range(3))
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workdir = str(ROOT / ".perfbench-work")
    walls, raw_walls, attempted, failed = [], [], 0, 0

    def one_pass(tracer=None):
        """(raw seconds in jobs, scaled seconds in jobs) of one pass."""
        nonlocal attempted, failed
        ctx = workloads.new_pass(workdir, tracer)
        label = "traced" if tracer else str(len(walls))
        with hostspeed.Sampler() as speed:
            raw, results = workloads.run_pass(job_list, ctx, _log(label))
        scaled = sum(dt * speed.scale(t0, t0 + dt) for _, t0, dt, _ in results)
        print(f"pass {label} {raw:9.3f} s raw, {scaled:9.3f} s scaled  all jobs")
        attempted += len(results)
        failed += sum(1 for *_, fails in results if fails)
        return raw, scaled

    start = time.perf_counter()
    while True:
        raw, scaled = one_pass()
        raw_walls.append(raw)
        walls.append(scaled)
        elapsed = time.perf_counter() - start
        if args.trace or elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break
    per_layer = None
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced_raw, traced_scaled = one_pass(tracer)
        per_layer = per_layer_metrics(tracer, traced_raw, traced_scaled - walls[0])
    shutil.rmtree(Path(workdir) / "cache", ignore_errors=True)

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "passes": len(walls),
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
