"""jwkit benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  Each run is hermetic: the workload runs
in a fresh interpreter (``worker.py``) with ``JWKIT_CACHE_DIR`` unset, a
fixed ``PYTHONHASHSEED`` and an emptied cache directory, and a lock file
lets only one run execute at a time.  Set-up time is sampled in that
interpreter and in a few more that stop once the first job is ready; the
median is reported.

Stdout carries one line per job, a table of every metric with its unit,
and last one JSON object: ``correct``, ``attempted``, ``failed`` (jobs)
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"
SETUP_PROBES = 8
RUN_TIMEOUT_S = 165
PROBE_TIMEOUT_S = 10


def _spawn(args: list, timeout: float):
    """Run worker.py in a fresh interpreter; (its log lines, its result)."""
    env = {k: v for k, v in os.environ.items() if k not in ("JWKIT_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = HASH_SEED
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "jwkit" / "__init__.py").is_file():
        print(f"perfbench: no jwkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(work / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            log, res = _spawn(run_args, RUN_TIMEOUT_S)
            setups = [res["setup_s"]]
            for _ in range(0 if args.trace else SETUP_PROBES):
                setups.append(_spawn(run_args + ["--probe"], PROBE_TIMEOUT_S)[1]["setup_s"])
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    for line in log:
        print(line)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
        shown = dict(metrics)
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        # failures are reported through "failed" / "attempted"; the ratio
        # is shown here but kept out of the metrics, whose values are never 0
        shown = dict(metrics, jobs_failed_ratio={
            "value": res["failed"] / res["attempted"], "unit": "ratio"},
            raw_wall_s={"value": res["raw_wall_s"], "unit": "s"})
    print(f"workload {args.workload} seed {args.seed}: {res['passes']} pass(es), "
          f"{res['attempted']} jobs, {res['failed']} failed")
    for name, m in shown.items():
        print(f"{name:<34} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
