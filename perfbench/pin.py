"""Record the pinned results of every CLI job: ``python3 perfbench/pin.py``.

Runs each workload's CLI jobs once, in order, and writes their exit codes
and stdout/stderr digests to ``expected.json``.  The pins were recorded
once, at the commit that added the benchmark; jwkit promises byte-identical
documents, so a later change that alters a digest is a failed job, not a
reason to re-pin.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    pins: dict = {}
    for w in workloads.WORKLOADS:
        ctx = workloads.new_pass(str(HERE.parent / ".perfbench-work"))
        for job in workloads.jobs(w, workloads.generate(w, 0), pins={}):
            if job.pin is None:
                continue
            code, out, err = job.run(ctx)
            rec = {"exit": code, "stdout_sha256": workloads.sha256(out),
                   "stderr_sha256": workloads.sha256(err)}
            if pins.setdefault(job.pin, rec) != rec:
                raise SystemExit(f"{job.pin}: two runs of the same command disagree")
            print(f"{code} {rec['stdout_sha256'][:16]} {job.name}")
    (HERE / "expected.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
