"""k3cycles benchmark: one workload, cold CLI jobs in a closed loop.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is used from source in src/;
there is nothing to build.  The jobs of the workload, generated from the
seed, run as passes, one child interpreter at a time, until another pass
would not fit in S seconds (at least one pass).  Every artifact is
checked.  Job times are scaled to a reference machine speed (harness.py).
The last line of stdout is the result:

  --trace 0: the end-to-end metrics of BENCHMARK.json
    wall_s       sum over the jobs of each job's median time over the passes
    job_p50_s    median over the jobs of the same per-job times
    peak_rss_mb  largest peak resident set size of any job's interpreter
    setup_s      median of 7 spawns of an interpreter up to `import k3cycles`
  --trace 1: untraced and traced passes alternate; the per-layer metrics
             are medians over the traced passes, and trace_overhead_ratio
             is traced wall_s over untraced wall_s.

Earlier lines give the machine facts and per-job details, raw times too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
import tracer
import workloads

SETUP_SAMPLES = 7


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown",
            )
        with open("/proc/loadavg", encoding="utf-8") as fh:
            facts["loadavg"] = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        facts.setdefault("cpu", "unknown")
    return facts


def job_report(passes: list[list[harness.Outcome]]) -> dict:
    report = {}
    for outcomes in passes:
        for o in outcomes:
            entry = report.setdefault(o.name, {"times": [], "raw_times": [], "failures": []})
            entry["times"].append(round(o.charged_s, 4))
            entry["raw_times"].append(round(o.raw_s, 4))
            if not o.ok:
                entry["failures"].append(o.reason[:300])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (harness.SRC / "k3cycles" / "__init__.py").is_file():
        sys.stderr.write(f"no k3cycles sources under {harness.SRC}; run from a full checkout\n")
        return 2
    print(json.dumps({"machine": machine_facts()}), flush=True)
    jobs = workloads.jobs_for(args.workload, args.seed)
    scratch = harness.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        harness.measure_setup(1)  # compile and cache the package's bytecode once
        setup_s = harness.measure_setup(SETUP_SAMPLES)
        start = time.perf_counter()
        plain, traced = [], []
        while True:
            t0 = time.perf_counter()
            plain.append(harness.run_pass(jobs, Path(tmp), False, start))
            if args.trace:
                traced.append(harness.run_pass(jobs, Path(tmp), True, start))
            used = time.perf_counter() - t0
            if time.perf_counter() - start + used > args.seconds:
                break
    everything = plain + traced
    summary = harness.summarize(plain)
    print(json.dumps({"passes": len(plain), "jobs_per_pass": summary["jobs"],
                      "job_samples": summary["samples"], "jobs": job_report(everything)}), flush=True)
    if args.trace:
        metrics = tracer.median_metrics(
            [tracer.pass_metrics([o.trace for o in p if o.trace]) for p in traced]
        )
        metrics["trace_overhead_ratio"] = harness.summarize(traced)["wall_s"] / summary["wall_s"]
        units = tracer.metric_units()
    else:
        metrics = {key: summary[key] for key in ("wall_s", "job_p50_s", "peak_rss_mb")}
        metrics["setup_s"] = setup_s
        units = {"wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    result = {
        "correct": not any(o.reason.startswith("wrong output") for p in everything for o in p),
        "attempted": sum(len(p) for p in everything),
        "failed": sum(not o.ok for p in everything for o in p),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
