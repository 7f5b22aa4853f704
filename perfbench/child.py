"""Run one benchmark job in a fresh interpreter.

usage: python3 child.py JOB.json RESULT.json

JOB.json holds either {"argv": [...]} for one `k3cycles <subcommand>`
invocation, whose artifact goes to the file named by its --output flag,
or {"call": {...}} for a public library call that the command line has
no subcommand for; its result is written as a JSON artifact to
{"output": PATH}.  With {"trace": true} every layer's public functions
are wrapped first (see tracer.py).

RESULT.json receives the job time (from entering the subcommand to the
artifact being written), the durations of a fixed calibration loop run
just before the job, every 0.1 s during it (untraced jobs only; the
time spent in those samples is taken out of the job time) and just after
it, the exit code, the peak resident set size and, when traced, the spans
and counters.
"""

import json
import resource
import signal
import sys
import time
from fractions import Fraction

import k3cycles
from k3cycles import cli


def _run_call(spec: dict, output: str) -> int:
    lat = k3cycles.Lattice(tuple(tuple(row) for row in spec["gram"]))
    if spec["fn"] == "tuple_rep_count":
        payload = {"count": k3cycles.tuple_rep_count(lat, spec["target"])}
    elif spec["fn"] == "siegel_theta_table":
        table = k3cycles.siegel_theta_table(lat, spec["genus"], spec["bound"])
        payload = {
            "genus": table.genus,
            "bound": table.bound,
            "entries": [[[list(r) for r in t], rank, c] for t, rank, c in table.entries],
        }
    else:
        raise ValueError(f"unknown library call {spec['fn']!r}")
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


SAMPLE_EVERY_S = 0.1
SAMPLE_SHARE = 5  # a sample during the job runs a fifth of the loop


def calibrate(share: int = 1) -> float:
    """Time a fixed piece of pure-Python work like the package's own.

    The machine's speed drifts by tens of percent within a second; the
    harness scales each job's time by this loop's time, sampled in the same
    process around and during the job.  With share k, 1/k of the loop runs
    and its time is multiplied by k.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 8000 // share):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
    table: dict[int, int] = {}
    for i in range(60000 // share):
        table[i % 97] = table.get(i % 97, 0) + i * i
    return (time.perf_counter() - t0) * share


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    rec = None
    if job.get("trace"):
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    if "argv" in job:
        fn, args, root = cli.run, (job["argv"],), "cli.run"
    else:
        fn, args, root = _run_call, (job["call"], job["output"]), "job.call"
    samples = [calibrate()]
    pauses = []

    def sample(_signum, _frame):
        t = time.perf_counter()
        samples.append(calibrate(SAMPLE_SHARE))
        pauses.append((t, time.perf_counter() - t))

    if rec is None:
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    rc = rec.call(root, fn, args, {}) if rec else fn(*args)
    t1 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0)
    samples.append(calibrate())
    result = {
        "rc": rc,
        "job_s": t1 - t0 - sum(d for t, d in pauses if t < t1),
        "calibration_s": samples,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rec:
        result["trace"] = rec.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
