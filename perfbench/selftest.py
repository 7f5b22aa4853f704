"""Self-test of the benchmark harness.

usage: python3 perfbench/selftest.py     (from the repository root)

Checks the failure accounting (a hung child is killed and charged the
deadline, a wrong artifact fails its job, a job whose input failed is not
run), the self-time arithmetic on a synthetic span tree, and that tracing
sees a call made through a name another module imported.
"""

from __future__ import annotations

import math
import sys
import tempfile
import time
from pathlib import Path

import harness
import tracer

failures = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def test_hung_child_is_killed() -> None:
    t0 = time.perf_counter()
    rc, elapsed = harness.execute(
        [sys.executable, "-c", "import time; time.sleep(60)"], Path.cwd(), deadline=0.5
    )
    check(rc is None, "a hung child reports no exit code")
    check(0.5 <= elapsed < 5 and time.perf_counter() - t0 < 5, "a hung child is killed at the deadline")


def test_failure_accounting(workdir: Path) -> None:
    real_execute = harness.execute

    def hang_some(cmd, cwd, deadline):
        if Path(cwd).name == "hang":
            return None, deadline
        return real_execute(cmd, cwd, deadline)

    jobs = [
        harness.Job("table", lambda text: [], argv=["table"]),
        harness.Job("hang", lambda text: [], argv=["table"]),
        harness.Job("after-hang", lambda text: [], argv=["info", "--lattice", "input.json"], needs="hang"),
        harness.Job("wrong", lambda text: ["always wrong"], argv=["table"]),
    ]
    harness.execute = hang_some
    try:
        outcomes = harness.run_pass(jobs, workdir, False, time.perf_counter())
    finally:
        harness.execute = real_execute
    by_name = {o.name: o for o in outcomes}
    check(by_name["table"].ok and by_name["table"].charged_s < 5, "a passing job is charged its own time")
    check(by_name["hang"].reason == "deadline", "a hung job fails at the deadline")
    check(by_name["after-hang"].reason == "hang failed", "a job whose input failed is not run")
    check(by_name["wrong"].reason.startswith("wrong output"), "a wrong artifact fails its job")
    summary = harness.summarize([outcomes])
    want_wall = by_name["table"].charged_s + 3 * harness.DEADLINE_S
    check(math.isclose(summary["wall_s"], want_wall), "failed jobs are charged the deadline in wall_s")
    check(summary["job_p50_s"] == harness.DEADLINE_S, "failed jobs count as missing in job_p50_s")
    check((summary["samples"], summary["failed"]) == (4, 3), "attempted and failed jobs are counted")


def test_self_times() -> None:
    spans = [
        ["cli.run", -1, 0.0, 10.0],
        ["theta.theta_coeffs", 0, 1.0, 4.0],
        ["enumeration.norm_histogram", 1, 2.0, 3.5],
        ["lattice.discriminant_group", 0, 5.0, 9.0],
        ["linalg.smith_normal_form", 3, 6.0, 8.0],
    ]
    check(tracer.self_times(spans) == [3.0, 1.5, 1.5, 2.0, 2.0], "self time is span minus its children")
    counters = {"vectors": 300, "snf_bits": 7}
    m = tracer.pass_metrics([{"spans": spans, "counters": counters}] * 2)
    check(m["cli.self_s"] == 6.0 and m["theta.self_s"] == 3.0, "layer self times add over jobs")
    check(m["linalg.smith_normal_form.calls"] == 2, "calls are counted")
    check(m["enumeration.vectors_per_s"] == 600 / 3.0, "vectors per second of enumeration time")
    check(m["linalg.snf_entry_bits_max"] == 7, "largest Smith-form entry is a maximum, not a sum")
    check(set(m) | {"trace_overhead_ratio"} == set(tracer.metric_units()), "every per-layer metric is reported")


def test_tracing_sees_imported_names() -> None:
    sys.path.insert(0, str(harness.SRC))
    import k3cycles

    rec = tracer.Recorder()
    tracer.install(rec)
    k3cycles.theta_coeffs(k3cycles.builtin_lattice("A1"), None, bound=8)
    names = [s[0] for s in rec.spans]
    parents = {s[0]: rec.spans[s[1]][0] for s in rec.spans if s[1] >= 0}
    check("theta.theta_coeffs" in names, "a package-level call is traced")
    check(
        parents.get("enumeration.norm_histogram") == "theta.theta_coeffs",
        "theta's imported norm_histogram is traced as enumeration, inside theta",
    )
    check(rec.counters.get("vectors") == 5, "vectors are counted from the returned histogram")


def main() -> int:
    scratch = harness.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    test_hung_child_is_killed()
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        test_failure_accounting(Path(tmp))
    test_self_times()
    test_tracing_sees_imported_names()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
