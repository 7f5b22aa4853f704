"""Closed-loop job execution: one client, one child process at a time.

Every job runs cold in a fresh interpreter (child.py), so no cache of the
package carries work from one job to the next.  A job fails when its
child exits nonzero, its artifact fails the job's check, or it passes the
per-job deadline; a failed job is charged the deadline.

Times are scaled to a reference machine speed.  On the 2-core machine the
benchmark was built on, the same job's wall time moves by 25% (quartile
spread) from one run to the next, because the speed of the virtual CPU
drifts, with no steal time to account for it.  Each child therefore also
times a fixed calibration loop just before, every 0.1 s during and
just after its job, and the job's time is multiplied by CALIBRATION_REF_S
times the mean of 1/timing: seconds at the speed where that loop takes
CALIBRATION_REF_S.  The raw times are printed with the result.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Four times the slowest passing job (the E8 pair count, about 7 s), so no
# passing job comes near it; a hung job costs this much and no more.
DEADLINE_S = 30.0
# No job starts once it could end past this point of a run, so a run with
# hung jobs still exits well within three minutes.
RUN_CAP_S = 140.0
# child.calibrate() on that machine at its fast end (median 0.029 s).
CALIBRATION_REF_S = 0.025


@dataclass
class Job:
    """One k3cycles invocation plus the check its artifact must pass.

    `files` are JSON inputs written into the job's directory; `needs`
    names an earlier job of the same pass whose artifact becomes this
    job's `input.json`; `fixed` marks a case with fixed inputs, whose
    artifact is also compared with the one recorded in reference/.
    """

    name: str
    check: Callable[[str], list[str]]
    argv: Optional[list[str]] = None
    call: Optional[dict] = None
    files: dict = field(default_factory=dict)
    needs: Optional[str] = None
    fixed: bool = False


@dataclass
class Outcome:
    name: str
    ok: bool
    charged_s: float
    raw_s: float = 0.0
    rss_kb: int = 0
    reason: str = ""
    trace: Optional[dict] = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def execute(cmd: list[str], cwd: Path, deadline: float) -> tuple[Optional[int], float]:
    """Run cmd to completion or kill it at the deadline.

    Returns (exit code or None when killed, elapsed seconds); the child has
    always ended when this returns.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    try:
        _out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, time.perf_counter() - t0
    if proc.returncode != 0 and err:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, time.perf_counter() - t0


def run_job(job: Job, workdir: Path, trace: bool, artifacts: dict[str, Path]) -> Outcome:
    """Run one job cold and check its artifact."""
    jobdir = workdir / job.name.replace("/", "_")
    jobdir.mkdir(parents=True, exist_ok=True)
    for fname, content in job.files.items():
        (jobdir / fname).write_text(json.dumps(content), encoding="utf-8")
    if job.needs is not None:
        (jobdir / "input.json").write_bytes(artifacts[job.needs].read_bytes())
    artifact = jobdir / "artifact"
    artifact.unlink(missing_ok=True)
    spec: dict = {"trace": trace}
    if job.argv is not None:
        spec["argv"] = job.argv + ["--output", str(artifact)]
    else:
        spec["call"] = job.call
        spec["output"] = str(artifact)
    (jobdir / "job.json").write_text(json.dumps(spec), encoding="utf-8")
    result_path = jobdir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "job.json", "result.json"]
    rc, _elapsed = execute(cmd, jobdir, DEADLINE_S)
    if rc is None:
        return Outcome(job.name, False, DEADLINE_S, reason="deadline")
    if rc != 0 or not result_path.exists():
        return Outcome(job.name, False, DEADLINE_S, reason=f"child exit {rc}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["rc"] != 0:
        return Outcome(job.name, False, DEADLINE_S, reason=f"k3cycles exit {result['rc']}")
    problems = job.check(artifact.read_text(encoding="utf-8"))
    if problems:
        return Outcome(job.name, False, DEADLINE_S, reason="wrong output: " + "; ".join(problems))
    artifacts[job.name] = artifact
    speed = statistics.mean(1 / c for c in result["calibration_s"])
    scaled = result["job_s"] * CALIBRATION_REF_S * speed
    return Outcome(job.name, True, scaled, result["job_s"], result["rss_kb"], trace=result.get("trace"))


def run_pass(jobs: list[Job], workdir: Path, trace: bool, run_start: float) -> list[Outcome]:
    """Run every job once, in order, as one closed-loop client."""
    artifacts: dict[str, Path] = {}
    outcomes = []
    for job in jobs:
        if time.perf_counter() - run_start + DEADLINE_S > RUN_CAP_S:
            outcomes.append(Outcome(job.name, False, DEADLINE_S, reason="run cap"))
        elif job.needs is not None and job.needs not in artifacts:
            outcomes.append(Outcome(job.name, False, DEADLINE_S, reason=f"{job.needs} failed"))
        else:
            outcomes.append(run_job(job, workdir, trace, artifacts))
    return outcomes


def measure_setup(count: int) -> float:
    """Median time from spawning an interpreter to `import k3cycles` done,
    scaled by a calibration loop run right after the import."""
    probe = "import time, k3cycles; t = time.perf_counter(); import child; print(t, child.calibrate())"
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=HERE,
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=DEADLINE_S,
        )
        imported, calibration = map(float, out.stdout.split())
        samples.append((imported - t0) * CALIBRATION_REF_S / calibration)
    return statistics.median(samples)


def summarize(passes: list[list[Outcome]]) -> dict:
    """End-to-end figures over the passes of one run.

    Each job's time is its median over the passes; wall_s sums them and
    job_p50_s is their median.  A failed job counts at the deadline.
    """
    per_job: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            per_job.setdefault(o.name, []).append(o.charged_s)
    medians = [statistics.median(samples) for samples in per_job.values()]
    return {
        "wall_s": sum(medians),
        "job_p50_s": statistics.median(medians),
        "jobs": len(medians),
        "samples": sum(len(samples) for samples in per_job.values()),
        "failed": sum(not o.ok for outcomes in passes for o in outcomes),
        "peak_rss_mb": max((o.rss_kb for p in passes for o in p), default=0) / 1024,
    }
