"""Record the reference artifacts of the fixed cases from the current sources.

usage: python3 perfbench/record.py

Run from the repository root, only when an output change is intended:
the benchmark compares every fixed case with these files.
"""

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import harness
import workloads


def main() -> int:
    workloads.REFERENCE.mkdir(exist_ok=True)
    scratch = harness.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs_for(workload, 0):
                if not job.fixed:
                    continue
                artifacts: dict = {}
                outcome = harness.run_job(
                    dataclasses.replace(job, check=lambda text: []), Path(tmp), False, artifacts
                )
                if not outcome.ok:
                    sys.stderr.write(f"{job.name}: {outcome.reason}\n")
                    return 1
                shutil.copyfile(artifacts[job.name], workloads.REFERENCE / job.name.replace("/", "_"))
                print(f"recorded {job.name} ({outcome.charged_s:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
