"""Pin the report digest of every config the seeds can pick.

    python3 perfbench/pin.py

Runs each distinct job of ``workloads.all_jobs()`` once through the real CLI,
requires exit code 0 and every verdict passed, and writes the sha256 of each
``--out`` report to ``digests.json``.  Rerun it only for a change that is
meant to alter report bytes.
"""

import hashlib
import json
import os
import shutil
import sys

from run import BENCH, ROOT, Runner
from workloads import all_jobs


def main() -> int:
    workdir = ROOT / ".perfbench_tmp" / f"pin-{os.getpid()}"
    digests = {}
    try:
        for job in all_jobs():
            runner = Runner(workdir / str(len(digests)), job)
            sample, failure, _, out = runner.cli_run("child.py", None)
            if failure:
                print(f"{job.key}: {failure}")
                return 1
            digests[job.key] = hashlib.sha256(out.read_bytes()).hexdigest()
            print(f"{job.key}: {digests[job.key]} ({sample.wall_s:.1f} s)", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
