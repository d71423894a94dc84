"""Fresh-process benchmark of ``ctower verify`` on three workloads.

    python3 perfbench/run.py --workload flagship_q3 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from any directory; the package is imported from ``src/`` next to this
directory.  A closed loop from this one process starts one child at a time,
each a fresh interpreter running the real CLI.  It starts another child only
while the previous child's duration still fits in ``--seconds`` (so a run
ends within about ``--seconds``), and always runs at least one.  Fresh
processes matter: the package's module-level ``lru_cache``s are cold for
every user of the CLI.

Every CLI run is checked: exit code 0, ``all_passed`` in the report, and
report bytes equal to the sha256 pinned in ``digests.json`` for the config
the seed picks.  Any mismatch counts the run as failed.

``--trace 0`` reports the end-to-end metrics (medians over the children).
Its times are in reference seconds: a child's wall time (or set-up time)
divided by the mean duration of the calibration loop ``child.py`` runs every
20 ms beside the program, times that loop's reference duration.  The
machine's speed drifts by 20-50% over minutes and moves both alike, so the
ratio holds still while the raw seconds do not; raw ``wall_s``, ``cpu_s``
and set-up seconds are printed as well.
``--trace 1`` runs traced children instead (see ``tracer.py``) and reports
the per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from child import CALIB_REF_S  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, job_for  # noqa: E402

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Set-up is short and noisy, so each run takes at least this many samples.
SETUP_SAMPLES = 12
# A child still running this long after its workload started is killed and
# counted as failed, so one workload ends within 180 s.
WORKLOAD_LIMIT_S = 165


@dataclass
class Sample:
    exit_code: int
    start: float  # time.monotonic() just before the spawn
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Runner:
    """Spawns children for one job in a scratch directory inside the checkout."""

    def __init__(self, workdir: Path, job):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.count = 0
        self.deadline = time.monotonic() + WORKLOAD_LIMIT_S
        config = workdir / "config.json"
        config.write_text(json.dumps(job.config))
        self.cli_argv = [*job.argv, "--config", str(config)]
        env = dict(os.environ)
        paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        self.env = env

    def path(self, stem: str) -> Path:
        self.count += 1
        return self.workdir / f"{self.count:04d}-{stem}"

    def spawn(self, script: str, argv) -> Sample:
        """Run one child to completion and return its resource usage."""
        with open(self.path("log"), "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / script), *argv],
                cwd=self.workdir, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(proc.returncode, start, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024)

    def cli_run(self, script, expected_digest):
        """One checked CLI run of ``script`` (child.py or tracer.py).

        Returns the sample, the failure reason (None when the run passed),
        the path of the script's side file (the set-up and calibration
        record of child.py, the summary of tracer.py) and the path of the
        report.
        """
        side, out = self.path("side"), self.path("report.json")
        sample = self.spawn(script, [str(side), "--", *self.cli_argv, "--out", str(out)])
        return sample, check_report(sample, out, expected_digest), side, out

    def setup_only(self):
        """Raw and calibrated set-up time of a ``--setup-only`` child."""
        side = self.path("side")
        sample = self.spawn("child.py", [str(side), "--setup-only", "--", *self.cli_argv])
        if sample.exit_code != 0 or not side.exists():
            raise RuntimeError(f"set-up child failed with exit code {sample.exit_code}")
        setup = setup_times(sample, json.loads(side.read_text()))
        if setup is None:
            raise RuntimeError("set-up child wrote no calibration samples")
        return setup


def setup_times(sample: Sample, side: dict):
    """(raw, calibrated) set-up seconds, or None without a calibration sample."""
    if side["setup_calib_s"] is None:
        return None
    raw = side["setup_done"] - sample.start
    return raw, raw / side["setup_calib_s"] * CALIB_REF_S


def check_report(sample: Sample, out: Path, expected_digest: str | None):
    """The reason a CLI run failed, or None; no digest check without one."""
    if sample.exit_code != 0:
        return f"exit code {sample.exit_code}"
    if not out.exists():
        return "no report written"
    data = out.read_bytes()
    try:
        report = json.loads(data)
        passed = report.get("all_passed", all(v["passed"] for v in report["verdicts"]))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if not passed:
        return "a verdict failed"
    digest = hashlib.sha256(data).hexdigest()
    if expected_digest is not None and digest != expected_digest:
        return f"report digest {digest[:12]} differs from the pinned {expected_digest[:12]}"
    return None


def load_digests():
    return json.loads((BENCH / "digests.json").read_text())


def another_fits(start: float, seconds: float, last) -> bool:
    """True before the first child, then while one more like ``last`` fits."""
    return last is None or time.monotonic() + last.wall_s <= start + seconds


def timed(runner: Runner, job, digest: str, seconds: float):
    """End-to-end metrics of untraced children over ``seconds``."""
    runner.setup_only()  # warm-up: byte-compiles the package, not timed
    start = time.monotonic()
    runs, walls, setups, failures = [], [], [], []
    while another_fits(start, seconds, runs[-1] if runs else None):
        setups.append(runner.setup_only())
        sample, failure, side_path, _ = runner.cli_run("child.py", digest)
        runs.append(sample)
        side = json.loads(side_path.read_text()) if side_path.exists() else None
        setup = setup_times(sample, side) if side else None
        if failure is None and setup is None:
            failure = "no calibration samples written"
        if failure:
            failures.append(failure)
        if setup is not None:
            setups.append(setup)
            walls.append(sample.wall_s / side["calib_s"] * CALIB_REF_S)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup_only())
    samples = {
        "wall_ref_s": walls,
        "setup_s": [calibrated for _, calibrated in setups],
        "peak_rss_mb": [s.peak_rss_mb for s in runs],
    }
    raw_times = (("wall_s", [s.wall_s for s in runs]), ("cpu_s", [s.cpu_s for s in runs]),
                 ("setup_s", [raw for raw, _ in setups]))
    notes = [f"raw {name}: {statistics.median(values):.6g} s (median of {len(values)})"
             for name, values in raw_times]
    return samples, len(runs), failures, notes


def traced(runner: Runner, job, digest: str, seconds: float):
    """Per-layer metrics of traced children over ``seconds``."""
    start = time.monotonic()
    summaries, failures = [], []
    attempted, sample = 0, None
    while another_fits(start, seconds, sample):
        attempted += 1
        sample, failure, summary_path, _ = runner.cli_run("tracer.py", digest)
        summary = json.loads(summary_path.read_text()) if summary_path.exists() else None
        if failure is None and summary is None:
            failure = "no trace summary written"
        if failure is None:
            orders = tuple(order for _, order in summary["layer_orders"])
            if orders != job.layer_orders:
                failure = f"layer orders {orders} differ from {job.layer_orders}"
        if failure:
            failures.append(failure)
        else:
            summaries.append(summary)
    samples = {name: [s["metrics"][name] for s in summaries] for name in PER_LAYER}
    notes = []
    if summaries:
        last = summaries[-1]
        notes.append(f"|G_n| by layer n: {dict(last['layer_orders'])}")
        notes.append(f"Theta enumeration degree D by layer n: {dict(last['theta_D'])}")
        self_s = {name: statistics.median(s["self_s"][name] for s in summaries)
                  for name in last["self_s"]}
        traced_s = sum(self_s.values())
        notes.append(f"self time of all {len(self_s)} spans: {traced_s:.3f} s")
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            if value >= 0.01 * traced_s:
                notes.append(f"  {name:40s} {value:8.3f} s {100 * value / traced_s:5.1f}%")
    return samples, attempted, failures, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    job = job_for(workload, seed)
    digest = load_digests()[job.key]
    runner = Runner(workdir, job)
    measure = traced if trace else timed
    samples, attempted, failures, notes = measure(runner, job, digest, seconds)
    units = PER_LAYER if trace else END_TO_END
    metrics = {}
    print(f"== {workload} seed={seed} config={job.key} trace={int(trace)}")
    for note in notes:
        print(f"   {note}")
    for name, unit in units.items():
        values = samples[name]
        if not values:
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"   {name}: {value:.6g} {unit} (median of {len(values)})")
    print(f"   fail_share: {len(failures)}/{attempted} runs failed")
    for failure in failures:
        print(f"   FAILED: {failure}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ctower" / "cli.py").is_file():
        print(f"error: no ctower sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      workdir / name) for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
