"""Checks of the benchmark's own parts: the seed -> config generator, the
tracer's binding and arithmetic, and the metric lists in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ctower import cli  # noqa: E402
from ctower.rayclass import build_layer  # noqa: E402

SEEDS = range(60)
SMALL_ARGV = ["verify", "all", "--q", "2", "--p", "x^2+x+1", "--Sigma", "x",
              "--sigma-alt", "x+1", "--N", "1", "--cases", "20"]


def _tower_config(job, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(job.config))
    return cli._verify_config(Namespace(config=str(path)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert [workloads.job_for(workload, s) for s in SEEDS] == \
        [workloads.job_for(workload, s) for s in SEEDS]


def test_every_seed_lands_on_a_pinned_config():
    keys = {job.key for job in workloads.all_jobs()}
    digests = run.load_digests()
    assert set(digests) == keys
    for workload in workloads.WORKLOADS:
        assert {workloads.job_for(workload, s).key for s in SEEDS} <= keys
    assert len({workloads.job_for("flagship_q3", s).key for s in SEEDS}) == 18
    assert len({workloads.job_for("deep_q2", s).key for s in SEEDS}) == 2
    assert len({workloads.job_for("algebra", s).key for s in SEEDS}) == 4


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.job_for("nope", 0)


def test_configs_are_valid_and_group_orders_do_not_depend_on_the_seed(tmp_path):
    for job in workloads.all_jobs():
        cfg, N, opts = _tower_config(job, tmp_path)
        assert N + 1 == len(job.layer_orders)
        assert opts.sigma_alt and not (opts.sigma_alt & cfg.sigma)
        assert not (opts.sigma_alt & cfg.S)
        assert tuple(build_layer(cfg, n).order for n in range(N + 1)) == job.layer_orders


def test_self_time_excludes_wrapped_callees_and_recursion_counts_once():
    tr = tracer.Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def inner():
        busy(0.01)

    def outer(depth):
        busy(0.01)
        inner_w()
        if depth:
            outer_w(depth - 1)

    inner_w = tr.wrap("inner", inner)
    outer_w = tr.wrap("outer", outer)
    outer_w(1)
    o, i = tr.spans["outer"], tr.spans["inner"]
    assert (o.calls, i.calls) == (2, 2)
    assert o.self_s + i.total_s == pytest.approx(o.total_s, rel=1e-9)
    assert o.total_s >= 0.04 and o.self_s >= 0.02


def test_traced_report_is_byte_identical_and_every_reference_is_wrapped(tmp_path):
    env = run.Runner(tmp_path, workloads.job_for("algebra", 0)).env
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    summary = tmp_path / "summary.json"
    subprocess.run([sys.executable, "-m", "ctower.cli", *SMALL_ARGV, "--out", str(plain)],
                   env=env, check=True, capture_output=True)
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(summary), "--",
                    *SMALL_ARGV, "--out", str(traced)],
                   env=env, check=True, capture_output=True)
    assert plain.read_bytes() == traced.read_bytes()
    data = json.loads(summary.read_text())
    assert set(data["metrics"]) == set(tracer.PER_LAYER)
    assert data["layer_orders"] == [[0, 3], [1, 12]]
    assert data["metrics"]["rayclass.decomposition_group.calls"] > 0
    assert data["metrics"]["lfun.theta.total_s"] > 0


def test_calibrated_report_is_byte_identical(tmp_path):
    env = run.Runner(tmp_path, workloads.job_for("algebra", 0)).env
    plain, probed = tmp_path / "plain.json", tmp_path / "probed.json"
    side = tmp_path / "side.json"
    subprocess.run([sys.executable, "-m", "ctower.cli", *SMALL_ARGV, "--out", str(plain)],
                   env=env, check=True, capture_output=True)
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(side), "--",
                    *SMALL_ARGV, "--out", str(probed)],
                   env=env, check=True, capture_output=True)
    assert plain.read_bytes() == probed.read_bytes()
    data = json.loads(side.read_text())
    assert data["calib_samples"] > 0
    assert data["calib_s"] > 0 and data["setup_calib_s"] > 0


def test_an_escaped_reference_is_detected(tmp_path):
    # cli.py binds lfun.theta as theta_op; a copy the tracer did not rebind
    # must make check_bound fail.
    code = (
        "import tracer\n"
        "from ctower import cli, lfun\n"
        "t = tracer.Tracer(); t.install()\n"
        "cli.theta_copy = lfun.theta.traced_original\n"
        "try:\n"
        "    t.check_bound()\n"
        "except RuntimeError as exc:\n"
        "    print('detected', exc)\n"
    )
    env = run.Runner(tmp_path, workloads.job_for("algebra", 0)).env
    env["PYTHONPATH"] += f":{BENCH}"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "detected ctower.cli.theta_copy" in out


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
