"""Smoke test of the benchmark's own code at tiny sizes (about 15 s).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload's config generator and output check on two seeds, and
every trace hook once, through the same child runner the benchmark uses.
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def test_configs_are_a_function_of_the_seed():
    for name in NAMES:
        assert workloads.make_config(name, 7) == workloads.make_config(name, 7)
        assert workloads.make_config(name, 7) != workloads.make_config(name, 8)
        assert workloads.samples(name, workloads.make_config(name, 7)) > 0


@pytest.mark.parametrize("name", NAMES)
def test_two_seeds_pass_the_checks_and_every_hook_fires(name, tmp_path):
    plain = run.run_cli(name, workloads.make_config(name, 1, "tiny"), tmp_path, "plain")
    assert plain["problems"] == [] and plain["exit"] in run.OK_EXITS
    assert 0 < plain["setup_s"] < plain["wall_s"] and plain["peak_rss_mb"] > 0

    traced = run.run_cli(name, workloads.make_config(name, 2, "tiny"), tmp_path, "traced", trace=True)
    assert traced["problems"] == []
    report = traced["trace"]
    assert report["missing"] == []
    metrics = report["metrics"]
    assert set(metrics) == set(tracer.UNITS) and None not in metrics.values()
    assert metrics["cli.self_s"] > 0 and metrics["config.load_config.busy_s"] > 0
    span_names = {span[2] for span in report["spans"]}
    assert {"cli.main", "cli.command", "config.load_config"} <= span_names
    if name == "pointprocess-lognormal":
        for key, value in metrics.items():
            if key.startswith(("process.", "kernels.")):
                assert value == 0, key
        for part in ("intensity", "overshoot", "shift", "laplace"):
            assert metrics[f"diagnostics.{part}.busy_s"] > 0
        assert metrics["renewal.window.calls"] > 0 and metrics["renewal.simulate_forward.calls"] > 0
    else:
        assert metrics["process.replicate.calls"] > 0 and metrics["streams.stream.calls"] > 0
        assert metrics["kernels.sample_path.calls"] > 0 and metrics["kernels.path_values.calls"] > 0
        assert 0 < metrics["process.paths_per_point"] <= 1
        assert metrics["process.c_used.max"] > 0
    if name.startswith("converge"):
        assert metrics["stats.energy.calls"] == len(workloads.make_config(name, 2)["t_list"])
        assert 0 < metrics["stats.energy.unique_rows"] <= metrics["stats.energy.rows"]
        assert metrics["stats.ks.calls"] > 0


def test_reruns_with_different_bytes_fail():
    runs = [{"digest": "a", "problems": []}, {"digest": "a", "problems": []}, {"digest": "b", "problems": []}]
    run.mark_reruns(runs)
    assert [bool(r["problems"]) for r in runs] == [False, False, True]


def test_checks_reject_wrong_outputs(tmp_path):
    cfg = workloads.make_config("stationary-birthdeath", 3, "tiny")
    header = ",".join(f"u={v:.17g}" for v in cfg["u_grid"])
    (tmp_path / "matrix.csv").write_text(header + "\n" + "7,7,7\n" * cfg["n_replicates"])
    (tmp_path / "metadata.json").write_text(json.dumps(
        {"mode": "stationary", "n_replicates": cfg["n_replicates"], "u_grid": cfg["u_grid"],
         "truncation_bound_max": 1e-9}
    ))
    problems = workloads.check_outputs("stationary-birthdeath", cfg, tmp_path)
    assert any("Campbell" in p for p in problems)
    (tmp_path / "matrix.csv").unlink()
    assert workloads.check_outputs("stationary-birthdeath", cfg, tmp_path)


def test_missing_hook_reports_null():
    t = tracer.Tracer()
    t.hook(types.SimpleNamespace(), "eval_transient", "process.replicate")
    metrics = t.metrics()
    assert metrics["process.replicate.calls"] is None and metrics["process.replicate_us.p99"] is None
    assert metrics["stats.energy.calls"] == 0


def test_golden_digests_cover_every_workload():
    assert set(run.golden_digests()) == set(NAMES)
