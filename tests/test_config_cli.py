import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import renewal_immigration
from renewal_immigration.cli import main
from renewal_immigration.config import load_config, parse_config
from renewal_immigration.errors import ConfigError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**extra):
    cfg = {
        "schema": 1,
        "law": {"family": "exponential", "rate": 1.0},
        "kernel": {"kind": "indicator", "eta": {"family": "exponential", "rate": 1.0}},
        "seed": 7,
    }
    cfg.update(extra)
    return cfg


def hash_tree(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------- config


def test_parse_config_field_errors():
    with pytest.raises(ConfigError, match="schema"):
        parse_config({"seed": 1})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"schema": 1, "law": {"family": "exponential", "rate": 1.0}})
    with pytest.raises(ConfigError, match="law"):
        parse_config({"schema": 1, "seed": 1, "kernel": {"kind": "spike_train"}})
    with pytest.raises(ConfigError, match="law"):
        parse_config(base_config() | {"law": {"family": "uniform", "lo": -1.0, "hi": 1.0}})
    with pytest.raises(ConfigError, match="kernel"):
        parse_config({"schema": 1, "seed": 1, "law": {"family": "exponential", "rate": 1.0}})
    table = {"kind": "deterministic_table", "breakpoints": [0.0, 1.0], "values": [1.0, 0.0]}
    for kernel in [
        base_config()["kernel"] | {"typo": 5},
        table | {"values": ["a", 0]},
        {"kind": "birth_death", "initial": 1.7, "birth_rates": [0.0, 0.0], "death_rates": [1.0, 1.0],
         "state_cap": 2},
    ]:
        with pytest.raises(ConfigError, match="^kernel: "):
            parse_config(base_config(kernel=kernel))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="config"):
        load_config(str(path))


# ----------------------------------------------------------------- simulate


BAD_TABLE = {"kind": "deterministic_table", "breakpoints": [0.0], "values": ["a"]}


@pytest.mark.parametrize(
    "command, fields, path",
    [
        ("simulate", {"t": 1.0, "u_grid": [0.0, float("nan")], "n_replicates": 5}, "u_grid"),
        ("simulate", {"t": 1.0, "u_grid": [0.0, float("inf")], "n_replicates": 5}, "u_grid"),
        ("simulate", {"t": 1.0, "u_grid": [True], "n_replicates": 5}, "u_grid"),
        ("simulate", {"t": float("nan"), "u_grid": [0.0], "n_replicates": 5}, "t"),
        ("stationary", {"u_grid": [float("nan")], "n_replicates": 5}, "u_grid"),
        ("stationary", {"u_grid": [0.0], "n_replicates": 5, "tol": float("nan")}, "tol"),
        ("converge", {"t_list": [True], "u_grid": [0.0], "n_replicates": 5}, "t_list"),
        ("converge", {"t_list": [float("nan")], "u_grid": [0.0], "n_replicates": 5}, "t_list"),
        ("converge", {"t_list": [1.0], "u_grid": [0.0, float("nan")], "n_replicates": 5}, "u_grid"),
        ("simulate", {"kernel": BAD_TABLE, "t": 1.0, "u_grid": [0.0], "n_replicates": 5}, "kernel"),
        ("pointprocess", {"pointprocess": {"laplace": {"h": BAD_TABLE}}}, "pointprocess.laplace.h"),
        ("pointprocess", {"pointprocess": {"laplace": {"h": {"kind": "spike_train"}}}}, "pointprocess.laplace.h"),
        ("simulate", {"law": {"family": "exponential", "rate": "a"}}, "law"),
        ("simulate", {"law": {"family": "exponential", "rate": True}}, "law"),
        ("simulate", {"law": {"family": "finite_discrete", "atoms": [[1.0]]}}, "law"),
        ("simulate", {"law": {"family": "finite_discrete", "atoms": [[1.0, "x"]]}}, "law"),
        ("simulate", {"kernel": {"kind": "indicator", "eta": {"family": "exponential", "rate": "a"}}}, "kernel"),
        ("simulate", {"kernel": {"kind": "indicator", "eta": {"family": "uniform", "lo": False, "hi": 1.0}}},
         "kernel"),
        ("pointprocess", {"pointprocess": {"intervals": [[2.0, 1.0]]}}, "pointprocess.intervals"),
        ("pointprocess", {"pointprocess": {"intervals": "x"}}, "pointprocess.intervals"),
        ("pointprocess", {"pointprocess": {"intervals": []}}, "pointprocess.intervals"),
        ("pointprocess", {"pointprocess": {"intervals": [[0.0]]}}, "pointprocess.intervals"),
        ("pointprocess", {"pointprocess": {"intervals": [[0.0, float("nan")]]}}, "pointprocess.intervals"),
        ("pointprocess", {"pointprocess": {"intervals": [[True, 1.0]]}}, "pointprocess.intervals"),
    ],
)
def test_malformed_fields_exit_1_without_traceback(tmp_path, capsys, command, fields, path):
    cfg = write_config(tmp_path, base_config(**fields))
    assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "stationary", "dri"])
def test_non_absorbed_path_exits_3_with_report(tmp_path, capsys, command):
    # Two states, one jump allowed: the first jump lands on 1, never on 0.
    kernel = {"kind": "birth_death", "initial": 2, "birth_rates": [1.0, 0.0], "death_rates": [1.0, 1.0],
              "state_cap": 2, "max_jumps": 1}
    cfg = write_config(tmp_path, base_config(kernel=kernel, t=5.0, u_grid=[0.0], n_replicates=20))
    out = tmp_path / "out"
    assert main([command, cfg, "--out-dir", str(out)]) == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["error"] == "non_absorbed_path" and summary["exit"] == 3
    payload = json.loads((out / f"{command}_error.json").read_text())
    assert payload["error"] == "non_absorbed_path" and "absorbed" in payload["message"]


def test_simulate_minimal_shape(tmp_path):
    cfg = write_config(tmp_path, base_config(t=30.0, u_grid=[0.0], n_replicates=100))
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "matrix.csv").read_text().strip().split("\n")
    assert lines[0] == "u=0"
    assert len(lines) == 101
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["mode"] == "transient"
    assert meta["seed"] == 7
    assert not list(out.glob("*.tmp"))


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(t=5.0, u_grid=[0.0, 1.0], n_replicates=50))
    hashes = set()
    stdout_lines = set()
    for i in range(2):
        out = tmp_path / f"run{i}"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        stdout_lines.add(capsys.readouterr().out)
        hashes.add(hash_tree(out))
    assert len(hashes) == 1
    assert len(stdout_lines) == 1


def test_simulate_rejects_negative_replicates(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(t=1.0, u_grid=[0.0], n_replicates=-5))
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "x")]) == 1
    assert "n_replicates" in capsys.readouterr().err


def test_simulate_requires_sorted_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(t=1.0, u_grid=[1.0, 0.0], n_replicates=5))
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "x")]) == 1
    assert "u_grid" in capsys.readouterr().err


# ----------------------------------------------------------------- stationary


def test_stationary_zero_kernel_all_zero(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(
            kernel={"kind": "deterministic_table", "breakpoints": [0.0], "values": [0.0]},
            u_grid=[0.0],
            n_replicates=20,
        ),
    )
    out = tmp_path / "out"
    assert main(["stationary", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "matrix.csv").read_text().strip().split("\n")[1:]
    assert all(row == "0" for row in rows)


def test_stationary_window_dump_point_mass(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "law": {"family": "point_mass", "value": 2.0},
            "kernel": {"kind": "deterministic_table", "breakpoints": [0.0], "values": [0.0]},
            "seed": 3,
            "u_grid": [0.0],
            "n_replicates": 5,
            "c": 3.0,
        },
    )
    out = tmp_path / "out"
    assert main(["stationary", cfg, "--out-dir", str(out), "--dump-window"]) == 0
    lines = (out / "window.csv").read_text().strip().split("\n")
    assert lines[0] == "index,point"
    pts = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.allclose(np.diff(pts), 2.0, atol=1e-12)


def test_stationary_truncation_failure_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(
            kernel={
                "kind": "scaled_exp_decay",
                "eta": {"family": "point_mass", "value": 1.0},
                "decay": 1.0,
            },
            u_grid=[0.0],
            n_replicates=3,
            tol=1e-300,
        ),
    )
    out = tmp_path / "out"
    assert main(["stationary", cfg, "--out-dir", str(out)]) == 2
    report = json.loads((out / "truncation_report.json").read_text())
    assert report["error"] == "truncation"
    assert report["bound"] > 1e-300
    assert report["replicate"] == 0


# ----------------------------------------------------------------- converge


def test_converge_exit_codes(tmp_path):
    ok = write_config(
        tmp_path,
        base_config(t_list=[30.0], u_grid=[0.0, 1.0], n_replicates=1500, alpha=0.01, seed=41),
        name="ok.json",
    )
    out = tmp_path / "ok"
    assert main(["converge", ok, "--out-dir", str(out)]) == 0
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "t,ks_p_u=0,ks_p_u=1,energy_p,decision"
    assert json.loads((out / "report_000.json").read_text())["decision"] == "non_reject"

    early = write_config(
        tmp_path,
        base_config(t_list=[0.5], u_grid=[0.0, 1.0], n_replicates=4000, alpha=0.01, seed=42),
        name="early.json",
    )
    assert main(["converge", early, "--out-dir", str(tmp_path / "early")]) == 2

    heavy = write_config(
        tmp_path,
        base_config(
            kernel={"kind": "indicator", "eta": {"family": "pareto", "alpha": 0.8, "xm": 1.0}},
            t_list=[5.0],
            u_grid=[0.0],
            n_replicates=100,
        ),
        name="heavy.json",
    )
    assert main(["converge", heavy, "--out-dir", str(tmp_path / "heavy")]) == 3
    report = json.loads((tmp_path / "heavy" / "report_000.json").read_text())
    assert report["decision"] == "hypothesis_violation"


def test_converge_with_exponential_law_never_imports_scipy_stats(tmp_path):
    # scipy.stats costs most of the start-up; only Gamma/LogNormal tails and
    # chi-square p-values need it.  A fresh interpreter shows what loads.
    cfg = write_config(
        tmp_path, base_config(t_list=[1.0], u_grid=[0.0, 1.0], n_replicates=50, n_permutations=19)
    )
    script = (
        "import sys\n"
        "from renewal_immigration.cli import main\n"
        f"assert main(['converge', {cfg!r}, '--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = str(Path(renewal_immigration.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert result.stdout.strip().splitlines()[-1] == "False"


# ----------------------------------------------------------------- dri


def test_dri_exit_codes(tmp_path):
    decay = write_config(
        tmp_path,
        base_config(
            kernel={
                "kind": "scaled_exp_decay",
                "eta": {"family": "point_mass", "value": 1.0},
                "decay": 1.0,
            },
            dri={"k_max": 40, "grid_per_unit": 8, "n_mc": 50},
        ),
        name="decay.json",
    )
    assert main(["dri", decay, "--out-dir", str(tmp_path / "decay")]) == 0

    spike = write_config(
        tmp_path,
        base_config(kernel={"kind": "spike_train"}, dri={"k_max": 400, "grid_per_unit": 4, "n_mc": 800}),
        name="spike.json",
    )
    out = tmp_path / "spike"
    assert main(["dri", spike, "--out-dir", str(out)]) == 3
    combined = json.loads((out / "dri_summary.json").read_text())
    assert combined["mean_verdict"] == "ConvergentEvidence"
    assert combined["path_verdict"] == "DivergentEvidence"
    assert "explanation" in combined

    heavy = write_config(
        tmp_path,
        base_config(
            kernel={"kind": "indicator", "eta": {"family": "pareto", "alpha": 0.8, "xm": 1.0}},
            dri={"k_max": 600, "grid_per_unit": 4, "n_mc": 400},
        ),
        name="heavy.json",
    )
    assert main(["dri", heavy, "--out-dir", str(tmp_path / "heavy")]) == 2


# ----------------------------------------------------------------- pointprocess


def test_pointprocess_exponential_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(
            pointprocess={
                "horizon": 30.0,
                "n_realizations": 4000,
                "n_windows": 4000,
                "intervals": [[0.0, 5.0]],
                "shift": 0.25,
                "laplace": {"t": 30.0, "n_mc": 4000},
            }
        ),
    )
    out = tmp_path / "out"
    assert main(["pointprocess", cfg, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "pointprocess.json").read_text())
    assert payload["intensity_pass"] and payload["overshoot_pass"]
    assert payload["shift_invariance_pass"] and payload["laplace_pass"]
    assert payload["warnings"] == []


def test_pointprocess_lattice_law_warns(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "law": {"family": "point_mass", "value": 1.0},
            "kernel": {"kind": "indicator", "eta": {"family": "exponential", "rate": 1.0}},
            "seed": 5,
            "pointprocess": {
                "horizon": 10.5,
                "n_realizations": 500,
                "n_windows": 500,
                "intervals": [[0.0, 3.0]],
                "shift": 0.25,
                "laplace": {"t": 10.5, "n_mc": 500},
            },
        },
    )
    out = tmp_path / "out"
    assert main(["pointprocess", cfg, "--out-dir", str(out)]) == 3
    payload = json.loads((out / "pointprocess.json").read_text())
    assert any("lattice" in w for w in payload["warnings"])


def test_unknown_command_rejected(tmp_path):
    cfg = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", cfg])
    assert info.value.code == 1  # usage errors share the config exit code


def test_csv_floats_use_17_significant_digits(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(
            kernel={
                "kind": "scaled_exp_decay",
                "eta": {"family": "exponential", "rate": 1.0},
                "decay": 1.0,
            },
            t=3.0,
            u_grid=[1.0 / 3.0],
            n_replicates=5,
        ),
    )
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "matrix.csv").read_text().strip().split("\n")
    assert lines[0] == f"u={1.0 / 3.0:.17g}"
    for line in lines[1:]:
        assert "," not in line
        value = float(line)
        assert f"{value:.17g}" == line
