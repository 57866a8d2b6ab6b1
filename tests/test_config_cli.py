import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renewal_immigration
from renewal_immigration import cli, config, stats
from renewal_immigration import distributions as dist
from renewal_immigration import diagnostics as dg
from renewal_immigration import kernels
from renewal_immigration.cli import main
from renewal_immigration.config import ExperimentConfig, load_config, parse_config
from renewal_immigration.errors import ConfigError, TruncationError
from renewal_immigration.process import FddSample, stationary_half_width
from renewal_immigration.renewal import build_stationary_window, point_rows
from renewal_immigration.streams import DUMP_WINDOW, stream


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


SMALL_POINTPROCESS = {"n_windows": 200, "n_realizations": 200, "laplace": {"n_mc": 200}}


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


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "too-deep"])
def test_unreadable_json_is_a_config_error(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="^config: invalid JSON"):
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
        ("stationary", {"u_grid": [0.0], "n_replicates": 5, "tol": None}, "tol"),
        ("dri", {"dri": {"k_max": None}}, "dri.k_max"),
        ("pointprocess", {"pointprocess": None}, "pointprocess"),
        ("pointprocess", {"pointprocess": {"laplace": 5}}, "pointprocess.laplace"),
        ("simulate", {"t": 1.0, "u_grid": [0.0], "n_replicates": 10**400}, "n_replicates"),
        ("simulate", {"law": {"family": "lognormal", "mu": 0, "sigma": 1e200}}, "law"),
        ("simulate", {"law": {"family": "uniform", "lo": 0, "hi": 1e308}}, "law"),
        ("stationary", {"kernel": {"kind": "scaled_exp_decay", "eta": {"family": "lognormal", "mu": 0, "sigma": 1e200},
                                   "decay": 1.0}, "u_grid": [0.0], "n_replicates": 5}, "kernel"),
        ("dri", {"kernel": {"kind": "scaled_exp_decay", "eta": {"family": "pareto", "alpha": 0.01, "xm": 1.0},
                            "decay": 20.0}, "seed": 3}, "kernel"),
    ],
)
def test_malformed_fields_exit_1_without_traceback(tmp_path, capsys, command, fields, path):
    cfg = write_config(tmp_path, base_config(**fields))
    assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"shift": 1e300}, "pointprocess.shift"),
        ({"horizon": 1e300}, "pointprocess.horizon"),
        ({"horizon": 1e9}, "pointprocess.horizon"),
        ({"laplace": {"t": 1e300}}, "pointprocess.laplace.t"),
        ({"intervals": [[0.0, 1e300]]}, "pointprocess.intervals"),
        ({"laplace": {"h": {"kind": "deterministic_table", "breakpoints": [0.0, 1e300], "values": [1.0, 0.0]}}},
         "pointprocess.laplace.h"),
        ({"n_windows": 1e12}, "pointprocess.n_windows"),
        ({"laplace": {"n_mc": 10**7}}, "pointprocess.laplace.n_mc"),
    ],
)
def test_pointprocess_work_budget_exits_1_before_any_draw(tmp_path, capsys, monkeypatch, fields, path):
    # The checks are replaced, so a missed budget fails here instead of
    # allocating a huge window or forward run.
    for name in ["intensity_check", "overshoot_check", "shift_invariance_check", "laplace_functional_compare"]:
        monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    cfg = write_config(tmp_path, base_config(pointprocess=fields))
    assert main(["pointprocess", cfg, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and "budget" in err
    assert "Traceback" not in err


# Every call of the command line that draws: a test replaces them so that
# no case can start a large allocation.
DRAWS = [
    "fdd_sample",
    "convergence_test",
    "dri_mean_check",
    "dri_path_check",
    "intensity_check",
    "overshoot_check",
    "shift_invariance_check",
    "laplace_functional_compare",
    "build_stationary_window",
]


@pytest.mark.parametrize(
    "command, fields, path",
    [
        ("simulate", {"t": 1e300, "u_grid": [0.0], "n_replicates": 5}, "t"),
        ("simulate", {"t": 1.0, "u_grid": [0.0], "n_replicates": 10**8}, "n_replicates"),
        ("stationary", {"u_grid": [0.0], "n_replicates": 5, "c": 1e300}, "c"),
        ("stationary", {"u_grid": [0.0, 1e300], "n_replicates": 5}, "u_grid"),
        ("stationary", {"u_grid": [0.0], "n_replicates": 10**7}, "n_replicates"),
        ("converge", {"t_list": [1.0, 1e300], "u_grid": [0.0], "n_replicates": 5}, "t_list"),
        ("converge", {"t_list": [1.0], "u_grid": [0.0], "n_replicates": 10**12}, "n_replicates"),
        ("dri", {"dri": {"k_max": 10**7}}, "dri.k_max"),
        ("dri", {"dri": {"n_mc": 10**12}}, "dri.n_mc"),
        # Within the budget for the mean criterion's grid alone, not with the path criterion's rows.
        ("dri", {"dri": {"k_max": 10**5, "grid_per_unit": 2, "n_mc": 99}}, "dri.n_mc"),
        # The tail bound 1/(c - 1) reaches 1e-9 at c = 10 * 2^27, a window of 2.7e9 points.
        ("stationary", {"kernel": {"kind": "spike_train"}, "u_grid": [0.0], "n_replicates": 5, "tol": 1e-9,
                        "c_max": 1e12}, "tol"),
        # Few renewal points, but a rejecting energy test would run every one of 10^12 labellings.
        ("converge", {"t_list": [0.05], "u_grid": [0.0, 1.0], "n_replicates": 200, "n_permutations": 10**12},
         "n_permutations"),
        ("converge", {"t_list": [1.0], "u_grid": [0.0], "n_replicates": 10**4, "n_permutations": 1e300},
         "n_permutations"),
        # About 2 points a row, but each row's points are evaluated on a grid of 10^5 points.
        ("simulate", {"t": 0.0, "u_grid": np.linspace(0.0, 1.0, 10**5).tolist(), "n_replicates": 10**4},
         "n_replicates"),
    ],
)
def test_work_budget_exits_1_before_any_draw(tmp_path, capsys, monkeypatch, command, fields, path):
    for name in DRAWS:
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: pytest.fail(f"{name} ran"))
    cfg = write_config(tmp_path, base_config(**fields))
    assert main([command, cfg, "--out-dir", str(tmp_path / "out"), "--dump-window"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and "budget" in err
    assert "Traceback" not in err


def test_readme_tables_every_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line")[1].split("\n## ")[0]
    tables = {}
    for chunk in section.split("Fields of ")[1:]:
        title, _, rest = chunk.partition(":\n\n")
        name = title.split("`")[1] if "`" in title else title
        tables[name] = set(re.findall(r"^\| `([\w.]+)` \|", rest.split("\n\n")[0], re.M))
    assert tables.pop("every command") == {"schema"} | {field.path for field in config.COMMON}
    assert tables == {command: {field.path for field in fields} for command, (fields, _) in config.COMMANDS.items()}


class WorkLedger:
    """Stand-ins for the calls that draw: each checks the rows and points it was asked for."""

    def __init__(self):
        self.total = 0.0

    def add(self, rows, points):
        assert points <= config.MAX_ROW_POINTS
        self.total += rows * (1.0 + points)

    def install(self, monkeypatch):
        for name in DRAWS:
            monkeypatch.setattr(cli, name, getattr(self, name))

    def fdd_sample(self, law, spec, mode, u_grid, n, seed, t=None, tol=1e-6, c_max=None):
        mu = law.mean()
        if mode == "transient":
            span = max(t + u_grid[-1], 0.0)
        else:
            # The window every replicate draws; raises, as the run does, when tol is out of reach.
            span = 2.0 * stationary_half_width(law, spec, u_grid, tol, c_max)[0]
        self.add(n, span / mu)
        return SimpleNamespace(u_grid=np.asarray(u_grid), values=np.zeros((0, len(u_grid))), c_used=None,
                               truncation_bound=None)

    def convergence_test(self, law, spec, t_list, u_grid, n, alpha, seed, n_permutations, tol):
        try:
            self.fdd_sample(law, spec, "stationary", u_grid, n, seed, tol=tol)
        except TruncationError:
            return [dg.ComparisonReport(t, tuple(u_grid), n, alpha, (), (), None, None, "hypothesis_violation")
                    for t in t_list]
        for t in t_list:
            self.fdd_sample(law, spec, "transient", u_grid, n, seed, t=t)
        return [dg.ComparisonReport(t, tuple(u_grid), n, alpha, (), (), None, None, "non_reject") for t in t_list]

    def _dri(self, n_mc, points, k_max):
        self.add(n_mc, points)
        return dg.DriReport("mean", np.zeros(1), np.zeros(1), dg.CONVERGENT_EVIDENCE, k_max, n_mc, 0.0)

    def dri_mean_check(self, spec, k_max, grid_per_unit, n_mc, rng):
        return self._dri(n_mc, k_max * grid_per_unit, k_max)

    def dri_path_check(self, spec, k_max, n_mc, rng):
        return self._dri(n_mc, k_max, k_max)

    def intensity_check(self, law, intervals, n_windows, rng):
        self.add(n_windows, 2.0 * dg.intensity_half_width(law, intervals) / law.mean())
        return [dg.IntervalIntensity(interval, 0.0, 0.0, 0.0) for interval in intervals]

    def overshoot_check(self, law, horizon, n_realizations, rng):
        self.add(n_realizations, horizon / law.mean())
        return dg.OvershootReport(stats.TestResult(0.0, 1.0, n_realizations, None, "ks"), horizon, False, None)

    def shift_invariance_check(self, law, shift, interval, n_windows, rng):
        self.add(n_windows, 2.0 * dg.shift_half_width(law, shift, interval) / law.mean())
        return stats.TestResult(0.0, 1.0, n_windows // 2, n_windows // 2, "chisq_homogeneity")

    def laplace_functional_compare(self, law, h, t, n_mc, rng):
        self.add(n_mc, t / law.mean())
        self.add(n_mc, 2.0 * dg.laplace_half_width(law, h) / law.mean())
        return dg.LaplaceComparison(1.0, 1.0, 0.1, 0.1, t, n_mc, False)

    def build_stationary_window(self, law, c, rng, size):
        self.add(size, 2.0 * c / law.mean())
        return build_stationary_window(law, law.mean(), rng, size=size)


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.integers(),
    st.floats(),
    st.sampled_from([1e300, -1e300, float("nan"), 2**70, 10**400]),
    st.lists(st.one_of(st.none(), st.floats(), st.text(max_size=1)), max_size=3),
)
SMALL = st.one_of(st.integers(-2, 30), st.floats(-2.0, 30.0), st.sampled_from([0.5, 19, 100, 10**4, 1e300]))
# Values of each field type, mostly valid, so that many cases reach the
# stand-ins; counts run from a few rows to far past the run budget.
GOOD = {
    "alpha": st.sampled_from([0.01, 0.2, 0.5, 0.7]),
    config._number: SMALL,
    config._integer: st.one_of(st.integers(-1, 300), st.sampled_from([10**4, 10**5, 10**6, 10**13])),
    config._grid: st.lists(SMALL, min_size=1, max_size=3, unique=True).map(sorted),
    config._times: st.lists(SMALL, min_size=1, max_size=3),
    config._intervals: st.lists(st.lists(SMALL, min_size=2, max_size=2).map(sorted), min_size=1, max_size=2),
    config._laplace_h: st.sampled_from([
        {"kind": "deterministic_table", "breakpoints": [0.0, 0.5, 2.0], "values": [0.3, 1.0, 0.0]},
        {"kind": "deterministic_table", "breakpoints": [0.0, 1e300], "values": [1.0, 0.0]},
        {"kind": "spike_train"},
    ]),
}
LAWS = [
    {"family": "exponential", "rate": 1.0},
    {"family": "uniform", "lo": 0.001, "hi": 0.003},
    {"family": "gamma", "shape": 2.0, "scale": 50.0},
]
KERNELS = [
    {"kind": "indicator", "eta": {"family": "exponential", "rate": 1.0}},
    {"kind": "deterministic_table", "breakpoints": [0.0, 40.0], "values": [1.0, 0.0]},
    {"kind": "spike_train"},
]


@st.composite
def command_configs(draw):
    command = draw(st.sampled_from(sorted(config.COMMANDS)))
    cfg = base_config(law=draw(st.sampled_from(LAWS)), kernel=draw(st.sampled_from(KERNELS)))
    for field in config.COMMANDS[command][0]:
        value = draw(st.sampled_from([GOOD.get(field.path, GOOD[field.parse])] * 6 + [None, JUNK]))
        if value is not None:
            value = draw(value)
            *parents, key = field.path.split(".")
            node = cfg
            for parent in parents:
                node = node.setdefault(parent, {})
            node[key] = value
    container = draw(st.sampled_from([None] * 9 + ["dri", "pointprocess", "laplace"]))
    if container is not None:
        node = cfg.get("pointprocess", {}) if container == "laplace" else cfg
        node[container] = draw(JUNK)
    return command, cfg, draw(st.sampled_from([[], ["--dump-window"]]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=command_configs())
def test_any_config_exits_0_to_3_within_the_work_budget(case):
    command, cfg, flags = case
    ledger = WorkLedger()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        ledger.install(monkeypatch)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--out-dir", str(Path(tmp) / "out")] + flags)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert code != 1 or err.getvalue().startswith("config error: ")
    assert ledger.total <= config.MAX_RUN_POINTS


@pytest.mark.parametrize("command", ["simulate", "stationary", "converge", "dri"])
def test_non_absorbed_path_exits_3_with_report(tmp_path, capsys, command):
    # Two states, one jump allowed: the first jump lands on 1, never on 0.
    kernel = {"kind": "birth_death", "initial": 2, "birth_rates": [1.0, 0.0], "death_rates": [1.0, 1.0],
              "state_cap": 2, "max_jumps": 1}
    cfg = write_config(tmp_path, base_config(kernel=kernel, t=5.0, t_list=[5.0], u_grid=[0.0], n_replicates=20))
    out = tmp_path / "out"
    assert main([command, cfg, "--out-dir", str(out)]) == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["error"] == "non_absorbed_path" and summary["exit"] == 3
    assert [path.name for path in out.iterdir()] == [f"{command}_error.json"]
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


def test_seeds_above_2_to_the_53_keep_every_digit(tmp_path, capsys):
    # Through a float, 2**53 + 1 reads as 2**53 and 10**30 as 10**30 + 19884624838656.
    for seed in (2**53 + 1, 10**30):
        assert parse_config(base_config(seed=seed)).seed == seed
    matrices = []
    for seed in (2**53, 2**53 + 1):
        cfg = write_config(tmp_path, base_config(seed=seed, t=5.0, u_grid=[0.0, 1.0], n_replicates=20))
        out = tmp_path / str(seed)
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        assert json.loads((out / "metadata.json").read_text())["seed"] == seed
        matrices.append((out / "matrix.csv").read_text())
    assert matrices[0] != matrices[1]


@pytest.mark.parametrize("out_dir", ["taken", "taken/out", "dir"])
def test_unwritable_out_dir_exits_1_without_traceback(tmp_path, capsys, out_dir):
    # ``taken`` is a file, and ``dir`` holds a directory where matrix.csv goes.
    cfg = write_config(tmp_path, base_config(t=1.0, u_grid=[0.0], n_replicates=5))
    (tmp_path / "taken").write_text("")
    (tmp_path / "dir" / "matrix.csv").mkdir(parents=True)
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("output error: ") and "Traceback" not in captured.err
    assert captured.out == "" and (tmp_path / "taken").read_text() == ""
    assert not list(tmp_path.rglob("*.tmp"))


def test_simulate_rejects_negative_replicates(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(t=1.0, u_grid=[0.0], n_replicates=-5))
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "x")]) == 1
    assert "n_replicates" in capsys.readouterr().err


def test_simulate_requires_sorted_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(t=1.0, u_grid=[1.0, 0.0], n_replicates=5))
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "x")]) == 1
    assert "u_grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, fields",
    [
        ("converge", {"t_list": [0.05], "u_grid": [0.0, 1.0], "n_replicates": 200, "n_permutations": 10**12}),
        ("simulate", {"t": 1.0, "u_grid": [0.0], "n_replicates": 0}),
    ],
    ids=["energy_budget", "no_replicates"],
)
def test_refused_config_leaves_no_out_dir(tmp_path, capsys, command, fields):
    cfg = write_config(tmp_path, base_config(**fields))
    assert main([command, cfg, "--out-dir", str(tmp_path / "out" / "run")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


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


def test_dumped_window_is_a_one_row_block_of_its_stream(tmp_path):
    # ``--dump-window`` writes the one-row window drawn from the
    # DUMP_WINDOW stream itself, as every other window is drawn.
    law, c, seed = dist.Gamma(0.5, 2.0), 12.0, 19
    cfg = write_config(tmp_path, base_config(law=config.to_config(law), seed=seed, u_grid=[0.0], n_replicates=5,
                                             c=c))
    out = tmp_path / "out"
    assert main(["stationary", cfg, "--out-dir", str(out), "--dump-window"]) == 0
    points = build_stationary_window(law, c, stream(seed, DUMP_WINDOW, 0), size=1).points
    rows = [line.split(",") for line in (out / "window.csv").read_text().splitlines()]
    assert rows[0] == ["index", "point"]
    # Every point, at 17 significant digits, numbered so that index 0 is the first point >= 0.
    first = -int(np.count_nonzero(points < 0))
    assert rows[1:] == [[str(first + i), f"{p:.17g}"] for i, p in enumerate(points.tolist())]


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
    # The half-width is fixed before the first draw, so no replicate failed and nothing was written.
    assert "replicate" not in report and report["c_used"] == 320.0
    assert not (out / "matrix.csv").exists()


def test_pointprocess_exits_2_when_a_check_fails_without_a_warning(tmp_path, capsys, monkeypatch):
    # Windows that lose every other point hold about half the points per
    # unit length that the renewal rate promises, so the intensity check
    # fails.  The law is exponential and the horizon the default, so no
    # warning accounts for the failure and the run rejects.
    build = dg.build_stationary_window

    def thinned(*args, **kwargs):
        window = build(*args, **kwargs)
        keep = np.arange(len(window.points)) % 2 == 0
        counts = np.bincount(point_rows(window.counts)[keep], minlength=len(window.counts))
        return dataclasses.replace(window, counts=counts, points=window.points[keep])

    monkeypatch.setattr(dg, "build_stationary_window", thinned)
    cfg = write_config(tmp_path, base_config(pointprocess=SMALL_POINTPROCESS))
    out = tmp_path / "out"
    assert main(["pointprocess", cfg, "--out-dir", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "pointprocess.json").read_text())
    assert report["intensity_pass"] is False
    assert report["warnings"] == []


VERBOSE_RUNS = {
    "simulate": {"t": 5.0, "u_grid": [0.0, 1.0], "n_replicates": 20},
    "stationary": {"u_grid": [0.0, 1.0], "n_replicates": 20},
    "converge": {"t_list": [1.0], "u_grid": [0.0, 1.0], "n_replicates": 50, "n_permutations": 19},
    "dri": {"dri": {"k_max": 40, "grid_per_unit": 2, "n_mc": 50}},
    "pointprocess": {"pointprocess": SMALL_POINTPROCESS},
}


@pytest.mark.parametrize("command", VERBOSE_RUNS)
def test_verbose_logs_the_run_to_stderr_and_leaves_its_outputs_alone(tmp_path, capsys, command):
    cfg = write_config(tmp_path, base_config(**VERBOSE_RUNS[command]))
    runs = []
    for flags in ([], ["-v"]):
        out = tmp_path / f"out{len(flags)}"
        code = main([command, cfg, "--out-dir", str(out), *flags])
        captured = capsys.readouterr()
        runs.append((code, captured.out, hash_tree(out), captured.err))
    (code, stdout, files, err), (v_code, v_stdout, v_files, v_err) = runs
    assert (v_code, v_stdout, v_files) == (code, stdout, files)
    assert v_err == f"running {command} with seed 7\n" + err


BURSTY_LAW = {"family": "gamma", "shape": 0.1, "scale": 10.0}
EXP_DECAY_KERNEL = {"kind": "scaled_exp_decay", "eta": {"family": "point_mass", "value": 1.0}, "decay": 0.1}


def test_bursty_stationary_config_exits_0(tmp_path):
    # Campbell's bound is 10 e^-0.1c: it passes 1e-6 at c = 320 (doubling
    # from 10), within the default cap of 512.
    cfg = write_config(tmp_path, base_config(law=BURSTY_LAW, kernel=EXP_DECAY_KERNEL, u_grid=[0.0], n_replicates=50))
    out = tmp_path / "out"
    assert main(["stationary", cfg, "--out-dir", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["c_used"] == 320.0 and meta["truncation_bound_max"] < 1e-6


@pytest.mark.parametrize(
    "kernel, tol",
    [
        (EXP_DECAY_KERNEL, 1e-300),
        ({"kind": "scaled_exp_decay", "eta": {"family": "pareto", "alpha": 0.8, "xm": 1.0}, "decay": 1.0}, 1e-6),
        ({"kind": "indicator", "eta": {"family": "pareto", "alpha": 0.8, "xm": 1.0}}, 1e-6),
    ],
    ids=["tol-out-of-reach", "exp-decay-infinite-mean-marks", "indicator-infinite-mean-pulses"],
)
def test_unreachable_tolerance_exits_2_from_stationary_and_3_from_converge(tmp_path, capsys, kernel, tol):
    base = base_config(kernel=kernel, tol=tol, u_grid=[0.0], n_replicates=20)
    cfg = write_config(tmp_path, base)
    out = tmp_path / "stationary"
    assert main(["stationary", cfg, "--out-dir", str(out)]) == 2
    report = json.loads((out / "truncation_report.json").read_text())
    if kernel is EXP_DECAY_KERNEL:
        assert report["bound"] > tol
    else:
        # The expected missed mass is infinite; strict JSON writes it as null.
        assert report["bound"] is None and "infinite" in report["message"]
    assert not (out / "matrix.csv").exists()
    cfg = write_config(tmp_path, base | {"t_list": [1.0, 5.0]}, name="converge.json")
    assert main(["converge", cfg, "--out-dir", str(tmp_path / "converge")]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out.splitlines()[-1])["decisions"] == ["hypothesis_violation"] * 2
    assert "Traceback" not in captured.err


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


def _loaded_modules(prefix, argv=None, exit_code=0):
    """Modules named ``prefix`` or ``prefix.*`` in a fresh interpreter after
    importing the CLI and, if ``argv`` is given, running it."""
    script = "import json, sys\nfrom renewal_immigration.cli import main\n"
    if argv is not None:
        script += f"assert main({argv!r}) == {exit_code}\n"
    script += f"print(json.dumps(sorted(m for m in sys.modules if m == {prefix!r} or m.startswith({prefix + '.'!r}))))\n"
    return json.loads(_fresh_python(script).stdout.strip().splitlines()[-1])


def _fresh_python(script):
    """The completed ``python -c script`` of a fresh interpreter that imports the package from this tree."""
    src = str(Path(renewal_immigration.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=True
    )


def test_converge_with_exponential_law_never_imports_scipy_stats(tmp_path):
    # scipy.stats costs most of the start-up and the package never needs
    # it.  A fresh interpreter shows what loads.
    cfg = write_config(
        tmp_path, base_config(t_list=[1.0], u_grid=[0.0, 1.0], n_replicates=50, n_permutations=19)
    )
    assert _loaded_modules("scipy.stats", ["converge", cfg, "--out-dir", str(tmp_path / "out")]) == []


@pytest.mark.parametrize(
    "law",
    [{"family": "lognormal", "mu": 0.0, "sigma": 1.0}, {"family": "gamma", "shape": 2.0, "scale": 0.5}],
    ids=lambda law: law["family"],
)
def test_pointprocess_never_imports_scipy_stats(tmp_path, law):
    # Gamma tails come from scipy.special; normal and chi-square tails are
    # computed without scipy.
    cfg = write_config(tmp_path, base_config(law=law, pointprocess=SMALL_POINTPROCESS))
    loaded = _loaded_modules("scipy", ["pointprocess", cfg, "--out-dir", str(tmp_path / "out")])
    assert [m for m in loaded if m.startswith("scipy.stats")] == []
    assert ("scipy.special" in loaded) == (law["family"] == "gamma")


def test_cli_import_loads_no_scipy():
    assert _loaded_modules("scipy") == []


def test_package_binds_os_privately():
    # The package needs ``os`` only to pin BLAS to one thread before numpy
    # loads; the module must not become one of its public names.
    assert "os" not in [name for name in dir(renewal_immigration) if not name.startswith("_")]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


# Exponential law, indicator kernel: nothing needs a scipy function.
NUMPY_ONLY_RUNS = {
    "converge": {"t_list": [1.0], "u_grid": [0.0, 1.0], "n_replicates": 50, "n_permutations": 19},
    "simulate": {"t": 2.0, "u_grid": [0.0, 1.0], "n_replicates": 20},
    "stationary": {"u_grid": [0.0, 1.0], "n_replicates": 20},
    "dri": {"dri": {"k_max": 40, "grid_per_unit": 2, "n_mc": 50}},
}


@pytest.mark.parametrize("command", NUMPY_ONLY_RUNS)
def test_exponential_indicator_runs_load_no_scipy(tmp_path, command):
    cfg = write_config(tmp_path, base_config(**NUMPY_ONLY_RUNS[command]))
    assert _loaded_modules("scipy", [command, cfg, "--out-dir", str(tmp_path / "out")]) == []


def test_pointprocess_lognormal_loads_no_scipy_spatial(tmp_path):
    # The energy test's distances, the normal tails and the chi-square
    # p-value are all computed without scipy.
    law = {"family": "lognormal", "mu": 0.0, "sigma": 1.0}
    cfg = write_config(tmp_path, base_config(law=law, pointprocess=SMALL_POINTPROCESS))
    assert _loaded_modules("scipy", ["pointprocess", cfg, "--out-dir", str(tmp_path / "out")]) == []


# Chi-square p-values (every pointprocess law) and log-normal tails (an
# indicator kernel's tail bound calls eta.tail_mean) need no scipy.
CLOSED_FORM_TAIL_RUNS = {
    "pointprocess-exponential": ("pointprocess", {"pointprocess": SMALL_POINTPROCESS}),
    "pointprocess-uniform": (
        "pointprocess",
        {"law": {"family": "uniform", "lo": 0.0, "hi": 2.0}, "pointprocess": SMALL_POINTPROCESS},
    ),
    "stationary-lognormal-eta": (
        "stationary",
        {
            "kernel": {"kind": "indicator", "eta": {"family": "lognormal", "mu": 0.0, "sigma": 1.0}},
            "u_grid": [0.0, 1.0],
            "n_replicates": 20,
        },
    ),
}


@pytest.mark.parametrize("case", CLOSED_FORM_TAIL_RUNS)
def test_closed_form_tail_runs_load_no_scipy(tmp_path, case):
    command, extra = CLOSED_FORM_TAIL_RUNS[case]
    cfg = write_config(tmp_path, base_config(**extra))
    assert _loaded_modules("scipy", [command, cfg, "--out-dir", str(tmp_path / "out")]) == []


# Every command on a config that needs no scipy, which loads OpenSSL itself.
SCIPY_FREE_RUNS = NUMPY_ONLY_RUNS | {"pointprocess": {"pointprocess": SMALL_POINTPROCESS}}


def _fresh_run(tmp_path, command, first=""):
    """Run ``command`` on its ``SCIPY_FREE_RUNS`` config in a fresh interpreter that runs ``first`` before.

    Returns the run's exit code, stdout, stderr and output tree hash,
    whether ``_hashlib`` was loaded when it ended, and, from an ``import
    hashlib`` made after it, ``algorithms_available`` and whether that
    loaded ``_hashlib``.
    """
    name = "hashlib-first" if first else "fresh"
    cfg = write_config(tmp_path, base_config(**SCIPY_FREE_RUNS[command]), name=f"{name}.json")
    out, probe = tmp_path / name, tmp_path / f"{name}.probe.json"
    result = _fresh_python(
        f"{first}\n"
        "import json, sys\n"
        "from renewal_immigration.cli import main\n"
        f"code = main({[command, cfg, '--out-dir', str(out)]!r})\n"
        "loaded = '_hashlib' in sys.modules\n"
        "import hashlib\n"
        f"open({str(probe)!r}, 'w').write(json.dumps("
        "[code, loaded, sorted(hashlib.algorithms_available), '_hashlib' in sys.modules]))\n"
    )
    code, loaded, algorithms, openssl = json.loads(probe.read_text())
    return SimpleNamespace(
        code=code, stdout=result.stdout, stderr=result.stderr, tree=hash_tree(out), loaded=loaded,
        algorithms=algorithms, openssl=openssl,
    )


@pytest.mark.parametrize("command", SCIPY_FREE_RUNS)
def test_runs_never_load_openssl(tmp_path, command):
    # numpy.random imports secrets, whose hmac loads OpenSSL's _hashlib;
    # streams imports it with _hashlib hidden, then lets hashlib go, so a
    # later import is the OpenSSL-backed module of a fresh interpreter.
    fresh = _fresh_python("import hashlib, json; print(json.dumps(sorted(hashlib.algorithms_available)))")
    run = _fresh_run(tmp_path, command)
    assert (run.code, run.stderr, run.loaded) == (0, "", False)
    assert (run.algorithms, run.openssl) == (json.loads(fresh.stdout), True)


@pytest.mark.parametrize("command", ["converge", "pointprocess"])
def test_runs_write_the_same_bytes_with_openssl_loaded_first(tmp_path, command):
    # With hashlib loaded first, numpy.random is imported as it stands.
    masked, plain = _fresh_run(tmp_path, command), _fresh_run(tmp_path, command, first="import hashlib")
    assert plain.loaded and not masked.loaded
    outcome = lambda run: (run.code, run.stdout, run.stderr, run.tree)  # noqa: E731
    assert outcome(masked) == outcome(plain)


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


# ----------------------------------------------------------------- strict JSON


PARETO_08 = {"family": "pareto", "alpha": 0.8, "xm": 1.0}
# One small run of each command; the marked ones hold an infinite float.
JSON_RUNS = [
    ("simulate", {"t": 2.0, "u_grid": [0.0, 1.0], "n_replicates": 20}),
    # Infinite expected missed mass: the truncation report's bound.
    ("stationary", {"kernel": {"kind": "scaled_exp_decay", "eta": PARETO_08, "decay": 1.0}, "u_grid": [0.0],
                    "n_replicates": 5}),
    ("stationary", {"u_grid": [0.0, 1.0], "n_replicates": 20}),
    ("converge", {"t_list": [1.0], "u_grid": [0.0], "n_replicates": 200, "n_permutations": 19}),
    ("converge", {"kernel": {"kind": "indicator", "eta": PARETO_08}, "t_list": [1.0], "u_grid": [0.0],
                  "n_replicates": 20}),
    # Divergent criteria: the mean and path reports' remainder bounds.
    ("dri", {"kernel": {"kind": "indicator", "eta": PARETO_08}, "dri": {"k_max": 40, "grid_per_unit": 2, "n_mc": 100}}),
    ("pointprocess", {"pointprocess": {"n_windows": 100, "n_realizations": 100, "laplace": {"n_mc": 100}}}),
]


def test_json_outputs_are_strict(tmp_path, capsys):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    for i, (command, fields) in enumerate(JSON_RUNS):
        cfg = write_config(tmp_path, base_config(**fields), name=f"{i}.json")
        assert main([command, cfg, "--out-dir", str(tmp_path / str(i))]) in (0, 2, 3)
        for path in (tmp_path / str(i)).glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "1" / "truncation_report.json").read_text())
    assert report["bound"] is None and "infinite" in report["message"]
    for name in ("dri_mean.json", "dri_path.json"):
        assert json.loads((tmp_path / "5" / name).read_text())["residual_estimate"] is None


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


# Time doubling: every length of a pointprocess run doubled -- the law's
# time scale, the intervals, the shift, the horizon, laplace.t and the
# breakpoints of laplace.h (the defaults follow the mean).  Scaling by 2 is
# exact in floats, so every count, overshoot and Laplace sum keeps its bits
# and so does every statistic; only the reported lengths double, exactly:
# the interval ends, laplace.t and overshoot.horizon.  LogNormal is left
# out, since doubling it adds ln 2 to mu, which is not exact in floats.
DOUBLED_LAWS = {
    "exponential": lambda s: {"family": "exponential", "rate": 1.0 / s},
    "gamma": lambda s: {"family": "gamma", "shape": 2.0, "scale": 0.5 * s},
    "uniform": lambda s: {"family": "uniform", "lo": 0.5 * s, "hi": 1.5 * s},
}
DOUBLED_LENGTHS = {
    "defaults": lambda s: {},
    "explicit": lambda s: {
        "intervals": [[-3.0 * s, 2.0 * s], [0.5 * s, 7.25 * s]],
        "shift": 1.5 * s,
        "horizon": 40.0 * s,
        "laplace": {
            "t": 30.0 * s,
            "h": {"kind": "deterministic_table", "breakpoints": [0.0, 0.5 * s, 1.75 * s], "values": [1.0, 0.25, 0.0]},
        },
    },
}


@pytest.mark.parametrize("lengths", sorted(DOUBLED_LENGTHS))
@pytest.mark.parametrize("law", sorted(DOUBLED_LAWS))
def test_doubling_every_length_doubles_only_the_pointprocess_lengths(tmp_path, capsys, law, lengths):
    runs = []
    for s in (1.0, 2.0):
        fields = DOUBLED_LENGTHS[lengths](s)
        fields |= {"n_windows": 2000, "n_realizations": 2000, "laplace": fields.get("laplace", {}) | {"n_mc": 2000}}
        cfg = write_config(tmp_path, base_config(law=DOUBLED_LAWS[law](s), seed=5, pointprocess=fields), name=f"{s}.json")
        out = tmp_path / f"out-{s}"
        code = main(["pointprocess", cfg, "--out-dir", str(out)])
        runs.append((code, json.loads((out / "pointprocess.json").read_text())))
    (single_code, single), (double_code, double) = runs
    assert "Traceback" not in capsys.readouterr().err
    for report in double["intensity"]:
        report["interval"] = [end / 2.0 for end in report["interval"]]
    double["laplace"]["t"] /= 2.0
    double["overshoot"]["horizon"] /= 2.0
    assert double_code == single_code
    assert json.dumps(double, sort_keys=True) == json.dumps(single, sort_keys=True)


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


def test_matrix_csv_is_rendered_row_by_row():
    # A 10^5 x 10 matrix of counts, as an indicator kernel's simulate run
    # writes them.  Rendering holds the lines (each its text, a 49-byte
    # string header and an 8-byte list slot, with up to 1/8 more slots), the
    # joined text and that text with its last newline: 3 texts and 64 bytes
    # a row.  The matrix as Python floats would be 32 bytes a value (a
    # 24-byte float and its list slot) more.
    n, g = 10**5, 10
    sample = FddSample(u_grid=np.arange(float(g)), values=stream(43).poisson(3.0, (n, g)).astype(float))
    law, kernel = dist.Exponential(1.0), kernels.Indicator(dist.Exponential(1.0))
    tracemalloc.start()
    try:
        files = cli._sample_files(ExperimentConfig(law, kernel, 1, {}), sample, "transient", t=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = files["matrix.csv"]
    assert text.count("\n") == n + 1
    assert peak < 3 * len(text) + 64 * n + 2**16


def test_csv_peaks_at_its_lines_and_one_joined_text():
    # A 10^5 x 10 float matrix is about 19 MB of text.  Its lines, each a
    # string of about 200 bytes with a 49-byte header and a list slot, come
    # to about 1.3 texts; the joined text is one more.  A second full copy
    # for the final newline would reach 3.3 texts.
    rows = stream(44).random((10**5, 10))
    tracemalloc.start()
    try:
        text = cli._csv([f"u={j}" for j in range(10)], (row.tolist() for row in rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith("\n") and text.count("\n") == 10**5 + 1
    assert peak < 2.5 * len(text) + 2**16
