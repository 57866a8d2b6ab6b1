"""The benchmark's workloads: config generators, work counts and output checks.

Each workload is one CLI command of ``renewal_immigration``.  Its config is a
pure function of ``(workload, seed, size)``: the seed picks the config's own
``seed`` field, the size picks the replicate counts.  ``bench`` is the timed
size; ``tiny`` runs in about a second and is used by the smoke test and by the
byte-identity reference in ``golden.json``.

The checks hold for every seed with negligible failure probability, so they
survive legitimate byte changes (a new RNG derivation, a new summation
order) and still catch wrong answers.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# A KS distance beyond KS_NULL_LIMIT / sqrt(effective n) has null
# probability below 2 exp(-2 KS_NULL_LIMIT^2), about 1e-9.
KS_NULL_LIMIT = math.sqrt(math.log(2.0 / 1e-9) / 2.0)
# Standard errors allowed for a Monte Carlo mean (null probability ~2e-9).
Z_LIMIT = 6.0

EXP1 = {"family": "exponential", "rate": 1.0}

SIZES = {
    "bench": {
        "converge-mginf": {"n_replicates": 3000, "n_permutations": 2999},
        "converge-expdecay": {"n_replicates": 5000},
        "stationary-birthdeath": {"n_replicates": 2000},
        "pointprocess-lognormal": {"n": 10_000},
    },
    "tiny": {
        "converge-mginf": {"n_replicates": 200, "n_permutations": 19},
        "converge-expdecay": {"n_replicates": 200},
        "stationary-birthdeath": {"n_replicates": 200},
        "pointprocess-lognormal": {"n": 200},
    },
}


def config_seed(workload, seed):
    """The config's ``seed`` field: distinct per workload, stable per seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _converge_mginf(size):
    return {
        "law": EXP1,
        "kernel": {"kind": "indicator", "eta": EXP1},
        "t_list": [1.0, 30.0],
        "u_grid": [0.0, 1.0, 5.0],
        "alpha": 0.01,
        **size,
    }


def _converge_expdecay(size):
    return {
        "law": {"family": "gamma", "shape": 2.0, "scale": 0.5},
        "kernel": {"kind": "scaled_exp_decay", "eta": EXP1, "decay": 1.0},
        "t_list": [30.0],
        "u_grid": [0.0, 0.5, 1.0, 2.0, 5.0],
        "alpha": 0.01,
        **size,
    }


BIRTH_DEATH = {
    "kind": "birth_death",
    "initial": 1,
    "birth_rates": [0.5, 0.5, 0.5, 0.0],
    "death_rates": [1.0, 1.0, 1.0, 1.0],
    "state_cap": 4,
}


def _stationary_birthdeath(size):
    return {"law": EXP1, "kernel": BIRTH_DEATH, "u_grid": [0.0, 1.0, 5.0], "tol": 1e-6, **size}


def _pointprocess_lognormal(size):
    n = size["n"]
    return {
        "law": {"family": "lognormal", "mu": 0.0, "sigma": 1.0},
        # Required by the config schema; the command does not use it.
        "kernel": {"kind": "indicator", "eta": EXP1},
        "pointprocess": {"n_windows": n, "n_realizations": n, "laplace": {"n_mc": n}},
    }


# --------------------------------------------------------------------------
# Work counts: fdd rows, windows and realizations generated.


def _converge_samples(cfg):
    return cfg["n_replicates"] * (1 + len(cfg["t_list"]))


def _stationary_samples(cfg):
    return cfg["n_replicates"]


def _pointprocess_samples(cfg):
    pp = cfg["pointprocess"]
    windows = pp["n_windows"] + 2 * (pp["n_windows"] // 2)  # intensity, shift
    return windows + pp["n_realizations"] + 2 * pp["laplace"]["n_mc"]  # overshoot, laplace


# --------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def _finite_in(values, lo, hi):
    return all(isinstance(v, (int, float)) and math.isfinite(v) and lo <= v <= hi for v in values)


def _check_converge(cfg, out):
    problems = []
    t_list, d, n = cfg["t_list"], len(cfg["u_grid"]), cfg["n_replicates"]
    n_perm = cfg.get("n_permutations", 200)
    reports = [json.loads((out / f"report_{i:03d}.json").read_text()) for i in range(len(t_list))]
    for t, r in zip(t_list, reports):
        where = f"report at t={t}"
        if r["t"] != t or r["n"] != n or r["warnings"]:
            problems.append(f"{where}: t, n or warnings wrong")
        if len(r["ks_statistics"]) != d or not _finite_in(r["ks_statistics"], 0.0, 1.0):
            problems.append(f"{where}: KS statistics malformed")
        if len(r["ks_p_values"]) != d or not _finite_in(r["ks_p_values"], 0.0, 1.0):
            problems.append(f"{where}: KS p-values malformed")
        if not _finite_in([r["energy_p_value"]], 1.0 / (n_perm + 1) - 1e-12, 1.0):
            problems.append(f"{where}: energy p-value out of range")
        if not _finite_in([r["energy_statistic"]], -1e-9, math.inf):
            problems.append(f"{where}: energy statistic not a finite nonnegative number")
        if r["decision"] not in ("reject", "non_reject"):
            problems.append(f"{where}: decision {r['decision']!r}")
    # At t = 30 the transient law equals the stationary one up to e^-30.
    late = reports[t_list.index(30.0)]
    limit = KS_NULL_LIMIT * math.sqrt(2.0 / n)
    if not max(late["ks_statistics"], default=math.inf) <= limit:
        problems.append(f"KS distance at t=30 {max(late['ks_statistics'])} above null limit {limit:.4g}")
    rows = (out / "summary.csv").read_text().splitlines()
    if len(rows) != 1 + len(t_list) or [row.split(",")[-1] for row in rows[1:]] != [
        r["decision"] for r in reports
    ]:
        problems.append("summary.csv does not match the reports")
    return problems


def _occupation_integral(kernel):
    """``E int_0^inf X(t) dt`` for the birth-death kernel (states 1..cap)."""
    cap = kernel["state_cap"]
    q = np.zeros((cap, cap))
    for i in range(cap):
        birth = kernel["birth_rates"][i] if i + 1 < cap else 0.0
        death = kernel["death_rates"][i]
        q[i, i] = -(birth + death)
        if i + 1 < cap:
            q[i, i + 1] = birth
        if i > 0:
            q[i, i - 1] = death
    occupation = np.linalg.inv(-q)[kernel["initial"] - 1]
    return float(occupation @ np.arange(1, cap + 1))


def _check_stationary(cfg, out):
    problems = []
    u_grid, n = cfg["u_grid"], cfg["n_replicates"]
    lines = (out / "matrix.csv").read_text().splitlines()
    if lines[0] != ",".join(f"u={v:.17g}" for v in u_grid):
        problems.append("matrix.csv header does not match u_grid")
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if values.shape != (n, len(u_grid)):
        return problems + [f"matrix shape {values.shape}, expected {(n, len(u_grid))}"]
    if not (np.all(np.isfinite(values)) and np.all(values >= 0) and np.all(values == np.round(values))):
        problems.append("matrix entries are not nonnegative integers")
    meta = json.loads((out / "metadata.json").read_text())
    if meta["mode"] != "stationary" or meta["n_replicates"] != n or meta["u_grid"] != u_grid:
        problems.append("metadata.json does not describe the run")
    if not meta.get("truncation_bound_max", math.inf) < cfg["tol"]:
        problems.append("truncation bound not below tol")
    # Campbell: E Y*(u) = E int X / mu for every u (mu = 1 here).
    target = _occupation_integral(cfg["kernel"]) / 1.0
    se = values.std(axis=0, ddof=1) / math.sqrt(n)
    for u, m, s in zip(u_grid, values.mean(axis=0), se):
        if not abs(m - target) <= Z_LIMIT * s:
            problems.append(f"Campbell mean at u={u}: {m:.4f} vs {target:.4f} (se {s:.4f})")
    return problems


def _check_pointprocess(cfg, out):
    problems = []
    pp = cfg["pointprocess"]
    law = cfg["law"]
    mu = math.exp(law["mu"] + law["sigma"] ** 2 / 2.0)
    r = json.loads((out / "pointprocess.json").read_text())
    if r["warnings"]:
        problems.append(f"unexpected warnings {r['warnings']}")
    if len(r["intensity"]) != 1:
        return problems + ["expected one intensity interval"]
    intensity = r["intensity"][0]
    a, b = intensity["interval"]
    if not math.isclose(intensity["expected_mean"], (b - a) / mu, rel_tol=1e-9):
        problems.append("intensity expected mean is not length / mean")
    if not _finite_in([intensity["z_score"]], -Z_LIMIT, Z_LIMIT):
        problems.append(f"intensity z = {intensity['z_score']}")
    ks = r["overshoot"]["ks"]
    if ks["n"] != pp["n_realizations"] or not _finite_in([ks["statistic"], ks["p_value"]], 0.0, 1.0):
        problems.append("overshoot KS malformed")
    shift = r["shift_invariance"]
    if not (_finite_in([shift["p_value"]], 0.0, 1.0) and _finite_in([shift["statistic"]], 0.0, math.inf)):
        problems.append("shift-invariance test malformed")
    lap = r["laplace"]
    if lap["n_mc"] != pp["laplace"]["n_mc"] or not (
        _finite_in([lap["transient_estimate"], lap["stationary_estimate"]], 0.0, 1.0)
        and _finite_in([lap["transient_ci99"], lap["stationary_ci99"]], 0.0, 1.0)
    ):
        problems.append("Laplace comparison malformed")
    return problems


# name -> (command, config body, work count, check)
WORKLOADS = {
    "converge-mginf": ("converge", _converge_mginf, _converge_samples, _check_converge),
    "converge-expdecay": ("converge", _converge_expdecay, _converge_samples, _check_converge),
    "stationary-birthdeath": ("stationary", _stationary_birthdeath, _stationary_samples, _check_stationary),
    "pointprocess-lognormal": ("pointprocess", _pointprocess_lognormal, _pointprocess_samples, _check_pointprocess),
}


def command(workload):
    return WORKLOADS[workload][0]


def make_config(workload, seed, size="bench"):
    """The full JSON config of ``workload`` for a benchmark seed."""
    body = WORKLOADS[workload][1](dict(SIZES[size][workload]))
    return {"schema": 1, "seed": config_seed(workload, seed), **body}


def samples(workload, cfg):
    return WORKLOADS[workload][2](cfg)


def check_outputs(workload, cfg, out_dir):
    """Problems with the outputs in ``out_dir``; a missing or malformed file is one."""
    try:
        return WORKLOADS[workload][3](cfg, Path(out_dir))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"cannot read outputs: {type(exc).__name__}: {exc}"]


def output_digest(out_dir):
    """SHA-256 over the names and bytes of every file in ``out_dir``."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
