"""Acceptance suite: one test per criterion, at full scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Every test uses a fixed seed, so the whole suite is
deterministic; the statistical tolerances are the quantitative bands the
package promises at these sample sizes.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson

from renewal_immigration import diagnostics as dg
from renewal_immigration import distributions as dist
from renewal_immigration import kernels as kn
from renewal_immigration import process as pr
from renewal_immigration.cli import main
from renewal_immigration.stats import ks_two_sample
from renewal_immigration.streams import stream

from oracles import busy_servers_event_driven, chisq_gof_counts

EXP_LAW = dist.Exponential(1.0)
MM_INF = kn.Indicator(dist.Exponential(1.0))


def report(name, message):
    print(f"{name}: PASS ({message})")


def test_ac1_intensity_identity():
    # Three interval pairs per law; the same 10^5 windows serve all three.
    intervals = [(0.0, 10.0), (-5.0, 5.0), (-8.0, -2.0)]
    results = {}
    for law, label in [(EXP_LAW, "exp(1)"), (dist.Uniform(0.0, 2.0), "uniform(0,2)")]:
        checks = dg.intensity_check(law, intervals, 10**5, stream(101))
        assert checks[0].expected_mean == pytest.approx(10.0 / law.mean())
        for res in checks:
            assert res.expected_mean == pytest.approx((res.interval[1] - res.interval[0]) / law.mean())
            assert abs(res.z_score) < 4.0, f"{label} {res.interval}: z={res.z_score}"
        results[label] = checks[0].z_score
    report("AC-1 intensity identity", ", ".join(f"{k}: z={v:+.2f}" for k, v in results.items()))


def test_ac2_overshoot_law():
    # Uniform(0,1): integrated tail F*(x) = 2x - x^2 in closed form.
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(dist.integrated_tail_cdf(dist.Uniform(0.0, 1.0), xs), 2 * xs - xs**2)
    rep_u = dg.overshoot_check(dist.Uniform(0.0, 1.0), 50.0, 10**5, stream(102))
    assert rep_u.ks.p_value > 0.01
    rep_e = dg.overshoot_check(EXP_LAW, 50.0, 10**5, stream(103))
    assert rep_e.ks.p_value > 0.01
    report(
        "AC-2 overshoot law",
        f"uniform p={rep_u.ks.p_value:.3f}, exponential p={rep_e.ks.p_value:.3f}",
    )


def test_ac3_convergence_to_stationarity():
    n = 10**4
    reports = dg.convergence_test(EXP_LAW, MM_INF, [1.0, 30.0], [0.0, 1.0, 5.0], n, 0.01, 320)
    early, late = reports
    assert early.decision == "reject", early
    assert late.decision == "non_reject", late

    # Oracle: an independent event-driven infinite-server simulation agrees
    # with the package transient mean at t=1 (the epoch at 0 contributes,
    # so the mean is 1 at every t for this law/kernel pair).
    pkg = pr.fdd_sample(EXP_LAW, MM_INF, "transient", [0.0], 2 * 10**4, seed=302, t=1.0)
    rng = stream(303)
    oracle = np.array(
        [
            busy_servers_event_driven(
                lambda r: r.exponential(1.0), lambda r: r.exponential(1.0), 1.0, rng
            )
            for _ in range(2 * 10**4)
        ]
    )
    assert abs(pkg.values.mean() - oracle.mean()) < 0.02
    report(
        "AC-3 convergence to stationarity",
        f"t=1 rejects (min ks p={min(early.ks_p_values):.2e}), "
        f"t=30 accepts (min ks p={min(late.ks_p_values):.3f}, energy p={late.energy_p_value:.3f})",
    )


def test_ac4_poisson_marginal():
    n = 10**5
    sample = pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0], n, seed=304)
    vals = sample.values[:, 0].astype(int)
    mean = vals.mean()
    assert abs(mean - 1.0) < 0.02
    kmax = vals.max()
    probs = poisson.pmf(np.arange(kmax + 1), 1.0)
    probs[-1] += poisson.sf(kmax, 1.0)
    gof = chisq_gof_counts(np.bincount(vals, minlength=kmax + 1), probs, min_expected=5.0)
    assert gof.p_value > 0.01

    rng = stream(305)
    oracle = np.array(
        [
            busy_servers_event_driven(
                lambda r: r.exponential(1.0), lambda r: r.exponential(1.0), 40.0, rng
            )
            for _ in range(5 * 10**4)
        ]
    )
    assert abs(mean - oracle.mean()) < 0.02
    report("AC-4 Poisson marginal", f"mean={mean:.4f}, chi-square p={gof.p_value:.3f}")


def test_ac5_campbell_mean():
    spec = kn.ScaledExpDecay(dist.PointMass(1.0), 1.0)
    n = 10**5
    sample = pr.fdd_sample(EXP_LAW, spec, "stationary", [0.0], n, seed=306)
    mean = sample.values.mean()
    se = sample.values.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 1.0) < 4.0 * se
    bound = sample.truncation_bound
    assert bound < 1e-6
    report("AC-5 Campbell mean", f"mean={mean:.4f} (4se={4 * se:.4f}), max bound={bound:.2e}")


def test_ac6_dri_dichotomy():
    fine = dg.dri_mean_check(MM_INF, 30, 8, 4000, stream(307))
    fine_path = dg.dri_path_check(MM_INF, 30, 4000, stream(307))
    assert fine.verdict == dg.CONVERGENT_EVIDENCE
    assert fine_path.verdict == dg.CONVERGENT_EVIDENCE

    heavy = dg.dri_mean_check(kn.Indicator(dist.Pareto(0.8, 1.0)), 1000, 4, 1000, stream(308))
    assert heavy.verdict == dg.DIVERGENT_EVIDENCE
    assert heavy.partial_sums[999] > 5.0
    report(
        "AC-6 dRi dichotomy",
        f"exp pulse convergent both, pareto(0.8) divergent with partial sum "
        f"{heavy.partial_sums[999]:.1f} at k=1000",
    )


def test_ac7_mean_path_separation():
    n_mc = 2 * 10**4
    mean_rep = dg.dri_mean_check(kn.SpikeTrain(), 22, 64, n_mc, stream(309))
    path_rep = dg.dri_path_check(kn.SpikeTrain(), 22, n_mc, stream(309))
    worst = 0.0
    for k in range(1, 21):
        target = 1.0 / (k * k + 1.0)
        est = mean_rep.terms[k]
        sigma = math.sqrt(max(est * (1.0 - est), target) / n_mc)
        worst = max(worst, abs(est - target) / (2.0 * sigma))
        assert abs(est - target) <= 2.0 * sigma, f"k={k}: {est} vs {target} (2sigma={2 * sigma})"
        assert path_rep.terms[k] == 1.0  # every path hits 1; zero MC spread
    report("AC-7 mean/path separation", f"worst |error|/2sigma = {worst:.2f} over k=1..20")


def test_ac8_laplace_functional():
    h = kn.DeterministicTable((0.0, 1.0), (1.0, 0.0))
    integral, err = quad(lambda x: 1.0 - math.exp(-1.0), 0.0, 1.0)
    assert err < 1e-12
    oracle = math.exp(-integral)
    res = dg.laplace_functional_compare(EXP_LAW, h, 50.0, 10**5, stream(310))
    assert abs(res.transient_estimate - oracle) < res.transient_ci99
    assert abs(res.stationary_estimate - oracle) < res.stationary_ci99
    report(
        "AC-8 Laplace functional",
        f"transient={res.transient_estimate:.4f}, stationary={res.stationary_estimate:.4f}, "
        f"oracle={oracle:.4f}",
    )


def test_ac9_stationarity_of_marginals():
    n = 10**4
    ps = {}
    for tag, (spec, label) in enumerate(
        [(MM_INF, "indicator"), (kn.ScaledExpDecay(dist.Exponential(1.0), 1.0), "expdecay")]
    ):
        at0 = pr.fdd_sample(EXP_LAW, spec, "stationary", [0.0], n, seed=311, key=(tag, 0))
        at7 = pr.fdd_sample(EXP_LAW, spec, "stationary", [0.0, 7.0], n, seed=311, key=(tag, 7))
        res = ks_two_sample(at0.values[:, 0], at7.values[:, 1])
        assert res.p_value > 0.01, label
        ps[label] = res.p_value
    report("AC-9 stationarity of marginals", ", ".join(f"{k}: p={v:.3f}" for k, v in ps.items()))


def test_ac10_cli_determinism(tmp_path):
    base = {
        "schema": 1,
        "law": {"family": "exponential", "rate": 1.0},
        "kernel": {"kind": "indicator", "eta": {"family": "exponential", "rate": 1.0}},
        "seed": 312,
    }
    configs = {
        "simulate": base | {"t": 30.0, "u_grid": [0.0, 1.0, 5.0], "n_replicates": 1000},
        "stationary": base | {"u_grid": [0.0, 1.0, 5.0], "n_replicates": 1000, "c": 5.0},
        "converge": base
        | {"t_list": [1.0, 30.0], "u_grid": [0.0, 1.0, 5.0], "n_replicates": 1000, "alpha": 0.01},
        "dri": base | {"dri": {"k_max": 60, "grid_per_unit": 4, "n_mc": 400}},
        "pointprocess": base
        | {
            "pointprocess": {
                "horizon": 30.0,
                "n_realizations": 1000,
                "n_windows": 1000,
                "intervals": [[0.0, 5.0]],
                "shift": 0.25,
                "laplace": {"t": 30.0, "n_mc": 1000},
            }
        },
    }
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        digests = set()
        codes = set()
        for run in range(3):
            out = tmp_path / f"{command}-{run}"
            flags = ["--dump-window"] if command == "stationary" else []
            codes.add(main([command, str(cfg), "--out-dir", str(out)] + flags))
            digest = hashlib.sha256()
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
            digests.add(digest.hexdigest())
        assert len(digests) == 1, f"{command} runs differ"
        assert len(codes) == 1
        assert codes.pop() in (0, 2, 3)
    report("AC-10 determinism", "3 identical runs for each of the 5 commands")


def test_ac11_null_calibration():
    trials = 200
    n = 10**3
    alpha = 0.01
    u_grid = [0.0, 1.0, 5.0]
    rejections = 0
    for trial in range(trials):
        a = pr.fdd_sample(EXP_LAW, MM_INF, "stationary", u_grid, n, seed=313, key=(trial, 0))
        b = pr.fdd_sample(EXP_LAW, MM_INF, "stationary", u_grid, n, seed=313, key=(trial, 1))
        rep = dg.compare_fdd_samples(a.values, b.values, u_grid, alpha, 200, stream(314, trial))
        rejections += rep.decision == "reject"
    rate = rejections / trials
    limit = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)
    assert rate <= limit
    report("AC-11 null calibration", f"rejection rate {rate:.3f} <= {limit:.3f}")
