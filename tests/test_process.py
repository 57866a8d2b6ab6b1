import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_immigration import distributions as dist
from renewal_immigration import kernels as kn
from renewal_immigration import process as pr
from renewal_immigration.errors import LawError, TruncationError
from renewal_immigration.renewal import StationaryWindowSampler
from renewal_immigration.stats import ks_two_sample
from renewal_immigration.streams import stream

from oracles import busy_servers_event_driven

ZERO_KERNEL = kn.DeterministicTable((0.0,), (0.0,))
EXP_LAW = dist.Exponential(1.0)
MM_INF = kn.Indicator(dist.Exponential(1.0))


def test_zero_kernel_transient_and_stationary():
    ps = pr.eval_transient(EXP_LAW, ZERO_KERNEL, 5.0, [0.0, 1.0], stream(0))
    assert np.all(ps.values == 0.0)
    ps = pr.eval_stationary(EXP_LAW, ZERO_KERNEL, [0.0, 1.0], 1e-6, stream(1))
    assert np.all(ps.values == 0.0)
    assert ps.truncation_bound is None


def test_transient_point_mass_enumeration():
    # Law with epochs 0..10; kernel 1 on [0,1): only the epoch at 10 lands
    # inside the support when evaluating at 10.5.
    table = kn.DeterministicTable((0.0, 1.0), (1.0, 0.0))
    ps = pr.eval_transient(dist.PointMass(1.0), table, 10.5, [0.0], stream(2))
    assert ps.values[0] == 1.0


def test_transient_mminf_mean_matches_event_driven_oracle():
    n = 2 * 10**4
    sample = pr.fdd_sample(EXP_LAW, MM_INF, "transient", [0.0], n, seed=3, t=30.0)
    mean = sample.values.mean()
    assert abs(mean - 1.0) < 0.02

    rng = stream(4)
    oracle = np.array(
        [
            busy_servers_event_driven(
                lambda r: r.exponential(1.0), lambda r: r.exponential(1.0), 30.0, rng
            )
            for _ in range(2 * 10**4)
        ]
    )
    assert abs(mean - oracle.mean()) < 0.02


def test_transient_below_zero_is_exact_zero():
    ps = pr.eval_transient(EXP_LAW, MM_INF, 2.0, [-5.0, -3.0], stream(5))
    assert np.all(ps.values == 0.0)


def test_transient_negative_u_allowed():
    ps = pr.eval_transient(EXP_LAW, MM_INF, 3.0, [-2.0, 0.0, 1.0], stream(6))
    assert np.all(np.isfinite(ps.values))
    assert np.all(ps.values >= 0.0)


def test_stationary_zero_pulse():
    spec = kn.Indicator(dist.PointMass(0.0))
    ps = pr.eval_stationary(EXP_LAW, spec, [0.0, 2.0], 1e-6, stream(7))
    assert np.all(ps.values == 0.0)


def test_stationary_campbell_mean_exp_decay():
    spec = kn.ScaledExpDecay(dist.PointMass(1.0), 1.0)
    sample = pr.fdd_sample(EXP_LAW, spec, "stationary", [0.0], 2 * 10**4, seed=8)
    se = sample.values.std(ddof=1) / math.sqrt(sample.values.shape[0])
    assert abs(sample.values.mean() - 1.0) < 4.0 * se
    assert np.all(sample.truncation_bounds < 1e-6)


def test_stationary_campbell_mean_two_u_values():
    # E[Y*(u)] equals mean kernel mass / mean interarrival at every u.
    spec = kn.Indicator(dist.Uniform(0.0, 2.0))
    sample = pr.fdd_sample(dist.Gamma(2.0, 0.5), spec, "stationary", [0.0, 3.0], 2 * 10**4, seed=9)
    target = 1.0 / 1.0  # E[eta] / mu = 1 / 1
    for j in range(2):
        col = sample.values[:, j]
        se = col.std(ddof=1) / math.sqrt(len(col))
        assert abs(col.mean() - target) < 4.0 * se


def test_stationary_mminf_poisson_marginal():
    from renewal_immigration.stats import chisq_gof_counts
    from scipy.stats import poisson

    sample = pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0], 2 * 10**4, seed=10)
    vals = sample.values[:, 0].astype(int)
    kmax = vals.max()
    probs = poisson.pmf(np.arange(kmax + 1), 1.0)
    probs[-1] += poisson.sf(kmax, 1.0)
    res = chisq_gof_counts(np.bincount(vals, minlength=kmax + 1), probs, min_expected=5.0)
    assert res.p_value > 0.01


def test_stationary_marginals_exchangeable_across_u():
    sample = pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0, 7.0], 10**4, seed=11)
    res = ks_two_sample(sample.values[:, 0], sample.values[:, 1])
    assert res.p_value > 0.01


def test_fdd_determinism_and_single_replicate_equivalence():
    a = pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0, 1.0], 50, seed=12)
    b = pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0, 1.0], 50, seed=12)
    assert np.array_equal(a.values, b.values)
    single = pr.eval_stationary(EXP_LAW, MM_INF, [0.0, 1.0], 1e-6, stream(12, 0))
    assert np.array_equal(a.values[0], single.values)


def test_fdd_validation():
    with pytest.raises(LawError):
        pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0], 0, seed=1)
    with pytest.raises(LawError):
        pr.fdd_sample(EXP_LAW, MM_INF, "sideways", [0.0], 1, seed=1)
    with pytest.raises(LawError):
        pr.fdd_sample(EXP_LAW, MM_INF, "transient", [0.0], 1, seed=1)  # t missing
    with pytest.raises(LawError):
        pr.eval_transient(EXP_LAW, MM_INF, 1.0, [0.0, 0.0], stream(1))  # not increasing
    with pytest.raises(LawError):
        pr.eval_stationary(EXP_LAW, MM_INF, [0.0, np.nan], 1e-6, stream(1))
    with pytest.raises(LawError):
        pr.eval_transient(EXP_LAW, MM_INF, 1.0, [0.0, np.inf], stream(1))


def test_nonnegative_kernels_give_nonnegative_values():
    # The spike train's polynomial tail needs a wider window cap.
    specs = [MM_INF, kn.ScaledExpDecay(dist.Exponential(1.0), 0.5), kn.SpikeTrain()]
    for i, spec in enumerate(specs):
        ps = pr.eval_stationary(EXP_LAW, spec, [0.0, 2.0], 1e-4, stream(13, i), c_max=4 * 10**4)
        assert np.all(ps.values >= 0.0)
        pt = pr.eval_transient(EXP_LAW, spec, 10.0, [0.0, 2.0], stream(14, i))
        assert np.all(pt.values >= 0.0)


def test_truncation_monotone_in_c_pathwise():
    # Same window, same paths: enlarging c can only add nonnegative terms.
    sampler = StationaryWindowSampler(EXP_LAW, stream(15))
    window = sampler.initial(64.0)
    eta_rng = stream(16)
    pts = window.points
    etas = eta_rng.exponential(1.0, size=len(pts))
    contributions = ((pts >= 0.0) & (etas > pts)).astype(float)
    totals = [contributions[np.abs(pts) <= c].sum() for c in (8.0, 16.0, 32.0, 64.0)]
    assert all(t2 >= t1 for t1, t2 in zip(totals, totals[1:]))


def test_truncation_error_carries_best_value_and_bound():
    spec = kn.ScaledExpDecay(dist.PointMass(1.0), 1.0)
    with pytest.raises(TruncationError) as info:
        pr.eval_stationary(EXP_LAW, spec, [0.0], 1e-300, stream(17))
    err = info.value
    assert err.bound > 1e-300
    assert err.c_used is not None
    assert err.values is not None and np.all(np.isfinite(err.values))


def test_truncation_error_in_fdd_carries_replicate():
    spec = kn.ScaledExpDecay(dist.PointMass(1.0), 1.0)
    with pytest.raises(TruncationError) as info:
        pr.fdd_sample(EXP_LAW, spec, "stationary", [0.0], 3, seed=18, tol=1e-300)
    assert info.value.replicate == 0


def test_stationary_diverging_configs_fail_fast():
    heavy = kn.Indicator(dist.Pareto(0.8, 1.0))
    with pytest.raises(TruncationError):
        pr.eval_stationary(EXP_LAW, heavy, [0.0], 1e-6, stream(19))
    never_zero = kn.DeterministicTable((0.0,), (1.0,))
    with pytest.raises(TruncationError):
        pr.eval_stationary(EXP_LAW, never_zero, [0.0], 1e-6, stream(20))


def test_bounded_kernels_are_exact_with_no_bound():
    spec = kn.Indicator(dist.Uniform(0.0, 2.0))
    ps = pr.eval_stationary(EXP_LAW, spec, [0.0], 1e-6, stream(21))
    assert ps.truncation_bound is None
    table = kn.ScaledTable(dist.Exponential(1.0), kn.DeterministicTable((0.0, 3.0), (1.0, 0.0)))
    ps = pr.eval_stationary(EXP_LAW, table, [0.0], 1e-6, stream(22))
    assert ps.truncation_bound is None


def test_stationary_birth_death_runs_with_phase_type_bound():
    spec = kn.BirthDeath(initial=1, birth_rates=(0.3, 0.0), death_rates=(1.0, 1.0), state_cap=2)
    ps = pr.eval_stationary(EXP_LAW, spec, [0.0], 1e-6, stream(23))
    assert ps.truncation_bound is not None and ps.truncation_bound < 1e-6
    assert ps.values[0] >= 0.0


def test_spike_train_stationary_value():
    ps = pr.eval_stationary(EXP_LAW, kn.SpikeTrain(), [0.0], 1e-3, stream(24), c_max=4096.0)
    assert np.isfinite(ps.values[0])
    assert ps.truncation_bound < 1e-3


def test_fdd_csv_and_metadata():
    sample = pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0, 7.0], 5, seed=25)
    text = sample.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "u=0,u=7"
    assert len(lines) == 6
    meta = sample.metadata(EXP_LAW, MM_INF)
    assert meta["mode"] == "stationary"
    assert meta["law"] == {"family": "exponential", "rate": 1.0}
    assert meta["c_used"]["max"] >= meta["c_used"]["min"] > 0
    assert meta["seed"] == 25


@given(st.integers(min_value=0, max_value=10**5))
@settings(max_examples=20, deadline=None)
def test_transient_values_integer_for_indicator(seed):
    ps = pr.eval_transient(EXP_LAW, MM_INF, 5.0, [0.0, 1.0], stream(seed))
    assert np.all(ps.values == np.round(ps.values))
    assert np.all(ps.values >= 0.0)
