import functools
import math
import operator

import numpy as np
import pytest
from scipy.integrate import quad

from renewal_immigration import diagnostics as dg
from renewal_immigration import distributions as dist
from renewal_immigration import kernels as kn
from renewal_immigration import renewal as rn
from renewal_immigration.streams import DRI_MEAN, DRI_PATH, stream

from oracles import mp_birth_death_generator, replayed_increments_until
from test_renewal import assert_forward_rows, assert_window_rows, split_rows

EXP_LAW = dist.Exponential(1.0)
MM_INF = kn.Indicator(dist.Exponential(1.0))
ZERO_KERNEL = kn.DeterministicTable((0.0,), (0.0,))


def test_dri_zero_kernel_convergent():
    report = dg.dri_mean_check(ZERO_KERNEL, 20, 4, 10, stream(0))
    assert np.all(report.terms == 0.0)
    assert report.verdict == dg.CONVERGENT_EVIDENCE
    assert report.residual_estimate == 0.0


def test_dri_partial_sums_nondecreasing():
    for spec in [MM_INF, kn.SpikeTrain(), kn.ScaledExpDecay(dist.PointMass(1.0), 1.0)]:
        report = dg.dri_mean_check(spec, 30, 4, 200, stream(1))
        assert np.all(np.diff(report.partial_sums) >= -1e-15)
        assert np.all(report.terms >= 0.0)


def test_dri_exp_decay_geometric_sum():
    spec = kn.ScaledExpDecay(dist.PointMass(1.0), 1.0)
    report = dg.dri_mean_check(spec, 40, 8, 5, stream(2))
    assert report.verdict == dg.CONVERGENT_EVIDENCE
    # Deterministic kernel with a left-anchored grid: the partial sum is the
    # exact geometric series.
    assert report.partial_sums[-1] == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-12)
    path_report = dg.dri_path_check(spec, 40, 5, stream(3))
    assert path_report.verdict == dg.CONVERGENT_EVIDENCE
    assert path_report.partial_sums[-1] == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-12)


def test_dri_pareto_indicator_divergent():
    spec = kn.Indicator(dist.Pareto(0.8, 1.0))
    report = dg.dri_mean_check(spec, 1000, 4, 500, stream(4))
    assert report.verdict == dg.DIVERGENT_EVIDENCE
    assert report.partial_sums[999] > 5.0
    # Term oracle: P(eta > k) = k^{-0.8} for k >= 1.
    for k in (1, 4, 16):
        se = math.sqrt(report.terms[k] * (1 - report.terms[k]) / 500 + 1e-12)
        assert abs(report.terms[k] - k**-0.8) < 4.0 * se + 0.02


def test_dri_indicator_exponential_terms_and_agreement():
    report_m = dg.dri_mean_check(MM_INF, 25, 8, 4000, stream(5))
    report_p = dg.dri_path_check(MM_INF, 25, 4000, stream(5))
    # Absorbed kernel: both criteria agree (here, both convergent).
    assert report_m.verdict == dg.CONVERGENT_EVIDENCE
    assert report_p.verdict == dg.CONVERGENT_EVIDENCE
    for k in (0, 1, 2, 4):
        target = math.exp(-k)
        se = math.sqrt(target * (1 - target) / 4000) + 1e-9
        assert abs(report_p.terms[k] - target) < 4.0 * se


def test_dri_table_path_terms_exact():
    table = kn.DeterministicTable((0.0, 4.0), (1.0, 0.0))
    report = dg.dri_path_check(table, 8, 3, stream(6))
    assert list(report.terms) == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert report.verdict == dg.CONVERGENT_EVIDENCE


def test_dri_spike_separation():
    # Same seed = same paths: the path term dominates the mean term exactly,
    # and the verdicts split.
    mean_report = dg.dri_mean_check(kn.SpikeTrain(), 400, 4, 1000, stream(7))
    path_report = dg.dri_path_check(kn.SpikeTrain(), 400, 1000, stream(7))
    assert mean_report.verdict == dg.CONVERGENT_EVIDENCE
    assert path_report.verdict == dg.DIVERGENT_EVIDENCE
    assert np.all(path_report.terms >= mean_report.terms - 1e-12)
    assert np.all(path_report.terms[1:] == 1.0)


def test_dri_path_dominates_mean_paired():
    for spec in [MM_INF, kn.ScaledExpDecay(dist.Exponential(1.0), 0.5)]:
        mean_report = dg.dri_mean_check(spec, 20, 8, 500, stream(8))
        path_report = dg.dri_path_check(spec, 20, 500, stream(8))
        assert np.all(path_report.terms >= mean_report.terms - 1e-12)


# Heavy tails that fade slowly but converge: pulse means 21 and 6, and
# exp-decay terms 2 e^{-j/10} - e^{-j/5}, which sum to 15.5.
HEAVY_CONVERGENT = {
    "pareto-1.05-pulse": kn.Indicator(dist.Pareto(1.05, 1.0)),
    "pareto-1.2-pulse": kn.Indicator(dist.Pareto(1.2, 1.0)),
    "pareto-0.5-exp-decay": kn.ScaledExpDecay(dist.Pareto(0.5, 1.0), 0.2),
}


@pytest.mark.parametrize("name", HEAVY_CONVERGENT)
def test_dri_heavy_convergent_tails_converge_at_the_defaults(name):
    # The dri defaults and the dri streams of seed 3.
    spec = HEAVY_CONVERGENT[name]
    mean_report = dg.dri_mean_check(spec, 50, 8, 2000, stream(3, DRI_MEAN, 0))
    path_report = dg.dri_path_check(spec, 50, 2000, stream(3, DRI_PATH, 0))
    assert mean_report.verdict == path_report.verdict == dg.CONVERGENT_EVIDENCE


def test_dri_pareto_105_pulse_path_converges_at_a_long_horizon():
    report = dg.dri_path_check(HEAVY_CONVERGENT["pareto-1.05-pulse"], 2000, 2000, stream(3, DRI_PATH, 0))
    assert report.verdict == dg.CONVERGENT_EVIDENCE


def test_converge_on_a_convergent_heavy_pulse_has_no_summability_warning():
    reports = dg.convergence_test(EXP_LAW, HEAVY_CONVERGENT["pareto-1.05-pulse"], [1.0], [0.0], 20, 0.01, 3)
    assert not [w for report in reports for w in report.warnings if "summability" in w]


def _bd_remainder(spec, k):
    """``sum_{j >= k} P(tau > j) = alpha e^{G k} (I - e^G)^{-1} 1`` with 60 digits."""
    import mpmath as mp

    gen = mp_birth_death_generator(spec)
    ones = mp.matrix([1] * spec.state_cap)
    return (mp.expm(gen * k) * mp.lu_solve(mp.eye(spec.state_cap) - mp.expm(gen), ones))[spec.initial - 1]


BIRTH_DEATH = kn.BirthDeath(initial=1, birth_rates=(0.5, 0.5, 0.5, 0.0), death_rates=(1.0,) * 4, state_cap=4)
# Exact sums over j >= k of each kernel's terms, and the criteria they are
# the terms of (both, or only the mean one).
EXACT_REMAINDERS = {
    "exp-pulse": (MM_INF, lambda mp, k: mp.exp(-k) / (1 - mp.exp(-1)), "both"),
    "pareto-1.5-pulse": (kn.Indicator(dist.Pareto(1.5, 1.0)), lambda mp, k: mp.zeta(1.5, k), "both"),
    "exp-decay": (kn.ScaledExpDecay(dist.PointMass(1.0), 1.0), lambda mp, k: mp.exp(-k) / (1 - mp.exp(-1)), "both"),
    "pareto-0.5-exp-decay": (
        HEAVY_CONVERGENT["pareto-0.5-exp-decay"],
        lambda mp, k: 2 * mp.exp(-k / mp.mpf(10)) / (1 - mp.exp(-1 / mp.mpf(10)))
        - mp.exp(-k / mp.mpf(5)) / (1 - mp.exp(-1 / mp.mpf(5))),
        "both",
    ),
    "spike-train": (kn.SpikeTrain(), lambda mp, k: mp.nsum(lambda j: 1 / (j * j + 1), [k, mp.inf]), "mean"),
    "birth-death": (BIRTH_DEATH, lambda mp, k: _bd_remainder(BIRTH_DEATH, k), "both"),
}


@pytest.mark.parametrize("name", EXACT_REMAINDERS)
def test_dri_remainder_bounds_the_exact_remainder(name):
    # The exp-decay bound with unit marks is the sum itself; the reported
    # bound is rounded up, so it holds in floats too.
    import mpmath as mp

    spec, remainder, criteria = EXACT_REMAINDERS[name]
    for k_max in (1, 2, 5, 20, 50):
        reports = [dg.dri_mean_check(spec, k_max, 2, 1, stream(10))]
        if criteria == "both":
            reports.append(dg.dri_path_check(spec, k_max, 1, stream(11)))
        with mp.workdps(60):
            exact = remainder(mp, k_max)
            for report in reports:
                assert mp.mpf(report.residual_estimate) >= exact, (report.criterion, k_max)
                if name == "exp-pulse":
                    # Not vacuous: within a factor e of the sum.
                    assert mp.mpf(report.residual_estimate) <= mp.e * exact


def _bd_tail_integral(spec, lo):
    """``int_lo^inf P(tau > x) dx = alpha e^{G lo} (-G)^{-1} 1`` with 60 digits."""
    import mpmath as mp

    gen = mp_birth_death_generator(spec)
    return -mp.lu_solve(gen, mp.expm(gen * lo) * mp.matrix([1] * spec.state_cap))[spec.initial - 1]


# Each kernel's mean bound past k, in exact arithmetic: the value that
# ``unit_remainders(k)[0]`` rounds.
FLOAT_REMAINDERS = {
    "exp-decay-20": (kn.ScaledExpDecay(dist.PointMass(1.0), 1.0), 20, lambda mp, k: mp.exp(-k) / (1 - mp.exp(-1))),
    "exp-pulse-800": (MM_INF, 800, lambda mp, k: mp.exp(1 - k)),
    "spike-train-1e6": (kn.SpikeTrain(), 10**6, lambda mp, k: mp.atan(1 / mp.mpf(k - 1))),
    "spike-train-1e8": (kn.SpikeTrain(), 10**8, lambda mp, k: mp.atan(1 / mp.mpf(k - 1))),
    "spike-train-1e10": (kn.SpikeTrain(), 10**10, lambda mp, k: mp.atan(1 / mp.mpf(k - 1))),
    "birth-death-20": (BIRTH_DEATH, 20, lambda mp, k: _bd_tail_integral(BIRTH_DEATH, k - 1)),
}


@pytest.mark.parametrize("name", FLOAT_REMAINDERS)
def test_reported_remainder_holds_in_floats(name):
    # At or above the exact bound, and above it by at most 1e-8 relative, or
    # by the smallest positive float where the exact bound is below it
    # (e^-799 for the exponential pulse, which the float tail rounds to 0).
    import mpmath as mp

    spec, k, exact_bound = FLOAT_REMAINDERS[name]
    bound = dg._upper_remainder(spec, "mean", k)
    with mp.workdps(60):
        exact = exact_bound(mp, k)
        assert exact <= mp.mpf(bound) <= max(exact * (1 + mp.mpf(1e-8)), mp.mpf(math.ulp(0.0)))
    if name == "exp-pulse-800":
        assert 0.0 < dg.dri_path_check(spec, k, 1, stream(14)).residual_estimate == bound


def test_exact_zero_remainders_stay_zero():
    # Past the support end of a bounded kernel every term is 0.
    for spec in (ZERO_KERNEL, kn.Indicator(dist.Uniform(0.0, 1.0)), kn.ScaledExpDecay(dist.PointMass(0.0), 1.0)):
        for criterion in ("mean", "path"):
            assert dg._upper_remainder(spec, criterion, 5) == 0.0


def test_dri_table_remainder_counts_the_units_left_in_its_support():
    # Support [0, 4), k_max 2: the units [2, 3) and [3, 4) are still ahead.
    table = kn.DeterministicTable((0.0, 4.0), (1.0, 0.0))
    for report in (dg.dri_mean_check(table, 2, 2, 1, stream(12)), dg.dri_path_check(table, 2, 1, stream(13))):
        assert 2.0 <= report.residual_estimate < math.inf
        assert report.verdict == dg.CONVERGENT_EVIDENCE


def test_laplace_zero_function_is_one():
    h = kn.DeterministicTable((0.0, 1.0), (0.0, 0.0))
    res = dg.laplace_functional_compare(EXP_LAW, h, 10.0, 200, stream(9))
    assert res.transient_estimate == 1.0
    assert res.stationary_estimate == 1.0


def test_laplace_poisson_closed_form():
    h = kn.DeterministicTable((0.0, 1.0), (1.0, 0.0))
    res = dg.laplace_functional_compare(EXP_LAW, h, 50.0, 2 * 10**4, stream(28))
    # Poisson Laplace functional: exp(-integral (1 - e^{-h})) over [0, 1).
    integral, err = quad(lambda x: 1.0 - math.exp(-1.0), 0.0, 1.0)
    assert err < 1e-12
    oracle = math.exp(-integral)
    assert abs(res.transient_estimate - oracle) < res.transient_ci99
    assert abs(res.stationary_estimate - oracle) < res.stationary_ci99
    assert not res.lattice_warning
    # h >= 0 and not identically 0: the functionals live strictly inside (0, 1).
    assert 0.0 < res.transient_estimate < 1.0
    assert 0.0 < res.stationary_estimate < 1.0


def test_laplace_lattice_warning():
    h = kn.DeterministicTable((0.0, 1.0), (1.0, 0.0))
    res = dg.laplace_functional_compare(dist.PointMass(1.0), h, 20.0, 500, stream(11))
    assert res.lattice_warning


def test_laplace_validates_h():
    bad = kn.DeterministicTable((0.0, 1.0), (-1.0, 0.0))
    with pytest.raises(Exception):
        dg.laplace_functional_compare(EXP_LAW, bad, 10.0, 100, stream(12))
    unbounded = kn.DeterministicTable((0.0,), (1.0,))
    with pytest.raises(Exception):
        dg.laplace_functional_compare(EXP_LAW, unbounded, 10.0, 100, stream(12))


def _non_dyadic_h(mu):
    """A multi-step test function whose values do not add exactly, so the
    grouping of the terms in a sum shows in its last bits."""
    return kn.DeterministicTable((0.0, mu, 2.0 * mu, 3.0 * mu, 5.0 * mu), (0.1, 0.3, 0.2, 0.7, 0.0))


def _exp_neg_sum_in_order(values):
    """``exp(-sum)`` of ``values`` added one at a time, in order."""
    return math.exp(-functools.reduce(operator.add, values.tolist(), 0.0))


LAPLACE_LAWS = [dist.Gamma(2.0, 0.5), dist.LogNormal(0.0, 1.0), dist.FiniteDiscrete(((0.5, 0.3), (1.5, 0.7)))]


@pytest.mark.parametrize("law", LAPLACE_LAWS, ids=lambda law: type(law).__name__)
def test_laplace_transient_estimate_equals_single_runs(law):
    # The n_mc forward rows form one row block.  The oracle replays its
    # rounds of increments and builds each run on its own, so the estimate
    # must equal, bit for bit, the one from those runs each summed alone.
    mu = law.mean()
    h, t, n_mc = _non_dyadic_h(mu), 40.0 * mu, 600
    assert list(rn.row_blocks(n_mc, law, t)) == [(0, n_mc)]
    runs = replayed_increments_until(law, stream(3), np.zeros(n_mc), t, *rn._moments(law))
    single = np.array([_exp_neg_sum_in_order(h.value(t - np.append(0.0, run[:-1]))) for run in runs])
    res = dg.laplace_functional_compare(law, h, t, n_mc, stream(3))
    assert res.transient_estimate == float(single.mean())
    assert res.transient_ci99 == 2.5758293035489004 * float(single.std(ddof=1)) / math.sqrt(n_mc)


@pytest.mark.parametrize("law", LAPLACE_LAWS, ids=lambda law: type(law).__name__)
def test_laplace_row_sums_add_in_point_order_bit_for_bit(law):
    # Each row's sum equals that row summed alone, one term at a time in
    # point order, whatever the other rows hold.
    mu = law.mean()
    h = _non_dyadic_h(mu)
    t = 60.0 * mu
    real = rn.simulate_forward(law, t, stream(5), size=50)
    window = rn.build_stationary_window(law, 8.0 * mu, stream(6), size=50)
    for x, counts in ((t - real.epochs, real.counts), (window.points, window.counts)):
        assert counts.min() < counts.max()
        single = [_exp_neg_sum_in_order(h.value(row)) for row in split_rows(counts, x)]
        assert dg._exp_neg_h_sums(h, x, counts).tobytes() == np.array(single).tobytes()


class _CountedTable:
    """A test function that counts the points it is evaluated at."""

    def __init__(self, table):
        self.table, self.evaluated = table, 0

    def value(self, x):
        self.evaluated += len(x)
        return self.table.value(x)

    def support_end(self):
        return self.table.support_end()


# Tables that end in 0.0 and in -0.0 (both end the support), one with a
# first breakpoint past 0, and one that is 0 everywhere.
SUPPORT_TABLES = {
    "non_dyadic": lambda mu: _non_dyadic_h(mu),
    "ends_in_minus_zero": lambda mu: kn.DeterministicTable((0.0, mu, 3.0 * mu), (0.3, 0.1, -0.0)),
    "starts_late": lambda mu: kn.DeterministicTable((0.5 * mu, 2.0 * mu), (0.7, 0.0)),
    "zero": lambda mu: kn.DeterministicTable((0.0,), (0.0,)),
}


@pytest.mark.parametrize("table", sorted(SUPPORT_TABLES))
def test_laplace_row_sums_evaluate_h_on_its_support_only(table):
    # Skipping the points outside [0, support_end) keeps every row's sum
    # bit for bit: each equals its row summed alone over all its points.
    law = dist.LogNormal(0.0, 1.0)
    mu = law.mean()
    h = SUPPORT_TABLES[table](mu)
    t = 60.0 * mu
    real = rn.simulate_forward(law, t, stream(5), size=50)
    window = rn.build_stationary_window(law, 8.0 * mu, stream(6), size=50)
    for x, counts in ((t - real.epochs, real.counts), (window.points, window.counts)):
        counted = _CountedTable(h)
        single = [_exp_neg_sum_in_order(h.value(row)) for row in split_rows(counts, x)]
        assert dg._exp_neg_h_sums(counted, x, counts).tobytes() == np.array(single).tobytes()
        assert counted.evaluated == np.count_nonzero((x >= 0.0) & (x < h.support_end())) < len(x)


def test_convergence_zero_kernel_trivially_non_rejecting():
    reports = dg.convergence_test(EXP_LAW, ZERO_KERNEL, [2.0], [0.0, 1.0], 200, 0.01, 13)
    assert reports[0].decision == "non_reject"


def test_convergence_mminf_rejects_early_accepts_late():
    reports = dg.convergence_test(EXP_LAW, MM_INF, [0.5, 30.0], [0.0, 1.0, 5.0], 4000, 0.01, 14)
    assert reports[0].decision == "reject"
    assert reports[1].decision == "non_reject"
    assert reports[0].t == 0.5 and reports[1].t == 30.0


def test_convergence_heavy_tail_hypothesis_violation():
    reports = dg.convergence_test(EXP_LAW, kn.Indicator(dist.Pareto(0.8, 1.0)), [5.0], [0.0], 100, 0.01, 15)
    assert reports[0].decision == "hypothesis_violation"
    assert any("divergent" in w or "diverges" in w for w in reports[0].warnings)


def test_convergence_lattice_warning():
    reports = dg.convergence_test(dist.PointMass(1.0), MM_INF, [10.0], [0.0], 300, 0.01, 16)
    assert any("lattice" in w for w in reports[0].warnings)


def test_convergence_long_compact_table_not_flagged():
    # Compact support integrates trivially, however long the table is.
    long_table = kn.DeterministicTable((0.0, 80.0), (1.0, 0.0))
    reports = dg.convergence_test(EXP_LAW, long_table, [200.0], [0.0], 200, 0.01, 25)
    assert reports[0].warnings == ()


def test_compare_fdd_null_calibration_light():
    from renewal_immigration.process import fdd_sample

    rejections = 0
    trials = 40
    for trial in range(trials):
        a = fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0, 1.0], 300, seed=17, key=(trial, 0))
        b = fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0, 1.0], 300, seed=17, key=(trial, 1))
        rep = dg.compare_fdd_samples(a.values, b.values, [0.0, 1.0], 0.05, 99, stream(18, trial))
        rejections += rep.decision == "reject"
    assert rejections / trials <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / trials)


def test_intensity_check_examples():
    res = dg.intensity_check(dist.Exponential(2.0), [(0.0, 5.0), (1.0, 1.0)], 2 * 10**4, stream(19))
    assert res[0].expected_mean == pytest.approx(10.0)
    assert abs(res[0].z_score) < 4.0
    assert res[1].expected_mean == 0.0
    assert res[1].empirical_mean == 0.0
    assert res[1].z_score == 0.0

    res = dg.intensity_check(dist.Uniform(0.0, 2.0), [(-3.0, 3.0)], 2 * 10**4, stream(20))
    assert res[0].expected_mean == pytest.approx(6.0)
    assert abs(res[0].z_score) < 4.0


def test_overshoot_check_exponential_memoryless():
    report = dg.overshoot_check(EXP_LAW, 30.0, 2 * 10**4, stream(21))
    assert report.ks.p_value > 0.01
    assert not report.lattice_warning
    assert report.horizon_warning is None


def test_overshoot_check_uniform_closed_form():
    report = dg.overshoot_check(dist.Uniform(0.0, 1.0), 50.0, 2 * 10**4, stream(22))
    assert report.ks.p_value > 0.01


def test_overshoot_check_point_mass_lattice_flag():
    report = dg.overshoot_check(dist.PointMass(1.0), 10.5, 2000, stream(23))
    assert report.lattice_warning
    # Degenerate overshoot 0.5 against the uniform integrated tail: rejected.
    assert report.ks.p_value < 0.01
    assert report.horizon_warning is not None  # 10.5 < 20 means


# The horizon must reach 20 of the limiting overshoot's mean
# E[xi^2] / (2 mu) as well as 20 means: 510 means for Gamma(0.02, 50),
# 27.2 means for LogNormal(0, 1).
HORIZON_WARNINGS = {
    "bursty-50": (dist.Gamma(0.02, 50.0), 50.0, "horizon 50 is below 510, "),
    "bursty-600": (dist.Gamma(0.02, 50.0), 600.0, None),
    "lognormal-50": (dist.LogNormal(0.0, 1.0), 50.0 * math.exp(0.5), None),
}


@pytest.mark.parametrize("case", sorted(HORIZON_WARNINGS))
def test_overshoot_horizon_warning_follows_the_limiting_overshoot_mean(case):
    law, horizon, prefix = HORIZON_WARNINGS[case]
    warning = dg.overshoot_check(law, horizon, 20, stream(25)).horizon_warning
    if prefix is None:
        assert warning is None
    else:
        assert warning is not None and warning.startswith(prefix)


def test_shift_invariance_check():
    res = dg.shift_invariance_check(EXP_LAW, 0.25, (0.0, 1.0), 2 * 10**4, stream(24))
    assert res.p_value > 0.01


class _CountingLogNormal(dist.LogNormal):
    """LogNormal(0, 2) that records the size of every increment draw."""

    draws = []

    def sample(self, rng, size):
        type(self).draws.append(size)
        return super().sample(rng, size=size)


def _point_process_run(monkeypatch, law, rng_seed):
    """The four point-process checks with every batched draw recorded."""
    drawn = {"build_stationary_window": [], "simulate_forward": []}
    for name, out in drawn.items():
        real = getattr(rn, name)

        def spy(*args, real=real, out=out, **kwargs):
            result = real(*args, **kwargs)
            out.append(result)
            return result

        monkeypatch.setattr(dg, name, spy)
    mu = law.mean()
    h = kn.DeterministicTable((0.0, mu), (1.0, 0.0))
    reports = [
        dg.intensity_check(law, [(0.0, 5.0 * mu), (-2.0 * mu, mu)], 40, stream(rng_seed)),
        dg.overshoot_check(law, 20.0 * mu, 30, stream(rng_seed + 1)),
        dg.shift_invariance_check(law, 0.25 * mu, (0.0, 5.0 * mu), 40, stream(rng_seed + 2)),
        dg.laplace_functional_compare(law, h, 20.0 * mu, 30, stream(rng_seed + 3)),
    ]
    return reports, drawn


@pytest.mark.parametrize("top_up", [False, True], ids=["natural", "forced_top_up"])
def test_point_process_checks_in_blocks_of_one_to_three_rows(monkeypatch, top_up):
    # Six expected points per block: one row of a window over [-6 mu, 6 mu]
    # or of a forward run to 20 mu, three rows of a window over [-mu, mu].
    monkeypatch.setattr(rn, "ROW_BLOCK_POINTS", 6)
    if top_up:
        # Overstating the mean twentyfold makes every first block of
        # increments too short, so the rows need top-up rounds.
        real_moments = rn._moments
        monkeypatch.setattr(rn, "_moments", lambda law: (20.0 * real_moments(law)[0], real_moments(law)[1]))
    law = _CountingLogNormal(0.0, 2.0)
    runs = []
    for _ in range(2):
        law.draws.clear()
        runs.append(_point_process_run(monkeypatch, law, 40) + (len(law.draws),))
    (reports, drawn, n_draws), (rerun_reports, rerun_drawn, _) = runs
    assert reports == rerun_reports
    windows, forwards = drawn["build_stationary_window"], drawn["simulate_forward"]
    assert len(windows) > 20 and len(forwards) > 20
    for rows, again in zip(windows, rerun_drawn["build_stationary_window"]):
        assert 1 <= len(rows.counts) <= 3
        assert np.array_equal(rows.counts, again.counts) and np.array_equal(rows.points, again.points)
        assert_window_rows(rows, rows.c)
    for real, again in zip(forwards, rerun_drawn["simulate_forward"]):
        assert 1 <= len(real.counts) <= 3
        assert np.array_equal(real.counts, again.counts) and np.array_equal(real.epochs, again.epochs)
        assert_forward_rows(real, real.horizon)
    # Each window draws at most one round per side, each forward run one
    # round, unless some row needed a top-up.
    if top_up:
        assert n_draws > 2 * len(windows) + len(forwards)
