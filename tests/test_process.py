import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_immigration import distributions as dist
from renewal_immigration import kernels as kn
from renewal_immigration import process as pr
from renewal_immigration.cli import _sample_files
from renewal_immigration.config import ExperimentConfig
from renewal_immigration.errors import LawError, TruncationError
from renewal_immigration import renewal as rn
from renewal_immigration.renewal import StationaryWindowSampler, build_stationary_window, simulate_forward
from renewal_immigration.stats import ks_two_sample
from renewal_immigration.streams import STATIONARY_BLOCK, TRANSIENT_BLOCK, stream

from oracles import busy_servers_event_driven, chisq_gof_counts, chunked_superpose, per_path_superpose
from test_kernels import ALL_SPECS, TABLE_STEPS
from test_renewal import split_rows

ZERO_KERNEL = kn.DeterministicTable((0.0,), (0.0,))
EXP_LAW = dist.Exponential(1.0)
MM_INF = kn.Indicator(dist.Exponential(1.0))


def stationary_once(law, spec, u_grid, tol, rng, c_max=None):
    """One stationary replicate at the half-width a run with ``tol`` would use, and its bound."""
    c, bound = pr.stationary_half_width(law, spec, u_grid, tol, c_max)
    return pr.eval_stationary(law, spec, u_grid, c, rng, size=1), bound


def test_zero_kernel_transient_and_stationary():
    ps = pr.eval_transient(EXP_LAW, ZERO_KERNEL, 5.0, [0.0, 1.0], stream(0), size=1)
    assert np.all(ps.values == 0.0)
    ps, bound = stationary_once(EXP_LAW, ZERO_KERNEL, [0.0, 1.0], 1e-6, stream(1))
    assert np.all(ps.values == 0.0)
    assert bound is None


def test_transient_point_mass_enumeration():
    # Law with epochs 0..10; kernel 1 on [0,1): only the epoch at 10 lands
    # inside the support when evaluating at 10.5.
    table = kn.DeterministicTable((0.0, 1.0), (1.0, 0.0))
    ps = pr.eval_transient(dist.PointMass(1.0), table, 10.5, [0.0], stream(2), size=1)
    assert ps.values.tolist() == [[1.0]]


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
    ps = pr.eval_transient(EXP_LAW, MM_INF, 2.0, [-5.0, -3.0], stream(5), size=1)
    assert np.all(ps.values == 0.0)


def test_transient_negative_u_allowed():
    ps = pr.eval_transient(EXP_LAW, MM_INF, 3.0, [-2.0, 0.0, 1.0], stream(6), size=1)
    assert np.all(np.isfinite(ps.values))
    assert np.all(ps.values >= 0.0)


def test_stationary_zero_pulse():
    spec = kn.Indicator(dist.PointMass(0.0))
    ps, _ = stationary_once(EXP_LAW, spec, [0.0, 2.0], 1e-6, stream(7))
    assert np.all(ps.values == 0.0)


def test_stationary_campbell_mean_exp_decay():
    spec = kn.ScaledExpDecay(dist.PointMass(1.0), 1.0)
    sample = pr.fdd_sample(EXP_LAW, spec, "stationary", [0.0], 2 * 10**4, seed=8)
    se = sample.values.std(ddof=1) / math.sqrt(sample.values.shape[0])
    assert abs(sample.values.mean() - 1.0) < 4.0 * se
    assert sample.truncation_bound < 1e-6


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
    # 50 rows of 2 c = 44 expected points make one block, drawn from its block stream.
    block = pr.eval_stationary(EXP_LAW, MM_INF, [0.0, 1.0], a.c_used, stream(12, STATIONARY_BLOCK, 0, 0), size=50)
    assert np.array_equal(a.values, block.values)
    # One replicate is a one-row block.
    row = pr.eval_stationary(EXP_LAW, MM_INF, [0.0, 1.0], a.c_used, stream(12, STATIONARY_BLOCK, 0, 0), size=1)
    assert row.values.shape == (1, 2)


def test_fdd_validation():
    with pytest.raises(LawError):
        pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0], 0, seed=1)
    with pytest.raises(LawError):
        pr.fdd_sample(EXP_LAW, MM_INF, "sideways", [0.0], 1, seed=1)
    with pytest.raises(LawError):
        pr.fdd_sample(EXP_LAW, MM_INF, "transient", [0.0], 1, seed=1)  # t missing
    with pytest.raises(LawError):
        pr.fdd_sample(EXP_LAW, MM_INF, "transient", [0.0], 1, seed=1, t=-1.0)
    with pytest.raises(LawError):
        pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0], 1, seed=1, tol=0.0)
    # Not increasing, not finite: the block evaluators trust the grid.
    for grid in ([0.0, 0.0], [0.0, np.nan], [0.0, np.inf]):
        for mode in ("transient", "stationary"):
            with pytest.raises(LawError):
                pr.fdd_sample(EXP_LAW, MM_INF, mode, grid, 1, seed=1, t=1.0)


def test_nonnegative_kernels_give_nonnegative_values():
    # The spike train's polynomial tail needs a wider window cap.
    specs = [MM_INF, kn.ScaledExpDecay(dist.Exponential(1.0), 0.5), kn.SpikeTrain()]
    for i, spec in enumerate(specs):
        ps, _ = stationary_once(EXP_LAW, spec, [0.0, 2.0], 1e-4, stream(13, i), c_max=4 * 10**4)
        assert np.all(ps.values >= 0.0)
        pt = pr.eval_transient(EXP_LAW, spec, 10.0, [0.0, 2.0], stream(14, i), size=1)
        assert np.all(pt.values >= 0.0)


def test_truncation_monotone_in_c_pathwise():
    # Same window, same paths: enlarging c can only add nonnegative terms.
    sampler = StationaryWindowSampler(EXP_LAW, stream(15), size=1)
    window = sampler.initial(64.0)
    eta_rng = stream(16)
    pts = window.points
    etas = eta_rng.exponential(1.0, size=len(pts))
    contributions = ((pts >= 0.0) & (etas > pts)).astype(float)
    totals = [contributions[np.abs(pts) <= c].sum() for c in (8.0, 16.0, 32.0, 64.0)]
    assert all(t2 >= t1 for t1, t2 in zip(totals, totals[1:]))


def test_truncation_error_carries_bound_and_half_width():
    spec = kn.ScaledExpDecay(dist.PointMass(1.0), 1.0)
    with pytest.raises(TruncationError) as info:
        pr.stationary_half_width(EXP_LAW, spec, [0.0], 1e-300)
    err = info.value
    assert err.bound > 1e-300
    # Doubled from 10 while 2c stays within the default cap of 512.
    assert err.c_used == 320.0
    assert err.bound == math.exp(-320.0)


def test_truncation_error_in_fdd_raises_before_any_draw(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("a stationary run that cannot reach tol drew")

    for name in ["StationaryWindowSampler", "sample_path", "simulate_forward", "stream", "eval_stationary"]:
        monkeypatch.setattr(pr, name, fail)
    spec = kn.ScaledExpDecay(dist.PointMass(1.0), 1.0)
    with pytest.raises(TruncationError) as info:
        pr.fdd_sample(EXP_LAW, spec, "stationary", [0.0], 3, seed=18, tol=1e-300)
    assert info.value.bound > 1e-300


def test_stationary_diverging_configs_fail_fast():
    heavy = kn.Indicator(dist.Pareto(0.8, 1.0))
    with pytest.raises(TruncationError):
        pr.stationary_half_width(EXP_LAW, heavy, [0.0], 1e-6)
    never_zero = kn.DeterministicTable((0.0,), (1.0,))
    with pytest.raises(TruncationError):
        pr.stationary_half_width(EXP_LAW, never_zero, [0.0], 1e-6)
    # Exp-decay shot noise with infinite-mean marks converges a.s., but its
    # expected missed mass is infinite, so no tolerance can be met.
    heavy_marks = kn.ScaledExpDecay(dist.Pareto(0.8, 1.0), 1.0)
    with pytest.raises(TruncationError, match="expected missed mass is infinite") as info:
        pr.stationary_half_width(EXP_LAW, heavy_marks, [0.0], 1e-6)
    assert "diverge" not in str(info.value) and info.value.bound == math.inf


def test_indicator_bound_keeps_relative_accuracy_far_out():
    # LogNormal(0, 1) pulses: the missed mass at c is m Phi(1 - ln c) - c Phi(-ln c).
    # At c = 10240 it is 1.58e-17, above tol; formed as mean - E[min(eta, c)]
    # it cancelled to 0 there.  At c = 20480 it is 3.554e-20.
    import mpmath as mp

    spec = kn.Indicator(dist.LogNormal(0.0, 1.0))
    c, bound = pr.stationary_half_width(EXP_LAW, spec, [0.0], 1e-17, 1e5)
    with mp.workdps(40):
        z = mp.log(c)
        missed = float(mp.e**0.5 * mp.ncdf(1 - z) - c * mp.ncdf(-z))
    assert c == 20480.0
    assert bound == pytest.approx(missed, rel=1e-9, abs=0.0)
    assert bound == pytest.approx(3.5543703e-20, rel=1e-7, abs=0.0)


def test_bounded_kernels_are_exact_with_no_bound():
    spec = kn.Indicator(dist.Uniform(0.0, 2.0))
    ps, bound = stationary_once(EXP_LAW, spec, [0.0], 1e-6, stream(21))
    assert bound is None
    table = kn.ScaledTable(dist.Exponential(1.0), kn.DeterministicTable((0.0, 3.0), (1.0, 0.0)))
    ps, bound = stationary_once(EXP_LAW, table, [0.0], 1e-6, stream(22))
    assert bound is None


def test_stationary_birth_death_runs_with_phase_type_bound():
    spec = kn.BirthDeath(initial=1, birth_rates=(0.3, 0.0), death_rates=(1.0, 1.0), state_cap=2)
    ps, bound = stationary_once(EXP_LAW, spec, [0.0], 1e-6, stream(23))
    assert bound is not None and bound < 1e-6
    assert ps.values[0, 0] >= 0.0


def test_spike_train_stationary_value():
    ps, bound = stationary_once(EXP_LAW, kn.SpikeTrain(), [0.0], 1e-3, stream(24), c_max=4096.0)
    assert np.isfinite(ps.values[0, 0])
    assert bound < 1e-3


def test_bursty_law_reaches_tol_at_a_half_width_fixed_per_run():
    # Gamma(0.1, 10) gaps cluster points, so the smallest realized gap is
    # tiny; Campbell's bound does not look at the window and reaches
    # 10 e^-32 = 1.27e-13 at c = 320 (c doubles from 10).
    law, spec = dist.Gamma(0.1, 10.0), kn.ScaledExpDecay(dist.PointMass(1.0), 0.1)
    c, bound = pr.stationary_half_width(law, spec, [0.0], 1e-6)
    assert c == 320.0 and bound == 10.0 * math.exp(-32.0)
    sample = pr.fdd_sample(law, spec, "stationary", [0.0], 20, seed=26)
    files = _sample_files(ExperimentConfig(law, spec, 26, {}), sample, "stationary", tol=1e-6)
    meta = json.loads(files["metadata.json"])
    assert meta["c_used"] == 320.0 and meta["truncation_bound_max"] == bound
    assert np.all(sample.values > 0.0)


def test_fdd_csv_and_metadata():
    sample = pr.fdd_sample(EXP_LAW, MM_INF, "stationary", [0.0, 7.0], 5, seed=25)
    files = _sample_files(ExperimentConfig(EXP_LAW, MM_INF, 25, {}), sample, "stationary", tol=1e-6)
    lines = files["matrix.csv"].strip().split("\n")
    assert lines[0] == "u=0,u=7"
    assert len(lines) == 6
    meta = json.loads(files["metadata.json"])
    assert meta["mode"] == "stationary"
    assert meta["law"] == {"family": "exponential", "rate": 1.0}
    assert meta["c_used"] == sample.c_used > 0
    assert meta["seed"] == 25


# Campbell's formula: the points past ``cut`` miss, at u = 0, the mass
# sum_{t_k > cut} |X_k(t_k)|, whose mean is int_cut^inf E|X(s)| ds / mu.
# With mu = 1 and cut = 2 the means and bounds are, worked out beforehand:
#   Indicator(Exp(1)):            e^-2 = 0.135, bound e^-2 (equal);
#   ScaledExpDecay(U(-1, 2), 0.7): E|eta| = 5/6, so 0.294, bound 2 e^-1.4 / 0.7 = 0.705;
#   BirthDeath (cap 3):            at most the bound 3 int_2^inf P(tau > x) dx, since X <= 3;
#   SpikeTrain:                    about sum_{k>=2} 1 / (2 (k^2 + 1)) = 0.29, bound 1 / (cut - 1) = 1.
# Windows reach ``MISSED_REACH`` past the cut; what lies further only lowers
# the estimate (spike train: about 1/400).  The band is the bound plus 6
# standard errors of the mean over ``MISSED_WINDOWS`` windows.
MISSED_CUT = 2.0
MISSED_REACH = {"SpikeTrain": 200.0}
MISSED_WINDOWS = 2000


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if math.isinf(s.support_end())], ids=lambda s: type(s).__name__)
def test_tail_bound_bounds_the_missed_mass(spec):
    reach = MISSED_CUT + MISSED_REACH.get(type(spec).__name__, 30.0)
    rows = build_stationary_window(EXP_LAW, reach, stream(70), size=MISSED_WINDOWS)
    keep = (rows.points > MISSED_CUT) & (rows.points <= reach)
    row, pts = rn.point_rows(rows.counts)[keep], rows.points[keep]
    paths = kn.sample_path(spec, stream(71), size=len(pts))
    mass = np.bincount(row, np.abs(paths.values(pts[:, None])[:, 0]), minlength=MISSED_WINDOWS)
    se = mass.std(ddof=1) / math.sqrt(MISSED_WINDOWS)
    assert mass.mean() > 0.0
    assert mass.mean() <= spec.tail_bound(MISSED_CUT, EXP_LAW.mean()) + 6.0 * se


@given(st.integers(min_value=0, max_value=10**5))
@settings(max_examples=20, deadline=None)
def test_transient_values_integer_for_indicator(seed):
    ps = pr.eval_transient(EXP_LAW, MM_INF, 5.0, [0.0, 1.0], stream(seed), size=1)
    assert np.all(ps.values == np.round(ps.values))
    assert np.all(ps.values >= 0.0)


MARK_LAWS = [
    dist.Gamma(0.5, 2.0),
    dist.LogNormal(0.0, 1.0),
    dist.PointMass(0.7),
    dist.FiniteDiscrete(((0.0, 0.2), (0.5, 0.3), (2.0, 0.5))),
]
SUPERPOSE_SPECS = (
    ALL_SPECS
    + [kn.Indicator(law) for law in MARK_LAWS]
    + [kn.ScaledTable(law, TABLE_STEPS) for law in MARK_LAWS]
)
GRID = np.array([-0.5, 0.0, 0.3, 1.0, 2.5, 7.0])


def spec_id(spec):
    eta = getattr(spec, "eta", None)
    return type(spec).__name__ + ("" if eta is None else f"-{type(eta).__name__}")


def superpose_cases():
    """``(name, row, shifts, grid, k, block)``; ``blocks`` spans three blocks and four rows.

    The ``edges`` cases have empty rows first, last and where a chunk
    ends, and rows that chunks of 3 and 7 split.
    """
    shifts = np.sort(stream(40).uniform(-3.0, 8.0, size=25))
    # Rows 0..3 in order, some of them possibly empty; row 4 is always empty.
    rows = np.sort(stream(41).integers(0, 4, size=25))
    one = np.zeros(25, dtype=int)
    block = pr.SUPERPOSE_BLOCK
    yield "many", one, shifts, GRID, 1, block
    yield "rows", rows, shifts, GRID, 5, block
    yield "empty", one[:0], shifts[:0], GRID, 3, block
    yield "one_shift", one[:1], shifts[:1], GRID, 1, block
    yield "one_point_grid", rows, shifts, GRID[3:4], 5, block
    yield "blocks", rows[:11], shifts[:11], GRID, 5, 4
    # Row ends 0 2 2 3 3 3 7 7 10 11 11: chunks of 3 end at 3, 6 and 9,
    # chunks of 7 at 7.
    edges = np.repeat(np.arange(11), [0, 2, 0, 1, 0, 0, 4, 0, 3, 1, 0])
    for block in (1, 3, 7):
        yield f"edges_{block}", edges, shifts[:11], GRID, 11, block


def per_row_superpose(spec, row, shifts, grid, k, rng):
    """The oracle row by row, drawing each row's paths in turn from one generator."""
    return np.array([per_path_superpose(spec, shifts[row == i], grid, rng) for i in range(k)])


@pytest.mark.parametrize("spec", SUPERPOSE_SPECS, ids=spec_id)
def test_superpose_matches_per_path_loop(spec, monkeypatch):
    # Birth-death draws depend on the batch size, so their oracle draws one
    # batch per chunk of points as the superposition does.
    for seed, (name, row, shifts, grid, k, block) in enumerate(superpose_cases()):
        monkeypatch.setattr(pr, "SUPERPOSE_BLOCK", block)
        rng, ref_rng = stream(50 + seed), stream(50 + seed)
        got = pr._superpose(spec, np.bincount(row, minlength=k), shifts, grid, rng)
        if isinstance(spec, kn.BirthDeath):
            want = chunked_superpose(spec, row, shifts, grid, k, ref_rng, block)
        else:
            want = per_row_superpose(spec, row, shifts, grid, k, ref_rng)
        assert got.tobytes() == want.tobytes(), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state, name


def test_superpose_keeps_sign_of_underflowed_terms():
    # Points far back: exp(-0.7 * 3000) underflows, so a negative mark gives
    # -0.0.  Added onto zeros in order, a lone -0.0 becomes +0.0.
    spec = kn.ScaledExpDecay(dist.Uniform(-1.0, 2.0), 0.7)
    for seed in range(10):
        for shifts, row in ((np.array([-3000.0]), [0]), (np.array([-3000.0, -2500.0, -0.5]), [0, 1, 1])):
            row = np.array(row)
            rng, ref_rng = stream(60 + seed), stream(60 + seed)
            got = pr._superpose(spec, np.bincount(row, minlength=2), shifts, GRID, rng)
            want = per_row_superpose(spec, row, shifts, GRID, 2, ref_rng)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


# Blocks of about 20 expected points: one to ten rows each at these spans.
BLOCK_POINTS = 20
BOUNDED_PULSE = kn.Indicator(dist.Uniform(0.0, 0.5))
BLOCK_SPECS = [MM_INF, BOUNDED_PULSE, kn.ScaledExpDecay(dist.Uniform(-1.0, 2.0), 0.7)]
BLOCK_U = np.array([0.0, 0.5])


def block_points(law, spec, mode, u, c, rng, k, t):
    """Each row's kept points (as path shifts), drawn as the block draws them."""
    if mode == "transient":
        real = simulate_forward(law, t + u[-1], rng, size=k)
        return [e[t + u[0] - e < spec.support_end()] for e in split_rows(real.counts, real.epochs)]
    window = StationaryWindowSampler(law, rng, size=k).initial(c)
    rows = split_rows(window.counts, window.points)
    return [-p[(np.abs(p) <= c) & (p >= -u[-1]) & (p < spec.support_end() - u[0])] for p in rows]


@pytest.mark.parametrize("mode", ["transient", "stationary"])
@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=spec_id)
def test_fdd_rows_are_per_point_sums_over_their_block(spec, mode, monkeypatch):
    monkeypatch.setattr(rn, "ROW_BLOCK_POINTS", BLOCK_POINTS)
    # At t = 4 a transient row spans 4.5, so blocks of 4 rows (5 if rows spanned t alone).
    law, n, t, seed, key, sample = dist.Gamma(2.0, 0.5), 23, 4.0, 31, (4, 9), 2
    fdd = pr.fdd_sample(law, spec, mode, BLOCK_U, n, seed=seed, t=t, sample=sample, key=key)
    c = fdd.c_used
    span = 2.0 * c if mode == "stationary" else t + BLOCK_U[-1]
    blocks = list(rn.row_blocks(n, law, span))
    assert len(blocks) >= 3
    tag = STATIONARY_BLOCK if mode == "stationary" else TRANSIENT_BLOCK
    grid = t + BLOCK_U if mode == "transient" else BLOCK_U
    empty = 0
    for b, (lo, hi) in enumerate(blocks):
        rng = stream(seed, *key, tag, sample, b)
        if mode == "transient":
            got = pr.eval_transient(law, spec, t, BLOCK_U, rng, size=hi - lo).values
        else:
            got = pr.eval_stationary(law, spec, BLOCK_U, c, rng, size=hi - lo).values
        assert got.tobytes() == fdd.values[lo:hi].tobytes()
        # The block's paths follow its windows or forward runs, row by row.
        ref_rng = stream(seed, *key, tag, sample, b)
        for row, shifts in zip(got, block_points(law, spec, mode, BLOCK_U, c, ref_rng, hi - lo, t)):
            assert row.tobytes() == per_path_superpose(spec, shifts, grid, ref_rng).tobytes()
            if len(shifts) == 0:
                assert row.tobytes() == np.zeros(len(grid)).tobytes()
                empty += 1
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    if spec is BOUNDED_PULSE:
        assert empty > 0


def test_transient_rows_drop_the_epochs_on_their_read_interval_edge():
    # Integer epochs read at t = 10 by pulses shorter than 1: the read
    # interval keeps the epochs at 9 (one support length back) and 10, and
    # the strict support end drops each 9, so rows keep fewer epochs than
    # they hold.  Each row sums its kept epochs' paths, drawn in order.
    law, spec, t, k = dist.FiniteDiscrete(((1.0, 0.5), (2.0, 0.5))), kn.Indicator(dist.Uniform(0.0, 1.0)), 10.0, 40
    u = np.array([0.0, 0.25, 0.5])
    within = rn.read_interval(-spec.support_end(), math.inf, t + u[0])
    held = simulate_forward(law, t + u[-1], stream(81), size=k, within=within).epochs
    assert np.count_nonzero(held == t - 1.0) > 5 and np.count_nonzero(held == t) > 5
    rng, ref_rng = stream(81), stream(81)
    got = pr.eval_transient(law, spec, t, u, rng, size=k).values
    for row, shifts in zip(got, block_points(law, spec, "transient", u, None, ref_rng, k, t)):
        assert row.tobytes() == per_path_superpose(spec, shifts, t + u, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert 0.0 < got.sum() < k * len(u)


def test_transient_block_holds_four_floats_per_kept_epoch():
    # The t = 30 block of the benchmark's M/G/inf converge run: 936 rows of
    # Exp(1) epochs to t + 5, Exp(1) pulses, so every epoch is kept.  The
    # ragged build holds the epochs, the rounds' kept pieces and one piece's
    # places, about three floats an epoch; the evaluation then reads the
    # rows in place, and its chunks of paths hold less.  64 KiB covers the
    # per-row vectors.
    u, t, k = np.array([0.0, 1.0, 5.0]), 30.0, 936
    assert next(rn.row_blocks(3000, EXP_LAW, t + u[-1])) == (0, k)
    kept = len(simulate_forward(EXP_LAW, t + u[-1], stream(5), size=k).epochs)
    assert kept > 30 * k
    tracemalloc.start()
    try:
        pr.eval_transient(EXP_LAW, MM_INF, t, u, stream(5), size=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * kept + 64 * 1024


@pytest.mark.parametrize("mode", ["transient", "stationary"])
def test_fdd_validates_once_whatever_the_blocks(mode, monkeypatch):
    monkeypatch.setattr(rn, "ROW_BLOCK_POINTS", BLOCK_POINTS)
    calls = []

    def counting(name):
        inner = getattr(pr, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)

        return wrapper

    for name in ("_validate_grid", "check_interarrival"):
        monkeypatch.setattr(pr, name, counting(name))
    law, n, t = dist.Gamma(2.0, 0.5), 23, 4.0
    fdd = pr.fdd_sample(law, MM_INF, mode, BLOCK_U, n, seed=31, t=t)
    span = 2.0 * fdd.c_used if mode == "stationary" else t + BLOCK_U[-1]
    assert len(list(rn.row_blocks(n, law, span))) >= 3
    assert sorted(calls) == ["_validate_grid", "check_interarrival"]


def test_ragged_points_reach_paths_in_row_major_order(monkeypatch):
    # Gamma(0.1, 10) rows have very unequal lengths.  Row i is the next
    # counts[i] points, each kept point draws one path, and a table whose
    # last value is 2 shows a point summed into another row.
    law, u, k = dist.Gamma(0.1, 10.0), np.array([0.0, 1.0]), 40
    table = kn.DeterministicTable((0.0, 1.0), (1.0, 2.0))
    sizes = []

    def sample_path(spec, rng, size):
        sizes.append(size)
        return kn.sample_path(spec, rng, size)

    monkeypatch.setattr(pr, "sample_path", sample_path)

    real = simulate_forward(law, 5.0 + u[-1], stream(80), size=k)
    assert real.counts.min() < real.counts.max()
    got = pr.eval_transient(law, table, 5.0, u, stream(80), size=k).values
    rows = split_rows(real.counts, real.epochs)
    assert sizes == [len(real.epochs)]
    assert np.array_equal(got, [table.value(5.0 + u[None, :] - e[:, None]).sum(axis=0) for e in rows])

    sizes.clear()
    c = 20.0
    window = rn.build_stationary_window(law, c, stream(81), size=k)
    assert window.counts.min() < window.counts.max()
    got = pr.eval_stationary(law, table, u, c, stream(81), size=k).values
    kept = [p[(np.abs(p) <= c) & (p >= -u[-1])] for p in split_rows(window.counts, window.points)]
    assert sizes == [sum(map(len, kept))]
    assert np.array_equal(got, [table.value(u[None, :] + p[:, None]).sum(axis=0) for p in kept])


# Time doubling: every length of a run doubled -- the interarrival law's
# time scale, the kernel's (pulse lengths and table breakpoints doubled,
# decay and birth-death rates halved), the grid and t.  Scaling by 2 is
# exact in floats, so every epoch, window and path time doubles exactly and
# every comparison keeps its outcome: the same seed draws the same matrix,
# over several row blocks, at a doubled half-width and the same truncation
# bound (a mass, not a length).  LogNormal is left out, since doubling it
# adds ln 2 to mu, which is not exact in floats.
DOUBLED_RUNS = {
    "gamma-indicator": lambda s: (dist.Gamma(2.0, 0.5 * s), kn.Indicator(dist.Gamma(1.5, 0.8 * s))),
    "uniform-scaled_table": lambda s: (
        dist.Uniform(0.5 * s, 1.5 * s),
        kn.ScaledTable(
            dist.Exponential(1.0), kn.DeterministicTable((0.0, s, 2.5 * s, 40.0 * s), (2.0, -1.0, 0.5, 0.0))
        ),
    ),
    "exponential-exp_decay": lambda s: (dist.Exponential(1.0 / s), kn.ScaledExpDecay(dist.Uniform(-1.0, 2.0), 0.7 / s)),
    "gamma-birth_death": lambda s: (
        dist.Gamma(2.0, 0.5 * s),
        kn.BirthDeath(initial=2, birth_rates=(0.5 / s, 0.5 / s, 0.0), death_rates=(1.0 / s,) * 3, state_cap=3),
    ),
}


@pytest.mark.parametrize("mode", ["transient", "stationary"])
@pytest.mark.parametrize("case", sorted(DOUBLED_RUNS))
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=3, deadline=None)
def test_doubling_every_length_doubles_the_run(case, mode, seed):
    n, u, t = 3000, np.array([0.0, 0.5, 2.0]), 30.0
    single, double = (
        pr.fdd_sample(*DOUBLED_RUNS[case](s), mode, s * u, n, seed=seed, t=s * t if mode == "transient" else None)
        for s in (1.0, 2.0)
    )
    span = 2.0 * single.c_used if mode == "stationary" else t + u[-1]
    assert len(list(rn.row_blocks(n, DOUBLED_RUNS[case](1.0)[0], span))) >= 3
    assert np.count_nonzero(single.values) > 0
    assert single.values.tobytes() == double.values.tobytes()
    if mode == "stationary":
        assert double.c_used == 2.0 * single.c_used
        assert double.truncation_bound == single.truncation_bound


# Doubling the mark law doubles every path value exactly: an Exponential
# draw is its scale times a standard draw, and 1 / (rate / 2) is exactly
# 2 / rate, so the same generator draws twice the marks.  Multiplying by 2
# is exact in floats (no term here is near the subnormals), so every sum,
# added in the same order, doubles too.  Exp decay's stationary half-width
# follows the mark mean, so both stationary runs share one ``c``.
DOUBLED_MARKS = {
    "scaled_exp_decay": lambda rate: kn.ScaledExpDecay(dist.Exponential(rate), 0.7),
    "scaled_table": lambda rate: kn.ScaledTable(
        dist.Exponential(rate), kn.DeterministicTable((0.0, 1.0, 2.5), (2.0, -1.0, 0.0))
    ),
}


@pytest.mark.parametrize("case", sorted(DOUBLED_MARKS))
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=3, deadline=None)
def test_doubling_the_marks_doubles_the_run(case, seed):
    law, u, t, n, rate = dist.Gamma(2.0, 0.5), np.array([0.0, 0.5, 2.0]), 30.0, 1000, 1.3
    single, double = (
        pr.fdd_sample(law, DOUBLED_MARKS[case](r), "transient", u, n, seed=seed, t=t) for r in (rate, rate / 2.0)
    )
    assert np.count_nonzero(single.values) > 0
    assert double.values.tobytes() == (2.0 * single.values).tobytes()
    c = pr.stationary_half_width(law, DOUBLED_MARKS[case](rate), u, 1e-6)[0]
    single, double = (
        pr.eval_stationary(law, DOUBLED_MARKS[case](r), u, c, stream(seed), size=n) for r in (rate, rate / 2.0)
    )
    assert np.count_nonzero(single.values) > 0
    assert double.values.tobytes() == (2.0 * single.values).tobytes()
