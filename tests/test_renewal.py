import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_immigration import distributions as dist
from renewal_immigration import renewal as rn
from renewal_immigration.cli import main
from renewal_immigration.errors import LawError
from renewal_immigration.stats import ks_one_sample, ks_two_sample
from renewal_immigration.streams import stream

from oracles import chisq_gof_counts, replayed_increments_until, single_row_increments_until

LAWS = [
    dist.Exponential(1.0),
    dist.Gamma(2.0, 0.5),
    dist.Uniform(0.0, 2.0),
    dist.LogNormal(0.0, 0.5),
    dist.PointMass(2.0),
    dist.FiniteDiscrete(((1.0, 0.5), (3.0, 0.5))),
]


def split_rows(counts, points):
    """Each row's points, of ragged rows holding ``counts`` of the flat ``points`` each."""
    return np.split(points, np.cumsum(counts)[:-1])


def point(window, k):
    """A one-row window's point with canonical index ``k`` (t_{-1} < 0 <= t_0)."""
    return window.points[np.count_nonzero(window.points < 0.0) + k]


def test_forward_point_mass_grid():
    real = rn.simulate_forward(dist.PointMass(1.0), 5.5, stream(0), size=1)
    assert np.array_equal(real.epochs, np.arange(6.0))
    assert real.overshoot_epoch.tolist() == [6.0]
    assert real.counts.tolist() == [6]
    assert real.overshoot.tolist() == [0.5]


def test_forward_zero_horizon():
    real = rn.simulate_forward(dist.Exponential(1.0), 0.0, stream(1), size=1)
    assert np.array_equal(real.epochs, [0.0]) and real.counts.tolist() == [1]
    assert real.overshoot_epoch[0] > 0.0


def test_forward_rejects_negative_horizon():
    with pytest.raises(LawError):
        rn.simulate_forward(dist.Exponential(1.0), -1.0, stream(2), size=1)


def test_elementary_renewal_rate():
    real = rn.simulate_forward(dist.Exponential(1.0), 10**4, stream(3), size=1)
    assert abs(real.counts[0] / 10**4 - 1.0) < 0.03


def test_forward_epochs_strictly_increasing():
    for law in LAWS:
        real = rn.simulate_forward(law, 50.0, stream(4), size=1)
        epochs = real.epochs
        assert epochs[0] == 0.0
        assert np.all(np.diff(epochs) > 0.0)
        assert epochs[-1] <= 50.0 < real.overshoot_epoch[0]


BURSTY = dist.Gamma(0.1, 10.0)


def test_tied_points_are_kept_and_counted():
    # Gamma(0.1, 10) draws many increments below half an ulp of the running
    # sum, so points repeat: every row here has ties.
    mu, sd = _moments(BURSTY)
    real = rn.simulate_forward(BURSTY, 500.0, stream(40), size=50)
    for epochs, overshoot_epoch in zip(split_rows(real.counts, real.epochs), real.overshoot_epoch):
        assert np.any(np.diff(epochs) == 0.0) and np.all(np.diff(epochs) >= 0.0)
        assert epochs[0] == 0.0 and epochs[-1] <= 500.0 < overshoot_epoch
    # A one-row run holds every sum the scalar reference keeps, ties included.
    single = rn.simulate_forward(BURSTY, 500.0, stream(41), size=1)
    sums = single_row_increments_until(BURSTY, stream(41), 0.0, 500.0, mu, sd)
    assert np.any(np.diff(single.epochs) == 0.0)
    assert single.epochs.tobytes() == np.concatenate([[0.0], sums[:-1]]).tobytes()
    assert single.counts.tolist() == [len(sums)] and single.overshoot_epoch.tolist() == [sums[-1]]

    c = 200.0
    rows = rn.build_stationary_window(BURSTY, c, stream(42), size=50)
    inside = rows.count_in(-c, c)
    for pts, n_inside, xi0 in zip(split_rows(rows.counts, rows.points), inside, rows.xi0):
        assert np.any(np.diff(pts) == 0.0) and np.all(np.diff(pts) >= 0.0)
        z = np.count_nonzero(pts < 0.0)
        assert 0 < z < len(pts) and pts[z] - pts[z - 1] == xi0
        # One sentinel on each side, strictly outside [-c, c]; every point
        # between them, tied or not, is counted.
        assert np.count_nonzero(pts < -c) == 1 and np.count_nonzero(pts > c) == 1
        assert n_inside == len(pts) - 2
    window = rn.build_stationary_window(BURSTY, c, stream(43), size=1)
    assert window.counts.tolist() == [len(window.points)]
    assert np.any(np.diff(window.points) == 0.0)
    assert point(window, -1) < 0.0 <= point(window, 0)
    assert window.points[0] < -c < window.points[1] and window.points[-2] < c < window.points[-1]


def test_overshoot_matches_integrated_tail():
    overshoots = rn.simulate_forward(dist.Uniform(0.0, 1.0), 50.0, stream(5), size=2 * 10**4).overshoot
    res = ks_one_sample(overshoots, lambda x: dist.integrated_tail_cdf(dist.Uniform(0.0, 1.0), x))
    assert res.p_value > 0.01


def test_window_point_mass_exact_grid():
    window = rn.build_stationary_window(dist.PointMass(2.0), 3.0, stream(6), size=1)
    gaps = np.diff(window.points)
    assert np.allclose(gaps, 2.0, atol=1e-12)
    assert 0.0 <= point(window, 0) < 2.0
    assert window.points[0] < -3.0 and window.points[-1] > 3.0
    # The grid offset is the stationary delay: uniform on [0, 2).
    rows = rn.build_stationary_window(dist.PointMass(2.0), 3.0, stream(66), size=10**4)
    offsets = np.array([pts[pts >= 0.0][0] for pts in split_rows(rows.counts, rows.points)])
    res = ks_one_sample(offsets, lambda x: np.clip(np.asarray(x) / 2.0, 0.0, 1.0))
    assert res.p_value > 0.01


@pytest.mark.parametrize("law", LAWS, ids=lambda l: type(l).__name__)
def test_window_invariants(law):
    rng = stream(7)
    for _ in range(200):
        window = rn.build_stationary_window(law, 5.0, rng, size=1)
        # Index convention and the exact straddling-gap identity.
        assert point(window, -1) < 0.0 <= point(window, 0)
        assert point(window, 0) - point(window, -1) == window.xi0[0]
        assert window.points[0] < -5.0
        assert window.points[-1] > 5.0
        assert np.all(np.diff(window.points) > 0.0)


def test_window_intensity():
    n = 2 * 10**4
    counts = rn.build_stationary_window(dist.Gamma(2.0, 0.5), 6.0, stream(8), size=n).count_in(0.0, 5.0)
    expected = 5.0 / 1.0
    z = (counts.mean() - expected) / (counts.std(ddof=1) / math.sqrt(n))
    assert abs(z) < 4.0


def test_window_poisson_case():
    # With exponential increments the window is a homogeneous Poisson
    # process: counts on an interval are Poisson, and the first interior
    # gap is a fresh exponential.
    n = 2 * 10**4
    rows = rn.build_stationary_window(dist.Exponential(1.0), 6.0, stream(9), size=n)
    counts = rows.count_in(-3.0, 2.0)
    # The first interior gap is a fresh increment independent of the delay,
    # so skipping the rare windows without one (t_0 is their last point)
    # is unbiased.
    after_zero = [pts[pts >= 0.0] for pts in split_rows(rows.counts, rows.points)]
    first_gap = np.array([pts[1] - pts[0] for pts in after_zero if len(pts) > 1])
    from scipy.stats import poisson

    kmax = counts.max()
    probs = poisson.pmf(np.arange(kmax + 1), 5.0)
    probs[-1] += poisson.sf(kmax, 5.0)
    res = chisq_gof_counts(np.bincount(counts, minlength=kmax + 1), probs, min_expected=5.0)
    assert res.p_value > 0.01
    gap_res = ks_one_sample(first_gap, lambda x: -np.expm1(-np.asarray(x)))
    assert gap_res.p_value > 0.01


def test_shift_count_equidistribution():
    # Counts in [0, 1] from fresh windows vs independently shifted windows.
    rng = stream(12)
    n = 10**4
    base = rn.build_stationary_window(dist.Gamma(2.0, 0.5), 3.0, rng, size=n).count_in(0.0, 1.0)
    shifted = rn.build_stationary_window(dist.Gamma(2.0, 0.5), 3.0, rng, size=n).count_in(0.0, 1.0, shift=0.7)
    res = ks_two_sample(base, shifted)
    assert res.p_value > 0.01


def test_window_extension_preserves_points():
    sampler = rn.StationaryWindowSampler(dist.Exponential(1.0), stream(13), size=1)
    small = sampler.initial(4.0)
    big = sampler.extend(small, 16.0)
    assert big.c == 16.0 and big.counts.tolist() == [len(big.points)]
    inner = np.isin(small.points, big.points)
    assert inner.all()
    assert big.points[0] < -16.0 and big.points[-1] > 16.0
    assert point(big, 0) == point(small, 0)
    assert big.xi0 == small.xi0
    # Extending to a smaller or equal c is a no-op.
    assert sampler.extend(big, 10.0) is big


def test_window_csv_format(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "schema": 1, "seed": 14, "law": {"family": "point_mass", "value": 2.0},
        "kernel": {"kind": "deterministic_table", "breakpoints": [0.0], "values": [0.0]},
        "u_grid": [0.0], "n_replicates": 5, "c": 3.0,
    }))
    out = tmp_path / "out"
    assert main(["stationary", str(cfg), "--out-dir", str(out), "--dump-window"]) == 0
    lines = (out / "window.csv").read_text().strip().split("\n")
    assert lines[0] == "index,point"
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == sorted(ks)
    assert 0 in ks and -1 in ks
    pts = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(np.diff(pts), 2.0)
    # Index 0 is the first point >= 0.
    assert pts[ks.index(-1)] < 0.0 <= pts[ks.index(0)]


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_window_determinism(seed):
    a = rn.build_stationary_window(dist.Gamma(2.0, 0.5), 5.0, stream(seed), size=1)
    b = rn.build_stationary_window(dist.Gamma(2.0, 0.5), 5.0, stream(seed), size=1)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.counts, b.counts) and a.xi0 == b.xi0 and a.u == b.u


def test_count_in_closed_interval():
    rows = rn.build_stationary_window(dist.PointMass(1.0), 3.0, stream(15), size=1)
    p0 = point(rows, 0)
    assert rows.count_in(p0, p0).tolist() == [1]
    assert rows.count_in(p0 + 1e-12, p0 + 0.5).tolist() == [0]


@pytest.mark.parametrize("shift", [0.0, 0.7, -1.3])
def test_row_counts_equal_single_window_counts(shift):
    # Each row counts as its points alone would, one at a time.
    rows = rn.build_stationary_window(dist.Gamma(2.0, 0.5), 4.0, stream(16), size=30)
    counts = rows.count_in(-1.0, 2.0, shift=shift)
    for pts, count in zip(split_rows(rows.counts, rows.points), counts):
        assert count == sum(-1.0 <= p - shift <= 2.0 for p in pts.tolist())


# ------------------------------------------------------- batched builders


def _moments(law):
    mu = law.mean()
    return mu, math.sqrt(max(law.second_moment() - mu**2, 0.0))


class _RecordedSample:
    """Stands in for a law inside the increment helper and records every ``sample`` size."""

    def __init__(self, law):
        self.law = law
        self.sizes = []

    def sample(self, rng, size):
        self.sizes.append(size)
        return self.law.sample(rng, size=size)


# (start, target, factor on the mean handed to the helper): a typical run,
# a start already past the target, and a mean overstated twentyfold so the
# first round falls short and top-up rounds follow.
INCREMENT_CASES = {"typical": (0.3, 20.0, 1.0), "start_above": (5.0, 2.0, 1.0), "top_up": (0.0, 50.0, 20.0)}


@pytest.mark.parametrize("case", sorted(INCREMENT_CASES))
@pytest.mark.parametrize("law", LAWS, ids=lambda l: type(l).__name__)
def test_row_wise_increments_match_single_row_oracle(law, case):
    start, target, factor = INCREMENT_CASES[case]
    mu, sd = _moments(law)
    rng_row, rng_oracle = stream(30), stream(30)
    recorded = _RecordedSample(law)
    counts, values = rn._ragged([(rn._draw_rounds(recorded, rng_row, [start], target, factor * mu, sd), False)])
    expected = single_row_increments_until(law, rng_oracle, start, target, factor * mu, sd)
    assert len(values) == 1 + len(expected) and counts.tolist() == [1 + len(expected)]
    assert values[0] == start
    assert values[1:].tobytes() == expected.tobytes()
    assert rng_row.bit_generator.state == rng_oracle.bit_generator.state
    if case == "top_up":
        assert len(recorded.sizes) > 1


def test_row_wise_increments_pad_each_row_after_its_overshooter():
    law = dist.Exponential(1.0)
    starts = [0.0, 3.0, 12.0, 9.5]
    # The mean is overstated, so top-up rounds follow.
    counts, values = rn._ragged([(rn._draw_rounds(law, stream(31), starts, 10.0, 2.0, 1.0), False)])
    # Ragged rows hold no padding: each row ends at its overshooter.
    assert len(counts) == len(starts) and counts.sum() == len(values) and np.all(np.isfinite(values))
    for start, row in zip(starts, split_rows(counts, values)):
        assert row[0] == start
        if start > 10.0:
            assert len(row) == 1
            continue
        assert np.all(row[:-1] <= 10.0) and row[-1] > 10.0
        assert np.all(np.diff(row) > 0.0)


def test_batched_rows_equal_replayed_rounds():
    # Rows start at different distances from the target, so they finish in
    # different rounds; each row must equal its replayed single-row build.
    law = dist.LogNormal(0.0, 1.0)
    mu, sd = _moments(law)
    starts = np.array([0.0, 2.5, 7.9, 11.0, 0.4, 9.99, 5.0])
    rng_rows, rng_oracle = stream(32), stream(32)
    recorded = _RecordedSample(law)
    counts, values = rn._ragged([(rn._draw_rounds(recorded, rng_rows, starts, 10.0, mu, sd), False)])
    expected = replayed_increments_until(law, rng_oracle, starts, 10.0, mu, sd)
    assert len(recorded.sizes) > 2
    assert len(counts) == len(starts) and counts.sum() == len(values)
    for row, count, start, want in zip(split_rows(counts, values), counts, starts, expected):
        assert count == 1 + len(want) and row[0] == start
        assert row[1:].tobytes() == want.tobytes()
    assert rng_rows.bit_generator.state == rng_oracle.bit_generator.state


# The three row shapes of a ``pointprocess`` run at its defaults, at 10^4
# rows in ``row_blocks``: forward runs to 50 means (overshoot and Laplace
# checks), windows at 6 means (intensity and shift checks) and windows at
# 1 mean (Laplace check).
DRAW_SHAPES = {"forward_50_means": 50.0, "window_6_means": 6.0, "window_1_mean": 1.0}
MAX_DRAWN_PER_KEPT = 1.4
MAX_ROUNDS_PER_CALL = 12


@pytest.mark.parametrize("shape", sorted(DRAW_SHAPES))
@pytest.mark.parametrize("law", [dist.LogNormal(0.0, 1.0), dist.Exponential(1.0)], ids=lambda l: type(l).__name__)
def test_increments_drawn_stay_close_to_the_sums_kept(monkeypatch, law, shape):
    calls = []
    real = rn._draw_rounds

    def recorded(law, rng, starts, target, mu, sd):
        rec = _RecordedSample(law)
        draw = real(rec, rng, starts, target, mu, sd)
        # A row keeps its sums <= target and its first one past: as many
        # as its values <= target, its start included.
        calls.append((rec.sizes, int(draw[1].sum())))
        return draw

    monkeypatch.setattr(rn, "_draw_rounds", recorded)
    span, rng = DRAW_SHAPES[shape] * law.mean(), stream(51)
    if shape.startswith("forward"):
        for lo, hi in rn.row_blocks(10**4, law, span):
            rn.simulate_forward(law, span, rng, size=hi - lo)
    else:
        for lo, hi in rn.row_blocks(10**4, law, 2.0 * span):
            rn.build_stationary_window(law, span, rng, size=hi - lo)
    drawn = sum(rows * n for sizes, _ in calls for rows, n in sizes)
    kept = sum(k for _, k in calls)
    assert drawn <= MAX_DRAWN_PER_KEPT * kept
    assert max(len(sizes) for sizes, _ in calls) <= MAX_ROUNDS_PER_CALL


def test_bursty_windows_hold_their_points_not_rows_times_the_longest_row():
    # Gamma(0.02, 50) windows at c = the mean hold about 4 points a row, but
    # their rows need up to dozens of rounds, so a matrix of rows x the
    # longest row is mostly padding.  The bound counts the arrays of ragged
    # rounds.  Every start is >= 0, so no round is wider than n, and a half
    # row draws at most n - 1 sums past its end: at most P + 2 k (n - 1)
    # sums for P points in k rows.
    law = dist.Gamma(0.02, 50.0)
    k, c = 10**4, law.mean()
    n = rn._round_width(c, *_moments(law))
    tracemalloc.start()
    try:
        window = rn.build_stationary_window(law, c, stream(37), size=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = len(window.points)
    drawn = points + 2 * k * (n - 1)
    bound = (
        9 * drawn  # each sum drawn: 8 bytes and its 1-byte mask, every round held until placed
        + 9 * k * n  # one round's passing arrays: its positions and its mask with the ends
        + 24 * points  # the output, and one round's positions and values its mask takes
        + 160 * k  # per-row vectors: delays, counts, ends, origins
    )
    assert points < 5 * k
    assert peak < bound


def assert_window_rows(rows, c):
    assert len(rows.counts) == len(rows.xi0) == len(rows.u)
    assert rows.counts.sum() == len(rows.points) and np.all(np.isfinite(rows.points))
    for pts, xi0 in zip(split_rows(rows.counts, rows.points), rows.xi0):
        assert np.all(np.diff(pts) > 0.0)
        assert np.count_nonzero(pts < -c) == 1 and pts[0] < -c
        assert np.count_nonzero(pts > c) == 1 and pts[-1] > c
        z = np.count_nonzero(pts < 0.0)
        assert 0 < z < len(pts) and pts[z] - pts[z - 1] == xi0


def assert_forward_rows(real, horizon):
    assert real.counts.sum() == len(real.epochs)
    for epochs, overshoot_epoch in zip(split_rows(real.counts, real.epochs), real.overshoot_epoch):
        assert epochs[0] == 0.0 and np.all(epochs <= horizon)
        assert np.all(np.diff(epochs) > 0.0)
        assert overshoot_epoch > horizon and overshoot_epoch > epochs[-1]


@given(
    law=st.sampled_from(LAWS),
    c=st.floats(min_value=0.05, max_value=40.0),
    horizon=st.floats(min_value=0.0, max_value=40.0),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=120, deadline=None)
def test_batched_rows_keep_the_single_row_invariants(law, c, horizon, k, seed):
    rows = rn.build_stationary_window(law, c, stream(seed), size=k)
    assert len(rows.counts) == k and rows.c == c
    assert_window_rows(rows, c)
    real = rn.simulate_forward(law, horizon, stream(seed), size=k)
    assert len(real.counts) == k and real.overshoot_epoch.shape == (k,)
    assert_forward_rows(real, horizon)
    assert np.array_equal(real.overshoot, real.overshoot_epoch - horizon)


# (horizon, c): rows of many rounds, and rows so short that every
# LogNormal(0, 1) window half starts past c and draws no round.
RAGGED_SPANS = [(20.0, 10.0), (0.3, 0.05)]


@pytest.mark.parametrize("law", [BURSTY, dist.LogNormal(0.0, 1.0)], ids=lambda l: type(l).__name__)
def test_ragged_rows_are_the_replayed_rows_in_row_major_order(law):
    # Row i is the next counts[i] points of the flat array, exactly the
    # points that replaying the rounds builds for it alone.
    mu, sd = _moments(law)
    k = 30
    for horizon, c in RAGGED_SPANS:
        real = rn.simulate_forward(law, horizon, stream(35), size=k)
        runs = replayed_increments_until(law, stream(35), np.zeros(k), horizon, mu, sd)
        assert real.counts.tolist() == [len(run) for run in runs]
        assert real.epochs.tobytes() == np.concatenate([np.append(0.0, run[:-1]) for run in runs]).tobytes()
        assert real.overshoot_epoch.tobytes() == np.array([run[-1] for run in runs]).tobytes()

        window = rn.build_stationary_window(law, c, stream(36), size=k)
        rng = stream(36)
        s0, xi0, _ = dist.sample_stationary_delay(law, rng, size=k)
        s_minus1 = s0 - xi0
        fwd = replayed_increments_until(law, rng, s0, c, mu, sd)
        bwd = replayed_increments_until(law, rng, -s_minus1, c, mu, sd)
        rows = [np.concatenate([-b[::-1], [lo, hi], f]) for b, lo, hi, f in zip(bwd, s_minus1, s0, fwd)]
        assert window.counts.tolist() == [len(row) for row in rows]
        if c > 1.0:
            assert window.counts.min() < window.counts.max()
        else:
            # A row whose halves both start past c holds its two starts alone.
            assert window.counts.min() == 2
        assert window.points.tobytes() == np.concatenate(rows).tobytes()


def test_batched_rows_draw_from_the_generator_without_spawning():
    rng = stream(32)
    rn.build_stationary_window(dist.Gamma(2.0, 0.5), 5.0, rng, size=4)
    rn.simulate_forward(dist.Gamma(2.0, 0.5), 5.0, rng, size=4)
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    rn.build_stationary_window(dist.Gamma(2.0, 0.5), 5.0, rng, size=1)
    assert rng.bit_generator.seed_seq.n_children_spawned == 0


def test_batched_forward_rows_equal_single_runs_without_top_up():
    # Every row finishes in its first round here (the count to 30 has a
    # spread of about 0.3 draws), so row i consumes the same draws as the
    # i-th single run.
    law = dist.Uniform(0.9, 1.1)
    recorded = _RecordedSample(law)
    mu, sd = _moments(law)
    rn._draw_rounds(recorded, stream(33), np.zeros(5), 30.0, mu, sd)
    assert len(recorded.sizes) == 1
    batch = rn.simulate_forward(law, 30.0, stream(33), size=5)
    rng = stream(33)
    for epochs, overshoot_epoch in zip(split_rows(batch.counts, batch.epochs), batch.overshoot_epoch):
        single = rn.simulate_forward(law, 30.0, rng, size=1)
        assert epochs.tobytes() == single.epochs.tobytes()
        assert overshoot_epoch == single.overshoot_epoch[0]


def test_batched_builders_reject_bad_arguments():
    with pytest.raises(LawError):
        rn.build_stationary_window(dist.Exponential(1.0), 0.0, stream(34), size=3)
    with pytest.raises(LawError):
        rn.simulate_forward(dist.Exponential(1.0), -1.0, stream(34), size=3)
    with pytest.raises(LawError):
        rn.simulate_forward(dist.Pareto(2.0, 1.0), 1.0, stream(34), size=3)
    # The window sampler checks the law before its first draw.
    rng = stream(34)
    before = rng.bit_generator.state
    with pytest.raises(LawError):
        rn.build_stationary_window(dist.Pareto(2.0, 1.0), 1.0, rng, size=3)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("build", [rn.build_stationary_window, rn.simulate_forward], ids=lambda f: f.__name__)
def test_each_builder_call_checks_its_law_once(build, monkeypatch):
    law, checked, inner = dist.Gamma(2.0, 0.5), [], dist.check_interarrival

    def check_interarrival(law):
        checked.append(law)
        return inner(law)

    # Windows reach the check through distributions, forward runs through renewal.
    for module in (dist, rn):
        monkeypatch.setattr(module, "check_interarrival", check_interarrival)
    build(law, 5.0, stream(35), size=4)
    assert checked == [law]
