import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import chdtrc
from scipy.special import kolmogorov as scipy_kolmogorov

from renewal_immigration import stats as rs
from renewal_immigration.streams import stream

from oracles import brute_force_energy, brute_force_ks, chisq_gof_counts, dense_energy_permutation


def test_ks_two_sample_trivia():
    assert rs.ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).statistic == 0.0
    assert rs.ks_two_sample([1.0, 2.0], [5.0, 6.0, 7.0]).statistic == 1.0


def test_ks_two_sample_enumerated_example():
    res = rs.ks_two_sample([1.0, 2.0, 3.0], [1.5, 2.5])
    assert res.statistic == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.statistic == pytest.approx(brute_force_ks([1, 2, 3], [1.5, 2.5]), abs=1e-15)


def test_ks_two_sample_symmetric():
    rng = stream(0)
    a, b = rng.normal(size=40), rng.normal(size=25)
    assert rs.ks_two_sample(a, b).statistic == rs.ks_two_sample(b, a).statistic
    assert rs.ks_two_sample(a, b).p_value == rs.ks_two_sample(b, a).p_value


def test_ks_two_sample_matches_brute_force_on_random_instances():
    rng = stream(1)
    for _ in range(100):
        n, m = rng.integers(1, 21, size=2)
        # Mix continuous values and ties.
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(size=m), 1)
        assert rs.ks_two_sample(a, b).statistic == pytest.approx(brute_force_ks(a, b), abs=1e-14)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_ks_rank_invariance(seed):
    rng = stream(seed)
    a = rng.normal(size=30)
    b = rng.normal(size=20) + 0.3
    base = rs.ks_two_sample(a, b).statistic
    mapped = rs.ks_two_sample(np.expm1(a), np.expm1(b)).statistic
    assert base == pytest.approx(mapped, abs=1e-14)


def test_ks_one_sample_examples():
    res = rs.ks_one_sample([0.0], lambda x: np.full_like(np.asarray(x, dtype=float), 0.5))
    assert res.statistic == 0.5
    n = 10
    samples = np.arange(1, n + 1) / n
    res = rs.ks_one_sample(samples, lambda x: np.asarray(x, dtype=float))
    assert res.statistic == pytest.approx(1.0 / n, abs=1e-15)


def test_ks_one_sample_rejects_flat_zero_cdf():
    with pytest.raises(ValueError):
        rs.ks_one_sample([1.0, 2.0], lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def test_ks_one_sample_rejects_decreasing_cdf():
    with pytest.raises(ValueError):
        rs.ks_one_sample([1.0, 2.0], lambda x: 1.0 - np.asarray(x, dtype=float) / 10.0)
    # So is a CDF that does not return one value per sample point.
    with pytest.raises(ValueError, match="one value per sample point"):
        rs.ks_one_sample([1.0, 2.0], lambda x: 0.5)


def test_kolmogorov_sf_matches_scipy():
    for x in [0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0]:
        assert rs.kolmogorov_sf(x) == pytest.approx(float(scipy_kolmogorov(x)), abs=1e-12)


@pytest.mark.parametrize("df", [*range(1, 41), 99, 100, 1000])
def test_chi2_sf_matches_chdtrc(df):
    # Relative error bounds fixed in advance: 1e-13 up to df = 100, 1e-12 beyond.
    rtol = 1e-13 if df <= 100 else 1e-12
    sd = math.sqrt(2.0 * df)
    xs = np.concatenate([np.geomspace(1e-4, 400.0, 400), np.linspace(df - 6.0 * sd, df + 6.0 * sd, 201)])
    xs = xs[xs > 0]
    ours = np.array([rs.chi2_sf(df, x) for x in xs])
    ref = chdtrc(df, xs)
    assert np.all(np.abs(ours - ref) <= rtol * ref)
    assert rs.chi2_sf(df, 0.0) == 1.0 and rs.chi2_sf(df, -1.0) == 1.0
    assert rs.chi2_sf(df, math.inf) == 0.0
    assert math.isnan(rs.chi2_sf(df, math.nan))


def test_chi2_sf_past_exp_underflow():
    # e^{-x/2} is 0.0 in float64 beyond x = 1490; the log-space terms are not.
    for df in (1999, 2000):
        xs = np.linspace(1500.0, 2600.0, 111)
        ours = np.array([rs.chi2_sf(df, x) for x in xs])
        ref = chdtrc(df, xs)
        assert np.all(np.abs(ours - ref) <= 1e-11 * ref)


@pytest.mark.parametrize("df", [0, -1, 2.5, 3.0, "3", None])
def test_chi2_sf_rejects_bad_df(df):
    with pytest.raises(ValueError):
        rs.chi2_sf(df, 1.0)


def test_energy_distance_trivia():
    rng = stream(2)
    a = rng.normal(size=(20, 2))
    res = rs.energy_distance(a, a.copy(), 30, stream(3))
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    zeros = np.zeros((15, 1))
    ones = np.ones((15, 1))
    res = rs.energy_distance(zeros, ones, 30, stream(4))
    assert res.statistic == pytest.approx(2.0, abs=1e-12)
    assert res.p_value >= 1.0 / 31.0


def test_energy_distance_matches_brute_force():
    rng = stream(5)
    for _ in range(10):
        a = rng.normal(size=(rng.integers(3, 12), 3))
        b = rng.normal(size=(rng.integers(3, 12), 3)) + 0.5
        res = rs.energy_distance(a, b, 19, stream(6))
        assert res.statistic == pytest.approx(brute_force_energy(a, b), rel=1e-10)
    # Integer rows with ties.
    for _ in range(10):
        a = rng.poisson(1.0, size=(rng.integers(3, 12), 2))
        b = rng.poisson(1.5, size=(rng.integers(3, 12), 2))
        res = rs.energy_distance(a, b, 19, stream(6))
        assert res.statistic == pytest.approx(brute_force_energy(a, b), rel=1e-10)


def _poisson_rows(rng, n):
    return rng.poisson(1.0, size=(n, 3))


def _normal_rows(rng, n):
    return rng.normal(size=(n, 3))


def _tile_widths(monkeypatch, distance_tile=None):
    # Records the labellings of each tile drawn; a small DISTANCE_TILE makes
    # "count" and streamed tiles k labellings wide, so small samples span
    # several.
    if distance_tile is not None:
        monkeypatch.setattr(rs, "DISTANCE_TILE", distance_tile)
    widths = []
    count_tiles = rs._count_tiles

    def recording(*args):
        for lo, tile in count_tiles(*args):
            widths.append(tile.shape[1])
            yield lo, tile

    monkeypatch.setattr(rs, "_count_tiles", recording)
    return widths


def _drawn(labellings, width, n_permutations):
    # The tiles of `width` up to the one holding the last labelling run.
    total = n_permutations + 1
    return [min(width, total - lo) for lo in range(0, labellings + 1, width)]


@pytest.mark.parametrize("draw", [_poisson_rows, _normal_rows])
@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_energy_distance_matches_dense_label_loop(draw, shift, monkeypatch):
    # Same generator stream, same drawn label counts: equal sequential
    # p-values and labellings run, and a statistic equal up to float64
    # summation order.  The Poisson rows (k < n, "marginals") take the 100
    # labellings in tiles of 32 over one resident distance block; the 500
    # distinct continuous rows ("count") take them in one tile of at most
    # k.  Without a shift the tests stop early, and no tile past the
    # stopping labelling is drawn; the shifted ones reject, run all 99 and
    # leave the stream where the oracle's one call leaves it.
    data = stream(11)
    a = draw(data, 300)
    b = draw(data, 200) + shift
    widths = _tile_widths(monkeypatch, 2**10)
    ours, ref = stream(12), stream(12)
    res = rs.energy_distance(a, b, 99, ours)
    statistic, p_value, labellings = dense_energy_permutation(a, b, 99, rs.EXCEEDANCES, ref)
    k = len(np.unique(np.vstack([a, b]), axis=0))
    assert widths == _drawn(labellings, rs.RESIDENT_TILE if k < len(a) else k, 99)
    assert (res.p_value, res.labellings) == (p_value, labellings)
    assert res.statistic == pytest.approx(statistic, rel=1e-10)
    assert (labellings == 99) == (shift > 0)
    if shift:
        assert ours.bit_generator.state == ref.bit_generator.state


def test_energy_distance_validation():
    rng = stream(7)
    with pytest.raises(ValueError):
        rs.energy_distance(np.zeros((5, 2)), np.zeros((5, 3)), 30, rng)
    with pytest.raises(ValueError):
        rs.energy_distance(np.zeros((5, 2)), np.zeros((5, 2)), 5, rng)
    for a, b in [(np.zeros((0, 2)), np.zeros((5, 2))), (np.zeros((5, 2)), np.zeros((0, 2))), (np.zeros((0, 2)),) * 2]:
        with pytest.raises(ValueError, match="nonempty"):
            rs.energy_distance(a, b, 19, rng)


def test_energy_distance_subsamples_beyond_cap(monkeypatch):
    monkeypatch.setattr(rs, "ENERGY_EXACT_ROWS", 100)
    rng = stream(8)
    a = rng.normal(size=(80, 1))
    b = rng.normal(size=(80, 1))
    res = rs.energy_distance(a, b, 19, stream(9))
    assert "subsampled" in res.note
    assert res.n + res.m == 100


def test_energy_distance_cap_counts_distinct_rows(monkeypatch):
    monkeypatch.setattr(rs, "ENERGY_EXACT_ROWS", 100)
    rng = stream(8)
    a = rng.integers(0, 3, size=(100, 2))
    b = rng.integers(0, 3, size=(100, 2))
    res = rs.energy_distance(a, b, 19, stream(9))
    assert res.note == ""
    assert res.n + res.m == 200


def _distances(a, b):
    return rs._euclidean_into(np.empty((len(a), len(b))), a, b)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("cols", range(1, 9))
def test_distances_equal_cdist_bit_for_bit(cols, scale):
    rng = stream(13, cols)
    a = rng.exponential(size=(70, cols)) * scale
    b = rng.exponential(size=(90, cols)) * scale
    assert _distances(a, b).tobytes() == cdist(a, b).tobytes()


def test_distances_equal_cdist_on_signed_integer_and_single_rows():
    rng = stream(14)
    signed = rng.normal(size=(60, 5)), rng.normal(size=(40, 5))
    integer = [rng.integers(-4, 5, size=(n, 3)).astype(float) for n in (50, 30)]
    single = rng.normal(size=(1, 4))
    for a, b in [signed, integer, (single, single), (np.zeros((3, 0)), np.zeros((2, 0)))]:
        assert _distances(a, b).tobytes() == cdist(a, b).tobytes()


@pytest.mark.parametrize("tile", [1, 24, 40])
def test_distances_over_several_tiles_equal_cdist(monkeypatch, tile):
    # 12 columns of out: 1, 2 and 3 rows per tile; the 11 rows of a end in a
    # ragged tile at 2 and 3.
    monkeypatch.setattr(rs, "DISTANCE_TILE", tile)
    rng = stream(15)
    a, b = rng.normal(size=(11, 6)) * 1e3, rng.normal(size=(12, 6)) * 1e3
    assert _distances(a, b).tobytes() == cdist(a, b).tobytes()


@pytest.mark.parametrize("draw", [_poisson_rows, _normal_rows])
def test_energy_distance_over_several_blocks(monkeypatch, draw):
    # One distance buffer refilled block by block, the last block ragged,
    # gives the statistic and p-value of one block of all k rows.  Streamed
    # tiles hold max(k, 2^10 // k) labellings; over the resident block, the
    # Poisson rows' "marginals" tiles hold 32.
    data = stream(16)
    a, b = draw(data, 40), draw(data, 30) + 0.2
    widths = _tile_widths(monkeypatch, 2**10)
    one = rs.energy_distance(a, b, 99, stream(17))
    k = len(np.unique(np.vstack([a, b]), axis=0))
    assert k % 3  # 3-row blocks leave a ragged last block
    monkeypatch.setattr(rs, "ENERGY_BLOCK_ENTRIES", 3 * k)
    several = rs.energy_distance(a, b, 99, stream(17))
    streamed = max(k, 2**10 // k)
    resident = rs.RESIDENT_TILE if k < len(a) else streamed
    assert widths == _drawn(one.labellings, resident, 99) + _drawn(several.labellings, streamed, 99)
    assert streamed < 100
    assert several.p_value == one.p_value
    assert several.statistic == pytest.approx(one.statistic, rel=1e-12)


@pytest.mark.parametrize("resident_tile", [1, None])
def test_energy_distance_on_one_distinct_row(monkeypatch, resident_tile):
    # k = 1: every statistic is 0 and reaches the observed one, so the test
    # stops at labelling 10, whether every labelling is its own tile or, by
    # default, one tile holds RESIDENT_TILE of them.
    rows = np.full((40, 2), 3.0)
    if resident_tile is not None:
        monkeypatch.setattr(rs, "RESIDENT_TILE", resident_tile)
    widths = _tile_widths(monkeypatch)
    res = rs.energy_distance(rows[:25], rows[25:], 99, stream(23))
    assert widths == ([1] * 11 if resident_tile else [rs.RESIDENT_TILE])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_energy_tiles_with_count_method_match_dense_label_loop(monkeypatch):
    # 60 distinct continuous rows against n = 30 draws with numpy's "count"
    # method; 200 labellings make tiles of 60, 60, 60 and 20, in one block
    # and over 3-row blocks alike.  "count" draws depend on how many one
    # call makes, so the oracle draws 60 per call too; the test stops in the
    # third tile, and no fourth is drawn.
    data = stream(24)
    a, b = data.normal(size=(30, 2)), data.normal(size=(30, 2)) + 0.5
    widths = _tile_widths(monkeypatch, 2**10)
    statistic, p_value, labellings = dense_energy_permutation(a, b, 199, rs.EXCEEDANCES, stream(25), width=60)
    assert 120 < labellings < 180
    for entries in (rs.ENERGY_BLOCK_ENTRIES, 3 * 60):
        monkeypatch.setattr(rs, "ENERGY_BLOCK_ENTRIES", entries)
        res = rs.energy_distance(a, b, 199, stream(25))
        assert (res.p_value, res.labellings) == (p_value, labellings)
        assert res.statistic == pytest.approx(statistic, rel=1e-10)
    assert widths == [60, 60, 60] * 2


@pytest.mark.parametrize("width", [1, 7, rs.RESIDENT_TILE, 219, 3000])
def test_marginals_draws_split_at_tile_widths_equal_one_call(width):
    # The energy statistic, and every p-value of a test that runs all its
    # labellings, keep their bytes across tile widths only because numpy's
    # "marginals" method draws the same label counts in tile-sized calls as
    # in one call, and leaves the stream where that call leaves it.
    w = np.bincount(stream(45).integers(0, 149, size=6000), minlength=149)
    observed = np.bincount(stream(45, 1).integers(0, 149, size=3000), minlength=149)
    one_call = stream(46)
    drawn = one_call.multivariate_hypergeometric(w, 3000, size=2999, method="marginals")
    tiled = stream(46)
    tiles = [tile for _, tile in rs._count_tiles(observed, w, 2999, tiled, width, "marginals")]
    counts = np.hstack(tiles)
    assert [tile.shape[1] for tile in tiles[:-1]] == [width] * (len(tiles) - 1)
    assert counts[:, 0].tobytes() == observed.astype(float).tobytes()
    assert counts[:, 1:].T.tobytes() == drawn.astype(float).tobytes()
    assert tiled.bit_generator.state == one_call.bit_generator.state


def test_energy_distance_runs_every_labelling_when_it_rejects(monkeypatch):
    # Samples one apart in every coordinate: no permuted labelling reaches
    # the observed statistic, so all 999 labellings run, over 32 tiles of
    # the resident block, and p = 1/(P+1).
    data = stream(47)
    a, b = data.poisson(1.0, size=(300, 3)), data.poisson(1.0, size=(200, 3)) + 1.0
    widths = _tile_widths(monkeypatch)
    res = rs.energy_distance(a, b, 999, stream(48))
    assert widths == [rs.RESIDENT_TILE] * 31 + [8]
    assert (res.p_value, res.labellings) == (1 / 1000, 999)


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: rng.poisson(1.0, size=(500, 3)).astype(float),
        lambda rng: rng.normal(size=(300, 4)),
        lambda rng: np.repeat(rng.normal(size=(40, 2)), 7, axis=0)[rng.permutation(280)],
        lambda rng: rng.integers(-3, 4, size=(1, 5)).astype(float),
        lambda rng: np.zeros((6, 0)),
    ],
    ids=["integer", "continuous", "duplicated", "single", "no-columns"],
)
def test_distinct_rows_equal_numpy_unique(draw):
    z = draw(stream(26))
    rows, inv = rs._distinct_rows(z)
    expected, expected_inv = np.unique(z, axis=0, return_inverse=True)
    assert rows.tobytes() == expected.tobytes() and rows.shape == expected.shape
    assert inv.tobytes() == expected_inv.reshape(-1).astype(np.intp).tobytes()


def test_distinct_rows_merge_signed_zeros_as_numpy_unique():
    # np.unique keeps whichever sign of a zero its unstable sort puts first;
    # the lexsort keeps the first occurrence.  Rows, inverse and distances
    # agree all the same.
    rng = stream(27)
    z = rng.integers(-1, 2, size=(400, 2)).astype(float)
    z[rng.random(z.shape) < 0.5] *= -1.0
    rows, inv = rs._distinct_rows(z)
    expected, expected_inv = np.unique(z, axis=0, return_inverse=True)
    assert np.array_equal(rows, expected)
    assert np.array_equal(inv, expected_inv.reshape(-1))
    assert rows.tobytes() == z[np.unique(inv, return_index=True)[1]].tobytes()
    assert _distances(rows, rows).tobytes() == _distances(expected, expected).tobytes()


@pytest.mark.parametrize("several_blocks", [False, True], ids=["tiles", "several-blocks"])
def test_energy_distance_allocates_little_beyond_the_draws(monkeypatch, several_blocks):
    # About 200 distinct integer rows, samples one apart so that all 2999
    # labellings run, in one distance block or in several.  Each tile's
    # label draws are made as the tile is formed, so the call never holds an
    # array of k * P entries.
    data = stream(41)
    a, b = data.poisson(1.0, size=(3000, 3)), data.poisson(1.0, size=(3000, 3)) + 1.0
    k = len(np.unique(np.vstack([a, b]), axis=0))
    n_permutations = 2999
    if several_blocks:
        monkeypatch.setattr(rs, "ENERGY_BLOCK_ENTRIES", k * k - 1)
    widths = _tile_widths(monkeypatch)
    tracemalloc.start()
    try:
        res = rs.energy_distance(a, b, n_permutations, stream(42))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.labellings == n_permutations
    width = max(k, rs.DISTANCE_TILE // k) if several_blocks else rs.RESIDENT_TILE
    assert widths == _drawn(n_permutations, width, n_permutations) and width < n_permutations
    assert peak < k * n_permutations * 8


def test_resident_energy_test_holds_its_block_and_tiles_of_32():
    # The rows above, as floats so that no input is copied.  A resident test
    # holds its distance block, filled one distance tile at a time; once the
    # block is full, the tile is freed and the labellings need two float tiles of
    # RESIDENT_TILE labellings (counts and distance-weighted counts, or the
    # last tile and the next) and one tile's integer draws.  64 KiB covers
    # the rest: the distinct rows, their counts and the result.
    data = stream(41)
    a = data.poisson(1.0, size=(3000, 3)).astype(float)
    b = data.poisson(1.0, size=(3000, 3)) + 1.0
    k = len(np.unique(np.vstack([a, b]), axis=0))
    block = 8 * k * k
    filling = 8 * min(rs.DISTANCE_TILE // k, k) * k
    labellings = 3 * 8 * rs.RESIDENT_TILE * k
    tracemalloc.start()
    try:
        res = rs.energy_distance(a, b, 2999, stream(42))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.labellings == 2999 and k * k <= rs.ENERGY_BLOCK_ENTRIES
    assert peak < block + max(filling, labellings) + 64 * 1024


def test_distance_fill_holds_its_block_and_one_tile():
    # The 202 distinct rows above.  Filling their block holds the block, one
    # distance tile and the rows' column copies, with no ufunc buffers (two
    # of np.getbufsize() doubles per broadcast subtract).  64 KiB covers the
    # column copies and the loop's views.
    data = stream(41)
    a = data.poisson(1.0, size=(3000, 3)).astype(float)
    b = data.poisson(1.0, size=(3000, 3)) + 1.0
    uniq = rs._distinct_rows(np.vstack([a, b]))[0]
    k = len(uniq)
    dist = rs._euclidean_into(np.empty((k, k)), uniq, uniq)
    assert k == 202 and dist.tobytes() == cdist(uniq, uniq).tobytes()
    tracemalloc.start()
    try:
        rs._euclidean_into(np.empty((k, k)), uniq, uniq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * k * k + 8 * rs.DISTANCE_TILE + 64 * 1024


@pytest.mark.parametrize("case", ["marginals", "count", "streamed"])
def test_resident_energy_test_fills_its_block_once(monkeypatch, case):
    # Rejecting tests that run all 999 labellings over several tiles.  One
    # block of all k rows is filled once, whichever hypergeometric method
    # draws the labellings ("count" for continuous rows, k >= n); blocks of
    # 3 rows are filled again for every tile.
    data = stream(47)
    if case == "count":
        a, b = data.normal(size=(100, 3)), data.normal(size=(100, 3)) + 1.0
    else:
        a, b = data.poisson(1.0, size=(300, 3)), data.poisson(1.0, size=(200, 3)) + 1.0
    k = len(np.unique(np.vstack([a, b]), axis=0))
    if case == "streamed":
        monkeypatch.setattr(rs, "ENERGY_BLOCK_ENTRIES", 3 * k)
    fills = []
    fill = rs._euclidean_into

    def counting(out, x, y):
        fills.append(out.shape)
        return fill(out, x, y)

    monkeypatch.setattr(rs, "_euclidean_into", counting)
    widths = _tile_widths(monkeypatch)
    res = rs.energy_distance(a, b, 999, stream(48))
    assert (res.p_value, res.labellings) == (1 / 1000, 999) and len(widths) > 1
    if case == "streamed":
        assert len(fills) == len(widths) * -(-k // 3)
    else:
        assert fills == [(k, k)]


_THREADS_SCRIPT = """\
import json
from dataclasses import asdict
from renewal_immigration.stats import energy_distance
from renewal_immigration.streams import stream
data = stream(51)
a = data.normal(size=(600, 3))
b = data.normal(size=(600, 3)) + 0.05
print(json.dumps(asdict(energy_distance(a, b, 199, stream(52)))))
"""


def test_energy_bytes_do_not_depend_on_the_blas_thread_count():
    # k = 1200 distinct rows: a distance matrix large enough for OpenBLAS to
    # split its products over threads, which changes their rounding.  Each
    # fresh interpreter imports the package before numpy, as every entry
    # point does.
    src = str(Path(rs.__file__).parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT], capture_output=True, text=True, env=env, timeout=120, check=True
        )
        results.append(json.loads(run.stdout))
    assert results[0] == results[1]


def test_energy_permutation_null_calibration():
    # Under exchangeable rows the rejection rate at alpha stays within
    # binomial noise of alpha.
    alpha = 0.05
    trials = 200
    rejections = 0
    for trial in range(trials):
        rng = stream(10, trial)
        a = rng.normal(size=(30, 2))
        b = rng.normal(size=(30, 2))
        res = rs.energy_distance(a, b, 99, rng)
        rejections += res.p_value < alpha
    limit = alpha + 3.0 * math.sqrt(alpha * (1 - alpha) / trials)
    assert rejections / trials <= limit


def test_sequential_p_value_null_calibration():
    # Exchangeable rows: P(p <= u) <= u for Besag and Clifford's p-value, so
    # over 200 tests each rate stays within 3 binomial standard errors above
    # u.  Most tests stop early, at their 10th exceedance.
    trials = 200
    p_values, labellings = [], []
    for trial in range(trials):
        rng = stream(49, trial)
        a = rng.poisson(1.0, size=(100, 3))
        b = rng.poisson(1.0, size=(100, 3))
        res = rs.energy_distance(a, b, 199, rng)
        p_values.append(res.p_value)
        labellings.append(res.labellings)
    for u in (0.1, 0.2, 0.5):
        rate = np.mean(np.array(p_values) <= u)
        assert rate <= u + 3.0 * math.sqrt(u * (1.0 - u) / trials), (u, rate)
    assert sum(run < 199 for run in labellings) > trials // 2


def test_chisq_gof_examples():
    res = chisq_gof_counts([50, 50], [0.5, 0.5], min_expected=1.0)
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(1.0, abs=1e-12)
    res = chisq_gof_counts([60, 40], [0.5, 0.5], min_expected=1.0)
    assert res.statistic == pytest.approx(4.0, abs=1e-12)


def test_chisq_gof_impossible_bin():
    res = chisq_gof_counts([5, 5, 3], [0.5, 0.5, 0.0], min_expected=0.0)
    assert math.isinf(res.statistic)
    assert res.p_value == 0.0


def test_chisq_gof_pooling_and_errors():
    # Tail bins with tiny expectations pool into one.
    res = chisq_gof_counts([96, 3, 1, 0], [0.96, 0.02, 0.01, 0.01], min_expected=5.0)
    assert "bins=2" in res.note
    with pytest.raises(ValueError):
        chisq_gof_counts([10], [1.0], min_expected=5.0)
    with pytest.raises(ValueError):
        chisq_gof_counts([5, 5], [0.7, 0.7], min_expected=1.0)


def test_p_value_monotone_in_statistic():
    n, m = 200, 200
    en = math.sqrt(n * m / (n + m))
    stats = [0.05, 0.1, 0.2, 0.4]
    ps = [rs.kolmogorov_sf(en * d) for d in stats]
    assert all(p1 >= p2 for p1, p2 in zip(ps, ps[1:]))
