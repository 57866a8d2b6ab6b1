"""Empirical-distribution machinery for the verification harness.

Samples are plain 1-D arrays (sorted internally); multivariate samples are
``(rows, coords)`` matrices.  Ties are resolved by treating empirical CDFs
as right-continuous step functions evaluated at merged order statistics,
which matters for the integer-valued process marginals.

Energy distances are computed in numpy, bit for bit equal to ``cdist``'s;
only the chi-square p-value imports ``scipy.special``, when it is called.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TestResult",
    "ks_two_sample",
    "ks_one_sample",
    "energy_distance",
    "chisq_gof_counts",
    "kolmogorov_sf",
]

# Energy statistics are exact up to this many distinct rows (the distance
# matrix is k x k over distinct rows); beyond it the inputs are subsampled
# (with a note in the result).
ENERGY_EXACT_ROWS = 20_000

# Distances are streamed in blocks of about this many entries, each block
# filled one cache-sized tile at a time.
ENERGY_BLOCK_ENTRIES = 2**24
DISTANCE_TILE = 2**15


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n: int
    m: int | None
    method: str
    note: str = ""

    def to_dict(self):
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n": self.n,
            "m": self.m,
            "method": self.method,
            "note": self.note,
        }


def kolmogorov_sf(x):
    """Survival function of the Kolmogorov distribution, Q(x) = 2 sum (-1)^{j-1} e^{-2 j^2 x^2}."""
    if x <= 0.05:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * x * x)
        total += sign * term
        if term < 1e-16 * max(total, 1e-300):
            break
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def ks_two_sample(a, b):
    """Exact two-sample Kolmogorov-Smirnov distance with asymptotic p-value.

    The statistic is the sup distance between the two empirical CDFs,
    computed by a merge scan; the p-value uses the Kolmogorov asymptotics
    at scale ``sqrt(n m / (n + m))``, so decisions should rest on samples
    of at least ~50 points per side.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    n, m = len(a), len(b)
    if n < 1 or m < 1:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / n
    cdf_b = np.searchsorted(b, grid, side="right") / m
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    en = math.sqrt(n * m / (n + m))
    return TestResult(statistic=d, p_value=kolmogorov_sf(en * d), n=n, m=m, method="ks_two_sample")


def ks_one_sample(a, cdf):
    """One-sample KS distance of a sample against a CDF callable.

    ``cdf`` is evaluated on the sorted sample and must be nondecreasing with
    values in [0, 1]; a CDF that is identically 0 across the sample violates
    the precondition (the null puts no mass at or below the data).  The
    p-value is asymptotic, intended for n of at least ~50.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    n = len(a)
    if n < 1:
        raise ValueError("sample must be nonempty")
    f = np.asarray(cdf(a), dtype=float)
    if f.shape != a.shape:
        f = np.array([float(cdf(x)) for x in a])
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
        raise ValueError("cdf values must lie in [0, 1]")
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("cdf must be nondecreasing")
    if f[-1] <= 0.0:
        raise ValueError("cdf is 0 across the whole sample; null has no mass below the data")
    f = np.clip(f, 0.0, 1.0)
    i = np.arange(n)
    d_plus = float(np.max((i + 1) / n - f))
    d_minus = float(np.max(f - i / n))
    d = max(d_plus, d_minus)
    return TestResult(statistic=d, p_value=kolmogorov_sf(math.sqrt(n) * d), n=n, m=None, method="ks_one_sample")


def _as_matrix(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("samples must be 1-D vectors or 2-D row matrices")
    return x


def _euclidean_into(out, a, b):
    """Fill ``out`` with the Euclidean distances between the rows of ``a`` and ``b``.

    Squared differences are summed in column order, as ``cdist`` sums them, so
    the bytes are ``cdist(a, b)``'s; one tile of ``DISTANCE_TILE`` entries at a time.
    """
    if a.shape[1] == 0:
        out.fill(0.0)  # no coordinates: every row is at distance 0
        return out
    a_cols, b_cols = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    step = max(1, DISTANCE_TILE // out.shape[1])
    scratch = np.empty((min(step, len(out)), out.shape[1]))
    for lo in range(0, len(out), step):
        tile = out[lo : lo + step]
        diff = scratch[: len(tile)]
        np.subtract(a_cols[0, lo : lo + step, None], b_cols[0], out=tile)
        np.multiply(tile, tile, out=tile)
        for x, y in zip(a_cols[1:, lo : lo + step], b_cols[1:]):
            np.subtract(x[:, None], y, out=diff)
            np.multiply(diff, diff, out=diff)
            tile += diff
        np.sqrt(tile, out=tile)
    return out


def energy_distance(a_matrix, b_matrix, n_permutations, rng):
    """Two-sample energy statistic with a permutation p-value.

    Statistic: ``2 E|A - B| - E|A - A'| - E|B - B'|`` with plug-in means over
    all row pairs (Euclidean distances, diagonal included).  It depends on
    the rows only through their distinct values and multiplicities, so the
    pairwise distances are streamed over distinct rows and each labelling
    is a vector of per-row label counts.  It is exact up to
    ``ENERGY_EXACT_ROWS`` distinct rows and computed on a subsample beyond.
    The permutation null labels a uniform random ``n``-subset of the pooled
    rows; only its label counts per distinct row matter, and those are
    multivariate hypergeometric, drawn for every labelling in one call.
    The p-value counts the observed arrangement itself, so it is never
    below ``1/(n_permutations+1)``.
    """
    a = _as_matrix(a_matrix)
    b = _as_matrix(b_matrix)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    if n_permutations < 19:
        raise ValueError("need at least 19 permutations for a meaningful p-value")
    note = ""
    uniq, inv = np.unique(np.vstack([a, b]), axis=0, return_inverse=True)
    if len(uniq) > ENERGY_EXACT_ROWS:
        total = len(a) + len(b)
        keep_a = max(1, int(round(ENERGY_EXACT_ROWS * len(a) / total)))
        keep_b = ENERGY_EXACT_ROWS - keep_a
        a = a[rng.choice(len(a), size=keep_a, replace=False)]
        b = b[rng.choice(len(b), size=keep_b, replace=False)]
        note = f"subsampled to {keep_a}+{keep_b} rows from the caller's stream"
        uniq, inv = np.unique(np.vstack([a, b]), axis=0, return_inverse=True)
    inv = inv.reshape(-1)  # numpy 2.0.0 returns it 2-D for axis=0
    n, m = len(a), len(b)
    k = len(uniq)

    # Column 0 counts the observed labelling per distinct row, the rest
    # count the permutations; w holds the multiplicities.  A uniform
    # n-subset of the pooled rows has multivariate hypergeometric counts
    # per distinct row, drawn in one call by the cheaper of numpy's two
    # methods: "marginals" costs O(k) per labelling, "count" O(n).
    w = np.bincount(inv, minlength=k)
    counts = np.empty((k, n_permutations + 1))
    counts[:, 0] = np.bincount(inv[:n], minlength=k)
    drawn = rng.multivariate_hypergeometric(w, n, size=n_permutations, method="marginals" if k < n else "count")
    counts[:, 1:] = drawn.T
    del drawn  # before the distance pass allocates its own (k, P + 1) array
    w = w.astype(float)

    # Streamed distances between distinct rows: accumulate D @ counts and
    # D @ w without materializing the full distance matrix; all blocks share
    # one buffer.
    dx = np.empty((k, n_permutations + 1))
    row_sums = np.empty(k)
    block = max(1, int(ENERGY_BLOCK_ENTRIES // max(k, 1)))
    dist = np.empty((min(block, k), k))
    for lo in range(0, k, block):
        rows = uniq[lo : lo + block]
        dblk = _euclidean_into(dist[: len(rows)], rows, uniq)
        dx[lo : lo + block] = dblk @ counts
        row_sums[lo : lo + block] = dblk @ w

    grand = float(w @ row_sums)
    s_aa = np.einsum("ip,ip->p", counts, dx)
    r = counts.T @ row_sums
    s_ab = r - s_aa
    s_bb = grand - 2.0 * r + s_aa
    stats = 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)
    observed = float(stats[0])
    p_value = float((1 + np.sum(stats[1:] >= observed)) / (n_permutations + 1))
    return TestResult(
        statistic=observed, p_value=p_value, n=n, m=m, method="energy_permutation", note=note
    )


def chisq_gof_counts(observed_counts, expected_probs, min_expected=5.0):
    """Pearson chi-square GOF on binned counts.

    Bins whose expected count falls below ``min_expected`` are pooled into a
    single tail bin before the statistic is formed.  An impossible bin
    (zero probability, positive count) yields ``statistic = inf`` and
    p-value 0.
    """
    obs = np.asarray(observed_counts, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if obs.shape != probs.shape or obs.ndim != 1:
        raise ValueError("observed counts and expected probs must be matching 1-D arrays")
    if np.any(obs < 0) or np.any(probs < 0):
        raise ValueError("counts and probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"expected probabilities must sum to 1, got {probs.sum()!r}")
    n = float(obs.sum())
    expected = n * probs
    pool = expected < min_expected
    obs_bins = list(obs[~pool])
    exp_bins = list(expected[~pool])
    if pool.any():
        obs_bins.append(float(obs[pool].sum()))
        exp_bins.append(float(expected[pool].sum()))
    if len(obs_bins) < 2:
        raise ValueError("all mass pooled into one bin; the test is undefined")
    obs_bins = np.array(obs_bins)
    exp_bins = np.array(exp_bins)
    impossible = (exp_bins == 0.0) & (obs_bins > 0.0)
    if impossible.any():
        stat = math.inf
        p = 0.0
    else:
        from scipy.special import chdtrc

        ok = exp_bins > 0.0
        stat = float(np.sum((obs_bins[ok] - exp_bins[ok]) ** 2 / exp_bins[ok]))
        p = float(chdtrc(len(obs_bins) - 1, stat))
    return TestResult(
        statistic=stat, p_value=p, n=int(n), m=None, method="chisq_gof", note=f"bins={len(obs_bins)}"
    )
