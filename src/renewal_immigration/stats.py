"""Empirical-distribution machinery for the verification harness.

Samples are plain 1-D arrays (sorted internally); multivariate samples are
``(rows, coords)`` matrices.  Ties are resolved by treating empirical CDFs
as right-continuous step functions evaluated at merged order statistics,
which matters for the integer-valued process marginals.

Energy distances are computed in numpy, bit for bit equal to ``cdist``'s,
and the Kolmogorov and chi-square tails in closed form; nothing here imports
scipy.
"""

import math
from dataclasses import field

import numpy as np

from ._records import Record

__all__ = [
    "TestResult",
    "PermutationResult",
    "ks_two_sample",
    "ks_one_sample",
    "energy_distance",
    "kolmogorov_sf",
    "chi2_sf",
]

# Energy statistics are exact up to this many distinct rows (the distance
# matrix is k x k over distinct rows); beyond it the inputs are subsampled
# (with a note in the result).
ENERGY_EXACT_ROWS = 20_000

# Distances are streamed in blocks of about this many entries (16 MB), each
# block filled one cache-sized tile at a time, over half of the symmetric
# matrix.  A block that holds every distinct row (k <= 1448) is filled once
# per test and its "marginals" labellings come RESIDENT_TILE at a time;
# other tiles hold max(k, DISTANCE_TILE // k) labellings, no more entries
# than the distance matrix or one distance tile.
ENERGY_BLOCK_ENTRIES = 2**21
DISTANCE_TILE = 2**15
RESIDENT_TILE = 32

# A permutation test stops at the labelling whose statistic is the
# EXCEEDANCES-th to reach the observed one (Besag & Clifford 1991).
EXCEEDANCES = 10


class TestResult(Record):
    """A test's statistic and p-value, its sample sizes (``m`` is ``None`` for one sample) and method.

    ``note`` says how the test departed from its plain form, if it did.
    """

    statistic: float
    p_value: float
    n: int
    m: int | None
    method: str
    note: str = ""


class PermutationResult(TestResult):
    """A permutation test's result and the number of permuted labellings it ran."""

    labellings: int = field(kw_only=True)


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


def chi2_sf(df, x):
    """Chi-square survival function for integer ``df >= 1`` (A&S 26.4.4-5).

    With ``h = x / 2`` it is ``erfc(sqrt h)`` for odd ``df`` (0 for even) plus
    ``sum_j h^j e^{-h} / j!`` over ``j = df/2 - 1, df/2 - 2, ... >= 0``.  Each
    term is formed in log space: a running product ``e^{-h} prod h/j``
    underflows and overflows (``0 * inf``) once ``df`` and ``x`` are in the
    hundreds.
    """
    if not isinstance(df, (int, np.integer)) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = 0.5 * x
    log_h = math.log(h)
    j0 = 0.5 * (df % 2)
    terms = [math.exp((j0 + k) * log_h - h - math.lgamma(j0 + k + 1.0)) for k in range(df // 2)]
    if df % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(math.fsum(terms), 1.0)


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

    ``cdf`` is evaluated once on the whole sorted sample, so it must be
    vectorised (one value per point), nondecreasing, with values in [0, 1];
    a CDF that is identically 0 across the sample violates the precondition
    (the null puts no mass at or below the data).  The p-value is
    asymptotic, intended for n of at least ~50.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    n = len(a)
    if n < 1:
        raise ValueError("sample must be nonempty")
    f = np.asarray(cdf(a), dtype=float)
    if f.shape != a.shape:
        raise ValueError(f"cdf must return one value per sample point, got shape {f.shape} for {a.shape}")
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

    Squared differences are summed in column order onto zeros, as ``cdist``
    sums them (``0.0 + d^2`` is exact), so the bytes are ``cdist(a, b)``'s;
    one tile of ``DISTANCE_TILE`` entries at a time.  Each row's differences
    are a scalar minus a row, which numpy runs without its ufunc buffers.
    """
    a_cols, b_cols = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    step = max(1, DISTANCE_TILE // out.shape[1])
    scratch = np.empty((min(step, len(out)), out.shape[1]))
    for lo in range(0, len(out), step):
        tile = out[lo : lo + step]
        diff = scratch[: len(tile)]
        tile.fill(0.0)
        for x, y in zip(a_cols[:, lo : lo + step], b_cols):
            for x_i, row in zip(x, diff):
                np.subtract(x_i, y, out=row)
            np.multiply(diff, diff, out=diff)
            tile += diff
        np.sqrt(tile, out=tile)
    return out


def _distinct_rows(z):
    """Distinct rows of ``z`` in lexicographic order, and each row's index among them.

    The rows and inverse of ``np.unique(z, axis=0, return_inverse=True)``, from
    a stable lexsort over the columns and a row-change mask in place of a sort
    of a structured dtype.  Rows equal as floats share one entry, which is
    their first occurrence (``np.unique`` may keep the other sign of a zero).
    """
    order = np.lexsort(z.T[::-1]) if z.shape[1] else np.arange(len(z))
    ranked = z[order]
    new = np.empty(len(z), dtype=bool)
    new[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    inv = np.empty(len(z), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return ranked[new], inv


def _count_tiles(observed, w, n_permutations, rng, width, method):
    """Float label counts per distinct row, ``width`` labellings per tile.

    Yields ``(lo, tile)`` with ``tile`` a contiguous ``(k, width)`` array
    (the last one ragged) holding labellings ``lo, lo + 1, ...``: labelling 0
    is ``observed``, labelling ``p >= 1`` the label counts of a uniform
    ``n``-subset of the pooled rows (``n = observed.sum()``, ``w`` the
    multiplicities).  Those are multivariate hypergeometric, drawn from
    ``rng`` by numpy's ``method`` as each tile is formed.  Draws by
    "marginals" split over tiles equal one call's; draws by "count" depend on
    how many one call makes, since it reshuffles one pooled array from draw
    to draw, but consume the stream alike.  Tiles left unread are not drawn.
    """
    k, n = len(w), int(observed.sum())
    total = n_permutations + 1
    for lo in range(0, total, width):
        hi = min(lo + width, total)
        first = max(lo, 1)
        tile = np.empty((k, hi - lo))
        if lo == 0:
            tile[:, 0] = observed
        tile[:, first - lo :] = rng.multivariate_hypergeometric(w, n, size=hi - first, method=method).T
        yield lo, tile


def _distance_blocks(uniq, dist):
    """Half of the distance matrix of the distinct rows ``uniq``, ``len(dist)`` rows at a time.

    Yields ``(start, block)``, ``block`` a view of ``dist`` holding the
    distances from the block's rows, ``start`` on, to themselves and to every
    later row.  Each block overwrites the one before it.
    """
    k, size = len(uniq), len(dist)
    for start in range(0, k, size):
        end = min(start + size, k)
        yield start, _euclidean_into(dist[: end - start, : k - start], uniq[start:end], uniq[start:])


def _half_matrix_sums(blocks, counts, w=None):
    """Per-labelling ``c' D c``, and the row sums ``D w`` if ``w`` is given, from half of ``D``.

    ``D`` is the symmetric distance matrix of the distinct rows, given as
    ``_distance_blocks`` yields it, ``c`` each column of ``counts`` and ``w``
    the multiplicities.  The quadratic form is each diagonal block's plus
    twice the off-diagonal part's, and the off-diagonal part's transpose
    gives the later rows' sums over the block (a block of all ``k`` rows
    has no off-diagonal part, and its empty products add +0).  One buffer
    of one block's rows holds both of a block's products with ``counts``.
    """
    s_aa = np.zeros(counts.shape[1])
    row_sums = None if w is None else np.zeros(len(w))
    prod = None
    for start, dblk in blocks:
        size = len(dblk)
        end = start + size
        if prod is None:
            prod = np.empty((size, counts.shape[1]))
        own, rest, out = counts[start:end], dblk[:, size:], prod[:size]
        if w is not None:
            row_sums[start:end] += dblk @ w[start:]
            row_sums[end:] += rest.T @ w[start:end]
        s_aa += np.einsum("ip,ip->p", own, np.matmul(dblk[:, :size], own, out=out))
        s_aa += 2.0 * np.einsum("ip,ip->p", own, np.matmul(rest, counts[end:], out=out))
    return s_aa, row_sums


def energy_distance(a_matrix, b_matrix, n_permutations, rng):
    """Two-sample energy statistic with a sequential permutation p-value.

    Statistic: ``2 E|A - B| - E|A - A'| - E|B - B'|`` with plug-in means over
    all row pairs (Euclidean distances, diagonal included).  It depends on
    the rows only through their distinct values and multiplicities, so the
    pairwise distances are streamed over distinct rows and each labelling
    is a vector of per-row label counts.  It is exact up to
    ``ENERGY_EXACT_ROWS`` distinct rows and computed on a subsample beyond.
    The permutation null labels a uniform random ``n``-subset of the pooled
    rows; only its label counts per distinct row matter, and those are
    multivariate hypergeometric, drawn one tile of labellings at a time.

    The p-value is Besag and Clifford's sequential Monte Carlo p-value
    (Biometrika 78, 1991, 301-304), at most ``n_permutations`` labellings.
    When labelling ``l`` is the ``EXCEEDANCES``-th whose statistic reaches
    the observed one, the test stops there with ``p = EXCEEDANCES / l``;
    otherwise it runs all ``P = n_permutations`` and ``p = (1 + count) /
    (P + 1)``, never below ``1/(P+1)``.  Either way the test is valid, and a
    p-value below ``EXCEEDANCES / P`` comes from a run of all ``P``.  The
    stopping labelling, not the end of its tile, sets the p-value; tiles past
    it are not drawn.  ``labellings`` in the result is how many were run.

    Memory: with ``k`` distinct rows the call holds one distance block of at
    most ``ENERGY_BLOCK_ENTRIES`` entries, two float tile buffers (counts and
    distance-weighted counts) and one tile's integer draws while the tile is
    formed.  A block of all ``k`` rows (``k <= 1448``) is filled once per
    test, and "marginals" tiles over it hold ``RESIDENT_TILE`` labellings.
    Other tiles hold ``max(k, DISTANCE_TILE // k)``, no more entries than the
    distance matrix or one distance tile, and past 1448 rows each streams its
    own blocks (``_half_matrix_sums``): over ``d`` coordinates, recomputing
    the distances costs about ``3 d / width`` of the tile's matrix products.
    """
    a = _as_matrix(a_matrix)
    b = _as_matrix(b_matrix)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    if len(a) < 1 or len(b) < 1:
        raise ValueError("both samples must be nonempty")
    if n_permutations < 19:
        raise ValueError("need at least 19 permutations for a meaningful p-value")
    note = ""
    uniq, inv = _distinct_rows(np.vstack([a, b]))
    if len(uniq) > ENERGY_EXACT_ROWS:
        total = len(a) + len(b)
        keep_a = max(1, int(round(ENERGY_EXACT_ROWS * len(a) / total)))
        keep_b = ENERGY_EXACT_ROWS - keep_a
        a = a[rng.choice(len(a), size=keep_a, replace=False)]
        b = b[rng.choice(len(b), size=keep_b, replace=False)]
        note = f"subsampled to {keep_a}+{keep_b} rows from the caller's stream"
        uniq, inv = _distinct_rows(np.vstack([a, b]))
    n, m = len(a), len(b)
    k = len(uniq)

    # Labelling 0 is observed, the rest are permutations; w holds the
    # multiplicities.  numpy's "marginals" draws cost O(k) per labelling,
    # "count" draws O(n); only "marginals" draws are alike at any tile width.
    w = np.bincount(inv, minlength=k)
    dist = np.empty((min(max(1, ENERGY_BLOCK_ENTRIES // k), k), k))
    method = "marginals" if k < n else "count"
    resident = len(dist) == k
    width = RESIDENT_TILE if resident and method == "marginals" else max(k, DISTANCE_TILE // k)
    tiles = _count_tiles(np.bincount(inv[:n], minlength=k), w, n_permutations, rng, width, method)
    del inv  # the tiles read counts, not the row index
    w = w.astype(float)
    filled = list(_distance_blocks(uniq, dist)) if resident else None
    reached = 0
    for lo, counts in tiles:
        blocks = filled or _distance_blocks(uniq, dist)
        if lo == 0:
            s_aa, row_sums = _half_matrix_sums(blocks, counts, w)
            grand = float(w @ row_sums)
        else:
            s_aa = _half_matrix_sums(blocks, counts)[0]
        r = counts.T @ row_sums
        s_ab = r - s_aa
        s_bb = grand - 2.0 * r + s_aa
        stats = 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)
        if lo == 0:
            observed = float(stats[0])
        hits = lo + np.flatnonzero(stats >= observed)
        hits = hits[hits > 0]
        if reached + len(hits) >= EXCEEDANCES:
            run = int(hits[EXCEEDANCES - reached - 1])
            p_value = EXCEEDANCES / run
            break
        reached += len(hits)
    else:
        run = n_permutations
        p_value = (1 + reached) / (n_permutations + 1)
    return PermutationResult(
        statistic=observed, p_value=p_value, n=n, m=m, method="energy_permutation", note=note, labellings=run
    )
