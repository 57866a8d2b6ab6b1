"""Evaluate the immigration process on time grids.

Transient: ``Y(t + u) = sum_k X_{k+1}(t + u - S_k)`` over the renewal epochs
on ``[0, t + max(u)]`` -- an exact finite sum, one independent path per
epoch.

Stationary: ``Y*(u) = sum_k X_{k+1}(u + S*_k)`` over a stationary window,
truncated to ``|S*_k| <= c``.  Points far to the left contribute exactly 0
(paths vanish on negatives), so the truncation error lives entirely in the
right tail of the window.  Kernels with a finite ``support_end()`` are
evaluated exactly on a window that holds every possible contributor.
Otherwise :func:`stationary_half_width` doubles ``c`` until the kernel's
``tail_bound`` on the expected missed mass drops below the requested
tolerance.  That bound is Campbell's formula, a function of the kernel,
``c`` and the mean interarrival alone, so ``c`` is fixed once per run,
before anything is drawn, and every replicate draws one window at it.  A
run that cannot reach the tolerance, or whose kernel misses infinite
expected mass, raises :class:`~renewal_immigration.errors.TruncationError`
before its first draw.

Replicates come in blocks of rows; one replicate is a one-row block.  A
block draws its forward runs or windows with one ``size=k`` call, as
ragged rows of flat points that hold only the points that can reach the
grid, then their paths with one
:func:`~renewal_immigration.kernels.sample_path` call per chunk of
``SUPERPOSE_BLOCK`` points, and sums each row over its own points.

The module returns draws only: an :class:`FddSample` holds the grid, the
matrix, ``c_used`` and ``truncation_bound``, and :mod:`.cli` renders the
files.
"""

import math

import numpy as np

from ._records import Record
from .distributions import check_interarrival
from .errors import LawError, TruncationError
from .kernels import sample_path
from .renewal import StationaryWindowSampler, point_rows, read_interval, row_blocks, simulate_forward
from .streams import STATIONARY_BLOCK, TRANSIENT_BLOCK, stream

__all__ = ["FddSample", "fdd_sample", "first_half_width"]

# Points evaluated per (points x grid) array, which bounds the temporary
# for windows with very many points.
SUPERPOSE_BLOCK = 4096


def _validate_grid(u_grid):
    u = np.asarray(u_grid, dtype=float)
    if u.ndim != 1 or len(u) == 0:
        raise LawError("u_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(u)):
        raise LawError("u_grid must be finite")
    if np.any(np.diff(u) <= 0):
        raise LawError("u_grid must be strictly increasing")
    return u


def _superpose(spec, row, shifts, grid, k, rng):
    """Per row ``i < k``, ``sum_j X_j(grid - shifts[j])`` over the points ``j`` with ``row[j] == i``.

    Points come row-major (``row`` is nondecreasing), and each draws one
    fresh path.  Paths are drawn and evaluated in chunks of
    ``SUPERPOSE_BLOCK`` points, one batched draw per chunk, so at most a
    chunk of paths is held.  Every kernel but the birth-death chain draws
    as one call for all points would (see :mod:`.kernels`); birth-death
    draws depend on the chunk sizes.  Each grid column of a chunk is summed
    per row by one ``np.bincount``, which adds its weights one at a time in
    index order; a row the chunk touches restarts from its running sum, so
    every row adds its terms in point order, as a per-point loop would
    (pairwise summation would not).  Rows with no point stay 0.
    """
    values = np.zeros((k, len(grid)))
    for lo in range(0, len(shifts), SUPERPOSE_BLOCK):
        block = slice(lo, lo + SUPERPOSE_BLOCK)
        paths = sample_path(spec, rng, size=len(shifts[block]))
        terms = paths.values(grid[None, :] - shifts[block, None])
        rows = slice(row[block][0], row[block][-1] + 1)
        index = np.concatenate([np.arange(rows.stop - rows.start), row[block] - rows.start])
        for j in range(len(grid)):
            weights = np.concatenate([values[rows, j], terms[:, j]])
            values[rows, j] = np.bincount(index, weights, minlength=rows.stop - rows.start)
    return values


def eval_transient(law, spec, t, u_grid, rng, size):
    """``size`` replicates of ``(Y(t + u))_u``: exact sums over epochs.

    The replicates are the rows of one ``(size, g)`` array, from one
    batched forward run; :func:`fdd_sample` has validated the inputs.
    """
    u = np.asarray(u_grid, dtype=float)
    values = np.zeros((size, len(u)))
    if t + u[-1] >= 0:
        # Epochs whose path is 0 on the whole shifted grid, S with
        # t + u[0] - S >= support_end, are neither kept nor draw a path.
        within = read_interval(-spec.support_end(), math.inf, t + u[0])
        real = simulate_forward(law, t + u[-1], rng, size=size, within=within)
        keep = t + u[0] - real.epochs < spec.support_end()
        values = _superpose(spec, point_rows(real.counts)[keep], real.epochs[keep], t + u, size, rng)
    return FddSample(u_grid=u, values=values)


def first_half_width(support_end, u, mu):
    """Half-width of the first stationary window for a kernel's ``support_end()``, the grid ``u`` and mean ``mu``."""
    if math.isfinite(support_end):
        # Every possible contributor lies in [-max(u), support_end - min(u)].
        return max(abs(u[-1]), abs(support_end - u[0]), mu)
    return max(abs(u[0]), abs(u[-1])) + 10.0 * mu


def stationary_half_width(law, spec, u_grid, tol, c_max=None):
    """The half-width ``c`` of a stationary run's windows, and the tail bound at ``c``.

    A pure function of its arguments that draws nothing.  A kernel with a
    finite ``support_end()`` is exact at :func:`first_half_width` and has
    no bound (``None``).  Otherwise ``c`` doubles from there until the
    kernel's ``tail_bound`` drops below ``tol``.  Raises
    :class:`TruncationError` when that needs ``c`` above ``c_max``
    (default ``max(512, 8 c)`` for the first ``c``), or when the kernel's
    expected missed mass is infinite.  :func:`fdd_sample` or :mod:`.config`
    has validated the inputs.
    """
    u = np.asarray(u_grid, dtype=float)
    mu = law.mean()
    support_end = spec.support_end()
    c = float(first_half_width(support_end, u, mu))
    if math.isfinite(support_end):
        return c, None
    cap = c_max if c_max is not None else max(512.0, 8.0 * c)
    while True:
        # The smallest u sees the most of the tail.
        bound = float(spec.tail_bound(max(c + u[0], 0.0), mu))
        if bound < tol:
            return c, bound
        if 2.0 * c > cap:
            raise TruncationError(
                f"tail bound {bound:.3e} above tolerance {tol:.3e} at window half-width {c:g} (cap {cap:g})",
                bound=bound,
                c_used=c,
            )
        c *= 2.0


def eval_stationary(law, spec, u_grid, c, rng, size):
    """``size`` replicates of ``(Y*(u))_u`` over the points with ``|S*_k| <= c``.

    The replicates are the rows of one ``(size, g)`` array, from ``size``
    windows of half-width ``c`` drawn together.
    :func:`stationary_half_width` gives the ``c`` that meets a tolerance,
    and :func:`fdd_sample` has validated the inputs.
    """
    u = np.asarray(u_grid, dtype=float)
    # Sentinels, points left of -max(u) and points past the support cannot
    # reach the grid, and are not kept.
    within = read_interval(-u[-1], min(c, spec.support_end() - u[0]))
    window = StationaryWindowSampler(law, rng, size=size).initial(c, within)
    pts = window.points
    keep = (np.abs(pts) <= c) & (pts >= -u[-1]) & (pts < spec.support_end() - u[0])
    values = _superpose(spec, point_rows(window.counts)[keep], -pts[keep], u, size, rng)
    return FddSample(u_grid=u, values=values, c_used=c)


class FddSample(Record, eq=False):
    """Replicated finite-dimensional samples on a u-grid, one row per replicate.

    A stationary run draws every replicate's window at one half-width
    ``c_used``.  ``truncation_bound`` bounds the expected mass missed beyond
    it, and is present exactly when the kernel support is unbounded.  A
    transient sample has neither, and a block from :func:`eval_stationary`
    no bound.
    """

    u_grid: np.ndarray
    values: np.ndarray
    c_used: float | None = None
    truncation_bound: float | None = None


def fdd_sample(law, spec, mode, u_grid, n_replicates, seed, t=None, tol=1e-6, c_max=None, sample=0, key=()):
    """Independent replicates of the fdd vector, drawn in blocks of rows.

    It checks ``n_replicates``, the mode, the law, the grid, ``t >= 0``
    (transient) and ``tol > 0`` (stationary); the block evaluators do not.
    Blocks come from :func:`~renewal_immigration.renewal.row_blocks`: each
    holds about ``ROW_BLOCK_POINTS`` expected points, over rows of ``2 c``
    (stationary) or ``t + max(u)`` (transient) time.  Block ``b`` draws
    from ``stream(seed, *key, mode tag, sample, b)``, so the matrix is
    reproducible and does not depend on evaluation order; ``sample`` tells
    apart the fdd samples of one run, and the integer tuple ``key`` runs
    that share a seed.  A stationary run fixes its half-width with
    :func:`stationary_half_width` before the first draw, so a run that
    cannot reach ``tol`` raises :class:`TruncationError` having drawn
    nothing.
    """
    if n_replicates < 1:
        raise LawError("n_replicates must be >= 1")
    if mode not in ("transient", "stationary"):
        raise LawError(f"mode must be 'transient' or 'stationary', got {mode!r}")
    if mode == "transient" and (t is None or t < 0):
        raise LawError(f"transient mode needs an evaluation time t >= 0, got {t}")
    if mode == "stationary" and not tol > 0:
        raise LawError(f"tolerance must be positive, got {tol}")
    check_interarrival(law)
    u = _validate_grid(u_grid)
    c = bound = None
    if mode == "stationary":
        c, bound = stationary_half_width(law, spec, u, tol, c_max)
    values = np.empty((n_replicates, len(u)))
    span, tag = (2.0 * c, STATIONARY_BLOCK) if mode == "stationary" else (t + u[-1], TRANSIENT_BLOCK)
    for b, (lo, hi) in enumerate(row_blocks(n_replicates, law, span)):
        rng = stream(seed, *key, tag, sample, b)
        if mode == "transient":
            values[lo:hi] = eval_transient(law, spec, t, u, rng, size=hi - lo).values
        else:
            values[lo:hi] = eval_stationary(law, spec, u, c, rng, size=hi - lo).values
    return FddSample(u_grid=u, values=values, c_used=c, truncation_bound=bound)
