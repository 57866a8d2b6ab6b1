"""Renewal sequences and the two-sided stationary renewal window.

The forward construction is the zero-delayed random walk ``S_0 = 0,
S_n = xi_1 + ... + xi_n``.  The stationary window places a size-biased
interval ``xi0`` around the origin, split by an independent uniform ``U``
(so the first point right of 0 sits at ``U * xi0``), and extends it with
independent i.i.d. increments in both directions until sentinels fall
strictly outside ``[-c, c]``.  The resulting point set is a realization of
the translation-invariant renewal point process with intensity
``1 / mean``.

Points are nondecreasing, not strictly increasing: an increment below half
an ulp of the running sum (a gamma law with a small shape draws many)
repeats the previous point.  Every such tied point is kept and counted.

Index convention: points carry integer indices with ``t_{-1} < 0 <= t_0``.

Forward runs and windows come as ragged rows: ``size=k`` draws ``k``
independent point sets held as per-row ``counts`` and one flat array of
points, rows in order and each row's points in order (the layout of a
birth-death path's jumps); :func:`point_rows` gives each point's row.  A
forward run's rows hold its epochs, next to a ``(k,)`` vector of overshoot
epochs.  :func:`simulate_forward` and the window functions require ``size``,
and every row, the one-row window ``stationary --dump-window`` writes
included, draws everything from the generator handed in; no child streams
are spawned.  Windows come from :class:`StationaryWindowSampler`, whose
:meth:`~StationaryWindowSampler.extend` grows a one-row window from the
same generator; nothing in the package extends windows, and the
benchmark's tracer wraps ``extend`` by name.  The module renders no
files: :mod:`.cli` writes the ``--dump-window`` window.

Increments come in rounds: each gives every row still at or below its
target the same number of draws (:func:`_round_width`), until every row
is past it.  That rule decides how the generator is consumed, so it is
part of the ``(config, seed) -> bytes`` contract, as the row blocks are.
The rounds fill arrays as wide as the longest row, and each builder
compacts its result into ragged rows once.

Callers that draw many rows do so in blocks (:func:`row_blocks`) of about
``ROW_BLOCK_POINTS`` expected points each, which bounds a block's arrays
whatever the number of rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import check_interarrival, sample_stationary_delay
from .errors import LawError

__all__ = [
    "RenewalRealization",
    "StationaryWindow",
    "StationaryWindowSampler",
    "simulate_forward",
    "build_stationary_window",
    "point_rows",
    "row_blocks",
]

# Expected points per block of rows.  The rounds of :func:`_round_width`
# draw about 1.1 to 1.4 increments per sum kept, into arrays as wide as
# the block's longest row.
ROW_BLOCK_POINTS = 2**15


def point_rows(counts):
    """The row of each point of ragged rows holding ``counts`` points each."""
    return np.repeat(np.arange(len(counts)), counts)


@dataclass(frozen=True)
class RenewalRealization:
    """Forward epochs ``S_0 = 0 <= S_1 <= ... <= horizon`` plus the overshooter, per row.

    Row ``i`` holds the next ``counts[i]`` entries of ``epochs``.
    ``overshoot_epoch[i]`` is its first epoch past the horizon, and
    ``overshoot_epoch - horizon`` the overshoot at the horizon.
    """

    counts: np.ndarray
    epochs: np.ndarray
    horizon: float
    overshoot_epoch: np.ndarray

    @property
    def overshoot(self):
        return self.overshoot_epoch - self.horizon


def _moments(law):
    """Validate an interarrival law; return its mean and standard deviation."""
    check_interarrival(law)
    mu = law.mean()
    return mu, math.sqrt(max(law.second_moment() - mu**2, 0.0))


def _round_width(remaining, mu, sd):
    """Increments per row in a round that covers ``remaining`` on average.

    The expected count to go ``remaining`` past a renewal epoch is about
    ``m + 1`` with ``m = remaining / mu`` (exactly so for exponential
    increments); half a standard deviation of that count,
    ``(sd / mu) sqrt(m) / 2``, is added.  The floor is one draw.
    """
    m = max(remaining / mu, 0.0)
    return int(m + 0.5 * sd / mu * math.sqrt(m) + 1.0)


def _draw_increments_until(law, rng, starts, target, mu, sd):
    """Row-wise sums ``starts[i] + xi_1 + ...`` until strictly past ``target``.

    Returns ``(sums, kept)``.  Row ``i`` of ``sums`` holds its start, its
    sums ``<= target`` (nondecreasing, with ties kept), then the first sum
    past the target, then ``+inf`` padding; ``kept[i]`` is the column of
    that last sum, which is 0 for a row that starts past the target.
    Increments come in rounds of ``(active rows, n)`` blocks, with ``n``
    from :func:`_round_width` at the mean distance of the active rows to
    the target; each top-up round draws only for the rows still
    ``<= target``.  One row consumes the generator exactly as rounds of
    ``n`` single draws would.
    """
    starts = np.asarray(starts, dtype=float)
    kept = np.zeros(len(starts), dtype=np.intp)
    rounds = []
    active = np.flatnonzero(starts <= target)
    last = starts[active]
    col = 0
    while len(active):
        n = _round_width(target - last.mean(), mu, sd)
        block = np.cumsum(law.sample(rng, size=(len(active), n)), axis=1)
        block += last[:, None]
        past = block > target
        # Sums never decrease along a row, so everything after a row's
        # first sum past the target is padding.
        np.copyto(block[:, 1:], np.inf, where=past[:, :-1])
        rounds.append((active, block))
        # A finished row's first sum past the target is its last one kept.
        done = past[:, -1]
        kept[active[done]] = col + 1 + np.argmax(past, axis=1)[done]
        col += n
        active, last = active[~done], block[~done, -1]
    sums = np.full((len(starts), kept.max(initial=0) + 1), np.inf)
    sums[:, 0] = starts
    col = 1
    for rows, block in rounds:
        sums[rows, col : col + block.shape[1]] = block[:, : sums.shape[1] - col]
        col += block.shape[1]
    return sums, kept


def simulate_forward(law, horizon, rng, size):
    """Simulate ``size`` zero-delayed renewal sequences on ``[0, horizon]``.

    The sequences are the rows of one realization.  The first epoch beyond
    the horizon is retained separately for overshoot diagnostics.
    """
    mu, sd = _moments(law)
    if horizon < 0:
        raise LawError(f"horizon must be >= 0, got {horizon}")
    sums, kept = _draw_increments_until(law, rng, np.zeros(size), horizon, mu, sd)
    # Column ``kept`` holds each row's overshooter, after its epochs.
    epochs = sums[np.arange(sums.shape[1]) < kept[:, None]]
    overshoot_epoch = sums[np.arange(size), kept]
    return RenewalRealization(counts=kept, epochs=epochs, horizon=float(horizon), overshoot_epoch=overshoot_epoch)


@dataclass(frozen=True, eq=False)
class StationaryWindow:
    """Points of stationary renewal windows covering ``[-c, c]``, one window per row.

    Row ``i`` holds the next ``counts[i]`` entries of ``points``,
    nondecreasing.  The point just before a row's first point >= 0 is
    strictly negative, and the row's outermost points lie strictly outside
    ``[-c, c]`` (sentinels), so every point inside the window has both
    neighbours present.  ``xi0`` and ``u`` hold each row's size-biased
    straddling interval and its uniform split.
    """

    counts: np.ndarray
    points: np.ndarray
    c: float
    xi0: np.ndarray
    u: np.ndarray

    def count_in(self, a, b, shift=0.0):
        """Per row, the points in the closed interval [a, b] after translating them by ``-shift``."""
        points = self.points - shift if shift else self.points
        inside = (points >= a) & (points <= b)
        return np.bincount(point_rows(self.counts)[inside], minlength=len(self.counts))


class StationaryWindowSampler:
    """Builds ``size`` stationary windows, drawn together from one generator.

    The constructor draws the straddling intervals and their splits, and
    :meth:`initial` the increments out to ``[-c, c]``, forward then
    backward.
    """

    def __init__(self, law, rng, size):
        self.law = law
        self._mu, self._sd = _moments(law)
        s0, xi0, u = sample_stationary_delay(law, rng, size=size)
        self._s0 = s0
        self._s_minus1 = s0 - xi0
        # Recompute so the straddling-gap identity t_0 - t_{-1} == xi0 is
        # bit-exact (the subtraction below is what any reader of the window
        # will evaluate).
        self.xi0 = s0 - self._s_minus1
        self.u = u
        self._rng = rng

    def initial(self, c):
        """The windows over ``[-c, c]``."""
        if c <= 0:
            raise LawError(f"window half-width must be positive, got {c}")
        fwd, fwd_kept = _draw_increments_until(self.law, self._rng, self._s0, c, self._mu, self._sd)
        bwd, bwd_kept = _draw_increments_until(self.law, self._rng, -self._s_minus1, c, self._mu, self._sd)
        # Column 0 of each half is its start, so ``t_{-1}`` and ``t_0`` meet
        # in the middle; negation is exact.  Boolean indexing keeps the
        # finite points in row-major order.
        points = np.hstack([-bwd[:, ::-1], fwd])
        counts = bwd_kept + fwd_kept + 2
        return StationaryWindow(counts=counts, points=points[np.isfinite(points)], c=float(c), xi0=self.xi0, u=self.u)

    def _draw(self, start, target):
        sums, _ = _draw_increments_until(self.law, self._rng, [start], target, self._mu, self._sd)
        return sums[0, 1:]

    def extend(self, window, c):
        """Grow a one-row window built by this sampler out to a larger ``c``, forward then backward."""
        if c <= window.c:
            return window
        points = window.points
        if points[-1] <= c:
            points = np.concatenate([points, self._draw(points[-1], c)])
        if -points[0] <= c:
            points = np.concatenate([-self._draw(-points[0], c)[::-1], points])
        return StationaryWindow(counts=np.array([len(points)]), points=points, c=float(c), xi0=window.xi0, u=window.u)


def build_stationary_window(law, c, rng, size):
    """Draw ``size`` stationary renewal windows covering ``[-c, c]``.

    It draws the ``size`` straddling intervals and splits first, then the
    forward and the backward increments of all rows.
    """
    return StationaryWindowSampler(law, rng, size).initial(c)


def row_blocks(n_rows, law, span):
    """Yield ``(lo, hi)`` bounds of consecutive blocks of rows that each span ``span``.

    A row holds ``span / mean`` expected points, so a block of ``ROW_BLOCK_POINTS``
    over that many rows (at least one) has about ``ROW_BLOCK_POINTS`` points.
    """
    step = max(1, int(ROW_BLOCK_POINTS // max(span / law.mean(), 1.0)))
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)

