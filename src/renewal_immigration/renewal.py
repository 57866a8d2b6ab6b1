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

Forward runs come as rows: ``simulate_forward(..., size=k)`` returns one
object holding ``k`` independent rows of epochs, padded with ``+inf``,
plus a ``(k,)`` vector of overshoot epochs.  Windows come as rows too
(``size=k``): a ``(k, m)`` array of points padded with ``-inf`` on the
left and ``+inf`` on the right.  Rows draw everything from the generator
handed in; no child streams are spawned.  Both kinds of window come from
:class:`StationaryWindowSampler`, which also builds the one window
``stationary --dump-window`` writes (``size=None``).  That single window
draws its forward and backward increments from two spawned child
streams, so that :meth:`StationaryWindowSampler.extend` can grow each
half-axis later without re-drawing what exists; nothing in the package
extends windows, and the benchmark's tracer wraps ``extend`` by name.

Increments come in rounds: each gives every row still at or below its
target the same number of draws (:func:`_round_width`), until every row
is past it.  That rule decides how the generator is consumed, so it is
part of the ``(config, seed) -> bytes`` contract, as the row blocks are.

Callers that draw many rows do so in blocks (:func:`row_blocks`) of about
``ROW_BLOCK_POINTS`` expected points each, which bounds the padded
``(rows x points)`` arrays whatever the number of rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import check_interarrival, sample_stationary_delay
from .errors import LawError

__all__ = [
    "RenewalRealization",
    "StationaryWindow",
    "StationaryWindowRows",
    "StationaryWindowSampler",
    "simulate_forward",
    "build_stationary_window",
    "row_blocks",
    "window_to_csv",
]

# Expected points per block of rows.  A block's padded arrays are as wide
# as its longest row, and the rounds of :func:`_round_width` draw about
# 1.1 to 1.4 increments per sum kept.
ROW_BLOCK_POINTS = 2**15


@dataclass(frozen=True)
class RenewalRealization:
    """Forward epochs ``S_0 = 0 <= S_1 <= ... <= horizon`` plus the overshooter, per row.

    ``k`` realizations hold ``(k, m)`` epochs padded with ``+inf`` and a
    ``(k,)`` vector of overshoot epochs.  Per row, ``count`` is the first
    index whose epoch exceeds the horizon, and ``overshoot_epoch - horizon``
    is the overshoot at the horizon.
    """

    epochs: np.ndarray
    horizon: float
    overshoot_epoch: float

    @property
    def count(self):
        return np.count_nonzero(np.isfinite(self.epochs), axis=-1)

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
    # The overshooter moves out of the epochs; the last column is then padding only.
    rows = np.arange(size)
    overshoot_epoch = sums[rows, kept]
    sums[rows, kept] = np.inf
    return RenewalRealization(epochs=sums[:, :-1], horizon=float(horizon), overshoot_epoch=overshoot_epoch)


@dataclass(frozen=True, eq=False)
class StationaryWindow:
    """Points of the stationary renewal process covering ``[-c, c]``, nondecreasing.

    ``points[zero_index]`` is the first point >= 0; the point just before it
    is strictly negative.  The outermost points lie strictly outside
    ``[-c, c]`` (sentinels), so every point inside the window has both
    neighbours present.  ``xi0``/``u`` record the size-biased straddling
    interval and its uniform split at construction time.
    """

    points: np.ndarray
    zero_index: int
    c: float
    xi0: float
    u: float

    def __post_init__(self):
        if not (0 < self.zero_index < len(self.points)):
            raise ValueError("window must straddle 0")

    def indices(self):
        return np.arange(len(self.points)) - self.zero_index


@dataclass(frozen=True, eq=False)
class StationaryWindowRows:
    """``k`` independent stationary windows covering ``[-c, c]``, one per row.

    ``points`` is ``(k, m)``: each row is built as a single window is, then
    padded with ``-inf`` on the left and ``+inf`` on the right.  Column
    ``zero_index`` holds every row's ``t_0``.  ``xi0`` and ``u`` are ``(k,)``.
    """

    points: np.ndarray
    zero_index: int
    c: float
    xi0: np.ndarray
    u: np.ndarray

    def count_in(self, a, b, shift=0.0):
        """Per row, the points in the closed interval [a, b] after a shift.

        Points are translated by ``-shift`` first; padding never counts.
        """
        points = self.points - shift if shift else self.points
        return np.count_nonzero((points >= a) & (points <= b), axis=-1)


class StationaryWindowSampler:
    """Builds stationary windows: one, or ``size`` rows drawn together.

    The constructor draws the straddling intervals and their splits, and
    :meth:`initial` the increments out to ``[-c, c]``, forward then
    backward.  Rows draw everything from the generator handed in.  A single
    window draws its forward and backward increments from two child
    streams, so that :meth:`extend` can grow each half-axis later without
    re-drawing what exists.
    """

    def __init__(self, law, rng, size=None):
        self.law = law
        self.size = size
        self._mu, self._sd = _moments(law)
        s0, xi0, u = sample_stationary_delay(law, rng, size=size)
        self._s0 = s0
        self._s_minus1 = s0 - xi0
        # Recompute so the straddling-gap identity t_0 - t_{-1} == xi0 is
        # bit-exact (the subtraction below is what any reader of the window
        # will evaluate).
        self.xi0 = s0 - self._s_minus1
        self.u = u
        self._fwd, self._bwd = rng.spawn(2) if size is None else (rng, rng)

    def initial(self, c):
        """The window over ``[-c, c]``, or a :class:`StationaryWindowRows` of ``size`` rows."""
        if c <= 0:
            raise LawError(f"window half-width must be positive, got {c}")
        fwd, _ = _draw_increments_until(self.law, self._fwd, np.atleast_1d(self._s0), c, self._mu, self._sd)
        bwd, _ = _draw_increments_until(self.law, self._bwd, -np.atleast_1d(self._s_minus1), c, self._mu, self._sd)
        # Column 0 of each half is its start, so ``t_{-1}`` and ``t_0`` meet
        # in the middle; negation is exact.
        points = np.hstack([-bwd[:, ::-1], fwd])
        # A single row has no padding: it is exactly as wide as its points.
        if self.size is None:
            return StationaryWindow(points=points[0], zero_index=bwd.shape[1], c=float(c), xi0=self.xi0, u=self.u)
        return StationaryWindowRows(points=points, zero_index=bwd.shape[1], c=float(c), xi0=self.xi0, u=self.u)

    def _draw(self, rng, start, target):
        sums, _ = _draw_increments_until(self.law, rng, [start], target, self._mu, self._sd)
        return sums[0, 1:]

    def extend(self, window, c):
        """Grow a single window built by this sampler out to a larger ``c``."""
        if c <= window.c:
            return window
        right = window.points[-1]
        left = -window.points[0]
        parts = [window.points]
        zero_index = window.zero_index
        if right <= c:
            parts.append(self._draw(self._fwd, right, c))
        if left <= c:
            ext = self._draw(self._bwd, left, c)
            parts.insert(0, -ext[::-1])
            zero_index += len(ext)
        points = np.concatenate(parts) if len(parts) > 1 else parts[0]
        return StationaryWindow(points=points, zero_index=zero_index, c=float(c), xi0=window.xi0, u=window.u)


def build_stationary_window(law, c, rng, size=None):
    """Draw one stationary renewal window covering ``[-c, c]``.

    ``size=k`` draws ``k`` independent windows as the rows of one
    :class:`StationaryWindowRows`: the ``k`` straddling intervals and splits
    first, then the forward and the backward increments of all rows.
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


def window_to_csv(window):
    """Render a window as ``index,point`` CSV text (17 significant digits)."""
    lines = ["index,point"]
    for k, p in zip(window.indices(), window.points):
        lines.append(f"{k},{p:.17g}")
    return "\n".join(lines) + "\n"
