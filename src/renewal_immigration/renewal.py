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
Each round keeps only the sums its rows take, up to each row's first sum
past the target, and the builders assemble ragged rows from the rounds
directly (:func:`_ragged`): no array is as wide as the longest row, so a
block's arrays stay near its points and draws even for bursty laws whose
rows need many rounds.

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
# draw about 1.1 to 1.4 increments per sum kept, and a block's arrays hold
# its draws and points, a few bytes each, plus one first-round slab of
# rows x the first round's width.
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
    """The mean and standard deviation of an interarrival law its caller has checked."""
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


def _draw_rounds(law, rng, starts, target, mu, sd):
    """Row-wise sums ``starts[i] + xi_1 + ...`` until strictly past ``target``, in rounds.

    Returns ``(starts, counts, rounds, ends)``.  Row ``i`` holds
    ``counts[i]`` values ``<= target``, nondecreasing with ties kept: its
    start, unless the start is past the target, then its sums.
    ``ends[i]`` is its first value past the target: its first sum past it,
    or its start.  Each round is ``(rows, col, sums, take)``: the
    ``(len(rows), n)`` sums drawn for the rows still ``<= target``, the
    first of which is column ``col`` of its row (the start is column 0),
    and the mask of those ``<= target``.  ``n`` comes from
    :func:`_round_width` at the mean distance of the rows to the target.
    One row consumes the generator exactly as rounds of ``n`` single
    draws would.
    """
    starts = np.asarray(starts, dtype=float)
    counts = (starts <= target).astype(np.intp)
    ends = starts.copy()
    active = np.flatnonzero(counts)
    last = starts[active]
    rounds = []
    col = 1
    while len(active):
        n = _round_width(target - last.mean(), mu, sd)
        sums = law.sample(rng, size=(len(active), n))
        np.cumsum(sums, axis=1, out=sums)
        sums += last[:, None]
        # Sums never decrease along a row: a row is done at its first sum
        # past the target, and takes the sums before it.
        take = sums <= target
        more = take[:, -1]
        done = np.flatnonzero(~more)
        first_past = np.argmin(take, axis=1)[done]
        counts[active[done]] = col + first_past
        ends[active[done]] = sums[done, first_past]
        rounds.append((active, col, sums, take))
        col += n
        active, last = active[more], sums[more, -1]
    return starts, counts, rounds, ends


def _ragged(halves, with_ends=True):
    """Ragged rows ``(counts, values)`` of halves drawn by :func:`_draw_rounds`.

    ``halves`` holds ``(draw, mirrored)`` pairs, and row ``i`` is row ``i``
    of each half in turn: the half's values ``<= target``, then its end if
    ``with_ends``.  A mirrored half is reversed and negated (negation is
    exact), so its end comes first; its sums are negated in place.

    The first rounds of all halves fill one slab, each half's columns led
    by its starts, and one boolean mask gathers it in row-major order; the
    top-up rounds' sums, a minority, are placed by index.
    """
    counts = sum(draw[1] + with_ends for draw, _ in halves)
    widths = [1 + (rounds[0][2].shape[1] if rounds else 0) for (_, _, rounds, _), _ in halves]
    slab = np.empty((len(counts), sum(widths)))
    take = np.zeros(slab.shape, dtype=bool)
    at, later = [], []
    lo = 0
    base = np.cumsum(counts) - counts  # the position of each row's current half
    for ((starts, half_counts, rounds, _), mirrored), width in zip(halves, widths):
        step = -1 if mirrored else 1
        slab_half = slab[:, lo : lo + width][:, ::step]
        take_half = take[:, lo : lo + width][:, ::step]
        slab_half[:, 0] = -starts if mirrored else starts
        # A row that starts past the target ends at its start.
        take_half[:, 0] = True if with_ends else half_counts > 0
        # Column j of a row of the half lands at origin + step * j.
        origin = base + half_counts + with_ends - 1 if mirrored else base
        for i, (rows, col, sums, row_take) in enumerate(rounds):
            if with_ends:
                # Each row also takes its end, its first sum past the target.
                row_take = np.concatenate([np.ones((len(rows), 1), dtype=bool), row_take[:, :-1]], axis=1)
            if mirrored:
                np.negative(sums, out=sums)
            if i == 0:
                slab_half[rows, 1:] = sums
                take_half[rows, 1:] = row_take
            else:
                at.append((origin[rows, None] + step * (col + np.arange(sums.shape[1])))[row_take])
                later.append(sums[row_take])
        base += half_counts + with_ends
        lo += width
    if not at:
        return counts, slab[take]
    at = np.concatenate(at)
    values = np.empty(counts.sum())
    by_index = np.zeros(len(values), dtype=bool)
    by_index[at] = True
    values[~by_index] = slab[take]
    values[at] = np.concatenate(later)
    return counts, values


def _draw_increments_until(law, rng, starts, target, mu, sd):
    """Row-wise sums ``starts[i] + xi_1 + ...`` until strictly past ``target``, as ragged rows.

    Returns ``(counts, values)``: row ``i`` is the next ``counts[i]``
    entries of ``values``, namely its start, its sums ``<= target``
    (nondecreasing, with ties kept), then its first sum past the target.
    A row that starts past the target holds its start alone.
    """
    return _ragged([(_draw_rounds(law, rng, starts, target, mu, sd), False)])


def simulate_forward(law, horizon, rng, size):
    """Simulate ``size`` zero-delayed renewal sequences on ``[0, horizon]``.

    The sequences are the rows of one realization.  The first epoch beyond
    the horizon is retained separately for overshoot diagnostics.
    """
    mu, sd = _moments(check_interarrival(law))
    if horizon < 0:
        raise LawError(f"horizon must be >= 0, got {horizon}")
    draw = _draw_rounds(law, rng, np.zeros(size), horizon, mu, sd)
    counts, epochs = _ragged([(draw, False)], with_ends=False)
    return RenewalRealization(counts=counts, epochs=epochs, horizon=float(horizon), overshoot_epoch=draw[3])


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
        # The delay draw checks the law; the moments draw nothing.
        s0, xi0, u = sample_stationary_delay(law, rng, size=size)
        self._mu, self._sd = _moments(law)
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
        fwd = _draw_rounds(self.law, self._rng, self._s0, c, self._mu, self._sd)
        bwd = _draw_rounds(self.law, self._rng, -self._s_minus1, c, self._mu, self._sd)
        # Row i is its backward half, mirrored, then its forward half: the
        # starts t_{-1} and t_0 meet in the middle.
        counts, points = _ragged([(bwd, True), (fwd, False)])
        return StationaryWindow(counts=counts, points=points, c=float(c), xi0=self.xi0, u=self.u)

    def _draw(self, start, target):
        return _draw_increments_until(self.law, self._rng, [start], target, self._mu, self._sd)[1][1:]

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

