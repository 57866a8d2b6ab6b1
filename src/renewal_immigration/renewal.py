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

Both builders take ``within``, the closed interval of values their
caller reads (by default every value, sentinels included), and a row holds
only its values in it; overshoot epochs, ``xi0`` and ``u`` stay whole.
:func:`read_interval` gives the interval of a caller that reads ``v -
shift`` in ``[lo, hi]``, widened by a few ulps, so the caller's own mask
picks the same values from the kept ones as from every value.

Increments come in rounds: each gives every row still at or below its
target the same number of draws (:func:`_round_width`), until every row
is past it.  That rule decides how the generator is consumed, so it is
part of the ``(config, seed) -> bytes`` contract, as the row blocks are;
``within`` changes what is kept, never what is drawn.  A call holds one
round of draws and what it keeps: each round keeps the values its rows
take (up to each row's first sum past the target) that lie in
``within``, and is dropped before the next.  The builders then write each
kept value once, straight to its place in the ragged rows
(:func:`_ragged`), through one index array per round, built in place for
the round's kept values alone: no array is as wide as the longest row, so
a block's arrays stay near its kept points and one round's draws even for
bursty laws whose rows need many rounds.

Callers that draw many rows do so in blocks (:func:`row_blocks`) of about
``ROW_BLOCK_POINTS`` expected points each, which bounds a block's arrays
whatever the number of rows.
"""

import math

import numpy as np

from ._records import Record
from .distributions import check_interarrival, sample_stationary_delay
from .errors import LawError

__all__ = [
    "RenewalRealization",
    "StationaryWindow",
    "StationaryWindowSampler",
    "simulate_forward",
    "build_stationary_window",
    "point_rows",
    "read_interval",
    "row_blocks",
]

# Expected points per block of rows.  The rounds of :func:`_round_width`
# draw about 1.1 to 1.4 increments per sum taken, and a block holds one
# round of draws and the points it keeps, a few bytes each.
ROW_BLOCK_POINTS = 2**15

# The builders' default ``within`` interval: every value, sentinels included.
EVERY_VALUE = (-math.inf, math.inf)


def point_rows(counts):
    """The row of each point of ragged rows holding ``counts`` points each."""
    return np.repeat(np.arange(len(counts)), counts)


class RenewalRealization(Record, eq=False):
    """Forward epochs ``S_0 = 0 <= S_1 <= ... <= horizon`` plus the overshooter, per row.

    Row ``i`` holds the next ``counts[i]`` entries of ``epochs``: all its
    epochs, or those in the ``within`` interval it was built with.
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


def read_interval(lo, hi, shift=0.0):
    """The ``within`` interval of a caller that reads the values ``v`` with ``v - shift`` in ``[lo, hi]``.

    It is ``[lo + shift, hi + shift]`` widened at each end by 4 ulps of the
    largest finite of ``|lo|``, ``|hi|`` and ``|shift|``: float subtraction
    is monotone, so every value whose ``v - shift``, rounded, lies in
    ``[lo, hi]`` lies inside, and the caller's own mask picks the same
    values from the kept ones as from every value.
    """
    pad = 4.0 * math.ulp(max((abs(x) for x in (lo, hi, shift) if math.isfinite(x)), default=0.0))
    return lo + shift - pad, hi + shift + pad


def _draw_rounds(law, rng, starts, target, mu, sd, within=EVERY_VALUE, with_ends=True):
    """Row-wise sums ``starts[i] + xi_1 + ...`` until strictly past ``target``, in rounds.

    Row ``i``'s values are its start, unless the start is past the target,
    then its sums ``<= target``, nondecreasing with ties kept, then, if
    ``with_ends``, its end: its first value past the target (its first sum
    past it, or its start).  Returns ``(kept, pieces, ends)``.  Only the
    values in the closed interval ``within`` are kept, ``kept[i]`` of row
    ``i``; ``ends`` holds every row's end, or is None if ``with_ends``, as
    no caller of such rows reads it.  Each piece ``(rows, first, n,
    values)`` holds what one round keeps: the rows that keep ``n > 0`` of
    its values, the index of the first of them among their row's kept
    values, and the values, row by row.  A round is dropped once its rows
    are updated, so a call holds one round and what it keeps.

    Each round draws ``(len(rows), n)`` sums for the rows still ``<=
    target``, ``n`` from :func:`_round_width` at their mean distance to the
    target.  One row consumes the generator exactly as rounds of ``n``
    single draws would; ``within`` changes what is kept, not what is drawn.
    """
    lo, hi = within
    starts = np.asarray(starts, dtype=float)
    ends = None if with_ends else starts.copy()
    kept = np.zeros(len(starts), dtype=np.intp)
    pieces = []

    def keep(rows, values, take):
        # The values of ``rows`` that ``take`` marks ``<= target``, each row's
        # end too if ``with_ends``, and in ``within``: one run of each row.
        if lo > hi:
            return
        if with_ends:
            take = np.concatenate([np.ones((len(rows), 1), dtype=bool), take[:, :-1]], axis=1)
        if lo > -math.inf:
            take = take & (values >= lo)
        if hi < math.inf:
            take = take & (values <= hi)
        n = np.count_nonzero(take, axis=1)
        some = n > 0
        if some.any():
            pieces.append((rows[some], kept[rows[some]], n[some], values[take]))
            kept[rows] += n

    keep(np.arange(len(starts)), starts[:, None], starts[:, None] <= target)
    active = np.flatnonzero(starts <= target)
    last = starts[active]
    while len(active):
        n = _round_width(target - last.mean(), mu, sd)
        sums = law.sample(rng, size=(len(active), n))
        np.cumsum(sums, axis=1, out=sums)
        sums += last[:, None]
        # Sums never decrease along a row: a row is done at its first sum
        # past the target, and takes the sums before it.
        take = sums <= target
        more = take[:, -1]
        if ends is not None:
            done = np.flatnonzero(~more)
            ends[active[done]] = sums[done, np.argmin(take[done], axis=1)]
        keep(active, sums, take)
        active, last = active[more], sums[more, -1]
    return kept, pieces, ends


def _ragged(halves):
    """Ragged rows ``(counts, values)`` of halves drawn by :func:`_draw_rounds`.

    ``halves`` holds ``(draw, mirrored)`` pairs, and row ``i`` is row ``i``
    of each half in turn: the half's kept values.  A mirrored half is
    reversed and negated (negation is exact), its pieces negated in place.

    Every value is written once, straight to its place: a row's ``j``-th
    kept value of a half lands at the row's origin plus ``j``, or minus
    ``j`` when mirrored.  A piece's places are one index array, built in
    place as the running sum of its steps, from per-row vectors of the
    piece's rows alone.
    """
    counts = sum(kept for (kept, _, _), _ in halves)
    values = np.empty(counts.sum())
    base = np.cumsum(counts) - counts  # the position of each row's current half
    for (kept, pieces, _), mirrored in halves:
        sign = -1 if mirrored else 1
        origin = base + kept - 1 if mirrored else base
        for rows, first, n, piece in pieces:
            # Value m of the piece, in its row i, lands at lead[i] + sign * m:
            # lead is the row's origin plus sign * (first - the piece's values
            # before row i).  The places are the running sum of their steps:
            # sign, and lead[i] - lead[i - 1] + sign at row i's first value.
            ends = np.cumsum(n)
            lead = first - ends
            lead += n
            lead *= sign
            lead += origin[rows]
            lead[1:] -= lead[:-1]  # numpy reads the overlapping operand unchanged
            lead[1:] += sign
            at = np.full(len(piece), sign, dtype=np.intp)
            at[0] = lead[0]
            at[ends[:-1]] = lead[1:]
            np.cumsum(at, out=at)
            values[at] = np.negative(piece, out=piece) if mirrored else piece
        base += kept
    return counts, values


def simulate_forward(law, horizon, rng, size, within=EVERY_VALUE):
    """Simulate ``size`` zero-delayed renewal sequences on ``[0, horizon]``.

    The sequences are the rows of one realization, each holding its epochs
    in the closed interval ``within`` (by default all of them).  The first
    epoch beyond the horizon is retained separately for overshoot
    diagnostics, whatever ``within`` keeps.
    """
    mu, sd = _moments(check_interarrival(law))
    if horizon < 0:
        raise LawError(f"horizon must be >= 0, got {horizon}")
    draw = _draw_rounds(law, rng, np.zeros(size), horizon, mu, sd, within, with_ends=False)
    counts, epochs = _ragged([(draw, False)])
    return RenewalRealization(counts=counts, epochs=epochs, horizon=float(horizon), overshoot_epoch=draw[2])


class StationaryWindow(Record, eq=False):
    """Points of stationary renewal windows covering ``[-c, c]``, one window per row.

    Row ``i`` holds the next ``counts[i]`` entries of ``points``,
    nondecreasing.  The point just before a row's first point >= 0 is
    strictly negative, and the row's outermost points lie strictly outside
    ``[-c, c]`` (sentinels), so every point inside the window has both
    neighbours present.  A window built with a ``within`` interval holds
    only the points in it, so neither holds there.  ``xi0`` and ``u`` hold
    each row's size-biased straddling interval and its uniform split.
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

    def initial(self, c, within=EVERY_VALUE):
        """The windows over ``[-c, c]``, each row holding its points in the closed interval ``within``."""
        if c <= 0:
            raise LawError(f"window half-width must be positive, got {c}")
        lo, hi = within
        fwd = _draw_rounds(self.law, self._rng, self._s0, c, self._mu, self._sd, within)
        # The backward half draws the negated points.
        bwd = _draw_rounds(self.law, self._rng, -self._s_minus1, c, self._mu, self._sd, (-hi, -lo))
        # Row i is its backward half, mirrored, then its forward half: the
        # starts t_{-1} and t_0 meet in the middle.
        counts, points = _ragged([(bwd, True), (fwd, False)])
        return StationaryWindow(counts=counts, points=points, c=float(c), xi0=self.xi0, u=self.u)

    def _draw(self, start, target):
        return _ragged([(_draw_rounds(self.law, self._rng, [start], target, self._mu, self._sd), False)])[1][1:]

    def extend(self, window, c):
        """Grow a one-row window built by this sampler, with every point kept, out to a larger ``c``."""
        if c <= window.c:
            return window
        points = window.points
        if points[-1] <= c:
            points = np.concatenate([points, self._draw(points[-1], c)])
        if -points[0] <= c:
            points = np.concatenate([-self._draw(-points[0], c)[::-1], points])
        return StationaryWindow(counts=np.array([len(points)]), points=points, c=float(c), xi0=window.xi0, u=window.u)


def build_stationary_window(law, c, rng, size, within=EVERY_VALUE):
    """Draw ``size`` stationary renewal windows covering ``[-c, c]``.

    It draws the ``size`` straddling intervals and splits first, then the
    forward and the backward increments of all rows.  Each row holds its
    points in the closed interval ``within`` (by default all of them).
    """
    return StationaryWindowSampler(law, rng, size).initial(c, within)


def row_blocks(n_rows, law, span):
    """Yield ``(lo, hi)`` bounds of consecutive blocks of rows that each span ``span``.

    A row holds ``span / mean`` expected points, so a block of ``ROW_BLOCK_POINTS``
    over that many rows (at least one) has about ``ROW_BLOCK_POINTS`` points.
    """
    step = max(1, int(ROW_BLOCK_POINTS // max(span / law.mean(), 1.0)))
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)

