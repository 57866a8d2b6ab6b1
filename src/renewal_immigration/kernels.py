"""Immigration kernels: the process started afresh at every renewal epoch.

A kernel spec describes the law of one right-continuous path ``X`` with
``X(t) = 0`` for all ``t < 0``; a path sample is one realization, evaluable
at arbitrary real times in O(log jumps).  Variants:

* :class:`DeterministicTable` -- right-continuous step function, the only
  user-extensible deterministic kernel (serializable, exactly evaluable);
* :class:`Indicator` -- ``1`` on ``[0, eta)`` for a random nonnegative
  ``eta`` (busy-server / active-download kernel);
* :class:`ScaledExpDecay` -- ``eta * exp(-decay * t)``;
* :class:`ScaledTable` -- ``eta`` times a deterministic table;
* :class:`BirthDeath` -- birth-death chain run until absorption at 0;
* :class:`SpikeTrain` -- unit pulses in every interval ``[k, k+1)``, k >= 1,
  of width ``eta / (k^2 + 1)`` with right endpoint ``k + eta``,
  ``eta ~ Uniform[0, 1)``.  Every path keeps hitting 1 while the mean decays
  like ``1/k^2``, separating the pathwise from the mean integrability
  criterion.

Each spec class owns its behaviour: its config tag ``kind``,
``sample(rng, size)``, ``support_end()`` (time after which every path
is 0, or ``inf``), ``tail_bound(cut, mu)`` and ``unit_remainders(k)``.
For ``k >= 1``, ``unit_remainders`` bounds the sums over ``j >= k`` of the
mean and path summability terms (see :mod:`.diagnostics`) from above,
``inf`` exactly when a sum diverges; each term is at most 1, and at most
the kernel's tail integrated over the unit before it.  For unbounded
support only, ``tail_bound`` bounds the expected stationary mass missed
from points beyond ``cut`` when interarrivals have mean ``mu``.  By
Campbell's formula that mass is ``int_cut^inf E|X(s)| ds / mu``, so the
bound depends on the kernel, ``cut`` and ``mu`` alone and nothing has to
be drawn to find it.
For an indicator it is ``eta.tail_mean(cut) / mu``, formed directly as
``E[(eta - cut)^+]`` rather than as a difference of two means, so it
does not cancel to 0 however small the tail is.
It raises :class:`~renewal_immigration.errors.TruncationError` when the
expected missed mass is infinite.  A mark law ``eta`` may have an
infinite mean but not one that overflows a float: such a spec raises
:class:`~renewal_immigration.errors.KernelError` when it is built.

A spec's config form, ``kind`` plus one key per dataclass field, is read
and written by :mod:`.config` alone.  A new kind is one such class added
to :data:`KernelSpec`.

``sample(rng, size=k)`` draws ``k`` paths as one batched path.  Its
``values(ts)`` has one row per path, at times that broadcast against a
``(k, 1)`` column (a shared ``(g,)`` grid or a ``(k, g)`` array).  Its
``jumps(horizon)`` lists each path's jumps in ``[0, horizon)`` as ragged
rows ``(counts, times, after)``, each time with the value right after it;
``|X|`` is constant or decreasing between them, so one rule,
:func:`unit_interval_sups`, reads exact sups over unit intervals off
them.  A mark kernel's batch holds a ``(k, 1)`` column of marks and uses
the same random draws, in the same order, as ``k`` calls with
``size=1``.  A birth-death batch steps all its chains at once, so its
draws depend on ``k``.
"""

import math
from functools import lru_cache
from typing import ClassVar

import numpy as np

from ._records import Record
from .distributions import Law
from .errors import KernelError, NonAbsorbedPathError, TruncationError

__all__ = [
    "DeterministicTable",
    "Indicator",
    "ScaledExpDecay",
    "ScaledTable",
    "BirthDeath",
    "SpikeTrain",
    "KernelSpec",
    "sample_path",
    "unit_interval_sups",
    "birth_death_tail_integral",
]

# --------------------------------------------------------------------------
# Helpers


def _check_mark(eta):
    """Reject a mark law whose mean overflows a float; an infinite mean is allowed."""
    try:
        eta.mean()
    except ArithmeticError:
        raise KernelError("mark law's mean overflows a float") from None


def _eta_is_zero(eta):
    lo, hi = eta.support()
    return lo == 0.0 and hi == 0.0


def _mean_abs(eta):
    """``E|eta|``, or an upper bound on it.  The signed mark laws are all
    bounded, so their largest ``|value|`` stands in for it."""
    lo, hi = eta.support()
    return eta.mean() if lo >= 0 else max(abs(lo), abs(hi))



# --------------------------------------------------------------------------
# Specs


class DeterministicTable(Record):
    """Step function: ``values[i]`` on ``[breakpoints[i], breakpoints[i+1])``.

    The last value extends to infinity; the function is 0 before the first
    breakpoint.  Breakpoints must be strictly increasing and start at >= 0.
    """

    kind: ClassVar[str] = "deterministic_table"

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) != len(vals) or not bp:
            raise KernelError("table needs equally many breakpoints and values, at least one")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise KernelError("table breakpoints must be strictly increasing")
        if bp[0] < 0:
            raise KernelError("table breakpoints must start at >= 0 (paths vanish on negatives)")
        if not all(math.isfinite(v) for v in vals):
            raise KernelError("table values must be finite")

    def value(self, t):
        # 0 before the first breakpoint, then the value of the last one passed.
        return np.array((0.0,) + self.values)[np.searchsorted(self.breakpoints, t, side="right")]

    def sample(self, rng, size):
        return TablePath(self, np.ones((size, 1)))

    def support_end(self):
        """Time after which the function is identically 0 (may be ``inf``)."""
        vals = self.values
        if vals[-1] != 0.0:
            return math.inf
        last_nonzero = None
        for i, v in enumerate(vals):
            if v != 0.0:
                last_nonzero = i
        if last_nonzero is None:
            return 0.0
        return self.breakpoints[last_nonzero + 1]

    def tail_bound(self, cut, mu):
        raise TruncationError(
            "table does not vanish at infinity, so the stationary series diverges", bound=math.inf
        )

    def unit_remainders(self, k):
        # Every term is at most 1, and the terms from ceil(end) on are 0.
        end = self.support_end()
        bound = float(max(math.ceil(end) - k, 0)) if math.isfinite(end) else math.inf
        return bound, bound


class Indicator(Record):
    """``X(t) = 1`` on ``[0, eta)``, 0 elsewhere; ``eta`` drawn per path."""

    kind: ClassVar[str] = "indicator"

    eta: Law

    def __post_init__(self):
        _check_mark(self.eta)
        if self.eta.support()[0] < 0:
            raise KernelError("indicator pulse length law must be nonnegative")

    def sample(self, rng, size):
        return IndicatorPath(self.eta.sample(rng, size=(size, 1)))

    def support_end(self):
        return self.eta.support()[1]

    def tail_bound(self, cut, mu):
        # The pulse law's integrated tail, E[(eta - cut)^+].
        eta = self.eta
        if math.isinf(eta.mean()):
            raise TruncationError(
                "pulse length has infinite mean, so the stationary series diverges a.s.", bound=math.inf
            )
        return float(eta.tail_mean(cut)) / mu

    def unit_remainders(self, k):
        # Both terms are P(eta > j) <= int_{j-1}^j P(eta > x) dx.
        bound = float(self.eta.tail_mean(k - 1))
        return bound, bound


class ScaledExpDecay(Record):
    """``X(t) = eta * exp(-decay * t)`` on ``t >= 0``."""

    kind: ClassVar[str] = "scaled_exp_decay"

    eta: Law
    decay: float

    def __post_init__(self):
        _check_mark(self.eta)
        if not (self.decay > 0 and math.isfinite(self.decay)):
            raise KernelError("decay rate must be positive and finite")

    def sample(self, rng, size):
        return ExpDecayPath(self.eta.sample(rng, size=(size, 1)), self.decay)

    def support_end(self):
        return 0.0 if _eta_is_zero(self.eta) else math.inf

    def tail_bound(self, cut, mu):
        # E|eta| int_cut^inf exp(-decay s) ds / mu.
        mean_abs = _mean_abs(self.eta)
        if math.isinf(mean_abs):
            raise TruncationError(
                "mark |eta| has infinite mean, so the expected missed mass is infinite", bound=math.inf
            )
        return mean_abs * math.exp(-self.decay * cut) / (self.decay * mu)

    def unit_remainders(self, k):
        # Both terms are E[min(|eta| c, 1)] with c = exp(-decay j), at most
        # E|eta| c.  Pareto(alpha <= 1) is the one mark law with an infinite
        # mean.  Its term is at most (xm c)^alpha / (1 - alpha) for alpha < 1,
        # and E[(c eta)^(1/2)] = 2 (xm c)^(1/2) for alpha = 1: both read
        # (xm c)^b / (1 - b).
        mean_abs = _mean_abs(self.eta)
        if math.isfinite(mean_abs):
            bound = mean_abs * math.exp(-self.decay * k) / -math.expm1(-self.decay)
        else:
            b = self.eta.alpha if self.eta.alpha < 1.0 else 0.5
            rate = b * self.decay
            bound = self.eta.xm**b * math.exp(-rate * k) / ((1.0 - b) * -math.expm1(-rate))
        return bound, bound


class ScaledTable(Record):
    """``X(t) = eta * table(t)`` with a fresh ``eta`` per path."""

    kind: ClassVar[str] = "scaled_table"

    eta: Law
    table: DeterministicTable

    def __post_init__(self):
        _check_mark(self.eta)

    def sample(self, rng, size):
        return TablePath(self.table, self.eta.sample(rng, size=(size, 1)))

    def support_end(self):
        return self.table.support_end() if not _eta_is_zero(self.eta) else 0.0

    def tail_bound(self, cut, mu):
        raise TruncationError(
            "scaled table does not vanish at infinity, so the stationary series diverges a.s.",
            bound=math.inf,
        )

    # The table's rule, read with this spec's own support end.
    unit_remainders = DeterministicTable.unit_remainders


class BirthDeath(Record):
    """Birth-death chain started at ``initial``, absorbed at 0.

    ``birth_rates[i-1]`` / ``death_rates[i-1]`` are the rates out of state
    ``i`` (1-based, up to ``state_cap``); births out of ``state_cap`` are
    suppressed.  ``max_jumps`` is the simulation budget: a batch with a
    chain not absorbed within it raises :class:`NonAbsorbedPathError`
    carrying the lowest such chain's partial path.
    """

    kind: ClassVar[str] = "birth_death"

    initial: int
    birth_rates: tuple
    death_rates: tuple
    state_cap: int
    max_jumps: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "birth_rates", tuple(float(b) for b in self.birth_rates))
        object.__setattr__(self, "death_rates", tuple(float(d) for d in self.death_rates))
        if self.state_cap < 1 or not (1 <= self.initial <= self.state_cap):
            raise KernelError("need 1 <= initial <= state_cap")
        if len(self.birth_rates) != self.state_cap or len(self.death_rates) != self.state_cap:
            raise KernelError("need one birth and death rate per state 1..state_cap")
        if any(d <= 0 or not math.isfinite(d) for d in self.death_rates):
            raise KernelError("death rates must be positive (state 1 in particular)")
        if any(b < 0 or not math.isfinite(b) for b in self.birth_rates):
            raise KernelError("birth rates must be nonnegative")
        if self.max_jumps < 1:
            raise KernelError("max_jumps must be >= 1")

    def sample(self, rng, size):
        # Every live row jumps once per step: one exponential holding time
        # per live row, then one uniform per live row, both in row order.
        # Rows absorbed at 0 drop out, so a batch's draws depend on its size.
        birth = np.array(self.birth_rates[:-1] + (0.0,))
        rate = birth + np.array(self.death_rates)
        scale = 1.0 / rate
        row, t, state = np.arange(size), np.zeros(size), np.full(size, self.initial)
        jumps = []
        for _ in range(self.max_jumps):
            i = state - 1
            t = t + rng.exponential(scale[i])
            state = state + np.where(rng.random(len(row)) * rate[i] < birth[i], 1, -1)
            jumps.append((row, t, state))
            live = state > 0
            row, t, state = row[live], t[live], state[live]
            if not len(row):
                break
        rows, times, states = (np.concatenate(column) for column in zip(*jumps))
        if len(row):
            lowest = rows == row[0]
            raise NonAbsorbedPathError(
                f"birth-death path not absorbed within {self.max_jumps} jumps "
                "(the jump budget max_jumps is too small)",
                BirthDeathPath(self.initial, np.array([self.max_jumps]), times[lowest], states[lowest]),
            )
        order = np.argsort(rows, kind="stable")
        return BirthDeathPath(self.initial, np.bincount(rows, minlength=size), times[order], states[order])

    def support_end(self):
        return math.inf

    def tail_bound(self, cut, mu):
        # The phase-type integrated tail of the absorption time.
        return self.state_cap / mu * birth_death_tail_integral(self, cut)

    def unit_remainders(self, k):
        # Both terms are P(tau > j) <= int_{j-1}^j P(tau > x) dx for the
        # absorption time tau.
        bound = birth_death_tail_integral(self, k - 1)
        return bound, bound


class SpikeTrain(Record):
    """Unit pulses with quadratically shrinking width, one per ``[k, k+1)``."""

    kind: ClassVar[str] = "spike_train"

    def sample(self, rng, size):
        return SpikePath(rng.uniform(size=(size, 1)))

    def support_end(self):
        return math.inf

    def tail_bound(self, cut, mu):
        # The quadratic decay of the pulse-hit probability.
        if cut <= 1.0:
            return math.inf
        return 1.0 / (mu * (cut - 1.0))

    def unit_remainders(self, k):
        # The mean terms are 1 / (j^2 + 1) <= int_{j-1}^j dx / (x^2 + 1);
        # every path hits 1 in every unit from j = 1 on.  The integral
        # pi/2 - atan(k - 1) is formed as atan2(1, k - 1), which does not cancel.
        return math.atan2(1.0, k - 1), math.inf


KernelSpec = DeterministicTable | Indicator | ScaledExpDecay | ScaledTable | BirthDeath | SpikeTrain


# --------------------------------------------------------------------------
# Path samples


def _listed(times, after, keep, horizon):
    """Ragged rows of the ``(k, m)`` broadcasts of ``times`` and ``after``: the entries ``keep`` holds before ``horizon``."""
    times, after = np.broadcast_arrays(times, after)
    keep = keep & (times < horizon)
    return keep.sum(axis=1), times[keep], after[keep]


class TablePath(Record, eq=False):
    """Realizations of a (possibly scaled) deterministic table, one scale per row."""

    table: DeterministicTable
    scale: np.ndarray

    def values(self, ts):
        return self.scale * self.table.value(np.asarray(ts, dtype=float))

    def jumps(self, horizon):
        return _listed(np.array(self.table.breakpoints), self.scale * np.array(self.table.values), True, horizon)


class IndicatorPath(Record, eq=False):
    """Pulses: row ``i`` is 1 on [0, eta[i]), 0 elsewhere."""

    eta: np.ndarray

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        return ((ts >= 0.0) & (ts < self.eta)).astype(float)

    def jumps(self, horizon):
        # Up to 1 at 0, down to 0 at eta; an empty pulse lists neither.
        return _listed(np.hstack([np.zeros_like(self.eta), self.eta]), np.array([1.0, 0.0]), self.eta > 0.0, horizon)


class ExpDecayPath(Record, eq=False):
    """Row ``i`` is eta[i] * exp(-decay t) on t >= 0."""

    eta: np.ndarray
    decay: float

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.where(ts >= 0.0, self.eta * np.exp(-self.decay * np.maximum(ts, 0.0)), 0.0)

    def jumps(self, horizon):
        return _listed(np.zeros_like(self.eta), self.eta, True, horizon)


class SpikePath(Record, eq=False):
    """Row ``i`` pulses in [k + k^2 eta[i]/(k^2+1), k + eta[i]) for every k >= 1."""

    eta: np.ndarray

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        k = np.floor(ts)
        x = ts - k
        hit = (ts >= 1.0) & (x < self.eta) & (x * (k * k + 1.0) >= k * k * self.eta)
        return hit.astype(float)

    def jumps(self, horizon):
        # Each pulse's start, the first t at which ``values`` reads 1 (kept in its unit though it rounds), then
        # its end, the first t with t - k >= eta, written in place, in turn.  Rows with eta = 0 never pulse, and
        # are not built.
        pulsing = self.eta[:, 0] > 0.0
        eta = self.eta[pulsing]
        k = np.arange(1.0, horizon)
        times = np.empty((len(eta), len(k), 2))
        start, end = times[..., 0], times[..., 1]
        np.multiply(k * k, eta, out=start)  # k + k^2 eta / (k^2 + 1), as (k * k * eta) / (k * k + 1) + k
        start /= k * k + 1.0
        start += k
        # Step up one spacing of k where the rounded start fails values' test (t - k) (k^2 + 1) >= k^2 eta.
        np.subtract(start, k, out=end)
        end *= k * k + 1.0
        start += (end < k * k * eta) * np.spacing(k)
        np.minimum(start, np.nextafter(k + 1.0, 0.0), out=start)
        np.add(k, eta, out=end)  # end - k is exact: step up one spacing of k where k + eta rounded down
        end += (end - k < eta) * np.spacing(k)
        times = times.reshape(len(eta), -1)
        after = np.zeros(times.shape)
        after[:, ::2] = 1.0
        counts = np.zeros(len(self.eta), dtype=np.intp)
        if times.max(initial=-np.inf) < horizon:
            # Every time is listed: no mask to gather through.
            counts[pulsing] = times.shape[1]
            return counts, times.ravel(), after.ravel()
        counts[pulsing], times, after = _listed(times, after, True, horizon)
        return counts, times, after


class BirthDeathPath(Record, eq=False):
    """Chains started at ``initial``, their jumps as ragged rows.

    Row ``i`` jumps ``counts[i]`` times; its jump times and post-jump
    states are the next ``counts[i]`` entries of ``times`` and ``states``,
    rows in order.
    """

    initial: int
    counts: np.ndarray
    times: np.ndarray
    states: np.ndarray

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        ends = np.cumsum(self.counts)
        starts = (ends - self.counts)[:, None]
        shape = (len(ends), ts.shape[-1])
        lo, hi = np.broadcast_to(starts, shape), np.broadcast_to(ends[:, None], shape)
        # Lock-step bisection over each row's slice: ``lo`` ends at the row's
        # first jump after ``t``, as np.searchsorted(row, t, "right") does.
        last = len(self.times) - 1
        for _ in range(int(self.counts.max()).bit_length()):
            mid = (lo + hi) // 2
            right = (lo < hi) & ~(ts < self.times[np.minimum(mid, last)])
            lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
        return np.where(ts >= 0.0, np.where(lo > starts, self.states[lo - 1], self.initial), 0.0)

    def jumps(self, horizon):
        inside = self.times < horizon
        rows = np.repeat(np.arange(len(self.counts)), self.counts)
        return np.bincount(rows[inside], minlength=len(self.counts)), self.times[inside], self.states[inside]


# --------------------------------------------------------------------------
# Operations


def sample_path(spec, rng, size):
    """Draw ``size`` independent trajectories of the kernel as one batched path.

    Its ``values`` maps times broadcast against a ``(size, 1)`` column to
    one row per path.  Every kernel but the birth-death chain draws as
    ``size`` one-row calls would.
    """
    return spec.sample(rng, size=size)


def unit_interval_sups(path, k_max):
    """Exact sups of ``|X|`` over ``[j, j + 1)``, ``j < k_max``: ``|X(j)|``, raised by the jumps listed inside."""
    counts, times, after = path.jumps(k_max)
    sups = np.abs(path.values(np.arange(k_max, dtype=float))).ravel()  # flat, for ufunc.at's fast path
    np.maximum.at(sups, np.repeat(np.arange(len(counts)) * k_max, counts) + times.astype(np.intp), np.abs(after))
    return sups.reshape(len(counts), k_max)


@lru_cache(maxsize=32)
def _bd_generator(spec):
    """Generator of the chain restricted to transient states 1..cap."""
    cap = spec.state_cap
    b = np.array(spec.birth_rates)
    b[cap - 1] = 0.0
    d = np.array(spec.death_rates)
    gen = np.diag(-(b + d))
    if cap > 1:
        gen += np.diag(b[:-1], 1) + np.diag(d[1:], -1)
    return gen


def birth_death_tail_integral(spec, lo):
    """``integral_lo^inf P(tau > x) dx`` for the capped chain; exact.

    This is the phase-type integrated tail used to bound how much mass a
    stationary evaluation can miss beyond its window (the generator is
    stable because every death rate is positive, so the inverse exists).
    ``lo`` is used as given: rounded up, the integral would miss the mass
    just past the cut and no longer bound it.
    """
    from scipy.linalg import expm

    gen = _bd_generator(spec)
    y = expm(gen * max(float(lo), 0.0)) @ np.ones(len(gen))
    z = np.linalg.solve(gen, y)
    return max(float(-z[spec.initial - 1]), 0.0)
