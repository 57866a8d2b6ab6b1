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
is 0, or ``inf``) and ``tail_bound(cut, mu)``.  For unbounded support only,
``tail_bound`` bounds the expected stationary mass missed from points
beyond ``cut`` when interarrivals have mean ``mu``.  By Campbell's formula
that mass is ``int_cut^inf E|X(s)| ds / mu``, so the bound depends on the
kernel, ``cut`` and ``mu`` alone and nothing has to be drawn to find it.
For an indicator it is ``eta.tail_mean(cut) / mu``, formed directly as
``E[(eta - cut)^+]`` rather than as a difference of two means, so it
does not cancel to 0 however small the tail is.
It raises :class:`~renewal_immigration.errors.TruncationError` when the
expected missed mass is infinite.  A mark law ``eta`` may have an
infinite mean but not one that overflows a float: such a spec raises
:class:`~renewal_immigration.errors.KernelError` when it is built.

A spec's config is ``kind`` plus one key per dataclass field, read by the
field's annotated type (``float``, ``int``, a ``tuple`` of floats, a
:data:`~renewal_immigration.distributions.Law` or a nested spec), as laws
are read by theirs.  A new kind is one such class added to
:data:`KernelSpec`, which ``_KINDS`` is built from.

``sample(rng, size=k)`` draws ``k`` paths as one batched path.  It has
two methods, each with one result row per path: ``values(ts)`` at times
that broadcast against a ``(k, 1)`` column (a shared ``(g,)`` grid or a
``(k, g)`` array), and ``unit_sups(k_max)``, the exact sups of ``|X|``
over ``[j, j + 1)`` for ``j < k_max`` as a ``(k, k_max)`` array.  A
mark kernel's batch holds a ``(k, 1)`` column of marks and uses the same
random draws, in the same order, as ``k`` calls with ``size=1``.  A
birth-death batch steps all its chains at once, one array draw per step
for the holding times and one for the moves, so its draws depend on
``k``; it holds their jumps as ragged rows.
"""

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import ClassVar, get_args

import numpy as np

from .distributions import Law, config_fields, integer, law_from_config, law_to_config, number, numbers
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
    "birth_death_tail_integral",
    "kernel_to_config",
    "kernel_from_config",
]

# --------------------------------------------------------------------------
# Helpers


def _marks(draws, size):
    """``size`` marks as a ``(size, 1)`` column."""
    return np.reshape(draws, (size, 1))


def _check_mark(eta):
    """Reject a mark law whose mean overflows a float; an infinite mean is allowed."""
    try:
        eta.mean()
    except ArithmeticError:
        raise KernelError("mark law's mean overflows a float") from None


def _eta_is_zero(eta):
    lo, hi = eta.support()
    return lo == 0.0 and hi == 0.0


# --------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class DeterministicTable:
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


@dataclass(frozen=True)
class Indicator:
    """``X(t) = 1`` on ``[0, eta)``, 0 elsewhere; ``eta`` drawn per path."""

    kind: ClassVar[str] = "indicator"

    eta: Law

    def __post_init__(self):
        _check_mark(self.eta)
        if self.eta.support()[0] < 0:
            raise KernelError("indicator pulse length law must be nonnegative")

    def sample(self, rng, size):
        return IndicatorPath(_marks(self.eta.sample(rng, size=size), size))

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


@dataclass(frozen=True)
class ScaledExpDecay:
    """``X(t) = eta * exp(-decay * t)`` on ``t >= 0``."""

    kind: ClassVar[str] = "scaled_exp_decay"

    eta: Law
    decay: float

    def __post_init__(self):
        _check_mark(self.eta)
        if not (self.decay > 0 and math.isfinite(self.decay)):
            raise KernelError("decay rate must be positive and finite")

    def sample(self, rng, size):
        return ExpDecayPath(_marks(self.eta.sample(rng, size=size), size), self.decay)

    def support_end(self):
        return 0.0 if _eta_is_zero(self.eta) else math.inf

    def tail_bound(self, cut, mu):
        # E|eta| int_cut^inf exp(-decay s) ds / mu.  The signed mark laws are
        # all bounded, so their largest |value| stands in for E|eta|.
        lo, hi = self.eta.support()
        mean_abs = self.eta.mean() if lo >= 0 else max(abs(lo), abs(hi))
        if math.isinf(mean_abs):
            raise TruncationError(
                "mark |eta| has infinite mean, so the expected missed mass is infinite", bound=math.inf
            )
        return mean_abs * math.exp(-self.decay * cut) / (self.decay * mu)


@dataclass(frozen=True)
class ScaledTable:
    """``X(t) = eta * table(t)`` with a fresh ``eta`` per path."""

    kind: ClassVar[str] = "scaled_table"

    eta: Law
    table: DeterministicTable

    def __post_init__(self):
        _check_mark(self.eta)

    def sample(self, rng, size):
        return TablePath(self.table, _marks(self.eta.sample(rng, size=size), size))

    def support_end(self):
        return self.table.support_end() if not _eta_is_zero(self.eta) else 0.0

    def tail_bound(self, cut, mu):
        raise TruncationError(
            "scaled table does not vanish at infinity, so the stationary series diverges a.s.",
            bound=math.inf,
        )


@dataclass(frozen=True)
class BirthDeath:
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
                "(expected absorption time may be infinite)",
                BirthDeathPath(self.initial, np.array([self.max_jumps]), times[lowest], states[lowest]),
            )
        order = np.argsort(rows, kind="stable")
        return BirthDeathPath(self.initial, np.bincount(rows, minlength=size), times[order], states[order])

    def support_end(self):
        return math.inf

    def tail_bound(self, cut, mu):
        # The phase-type integrated tail of the absorption time.
        return self.state_cap / mu * birth_death_tail_integral(self, cut)


@dataclass(frozen=True)
class SpikeTrain:
    """Unit pulses with quadratically shrinking width, one per ``[k, k+1)``."""

    kind: ClassVar[str] = "spike_train"

    def sample(self, rng, size):
        return SpikePath(_marks(rng.uniform(size=size), size))

    def support_end(self):
        return math.inf

    def tail_bound(self, cut, mu):
        # The quadratic decay of the pulse-hit probability.
        if cut <= 1.0:
            return math.inf
        return 1.0 / (mu * (cut - 1.0))


KernelSpec = DeterministicTable | Indicator | ScaledExpDecay | ScaledTable | BirthDeath | SpikeTrain

_KINDS = {cls.kind: cls for cls in get_args(KernelSpec)}


# --------------------------------------------------------------------------
# Path samples


def _step_unit_sups(breaks, vals, k_max):
    """Per-unit-interval sups of |step function| for k = 0..k_max-1."""
    sups = np.zeros(k_max)
    edges = list(breaks) + [math.inf]
    for i, v in enumerate(vals):
        if v == 0.0:
            continue
        s, e = edges[i], edges[i + 1]
        k_lo = max(0, int(math.floor(s)))
        k_hi = k_max - 1 if math.isinf(e) else min(k_max - 1, int(math.ceil(e)) - 1)
        if k_hi >= k_lo:
            sups[k_lo : k_hi + 1] = np.maximum(sups[k_lo : k_hi + 1], abs(v))
    return sups


@dataclass(frozen=True)
class TablePath:
    """Realizations of a (possibly scaled) deterministic table, one scale per row."""

    table: DeterministicTable
    scale: np.ndarray

    def values(self, ts):
        return self.scale * self.table.value(np.asarray(ts, dtype=float))

    def unit_sups(self, k_max):
        return np.abs(self.scale) * _step_unit_sups(self.table.breakpoints, self.table.values, k_max)


@dataclass(frozen=True)
class IndicatorPath:
    """Pulses: row ``i`` is 1 on [0, eta[i]), 0 elsewhere."""

    eta: np.ndarray

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        return ((ts >= 0.0) & (ts < self.eta)).astype(float)

    def unit_sups(self, k_max):
        return (np.arange(k_max) < self.eta).astype(float)


@dataclass(frozen=True)
class ExpDecayPath:
    """Row ``i`` is eta[i] * exp(-decay t) on t >= 0."""

    eta: np.ndarray
    decay: float

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.where(ts >= 0.0, self.eta * np.exp(-self.decay * np.maximum(ts, 0.0)), 0.0)

    def unit_sups(self, k_max):
        return np.abs(self.eta) * np.exp(-self.decay * np.arange(k_max))


@dataclass(frozen=True)
class SpikePath:
    """Row ``i`` pulses in [k + k^2 eta[i]/(k^2+1), k + eta[i]) for every k >= 1."""

    eta: np.ndarray

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        k = np.floor(ts)
        x = ts - k
        hit = (ts >= 1.0) & (x < self.eta) & (x * (k * k + 1.0) >= k * k * self.eta)
        return hit.astype(float)

    def unit_sups(self, k_max):
        return ((self.eta > 0.0) & (np.arange(k_max) >= 1)).astype(float)


@dataclass(frozen=True)
class BirthDeathPath:
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

    def unit_sups(self, k_max):
        # The value at each j, raised by the states entered in [j, j + 1).
        sups = self.values(np.arange(k_max, dtype=float))
        unit = np.floor(self.times)
        rows = np.repeat(np.arange(len(self.counts)), self.counts)
        inside = unit < k_max
        np.maximum.at(sups, (rows[inside], unit[inside].astype(np.intp)), self.states[inside])
        return sups


# --------------------------------------------------------------------------
# Operations


def sample_path(spec, rng, size):
    """Draw ``size`` independent trajectories of the kernel as one batched path.

    Its ``values`` maps times broadcast against a ``(size, 1)`` column to
    one row per path.  Every kernel but the birth-death chain draws as
    ``size`` one-row calls would.
    """
    return spec.sample(rng, size=size)


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


# --------------------------------------------------------------------------
# Config round-trip


def kernel_to_config(spec):
    """Serialize a kernel spec: its ``kind`` and every field, tuples as lists."""
    config = {"kind": spec.kind}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type is tuple:
            value = list(value)
        elif f.type is Law:
            value = law_to_config(value)
        elif f.type not in (float, int):
            value = kernel_to_config(value)
        config[f.name] = value
    return config


def _field_value(f, value):
    """One field of a kernel config, parsed by the field's annotated type."""
    parse = {float: number, int: integer, tuple: numbers}.get(f.type)
    if parse is not None:
        return parse(value, f.name, KernelError)
    if f.type is Law:
        return law_from_config(value)
    spec = kernel_from_config(value)
    if not isinstance(spec, f.type):
        raise KernelError(f"{f.name}: must be a {f.type.kind!r} kernel, got {spec.kind!r}")
    return spec


def kernel_from_config(config):
    """Build a kernel spec; unknown keys and non-numeric fields are errors."""
    cls, items = config_fields(config, "kernel", "kind", _KINDS, KernelError)
    return cls(**{f.name: _field_value(f, value) for f, value in items})
