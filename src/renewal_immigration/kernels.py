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
``sample(rng, size=None)``, ``support_end()`` (time after which every path
is 0, or ``inf``), ``tail_bound(cut, mu, window)`` (expected stationary mass
missed from points beyond ``cut``, for unbounded support only; raises
:class:`~renewal_immigration.errors.TruncationError` when the stationary
series diverges), ``to_config()`` and ``from_config(body)``.  A new kind is
one such class added to :data:`KernelSpec`, which ``_KINDS`` is built from.

``sample(rng)`` draws one path; ``sample(rng, size=k)`` draws ``k`` paths
into one object, from the same random draws in the same order as ``k``
single calls.  A mark kernel's batched path holds a ``(k, 1)`` column of
marks, so its ``values`` takes a ``(k, g)`` array of times and returns one
row per path; ``path[lo:hi]`` keeps rows ``lo..hi-1``.
"""

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import ClassVar, get_args

import numpy as np

from .distributions import Law, abs_quantile, law_from_config, law_to_config
from .errors import KernelError, NonAbsorbedPathError, TruncationError

__all__ = [
    "DeterministicTable",
    "Indicator",
    "ScaledExpDecay",
    "ScaledTable",
    "BirthDeath",
    "SpikeTrain",
    "KernelSpec",
    "PathSample",
    "PathStack",
    "sample_path",
    "eval_path",
    "sup_over_interval",
    "absorption_time",
    "birth_death_tail_integral",
    "kernel_to_config",
    "kernel_from_config",
]

# The exponential-decay tail bound majorizes |eta| by this quantile (a
# probabilistic bound).
EXP_DECAY_QUANTILE = 1.0 - 1e-6


# --------------------------------------------------------------------------
# Config fields


def _real(value, name):
    # Exact JSON types: a bool is not a number here.
    if type(value) not in (int, float) or not math.isfinite(value):
        raise KernelError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _reals(value, name):
    if type(value) not in (list, tuple):
        raise KernelError(f"{name} must be a list of finite numbers, got {value!r}")
    return tuple(_real(v, name) for v in value)


def _integer(value, name):
    x = _real(value, name)
    if x != int(x):
        raise KernelError(f"{name} must be an integer, got {value!r}")
    return int(x)


def _marks(draws, size):
    """One mark as a float, or ``size`` marks as a ``(size, 1)`` column."""
    return float(draws) if size is None else np.reshape(draws, (size, 1))


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
        bp = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        idx = np.searchsorted(bp, t, side="right") - 1
        out = np.where(idx >= 0, vals[np.maximum(idx, 0)], 0.0)
        return float(out) if np.ndim(t) == 0 else out

    def sample(self, rng, size=None):
        return TablePath(self, 1.0 if size is None else np.ones((size, 1)))

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

    def tail_bound(self, cut, mu, window):
        raise TruncationError(
            "table does not vanish at infinity, so the stationary series diverges", bound=math.inf
        )

    def fixed_discontinuities(self):
        """Breakpoints where the value actually jumps (recorded, not acted on)."""
        out = []
        prev = 0.0
        for b, v in zip(self.breakpoints, self.values):
            if v != prev:
                out.append(b)
            prev = v
        return tuple(out)

    def to_config(self):
        return {"kind": self.kind, "breakpoints": list(self.breakpoints), "values": list(self.values)}

    @classmethod
    def from_config(cls, body):
        return cls(_reals(body["breakpoints"], "breakpoints"), _reals(body["values"], "values"))


@dataclass(frozen=True)
class Indicator:
    """``X(t) = 1`` on ``[0, eta)``, 0 elsewhere; ``eta`` drawn per path."""

    kind: ClassVar[str] = "indicator"

    eta: Law

    def __post_init__(self):
        if self.eta.support()[0] < 0:
            raise KernelError("indicator pulse length law must be nonnegative")

    def sample(self, rng, size=None):
        return IndicatorPath(_marks(self.eta.sample(rng, size=size), size))

    def support_end(self):
        return self.eta.support()[1]

    def tail_bound(self, cut, mu, window):
        # The pulse law's integrated tail.
        eta = self.eta
        if math.isinf(eta.mean()):
            raise TruncationError(
                "pulse length has infinite mean, so the stationary series diverges a.s.", bound=math.inf
            )
        return max(float(eta.mean() - eta.mean_min(cut)) / mu, 0.0)

    def to_config(self):
        return {"kind": self.kind, "eta": law_to_config(self.eta)}

    @classmethod
    def from_config(cls, body):
        return cls(law_from_config(body["eta"]))


@dataclass(frozen=True)
class ScaledExpDecay:
    """``X(t) = eta * exp(-decay * t)`` on ``t >= 0``."""

    kind: ClassVar[str] = "scaled_exp_decay"

    eta: Law
    decay: float

    def __post_init__(self):
        if not (self.decay > 0 and math.isfinite(self.decay)):
            raise KernelError("decay rate must be positive and finite")

    def sample(self, rng, size=None):
        return ExpDecayPath(_marks(self.eta.sample(rng, size=size), size), self.decay)

    def support_end(self):
        return 0.0 if _eta_is_zero(self.eta) else math.inf

    def tail_bound(self, cut, mu, window):
        # A high-quantile majorant of |eta| times a geometric series in the
        # window's smallest realized gap.
        q = abs_quantile(self.eta, EXP_DECAY_QUANTILE)
        gap = max(float(np.min(window.gaps())), 1e-12)
        denom = -math.expm1(-self.decay * gap)
        return q * math.exp(-self.decay * cut) / denom

    def to_config(self):
        return {"kind": self.kind, "eta": law_to_config(self.eta), "decay": self.decay}

    @classmethod
    def from_config(cls, body):
        return cls(law_from_config(body["eta"]), _real(body["decay"], "decay"))


@dataclass(frozen=True)
class ScaledTable:
    """``X(t) = eta * table(t)`` with a fresh ``eta`` per path."""

    kind: ClassVar[str] = "scaled_table"

    eta: Law
    table: DeterministicTable

    def sample(self, rng, size=None):
        return TablePath(self.table, _marks(self.eta.sample(rng, size=size), size))

    def support_end(self):
        return self.table.support_end() if not _eta_is_zero(self.eta) else 0.0

    def tail_bound(self, cut, mu, window):
        raise TruncationError(
            "scaled table does not vanish at infinity, so the stationary series diverges a.s.",
            bound=math.inf,
        )

    def to_config(self):
        return {"kind": self.kind, "eta": law_to_config(self.eta), "table": self.table.to_config()}

    @classmethod
    def from_config(cls, body):
        table = kernel_from_config(body["table"])
        if table.kind != DeterministicTable.kind:
            raise KernelError(f"table must be a {DeterministicTable.kind!r} kernel, got {table.kind!r}")
        return cls(law_from_config(body["eta"]), table)


@dataclass(frozen=True)
class BirthDeath:
    """Birth-death chain started at ``initial``, absorbed at 0.

    ``birth_rates[i-1]`` / ``death_rates[i-1]`` are the rates out of state
    ``i`` (1-based, up to ``state_cap``); births out of ``state_cap`` are
    suppressed.  ``max_jumps`` is the simulation budget: a path that is not
    absorbed within it raises :class:`NonAbsorbedPathError` carrying the
    partial path.
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

    def sample(self, rng, size=None):
        # Each jump draws an exponential and then a uniform, so k paths are
        # drawn one after another, exactly as k single calls would.
        if size is None:
            return self._path(rng)
        return PathStack(tuple(self._path(rng) for _ in range(size)))

    def _path(self, rng):
        state = self.initial
        t = 0.0
        times, states = [], []
        for _ in range(self.max_jumps):
            b = self.birth_rates[state - 1] if state < self.state_cap else 0.0
            d = self.death_rates[state - 1]
            rate = b + d
            t += rng.exponential(1.0 / rate)
            state = state + 1 if rng.random() * rate < b else state - 1
            times.append(t)
            states.append(state)
            if state == 0:
                return BirthDeathPath(np.array(times), np.array(states), self.initial, absorbed=True)
        partial = BirthDeathPath(np.array(times), np.array(states), self.initial, absorbed=False)
        raise NonAbsorbedPathError(
            f"birth-death path not absorbed within {self.max_jumps} jumps "
            "(expected absorption time may be infinite)",
            partial,
        )

    def support_end(self):
        return math.inf

    def tail_bound(self, cut, mu, window):
        # The phase-type integrated tail of the absorption time.
        return self.state_cap / mu * birth_death_tail_integral(self, cut)

    def to_config(self):
        return {
            "kind": self.kind,
            "initial": self.initial,
            "birth_rates": list(self.birth_rates),
            "death_rates": list(self.death_rates),
            "state_cap": self.state_cap,
            "max_jumps": self.max_jumps,
        }

    @classmethod
    def from_config(cls, body):
        return cls(
            initial=_integer(body["initial"], "initial"),
            birth_rates=_reals(body["birth_rates"], "birth_rates"),
            death_rates=_reals(body["death_rates"], "death_rates"),
            state_cap=_integer(body["state_cap"], "state_cap"),
            max_jumps=_integer(body.get("max_jumps", cls.max_jumps), "max_jumps"),
        )


@dataclass(frozen=True)
class SpikeTrain:
    """Unit pulses with quadratically shrinking width, one per ``[k, k+1)``."""

    kind: ClassVar[str] = "spike_train"

    def sample(self, rng, size=None):
        return SpikePath(_marks(rng.uniform(size=size), size))

    def support_end(self):
        return math.inf

    def tail_bound(self, cut, mu, window):
        # The quadratic decay of the pulse-hit probability.
        if cut <= 1.0:
            return math.inf
        return 1.0 / (mu * (cut - 1.0))

    def to_config(self):
        return {"kind": self.kind}

    @classmethod
    def from_config(cls, body):
        return cls()


KernelSpec = DeterministicTable | Indicator | ScaledExpDecay | ScaledTable | BirthDeath | SpikeTrain

_KINDS = {cls.kind: cls for cls in get_args(KernelSpec)}


# --------------------------------------------------------------------------
# Path samples


def _step_sup(breaks, vals, lo, hi, include_right):
    """Sup of |step function| over [lo, hi] (or [lo, hi)); exact.

    ``breaks``/``vals`` describe a right-continuous step function that is 0
    before ``breaks[0]``.  The sup over a closed interval of such a function
    is attained at ``lo`` or at a breakpoint inside the interval.
    """
    v_lo_idx = int(np.searchsorted(breaks, lo, side="right")) - 1
    best = abs(vals[v_lo_idx]) if v_lo_idx >= 0 else 0.0
    i0 = int(np.searchsorted(breaks, lo, side="right"))
    i1 = int(np.searchsorted(breaks, hi, side="right" if include_right else "left"))
    if i1 > i0:
        best = max(best, float(np.max(np.abs(vals[i0:i1]))))
    return best


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
    """Realization of a (possibly scaled) deterministic table."""

    table: DeterministicTable
    scale: float | np.ndarray = 1.0

    def __getitem__(self, rows):
        return TablePath(self.table, self.scale[rows])

    def value(self, t):
        return self.scale * self.table.value(t)

    def values(self, ts):
        return self.scale * self.table.value(np.asarray(ts, dtype=float))

    def sup_abs(self, lo, hi, include_right=True):
        return abs(self.scale) * _step_sup(
            np.asarray(self.table.breakpoints), np.asarray(self.table.values), lo, hi, include_right
        )

    def unit_sups(self, k_max):
        return abs(self.scale) * _step_unit_sups(self.table.breakpoints, self.table.values, k_max)

    def absorption(self):
        end = 0.0 if self.scale == 0.0 else self.table.support_end()
        return end if math.isfinite(end) else None


@dataclass(frozen=True)
class IndicatorPath:
    """One pulse: 1 on [0, eta), 0 elsewhere."""

    eta: float | np.ndarray

    def __getitem__(self, rows):
        return IndicatorPath(self.eta[rows])

    def value(self, t):
        return 1.0 if 0.0 <= t < self.eta else 0.0

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        return ((ts >= 0.0) & (ts < self.eta)).astype(float)

    def sup_abs(self, lo, hi, include_right=True):
        if self.eta <= 0.0:
            return 0.0
        right_ok = hi >= 0.0 if include_right else hi > 0.0
        return 1.0 if (lo < self.eta and right_ok) else 0.0

    def unit_sups(self, k_max):
        return (np.arange(k_max) < self.eta).astype(float)

    def absorption(self):
        return max(self.eta, 0.0)


@dataclass(frozen=True)
class ExpDecayPath:
    """eta * exp(-decay t) on t >= 0."""

    eta: float | np.ndarray
    decay: float

    def __getitem__(self, rows):
        return ExpDecayPath(self.eta[rows], self.decay)

    def value(self, t):
        return self.eta * math.exp(-self.decay * t) if t >= 0.0 else 0.0

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.where(ts >= 0.0, self.eta * np.exp(-self.decay * np.maximum(ts, 0.0)), 0.0)

    def sup_abs(self, lo, hi, include_right=True):
        right_ok = hi >= 0.0 if include_right else hi > 0.0
        if not right_ok:
            return 0.0
        return abs(self.eta) * math.exp(-self.decay * max(lo, 0.0))

    def unit_sups(self, k_max):
        return abs(self.eta) * np.exp(-self.decay * np.arange(k_max))

    def absorption(self):
        # Strictly positive for eta != 0, so never absorbed.
        return None if self.eta != 0.0 else 0.0


@dataclass(frozen=True)
class SpikePath:
    """Pulse in [k + k^2 eta/(k^2+1), k + eta) for every k >= 1."""

    eta: float | np.ndarray

    def __getitem__(self, rows):
        return SpikePath(self.eta[rows])

    def _bounds(self, k):
        return k + k * k * self.eta / (k * k + 1.0), k + self.eta

    def value(self, t):
        if t < 1.0 or self.eta <= 0.0:
            return 0.0
        k = math.floor(t)
        x = t - k
        return 1.0 if (x < self.eta and x * (k * k + 1.0) >= k * k * self.eta) else 0.0

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        k = np.floor(ts)
        x = ts - k
        hit = (ts >= 1.0) & (x < self.eta) & (x * (k * k + 1.0) >= k * k * self.eta)
        return hit.astype(float)

    def sup_abs(self, lo, hi, include_right=True):
        if self.eta <= 0.0 or hi < 1.0:
            return 0.0
        k0 = max(1, int(math.ceil(lo)))
        if k0 + 1 <= hi:
            # A whole unit interval (hence a whole pulse) fits inside.
            return 1.0
        for k in range(max(1, int(math.floor(lo))), int(math.floor(hi)) + 1):
            a, b = self._bounds(k)
            right_ok = a <= hi if include_right else a < hi
            if right_ok and b > lo:
                return 1.0
        return 0.0

    def unit_sups(self, k_max):
        sups = np.ones(k_max) if self.eta > 0.0 else np.zeros(k_max)
        if k_max > 0:
            sups[0] = 0.0
        return sups

    def absorption(self):
        # Hits 0 between pulses but never stays there.
        return None if self.eta > 0.0 else 0.0


@dataclass(frozen=True)
class BirthDeathPath:
    """Jump times and post-jump states of one absorbed (or budget-cut) chain."""

    jump_times: np.ndarray
    states: np.ndarray
    initial: int
    absorbed: bool = True

    def _breaks_vals(self):
        breaks = np.concatenate([[0.0], self.jump_times])
        vals = np.concatenate([[float(self.initial)], self.states.astype(float)])
        return breaks, vals

    def value(self, t):
        if t < 0.0:
            return 0.0
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        return float(self.initial) if idx == 0 else float(self.states[idx - 1])

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.jump_times, ts, side="right")
        vals = np.concatenate([[float(self.initial)], self.states.astype(float)])
        return np.where(ts >= 0.0, vals[idx], 0.0)

    def sup_abs(self, lo, hi, include_right=True):
        breaks, vals = self._breaks_vals()
        return _step_sup(breaks, vals, lo, hi, include_right)

    def unit_sups(self, k_max):
        breaks, vals = self._breaks_vals()
        return _step_unit_sups(breaks, vals, k_max)

    def absorption(self):
        return float(self.jump_times[-1]) if self.absorbed and len(self.jump_times) else None


@dataclass(frozen=True)
class PathStack:
    """Independent paths drawn one by one, evaluated as rows of one array."""

    paths: tuple

    def __getitem__(self, rows):
        return PathStack(self.paths[rows])

    def values(self, ts):
        return np.array([path.values(row) for path, row in zip(self.paths, ts)])


PathSample = TablePath | IndicatorPath | ExpDecayPath | SpikePath | BirthDeathPath


# --------------------------------------------------------------------------
# Operations


def sample_path(spec, rng, size=None):
    """Draw one independent trajectory of the kernel, or ``size`` of them.

    ``size`` paths come back as one batched path whose ``values`` maps a
    ``(size, g)`` array of times to one row per path; they use the same
    random draws as ``size`` single calls.
    """
    return spec.sample(rng, size=size)


def eval_path(path, t):
    """Trajectory value at time ``t``; exactly 0 for ``t < 0``."""
    return path.value(t)


def sup_over_interval(path, lo, hi):
    """Sup of ``|path|`` over the closed interval [lo, hi]; exact."""
    if lo > hi:
        raise KernelError(f"need lo <= hi, got [{lo}, {hi}]")
    return path.sup_abs(lo, hi, include_right=True)


def absorption_time(path):
    """First time after which the path is identically 0, or None."""
    return path.absorption()


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


def birth_death_survival(spec, x):
    """P(tau > x) for the absorption time of the capped chain; exact."""
    from scipy.linalg import expm

    gen = _bd_generator(spec)
    ones = np.ones(len(gen))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.array([float((expm(gen * xi) @ ones)[spec.initial - 1]) for xi in xs])
    vals = np.clip(vals, 0.0, 1.0)
    return float(vals[0]) if np.ndim(x) == 0 else vals


@lru_cache(maxsize=512)
def _bd_tail_integral_cached(spec, lo):
    from scipy.linalg import expm

    gen = _bd_generator(spec)
    y = expm(gen * lo) @ np.ones(len(gen))
    z = np.linalg.solve(gen, y)
    return max(float(-z[spec.initial - 1]), 0.0)


def birth_death_tail_integral(spec, lo):
    """``integral_lo^inf P(tau > x) dx`` for the capped chain; exact.

    This is the phase-type integrated tail used to bound how much mass a
    stationary evaluation can miss beyond its window (the generator is
    stable because every death rate is positive, so the inverse exists).
    """
    return _bd_tail_integral_cached(spec, max(round(float(lo), 9), 0.0))


# --------------------------------------------------------------------------
# Config round-trip


def kernel_to_config(spec):
    return spec.to_config()


def kernel_from_config(config):
    """Build a kernel spec; unknown keys and non-numeric fields are errors."""
    if not isinstance(config, dict) or "kind" not in config:
        raise KernelError("kernel config must be a dict with a 'kind' key")
    kind = config["kind"]
    try:
        cls = _KINDS[kind]
    except (KeyError, TypeError):
        raise KernelError(f"unknown kernel kind {kind!r}") from None
    body = {k: v for k, v in config.items() if k != "kind"}
    unknown = sorted(set(body) - {f.name for f in fields(cls)})
    if unknown:
        raise KernelError(f"kernel config for kind {kind!r} has unknown keys {unknown}")
    try:
        return cls.from_config(body)
    except KeyError as exc:
        raise KernelError(f"kernel config for kind {kind!r} is malformed: missing {exc}") from exc
