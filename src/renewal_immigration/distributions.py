"""Parametric laws for interarrival times and kernel marks.

The same family classes serve two roles:

* interarrival laws (the renewal increments): must put all mass on
  (0, inf) and have a finite positive mean -- enforce with
  :func:`check_interarrival`;
* mark laws for scaled kernels (``eta``): may be signed, may have an atom
  at 0, and may be heavy-tailed (:class:`Pareto`).

Every draw is a batch: ``sample(rng, size)`` and ``size_biased_sample(rng,
size)`` return an array of shape ``size``, which they require, and draw as
that many draws of ``size=1`` would.  Beyond plain sampling, interarrival
laws expose the two derived objects a stationary renewal construction
needs: the size-biased law of the interval straddling a uniform time point,
and the integrated-tail law of the stationary delay / limiting overshoot.

Every law has one tail method, ``tail_mean(x) = E[(X - x)^+]`` for
``x >= 0``, in closed form and not as ``E[X] - E[min(X, x)]``, which
cancels, so it keeps its relative accuracy far out in the tail.  The
integrated-tail CDF and the indicator kernel's truncation bound are both
read from it.
Normal (hence log-normal) tails are computed with ``math.erfc``, one value
at a time into a float array, so no array of Python floats is ever built;
only the gamma tail imports ``scipy.special``, when called, and only the
lattice span of a finite discrete law imports ``fractions``.

A law's config form, e.g. ``{"family": "exponential", "rate": 1.0}``, is
read and written by :mod:`.config` alone.
"""

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import ClassVar

import numpy as np

from .errors import LawError

__all__ = [
    "Exponential",
    "Gamma",
    "Uniform",
    "LogNormal",
    "PointMass",
    "FiniteDiscrete",
    "Pareto",
    "Law",
    "check_interarrival",
    "sample_stationary_delay",
    "integrated_tail_cdf",
    "normal_cdf",
    "is_lattice",
    "lattice_span",
]

# Atoms are treated as rational (hence lattice-detectable) only up to this
# denominator; beyond it commensurability of floats is not decidable.  The
# acceptance tolerance sits at float-rounding scale: continued-fraction
# approximants of irrationals with denominator <= 10^6 stay ~q^-2 >> 1e-12
# away, while decimal literals round to within a few ulp.
LATTICE_MAX_DENOMINATOR = 10**6
_LATTICE_ATOL = 4e-15

def normal_cdf(z):
    """Standard normal CDF, ``erfc(-z / sqrt 2) / 2`` element-wise, as float64.

    The argument is scaled by the rounded ``1 / sqrt 2`` as ``scipy.special.ndtr``
    scales it, so both see the same ``erfc`` argument.  ``math.erfc`` is
    mapped over it one value at a time, straight into a float array of its
    shape (0-d in, 0-d out); NaN and infinities pass through.
    """
    w = np.asarray(z, dtype=float) * -math.sqrt(0.5)
    return 0.5 * np.fromiter(map(math.erfc, w.ravel()), float, w.size).reshape(w.shape)


def _mills(w):
    """Mills ratio ``Phi(-w) / phi(w)``; from w = 20 on, by its continued fraction.

    ``w / (w^2 + 1) < Phi(-w) / phi(w) < 1 / w``, so it stays a normal
    float where ``Phi(-w)`` and ``phi(w)`` underflow.  Twelve levels of
    ``1 / (w + 1 / (w + 2 / (w + ...)))`` are exact to rounding at w >= 20.
    """
    w = np.asarray(w, dtype=float)
    near, far = np.minimum(w, 20.0), np.maximum(w, 20.0)
    t = far
    for k in range(12, 0, -1):
        t = far + k / t
    return np.where(w < 20.0, normal_cdf(-near) * math.sqrt(2.0 * math.pi) * np.exp(0.5 * near**2), 1.0 / t)


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate (mean ``1/rate``)."""

    family: ClassVar[str] = "exponential"

    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise LawError(f"exponential rate must be positive and finite, got {self.rate}")

    def mean(self):
        return 1.0 / self.rate

    def second_moment(self):
        return 2.0 / self.rate**2

    def support(self):
        return 0.0, math.inf

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size=size)

    def tail_mean(self, x):
        """``E[(X - x)^+]`` for ``x >= 0``."""
        return np.exp(-self.rate * np.asarray(x, dtype=float)) / self.rate

    def size_biased_sample(self, rng, size):
        # x * rate * e^{-rate x} / mean is a Gamma(2, 1/rate) density.
        return rng.gamma(2.0, 1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Gamma:
    """Gamma law with shape ``k`` and scale ``theta`` (mean ``k*theta``)."""

    family: ClassVar[str] = "gamma"

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise LawError("gamma shape and scale must be positive")

    def mean(self):
        return self.shape * self.scale

    def second_moment(self):
        return self.shape * (self.shape + 1.0) * self.scale**2

    def support(self):
        return 0.0, math.inf

    def sample(self, rng, size):
        return rng.gamma(self.shape, self.scale, size=size)

    def tail_mean(self, x):
        # theta (k Q(k + 1, y) - y Q(k, y)) at y = x / theta, Q the upper
        # regularized incomplete gamma function.  Where x / theta overflows
        # (x = inf included), y is capped at the largest float, so that no
        # inf * 0 term arises and the tail is 0.
        from scipy.special import gammaincc

        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            y = np.minimum(x / self.scale, np.finfo(float).max)
        out = self.scale * (self.shape * gammaincc(self.shape + 1.0, y) - y * gammaincc(self.shape, y))
        return np.where(x < math.inf, out, 0.0)

    def size_biased_sample(self, rng, size):
        # Size-biasing a Gamma(k, theta) bumps the shape by one.
        return rng.gamma(self.shape + 1.0, self.scale, size=size)


@dataclass(frozen=True)
class Uniform:
    """Uniform law on [lo, hi]; lo may be negative only in the mark role."""

    family: ClassVar[str] = "uniform"

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi and math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise LawError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def second_moment(self):
        return (self.lo**2 + self.lo * self.hi + self.hi**2) / 3.0

    def support(self):
        return self.lo, self.hi

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size=size)

    def tail_mean(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.maximum(self.hi - x, 0.0) ** 2 / (2.0 * (self.hi - self.lo))
        return np.where(x <= self.lo, self.mean() - x, inside)

    def size_biased_sample(self, rng, size):
        # Inverse transform of the density x / (mean * (hi - lo)) on [lo, hi].
        u = rng.uniform(size=size)
        return np.sqrt(self.lo**2 + u * (self.hi**2 - self.lo**2))


@dataclass(frozen=True)
class LogNormal:
    """Log-normal law: log X ~ Normal(mu, sigma^2)."""

    family: ClassVar[str] = "lognormal"

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise LawError("lognormal requires finite mu and positive sigma")

    def mean(self):
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def second_moment(self):
        return math.exp(2.0 * self.mu + 2.0 * self.sigma**2)

    def support(self):
        return 0.0, math.inf

    def sample(self, rng, size):
        return rng.lognormal(self.mu, self.sigma, size=size)

    def tail_mean(self, x):
        # m Phi(sigma - z) - x Phi(-z) with z = (ln x - mu) / sigma; at
        # x = 0 the clamped log makes it m exactly.  Past z = 30, before
        # Phi(-z) goes subnormal, the same difference is taken as
        # x phi(z) (R(z - sigma) - R(z)) with R the Mills ratio, and
        # x phi(z) is 0 where z^2 overflows; that form is evaluated only on
        # the entries that take it, and written over theirs.  It is 0 at
        # x = inf, where x is capped at the largest float so that no inf * 0
        # term arises; z itself overflows for a subnormal sigma, and is
        # capped there too.
        x = np.asarray(x, dtype=float)
        top = np.minimum(x, np.finfo(float).max)
        mu, sigma = self.mu, self.sigma
        with np.errstate(over="ignore"):
            z = (np.log(np.maximum(top, np.finfo(float).tiny)) - mu) / sigma
        out = np.asarray(self.mean() * normal_cdf(sigma - z) - top * normal_cdf(-z))
        at = z >= 30.0
        with np.errstate(over="ignore"):
            far = np.minimum(z[at], np.finfo(float).max)
            x_phi = np.exp(mu + sigma * far - 0.5 * far**2) / math.sqrt(2.0 * math.pi)
        out[at] = x_phi * (_mills(far - sigma) - _mills(far))
        return np.where(x < math.inf, out, 0.0)

    def size_biased_sample(self, rng, size):
        # x * lognormal(mu, sigma) density / mean is lognormal(mu + sigma^2, sigma).
        return rng.lognormal(self.mu + self.sigma**2, self.sigma, size=size)


@dataclass(frozen=True)
class PointMass:
    """Degenerate law at a single value.  Lattice by definition."""

    family: ClassVar[str] = "point_mass"

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise LawError("point mass value must be finite")

    def mean(self):
        return self.value

    def second_moment(self):
        return self.value**2

    def support(self):
        return self.value, self.value

    def sample(self, rng, size):
        return np.full(size, self.value)

    def tail_mean(self, x):
        return np.maximum(self.value - np.asarray(x, dtype=float), 0.0)

    def size_biased_sample(self, rng, size):
        return np.full(size, self.value)


@dataclass(frozen=True)
class FiniteDiscrete:
    """Law on finitely many atoms, given as ``((value, prob), ...)``."""

    family: ClassVar[str] = "finite_discrete"

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(v), float(p)) for v, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise LawError("finite discrete law needs at least one atom")
        probs = [p for _, p in atoms]
        if any(p <= 0 for p in probs):
            raise LawError("finite discrete atom probabilities must be positive")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise LawError(f"finite discrete probabilities must sum to 1, got {sum(probs)!r}")
        if len({v for v, _ in atoms}) != len(atoms):
            raise LawError("finite discrete atoms must have distinct values")

    @cached_property
    def _sorted(self):
        vals = np.array(sorted(v for v, _ in self.atoms))
        pmap = dict(self.atoms)
        probs = np.array([pmap[v] for v in vals])
        return vals, probs

    def mean(self):
        vals, probs = self._sorted
        return float(vals @ probs)

    def second_moment(self):
        vals, probs = self._sorted
        return float((vals**2) @ probs)

    def support(self):
        vals, _ = self._sorted
        return float(vals[0]), float(vals[-1])

    def sample(self, rng, size):
        vals, probs = self._sorted
        return rng.choice(vals, size=size, p=probs)

    def tail_mean(self, x):
        vals, probs = self._sorted
        return np.maximum(vals - np.asarray(x, dtype=float)[..., None], 0.0) @ probs

    def size_biased_sample(self, rng, size):
        vals, probs = self._sorted
        w = vals * probs
        return rng.choice(vals, size=size, p=w / w.sum())


@dataclass(frozen=True)
class Pareto:
    """Pareto law with tail index ``alpha`` and minimum ``xm``.

    Mark role only: with ``alpha <= 1`` the mean is infinite, which is
    exactly the heavy-tail regime the divergence diagnostics exercise.
    """

    family: ClassVar[str] = "pareto"

    alpha: float
    xm: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.xm > 0):
            raise LawError("pareto requires alpha > 0 and xm > 0")
        # The largest draw, at the largest uniform 1 - 2^-53, must be a float.
        with np.errstate(over="ignore"):
            if not np.isfinite(self._draw(1.0 - 2.0**-53)):
                raise LawError("pareto's largest draw overflows a float (alpha too small or xm too large)")

    def mean(self):
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.xm / (self.alpha - 1.0)

    def second_moment(self):
        if self.alpha <= 2.0:
            return math.inf
        return self.alpha * self.xm**2 / (self.alpha - 2.0)

    def support(self):
        return self.xm, math.inf

    def sample(self, rng, size):
        return self._draw(rng.uniform(size=size))

    def _draw(self, u):
        return self.xm * np.power(1.0 - u, -1.0 / self.alpha)

    def tail_mean(self, x):
        # xm (xm / x)^(alpha - 1) / (alpha - 1) past xm; infinite for alpha <= 1.
        x = np.asarray(x, dtype=float)
        a, xm = self.alpha, self.xm
        if a <= 1.0:
            return np.full(x.shape, math.inf)
        return np.where(x <= xm, self.mean() - x, xm * (xm / np.maximum(x, xm)) ** (a - 1.0) / (a - 1.0))

    def size_biased_sample(self, rng, size):
        raise LawError("pareto is a mark law; size-biased sampling is an interarrival operation")


Law = Exponential | Gamma | Uniform | LogNormal | PointMass | FiniteDiscrete | Pareto

_INTERARRIVAL_FAMILIES = (Exponential, Gamma, Uniform, LogNormal, PointMass, FiniteDiscrete)


def check_interarrival(law):
    """Validate that ``law`` is legal as a renewal-increment law.

    All mass must lie on (0, inf), the mean must be finite and positive,
    and the second moment finite.  Returns the law unchanged so it can be
    used inline.
    """
    if not isinstance(law, _INTERARRIVAL_FAMILIES):
        raise LawError(f"{type(law).__name__} is not an interarrival family")
    lo, _ = law.support()
    if lo < 0:
        raise LawError(f"interarrival law must have nonnegative support, got lower end {lo}")
    if isinstance(law, (PointMass, FiniteDiscrete)) and lo <= 0:
        raise LawError("interarrival law must put no mass at 0")
    try:
        mu, m2 = law.mean(), law.second_moment()
    except ArithmeticError:  # a moment overflows a float
        raise LawError("interarrival law's mean or second moment is not a finite float") from None
    if not (mu > 0 and math.isfinite(mu) and math.isfinite(m2)):
        raise LawError(f"interarrival law needs a finite positive mean and a finite second moment, got {mu}, {m2}")
    return law


def sample_stationary_delay(law, rng, size):
    """Draw ``size`` triples ``(s0, xi0, u)``: stationary delays and the pairs that built them.

    ``xi0`` holds size-biased draws, ``u`` uniforms on [0, 1), and
    ``s0 = u * xi0`` follows the integrated-tail law (the limiting overshoot).
    The pairs are returned so the matching undershoots ``(1 - u) * xi0`` can
    be reconstructed.  All three are arrays of shape ``size``.
    """
    check_interarrival(law)
    xi0 = np.asarray(law.size_biased_sample(rng, size=size), dtype=float)
    u = rng.uniform(size=size)
    return u * xi0, xi0, u


def integrated_tail_cdf(law, x):
    """CDF of the integrated-tail law: ``F*(x) = 1 - E[(X - x)^+] / E[X]``.

    Closed form for every family through its ``tail_mean``.  ``x`` may be a
    scalar or array; negative ``x`` is a domain error.
    """
    check_interarrival(law)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise LawError("integrated tail CDF is defined on x >= 0")
    out = np.clip(1.0 - law.tail_mean(arr) / law.mean(), 0.0, 1.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _rational(value):
    from fractions import Fraction

    frac = Fraction(value).limit_denominator(LATTICE_MAX_DENOMINATOR)
    if abs(float(frac) - value) <= _LATTICE_ATOL * max(1.0, abs(value)):
        return frac
    return None


def lattice_span(law):
    """Largest span ``d`` with all mass on ``d * Z``, or None if nonlattice.

    Commensurability of finite-discrete atoms is decided via rational
    approximation with denominators up to ``LATTICE_MAX_DENOMINATOR``.
    """
    if isinstance(law, PointMass):
        return abs(law.value) if law.value != 0 else None
    if isinstance(law, FiniteDiscrete):
        from fractions import Fraction

        fracs = []
        for v, _ in law.atoms:
            f = _rational(v)
            if f is None or f == 0:
                return None
            fracs.append(abs(f))
        g = reduce(
            lambda a, b: Fraction(math.gcd(a.numerator, b.numerator), math.lcm(a.denominator, b.denominator)),
            fracs,
        )
        return float(g)
    return None


def is_lattice(law):
    return lattice_span(law) is not None
