"""Numerical verification of the limit theory's hypotheses and claims.

Two summability criteria decide whether the kernel fades fast enough for
the process to converge to stationarity:

* the mean criterion sums ``sup over [k, k+1)`` of ``E[|X(t)| ^ 1]``;
* the path criterion sums ``E[sup over [k, k+1) of |X| ^ 1]``.

The path criterion dominates the mean criterion pointwise; kernels exist
(see :class:`~renewal_immigration.kernels.SpikeTrain`) where the mean
criterion converges while every path keeps hitting 1.  Each verdict is
exact: the kernel bounds each criterion's remainder past ``k_max`` from
its own tail (``unit_remainders``), and the criterion converges exactly
when that bound is finite.  A report states the bound, rounded up so that
it holds in floats, and Monte Carlo estimates of the per-unit terms and
their partial sums.

The convergence harness compares transient and stationary fdd samples with
per-coordinate KS tests (Bonferroni) plus a joint energy-distance
permutation test, after warning about violated hypotheses (lattice
interarrival laws, a divergent mean criterion).  Point-process checks
(intensity, overshoot, shift invariance, Laplace functionals) validate the
stationary window construction itself.  Every check returns a frozen
dataclass; :mod:`.cli` writes its fields as the JSON report.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import integrated_tail_cdf, is_lattice
from .errors import KernelError, NonAbsorbedPathError, TruncationError
from .kernels import sample_path, unit_interval_sups
from .process import fdd_sample
from .renewal import ROW_BLOCK_POINTS, build_stationary_window, read_interval, row_blocks, simulate_forward
from .stats import TestResult, chi2_sf, energy_distance, ks_one_sample, ks_two_sample
from .streams import ENERGY, stream

__all__ = [
    "CONVERGENT_EVIDENCE",
    "DIVERGENT_EVIDENCE",
    "DriReport",
    "ComparisonReport",
    "IntervalIntensity",
    "OvershootReport",
    "LaplaceComparison",
    "dri_mean_check",
    "dri_path_check",
    "laplace_functional_compare",
    "convergence_test",
    "compare_fdd_samples",
    "intensity_check",
    "overshoot_check",
    "shift_invariance_check",
    "intensity_half_width",
    "shift_half_width",
    "laplace_half_width",
    "lattice_warnings",
]

CONVERGENT_EVIDENCE = "ConvergentEvidence"
DIVERGENT_EVIDENCE = "DivergentEvidence"


@dataclass(frozen=True, eq=False)
class DriReport:
    """A summability criterion's exact verdict and Monte Carlo per-unit terms.

    ``residual_estimate`` is the kernel's rigorous bound on the terms' sum
    from ``k_max`` on; the verdict is whether it is finite.  ``terms`` and
    ``partial_sums``, from ``n_mc`` paths, cross-check the path samplers.
    """

    criterion: str
    terms: np.ndarray
    partial_sums: np.ndarray
    verdict: str
    k_max: int
    n_mc: int
    residual_estimate: float


# Relative widening of a float-computed remainder: above the worst relative
# error of any ``tail_mean`` against 60-digit mpmath (1.3e-10, Gamma(40, 7)).
_REMAINDER_WIDENING = 2.0**-30


def _upper_remainder(spec, criterion, k):
    """``spec``'s bound on the ``criterion`` sum past ``k``, rounded up so that it holds in floats.

    The float value is widened by ``_REMAINDER_WIDENING`` and one ulp.  A
    kernel with unbounded support has a positive remainder, so one that
    underflows reads the smallest positive float; an exact 0 (a table past
    its support end, say) stays 0.
    """
    mean, path = spec.unit_remainders(k)
    remainder = path if criterion == "path" else mean
    if remainder == 0.0:
        return math.ulp(0.0) if math.isinf(spec.support_end()) else 0.0
    return math.nextafter(remainder * (1.0 + _REMAINDER_WIDENING), math.inf)


def _dri_report(criterion, terms, n_mc, spec):
    """The ``criterion`` report of ``terms`` from ``n_mc`` paths of ``spec``, with its bound past them."""
    remainder = _upper_remainder(spec, criterion, len(terms))
    verdict = CONVERGENT_EVIDENCE if math.isfinite(remainder) else DIVERGENT_EVIDENCE
    return DriReport(criterion, terms, np.cumsum(terms), verdict, len(terms), n_mc, remainder)


def _capped_path_mean(spec, n_mc, width, terms, rng):
    """Mean over ``n_mc`` paths of ``min(terms(paths), 1)``.

    ``terms`` maps a batched path to one ``width``-long row per path.
    Paths are drawn in chunks of ``max(1, ROW_BLOCK_POINTS // width)``, one
    batched draw each.  Every kernel but the birth-death chain draws as
    ``n_mc`` one-row calls would (see :mod:`.kernels`); birth-death draws
    depend on the chunk sizes.  Each chunk's rows are added onto the
    running sum in path order: ``np.add.reduce`` along axis 0 adds row
    after row, as a per-path loop would (pairwise summation would not).
    """
    step = max(1, ROW_BLOCK_POINTS // width)
    acc = np.zeros(width)
    for lo in range(0, n_mc, step):
        chunk = np.minimum(terms(sample_path(spec, rng, size=min(step, n_mc - lo))), 1.0)
        acc = np.add.reduce(np.vstack([acc, chunk]), axis=0)
    return acc / n_mc


def dri_mean_check(spec, k_max, grid_per_unit, n_mc, rng):
    """Estimate per-unit sups of ``E[|X(t)| ^ 1]`` on a left-anchored grid.

    Grid points are ``k + g/grid_per_unit``; anchoring each unit interval at
    its left endpoint makes the sup exact for monotone kernels.
    """
    if k_max < 1 or grid_per_unit < 2 or n_mc < 1:
        raise KernelError("need k_max >= 1, grid_per_unit >= 2, n_mc >= 1")
    ts = np.arange(k_max * grid_per_unit) / grid_per_unit
    g_hat = _capped_path_mean(spec, n_mc, len(ts), lambda paths: np.abs(paths.values(ts)), rng)
    terms = g_hat.reshape(k_max, grid_per_unit).max(axis=1)
    return _dri_report("mean", terms, n_mc, spec)


def dri_path_check(spec, k_max, n_mc, rng):
    """Estimate ``E[sup over [k, k+1) of |X| ^ 1]`` from exact path sups."""
    if k_max < 1 or n_mc < 1:
        raise KernelError("need k_max >= 1 and n_mc >= 1")
    terms = _capped_path_mean(spec, n_mc, k_max, lambda paths: unit_interval_sups(paths, k_max), rng)
    return _dri_report("path", terms, n_mc, spec)


@dataclass(frozen=True)
class LaplaceComparison:
    """Monte Carlo Laplace functionals of the aged and stationary point sets."""

    transient_estimate: float
    stationary_estimate: float
    transient_ci99: float
    stationary_ci99: float
    t: float
    n_mc: int
    lattice_warning: bool


def _exp_neg_h_sums(h, x, counts):
    """``exp(-sum h(x))`` per row of ragged rows holding ``counts`` of the points ``x`` each.

    ``h`` is evaluated, and a row index built, only for the points in
    ``[0, h.support_end())``: a table is 0 before its first breakpoint,
    which is ``>= 0``, and from its support's end on, and adding a zero to a
    row's sum keeps its bits.  One ``np.bincount`` adds each row's terms one
    at a time in point order, as ``_superpose`` does, so a row's sum does
    not depend on the other rows.  ``exp`` is ``math.exp`` per value, which
    numpy's vectorised exp can differ from in the last ulp, mapped straight
    into a float array, with no list of Python floats between.  The rows may
    hold only the points that map into the support (the builders' ``within``
    interval): the sums do not change.
    """
    inside = (x >= 0.0) & (x < h.support_end())
    rows = np.searchsorted(np.cumsum(counts), np.flatnonzero(inside), side="right")
    sums = np.bincount(rows, h.value(x[inside]), minlength=len(counts))
    return np.fromiter(map(math.exp, np.negative(sums)), float, len(sums))


def laplace_functional_compare(law, h, t, n_mc, rng):
    """Compare ``E exp(-sum h(t - S_k))`` against ``E exp(-sum h(S*_j))``.

    ``h`` must be a nonnegative table with compact support.  Agreement of
    the two estimates (within their 99% CIs) is the testable content of the
    point-process convergence underlying the whole construction.
    """
    if min(h.values) < 0:
        raise KernelError("test function h must be nonnegative")
    if math.isinf(h.support_end()):
        raise KernelError("test function h must have compact support")
    # The sums read the points x = t - S, and x = S*, in [0, support_end).
    end = h.support_end()
    transient = np.empty(n_mc)
    for lo, hi in row_blocks(n_mc, law, t):
        real = simulate_forward(law, t, rng, size=hi - lo, within=read_interval(-end, 0.0, t))
        transient[lo:hi] = _exp_neg_h_sums(h, t - real.epochs, real.counts)
    c = laplace_half_width(law, h)
    stationary = np.empty(n_mc)
    for lo, hi in row_blocks(n_mc, law, 2.0 * c):
        # [-c, c] contains the support of h, so the sums are exact.
        window = build_stationary_window(law, c, rng, size=hi - lo, within=read_interval(0.0, end))
        stationary[lo:hi] = _exp_neg_h_sums(h, window.points, window.counts)
    z99 = 2.5758293035489004
    return LaplaceComparison(
        transient_estimate=float(transient.mean()),
        stationary_estimate=float(stationary.mean()),
        transient_ci99=z99 * float(transient.std(ddof=1)) / math.sqrt(n_mc),
        stationary_ci99=z99 * float(stationary.std(ddof=1)) / math.sqrt(n_mc),
        t=float(t),
        n_mc=n_mc,
        lattice_warning=is_lattice(law),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Two-sample comparison of fdd matrices at one transient time."""

    t: float | None
    u_grid: tuple
    n: int
    alpha: float
    ks_statistics: tuple
    ks_p_values: tuple
    energy_statistic: float | None
    energy_p_value: float | None
    decision: str
    warnings: tuple = ()
    bonferroni: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "bonferroni", f"KS level split over {len(self.u_grid)} coordinates")


def compare_fdd_samples(a_matrix, b_matrix, u_grid, alpha, n_permutations, rng, t=None, warnings=()):
    """Per-coordinate KS (Bonferroni) plus joint energy permutation test.

    The overall decision rejects when any Bonferroni-adjusted coordinate
    rejects or the joint test rejects at ``alpha``.
    """
    a = np.asarray(a_matrix, dtype=float)
    b = np.asarray(b_matrix, dtype=float)
    d = a.shape[1]
    ks_stats, ks_ps = [], []
    for j in range(d):
        res = ks_two_sample(a[:, j], b[:, j])
        ks_stats.append(res.statistic)
        ks_ps.append(res.p_value)
    energy = energy_distance(a, b, n_permutations, rng)
    reject = (min(ks_ps) < alpha / d) or (energy.p_value < alpha)
    return ComparisonReport(
        t=t,
        u_grid=tuple(float(v) for v in u_grid),
        n=int(a.shape[0]),
        alpha=alpha,
        ks_statistics=tuple(ks_stats),
        ks_p_values=tuple(ks_ps),
        energy_statistic=energy.statistic,
        energy_p_value=energy.p_value,
        decision="reject" if reject else "non_reject",
        warnings=tuple(warnings),
    )


def lattice_warnings(law):
    """The lattice-law warning, in a list, when ``law`` is lattice; else ``[]``."""
    return ["interarrival law is lattice; the limit theory assumes nonlattice laws"] if is_lattice(law) else []


def _hypothesis_warnings(law, spec):
    warnings = lattice_warnings(law)
    if math.isinf(spec.unit_remainders(1)[0]):
        warnings.append("mean summability criterion diverges; the stationary limit may not exist")
    return warnings


def convergence_test(
    law, spec, t_list, u_grid, n_replicates, alpha, seed, n_permutations=200, tol=1e-6
):
    """Test transient fdd vectors against the stationary ones at each ``t``.

    Hypothesis problems (lattice law, divergent mean criterion, stationary
    truncation failure) are reported, not fatal: a truncation failure turns
    every report into a ``hypothesis_violation`` decision, matching the
    regime where the stationary series diverges.
    """
    warnings = _hypothesis_warnings(law, spec)
    u = np.asarray(u_grid, dtype=float)
    try:
        stationary = fdd_sample(law, spec, "stationary", u, n_replicates, seed=seed, tol=tol)
    except (TruncationError, NonAbsorbedPathError) as exc:
        warnings = warnings + [f"stationary evaluation failed: {exc}"]
        return [
            ComparisonReport(
                t=float(t),
                u_grid=tuple(float(v) for v in u),
                n=n_replicates,
                alpha=alpha,
                ks_statistics=(),
                ks_p_values=(),
                energy_statistic=None,
                energy_p_value=None,
                decision="hypothesis_violation",
                warnings=tuple(warnings),
            )
            for t in t_list
        ]
    reports = []
    for i, t in enumerate(t_list):
        transient = fdd_sample(law, spec, "transient", u, n_replicates, seed=seed, t=t, sample=i)
        report = compare_fdd_samples(
            transient.values,
            stationary.values,
            u,
            alpha,
            n_permutations,
            stream(seed, ENERGY, i),
            t=float(t),
            warnings=warnings,
        )
        reports.append(report)
    return reports


@dataclass(frozen=True)
class IntervalIntensity:
    interval: tuple
    empirical_mean: float
    expected_mean: float
    z_score: float


def intensity_half_width(law, intervals):
    """Half-width of the windows :func:`intensity_check` draws."""
    return max(max(abs(a), abs(b)) for a, b in intervals) + law.mean()


def shift_half_width(law, shift, interval):
    """Half-width of the windows :func:`shift_invariance_check` draws."""
    return max(abs(interval[0]), abs(interval[1])) + abs(shift) + law.mean()


def laplace_half_width(law, h):
    """Half-width of the stationary windows :func:`laplace_functional_compare` draws."""
    return max(h.support_end(), law.mean())


def intensity_check(law, intervals, n_windows, rng):
    """Mean point counts of stationary windows against ``length / mean``."""
    intervals = [(float(a), float(b)) for a, b in intervals]
    if any(b < a for a, b in intervals):
        raise ValueError("intervals must satisfy a <= b")
    c = intensity_half_width(law, intervals)
    # Running sums of the integer counts and their squares are exact.
    sums = [0] * len(intervals)
    squares = [0] * len(intervals)
    within = read_interval(min(a for a, _ in intervals), max(b for _, b in intervals))
    for lo, hi in row_blocks(n_windows, law, 2.0 * c):
        window = build_stationary_window(law, c, rng, size=hi - lo, within=within)
        for j, (a, b) in enumerate(intervals):
            cnt = window.count_in(a, b)
            sums[j] += int(cnt.sum())
            squares[j] += int(cnt @ cnt)
    mu = law.mean()
    out = []
    for (a, b), total, total_sq in zip(intervals, sums, squares):
        emp = total / n_windows
        expected = (b - a) / mu
        var = max(total_sq / n_windows - emp**2, 0.0)
        se = math.sqrt(var / n_windows)
        z = 0.0 if se == 0.0 and emp == expected else (emp - expected) / se if se > 0 else math.inf
        out.append(IntervalIntensity((a, b), float(emp), float(expected), float(z)))
    return out


@dataclass(frozen=True)
class OvershootReport:
    ks: TestResult
    horizon: float
    lattice_warning: bool
    horizon_warning: str | None


def overshoot_check(law, horizon, n_realizations, rng):
    """KS of forward-simulation overshoots against the integrated-tail CDF."""
    mu = law.mean()
    # The limiting overshoot's mean E[xi^2] / (2 mu) is many means for a
    # bursty law; the horizon should be 20 times the larger of the two.
    threshold = 20.0 * max(mu, law.second_moment() / (2.0 * mu))
    warning = None
    if horizon < threshold:
        warning = (
            f"horizon {horizon:g} is below {threshold:g}, 20 times the larger of the mean and the "
            "limiting overshoot's mean E[xi^2] / (2 mean); overshoots may be biased"
        )
    overshoots = np.empty(n_realizations)
    for lo, hi in row_blocks(n_realizations, law, horizon):
        # The check reads the overshoots alone: the empty interval keeps no epoch.
        overshoots[lo:hi] = simulate_forward(law, horizon, rng, size=hi - lo, within=(math.inf, -math.inf)).overshoot
    return OvershootReport(
        ks=ks_one_sample(overshoots, lambda x: integrated_tail_cdf(law, x)),
        horizon=float(horizon),
        lattice_warning=is_lattice(law),
        horizon_warning=warning,
    )


def shift_invariance_check(law, shift, interval, n_windows, rng):
    """Chi-square homogeneity of window counts before and after a shift.

    Uses two independent batches of windows (counting the same window twice
    would correlate the samples), so the test is exactly valid.
    """
    a, b = float(interval[0]), float(interval[1])
    c = shift_half_width(law, shift, (a, b))
    n_each = n_windows // 2

    def counts(t):
        out = np.empty(n_each, dtype=int)
        within = read_interval(a, b, t)
        for lo, hi in row_blocks(n_each, law, 2.0 * c):
            out[lo:hi] = build_stationary_window(law, c, rng, size=hi - lo, within=within).count_in(a, b, shift=t)
        return out

    base = counts(0.0)
    shifted = counts(shift)
    top = int(max(base.max(), shifted.max()))
    h1 = np.bincount(base, minlength=top + 1).astype(float)
    h2 = np.bincount(shifted, minlength=top + 1).astype(float)
    # Pool sparse bins (pooled expected count >= 5 under homogeneity).
    pooled = (h1 + h2) / 2.0
    keep = pooled >= 5.0
    o1 = np.append(h1[keep], h1[~keep].sum())
    o2 = np.append(h2[keep], h2[~keep].sum())
    mask = (o1 + o2) > 0
    o1, o2 = o1[mask], o2[mask]
    expected = (o1 + o2) / 2.0
    stat = float(np.sum((o1 - expected) ** 2 / expected) + np.sum((o2 - expected) ** 2 / expected))
    p = chi2_sf(max(len(o1) - 1, 1), stat)
    return TestResult(statistic=stat, p_value=p, n=n_each, m=n_each, method="chisq_homogeneity")
