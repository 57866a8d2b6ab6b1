import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from renewal_immigration import distributions as dist
from renewal_immigration import stats
from renewal_immigration.config import law_from_config, to_config
from renewal_immigration.errors import LawError
from renewal_immigration.streams import stream

from oracles import chisq_gof_counts, erfc_normal_cdf, two_branch_lognormal_tail_mean


def _scipy_law(law):
    """The same law as a frozen ``scipy.stats`` distribution, for its ``sf``."""
    from scipy import stats as ss

    if isinstance(law, dist.Exponential):
        return ss.expon(scale=1.0 / law.rate)
    if isinstance(law, dist.Gamma):
        return ss.gamma(law.shape, scale=law.scale)
    if isinstance(law, dist.Uniform):
        return ss.uniform(law.lo, law.hi - law.lo)
    if isinstance(law, dist.LogNormal):
        return ss.lognorm(law.sigma, scale=math.exp(law.mu))
    atoms = law.atoms if isinstance(law, dist.FiniteDiscrete) else ((law.value, 1.0),)
    return ss.rv_discrete(values=tuple(zip(*atoms)))


INTERARRIVAL_LAWS = [
    dist.Exponential(1.0),
    dist.Exponential(0.25),
    dist.Gamma(2.0, 0.5),
    dist.Uniform(0.0, 2.0),
    dist.Uniform(0.5, 1.5),
    dist.LogNormal(0.0, 0.5),
    dist.PointMass(5.0),
    dist.FiniteDiscrete(((1.0, 0.5), (3.0, 0.5))),
]


def test_mean_examples():
    assert dist.Exponential(1.0).mean() == 1.0
    assert dist.Uniform(0.0, 2.0).mean() == 1.0
    assert dist.FiniteDiscrete(((1.0, 0.5), (3.0, 0.5))).mean() == 2.0


def test_point_mass_sampling_is_constant():
    rng = stream(0)
    assert dist.PointMass(5.0).sample(rng, size=1).tolist() == [5.0]
    assert np.all(dist.PointMass(5.0).sample(rng, size=10) == 5.0)


def test_exponential_sample_moments():
    draws = dist.Exponential(1.0).sample(stream(1), size=10**6)
    assert abs(draws.mean() - 1.0) < 0.004


def test_uniform_sample_variance():
    draws = dist.Uniform(0.0, 2.0).sample(stream(2), size=10**6)
    assert abs(draws.var() - 1.0 / 3.0) < 0.003


def test_size_biased_point_mass_identity():
    rng = stream(3)
    for _ in range(10):
        assert dist.PointMass(5.0).size_biased_sample(rng, size=1).tolist() == [5.0]


def test_size_biased_exponential_mean_matches_quadrature():
    # E[xi0] = E[xi^2] / E[xi]; the oracle integrates x^2 e^{-x} directly.
    oracle, err = quad(lambda x: x * x * math.exp(-x), 0.0, np.inf)
    assert err < 1e-9
    draws = dist.Exponential(1.0).size_biased_sample(stream(4), size=10**6)
    assert abs(draws.mean() - oracle) < 0.005


def test_size_biased_finite_discrete_reweights():
    draws = dist.FiniteDiscrete(((1.0, 0.5), (3.0, 0.5))).size_biased_sample(stream(5), size=10**6)
    assert abs(np.mean(draws == 3.0) - 0.75) < 0.002


@pytest.mark.parametrize("law", INTERARRIVAL_LAWS, ids=lambda l: type(l).__name__)
def test_size_biased_mean_all_families(law):
    draws = law.size_biased_sample(stream(6), size=10**6)
    target = law.second_moment() / law.mean()
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - target) < max(4.0 * se, 1e-12)


def test_stationary_delay_point_mass_is_uniform():
    from renewal_immigration.stats import ks_one_sample

    s0, _, _ = dist.sample_stationary_delay(dist.PointMass(5.0), stream(7), size=10**5)
    res = ks_one_sample(s0, lambda x: np.clip(np.asarray(x) / 5.0, 0.0, 1.0))
    assert res.p_value > 0.01


def test_stationary_delay_exponential_is_exponential():
    from renewal_immigration.stats import ks_one_sample

    s0, _, _ = dist.sample_stationary_delay(dist.Exponential(1.0), stream(8), size=10**5)
    res = ks_one_sample(s0, lambda x: -np.expm1(-np.asarray(x)))
    assert res.p_value > 0.01


@pytest.mark.parametrize("law", [dist.Uniform(0.0, 2.0), dist.Gamma(2.0, 0.5)], ids=["unif", "gamma"])
def test_stationary_delay_mean_matches_tail_quadrature(law):
    # E[s0] = integral of x * P(xi > x) / mean, evaluated by quadrature.
    mu = law.mean()
    sf = _scipy_law(law).sf
    oracle, err = quad(lambda x: x * float(sf(x)) / mu, 0.0, np.inf, limit=200)
    assert err < 1e-8
    s0, _, _ = dist.sample_stationary_delay(law, stream(9), size=4 * 10**5)
    se = s0.std(ddof=1) / math.sqrt(len(s0))
    assert abs(s0.mean() - oracle) < 4.0 * se


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(INTERARRIVAL_LAWS))
@settings(max_examples=60, deadline=None)
def test_split_identity_near_exact(seed, law):
    s0, xi0, u = dist.sample_stationary_delay(law, stream(seed), size=1)
    assert s0.shape == xi0.shape == u.shape == (1,)
    assert 0.0 <= s0[0] <= xi0[0]
    assert s0[0] + (1.0 - u[0]) * xi0[0] == pytest.approx(xi0[0], rel=4e-16, abs=0.0)


def test_overshoot_undershoot_same_distribution():
    from renewal_immigration.stats import ks_two_sample

    s0, xi0, _ = dist.sample_stationary_delay(dist.Gamma(2.0, 0.5), stream(10), size=10**5)
    res = ks_two_sample(s0, xi0 - s0)
    assert res.p_value > 0.01


def test_integrated_tail_cdf_examples():
    for law in INTERARRIVAL_LAWS:
        assert dist.integrated_tail_cdf(law, 0.0) == 0.0
    assert dist.integrated_tail_cdf(dist.Uniform(0.0, 1.0), 0.5) == pytest.approx(0.75, abs=1e-15)
    assert dist.integrated_tail_cdf(dist.Exponential(1.0), math.log(2.0)) == pytest.approx(0.5, abs=1e-15)


def test_integrated_tail_cdf_rejects_negative_x():
    with pytest.raises(LawError):
        dist.integrated_tail_cdf(dist.Exponential(1.0), -0.1)


@pytest.mark.parametrize("law", INTERARRIVAL_LAWS, ids=lambda l: type(l).__name__)
def test_integrated_tail_cdf_against_quadrature(law):
    mu, sf = law.mean(), _scipy_law(law).sf
    for x in [0.1, 0.5, 1.0, 2.5, 7.0]:
        oracle, err = quad(
            lambda y: float(sf(y)) / mu, 0.0, x, limit=400, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-10
        assert dist.integrated_tail_cdf(law, x) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("law", INTERARRIVAL_LAWS, ids=lambda l: type(l).__name__)
def test_integrated_tail_cdf_monotone_to_one(law):
    xs = np.linspace(0.0, 60.0 * law.mean(), 400)
    vals = dist.integrated_tail_cdf(law, xs)
    assert np.all(np.diff(vals) >= -1e-13)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert vals[-1] > 1.0 - 1e-6


def test_lattice_detection():
    assert dist.is_lattice(dist.PointMass(2.0))
    assert dist.lattice_span(dist.PointMass(2.0)) == 2.0
    assert dist.lattice_span(dist.FiniteDiscrete(((1.0, 0.5), (3.0, 0.5)))) == 1.0
    assert dist.lattice_span(dist.FiniteDiscrete(((0.5, 0.5), (0.75, 0.5)))) == 0.25
    assert not dist.is_lattice(dist.FiniteDiscrete(((1.0, 0.5), (math.sqrt(2.0), 0.5))))
    assert not dist.is_lattice(dist.Exponential(1.0))
    assert not dist.is_lattice(dist.Uniform(0.0, 1.0))


def test_interarrival_validation():
    with pytest.raises(LawError):
        dist.check_interarrival(dist.Uniform(-1.0, 1.0))
    with pytest.raises(LawError):
        dist.check_interarrival(dist.PointMass(0.0))
    with pytest.raises(LawError):
        dist.check_interarrival(dist.Pareto(2.0, 1.0))
    with pytest.raises(LawError):
        dist.check_interarrival(dist.FiniteDiscrete(((0.0, 0.5), (1.0, 0.5))))
    dist.check_interarrival(dist.Uniform(0.0, 1.0))


@pytest.mark.parametrize(
    "law",
    [
        dist.LogNormal(0.0, 1e200),
        dist.LogNormal(0.0, 30.0),  # finite mean, second moment past the float range
        dist.Uniform(0.0, 1e308),
        dist.Gamma(1.0, 1e200),
        dist.Exponential(1e-200),  # rate**2 underflows to 0
    ],
    ids=repr,
)
def test_interarrival_moments_must_be_finite_floats(law):
    with pytest.raises(LawError, match="interarrival law"):
        dist.check_interarrival(law)


def test_family_parameter_validation():
    with pytest.raises(LawError):
        dist.Exponential(0.0)
    with pytest.raises(LawError):
        dist.Gamma(-1.0, 1.0)
    with pytest.raises(LawError):
        dist.Uniform(1.0, 1.0)
    with pytest.raises(LawError):
        dist.LogNormal(0.0, 0.0)
    with pytest.raises(LawError):
        dist.FiniteDiscrete(((1.0, 0.6), (2.0, 0.6)))
    with pytest.raises(LawError):
        dist.Pareto(0.0, 1.0)


def test_pareto_rejects_parameters_whose_largest_draw_overflows():
    # The largest uniform is 1 - 2^-53, so the largest draw is about
    # xm 2^(53 / alpha): past the largest float for alpha < 53/1024 (at
    # xm = 1) or xm above about 1.9e300 (at alpha = 2).
    class LargestUniform:
        def uniform(self, size):
            return np.full(size, 1.0 - 2.0**-53)

    for alpha, xm in [(0.01, 1.0), (0.05, 1.0), (2.0, 1e302)]:
        with pytest.raises(LawError, match="overflows"):
            dist.Pareto(alpha, xm)
    for alpha, xm in [(0.06, 1.0), (2.0, 1e300), (0.5, 1.0)]:
        assert np.all(np.isfinite(dist.Pareto(alpha, xm).sample(LargestUniform(), size=3)))


def test_eta_laws_allow_signed_and_heavy_tails():
    eta = law_from_config({"family": "uniform", "lo": -1.0, "hi": 1.0})
    assert eta.support() == (-1.0, 1.0)
    heavy = law_from_config({"family": "pareto", "alpha": 0.8, "xm": 1.0})
    assert math.isinf(heavy.mean())
    zero_ok = law_from_config({"family": "point_mass", "value": 0.0})
    assert zero_ok.mean() == 0.0


def test_config_round_trip():
    for law in INTERARRIVAL_LAWS + [dist.Pareto(1.5, 2.0)]:
        assert law_from_config(to_config(law)) == law


def test_config_errors():
    with pytest.raises(LawError):
        law_from_config({"family": "exponential"})
    with pytest.raises(LawError):
        law_from_config({"family": "triangular", "a": 1.0})
    with pytest.raises(LawError):
        law_from_config({"family": "exponential", "rate": 1.0, "junk": 2})
    with pytest.raises(LawError):
        dist.check_interarrival(law_from_config({"family": "uniform", "lo": -1.0, "hi": 1.0}))


def test_determinism_same_seed_same_draws():
    for law in INTERARRIVAL_LAWS:
        a = law.sample(stream(123), size=50)
        b = law.sample(stream(123), size=50)
        assert np.array_equal(a, b)
        sa = law.size_biased_sample(stream(77), size=20)
        sb = law.size_biased_sample(stream(77), size=20)
        assert np.array_equal(sa, sb)


ALL_FAMILIES = [
    dist.Exponential(1.5),
    dist.Gamma(0.7, 2.0),
    dist.Uniform(-1.0, 2.0),
    dist.LogNormal(0.0, 1.0),
    dist.PointMass(2.0),
    dist.FiniteDiscrete(((0.5, 0.3), (1.5, 0.7))),
    dist.Pareto(0.8, 1.0),
]


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda law: type(law).__name__)
def test_batched_draw_equals_single_draws(law):
    # Batched kernel paths rely on this: one draw of size k is k draws of size 1.
    k = 2000
    rng, ref_rng = stream(5), stream(5)
    batched = np.asarray(law.sample(rng, size=k), dtype=float)
    singles = np.concatenate([law.sample(ref_rng, size=1) for _ in range(k)]).astype(float)
    assert batched.tobytes() == singles.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pareto_tail_shapes():
    xs = np.array([1.0, 2.0, 10.0, 100.0])
    assert np.all(np.isinf(dist.Pareto(0.8, 1.0).tail_mean(xs)))
    light = dist.Pareto(1.5, 1.0)
    assert np.allclose(light.tail_mean(xs), 2.0 / np.sqrt(xs), rtol=1e-15, atol=0.0)
    assert float(light.tail_mean(0.5)) == light.mean() - 0.5


# ------------------------------------------ closed-form tails against scipy

# Normal (hence log-normal) tails come from normal_cdf and chi-square tails
# from stats.chi2_sf; scipy is the oracle.  Relative error bounds, fixed in
# advance: 5e-14 for z >= -20 and 1e-12 below.  scipy.special.ndtr flushes
# to 0 once exp(-z^2/2) would underflow (z below about -37.7); there both
# values must lie below the smallest normal float.
NORMAL_RTOL, NORMAL_RTOL_FAR = 5e-14, 1e-12
TINY = np.finfo(float).tiny


def _normal_rtol(z):
    return np.where(np.asarray(z) >= -20.0, NORMAL_RTOL, NORMAL_RTOL_FAR)


def _assert_close(ours, ref, rtol):
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    ok = ~np.isnan(ref)
    normal = ok & (np.abs(ref) >= TINY)
    assert np.all(np.abs(ours - ref)[normal] <= np.broadcast_to(rtol, ref.shape)[normal] * np.abs(ref[normal]))
    assert np.all(np.abs(ours[ok & ~normal]) < TINY)


def test_normal_cdf_matches_ndtr():
    from scipy.special import ndtr

    z = np.concatenate([np.linspace(-38.0, 38.0, 40_001), np.linspace(-1.0, 1.0, 2001), [-0.0, 0.0]])
    _assert_close(dist.normal_cdf(z), ndtr(z), _normal_rtol(z))
    assert dist.normal_cdf(z).dtype == np.float64
    edges = dist.normal_cdf([-np.inf, -0.0, 0.0, np.inf, np.nan])
    assert edges[:4].tolist() == [0.0, 0.5, 0.5, 1.0] and np.isnan(edges[4])
    assert dist.normal_cdf(1.0).shape == ()


def test_normal_cdf_is_erfc_per_value_bit_for_bit():
    # Every value is 0.5 * math.erfc(z * -sqrt(0.5)) on one Python float,
    # in the shape it came in, 0-d included, with signed zeros, infinities
    # and NaN passed through.
    edges = [-0.0, 0.0, -np.inf, np.inf, np.nan]
    line = np.concatenate([np.linspace(-40.0, 40.0, 4001), edges])
    for z in (line, line[:4000].reshape(80, 50), np.float64(-37.5), np.array(0.25), 1.0, -0.0, np.nan):
        got, want = dist.normal_cdf(z), erfc_normal_cdf(z)
        assert np.shape(got) == np.shape(z) and np.asarray(got).dtype == np.float64
        assert np.asarray(got).tobytes() == want.tobytes()


def traced_peak(fn, *args):
    """The largest traced allocation above the start while ``fn(*args)`` runs, after one warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peaks at n = 10^5, in float64 arrays of n (8n bytes), counted from the
# temporaries alive at once, plus 64 KiB for fixed-size objects.  No array
# is turned into Python floats, each of which would cost three more bytes
# per byte of the array it came from.
PEAK_N = 10**5
PEAK_SLACK = 2**16


def test_normal_cdf_holds_three_float_arrays():
    # The scaled argument, the erfc values streamed into their array, and
    # their halves.
    assert traced_peak(dist.normal_cdf, np.linspace(-40.0, 40.0, PEAK_N)) < 3 * 8 * PEAK_N + PEAK_SLACK


def test_lognormal_integrated_tail_cdf_holds_seven_float_arrays():
    # Inside tail_mean, at the second normal_cdf call: x capped, z, the first
    # term, -z and normal_cdf's three.  Every x here has z < 30, so the far
    # form is evaluated on no entry.
    law = dist.LogNormal(0.0, 1.0)
    peak = traced_peak(dist.integrated_tail_cdf, law, np.linspace(0.0, 50.0, PEAK_N))
    assert peak < 7 * 8 * PEAK_N + PEAK_SLACK


# Log-normal tails around z = (ln x - mu) / sigma = 30, where the far form
# takes over, and far on both sides of it; a subnormal sigma, where z
# overflows for every x but 1.
TAIL_GRID_Z = np.concatenate([np.linspace(-40.0, 60.0, 2001), [30.0]])


@pytest.mark.parametrize(
    "law", [dist.LogNormal(0.0, 0.1), dist.LogNormal(-1.0, 2.0), dist.LogNormal(1.5, 1.0)], ids=repr
)
def test_lognormal_tail_mean_is_the_two_branch_formula_bit_for_bit(law):
    at_30 = math.exp(law.mu + 30.0 * law.sigma)
    xs = np.concatenate([
        np.exp(law.mu + law.sigma * TAIL_GRID_Z),
        [np.nextafter(at_30, 0.0), at_30, np.nextafter(at_30, math.inf)],
        np.geomspace(1e-300, 1e300, 601),
        [0.0, -0.0, math.inf, np.finfo(float).max],
    ])
    z = (np.log(np.maximum(xs, TINY)) - law.mu) / law.sigma
    assert np.any(z < 30.0) and np.any((z >= 30.0) & (xs < math.inf))
    assert np.asarray(law.tail_mean(xs)).tobytes() == two_branch_lognormal_tail_mean(law, xs).tobytes()
    rows = xs[: len(xs) // 2 * 2].reshape(-1, 2)
    assert law.tail_mean(rows).shape == rows.shape
    assert law.tail_mean(rows).tobytes() == two_branch_lognormal_tail_mean(law, rows).tobytes()
    for x in (0.0, at_30, 2.0 * at_30, math.inf):
        got = law.tail_mean(x)
        assert np.shape(got) == () and np.asarray(got).tobytes() == two_branch_lognormal_tail_mean(law, x).tobytes()


def test_lognormal_tail_mean_with_a_subnormal_sigma_is_the_two_branch_formula_bit_for_bit():
    law = dist.LogNormal(0.0, 5e-324)
    xs = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0, 1e300, math.inf])
    assert np.asarray(law.tail_mean(xs)).tobytes() == two_branch_lognormal_tail_mean(law, xs).tobytes()
    for x in xs.tolist():
        assert np.asarray(law.tail_mean(x)).tobytes() == two_branch_lognormal_tail_mean(law, x).tobytes()


LOGNORMALS = [dist.LogNormal(0.0, 0.5), dist.LogNormal(-1.0, 2.0), dist.LogNormal(1.5, 1.0)]
GAMMAS = [dist.Gamma(a, s) for a in (0.3, 1.0, 2.0, 5.5, 40.0) for s in (0.1, 0.5, 1.0, 7.0)]
XS = np.concatenate([[-0.0, 0.0], np.geomspace(1e-6, 1e4, 400)])


def _lognormal_tail_terms(law, x, phi):
    """``m Phi(sigma - z)`` and ``x Phi(-z)`` over the normal CDF ``phi``, and ``z``."""
    z = (np.log(np.maximum(x, TINY)) - law.mu) / law.sigma
    return law.mean() * phi(law.sigma - z), x * phi(-z), z


@pytest.mark.parametrize("law", LOGNORMALS, ids=repr)
def test_lognormal_tails_equal_scipy_stats(law):
    # Below z = 30 tail_mean is bit for bit the difference of the two terms
    # over normal_cdf, and each term lies within the normal_cdf bounds of
    # the same term over scipy.stats.norm.
    from scipy.stats import norm

    head, tail, z = _lognormal_tail_terms(law, XS, dist.normal_cdf)
    assert np.all(z < 30.0)
    assert np.asarray(law.tail_mean(XS)).tobytes() == (head - tail).tobytes()
    ref_head, ref_tail, _ = _lognormal_tail_terms(law, XS, norm.cdf)
    _assert_close(head, ref_head, _normal_rtol(law.sigma - z))
    _assert_close(tail, ref_tail, _normal_rtol(-z))


@pytest.mark.parametrize("law", GAMMAS, ids=repr)
def test_gamma_tails_equal_scipy_stats(law):
    # Bit for bit theta (k Q(k + 1, y) - y Q(k, y)) over scipy.stats.gamma's sf.
    from scipy.stats import gamma

    a, s = law.shape, law.scale
    expected = s * (a * gamma.sf(XS, a + 1.0, scale=s) - XS / s * gamma.sf(XS, a, scale=s))
    assert np.asarray(law.tail_mean(XS)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("df", [1, 3, 7])
def test_chi_square_tail_equals_scipy_stats(df):
    from scipy.special import chdtrc
    from scipy.stats import chi2

    # chdtrc, the oracle of the chi2_sf accuracy test, is scipy.stats' tail.
    xs = np.concatenate([[0.0, np.inf], np.geomspace(1e-4, 200.0, 300)])
    assert chdtrc(df, xs).tobytes() == chi2.sf(xs, df).tobytes()
    # chisq_gof_counts: df + 1 bins, none pooled; its p-value is chi2_sf's,
    # within 1e-13 of scipy.stats.
    probs = np.full(df + 1, 1.0 / (df + 1))
    counts = 50.0 + np.arange(df + 1) * 3.0
    res = chisq_gof_counts(counts, probs)
    assert res.p_value == stats.chi2_sf(df, res.statistic)
    assert res.p_value == pytest.approx(float(chi2.sf(res.statistic, df)), rel=1e-13, abs=0.0)


# ------------------------------------------------- tail means against mpmath

# tail_mean(x) = E[(X - x)^+] for every law, against closed forms evaluated
# in 60-digit arithmetic.  The bound, fixed before the first run, is 1e-9
# relative wherever the true value is at least 1e-300, and 1e-309 absolute
# below.  Each grid runs from 0 to where the true tail falls below 1e-305
# (past the top of a bounded support, or to 1e300 for slow tails).
TAIL_RTOL, TAIL_FLOOR = 1e-9, 1e-300

TAIL_LAWS = [
    dist.Exponential(1.5),
    dist.Exponential(0.25),
    *(dist.Gamma(a, s) for a in (0.3, 1.0, 2.0, 5.5, 40.0) for s in (0.1, 7.0)),
    dist.Uniform(0.0, 2.0),
    dist.Uniform(0.5, 1.5),
    dist.Uniform(-1.0, 2.0),
    dist.LogNormal(0.0, 1.0),
    dist.LogNormal(0.0, 0.5),
    dist.LogNormal(-1.0, 2.0),
    dist.LogNormal(1.5, 1.0),
    dist.LogNormal(0.0, 0.1),
    dist.LogNormal(0.0, 5.0),
    dist.LogNormal(0.0, 20.0),
    dist.PointMass(2.0),
    dist.PointMass(0.0),
    dist.FiniteDiscrete(((0.5, 0.3), (1.5, 0.7))),
    dist.FiniteDiscrete(((1.0, 0.5), (3.0, 0.5))),
    dist.Pareto(1.5, 2.0),
    dist.Pareto(3.0, 1.0),
    dist.Pareto(40.0, 0.5),
    dist.Pareto(0.8, 1.0),
]


def _tail_oracle(law, x):
    """``E[(X - x)^+]`` as an mpmath number, evaluated with 60 digits."""
    import mpmath as mp

    with mp.workdps(60):
        x = mp.mpf(float(x))
        if isinstance(law, dist.Exponential):
            rate = mp.mpf(law.rate)
            return mp.exp(-rate * x) / rate
        if isinstance(law, dist.Gamma):
            # (k - y) Q(k, y) + y^k e^-y / Gamma(k), in units of theta.
            k, theta = mp.mpf(law.shape), mp.mpf(law.scale)
            y = x / theta
            q = mp.gammainc(k, y, mp.inf, regularized=True)
            return theta * ((k - y) * q + mp.power(y, k) * mp.exp(-y) / mp.gamma(k))
        if isinstance(law, dist.Uniform):
            lo, hi = mp.mpf(law.lo), mp.mpf(law.hi)
            if x <= lo:
                return (lo + hi) / 2 - x
            return (hi - x) ** 2 / (2 * (hi - lo)) if x < hi else mp.mpf(0)
        if isinstance(law, dist.LogNormal):
            mu, sigma = mp.mpf(law.mu), mp.mpf(law.sigma)
            m = mp.exp(mu + sigma**2 / 2)
            if x == 0:
                return m
            z = (mp.log(x) - mu) / sigma
            return m * mp.ncdf(sigma - z) - x * mp.ncdf(-z)
        if isinstance(law, dist.Pareto):
            a, xm = mp.mpf(law.alpha), mp.mpf(law.xm)
            if a <= 1:
                return mp.inf
            return a * xm / (a - 1) - x if x <= xm else xm**a * x ** (1 - a) / (a - 1)
        atoms = law.atoms if isinstance(law, dist.FiniteDiscrete) else ((law.value, 1.0),)
        return mp.fsum(mp.mpf(p) * max(mp.mpf(v) - x, 0) for v, p in atoms)


def _tail_grid(law):
    top = 2.0 * law.support()[1] + 1.0
    if math.isinf(top):
        # Bisect in log x for the point where the tail crosses 1e-305.
        lo, top = 0.0, 300.0 * math.log(10.0)
        if _tail_oracle(law, math.exp(top)) < 1e-305:
            for _ in range(60):
                mid = 0.5 * (lo + top)
                lo, top = (mid, top) if _tail_oracle(law, math.exp(mid)) >= 1e-305 else (lo, mid)
        top = math.exp(top)
    return np.unique(np.concatenate([[0.0], np.linspace(0.0, top, 200), np.geomspace(1e-6, top, 200)]))


@pytest.mark.parametrize("law", TAIL_LAWS, ids=repr)
def test_tail_mean_against_mpmath(law):
    xs = _tail_grid(law)
    ref = np.array([float(_tail_oracle(law, x)) for x in xs])
    got = np.asarray(law.tail_mean(xs))
    assert got.shape == xs.shape
    assert np.all(got >= 0.0)
    if math.isinf(law.mean()):
        assert np.all(np.isinf(got))
    else:
        assert np.all(np.abs(got - ref) <= TAIL_RTOL * np.maximum(ref, TAIL_FLOOR))
        # Every grid reaches tails below 1e-300, or x = 1e300.
        assert ref.min() < TAIL_FLOOR or xs[-1] > 1e299
    if law.support()[0] >= 0.0:
        assert float(law.tail_mean(0.0)) == law.mean()


# One law or more per family, each with a finite mean; all but Pareto are
# interarrival laws.
LAWS_AT_INFINITY = [
    dist.Exponential(1.5),
    dist.Gamma(2.0, 1.0),
    dist.Gamma(0.3, 7.0),
    dist.Uniform(0.5, 1.5),
    dist.LogNormal(0.0, 1.0),
    dist.LogNormal(-1.0, 2.0),
    dist.PointMass(2.0),
    dist.FiniteDiscrete(((1.0, 0.5), (3.0, 0.5))),
    dist.Pareto(1.5, 2.0),
]


@pytest.mark.parametrize("law", LAWS_AT_INFINITY, ids=repr)
def test_tail_mean_at_infinity_is_zero(law):
    # No inf * 0 term: exactly 0, with no RuntimeWarning, alone and in an array.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(law.tail_mean(math.inf)) == 0.0
        assert np.asarray(law.tail_mean(np.array([1.0, math.inf])))[1] == 0.0
        if not isinstance(law, dist.Pareto):
            assert dist.integrated_tail_cdf(law, math.inf) == 1.0


@pytest.mark.parametrize(
    "law, x",
    [
        pytest.param(law, x, id=repr(law))
        for law, x in [
            (dist.LogNormal(0.0, 1e-200), 1e300),
            (dist.Gamma(1e5, 1e-300), 1e300),
            (dist.LogNormal(0.0, 5e-324), 2.0),
            (dist.LogNormal(0.0, 1e-310), 1.5),
        ]
    ],
)
def test_tail_mean_where_the_standardized_cut_overflows_is_zero(law, x):
    # z^2 (log-normal) and x / scale (gamma) overflow to inf at x = 1e300,
    # and z itself does past e^mu when sigma is subnormal; the true tail
    # there is 0, and it comes with no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(law.tail_mean(x)) == 0.0
