import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from renewal_immigration import distributions as dist
from renewal_immigration.errors import LawError
from renewal_immigration.streams import stream

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
    assert dist.mean(dist.Exponential(1.0)) == 1.0
    assert dist.mean(dist.Uniform(0.0, 2.0)) == 1.0
    assert dist.mean(dist.FiniteDiscrete(((1.0, 0.5), (3.0, 0.5)))) == 2.0


def test_point_mass_sampling_is_constant():
    rng = stream(0)
    assert dist.sample(dist.PointMass(5.0), rng) == 5.0
    assert np.all(dist.sample(dist.PointMass(5.0), rng, size=10) == 5.0)


def test_exponential_sample_moments():
    draws = dist.sample(dist.Exponential(1.0), stream(1), size=10**6)
    assert abs(draws.mean() - 1.0) < 0.004


def test_uniform_sample_variance():
    draws = dist.sample(dist.Uniform(0.0, 2.0), stream(2), size=10**6)
    assert abs(draws.var() - 1.0 / 3.0) < 0.003


def test_size_biased_point_mass_identity():
    rng = stream(3)
    for _ in range(10):
        assert dist.sample_size_biased(dist.PointMass(5.0), rng) == 5.0


def test_size_biased_exponential_mean_matches_quadrature():
    # E[xi0] = E[xi^2] / E[xi]; the oracle integrates x^2 e^{-x} directly.
    oracle, err = quad(lambda x: x * x * math.exp(-x), 0.0, np.inf)
    assert err < 1e-9
    draws = dist.sample_size_biased(dist.Exponential(1.0), stream(4), size=10**6)
    assert abs(draws.mean() - oracle) < 0.005


def test_size_biased_finite_discrete_reweights():
    draws = dist.sample_size_biased(
        dist.FiniteDiscrete(((1.0, 0.5), (3.0, 0.5))), stream(5), size=10**6
    )
    assert abs(np.mean(draws == 3.0) - 0.75) < 0.002


@pytest.mark.parametrize("law", INTERARRIVAL_LAWS, ids=lambda l: type(l).__name__)
def test_size_biased_mean_all_families(law):
    draws = dist.sample_size_biased(law, stream(6), size=10**6)
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
    oracle, err = quad(lambda x: x * float(law.sf(x)) / mu, 0.0, np.inf, limit=200)
    assert err < 1e-8
    s0, _, _ = dist.sample_stationary_delay(law, stream(9), size=4 * 10**5)
    se = s0.std(ddof=1) / math.sqrt(len(s0))
    assert abs(s0.mean() - oracle) < 4.0 * se


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(INTERARRIVAL_LAWS))
@settings(max_examples=60, deadline=None)
def test_split_identity_near_exact(seed, law):
    s0, xi0, u = dist.sample_stationary_delay(law, stream(seed))
    assert 0.0 <= s0 <= xi0
    assert s0 + (1.0 - u) * xi0 == pytest.approx(xi0, rel=4e-16, abs=0.0)


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
    mu = law.mean()
    for x in [0.1, 0.5, 1.0, 2.5, 7.0]:
        oracle, err = quad(
            lambda y: float(law.sf(y)) / mu, 0.0, x, limit=400, epsabs=1e-13, epsrel=1e-13
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


def test_eta_laws_allow_signed_and_heavy_tails():
    eta = dist.law_from_config({"family": "uniform", "lo": -1.0, "hi": 1.0})
    assert eta.support() == (-1.0, 1.0)
    heavy = dist.law_from_config({"family": "pareto", "alpha": 0.8, "xm": 1.0})
    assert math.isinf(heavy.mean())
    zero_ok = dist.law_from_config({"family": "point_mass", "value": 0.0})
    assert zero_ok.mean() == 0.0


def test_config_round_trip():
    for law in INTERARRIVAL_LAWS + [dist.Pareto(1.5, 2.0)]:
        assert dist.law_from_config(dist.law_to_config(law)) == law


def test_config_errors():
    with pytest.raises(LawError):
        dist.law_from_config({"family": "exponential"})
    with pytest.raises(LawError):
        dist.law_from_config({"family": "triangular", "a": 1.0})
    with pytest.raises(LawError):
        dist.law_from_config({"family": "exponential", "rate": 1.0, "junk": 2})
    with pytest.raises(LawError):
        dist.law_from_config({"family": "uniform", "lo": -1.0, "hi": 1.0}, interarrival=True)


def test_determinism_same_seed_same_draws():
    for law in INTERARRIVAL_LAWS:
        a = dist.sample(law, stream(123), size=50)
        b = dist.sample(law, stream(123), size=50)
        assert np.array_equal(a, b)
        sa = dist.sample_size_biased(law, stream(77), size=20)
        sb = dist.sample_size_biased(law, stream(77), size=20)
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
    # Batched kernel paths rely on this: one draw of size k is k single draws.
    k = 2000
    rng, ref_rng = stream(5), stream(5)
    batched = np.asarray(law.sample(rng, size=k), dtype=float)
    singles = np.array([law.sample(ref_rng) for _ in range(k)], dtype=float)
    assert batched.tobytes() == singles.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pareto_tail_shapes():
    heavy = dist.Pareto(0.8, 1.0)
    xs = np.array([1.0, 2.0, 10.0, 100.0])
    assert np.allclose(heavy.sf(xs), (1.0 / xs) ** 0.8)
    assert float(heavy.cdf(0.5)) == 0.0
