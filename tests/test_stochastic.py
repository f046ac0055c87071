import numpy as np
import pytest
from scipy import stats as sps

from polycanon.stochastic import (
    ConfigError,
    Constant,
    Exponential,
    Gaussian,
    InhomogeneousPoisson,
    Uniform,
    WrongVariantError,
    derive_rng,
    dist_from_config,
    dist_to_config,
    make_rng,
    sample_ioi_stream,
)


def test_constant_always_returns_value():
    rng = make_rng(0)
    assert all(Constant(800).sample(rng) == 800 for _ in range(10))


def test_uniform_bounds_and_mean():
    rng = make_rng(1)
    draws = Uniform(100, 1000).sample(rng, 100_000)
    assert draws.min() >= 100 and draws.max() <= 1000
    assert abs(draws.mean() - 550) < 10


def test_exponential_mean():
    rng = make_rng(2)
    draws = Exponential(40).sample(rng, 100_000)
    assert abs(draws.mean() - 0.025) < 0.001


def test_inhomogeneous_rejects_scalar_sampling():
    with pytest.raises(WrongVariantError):
        InhomogeneousPoisson(lambda t: 1.0, 2.0).sample(make_rng(0))
    with pytest.raises(WrongVariantError):
        InhomogeneousPoisson(lambda t: 1.0, 2.0).sample(make_rng(0), 5)


# each law's draws written as the raw numpy call, so a refactor cannot move them
NUMPY_DRAWS = [
    (Constant(0.2), lambda rng, size: 0.2 if size is None else np.full(size, 0.2)),
    (Uniform(100, 1000), lambda rng, size: rng.uniform(100, 1000, size)),
    (Gaussian(60.0, 5.0), lambda rng, size: rng.normal(60.0, 5.0, size)),
    (Exponential(40.2), lambda rng, size: rng.exponential(1.0 / 40.2, size)),
]


@pytest.mark.parametrize("law,numpy_draw", NUMPY_DRAWS)
def test_law_sample_is_the_numpy_call(law, numpy_draw):
    rng, ref_rng = make_rng(11), make_rng(11)
    one = law.sample(rng)
    assert type(one) is float and one == numpy_draw(ref_rng, None)
    many = law.sample(rng, 1000)
    assert many.dtype == float and np.array_equal(many, numpy_draw(ref_rng, 1000))
    assert law.sample(rng, 0).shape == (0,)
    numpy_draw(ref_rng, 0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_constant_stream_grid():
    onsets = sample_ioi_stream(Constant(0.5), 2.0, make_rng(0))
    assert np.allclose(onsets, [0.0, 0.5, 1.0, 1.5])


def test_exponential_stream_count():
    onsets = sample_ioi_stream(Exponential(120.6), 8.0, make_rng(3))
    expected = 120.6 * 8
    assert abs(len(onsets) - expected) < 3 * np.sqrt(expected)


def test_inhomogeneous_stream_count():
    rate = lambda t: 5 + 40 * abs(t - 15) / 15
    onsets = sample_ioi_stream(InhomogeneousPoisson(rate, 45.0), 30.0, make_rng(4))
    assert abs(len(onsets) - 750) < 3.5 * np.sqrt(750)
    assert np.all(np.diff(onsets) > 0)


def test_nonpositive_duration_rejected():
    with pytest.raises(ValueError):
        sample_ioi_stream(Constant(0.1), 0.0, make_rng(0))


def test_zero_constant_ioi_rejected():
    with pytest.raises(ConfigError):
        sample_ioi_stream(Constant(0.0), 1.0, make_rng(0))


@pytest.mark.parametrize("dist,cdf", [
    (Uniform(2.0, 5.0), lambda x: np.clip((x - 2.0) / 3.0, 0, 1)),
    (Gaussian(1.0, 2.0), lambda x: sps.norm.cdf(x, 1.0, 2.0)),
    (Exponential(3.0), lambda x: sps.expon.cdf(x, scale=1 / 3.0)),
])
def test_empirical_cdf_matches_analytic(dist, cdf):
    draws = np.sort(dist.sample(make_rng(5), 100_000))
    n = len(draws)
    d = np.max(np.abs(np.arange(1, n + 1) / n - cdf(draws)))
    assert d < 0.01


def test_thinning_matches_homogeneous_law():
    lam = 25.0
    rng = make_rng(6)
    onsets = sample_ioi_stream(InhomogeneousPoisson(lambda t: lam, lam), 500.0, rng)
    iois = np.diff(onsets)
    ref = Exponential(lam).sample(rng, 10_000)
    d = sps.ks_2samp(iois[:10_000], ref).statistic
    assert d < 0.02


def test_seed_reproducibility():
    a = Gaussian(0, 1).sample(make_rng(7), 100)
    b = Gaussian(0, 1).sample(make_rng(7), 100)
    assert np.array_equal(a, b)


def test_derived_streams_are_independent():
    a = Uniform(0, 1).sample(derive_rng(7, "one"), 50)
    b = Uniform(0, 1).sample(derive_rng(7, "two"), 50)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, Uniform(0, 1).sample(derive_rng(7, "one"), 50))


def test_invariants_validated():
    with pytest.raises(ConfigError):
        Uniform(5, 1)
    with pytest.raises(ConfigError):
        Gaussian(0, -1)
    with pytest.raises(ConfigError):
        Exponential(0)


def test_config_round_trip():
    documents = [
        (Constant(3.0), {"type": "constant", "value": 3.0}),
        (Uniform(1, 2), {"type": "uniform", "lo": 1, "hi": 2}),
        (Gaussian(0, 1), {"type": "gaussian", "mu": 0, "sigma": 1}),
        (Exponential(40.0), {"type": "exponential", "rate": 40.0}),
    ]
    for dist, doc in documents:
        assert dist_to_config(dist) == doc
        assert list(dist_to_config(dist)) == list(doc)
        assert dist_from_config(dist_to_config(dist)) == dist
    assert dist_from_config({"type": "exponential", "rate": 40.0}) == Exponential(40.0)
    assert dist_from_config({"type": "exponential", "scale": 0.5}) == Exponential(2.0)
    with pytest.raises(ConfigError):
        dist_from_config({"type": "cauchy"})
    with pytest.raises(ConfigError):
        dist_to_config(InhomogeneousPoisson(lambda t: 1.0, 2.0))


# The per-law dispatch that the law methods replaced, kept as references.


def _scale_ioi_dist(dist, factor):
    if isinstance(dist, Constant):
        return Constant(dist.value * factor)
    if isinstance(dist, Exponential):
        return Exponential(dist.rate / factor)
    if isinstance(dist, Uniform):
        return Uniform(dist.lo * factor, dist.hi * factor)
    if isinstance(dist, Gaussian):
        return Gaussian(dist.mu * factor, dist.sigma * factor)
    return dist


def _widen_pitch(source, factor):
    if isinstance(source, Gaussian):
        return Gaussian(source.mu, source.sigma * factor)
    if isinstance(source, Uniform):
        center = 0.5 * (source.lo + source.hi)
        half = 0.5 * (source.hi - source.lo) * factor
        return Uniform(center - half, center + half)
    return source


def _ioi_law_cdf(dist):
    if isinstance(dist, Constant):
        return lambda x: (np.asarray(x) >= dist.value - 1e-12).astype(float)
    if isinstance(dist, Exponential):
        return lambda x: 1.0 - np.exp(-dist.rate * np.maximum(np.asarray(x, float), 0.0))
    if isinstance(dist, Uniform):
        return lambda x: np.clip((np.asarray(x, float) - dist.lo) / (dist.hi - dist.lo), 0, 1)
    raise TypeError(f"no closed-form CDF for {dist!r}")


def _velocity_cdf(dist):
    if isinstance(dist, Constant):
        return lambda x: (np.asarray(x) >= dist.value - 1e-12).astype(float)
    if isinstance(dist, Uniform):
        return lambda x: np.clip((np.asarray(x, float) - dist.lo) / (dist.hi - dist.lo), 0, 1)
    raise TypeError(f"no closed-form CDF for {dist!r}")


LAWS = [Constant(0.2), Constant(800), Uniform(100, 1000), Uniform(0.01, 0.05),
        Gaussian(60.0, 5.0), Exponential(40.2), InhomogeneousPoisson(lambda t: 1.0, 2.0)]


@pytest.mark.parametrize("law", LAWS)
def test_law_methods_equal_the_dispatch_they_replace(law):
    for factor in (0.9**3, 1.0, 1.1**5, 2.0):
        assert law.scaled(factor) == _scale_ioi_dist(law, factor)
        assert law.widened(factor) == _widen_pitch(law, factor)
    # grid around each law's support, with the constant's step and a
    # de-scaled constant (value / r * r) that float dust puts just below it
    x = np.concatenate([np.linspace(-1.0, 1100.0, 4001), [0.2 / 3 * 3, 0.2 - 1e-13, 0.2 - 1e-11,
                                                          800 - 1e-13, 100.0, 1000.0, 0.0]])
    for reference in (_ioi_law_cdf, _velocity_cdf):
        try:
            expected = reference(law)
        except TypeError:
            continue
        assert np.array_equal(law.cdf(x), expected(x))
        assert np.array_equal(law.cdf(x[:7].tolist()), expected(x[:7].tolist()))
    assert hasattr(law, "cdf") == isinstance(law, (Constant, Exponential, Uniform))
