import json
import math
import typing
from dataclasses import dataclass, fields

import numpy as np
import pytest
from scipy import stats as sps

from polycanon.cli import main
from polycanon.fileio import midi_from_config
from polycanon.grammar import grammar_from_config
from polycanon.hal import model_from_config
from polycanon.mapping import config_from_dict, table_from_config
from polycanon.pipeline import generate_beyond_human
from polycanon.presets import load_bundled_config
from polycanon.stochastic import (
    ConfigError,
    Constant,
    Exponential,
    Distribution,
    Gaussian,
    Uniform,
    config_section,
    derive_rng,
    dist_from_config,
    dist_to_config,
    make_rng,
    renewal_onsets,
    thinned_onsets,
)


def test_constant_always_returns_value():
    rng = make_rng(0)
    draws = Constant(800).sample(rng, 10)
    assert draws.dtype == float and np.all(draws == 800)


def test_uniform_bounds_and_mean():
    rng = make_rng(1)
    draws = Uniform(100, 1000).sample(rng, 100_000)
    assert draws.min() >= 100 and draws.max() <= 1000
    assert abs(draws.mean() - 550) < 10


def test_exponential_mean():
    rng = make_rng(2)
    draws = Exponential(40).sample(rng, 100_000)
    assert abs(draws.mean() - 0.025) < 0.001


@pytest.mark.parametrize("law", typing.get_args(Distribution), ids=lambda law: law.__name__)
def test_every_distribution_is_a_value_law(law):
    dist = law(*(0.5 + i for i, _ in enumerate(fields(law))))
    for n in (0, 1, 7):
        draws = dist.sample(make_rng(0), n)
        assert draws.shape == (n,) and draws.dtype == float
    assert dist_from_config(dist_to_config(dist)) == dist


# each law's draws written as the raw numpy call, so a refactor cannot move them
NUMPY_DRAWS = [
    (Constant(0.2), lambda rng, n: np.full(n, 0.2)),
    (Uniform(100, 1000), lambda rng, n: rng.uniform(100, 1000, n)),
    (Gaussian(60.0, 5.0), lambda rng, n: rng.normal(60.0, 5.0, n)),
    (Exponential(40.2), lambda rng, n: rng.exponential(1.0 / 40.2, n)),
]


@pytest.mark.parametrize("law,numpy_draw", NUMPY_DRAWS)
def test_law_sample_is_the_numpy_call(law, numpy_draw):
    rng, ref_rng = make_rng(11), make_rng(11)
    many = law.sample(rng, 1000)
    assert many.dtype == float and np.array_equal(many, numpy_draw(ref_rng, 1000))
    assert law.sample(rng, 0).shape == (0,)
    numpy_draw(ref_rng, 0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_constant_stream_grid():
    onsets = renewal_onsets(Constant(0.5), 1.0, 0.0, 2.0, make_rng(0), "stream")[0]
    assert np.allclose(onsets, [0.0, 0.5, 1.0, 1.5])


def test_exponential_stream_count():
    onsets = renewal_onsets(Exponential(120.6), 1.0, 0.0, 8.0, make_rng(3), "stream")[0]
    expected = 120.6 * 8
    assert abs(len(onsets) - expected) < 3 * np.sqrt(expected)


def test_inhomogeneous_stream_count():
    rate = lambda t: 5 + 40 * abs(t - 15) / 15
    onsets = thinned_onsets(rate, 45.0, 30.0, make_rng(4))
    assert abs(len(onsets) - 750) < 3.5 * np.sqrt(750)
    assert np.all(np.diff(onsets) > 0)


def test_zero_constant_ioi_rejected():
    with pytest.raises(ConfigError, match="stream"):
        renewal_onsets(Constant(0.0), 1.0, 0.0, 1.0, make_rng(0), "stream")


@pytest.mark.parametrize("rate_fn, rate_max, match", [
    (lambda t: math.nan, 10.0, "out of"), (lambda t: -1.0, 10.0, "out of"),
    (lambda t: 11.0, 10.0, "out of"), (lambda t: 1.0, 0.0, "rate_max"),
    # an infinite rate_max draws zero gaps, so the loop would never end
    (lambda t: 1.0, math.inf, "^rate_max must be finite and > 0, got inf$"),
    (lambda t: 1.0, math.nan, "^rate_max must be finite and > 0, got nan$")])
def test_thinning_rejects_a_rate_out_of_range(rate_fn, rate_max, match):
    with pytest.raises(ConfigError, match=match):
        thinned_onsets(rate_fn, rate_max, 5.0, make_rng(0))


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
    onsets = thinned_onsets(lambda t: lam, lam, 500.0, rng)
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


def test_dist_from_config_rejects_an_unknown_key_by_path():
    with pytest.raises(ConfigError, match=r"ioi\.sigma"):
        dist_from_config({"type": "constant", "value": 0.2, "sigma": 0.1}, "ioi")
    with pytest.raises(ConfigError, match=r": scale$"):
        dist_from_config({"type": "exponential", "rate": 2.0, "scale": 0.5})
    with pytest.raises(ConfigError, match="lambda"):
        dist_from_config({"type": "exponential", "scale": 0.5, "lambda": 2.0})
    assert dist_from_config({"type": "exponential", "scale": 0.25}, "ioi") == Exponential(4.0)


@dataclass(frozen=True)
class _Section:
    n: int = 1
    x: float = 0.5

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")


def test_config_section_reads_each_field_as_its_default_type():
    assert config_section(_Section, {}, "s") == _Section()
    section = config_section(_Section, {"x": 2}, "s")
    assert section == _Section(1, 2.0) and isinstance(section.x, float)
    with pytest.raises(ConfigError, match=r"unknown config key\(s\): s\.y$"):
        config_section(_Section, {"n": 2, "y": 1}, "s")
    with pytest.raises(ConfigError, match=r"^s\.n must be an integer"):
        config_section(_Section, {"n": 1.5}, "s")
    with pytest.raises(ConfigError, match=r"^s: n must be >= 0"):
        config_section(_Section, {"n": -1}, "s")


def test_dist_from_config_names_a_missing_key_by_path():
    with pytest.raises(ConfigError, match=r"missing config key\(s\): ioi\.value$"):
        dist_from_config({"type": "constant"}, "ioi")
    with pytest.raises(ConfigError, match=r"missing config key\(s\): velocity\.hi$"):
        dist_from_config({"type": "uniform", "lo": 100}, "velocity")
    with pytest.raises(ConfigError, match=r"missing config key\(s\): ioi\.rate$"):
        dist_from_config({"type": "exponential"}, "ioi")
    with pytest.raises(ConfigError, match=r"missing config key\(s\): type$"):
        dist_from_config({"value": 0.2})


_SYMBOL = {"ioi": {"type": "constant", "value": 0.2}, "pitch": {"type": "constant", "value": 60},
           "velocity": {"type": "constant", "value": 500}, "ratios": [1.0]}
_CANONICAL = load_bundled_config("canonical")
_LAWS = {"constant": ({}, "value"), "uniform": ({"lo": 0.0}, "hi"),
         "gaussian": ({"mu": 0.0}, "sigma"), "exponential": ({}, "rate")}


def _key_cases():
    """(reader, a section holding the unknown key ``bogus``, the message it
    gives, the message once ``bogus`` is removed or None when the section has
    no required key). The ``generate`` reader is the top-level document read
    by ``polycanon generate --config``."""
    unknown, missing = "unknown config key(s): {}", "missing config key(s): {}"
    yield pytest.param(
        "generate", {k: v for k, v in _CANONICAL.items() if k != "mapping"} | {"bogus": 1},
        unknown.format("bogus"), missing.format("mapping"), id="document")
    yield pytest.param(grammar_from_config, {"rules": {"A": "AB"}, "bogus": 1},
                       unknown.format("grammar.bogus"), missing.format("grammar.axiom"),
                       id="grammar")
    yield pytest.param(table_from_config, {"scale_ioi": 1.0, "bogus": 1},
                       unknown.format("mapping.bogus"), missing.format("mapping.symbols"),
                       id="mapping")
    yield pytest.param(lambda cfg: config_from_dict(cfg, "mapping.symbols.A"),
                       {**_SYMBOL, "bogus": 1}, unknown.format("mapping.symbols.A.bogus"),
                       missing.format("mapping.symbols.A.duration"), id="symbol")
    yield pytest.param(lambda cfg: config_from_dict({**_SYMBOL, "duration": 0.5, "pitch": cfg},
                                                    "A"),
                       {"type": "pitch_set", "classes": [0, 7], "lo": 40, "bogus": 1},
                       unknown.format("A.pitch.bogus"), missing.format("A.pitch.hi"),
                       id="pitch_set")
    for kind, (given, lacking) in _LAWS.items():
        for path, at in (("ioi", "ioi."), ("", "")):
            yield pytest.param(lambda cfg, path=path: dist_from_config(cfg, path),
                               {"type": kind, **given, "bogus": 1},
                               unknown.format(f"{at}bogus"), missing.format(f"{at}{lacking}"),
                               id=f"{kind}-{path or 'top'}")
    yield pytest.param(lambda cfg: dist_from_config(cfg, "ioi"),
                       {"type": "exponential", "scale": 0.5, "bogus": 1},
                       unknown.format("ioi.bogus"), None, id="exponential-scale")
    # a law's fields depend on its type, so a missing type is named first
    yield pytest.param(lambda cfg: dist_from_config(cfg, "ioi"), {"value": 0.2, "bogus": 1},
                       missing.format("ioi.type"), missing.format("ioi.type"), id="law-type")
    yield pytest.param(model_from_config, {"c": 0.5, "bogus": 1}, unknown.format("hal.bogus"),
                       None, id="hal")
    yield pytest.param(midi_from_config, {"ppq": 480, "bogus": 1},
                       unknown.format("midi.bogus"), None, id="midi")
    for kind in ("polyphony", "trill", "arpeggio"):
        yield pytest.param(lambda cfg, kind=kind: generate_beyond_human(kind, **cfg),
                           {"bogus": 1}, unknown.format(f"{kind}.bogus"), None, id=kind)


def _config_error(read, cfg, tmp_path, capsys) -> str:
    if read == "generate":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        return capsys.readouterr().err.strip()
    with pytest.raises(ConfigError) as err:
        read(cfg)
    return str(err.value)


@pytest.mark.parametrize("read,cfg,with_unknown,with_missing", _key_cases())
def test_every_config_reader_names_unknown_keys_before_missing_ones(
        tmp_path, capsys, read, cfg, with_unknown, with_missing):
    assert _config_error(read, cfg, tmp_path, capsys).endswith(with_unknown)
    if with_missing is not None:
        cfg = {k: v for k, v in cfg.items() if k != "bogus"}
        assert _config_error(read, cfg, tmp_path, capsys).endswith(with_missing)


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
        Gaussian(60.0, 5.0), Exponential(40.2)]


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
