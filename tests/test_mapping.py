import numpy as np
import pytest

from polycanon.mapping import (
    MappingError,
    MappingTable,
    ParameterConfig,
    PitchSet,
    describe,
    parse,
    resolve,
)
from polycanon.experiments._common import discrete_cdf
from polycanon.presets import canonical_table
from polycanon.stats import ks_distance_to_cdf
from polycanon.stochastic import ConfigError, Constant, Exponential, Gaussian, Uniform, make_rng


def test_canonical_regimes_switch_distribution_type():
    table = canonical_table()
    a = resolve(table, "A", 0)
    b = resolve(table, "B", 0)
    assert isinstance(a.ioi, Constant)
    assert isinstance(b.ioi, Exponential)
    assert type(a.ioi) is not type(b.ioi)
    assert a.ratios == (3.0, 4.0) and b.ratios == (1.0, 2.0)
    assert isinstance(a.velocity, Constant) and a.velocity.value == 800
    assert isinstance(b.velocity, Uniform) and (b.velocity.lo, b.velocity.hi) == (100, 1000)


def test_modulation_disabled_is_generation_invariant():
    table = canonical_table(depth_weighted=False)
    for g in (0, 1, 5):
        assert resolve(table, "A", g) == resolve(table, "A", 0)


def test_depth_modulation_densifies_and_widens():
    table = canonical_table(depth_weighted=True)
    means = [resolve(table, "B", g).ioi.mean() for g in range(4)]
    assert all(m2 < m1 for m1, m2 in zip(means, means[1:]))
    widths = []
    for g in range(4):
        ps = resolve(table, "B", g).pitch[0]
        widths.append(ps.hi - ps.lo)
    assert widths == sorted(widths)
    # gaussian pitch spread scales too
    t2 = MappingTable(
        {"X": ParameterConfig(Constant(0.1), Gaussian(60, 5), Constant(500), (1.0,), 2.0)},
        scale_ioi=0.9, scale_pitch=1.1)
    assert resolve(t2, "X", 2).pitch[0].sigma == pytest.approx(5 * 1.1**2)


def test_unknown_symbol_raises():
    with pytest.raises(MappingError):
        resolve(canonical_table(), "Z", 0)
    with pytest.raises(ValueError):
        resolve(canonical_table(), "A", -1)


def test_pitch_set_sampling_stays_in_register_and_classes():
    ps = PitchSet((0, 4, 7), 48, 72)
    rng = make_rng(9)
    draws = ps.sample(rng, 500)
    assert draws.min() >= 48 and draws.max() <= 72
    assert set((draws % 12).tolist()) <= {0, 4, 7}


def test_pitch_set_weighted_sampling():
    ps = PitchSet((0, 7), 60, 71, weights=(0.9, 0.1))
    rng = make_rng(10)
    draws = ps.sample(rng, 2000)
    share = np.mean(draws % 12 == 0)
    assert 0.85 < share < 0.95


def choice_reference_n(ps, rng, n):
    """n draws written as rng.choice of every class, then every placement."""
    idx = rng.choice(len(ps.classes), size=n, p=ps.weights)
    first = np.array([ps.lo + (c - ps.lo) % 12 for c in ps.classes])[idx]
    counts = (ps.hi - first) // 12 + 1
    return first + 12 * rng.integers(counts)


def pitch_pmf(ps):
    """The pmf helper that PitchSet.pmf replaced, kept as a reference."""
    values, probs = [], []
    n_classes = len(ps.classes)
    placements = [range(ps.lo + (c - ps.lo) % 12, ps.hi + 1, 12) for c in ps.classes]
    for i, notes in enumerate(placements):
        w = ps.weights[i] if ps.weights else 1.0 / n_classes
        for note in notes:
            values.append(note)
            probs.append(w / len(notes))
    order = np.argsort(values)
    return np.array(values)[order], np.array(probs)[order]


@pytest.mark.parametrize("ps", [
    PitchSet((0, 4, 7), 48, 84),
    PitchSet((0, 2, 5, 7, 11), 21, 108, weights=(0.4, 0.3, 0.0, 0.2, 0.1)),
])
def test_pitch_set_sample_follows_choice_stream(ps):
    rng, ref_rng = make_rng(17), make_rng(17)
    assert np.array_equal(ps.sample(rng, 3000), choice_reference_n(ps, ref_rng, 3000))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("ps", [
    PitchSet((0, 4, 7), 48, 84),
    PitchSet(tuple(range(12)), 21, 108),
    PitchSet((0, 2, 5, 7, 11), 21, 108, weights=(0.4, 0.3, 0.0, 0.2, 0.1)),
    PitchSet((0, 4, 7), 48, 84).widened(1.1**8),  # the cp pre-switch set at generation 8
])
def test_pitch_set_sample_n_support_and_pmf(ps):
    n = 40_000
    draws = ps.sample(make_rng(23), n)
    values, probs = ps.pmf()
    ref_values, ref_probs = pitch_pmf(ps)
    assert np.array_equal(values, ref_values) and np.array_equal(probs, ref_probs)
    assert draws.shape == (n,)
    assert set(draws.tolist()) == set(values[probs > 0].tolist())
    # one-sample KS at alpha = 0.001 (conservative for a discrete law)
    assert ks_distance_to_cdf(draws, discrete_cdf(values, probs)) < 1.95 / np.sqrt(n)
    assert ps.sample(make_rng(23), 0).shape == (0,)


@pytest.mark.parametrize("weights", [(1.5, -0.5), (float("nan"), 0.5), (float("inf"), 0.5)])
def test_pitch_set_rejects_negative_or_non_finite_weights(weights):
    with pytest.raises(ConfigError):
        PitchSet((0, 7), 60, 71, weights=weights)


def test_pitch_set_validation():
    with pytest.raises(ConfigError):
        PitchSet((), 0, 10)
    with pytest.raises(ConfigError):
        PitchSet((0,), 60, 50)
    with pytest.raises(ConfigError):
        PitchSet((0, 7), 60, 71, weights=(0.5, 0.2))
    with pytest.raises(ConfigError):
        PitchSet((1,), 0, 0)  # class 1 has no note in [0, 0]


def test_describe_parse_round_trip():
    table = canonical_table(depth_weighted=True)
    assert parse(describe(table)) == table


def test_a_single_pitch_source_serves_every_voice():
    p = PitchSet((0, 4, 7), 48, 72)
    cfg = ParameterConfig(Constant(0.1), p, Constant(500), (1.0, 2.0), 2.0)
    assert cfg.pitch == (p, p)
    assert cfg == ParameterConfig(Constant(0.1), (p, p), Constant(500), (1.0, 2.0), 2.0)
    table = MappingTable({"X": cfg})
    assert parse(describe(table)) == table
    with pytest.raises(ConfigError, match="per-voice pitch sources"):
        ParameterConfig(Constant(0.1), (p,), Constant(500), (1.0, 2.0), 2.0)


def test_describe_empty_table():
    empty = MappingTable({})
    assert parse(describe(empty)) == empty
    assert "symbols" in describe(empty)


def test_describe_lists_every_symbol():
    text = describe(canonical_table())
    assert '"A"' in text and '"B"' in text and "exponential" in text and "constant" in text


def _canonical_mapping():
    from polycanon.presets import load_bundled_config

    return load_bundled_config("canonical")["mapping"]


def _parent_and_key(cfg, path):
    """The node holding the last key of a dotted path (list items by index), and that key."""
    *parents, key = path.split(".")
    for part in parents:
        cfg = cfg[int(part)] if isinstance(cfg, list) else cfg[part]
    return cfg, key


def test_table_from_config_reads_the_bundled_mapping():
    from polycanon.mapping import table_from_config

    assert table_from_config(_canonical_mapping()) == canonical_table()


@pytest.mark.parametrize("path", ["scale_iot", "symbols.A.ioi.sigma", "symbols.A.tempo",
                                  "symbols.A.pitch.1.weight", "symbols.B.pitch.octave",
                                  "symbols.B.velocity.mu"])
def test_table_from_config_rejects_an_unknown_key_by_path(path):
    from polycanon.mapping import table_from_config

    cfg = _canonical_mapping()
    node, key = _parent_and_key(cfg, path)
    node[key] = 1
    with pytest.raises(ConfigError, match=rf"unknown config key\(s\): mapping\.{path}$"):
        table_from_config(cfg)


@pytest.mark.parametrize("path", ["symbols", "symbols.A.ratios", "symbols.B.ioi.rate",
                                  "symbols.A.pitch.0.classes", "symbols.B.velocity.type"])
def test_table_from_config_names_a_missing_key_by_path(path):
    from polycanon.mapping import table_from_config

    cfg = _canonical_mapping()
    node, key = _parent_and_key(cfg, path)
    del node[key]
    with pytest.raises(ConfigError, match=rf"missing config key\(s\): mapping\.{path}$"):
        table_from_config(cfg)


def test_config_from_dict_names_a_missing_key_under_its_path():
    from polycanon.mapping import config_from_dict, config_to_dict

    cfg = config_to_dict(canonical_table().configs["A"])
    del cfg["duration"]
    with pytest.raises(ConfigError, match=r"missing config key\(s\): A\.duration$"):
        config_from_dict(cfg, "A")
    del cfg["ratios"]
    with pytest.raises(ConfigError, match=r"missing config key\(s\): ratios, duration$"):
        config_from_dict(cfg)
