import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycanon.canon import ConvergenceQuery, find_convergences, voice_times_until
from polycanon.events import NoteEvent, Piece
from polycanon.fileio import write_events_json
from polycanon.grammar import SymbolString, TaggedSymbol, expand
from polycanon.mapping import MappingTable, ParameterConfig, PitchSet
from polycanon.pipeline import (
    InfeasibleError,
    apply_collision_mask,
    generate,
    generate_beyond_human,
    generate_cp_continuous,
    generate_cp_discrete,
)
from polycanon.presets import (
    canonical_table,
    cp_switch_configs,
    fibonacci_grammar,
    rational_canon,
    transcendental_canon,
)
from polycanon.stats import ks_test
from polycanon.stochastic import (
    MIN_IOI,
    ConfigError,
    Constant,
    Exponential,
    Gaussian,
    Uniform,
    make_rng,
    renewal_onsets,
    thinned_onsets,
)


def one_symbol(symbol="X", gen=0):
    return SymbolString((TaggedSymbol(symbol, gen),), 0)


def simple_table(ioi=Constant(0.5), pitch=PitchSet((0,), 60, 60),
                 velocity=Constant(500), ratios=(1.0,), duration=2.0):
    return MappingTable({"X": ParameterConfig(ioi, pitch, velocity, ratios, duration)})


def test_deterministic_single_voice_grid():
    piece = generate(one_symbol(), simple_table(), make_rng(0))
    assert len(piece) == 4
    assert np.allclose(piece.onsets(), [0.0, 0.5, 1.0, 1.5])


def test_empty_string_gives_empty_piece():
    piece = generate(SymbolString((), 0), canonical_table(), make_rng(0))
    assert len(piece) == 0
    assert piece.sections == ()


def test_canonical_render_densities(canonical):
    assert 4200 <= len(canonical) <= 5100
    onsets = canonical.onsets()
    for index, (symbol, lo, hi) in enumerate(canonical.sections):
        density = np.sum((onsets >= lo) & (onsets < hi)) / (hi - lo)
        if symbol == "A":
            assert abs(density - 35.0) <= 5.0
        else:
            assert abs(density - 120.6) <= 15.0


def test_sections_tile_and_contain_their_events(canonical):
    sections = canonical.sections
    assert sections[0][1] == 0.0
    assert sections[-1][2] == pytest.approx(74.0)
    for (_, _, end), (_, start, _) in zip(sections, sections[1:]):
        assert end == pytest.approx(start)
    for e in canonical.events:
        _, lo, hi = sections[e.section]
        assert lo - 1e-9 <= e.onset < hi + 1e-9


def test_generation_is_deterministic_byte_for_byte(tmp_path, canonical):
    symbols = expand(fibonacci_grammar(), 4)
    from polycanon.stochastic import derive_rng
    again = generate(symbols, canonical_table(), derive_rng(42, "canonical-render"), seed=42)
    p1 = write_events_json(canonical, tmp_path / "a.json")
    p2 = write_events_json(again, tmp_path / "b.json")
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.floats(-5000, 5000), st.floats(0, 4000), st.integers(0, 2**31 - 1))
def test_velocity_clamp_under_extreme_gaussians(mu, sigma, seed):
    table = simple_table(velocity=Gaussian(mu, sigma), duration=1.0)
    piece = generate(one_symbol(), table, make_rng(seed))
    v = piece.velocities()
    assert v.min() >= 0 and v.max() <= 1023


def test_pitch_rounding_and_clamp():
    table = simple_table(pitch=Gaussian(200.0, 80.0), duration=1.0)
    piece = generate(one_symbol(), table, make_rng(3))
    p = piece.pitches()
    assert p.min() >= 0 and p.max() <= 127


IOI_LAWS = [Constant(0.037), Uniform(0.0, 0.08), Gaussian(0.01, 0.02), Exponential(60.0)]


@pytest.mark.parametrize("ioi", IOI_LAWS, ids=lambda d: type(d).__name__)
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_generate_onsets_tile_each_section(ioi, seed):
    """Per (section, voice): onsets start at the section start, each event ends
    where the next starts, and the last one is the first to reach the end."""
    table = simple_table(ioi=ioi, ratios=(1.0, 2.5), duration=1.5)
    symbols = SymbolString((TaggedSymbol("X", 0), TaggedSymbol("X", 0)), 0)
    piece = generate(symbols, table, make_rng(seed))
    assert [s[1:] for s in piece.sections] == [(0.0, 1.5), (1.5, 3.0)]
    for index, (_, t_start, t_end) in enumerate(piece.sections):
        for voice in (0, 1):
            events = [e for e in piece.section_events(index) if e.voice == voice]
            onsets = np.array([e.onset for e in events])
            durations = np.array([e.duration for e in events])
            assert onsets[0] == t_start
            assert np.all(np.diff(onsets) > 0)
            assert np.array_equal(onsets[1:], onsets[:-1] + durations[:-1])
            assert np.all(durations >= MIN_IOI)
            assert onsets[-1] < t_end - 1e-12 <= onsets[-1] + durations[-1]


@pytest.mark.parametrize("ioi", IOI_LAWS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("duration", [0.05, 0.7, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ioi_stream_is_the_onsets_generate_draws(ioi, duration, seed):
    stream = renewal_onsets(ioi, 1.0, 0.0, duration, make_rng(seed), "stream")[0]
    piece = generate(one_symbol(), simple_table(ioi=ioi, duration=duration), make_rng(seed))
    assert stream.tolist() == piece.onsets().tolist()


@pytest.mark.parametrize("value, ratio", [(0.2, 3.0), (0.2, 4.0), (0.37, 3.0), (1e-6, 1.0)])
def test_constant_ioi_onsets_match_scalar_loop(value, ratio):
    table = simple_table(ioi=Constant(value), ratios=(ratio,), duration=2.0)
    symbols = SymbolString((TaggedSymbol("X", 0),) * 3, 0)
    piece = generate(symbols, table, make_rng(0))
    expected = []
    for _, t_start, t_end in piece.sections:
        t = t_start
        while t < t_end - 1e-12:
            expected.append(t)
            t += max(value / ratio, MIN_IOI)
    assert piece.onsets().tolist() == expected


def test_section_inside_the_end_tolerance_has_no_events():
    table = simple_table(ioi=Exponential(10.0), duration=1e-13)
    piece = generate(one_symbol(), table, make_rng(0))
    assert len(piece) == 0 and piece.sections == (("X", 0.0, 1e-13),)


def test_zero_constant_ioi_is_config_error():
    with pytest.raises(ConfigError, match="'X'"):
        generate(one_symbol(), simple_table(ioi=Constant(0.0)), make_rng(0))


@pytest.mark.parametrize("ioi", [Constant(1e-6), Exponential(1e9)], ids=["constant", "exponential"])
def test_event_cap_overflow_is_config_error(ioi):
    # MIN_IOI-spaced events over 101 s: 1,010,000 > MAX_EVENTS_PER_SECTION
    table = simple_table(ioi=ioi, duration=101.0)
    with pytest.raises(ConfigError, match="exceeded"):
        generate(one_symbol(), table, make_rng(0))


def test_collision_mask_examples():
    def piece_with(dt):
        return Piece.from_events([
            NoteEvent(0.0, 60, 500, 0.1),
            NoteEvent(dt, 60, 500, 0.1),
        ])

    assert len(apply_collision_mask(piece_with(0.030))) == 1
    assert len(apply_collision_mask(piece_with(0.060))) == 2


def test_collision_mask_enforces_per_key_floor():
    rng = make_rng(11)
    onsets = np.sort(rng.uniform(0, 5, 1000))  # ~200 notes/s
    events = [NoteEvent(float(t), int(rng.integers(50, 60)), 500, 0.05) for t in onsets]
    masked = apply_collision_mask(Piece.from_events(events))
    by_pitch = {}
    for e in masked.events:
        by_pitch.setdefault(e.pitch, []).append(e.onset)
    for pitch, times in by_pitch.items():
        gaps = np.diff(sorted(times))
        assert np.all(gaps >= 0.05 - 1e-9)


def test_cp_discrete_switch_and_null_switch():
    pre, post = cp_switch_configs()
    query = ConvergenceQuery(0.05, 30.0, *rational_canon())
    piece = generate_cp_discrete(rational_canon(), pre, post, query, make_rng(5), switch_at=15.0)
    assert piece.metadata["cp_time"] == pytest.approx(15.0)
    assert [s[0] for s in piece.sections] == ["pre", "post"]
    pre_rate = sum(e.onset < 15 for e in piece.events) / 15
    post_rate = sum(e.onset >= 15 for e in piece.events) / 15
    assert post_rate / pre_rate > 4

    null = generate_cp_discrete(rational_canon(), pre, pre, query, make_rng(6), switch_at=15.0)
    onsets = null.onsets()
    counts = np.array([np.sum((onsets >= k) & (onsets < k + 1)) for k in range(30)])
    assert ks_test(counts[:15], counts[15:]).p_value > 0.05


def test_cp_discrete_without_convergence_reports_none():
    pre, post = cp_switch_configs()
    offset = rational_canon()[0]
    from polycanon.canon import VoiceSpec
    v1 = VoiceSpec(3.0, 3.0, start=0.1234)
    v2 = VoiceSpec(4.0, 3.0, start=0.5678)
    query = ConvergenceQuery(0.001, 30.0, v1, v2)
    piece = generate_cp_discrete((v1, v2), pre, post, query, make_rng(7))
    assert piece.metadata["cp_time"] is None
    assert [s[0] for s in piece.sections] == ["pre"]


@pytest.mark.parametrize("horizon", [0.5, 2.9, 3.0])
def test_cp_discrete_does_not_switch_at_a_boundary_convergence(horizon):
    # the 3:4 canon converges at 0, 3, 6, ...: here only at t = 0 or at the horizon
    pre, post = cp_switch_configs()
    voices = rational_canon()
    query = ConvergenceQuery(0.05, horizon, *voices)
    assert find_convergences(query)
    piece = generate_cp_discrete(voices, pre, post, query, make_rng(0))
    assert piece.metadata["cp_time"] is None
    assert piece.sections == (("pre", 0.0, horizon),)


def test_cp_continuous_rejects_an_empty_horizon():
    _, post = cp_switch_configs()
    with pytest.raises(ValueError, match="horizon must be > 0"):
        generate_cp_continuous(transcendental_canon(), lambda t: 5.0, 45.0, 0.0, post,
                               make_rng(0))


def note_block_reference(onsets, voice, symbol, section, cfg, rng):
    """The notes at ``onsets`` as the cp generators draw them, one NoteEvent
    per note: every pitch of the block, then every velocity, each rounded and
    clamped one at a time."""
    pitches = cfg.pitch[0].sample(rng, len(onsets)).tolist()
    velocities = cfg.velocity.sample(rng, len(onsets)).tolist()
    return [NoteEvent(float(t), int(min(max(round(p), 0), 127)),
                      int(min(max(round(v), 0), 1023)), max(cfg.ioi.mean(), MIN_IOI), voice,
                      symbol, 0, section)
            for t, p, v in zip(onsets, pitches, velocities)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("switch_at", [5.0, 15.0, None])
def test_cp_discrete_equals_the_per_note_reference(seed, switch_at):
    pre, post = cp_switch_configs()
    voices = rational_canon()
    rng, ref_rng = make_rng(seed), make_rng(seed)
    piece = generate_cp_discrete(voices, pre, post, ConvergenceQuery(0.05, 30.0, *voices), rng,
                                 switch_at=switch_at)
    cp = piece.metadata["cp_time"]
    sections = (("pre", 0.0, cp, pre), ("post", cp, 30.0, post))

    events = []
    for vid, vs in enumerate(voices):
        onsets = voice_times_until(vs, 30.0)
        onsets = onsets[onsets < 30.0]  # no note starts at the horizon
        section = (onsets >= cp).astype(int)  # the last section starting at or before
        for k, (symbol, _, _, cfg) in enumerate(sections):
            events += note_block_reference(onsets[section == k], vid, symbol, k, cfg, ref_rng)
    for k, (symbol, lo, hi, cfg) in enumerate(sections):
        onsets = renewal_onsets(cfg.ioi, 1.0, 0.0, hi - lo, ref_rng, symbol)[0] + lo
        events += note_block_reference(onsets, 2, symbol, k, cfg, ref_rng)
    assert piece == Piece.from_events(events, (("pre", 0.0, cp), ("post", cp, 30.0)),
                                      {"cp_time": cp})
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert piece.onsets().max() < piece.sections[-1][2]


def test_cp_continuous_equals_the_per_note_reference():
    _, post = cp_switch_configs()
    voices = transcendental_canon()

    def rate_fn(t):
        return 5.0 + 40.0 * abs(t - 15.0) / 15.0

    rng, ref_rng = make_rng(3), make_rng(3)
    piece = generate_cp_continuous(voices, rate_fn, 45.0, 30.0, post, rng)
    events = []
    for vid, vs in enumerate(voices):
        onsets = voice_times_until(vs, 30.0)
        events += note_block_reference(onsets[onsets < 30.0], vid, "modulated", 0, post, ref_rng)
    onsets = thinned_onsets(rate_fn, 45.0, 30.0, ref_rng)
    events += note_block_reference(onsets, 2, "modulated", 0, post, ref_rng)
    assert piece == Piece.from_events(events, (("modulated", 0.0, 30.0),), {})
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_beyond_human_grids_equal_the_per_note_reference():
    chord = np.linspace(21, 108, 40).round().astype(int).tolist()
    step = 1.0 / 37.0
    cases = [
        ("polyphony", dict(chord_size=40, period=0.5, n_chords=8),
         [NoteEvent(k * 0.5, p, 800, 0.5 * 0.9, 0, "P") for k in range(8) for p in chord]),
        ("trill", dict(rate_hz=37.0, keys=(60, 62, 64), duration=1.3),
         [NoteEvent(k * step, (60, 62, 64)[k % 3], 800, step * 0.9, 0, "T")
          for k in range(round(1.3 * 37.0))]),
        ("arpeggio", dict(span=72, ioi=0.025, start=24),
         [NoteEvent(k * 0.025, 24 + k, 800, 0.025, 0, "R") for k in range(72)]),
    ]
    for kind, cfg, events in cases:
        piece = generate_beyond_human(kind, **cfg)
        assert piece == Piece.from_events(events, piece.sections, {"kind": kind})


def test_beyond_human_polyphony_exact():
    piece = generate_beyond_human("polyphony", chord_size=40, period=0.5, n_chords=4)
    onsets = np.unique(piece.onsets())
    assert np.allclose(onsets, [0.0, 0.5, 1.0, 1.5])
    for t in onsets:
        chord = [e.pitch for e in piece.events if e.onset == t]
        assert len(chord) == len(set(chord)) == 40


def test_beyond_human_trill_rates():
    piece = generate_beyond_human("trill", rate_hz=30.0, keys=(60, 62), duration=2.0)
    onsets = piece.onsets()
    assert np.allclose(np.diff(onsets), 1 / 30)
    pitches = piece.pitches()
    assert set(pitches[::2]) == {60} and set(pitches[1::2]) == {62}
    with pytest.raises(InfeasibleError, match="key reset"):
        generate_beyond_human("trill", rate_hz=30.0, keys=(60,))


def test_beyond_human_arpeggio_exact():
    piece = generate_beyond_human("arpeggio", span=72, ioi=0.025, start=24)
    assert len(piece) == 72
    assert list(piece.pitches()) == list(range(24, 96))
    assert np.allclose(np.diff(piece.onsets()), 0.025)


def test_beyond_human_infeasible_configs():
    with pytest.raises(InfeasibleError):
        generate_beyond_human("polyphony", chord_size=100)
    with pytest.raises(InfeasibleError):
        generate_beyond_human("arpeggio", span=90, start=60)
    with pytest.raises(ValueError):
        generate_beyond_human("glissando")


@pytest.mark.parametrize("start,span", [(100, 20), (0, 10), (20, 5), (105, 5)])
def test_beyond_human_arpeggio_stays_on_the_keyboard(start, span):
    # pitches 100-119 pass MIDI's 0..127 but leave the 88 keys, A0 (21) to C8 (108)
    with pytest.raises(InfeasibleError, match="88-key range"):
        generate_beyond_human("arpeggio", start=start, span=span)


def test_beyond_human_arpeggio_may_span_the_whole_keyboard():
    piece = generate_beyond_human("arpeggio", start=21, span=88)
    assert piece.pitches().tolist() == list(range(21, 109))


@pytest.mark.parametrize("kind,cfg,key", [
    ("trill", dict(rate=40.0), "rate"),
    ("polyphony", dict(chord_sise=10), "chord_sise"),
    ("arpeggio", dict(span=12, rate_hz=30.0), "rate_hz"),
])
def test_beyond_human_rejects_an_option_its_kind_does_not_read(kind, cfg, key):
    with pytest.raises(ValueError, match=rf"unknown config key\(s\): {kind}\.{key}$"):
        generate_beyond_human(kind, **cfg)
