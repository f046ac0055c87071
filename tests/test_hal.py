from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycanon.cli import main
from polycanon.events import COLUMNS, VELOCITY_MAX, NoteEvent, Piece
from polycanon.fileio import read_events
from polycanon.grammar import expand
from polycanon.hal import (
    DRIFT_BAND,
    CalibrationData,
    ConstraintSet,
    FilterConfig,
    FitError,
    LatencyModel,
    NoiseSpec,
    enforce_constraints,
    fit_power_law,
    latency,
    model_from_config,
    precompensate,
    robustness_filter,
    simulate_mismatch,
    _true_latencies,
)
from polycanon.pipeline import generate
from polycanon.presets import canonical_table, fibonacci_grammar, load_bundled_config
from polycanon.stochastic import ConfigError, make_rng

ALL_VARIANTS = [LatencyModel(variant="linear"), LatencyModel(variant="power", c=0.5),
                LatencyModel(variant="log", k=9.0)]


@pytest.mark.parametrize("model", ALL_VARIANTS, ids=lambda m: m.variant)
def test_boundary_conditions(model):
    assert latency(model, 0) == pytest.approx(30.0)
    assert latency(model, 1023) == pytest.approx(10.0)


@pytest.mark.parametrize("model", ALL_VARIANTS, ids=lambda m: m.variant)
def test_monotone_non_increasing(model):
    grid = np.asarray(latency(model, np.arange(1024)))
    assert np.all(np.diff(grid) <= 1e-12)


@pytest.mark.parametrize("variant", ["linear", "power", "log"])
@pytest.mark.parametrize("c", [0.3, 0.4, 0.5, 0.6, 0.7])
def test_scalar_latency_equals_array_latency(variant, c):
    model = LatencyModel(variant=variant, c=c)
    grid = np.arange(1024)
    scalars = [latency(model, int(v)) for v in grid]
    assert all(type(x) is float for x in scalars)
    assert scalars == latency(model, grid).tolist()
    assert scalars == [latency(model, np.float64(v)) for v in grid]


def scalar_latency_reference(model, v):
    """The latency law in numpy scalar arithmetic, one velocity at a time."""
    u = np.float64(v) / VELOCITY_MAX
    span = model.l_max - model.l_min
    if model.variant == "linear":
        return float(model.l_max - span * u)
    if model.variant == "power":
        return float(model.l_max - span * u**model.c)
    return float(model.l_max - span * np.log1p(model.k * u) / np.log1p(model.k))


@pytest.mark.parametrize("model", ALL_VARIANTS, ids=lambda m: m.variant)
def test_array_latency_equals_scalar_arithmetic(model):
    # exact for linear, log and the square-root power law; other exponents
    # may differ from scalar pow() in the last bit
    grid = np.arange(1024)
    assert latency(model, grid).tolist() == [scalar_latency_reference(model, v) for v in grid]


def test_linear_midpoint():
    assert latency(LatencyModel(variant="linear"), 511.5) == pytest.approx(20.0)


def test_max_linear_power_gap_is_five_ms_near_quarter_velocity():
    grid = np.arange(1024)
    gap = (np.asarray(latency(LatencyModel(variant="linear"), grid))
           - np.asarray(latency(LatencyModel(variant="power", c=0.5), grid)))
    assert gap.max() == pytest.approx(5.0, abs=1e-3)
    assert abs(int(gap.argmax()) - 256) <= 1


def test_velocity_out_of_range_rejected():
    with pytest.raises(ValueError):
        latency(LatencyModel(variant="linear"), 2000)


def test_model_validation():
    with pytest.raises(ValueError):
        LatencyModel(variant="power", c=1.5)
    with pytest.raises(ValueError):
        LatencyModel(l_max=10, l_min=30)
    with pytest.raises(ValueError):
        LatencyModel(variant="sigmoid")


def test_precompensation_arithmetic():
    piece = Piece.from_events([NoteEvent(1.0, 60, 1023, 0.1)])
    out = precompensate(piece, LatencyModel(variant="linear"))
    assert out.events[0].onset == pytest.approx(0.990)


def test_matched_model_residual_is_zero():
    rng = make_rng(1)
    events = [NoteEvent(float(t), 60, int(v), 0.05)
              for t, v in zip(np.cumsum(rng.exponential(0.05, 200)),
                              rng.integers(100, 1001, 200))]
    piece = Piece.from_events(events)
    model = LatencyModel(variant="power", c=0.5)
    compensated = precompensate(piece, model)
    actual = np.array([e.onset + latency(model, e.velocity) / 1000 for e in compensated.events])
    intended = np.sort(piece.onsets())
    assert np.allclose(np.sort(actual), intended, atol=1e-12)


def test_robustness_filter_compression_arithmetic():
    events = [NoteEvent(0.0, 60, 100, 0.1), NoteEvent(0.01, 62, 500, 0.1),
              NoteEvent(0.02, 64, 900, 0.1)]
    piece = Piece.from_events(events)
    out = robustness_filter(piece, FilterConfig(window=0.05, gamma=0.5,
                                                spread_threshold=200))
    # local mean of every neighbourhood is 500
    assert [e.velocity for e in out.events] == [300, 500, 700]
    assert np.array_equal(out.onsets(), piece.onsets())


def test_robustness_filter_gamma_zero_flattens_to_local_mean():
    events = [NoteEvent(0.0, 60, 100, 0.1), NoteEvent(0.01, 62, 900, 0.1)]
    out = robustness_filter(Piece.from_events(events), FilterConfig(gamma=0.0))
    assert [e.velocity for e in out.events] == [500, 500]


def test_robustness_filter_leaves_calm_regions_alone():
    events = [NoteEvent(0.0, 60, 500, 0.1), NoteEvent(0.01, 62, 520, 0.1)]
    out = robustness_filter(Piece.from_events(events), FilterConfig(gamma=0.5))
    assert [e.velocity for e in out.events] == [500, 520]


def filter_reference(piece, cfg):
    """Per-event robustness filter: slice statistics around every event."""
    onsets = piece.onsets()
    velocities = piece.velocities().astype(float)
    half = cfg.window / 2.0
    lo = np.searchsorted(onsets, onsets - half, side="left")
    hi = np.searchsorted(onsets, onsets + half, side="right")
    out = []
    for i, e in enumerate(piece.events):
        neigh = velocities[lo[i]:hi[i]]
        if neigh.max() - neigh.min() > cfg.spread_threshold:
            mean = neigh.mean()
            new_v = int(np.clip(round(mean + cfg.gamma * (e.velocity - mean)), 0, 1023))
            e = replace(e, velocity=new_v)
        out.append(e)
    return Piece.from_events(out, piece.sections, piece.metadata)


def precompensate_reference(piece, model):
    """Per-event pre-compensation: one scalar latency call per note."""
    return Piece.from_events([replace(e, onset=e.onset - latency(model, e.velocity) / 1000.0)
                              for e in piece.events], piece.sections, piece.metadata)


# onsets on a 1 ms grid, so chords, duplicate onsets and crowded windows are common
dense_pieces = st.lists(
    st.builds(lambda t, p, v, d, voice: NoteEvent(t * 0.001, p, v, d, voice),
              st.integers(0, 300), st.integers(0, 127), st.integers(0, 1023),
              st.floats(0.001, 0.5), st.integers(0, 3)),
    max_size=150).map(Piece.from_events)


@settings(max_examples=150, deadline=None)
@given(dense_pieces, st.floats(0.001, 0.3), st.floats(0.0, 0.99), st.floats(0.0, 1100.0))
def test_robustness_filter_matches_per_event_reference(piece, window, gamma, threshold):
    cfg = FilterConfig(window=window, gamma=gamma, spread_threshold=threshold)
    assert robustness_filter(piece, cfg) == filter_reference(piece, cfg)


@settings(max_examples=100, deadline=None)
@given(dense_pieces, st.sampled_from(["linear", "power", "log"]), st.floats(0.05, 0.95),
       st.floats(0.5, 20.0))
def test_precompensate_matches_per_event_reference(piece, variant, c, k):
    model = LatencyModel(variant=variant, c=c, k=k)
    assert precompensate(piece, model) == precompensate_reference(piece, model)


def test_filter_and_precompensate_match_references_at_canonical_density(canonical):
    assert robustness_filter(canonical) == filter_reference(canonical, FilterConfig())
    for model in ALL_VARIANTS:
        assert precompensate(canonical, model) == precompensate_reference(canonical, model)


def test_filter_and_precompensate_keep_an_empty_piece_empty():
    empty = Piece.from_events([], (("A", 0.0, 1.0),), {"seed": 1})
    assert robustness_filter(empty) == empty
    assert precompensate(empty, LatencyModel()) == empty


def test_robustness_filter_on_a_wide_chord():
    # every window is the whole chord: one mean, one spread
    rng = make_rng(8)
    velocities = rng.integers(0, 1024, 20_000)
    piece = Piece.from_events([NoteEvent(1.0, i % 128, int(v), 0.1)
                               for i, v in enumerate(velocities)])
    out = robustness_filter(piece, FilterConfig(gamma=0.5))
    mean = velocities.mean()
    expected = np.clip(np.round(mean + 0.5 * (velocities - mean)), 0, 1023).astype(int)
    assert sorted(out.velocities().tolist()) == sorted(expected.tolist())


def test_fit_power_law_self_consistency():
    v = np.linspace(0, 1023, 64)
    truth = LatencyModel(variant="power", c=0.5)
    data = CalibrationData(tuple(v), tuple(np.asarray(latency(truth, v))))
    fit = fit_power_law(data)
    assert fit.model.c == pytest.approx(0.5, abs=1e-3)
    assert fit.rmse_ms < 1e-6


def test_fit_power_law_noise_monte_carlo():
    v = np.linspace(0, 1023, 64)
    truth = np.asarray(latency(LatencyModel(variant="power", c=0.5), v))
    rng = make_rng(2)
    estimates = []
    for _ in range(100):
        noisy = truth + rng.uniform(-1, 1, truth.size)
        fit = fit_power_law(CalibrationData(tuple(v), tuple(np.maximum(noisy, 0.1))))
        estimates.append(fit.model.c)
    assert all(0.45 <= c <= 0.55 for c in estimates)


def test_fit_power_law_reports_model_mismatch():
    v = np.linspace(0, 1023, 32)
    linear = np.asarray(latency(LatencyModel(variant="linear"), v))
    fit = fit_power_law(CalibrationData(tuple(v), tuple(linear)))
    # a power law can only mimic a line by pushing c to its upper bound, and
    # the residual misfit stays visible in the reported RMSE
    assert fit.rmse_ms > 0.0
    assert fit.model.c > 0.9


def test_fit_power_law_degenerate_data():
    with pytest.raises(FitError):
        fit_power_law(CalibrationData((500.0, 500.0, 500.0), (20.0, 21.0, 19.0)))


def test_calibration_csv_round_trip(tmp_path):
    data = CalibrationData((0.0, 512.0, 1023.0), (30.0, 15.5, 10.0))
    path = tmp_path / "calib.csv"
    data.to_csv(path)
    assert CalibrationData.from_csv(path) == data


def test_enforce_constraints_polyphony_cap():
    events = [NoteEvent(1.0, p, 200 + p, 0.5) for p in range(20, 120)]  # 100-note chord
    piece = Piece.from_events(events)
    repaired, report = enforce_constraints(piece)
    assert len(repaired) == 88
    reasons = {v.reason for v in report}
    assert reasons == {"polyphony"}
    assert len(report) == 12
    dropped = set(piece.pitches()[[v.row for v in report]].tolist())
    assert dropped == set(range(20, 32))  # lowest velocities go first


def test_enforce_constraints_clean_piece_untouched():
    events = [NoteEvent(0.0, 60, 500, 0.1), NoteEvent(0.2, 62, 600, 0.1)]
    piece = Piece.from_events(events)
    repaired, report = enforce_constraints(piece)
    assert repaired.events == piece.events
    assert report == []


def enforce_reference(piece, cs):
    """Per-event constraint repair: the per-key mask, then the polyphony cap.
    The report is (reason, row) items, each row from ``enumerate(piece.events)``."""
    report = []
    last_kept, masked = {}, []
    for row, e in sorted(enumerate(piece.events),
                         key=lambda item: (item[1].onset, item[1].voice, item[1].pitch)):
        prev = last_kept.get(e.pitch)
        if prev is not None and e.onset - prev < cs.min_key_ioi - 1e-9:
            report.append(("per-key rate", row))
            continue
        masked.append((row, e))
        last_kept[e.pitch] = e.onset
    kept, cluster = [], []

    def flush():
        if len(cluster) <= cs.max_polyphony:
            kept.extend(e for _, e in cluster)
            return
        by_velocity = sorted(cluster, key=lambda item: (-item[1].velocity, item[1].pitch))
        kept.extend(e for _, e in by_velocity[:cs.max_polyphony])
        report.extend(("polyphony", row) for row, _ in by_velocity[cs.max_polyphony:])

    for row, e in masked:
        if cluster and e.onset - cluster[-1][1].onset >= cs.scan_resolution:
            flush()
            cluster = []
        cluster.append((row, e))
    flush()
    return Piece.from_events(kept, piece.sections, piece.metadata), report


@settings(max_examples=150, deadline=None)
@given(dense_pieces, st.sampled_from([0.05, 0.01, 0.002]), st.integers(1, 6),
       st.sampled_from([0.001, 0.004]))
def test_enforce_constraints_matches_per_event_reference(piece, key_ioi, poly, scan):
    cs = ConstraintSet(min_key_ioi=key_ioi, max_polyphony=poly, scan_resolution=scan)
    repaired, report = enforce_constraints(piece, cs)
    expected, expected_report = enforce_reference(piece, cs)
    assert report == expected_report
    assert repaired == expected


@settings(max_examples=150, deadline=None)
@given(dense_pieces, st.sampled_from([0.05, 0.01, 0.002]), st.integers(1, 6),
       st.sampled_from([0.001, 0.004]))
def test_repair_rows_give_the_gap_and_the_cluster_of_each_drop(piece, key_ioi, poly, scan):
    """Each repair's cause can be read back from the rows alone: a per-key
    drop lies less than the window after the latest note the mask kept on
    its key, and a polyphony drop sits in a cluster of more than
    ``max_polyphony`` notes, of which the cap keeps exactly that many."""
    cs = ConstraintSet(min_key_ioi=key_ioi, max_polyphony=poly, scan_resolution=scan)
    repaired, report = enforce_constraints(piece, cs)
    rows = np.arange(len(piece))
    dropped = [row for _, row in report]
    assert len(set(dropped)) == len(dropped)
    assert repaired == piece.with_columns(rows=np.setdiff1d(rows, dropped))
    onsets, pitches = piece.onsets(), piece.pitches()
    masked = np.setdiff1d(rows, [row for reason, row in report if reason == "per-key rate"])
    for reason, row in report:
        if reason == "per-key rate":
            previous = masked[(masked < row) & (pitches[masked] == pitches[row])][-1]
            assert 0 <= onsets[row] - onsets[previous] < key_ioi - 1e-9
    capped = {row for reason, row in report if reason == "polyphony"}
    for cluster in np.split(masked, np.flatnonzero(np.diff(onsets[masked]) >= scan) + 1):
        assert len(cluster) - len(capped.intersection(cluster.tolist())) == min(len(cluster), poly)


def test_enforce_constraints_matches_reference_on_a_wide_chord_and_narrow_range(canonical):
    rng = make_rng(9)
    # a 120-note chord over 100 keys (20 re-strikes), then a second chord spread
    # over a narrow 38 ms range, whose onsets 0.4 ms apart chain into one cluster
    events = [NoteEvent(1.0, 14 + i % 100, int(v), 0.5, i % 3)
              for i, v in enumerate(rng.integers(0, 1024, 120))]
    events += [NoteEvent(2.0 + 0.0004 * i, 20 + i, int(v), 0.5)
               for i, v in enumerate(rng.integers(0, 1024, 95))]
    piece = Piece.from_events(events, (("A", 0.0, 3.0),), {"seed": 9})
    repaired, report = enforce_constraints(piece)
    expected, expected_report = enforce_reference(piece, ConstraintSet())
    assert report == expected_report
    assert repaired == expected
    assert {v.reason for v in report} == {"per-key rate", "polyphony"}
    for cs in (ConstraintSet(), ConstraintSet(max_polyphony=4)):
        assert enforce_constraints(canonical, cs) == enforce_reference(canonical, cs)


@pytest.mark.parametrize("depth", [4, 6])
@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_enforce_constraints_is_idempotent_at_canonical_density(depth, seed):
    piece = generate(expand(fibonacci_grammar(), depth), canonical_table(), make_rng(seed),
                     seed=seed)
    repaired, first = enforce_constraints(piece)
    again, second = enforce_constraints(repaired)
    assert first  # canonical density needs repairs, so the second pass has work to skip
    assert second == []
    assert again == repaired


@pytest.mark.parametrize("depth", [4, 6])
@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(ALL_VARIANTS))
def test_precompensate_is_undone_by_adding_the_latency_back(depth, seed, model):
    piece = generate(expand(fibonacci_grammar(), depth), canonical_table(), make_rng(seed),
                     seed=seed)
    compensated = precompensate(piece, model)
    restored = compensated.with_columns(
        onset=compensated.onsets() + latency(model, compensated.velocities()) / 1000)

    def by_voice(p):
        # onsets within a voice are strictly increasing, while notes of
        # different voices on one onset may come back in either order
        order = np.lexsort((p.onsets(), p.column("voice")))
        return {name: p.column(name)[order] for name in COLUMNS}

    want, got = by_voice(piece), by_voice(restored)
    for name in COLUMNS:
        if name == "onset":
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(got[name], want[name])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_the_written_command_stream_keeps_the_constraints(tmp_path, capsys):
    """`generate` enforces the 50 ms per-key window on sounding onsets, then
    writes the precompensated command stream unchecked; re-checking that
    stream at depth 4, seed 0 finds 4 per-key repairs."""
    assert main(["generate", "--depth", "4", "--seed", "0", "--out", str(tmp_path)]) == 0
    _, repairs = enforce_constraints(read_events(tmp_path / "piece.json"))
    assert repairs == []


def test_simulate_mismatch_directions():
    rng = make_rng(3)
    v = rng.integers(100, 1001, 526).astype(float)
    assumed = LatencyModel(variant="power", c=0.5)
    res = simulate_mismatch(v, assumed, LatencyModel(variant="power", c=0.3),
                            trials=1, rng=make_rng(4))
    assert res.uncorrected_mean == pytest.approx(2.47, rel=0.15)
    assert res.corrected_mean == pytest.approx(1.04, rel=0.15)
    res = simulate_mismatch(v, assumed, assumed, NoiseSpec(additive_ms=2.0),
                            trials=50, rng=make_rng(5))
    assert res.corrected_mean == pytest.approx(2.0 / np.sqrt(3), rel=0.1)
    assert res.corrected_mean < res.uncorrected_mean
    assert res.p_value < 1e-6


def test_model_from_config_rejects_an_unknown_key_by_path():
    cfg = load_bundled_config("canonical")["hal"]
    assert model_from_config(cfg) == LatencyModel()
    with pytest.raises(ConfigError, match=r"hal\.lmax"):
        model_from_config({**cfg, "lmax": 40.0})
    with pytest.raises(ConfigError, match=r"hal\.variant must be a string"):
        model_from_config({**cfg, "variant": 2})
    with pytest.raises(ConfigError, match=r"hal: power exponent"):  # out of range
        model_from_config({**cfg, "c": 2.0})


@pytest.mark.parametrize("variant,key", [("linear", "c"), ("log", "c"), ("linear", "k"),
                                         ("power", "k")])
def test_model_from_config_rejects_a_parameter_its_variant_does_not_read(variant, key):
    with pytest.raises(ConfigError, match=rf"^unknown config key\(s\): hal\.{key}$"):
        model_from_config({"variant": variant, key: 0.5})


def test_model_from_config_reads_only_the_variant_s_own_parameter():
    with pytest.raises(ConfigError, match=r"^unknown config key\(s\): hal\.c, hal\.k$"):
        model_from_config({"variant": "linear", "c": 5.0, "k": -1.0})
    assert model_from_config({"variant": "log", "k": 4.0}) == LatencyModel(variant="log", k=4.0)
    assert model_from_config({"c": 0.3}) == LatencyModel(c=0.3)  # the power law by default
    # an unknown variant is named as such, not by the keys it might have read
    with pytest.raises(ConfigError, match=r"^hal: unknown latency variant 'cubic'$"):
        model_from_config({"variant": "cubic", "c": 0.5, "k": 9.0})


def test_the_bundled_hal_section_sets_only_what_the_power_law_reads():
    cfg = load_bundled_config("canonical")["hal"]
    assert cfg == {"variant": "power", "l_max": 30.0, "l_min": 10.0, "c": 0.5}
    assert model_from_config(cfg) == LatencyModel()


@pytest.mark.parametrize("variant", ["linear", "log"])
def test_exponent_drift_needs_a_power_law_true_model(variant):
    with pytest.raises(ValueError, match=f"power-law true model, got '{variant}'"):
        simulate_mismatch([500.0], LatencyModel(), LatencyModel(variant=variant),
                          NoiseSpec(exponent_drift=1e-12), trials=1, rng=make_rng(0))


def test_exponent_drift_stays_within_its_band_around_c():
    model = LatencyModel(variant="power", c=0.8)
    ms = _true_latencies(np.full(2000, VELOCITY_MAX / 2), model, NoiseSpec(exponent_drift=0.2),
                         make_rng(0))
    # invert the power law at u = 1/2 to read back each note's exponent
    c_path = np.log((model.l_max - ms) / (model.l_max - model.l_min)) / np.log(0.5)
    np.testing.assert_allclose([c_path.min(), c_path.max()], [0.56, 1.04], rtol=1e-12)
    assert np.multiply(DRIFT_BAND, 0.5).tolist() == [0.35, 0.65]
