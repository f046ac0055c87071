"""Pipeline fidelity, per-layer degradation, and the three component ablations."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..events import Piece
from ..grammar import expand, shuffle_preserving_counts
from ..hal import ConstraintSet, LatencyModel, enforce_constraints, latency
from ..mapping import MappingTable
from ..metrics import (
    contour,
    pairwise_levenshtein,
    pitch_class_concentration,
    rhythmic_coherence,
    separation_components,
)
from ..pipeline import generate, apply_collision_mask
from ..presets import canonical_table, fibonacci_grammar
from ..stats import correlation, ks_distance_to_cdf, mann_whitney, permutation_test, t_test_with_d
from ..stochastic import derive_rng
from ..metrics import information_rate
from ._common import canonical_piece, discrete_cdf, section_streams


def _pair_metrics(piece: Piece, cross: bool = True):
    """Same- and cross-symbol MC/RC values over section pairs, in pair order.

    MC is :func:`melodic_coherence` per pair, with the contour distances
    from :func:`pairwise_levenshtein`. With ``cross=False`` only pairs of
    one symbol are scored, one call per symbol, and both cross arrays are
    empty.
    """
    streams = section_streams(piece)
    contours = [contour(p) for _, p, _, _, _ in streams]
    symbols = [s for s, _, _, _, _ in streams]
    groups = [range(len(streams))] if cross else [
        [i for i, s in enumerate(symbols) if s == symbol] for symbol in dict.fromkeys(symbols)]
    dist = np.zeros((len(streams), len(streams)), dtype=np.int64)
    for group in groups:
        dist[np.ix_(group, group)] = pairwise_levenshtein([contours[i] for i in group])
    dist = dist.tolist()
    same_mc, cross_mc, same_rc, cross_rc = [], [], [], []
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            si, pi, ii, _, _ = streams[i]
            sj, pj, ij, _, _ = streams[j]
            if si != sj and not cross:
                continue
            mc = 1.0 - dist[i][j] / max(pi.size, pj.size)
            rc = rhythmic_coherence(ii, ij)
            (same_mc if si == sj else cross_mc).append(mc)
            (same_rc if si == sj else cross_rc).append(rc)
    return map(np.array, (same_mc, cross_mc, same_rc, cross_rc))


def fidelity(report, seed: int, full_scale: bool) -> None:
    """End-to-end render of the canonical string: densities, coherence contrasts."""
    piece = canonical_piece(seed)
    report.add("n_events", len(piece), "fidelity.n_events")

    streams = section_streams(piece)
    dens = {"A": [], "B": []}
    ts = {"A": [], "B": []}
    vel_means = {"A": [], "B": []}
    for symbol, pitches, iois, velocities, duration in streams:
        dens[symbol].append(len(pitches) / duration)
        ts[symbol].append(pitch_class_concentration(pitches))
        vel_means[symbol].append(float(velocities.mean()))
    report.add("density_a", float(np.mean(dens["A"])), "fidelity.density.a")
    report.add("density_b", float(np.mean(dens["B"])), "fidelity.density.b")

    same_mc, cross_mc, same_rc, cross_rc = _pair_metrics(piece)
    rc_test = t_test_with_d(same_rc, cross_rc)
    mc_test = t_test_with_d(same_mc, cross_mc)
    report.add("rc_same", float(same_rc.mean()), "fidelity.rc.same")
    report.add("rc_cross", float(cross_rc.mean()), "fidelity.rc.cross")
    report.add("rc_gap", float(same_rc.mean() - cross_rc.mean()), "fidelity.rc.gap")
    report.add("rc_d", rc_test.effect_size, "fidelity.rc.d")
    report.add("mc_same", float(same_mc.mean()), "fidelity.mc.same")
    report.add("mc_cross", float(cross_mc.mean()), "fidelity.mc.cross")
    report.add("mc_gap", float(same_mc.mean() - cross_mc.mean()), "fidelity.mc.gap")
    report.add("mc_d", mc_test.effect_size, "fidelity.mc.d")

    ts_mw = mann_whitney(np.array(ts["A"]), np.array(ts["B"]))
    report.add("ts_u_min", ts_mw.extras["u_min"], "fidelity.ts.u_min")
    report.add("ts_p", ts_mw.p_value, "fidelity.ts.p")

    vel_mw = mann_whitney(np.array(vel_means["A"]), np.array(vel_means["B"]))
    report.add("velocity_u_min", vel_mw.extras["u_min"], "fidelity.velocity.u_min")
    vel_t = t_test_with_d(np.array(vel_means["A"]), np.array(vel_means["B"]))
    report.add("velocity_d_undefined", vel_t.undefined, "fidelity.velocity.d_undefined")

    # registral separation of the deterministic sections' two voices
    in_a, voice = piece.column("symbol") == "A", piece.column("voice")
    mean0 = np.mean(piece.pitches()[in_a & (voice == 0)])
    mean1 = np.mean(piece.pitches()[in_a & (voice == 1)])
    report.add("pitch_separation", abs(float(mean1 - mean0)), "fidelity.pitch_separation")


# ---------------------------------------------------------------------------
# Per-layer degradation
# ---------------------------------------------------------------------------


def _pitch_cdf(table: MappingTable, symbol: str):
    cfg = table.configs[symbol]
    weights = np.array(cfg.ratios) / sum(cfg.ratios)  # event share per voice
    pooled: dict[int, float] = {}
    for voice, w in enumerate(weights):
        values, probs = cfg.pitch[voice].pmf()
        for v, p in zip(values, probs):
            pooled[int(v)] = pooled.get(int(v), 0.0) + w * p
    values = np.array(sorted(pooled))
    probs = np.array([pooled[int(v)] for v in values])
    return discrete_cdf(values, probs)


def _layer_measurements(piece: Piece, table: MappingTable):
    """KS distances per (parameter, symbol) on a generated stream."""
    out = {}
    onsets, voices, sections = piece.onsets(), piece.column("voice"), piece.column("section")
    for symbol in table.symbols():
        cfg = table.configs[symbol]
        rows = piece.column("symbol") == symbol
        # de-scaled per-voice IOIs within sections, pooled over voices
        iois = []
        for voice, ratio in enumerate(cfg.ratios):
            for section in np.unique(sections[rows]).tolist():
                sect = onsets[rows & (voices == voice) & (sections == section)]
                if len(sect) >= 2:
                    # onsets are microsecond-resolution; sub-ns float dust is not signal
                    iois.append(np.round(np.diff(sect) * ratio, 9))
        iois = np.concatenate(iois) if iois else np.array([])
        pitches = piece.pitches()[rows].astype(float)
        velocities = piece.velocities()[rows].astype(float)
        out[("ioi", symbol)] = ks_distance_to_cdf(iois, cfg.ioi.cdf)
        out[("pitch", symbol)] = ks_distance_to_cdf(pitches, _pitch_cdf(table, symbol))
        out[("velocity", symbol)] = ks_distance_to_cdf(velocities, cfg.velocity.cdf)
    return out


def degradation(report, seed: int, full_scale: bool) -> None:
    """KS distance from the intended law at the three measurement points.

    L2 samples each law directly; L3 is the generated stream after the
    per-key reset mask; L4 is the constraint-repaired stream under matched
    calibration (the command-time shift cancels the actuation latency, so
    only constraint repairs remain as physical-layer distortion).
    """
    table = canonical_table()
    piece = canonical_piece(seed)

    # L2: pure sampling, matched counts
    rng = derive_rng(seed, "degradation-l2")
    l2 = {}
    for symbol in table.symbols():
        cfg = table.configs[symbol]
        n = int(np.count_nonzero(piece.column("symbol") == symbol))
        l2[("ioi", symbol)] = ks_distance_to_cdf(cfg.ioi.sample(rng, n), cfg.ioi.cdf)
        ratio_w = np.array(cfg.ratios) / sum(cfg.ratios)
        draws = [src.sample(rng, int(round(w * n))) for src, w in zip(cfg.pitch, ratio_w)]
        l2[("pitch", symbol)] = ks_distance_to_cdf(
            np.concatenate(draws), _pitch_cdf(table, symbol))
        l2[("velocity", symbol)] = ks_distance_to_cdf(
            np.round(cfg.velocity.sample(rng, n)), cfg.velocity.cdf)

    l3_piece = apply_collision_mask(piece)
    l3 = _layer_measurements(l3_piece, table)
    l4_piece, _ = enforce_constraints(l3_piece, ConstraintSet())
    l4 = _layer_measurements(l4_piece, table)

    table_rows = {}
    all_ks, pitch_ks = [], []
    for key in sorted(l3):
        param, symbol = key
        vals = (l2[key], l3[key], l4[key])
        table_rows[f"{param}.{symbol}"] = [round(v, 4) for v in vals]
        all_ks.extend(vals)
        if param == "pitch":
            pitch_ks.extend(vals)
    report.add("table", table_rows, "degradation.table")
    report.add("ks_max", float(np.max(all_ks)), "degradation.ks_max")
    report.add("pitch_ks_max", float(np.max(pitch_ks)), "degradation.pitch_ks_max")

    # which layer transition adds the most IOI distortion (worst symbol)
    inc_l3 = max(l3[("ioi", s)] - l2[("ioi", s)] for s in table.symbols())
    inc_l4 = max(l4[("ioi", s)] - l3[("ioi", s)] for s in table.symbols())
    peak_layer = "L3" if inc_l3 >= inc_l4 else "L4"
    report.add("ioi_peak_increment_layer", peak_layer, "degradation.ioi_peak_increment_layer")


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


ABLATION_A_TRIALS = 100  # count-preserving shuffles, each rendered and scored


def ablation_a(report, seed: int, full_scale: bool) -> None:
    """Random symbol order (counts preserved): section metrics stay, order
    information collapses."""
    symbols = expand(fibonacci_grammar(), 4)
    table = canonical_table()
    full_piece = canonical_piece(seed)
    same_mc, _, same_rc, _ = _pair_metrics(full_piece, cross=False)
    ir_full = information_rate(symbols.text)

    perm_mc, perm_rc, perm_ir = [], [], []
    for k in range(ABLATION_A_TRIALS):
        perm = shuffle_preserving_counts(symbols, seed * 1000 + k)
        perm_ir.append(information_rate(perm.text))
        rng = derive_rng(seed, f"ablation-a-{k}")
        piece = generate(perm, table, rng)
        mc_k, _, rc_k, _ = _pair_metrics(piece, cross=False)
        perm_mc.append(float(np.mean(mc_k)))
        perm_rc.append(float(np.mean(rc_k)))

    perm_mc, perm_rc, perm_ir = map(np.array, (perm_mc, perm_rc, perm_ir))
    z_mc = (same_mc.mean() - perm_mc.mean()) / perm_mc.std(ddof=1)
    z_rc = (same_rc.mean() - perm_rc.mean()) / perm_rc.std(ddof=1)
    p_ir = permutation_test(ir_full, perm_ir)
    report.add("ir_full", ir_full, "ablation_a.ir.full")
    report.add("ir_shuffled_mean", (round(perm_ir.mean(), 3), round(perm_ir.std(), 3)),
               "ablation_a.ir.shuffled_mean")
    report.add("ir_permutation_p", p_ir, "ablation_a.ir.permutation_p")
    report.add("same_mc_z", float(z_mc), "ablation_a.mc.z")
    report.add("same_rc_z", float(z_rc), "ablation_a.rc.z")


def _section_temporal_separation(piece: Piece):
    """Per-section W1 between the two voices' log-IOI marginals."""
    values = []
    sections, voices = piece.column("section"), piece.column("voice")
    for index in range(len(piece.sections)):
        v0 = piece.with_columns(rows=(sections == index) & (voices == 0))
        v1 = piece.with_columns(rows=(sections == index) & (voices == 1))
        if len(v0) < 2 or len(v1) < 2:
            continue
        _, _, w_t = separation_components(v0, v1)
        values.append(w_t)
    return np.array(values)


def ablation_b(report, seed: int, full_scale: bool) -> None:
    """Unison tempo ratios: inter-voice temporal separation collapses."""
    full = canonical_piece(seed)
    table = canonical_table()
    unison_configs = {s: replace(c, ratios=(1.0,) * len(c.ratios))
                      for s, c in table.configs.items()}
    unison_table = MappingTable(unison_configs)
    rng = derive_rng(seed, "ablation-b-unison")
    ablated = generate(expand(fibonacci_grammar(), 4), unison_table, rng)

    w_full = _section_temporal_separation(full)
    w_ablated = _section_temporal_separation(ablated)
    drop_pct = 100.0 * (1.0 - w_ablated.mean() / w_full.mean())
    mw = mann_whitney(w_full, w_ablated)
    report.add("vss_temporal_full", float(w_full.mean()), "ablation_b.vss_temporal.full")
    report.add("vss_temporal_drop_pct", float(drop_pct), "ablation_b.vss_temporal.drop_pct")
    report.add("complete_separation", mw.extras["u_min"] == 0,
               "ablation_b.vss_temporal.separation")
    report.add("abs_rank_biserial", abs(mw.effect_size), "ablation_b.vss_temporal.abs_r")


def ablation_c(report, seed: int, full_scale: bool) -> None:
    """No pre-compensation: systematic velocity-timing coupling appears."""
    piece = canonical_piece(seed)
    velocities = piece.velocities().astype(float)
    for variant, anchor in (("linear", "ablation_c.coupling.linear"),
                            ("power", "ablation_c.coupling.power")):
        model = LatencyModel(variant=variant)
        errors = latency(model, velocities)
        r = correlation(velocities, errors, "pearson").statistic
        report.add(f"velocity_timing_r_{variant}", abs(r), anchor)
        if variant == "linear":
            report.add("onset_sd_uncompensated_ms", float(errors.std()),
                       "ablation_c.onset_sd.uncompensated")
    # compensated residual is identically zero; correlation is undefined
    # and reported as no coupling
    report.add("velocity_timing_r_compensated", 0.0, "ablation_c.coupling.compensated")
    report.add("onset_sd_compensated_ms", 0.0, "ablation_c.onset_sd.compensated")
