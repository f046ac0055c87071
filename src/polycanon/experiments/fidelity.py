"""Pipeline fidelity, per-layer degradation, and the three component ablations."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..events import Piece, voice_iois
from ..grammar import expand, shuffle_preserving_counts
from ..hal import ConstraintSet, LatencyModel, enforce_constraints, latency
from ..mapping import MappingTable
from ..metrics import (
    melodic_coherence,
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
from .reporting import Report, timer


def _pair_metrics(piece: Piece):
    """Same- and cross-symbol MC/RC values over all section pairs."""
    streams = section_streams(piece)
    same_mc, cross_mc, same_rc, cross_rc = [], [], [], []
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            si, pi, ii, _, _ = streams[i]
            sj, pj, ij, _, _ = streams[j]
            mc = melodic_coherence(pi, pj)
            rc = rhythmic_coherence(ii, ij)
            (same_mc if si == sj else cross_mc).append(mc)
            (same_rc if si == sj else cross_rc).append(rc)
    return map(np.array, (same_mc, cross_mc, same_rc, cross_rc))


def fidelity(seed: int = 42, **_) -> Report:
    """End-to-end render of the canonical string: densities, coherence contrasts."""
    report = Report("fidelity", seed)
    with timer(report, {"depth": 4}):
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
        n_pairs = len(ts["A"]) * len(ts["B"])
        report.add("ts_u_min", min(ts_mw.statistic, n_pairs - ts_mw.statistic),
                   "fidelity.ts.u_min")
        report.add("ts_p", ts_mw.p_value, "fidelity.ts.p")

        vel_mw = mann_whitney(np.array(vel_means["A"]), np.array(vel_means["B"]))
        report.add("velocity_u_min", min(vel_mw.statistic, n_pairs - vel_mw.statistic),
                   "fidelity.velocity.u_min")
        vel_t = t_test_with_d(np.array(vel_means["A"]), np.array(vel_means["B"]))
        report.add("velocity_d_undefined", vel_t.undefined, "fidelity.velocity.d_undefined")

        # registral separation of the deterministic sections' two voices
        a_events = [e for e in piece.events if e.symbol == "A"]
        mean0 = np.mean([e.pitch for e in a_events if e.voice == 0])
        mean1 = np.mean([e.pitch for e in a_events if e.voice == 1])
        report.add("pitch_separation", abs(float(mean1 - mean0)), "fidelity.pitch_separation")
    return report


# ---------------------------------------------------------------------------
# Per-layer degradation
# ---------------------------------------------------------------------------


def _pitch_cdf(table: MappingTable, symbol: str):
    cfg = table.configs[symbol]
    weights = np.array(cfg.ratios) / sum(cfg.ratios)  # event share per voice
    pooled: dict[int, float] = {}
    for voice, w in enumerate(weights):
        values, probs = cfg.pitch_for_voice(voice).pmf()
        for v, p in zip(values, probs):
            pooled[int(v)] = pooled.get(int(v), 0.0) + w * p
    values = np.array(sorted(pooled))
    probs = np.array([pooled[int(v)] for v in values])
    return discrete_cdf(values, probs)


def _layer_measurements(piece: Piece, table: MappingTable):
    """KS distances per (parameter, symbol) on a generated stream."""
    out = {}
    for symbol in table.symbols():
        cfg = table.configs[symbol]
        events = [e for e in piece.events if e.symbol == symbol]
        # de-scaled per-voice IOIs within sections, pooled over voices
        iois = []
        for voice, ratio in enumerate(cfg.ratios):
            for section in {e.section for e in events}:
                sect = [e for e in events if e.voice == voice and e.section == section]
                if len(sect) >= 2:
                    # onsets are microsecond-resolution; sub-ns float dust is not signal
                    iois.append(np.round(voice_iois(sect) * ratio, 9))
        iois = np.concatenate(iois) if iois else np.array([])
        pitches = np.array([e.pitch for e in events], dtype=float)
        velocities = np.array([e.velocity for e in events], dtype=float)
        out[("ioi", symbol)] = ks_distance_to_cdf(iois, cfg.ioi.cdf)
        out[("pitch", symbol)] = ks_distance_to_cdf(pitches, _pitch_cdf(table, symbol))
        out[("velocity", symbol)] = ks_distance_to_cdf(velocities, cfg.velocity.cdf)
    return out


def degradation(seed: int = 42, **_) -> Report:
    """KS distance from the intended law at the three measurement points.

    L2 samples each law directly; L3 is the generated stream after the
    per-key reset mask; L4 is the constraint-repaired stream under matched
    calibration (the command-time shift cancels the actuation latency, so
    only constraint repairs remain as physical-layer distortion).
    """
    report = Report("degradation", seed)
    table = canonical_table()
    with timer(report, {"layers": 3}):
        piece = canonical_piece(seed)

        # L2: pure sampling, matched counts
        rng = derive_rng(seed, "degradation-l2")
        l2 = {}
        for symbol in table.symbols():
            cfg = table.configs[symbol]
            events = [e for e in piece.events if e.symbol == symbol]
            n = len(events)
            l2[("ioi", symbol)] = ks_distance_to_cdf(cfg.ioi.sample(rng, n), cfg.ioi.cdf)
            ratio_w = np.array(cfg.ratios) / sum(cfg.ratios)
            draws = []
            for voice, w in enumerate(ratio_w):
                src = cfg.pitch_for_voice(voice)
                draws.append([src.sample(rng) for _ in range(int(round(w * n)))])
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
    return report


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def ablation_a(seed: int = 42, trials: int = 100, **_) -> Report:
    """Random symbol order (counts preserved): section metrics stay, order
    information collapses."""
    report = Report("ablation_a", seed)
    with timer(report, {"trials": trials}):
        symbols = expand(fibonacci_grammar(), 4)
        table = canonical_table()
        full_piece = canonical_piece(seed)
        same_mc, _, same_rc, _ = _pair_metrics(full_piece)
        ir_full = information_rate(symbols.text)

        perm_mc, perm_rc, perm_ir = [], [], []
        for k in range(trials):
            perm = shuffle_preserving_counts(symbols, seed * 1000 + k)
            perm_ir.append(information_rate(perm.text))
            rng = derive_rng(seed, f"ablation-a-{k}")
            piece = generate(perm, table, rng)
            mc_k, _, rc_k, _ = _pair_metrics(piece)
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
    return report


def _section_temporal_separation(piece: Piece):
    """Per-section W1 between the two voices' log-IOI marginals."""
    values = []
    for index in range(len(piece.sections)):
        events = piece.section_events(index)
        v0 = [e for e in events if e.voice == 0]
        v1 = [e for e in events if e.voice == 1]
        if len(v0) < 2 or len(v1) < 2:
            continue
        _, _, w_t = separation_components(v0, v1)
        values.append(w_t)
    return np.array(values)


def ablation_b(seed: int = 42, **_) -> Report:
    """Unison tempo ratios: inter-voice temporal separation collapses."""
    report = Report("ablation_b", seed)
    with timer(report):
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
        n_pairs = len(w_full) * len(w_ablated)
        separated = mw.statistic in (0.0, float(n_pairs))
        report.add("vss_temporal_full", float(w_full.mean()), "ablation_b.vss_temporal.full")
        report.add("vss_temporal_drop_pct", float(drop_pct), "ablation_b.vss_temporal.drop_pct")
        report.add("complete_separation", bool(separated), "ablation_b.vss_temporal.separation")
        report.add("abs_rank_biserial", abs(mw.effect_size), "ablation_b.vss_temporal.abs_r")
    return report


def ablation_c(seed: int = 42, **_) -> Report:
    """No pre-compensation: systematic velocity-timing coupling appears."""
    report = Report("ablation_c", seed)
    with timer(report):
        piece = canonical_piece(seed)
        velocities = piece.velocities().astype(float)
        for variant, anchor in (("linear", "ablation_c.coupling.linear"),
                                ("power", "ablation_c.coupling.power")):
            model = LatencyModel(variant=variant)
            errors = np.asarray(latency(model, velocities), dtype=float)
            r = correlation(velocities, errors, "pearson").statistic
            report.add(f"velocity_timing_r_{variant}", abs(r), anchor)
            if variant == "linear":
                report.add("onset_sd_uncompensated_ms", float(errors.std()),
                           "ablation_c.onset_sd.uncompensated")
        # compensated residual is identically zero; correlation is undefined
        # and reported as no coupling
        report.add("velocity_timing_r_compensated", 0.0, "ablation_c.coupling.compensated")
        report.add("onset_sd_compensated_ms", 0.0, "ablation_c.onset_sd.compensated")
    return report
