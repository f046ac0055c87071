"""Convergence-point experiments: discrete regime switching, continuous rate
modulation around the target point, and the tolerance-sensitivity scan."""

from __future__ import annotations

import numpy as np

from ..canon import ConvergenceQuery, find_convergences
from ..metrics import pitch_class_concentration
from ..pipeline import generate_cp_continuous, generate_cp_discrete
from ..presets import cp_switch_configs, rational_canon, transcendental_canon
from ..stats import correlation, ks_test, mann_whitney
from ..stochastic import derive_rng
from ._common import window_counts

HORIZON = 30.0


def _window_ts(piece, lo_window: int, hi_window: int) -> np.ndarray:
    onsets = piece.onsets()
    pitches = piece.pitches()
    values = []
    for k in range(lo_window, hi_window):
        sel = (onsets >= k) & (onsets < k + 1)
        if sel.sum() > 0:
            values.append(pitch_class_concentration(pitches[sel]))
    return np.array(values)


def cp_discrete(report, seed: int, full_scale: bool) -> None:
    voices = rational_canon()
    pre, post = cp_switch_configs()
    query = ConvergenceQuery(0.050, HORIZON, *voices)
    rng = derive_rng(seed, "cp-discrete")
    piece = generate_cp_discrete(voices, pre, post, query, rng, switch_at=15.0)

    counts = window_counts(piece, HORIZON)
    pre_counts, post_counts = counts[:15], counts[15:]
    mw = mann_whitney(pre_counts, post_counts)
    report.add("cp_time", piece.metadata["cp_time"], "cp.discrete.cp_time")
    report.add("density_u_extreme", mw.extras["u_min"] == 0, "cp.discrete.density.u_extreme")
    report.add("density_abs_r", abs(mw.effect_size), "cp.discrete.density.abs_r")
    report.add("pre_density", float(pre_counts.mean()), "cp.discrete.pre_density")
    report.add("post_density", float(post_counts.mean()), "cp.discrete.post_density")

    ts_pre = _window_ts(piece, 0, 15)
    ts_post = _window_ts(piece, 15, 30)
    ts_mw = mann_whitney(ts_pre, ts_post)
    report.add("ts_u_extreme", ts_mw.extras["u_min"] == 0, "cp.discrete.ts.u_extreme")

    # null switch: identical configs land a statistically homogeneous piece
    null_piece = generate_cp_discrete(voices, pre, pre, query,
                                      derive_rng(seed, "cp-null"), switch_at=15.0)
    null_counts = window_counts(null_piece, HORIZON)
    ks = ks_test(null_counts[:15], null_counts[15:])
    report.add("null_switch_p", ks.p_value, "cp.discrete.null_switch_p")


def cp_continuous(report, seed: int, full_scale: bool) -> None:
    voices = transcendental_canon()
    _, post = cp_switch_configs()
    t_cp = 15.0

    def rate_fn(t):
        return 5.0 + 40.0 * abs(t - t_cp) / t_cp

    rng = derive_rng(seed, "cp-continuous")
    piece = generate_cp_continuous(voices, rate_fn, 45.0, HORIZON, post, rng)
    # the modulation target is the stochastic voice; the canon pair is a
    # steady backdrop and is excluded from the density profile
    modulated = piece.with_columns(rows=piece.column("voice") == 2)
    report.add("n_events", len(modulated), "cp.continuous.n_events")

    counts = window_counts(modulated, HORIZON)
    lam = np.array([rate_fn(k + 0.5) for k in range(30)])
    r = correlation(lam, counts, "pearson")
    report.add("tracking_r", r.statistic, "cp.continuous.tracking_r")

    near = counts[12:18].mean()
    extremes = np.concatenate([counts[0:5], counts[25:30]]).mean()
    report.add("contrast_ratio", float(extremes / near), "cp.continuous.contrast_ratio")


def epsilon_sensitivity(report, seed: int, full_scale: bool) -> None:
    """Rational canons are tolerance-invariant; transcendental ones scale with it."""
    rational = rational_canon()
    counts = [len(find_convergences(ConvergenceQuery(eps, HORIZON, *rational)))
              for eps in (0.010, 0.020, 0.050, 0.100)]
    for eps, count in zip((10, 20, 50, 100), counts):
        report.add(f"rational_count_{eps}ms", count, "canon.rational.count")

    trans = transcendental_canon()
    coarse = tuple(len(find_convergences(ConvergenceQuery(eps, HORIZON, *trans)))
                   for eps in (0.010, 0.020, 0.050, 0.100))
    report.add("transcendental_counts", coarse, "canon.transcendental.counts")

    eps_grid = np.arange(1, 101, 5) / 1000.0
    sweep = np.array([len(find_convergences(ConvergenceQuery(e, HORIZON, *trans)))
                      for e in eps_grid])
    report.add("transcendental_monotone", bool(np.all(np.diff(sweep) >= 0)),
               "canon.transcendental.monotone")
    r = correlation(eps_grid, sweep.astype(float), "pearson")
    report.add("epsilon_count_correlation", r.statistic,
               "canon.transcendental.epsilon_correlation")
