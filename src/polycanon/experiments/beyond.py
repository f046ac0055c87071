"""Beyond-human texture verification: exact event-level match of the
polyphony, repetition-rate and speed/span showcase presets."""

from __future__ import annotations

import numpy as np

from ..pipeline import InfeasibleError, generate_beyond_human
from ..stats import ks_test


def beyond_human(report, seed: int, full_scale: bool) -> None:
    chords = generate_beyond_human("polyphony", chord_size=40, period=0.5, n_chords=8)
    onsets = chords.onsets()
    sizes = [len(np.unique(chords.pitches()[np.abs(onsets - t) < 1e-9]))
             for t in np.unique(onsets)]
    report.add("chord_size", min(sizes), "beyond.polyphony.chord_size")
    grid_err = float(np.max(np.abs(onsets / 0.5 - np.round(onsets / 0.5))))
    report.add("polyphony_grid_error", grid_err, "beyond.polyphony.grid_error")

    trill = generate_beyond_human("trill", rate_hz=30.0, keys=(60, 62), duration=4.0)
    t_on = trill.onsets()
    rate = (len(t_on) - 1) / (t_on[-1] - t_on[0])
    report.add("trill_rate_hz", float(rate), "beyond.trill.rate_hz")
    per_key = max(
        (np.sum(trill.pitches() == k) - 1) / (t_on[-1] - t_on[0])
        for k in np.unique(trill.pitches()))
    report.add("trill_per_key_hz", float(per_key), "beyond.trill.per_key_hz")
    try:
        generate_beyond_human("trill", rate_hz=30.0, keys=(60,))
        rejected = False
    except InfeasibleError:
        rejected = True
    report.add("single_key_trill_rejected", rejected, "beyond.trill.single_key_rejected")

    arp = generate_beyond_human("arpeggio", span=72, ioi=0.025, start=24)
    report.add("arpeggio_count", len(arp), "beyond.arpeggio.count")
    a_on = arp.onsets()
    grid_err = float(np.max(np.abs(a_on / 0.025 - np.round(a_on / 0.025))))
    report.add("arpeggio_grid_error", grid_err, "beyond.arpeggio.grid_error")

    # the three sections occupy sharply different timing distributions
    iois = [np.diff(onsets), np.diff(t_on), np.diff(a_on)]
    p_worst = max(ks_test(iois[i], iois[j]).p_value
                  for i in range(3) for j in range(i + 1, 3))
    report.add("section_contrast_p", p_worst, "beyond.section_contrast_p")
