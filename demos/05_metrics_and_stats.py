"""The measurement suite: coherence metrics, separation scores, sequence
measures, and the breakpoint regression behind the saturation analysis."""

import numpy as np

from polycanon import expand, generate, make_rng
from polycanon.metrics import (
    information_rate,
    lz_complexity,
    melodic_coherence,
    pitch_class_concentration,
    rhythmic_coherence,
    rqa_determinism,
    voice_separation,
)
from polycanon.presets import canonical_table, fibonacci_grammar
from polycanon.stats import piecewise_fit
from polycanon.experiments.density import SATURATION_REFERENCE_CURVE

piece = generate(expand(fibonacci_grammar(), 4), canonical_table(), make_rng(42))

# coherence between two sections of the same symbol vs different symbols
sections = {}
for index, (symbol, lo, hi) in enumerate(piece.sections):
    rows = piece.column("section") == index  # the piece's rows are in onset order
    sections[index] = (symbol, piece.pitches()[rows], np.diff(piece.onsets()[rows]))

sym0, p0, i0 = sections[0]   # A
sym2, p2, i2 = sections[2]   # A
sym1, p1, i1 = sections[1]   # B
print(f"MC({sym0},{sym2}) = {melodic_coherence(p0, p2):.3f}   "
      f"MC({sym0},{sym1}) = {melodic_coherence(p0, p1):.3f}")
print(f"RC({sym0},{sym2}) = {rhythmic_coherence(i0, i2):.3f}   "
      f"RC({sym0},{sym1}) = {rhythmic_coherence(i0, i1):.3f}")
print(f"concentration: A section {pitch_class_concentration(p0):.3f}, "
      f"B section {pitch_class_concentration(p1):.3f}")

vss, wvss, nwvss = voice_separation(piece.voice_events(0), piece.voice_events(1))
print(f"voice separation: VSS {vss:.2f}, range-normalised {nwvss:.4f}")

print("\nsequence measures of the grammar strings:")
for depth in (4, 5, 6, 7):
    text = expand(fibonacci_grammar(), depth).text
    print(f"  depth {depth}: IR {information_rate(text):.3f} bits, "
          f"LZ {lz_complexity(text)} phrases, DET {rqa_determinism(text):.3f}")

x = np.array([p[0] for p in SATURATION_REFERENCE_CURVE], float)
y = np.array([p[1] for p in SATURATION_REFERENCE_CURVE], float)
fit = piecewise_fit(x, y)
print(f"\nsaturation regression on the reference curve: breakpoint {fit.breakpoint} "
      f"notes/s, R2 {fit.r2_piecewise:.3f} (single line {fit.r2_linear:.3f}), "
      f"slope ratio {abs(fit.slope_ratio):.1f}x")
