"""Information structure of the grammar layer: bigram information rate,
parsing complexity and recurrence determinism against count-preserving
shuffles, plus depth-weighted versus symbol-only rendering compressibility."""

from __future__ import annotations

import numpy as np

from ..grammar import expand, fibonacci, shuffle_preserving_counts, symbol_counts
from ..metrics import information_rate, lz_complexity, normalized_lz, rqa_determinism
from ..presets import canonical_table, fibonacci_grammar
from ..pipeline import generate
from ..stats import permutation_test
from ..stochastic import derive_rng
from .reporting import Report, timer


def lsystem_info(seed: int = 42, shuffles: int = 1000, det_shuffles: int = 500, **_) -> Report:
    report = Report("lsystem_info", seed)
    grammar = fibonacci_grammar()
    with timer(report, {"shuffles": shuffles, "det_shuffles": det_shuffles}):
        strings = {d: expand(grammar, d) for d in range(9)}

        lengths_ok = all(len(strings[d]) == fibonacci(d + 2) for d in range(9))
        report.add("lengths_fibonacci", lengths_ok, "grammar.lengths.fibonacci")
        report.add("depth4_text", strings[4].text, "grammar.depth4.text")
        for d in (4, 5, 6, 7):
            counts = symbol_counts(strings[d])
            report.add(f"counts_depth{d}", (counts.get("A", 0), counts.get("B", 0)),
                       f"grammar.counts.depth{d}")

        for d in (4, 5, 6, 7):
            text = strings[d].text
            report.add(f"ir_depth{d}", information_rate(text), f"sequence.ir.depth{d}")
            report.add(f"lz_depth{d}", lz_complexity(text), f"sequence.lz.depth{d}")

        # permutation nulls for IR (one-sided: structure means higher IR)
        for d, anchor in ((6, "sequence.ir.depth6.permutation_p"),
                          (7, "sequence.ir.depth7.permutation_p")):
            observed = information_rate(strings[d].text)
            nulls = np.array([
                information_rate(shuffle_preserving_counts(strings[d], seed * 881 + i).text)
                for i in range(shuffles)])
            report.add(f"ir_depth{d}_permutation_p", permutation_test(observed, nulls), anchor)
        nulls4 = np.array([
            information_rate(shuffle_preserving_counts(strings[4], seed * 881 + i).text)
            for i in range(shuffles)])
        report.add("ir_depth4_shuffled", (round(float(nulls4.mean()), 3),
                                          round(float(nulls4.std()), 3)),
                   "sequence.ir.shuffled_mean.depth4")
        lz4 = np.array([
            lz_complexity(shuffle_preserving_counts(strings[4], seed * 13 + i).text)
            for i in range(shuffles)])
        report.add("lz_depth4_shuffled", (round(float(lz4.mean()), 2),
                                          round(float(lz4.std()), 2)),
                   "sequence.lz.shuffled_mean.depth4")

        for d in (4, 6, 8):
            report.add(f"det_depth{d}", rqa_determinism(strings[d].text),
                       f"sequence.det.depth{d}")
        observed = rqa_determinism(strings[8].text)
        nulls = np.array([
            rqa_determinism(shuffle_preserving_counts(strings[8], seed * 37 + i).text)
            for i in range(det_shuffles)])
        report.add("det_depth8_permutation_p", permutation_test(observed, nulls),
                   "sequence.det.depth8.permutation_p")

        # hierarchical self-similarity of the rendered stream
        symbols = strings[4]
        weighted = generate(symbols, canonical_table(depth_weighted=True),
                            derive_rng(seed, "nlz-depth-weighted"))
        plain = generate(symbols, canonical_table(depth_weighted=False),
                         derive_rng(seed, "nlz-symbol-only"))
        nlz_weighted = normalized_lz(weighted.events)
        nlz_plain = normalized_lz(plain.events)
        report.add("nlz_values", (round(nlz_weighted, 4), round(nlz_plain, 4)),
                   "sequence.nlz.values")
        report.add("nlz_depth_weighted_lower", bool(nlz_weighted < nlz_plain),
                   "sequence.nlz.depth_weighted_lower")
    return report
