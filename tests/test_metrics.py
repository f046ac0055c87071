import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycanon import metrics
from polycanon.events import NoteEvent, Piece
from polycanon.grammar import expand
from polycanon.metrics import (
    MetricError,
    contour,
    discretize_events,
    estimate_weights,
    information_rate,
    lane_levenshtein,
    levenshtein,
    lz_complexity,
    melodic_coherence,
    normalized_lz,
    pairwise_levenshtein,
    pcs_distance,
    pitch_class_concentration,
    rhythmic_coherence,
    rqa_determinism,
    voice_separation,
)
from polycanon.presets import fibonacci_grammar
from polycanon.stochastic import make_rng

STRINGS = {d: expand(fibonacci_grammar(), d).text for d in range(9)}


def make_voice(pitches, velocities=None, step=0.5, voice=0):
    velocities = velocities or [500] * len(pitches)
    return Piece.from_events(NoteEvent(i * step, p, v, 0.1, voice=voice)
                             for i, (p, v) in enumerate(zip(pitches, velocities)))


# -- contours and coherence ---------------------------------------------------


def test_contour_encoding():
    assert list(contour([60, 62, 62, 58])) == [1, 0, -1]
    with pytest.raises(MetricError):
        contour([60])


def brute_levenshtein(a, b):
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        new = [i]
        for j, cb in enumerate(b, 1):
            new.append(min(dp[j] + 1, new[-1] + 1, dp[j - 1] + (ca != cb)))
        dp = new
    return dp[-1]


def test_levenshtein_matches_reference_dp():
    rng = np.random.default_rng(0)
    for _ in range(150):
        a = rng.integers(0, 3, rng.integers(0, 15))
        b = rng.integers(0, 3, rng.integers(0, 15))
        assert levenshtein(a, b) == brute_levenshtein(list(a), list(b))


symbols = st.integers(0, 300).flatmap(lambda n: st.lists(
    st.one_of(st.integers(-2, 2), st.integers()), min_size=n, max_size=n))


@settings(max_examples=30, deadline=None)
@given(symbols, symbols)
def test_levenshtein_multiword_matches_reference_dp(a, b):
    # lengths up to 300 span several 64-bit words of the bit-parallel column;
    # arbitrary ints include negatives and symbols absent from the other side
    d = levenshtein(a, b)
    assert d == brute_levenshtein(a, b)
    assert d == levenshtein(b, a)


@pytest.mark.parametrize("alphabet", [(-1, 0, 1), (0, 1, 2, 3, 4, 5, 6, 7)])
def test_levenshtein_long_sequences_match_reference_dp(alphabet):
    rng = np.random.default_rng(len(alphabet))
    a = rng.choice(alphabet, 1500)
    b = rng.choice(alphabet[1:], 1400)  # b never holds alphabet[0]
    assert levenshtein(a, b) == brute_levenshtein(a.tolist(), b.tolist())
    assert levenshtein(a, a[::-1].copy()) == levenshtein(a[::-1].copy(), a)
    assert levenshtein(a, a) == 0
    assert levenshtein(a, []) == levenshtein([], a) == 1500


# lane widths on both sides of the 64-bit word boundaries
lane_symbols = st.sampled_from([0, 1, 63, 64, 65, 128]).flatmap(
    lambda n: st.lists(st.integers(0, 2), min_size=n, max_size=n))


walks = st.lists(st.tuples(st.lists(st.integers(0, 2), max_size=140),
                           st.lists(lane_symbols, max_size=4)), max_size=3)


@settings(max_examples=25, deadline=None)
@given(walks)
@example([([], [[0] * 64, [], [1] * 65])])
@example([([0, 1], [[0, 1, 2] * 43, [2] * 63, [0]])])
@example([([0] * 70, [[0] * 64, [0] * 65, [0], [1] * 63, [0] * 128])])  # carries reach every guard bit
@example([([], [[0] * 63, [1] * 64]), ([0, 1] * 40, [[0] * 65, [], [1] * 64]),
          ([2] * 5, [[2] * 64, [0] * 63]), ([1, 0, 2] * 50, [[1] * 65, [2, 0] * 32])])
@example([([5, 6, 5], [[5, 5]]), ([7] * 90, [[7, 5] * 40]), ([0, 1], [])])  # walkers' own alphabets
def test_lane_kernel_matches_reference_dp(walks):
    # ragged lanes, empty lanes, empty walkers and walkers shorter than their
    # lanes or than the other walkers of the same walk: a carry or shift must
    # never cross a lane's guard bit, and an ended walker's lanes must be read
    # at its last step
    assert lane_levenshtein(walks) == [[brute_levenshtein(walker, b) for b in lanes]
                                       for walker, lanes in walks]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(lane_symbols, st.lists(st.integers(-1, 1), max_size=20)),
                max_size=6))
def test_pairwise_levenshtein_matches_reference_dp(seqs):
    dist = pairwise_levenshtein(seqs)
    assert dist.shape == (len(seqs), len(seqs))
    assert np.array_equal(dist, dist.T)
    for i, a in enumerate(seqs):
        for j, b in enumerate(seqs):
            assert dist[i, j] == brute_levenshtein(a, b)


def test_pair_metrics_equal_a_per_pair_melodic_coherence_loop(canonical):
    from polycanon.experiments._common import section_streams
    from polycanon.experiments.fidelity import _pair_metrics

    streams = section_streams(canonical)
    same_mc, cross_mc = [], []
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            mc = melodic_coherence(streams[i][1], streams[j][1])
            (same_mc if streams[i][0] == streams[j][0] else cross_mc).append(mc)
    got_same, got_cross, _, _ = _pair_metrics(canonical)
    assert len(same_mc) + len(cross_mc) == 28
    assert got_same.tolist() == same_mc
    assert got_cross.tolist() == cross_mc


@pytest.mark.parametrize("shuffled", [False, True], ids=["canonical", "shuffled"])
def test_pair_metrics_without_cross_pairs_equal_the_same_symbol_part(canonical, shuffled):
    from polycanon.experiments.fidelity import _pair_metrics
    from polycanon.grammar import shuffle_preserving_counts
    from polycanon.pipeline import generate
    from polycanon.presets import canonical_table
    from polycanon.stochastic import derive_rng

    piece = canonical
    if shuffled:
        symbols = shuffle_preserving_counts(expand(fibonacci_grammar(), 4), 42_000)
        piece = generate(symbols, canonical_table(), derive_rng(42, "ablation-a-0"))
    same_mc, cross_mc, same_rc, cross_rc = _pair_metrics(piece)
    got = list(_pair_metrics(piece, cross=False))
    assert len(same_mc) == 13 and len(cross_mc) == 15
    assert [a.tolist() for a in got] == [same_mc.tolist(), [], same_rc.tolist(), []]


def test_melodic_coherence_examples():
    assert melodic_coherence([60, 62, 64], [60, 62, 64]) == pytest.approx(1.0)
    assert melodic_coherence([60, 62, 64], [60, 58, 56]) == pytest.approx(1 / 3)
    with pytest.raises(MetricError):
        melodic_coherence([60], [60, 62])


def test_rhythmic_coherence_examples():
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert rhythmic_coherence(x, x) == pytest.approx(1.0)
    assert rhythmic_coherence([1.0, 1.1], [5.0, 5.1]) == pytest.approx(0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 127), min_size=2, max_size=40),
       st.lists(st.integers(0, 127), min_size=2, max_size=40))
def test_mc_bounds_and_symmetry(x, y):
    mc = melodic_coherence(x, y)
    assert 0.0 <= mc <= 1.0
    assert mc == pytest.approx(melodic_coherence(y, x))
    assert melodic_coherence(x, x) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.001, 5.0), min_size=1, max_size=40),
       st.lists(st.floats(0.001, 5.0), min_size=1, max_size=40))
def test_rc_bounds_and_symmetry(x, y):
    rc = rhythmic_coherence(x, y)
    assert 0.0 <= rc <= 1.0
    assert rc == pytest.approx(rhythmic_coherence(y, x))


def test_pcc_examples():
    assert pitch_class_concentration([60] * 9) == pytest.approx(1.0)
    assert pitch_class_concentration(list(range(48, 60))) == pytest.approx(0.0)
    c_major = [48, 50, 52, 53, 55, 57, 59]
    expected = 1 - math.log2(7) / math.log2(12)
    assert pitch_class_concentration(c_major) == pytest.approx(expected, abs=1e-4)


# -- voice separation ---------------------------------------------------------


def test_voice_separation_identical_is_zero():
    v = make_voice([60, 64, 67, 72])
    vss, wvss, nwvss = voice_separation(v, v)
    assert vss == wvss == nwvss == 0.0


def test_voice_separation_pitch_only_oracle():
    vi = make_voice([0, 2])
    vj = make_voice([1, 3])
    vss, _, _ = voice_separation(vi, vj)
    assert vss == pytest.approx(1 / 3)


def test_voice_separation_requires_two_events():
    with pytest.raises(MetricError):
        voice_separation(make_voice([60]), make_voice([60, 62]))


def test_estimate_weights_single_domain():
    vi = make_voice([60, 60, 60, 60], velocities=[100, 100, 100, 100])
    vj = make_voice([60, 60, 60, 60], velocities=[900, 900, 900, 900])
    w = estimate_weights([vi, vj])
    assert w.w_velocity == pytest.approx(1.0)
    assert w.w_pitch == 0.0 and w.w_temporal == 0.0


def test_estimate_weights_degenerate_falls_back_uniform():
    v = make_voice([60, 60, 60])
    with pytest.warns(UserWarning):
        w = estimate_weights([v, v])
    assert w.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_pcs_distance_examples():
    vi = make_voice([60, 64, 67, 60, 64, 67], step=0.3)
    assert pcs_distance(vi, vi) == pytest.approx(0.0)
    vj = make_voice([61, 66, 70, 61, 66, 70], step=0.3)
    assert pcs_distance(vi, vj) == pytest.approx(1.0)


def test_pcs_distance_matches_window_oracle():
    rng = make_rng(8)
    c_major = [48 + c for c in (0, 2, 4, 5, 7, 9, 11)]
    vi = Piece.from_events([NoteEvent(float(t), int(rng.choice(c_major)), 500, 0.1)
                            for t in np.sort(rng.uniform(0, 5, 60))])
    vj = Piece.from_events([NoteEvent(float(t), int(rng.integers(48, 85)), 500, 0.1, voice=1)
                            for t in np.sort(rng.uniform(0, 5, 60))])
    ours = pcs_distance(vi, vj)
    dists = []
    for k in range(5):
        hi_ = np.zeros(12)
        hj_ = np.zeros(12)
        for e in vi.events:
            if k <= e.onset < k + 1:
                hi_[e.pitch % 12] += 1
        for e in vj.events:
            if k <= e.onset < k + 1:
                hj_[e.pitch % 12] += 1
        if hi_.any() and hj_.any():
            dists.append(1 - hi_ @ hj_ / (np.linalg.norm(hi_) * np.linalg.norm(hj_)))
    assert ours == pytest.approx(np.mean(dists))
    assert 0.0 < ours < 1.0


def test_pcs_distance_silent_voice_errors():
    vi = make_voice([60, 62])
    with pytest.raises(MetricError):
        pcs_distance(vi, make_voice([]))


# -- sequence measures --------------------------------------------------------


@pytest.mark.parametrize("depth,expected", [(4, 0.522), (5, 0.344), (6, 0.420), (7, 0.357)])
def test_information_rate_reference_values(depth, expected):
    assert information_rate(STRINGS[depth]) == pytest.approx(expected, abs=1e-3)


def test_information_rate_degenerate_and_bounds():
    assert information_rate("AAAA") == 0.0
    with pytest.raises(MetricError):
        information_rate("A")


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ABC", min_size=2, max_size=60))
def test_information_rate_entropy_bounds(s):
    from collections import Counter

    def entropy(symbols):
        counts = Counter(symbols)
        n = len(symbols)
        return -sum(c / n * math.log2(c / n) for c in counts.values())

    ir = information_rate(s)
    assert ir >= 0.0
    assert ir <= min(entropy(s[:-1]), entropy(s[1:])) + 1e-9


@pytest.mark.parametrize("depth,expected", [(4, 5), (5, 6), (6, 7), (7, 8)])
def test_lz_reference_values(depth, expected):
    assert lz_complexity(STRINGS[depth]) == expected


def test_lz_trivial_cases():
    assert lz_complexity("A") == 1
    assert lz_complexity("AAAAAAA") == 2  # "A" then the reproducible tail


def _lz_reference(seq):
    """The str.find parse that the automaton replaced, kept as the reference."""
    seq = tuple(seq)
    n = len(seq)
    codebook = {}
    for s in seq:
        codebook.setdefault(s, len(codebook))
    text = "".join(chr(0x100 + codebook[s]) for s in seq)
    phrases = 0
    pos = 0
    while pos < n:
        k = 1
        while pos + k <= n and text.find(text[pos:pos + k], 0, pos + k - 1) != -1:
            k += 1
        phrases += 1
        pos += k
    return phrases


# a short seed repeated to any length, with a few substitutions: long
# self-overlapping matches that walk the automaton's suffix links
repeats = st.builds(
    lambda base, n, edits: [
        dict(edits).get(i, base[i % len(base)]) for i in range(n)],
    st.lists(st.integers(0, 2), min_size=1, max_size=8),
    st.integers(1, 300),
    st.lists(st.tuples(st.integers(0, 299), st.integers(0, 2)), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.integers(1, 3).flatmap(
        lambda a: st.lists(st.integers(0, a - 1), min_size=1, max_size=300)),
    repeats,
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=1, max_size=300),
))
@example([0, 1, 0, 1])  # "A", "B", then the trailing incomplete "AB"
@example([0, 0, 1, 0, 0, 1, 0, 0])
@example([0, 1, 1, 1, 0, 0, 1, 1, 0, 0])  # needs a clone one symbol longer than its parent
@example([(3, 7)] * 40 + [(3, 8)])  # tuple symbols as discretize_events emits
def test_lz_automaton_equals_the_find_parse(seq):
    assert lz_complexity(seq) == _lz_reference(seq)


@pytest.mark.parametrize("alphabet,max_len", [(2, 12), (3, 7)])
def test_lz_automaton_equals_the_find_parse_on_every_short_string(alphabet, max_len):
    for n in range(1, max_len + 1):
        for seq in itertools.product(range(alphabet), repeat=n):
            assert lz_complexity(seq) == _lz_reference(seq), seq


def test_lz_trailing_incomplete_phrase_counts_once():
    assert lz_complexity("ABAB") == _lz_reference("ABAB") == 3  # A | B | AB...
    assert lz_complexity("ABABC") == _lz_reference("ABABC") == 3  # A | B | ABC
    assert lz_complexity([(0, 1), (0, 2), (0, 1), (0, 2)]) == 3


@pytest.mark.parametrize("depth", [9, 14, 18])
def test_lz_of_a_fibonacci_word_equals_the_find_parse(depth):
    text = expand(fibonacci_grammar(), depth).text
    assert lz_complexity(text) == _lz_reference(text) == depth + 1


def test_lz_pins_a_seeded_30k_symbol_stream():
    # (IOI bin, pitch class) symbols, half drawn fresh and half copied from
    # an earlier stretch, so the parse sees both short and long phrases
    rng = make_rng(2026)
    stream = list(zip(rng.integers(0, 8, 15_000).tolist(),
                      rng.integers(0, 12, 15_000).tolist()))
    while len(stream) < 30_000:
        start = int(rng.integers(0, len(stream) - 200))
        stream.extend(stream[start:start + int(rng.integers(1, 200))])
    stream = stream[:30_000]
    assert lz_complexity(stream) == _lz_reference(stream) == 6207


@pytest.mark.parametrize("depth,expected", [(4, 0.692), (6, 0.764), (8, 0.781)])
def test_det_reference_values(depth, expected):
    assert rqa_determinism(STRINGS[depth]) == pytest.approx(expected, abs=1e-3)


def test_det_hand_derivation_depth4():
    assert rqa_determinism(STRINGS[4]) == pytest.approx(9 / 13)


def test_det_no_recurrence():
    assert rqa_determinism("ABCD") == 0.0


def per_diagonal_determinism(seq):
    """The one-diagonal-at-a-time loop that the block form replaced."""
    seq = list(seq)
    n = len(seq)
    labels = {s: i for i, s in enumerate(dict.fromkeys(seq))}
    codes = np.array([labels[s] for s in seq])
    total = 0
    on_lines = 0
    for d in range(1, n):
        eq = codes[:-d] == codes[d:]
        total += int(eq.sum())
        if not eq.any():
            continue
        padded = np.concatenate([[0], eq.astype(np.int8), [0]])
        edges = np.flatnonzero(np.diff(padded))
        runs = edges[1::2] - edges[0::2]
        on_lines += int(runs[runs >= 2].sum())
    if total == 0:
        return 0.0
    return on_lines / total


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.text(alphabet="AB", min_size=2, max_size=80),
                 st.text(alphabet="ABCDEFGHIJ", min_size=2, max_size=80),
                 st.integers(2, 80).map(lambda n: "A" * n)),
       st.sampled_from([1, 7, 64, 500, metrics.RQA_BLOCK_CELLS]))
def test_det_blocks_equal_the_per_diagonal_loop(s, block_cells):
    # small block bounds split the triangle into many blocks, down to one
    # diagonal per block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "RQA_BLOCK_CELLS", block_cells)
        assert rqa_determinism(s) == per_diagonal_determinism(s)


LONG_TEXTS = {"periodic": "AB" * 750 + "A", "thirteen": "ABCDEFGHIJKLM" * 116,
              "fibonacci": STRINGS[8] * 28, "random": "".join(
                  np.random.default_rng(5).choice(list("ABC"), 1500).tolist())}


@pytest.mark.parametrize("name", sorted(LONG_TEXTS))
def test_det_beyond_one_block_equals_the_per_diagonal_loop(name):
    # 1,500 symbols or more: the triangle takes more than one block of the bound
    text = LONG_TEXTS[name]
    assert len(text) ** 2 // 2 > metrics.RQA_BLOCK_CELLS
    assert rqa_determinism(text) == per_diagonal_determinism(text)


def test_det_no_recurrence_and_all_equal_strings():
    text = "".join(chr(0x100 + i) for i in range(1200))
    assert rqa_determinism(text) == per_diagonal_determinism(text) == 0.0
    # every recurrence point but the one cell of the last diagonal is on a line
    points = 1200 * 1199 // 2
    assert rqa_determinism("A" * 1200) == per_diagonal_determinism("A" * 1200)
    assert rqa_determinism("A" * 1200) == (points - 1) / points


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="AB", min_size=2, max_size=50))
def test_det_bounds(s):
    assert 0.0 <= rqa_determinism(s) <= 1.0


# -- discretized stream complexity -------------------------------------------


def periodic_events(n, period=0.25):
    return Piece.from_events(NoteEvent(i * period, 60, 500, 0.1) for i in range(n))


def test_normalized_lz_constant_stream_vanishes():
    short = normalized_lz(periodic_events(50))
    long = normalized_lz(periodic_events(800))
    assert long < short
    assert long < 0.02


def test_normalized_lz_random_exceeds_structured(canonical):
    rng = make_rng(12)
    n = 600
    random_events = Piece.from_events(NoteEvent(float(t), int(rng.integers(0, 128)), 500, 0.05)
                                      for t in np.sort(rng.uniform(0, 10, n)))
    structured = Piece.from_events(canonical.events[:n])
    assert normalized_lz(random_events) > normalized_lz(structured)


def test_discretize_events_shape():
    symbols = discretize_events(periodic_events(10))
    assert len(symbols) == 9
    assert all(0 <= b < 8 and 0 <= c < 12 for b, c in symbols)


def test_metric_report_validation_and_serialization():
    from polycanon.metrics import MetricReport

    report = MetricReport(mc=0.7, vss=3.5, lz=5)
    assert report.as_dict() == {"mc": 0.7, "vss": 3.5, "lz": 5}
    assert '"mc": 0.7' in report.to_json()
    row = report.to_csv_row().split(",")
    assert row[MetricReport.FIELDS.index("mc")] == "0.7"
    assert row[MetricReport.FIELDS.index("rc")] == ""
    with pytest.raises(MetricError):
        MetricReport(mc=1.5)
    with pytest.raises(MetricError):
        MetricReport(vss=-1.0)


def outcome(f, *args):
    """``repr`` of what ``f(*args)`` returns, or the type and text of what it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # estimate_weights warns on all-zero separations
        try:
            return repr(f(*args))
        except MetricError as err:
            return (type(err), str(err))


# a ms onset grid with few pitches and velocities, so ties and zero IOIs are common
adapter_rows = st.lists(st.tuples(
    st.integers(0, 400).map(lambda k: k / 1000), st.integers(21, 33), st.sampled_from([0, 64, 1023]),
    st.just(0.05), st.integers(0, 2)), max_size=30)


@settings(max_examples=80, deadline=None)
@given(adapter_rows)
def test_metrics_read_a_piece_as_they_read_its_note_events(rows):
    piece = Piece.from_columns(*(list(zip(*rows)) or [()] * 5))
    selections = [piece.with_columns(rows=piece.column("voice") == v) for v in piece.voices()]
    views = [piece.voice_events(v) for v in piece.voices()]
    for f in (discretize_events, normalized_lz):
        assert outcome(f, piece) == outcome(f, piece.events)
        for selection, view in zip(selections, views):
            assert outcome(f, selection) == outcome(f, view)
    for i, j in itertools.combinations(range(len(views)), 2):
        for f in (metrics.separation_components, voice_separation, pcs_distance):
            assert outcome(f, selections[i], selections[j]) == outcome(f, views[i], views[j])
    assert outcome(estimate_weights, selections) == outcome(estimate_weights, views)


@settings(max_examples=40, deadline=None)
@given(adapter_rows)
def test_normalized_lz_is_the_phrase_count_of_the_discretized_stream_per_symbol(rows):
    piece = Piece.from_columns(*(list(zip(*rows)) or [()] * 5))
    if len(piece) < 2:
        return
    for notes in (piece, piece.events):
        # normalized_lz divides the phrase count by len - 1, so the two agree exactly
        assert normalized_lz(notes) == lz_complexity(discretize_events(notes)) / (len(notes) - 1)


def test_normalized_lz_of_an_event_view_builds_no_note_event(canonical):
    view = Piece.from_columns(canonical.onsets(), canonical.pitches(), canonical.velocities(),
                              canonical.durations()).events
    for f in (normalized_lz, discretize_events):
        f(view)
    metrics.separation_components(view, view)
    assert view._events is None
