"""Structural metrics over event streams and symbol sequences.

Coherence metrics (contour edit similarity, IOI-distribution similarity,
pitch-class concentration), Wasserstein voice-separation scores with
weighted and range-normalized variants, windowed pitch-class-set distance,
and the sequence measures: bigram information rate, incremental-dictionary
parsing complexity, and recurrence determinism.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import islice, zip_longest
from typing import Hashable, Sequence

import numpy as np

from .events import PITCH_MAX, VELOCITY_MAX, EventView, Piece
from .stats import ks_distance, wasserstein1

LOG2_12 = math.log2(12)

# Normalisation ranges for nwVSS: full pitch range, 10-bit velocity range,
# and the log-IOI span covering 1 ms .. 10 s.
RANGE_PITCH = float(PITCH_MAX)
RANGE_VELOCITY = float(VELOCITY_MAX)
RANGE_TEMPORAL = math.log(10.0 / 0.001)


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class MetricReport:
    """Bundle of metric values for one analysis; every field is optional.

    Unit-interval metrics are validated when present; serializes to a JSON
    document or a flat CSV row with a fixed column order.
    """

    mc: float | None = None
    rc: float | None = None
    pcc: float | None = None
    vss: float | None = None
    wvss: float | None = None
    nwvss: float | None = None
    pcs: float | None = None
    ir: float | None = None
    lz: int | None = None
    det: float | None = None
    nlz: float | None = None

    FIELDS = ("mc", "rc", "pcc", "vss", "wvss", "nwvss", "pcs", "ir", "lz", "det", "nlz")

    def __post_init__(self):
        for name in ("mc", "rc", "pcc", "det", "pcs"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0 + 1e-12:
                raise MetricError(f"{name} = {value} outside [0, 1]")
        if self.vss is not None and self.vss < 0:
            raise MetricError(f"vss = {self.vss} is negative")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.FIELDS if getattr(self, k) is not None}

    def to_json(self) -> str:
        import json

        return json.dumps(self.as_dict(), indent=1)

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.FIELDS)

    def to_csv_row(self) -> str:
        return ",".join("" if getattr(self, k) is None else repr(getattr(self, k))
                        for k in self.FIELDS)


# ---------------------------------------------------------------------------
# Contours and coherence
# ---------------------------------------------------------------------------


def contour(pitches) -> np.ndarray:
    """Up/Down/Same steps between consecutive pitches, encoded as +1/-1/0."""
    p = np.asarray(pitches)
    if p.size < 2:
        raise MetricError("contour needs at least two pitches")
    return np.sign(np.diff(p.astype(float))).astype(np.int8)


_ENDED = object()  # the symbol of a walker after its last one; it matches nothing


class _StepMasks(dict):
    """Match masks of a packed walk, keyed by the walkers' symbols at a step;
    a key not yet seen gets the OR of each walker's mask for its symbol."""

    def __init__(self, peqs: list[dict]):
        super().__init__()
        self.peqs = peqs

    def __missing__(self, symbols: tuple) -> int:
        eq = 0
        for peq, symbol in zip(self.peqs, symbols):
            eq |= peq[symbol]
        self[symbols] = eq
        return eq


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Exact unit-cost edit distance between 1-D sequences, bit-parallel.

    Myers' bit-vector recurrence (JACM 46(3), 1999) in Hyyrö's global form
    (2001): the shorter sequence becomes per-symbol match masks, one Python
    int holds a whole DP column as vertical +1/-1 deltas, and the longer
    sequence (``n`` symbols) is walked once. This is the one-lane case of
    :func:`lane_levenshtein`: the shorter sequence is one lane of ``m`` bits
    with a zero guard bit above them, and the distance is read once from
    the final column as ``n + popcount(pv) - popcount(mv)``. Cost is
    O(ceil(m/64) * n) word operations. Symbols match when they compare
    equal as Python values (``np.asarray(...).tolist()``), as in the
    textbook DP.
    """
    a = np.asarray(a).tolist()
    b = np.asarray(b).tolist()
    if len(a) < len(b):
        a, b = b, a
    return lane_levenshtein([(a, [b])])[0][0]


def lane_levenshtein(walks: Sequence[tuple[Sequence, Sequence[Sequence]]]) -> list[list[int]]:
    """Edit distances from each walker to each of its lanes, in one walk.

    ``walks`` holds ``(walker, lanes)`` pairs; the result holds, per pair,
    the distance from the walker to each of its lanes.

    Lane layout: each lane of ``m`` symbols is ``m`` bits of one Python int
    (its match masks and its DP column), with a zero guard bit above them;
    a lane of no symbols takes no bits. ``mask`` holds every lane bit and
    ``lows`` the low bit of every lane. The step is the scalar one of
    :func:`levenshtein` with the horizontal +1 entering at ``lows`` instead
    of at bit 0. The guard bits keep the lanes apart: a carry out of a
    lane's top bit stops in its guard bit, and whatever ``ph`` shifts out of
    a guard bit lands on the next lane's low bit, which ``| lows`` sets
    anyway; ``pv`` is cleared to ``mask`` every step, which keeps ``mv``
    (``ph & (eq | mv)``) inside it too. No per-step score is kept: after
    the walk of ``n`` symbols a lane's bits hold the vertical deltas of its
    final DP column below row 0, whose value is ``n``, so its distance is
    ``n + popcount(pv_lane) - popcount(mv_lane)``.

    Several walkers share the int: each has match masks for its own lanes
    only, and a step's mask is the OR of every walker's mask for its symbol
    at that step, memoised by the tuple of those symbols. A walker that has
    ended shows a symbol whose mask is 0; its lanes go on stepping, apart
    from every other lane, and are read from the ``(pv, mv)`` of the step
    at which it ended. Cost is one step per symbol of the longest walker,
    on an int as wide as all lanes together. Symbols match when they compare
    equal; lists of Python values (``.tolist()``) walk fastest.
    """
    peqs, spans = [], []  # per walker: its match masks, (offset, width) of each lane
    local: dict = {}  # per lane object: its match masks at offset 0, built once
    mask = lows = offset = 0
    for walker, lanes in walks:
        peq = dict.fromkeys(walker, 0)
        peq[_ENDED] = 0
        peqs.append(peq)
        spans.append([])
        for lane in lanes:
            m = len(lane)
            spans[-1].append((offset, m))
            if not m:
                continue
            if id(lane) not in local:  # walks holds every lane, so no id is reused
                masks = local[id(lane)] = {}
                for i, symbol in enumerate(lane):
                    masks[symbol] = masks.get(symbol, 0) | (1 << i)
            for symbol, bits in local[id(lane)].items():
                peq[symbol] = peq.get(symbol, 0) | (bits << offset)
            mask |= ((1 << m) - 1) << offset
            lows |= 1 << offset
            offset += m + 1
    walkers = [walker for walker, _ in walks]
    eqs = map(_StepMasks(peqs).__getitem__, zip_longest(*walkers, fillvalue=_ENDED))
    pv, mv = mask, 0
    columns = {}  # (pv, mv) after each walker's last step
    step = 0
    for end in sorted({len(walker) for walker in walkers}):
        for eq in islice(eqs, end - step):
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask ^ (xh | pv))
            mh = pv & xh
            ph = (ph << 1) | lows
            pv = ((mh << 1) | (mask ^ (xv | ph))) & mask
            mv = ph & xv
        columns[end] = pv, mv
        step = end
    out = []
    for walker, walk_spans in zip(walkers, spans):
        n = len(walker)
        pv, mv = columns[n]
        out.append([n + ((pv >> lo) & ((1 << m) - 1)).bit_count()
                    - ((mv >> lo) & ((1 << m) - 1)).bit_count() for lo, m in walk_spans])
    return out


def pairwise_levenshtein(seqs: Sequence[Sequence]) -> np.ndarray:
    """Symmetric matrix of edit distances between every pair of sequences.

    Sequences are ranked by (length, index), and each one is a walker with
    every sequence ranked below it as its lanes; :func:`lane_levenshtein`
    runs these ``k - 1`` walkers as one walk, so ``k`` sequences take one
    walk instead of ``k (k - 1) / 2`` scalar calls. Each sequence is one
    list object in every walk it serves, so its lane masks are built once.
    """
    seqs = [np.asarray(s).tolist() for s in seqs]
    ranked = sorted(range(len(seqs)), key=lambda i: (len(seqs[i]), i))
    walks = [(seqs[i], [seqs[j] for j in ranked[:rank]]) for rank, i in enumerate(ranked) if rank]
    out = np.zeros((len(seqs), len(seqs)), dtype=np.int64)
    for rank, dists in enumerate(lane_levenshtein(walks), 1):
        i, below = ranked[rank], ranked[:rank]
        out[i, below] = out[below, i] = dists
    return out


def melodic_coherence(x_pitches, y_pitches) -> float:
    """Edit similarity of pitch contours, normalised by the longer pitch sequence."""
    x = np.asarray(x_pitches)
    y = np.asarray(y_pitches)
    if x.size < 2 or y.size < 2:
        raise MetricError("melodic_coherence needs pitch sequences of length >= 2")
    d = levenshtein(contour(x), contour(y))
    return 1.0 - d / max(x.size, y.size)


def rhythmic_coherence(x_iois, y_iois) -> float:
    """One minus the KS distance between two IOI samples."""
    if np.size(x_iois) == 0 or np.size(y_iois) == 0:
        raise MetricError("rhythmic_coherence needs non-empty IOI samples")
    return 1.0 - ks_distance(x_iois, y_iois)


def pitch_class_concentration(pitches) -> float:
    """1 - H(pitch class) / log2(12); 1 = single class, 0 = uniform chromatic."""
    p = np.asarray(pitches, dtype=int)
    if p.size == 0:
        raise MetricError("pitch_class_concentration needs a non-empty pitch sequence")
    counts = np.bincount(p % 12, minlength=12).astype(float)
    probs = counts[counts > 0] / p.size
    h = -np.sum(probs * np.log2(probs))
    return float(1.0 - h / LOG2_12)


# ---------------------------------------------------------------------------
# Voice separation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightVector:
    w_pitch: float
    w_velocity: float
    w_temporal: float

    def __post_init__(self):
        total = self.w_pitch + self.w_velocity + self.w_temporal
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        if min(self.w_pitch, self.w_velocity, self.w_temporal) < 0:
            raise ValueError("weights must be non-negative")

    def as_tuple(self):
        return (self.w_pitch, self.w_velocity, self.w_temporal)


UNIFORM_WEIGHTS = WeightVector(1 / 3, 1 / 3, 1 / 3)


def _domain_marginals(notes: Piece | EventView):
    if len(notes) < 2:
        raise MetricError("voice separation needs >= 2 events per voice")
    pitches = notes.column("pitch").astype(float)
    velocities = notes.column("velocity").astype(float)
    iois = np.diff(notes.column("onset"))
    iois = iois[iois > 0]
    if iois.size == 0:
        raise MetricError("voice has no positive inter-onset intervals")
    return pitches, velocities, np.log(iois)


def separation_components(events_i, events_j) -> tuple[float, float, float]:
    """W1 distances between two voices' pitch, velocity and log-IOI marginals;
    each voice is a :class:`Piece` or one of its event views."""
    pi, vi, ti = _domain_marginals(events_i)
    pj, vj, tj = _domain_marginals(events_j)
    return (wasserstein1(pi, pj), wasserstein1(vi, vj), wasserstein1(ti, tj))


def voice_separation(events_i, events_j, weights: WeightVector | None = None):
    """(VSS, wVSS, nwVSS) for one voice pair.

    VSS is the plain mean of the three W1 components; wVSS weights the raw
    components; nwVSS weights the range-normalised components. With no
    weight vector the uniform one is used, making wVSS coincide with VSS.
    Each voice is a :class:`Piece` or one of its event views.
    """
    w = weights or UNIFORM_WEIGHTS
    wp, wv, wt = w.as_tuple()
    dp, dv, dt = separation_components(events_i, events_j)
    vss = (dp + dv + dt) / 3.0
    wvss = wp * dp + wv * dv + wt * dt
    nwvss = wp * dp / RANGE_PITCH + wv * dv / RANGE_VELOCITY + wt * dt / RANGE_TEMPORAL
    return vss, wvss, nwvss


def estimate_weights(voices: Sequence) -> WeightVector:
    """Per-domain weights proportional to the mean pairwise W1 separation;
    each voice is a :class:`Piece` or one of its event views.

    The components are divided by their domain ranges before weighting (the
    nwVSS convention). Degenerate all-zero separation falls back to uniform
    weights with a warning.
    """
    if len(voices) < 2:
        raise MetricError("estimate_weights needs >= 2 voices")
    totals = np.zeros(3)
    n_pairs = 0
    for i in range(len(voices)):
        for j in range(i + 1, len(voices)):
            comps = np.array(separation_components(voices[i], voices[j]))
            totals += comps / np.array([RANGE_PITCH, RANGE_VELOCITY, RANGE_TEMPORAL])
            n_pairs += 1
    means = totals / n_pairs
    total = means.sum()
    if total <= 0:
        warnings.warn("all separation components are zero; using uniform weights")
        return UNIFORM_WEIGHTS
    w = means / total
    return WeightVector(float(w[0]), float(w[1]), float(w[2]))


def pcs_distance(events_i, events_j) -> float:
    """Mean (1 - cosine) distance between pitch-class histograms over 1 s windows.

    Each voice is a :class:`Piece` or one of its event views.
    Windows where either voice is silent are skipped; a voice silent in
    every shared window is an error.
    """
    oi = events_i.column("onset")
    oj = events_j.column("onset")
    if oi.size == 0 or oj.size == 0:
        raise MetricError("pcs_distance needs non-empty voices")
    t_end = max(oi.max(), oj.max())
    n_windows = max(1, int(math.ceil(t_end + 1e-9)))
    pi = events_i.column("pitch") % 12
    pj = events_j.column("pitch") % 12
    dists = []
    for k in range(n_windows):
        hist_i = np.bincount(pi[(oi >= k) & (oi < k + 1)], minlength=12).astype(float)
        hist_j = np.bincount(pj[(oj >= k) & (oj < k + 1)], minlength=12).astype(float)
        ni, nj = np.linalg.norm(hist_i), np.linalg.norm(hist_j)
        if ni == 0 or nj == 0:
            continue
        dists.append(1.0 - float(hist_i @ hist_j) / (ni * nj))
    if not dists:
        raise MetricError("one voice is silent in every aligned window")
    return float(np.mean(dists))


# ---------------------------------------------------------------------------
# Sequence measures
# ---------------------------------------------------------------------------


def information_rate(seq: Sequence[Hashable]) -> float:
    """Plug-in mutual information (bits) between consecutive symbols."""
    seq = list(seq)
    if len(seq) < 2:
        raise MetricError("information_rate needs a sequence of length >= 2")
    pairs = list(zip(seq[:-1], seq[1:]))
    n = len(pairs)
    joint = Counter(pairs)
    left = Counter(a for a, _ in pairs)
    right = Counter(b for _, b in pairs)
    mi = 0.0
    for (a, b), c in joint.items():
        p = c / n
        mi += p * math.log2(p * n * n / (left[a] * right[b]))
    return max(mi, 0.0)


def lz_complexity(seq: Sequence[Hashable]) -> int:
    """Lempel–Ziv (1976) exhaustive-history phrase count.

    Each phrase is the shortest prefix of the unparsed remainder that does not
    occur as a substring of the text before the phrase's last symbol (the
    occurrence may overlap the phrase itself); a trailing incomplete phrase
    counts as one.

    The parse runs in O(n) amortised time on an online suffix automaton
    (Blumer et al. 1985, "The smallest automaton recognizing the subwords of
    a text", TCS 40) over integer symbol codes, with at most 2n states. The
    automaton is extended by one symbol per step, so it holds exactly the
    text before the symbol being tested, and the phrase so far is always a
    suffix of that text. When the phrase goes on, its state lies on the
    suffix-link path at or below the first state the extension finds with
    that symbol's transition, so it is never the state the step clones, and
    its transition read after the extension (redirected to the clone when
    one is made) is the phrase's state in the extended automaton.
    """
    codebook: dict = {}
    return _lz_phrases([codebook.setdefault(s, len(codebook)) for s in seq])


def _lz_phrases(codes: list[int]) -> int:
    """:func:`lz_complexity` of a sequence of int symbol codes."""
    if not codes:
        raise MetricError("lz_complexity needs a non-empty sequence")

    # state 0 is the root; `length` is the longest string of each state
    trans: list[dict] = [{}]
    link = [-1]
    length = [0]
    last = 0
    state = 0  # the state of the phrase so far, which is a suffix of the text
    phrases = 0
    for c in codes:
        extends = c in trans[state]
        # append c to the automaton's text
        cur = len(length)
        trans.append({})
        link.append(0)
        length.append(length[last] + 1)
        p = last
        while p != -1 and c not in trans[p]:
            trans[p][c] = cur
            p = link[p]
        if p != -1:
            q = trans[p][c]
            if length[q] == length[p] + 1:
                link[cur] = q
            else:
                clone = len(length)
                trans.append(dict(trans[q]))
                link.append(link[q])
                length.append(length[p] + 1)
                while p != -1 and trans[p].get(c) == q:
                    trans[p][c] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
        if extends:
            state = trans[state][c]
        else:
            phrases += 1
            state = 0
    return phrases + (state != 0)


# cells of the recurrence triangle scored in one vectorised pass
RQA_BLOCK_CELLS = 1 << 20


def rqa_determinism(seq: Sequence[Hashable]) -> float:
    """Share of recurrence points lying on diagonal lines of length >= 2.

    Recurrence matrix R(i, j) = 1 iff seq[i] == seq[j], main diagonal excluded.
    Computed on the upper triangle (the ratio is triangle-invariant). A
    sequence with no recurrence points scores 0.

    Diagonals are scored a block of rows at a time: row ``d - 1`` holds
    diagonal ``d`` zero-padded on the right, so a run never wraps into the
    next row, and each block goes through one run-length pass. A block
    holds at most ``RQA_BLOCK_CELLS`` cells (2**20), or one diagonal if
    that is longer, and a pass allocates at most a few tens of bytes per
    cell, so memory stays bounded whatever the length (a 12 MB peak on
    random binary strings of 3,000 and 6,000 symbols).
    """
    seq = list(seq)
    n = len(seq)
    if n < 2:
        raise MetricError("rqa_determinism needs a sequence of length >= 2")
    labels = {s: i for i, s in enumerate(dict.fromkeys(seq))}
    codes = np.array([labels[s] for s in seq])
    # -1 never equals a code, so cells past a diagonal's end read 0
    padded = np.concatenate([codes, np.full(n, -1)])
    total = 0
    on_lines = 0
    d = 1
    while d < n:
        width = n - d + 1  # the longest diagonal of the block plus one pad cell
        stop = min(n, d + max(1, RQA_BLOCK_CELLS // width))
        windows = np.lib.stride_tricks.sliding_window_view(padded, width)[d:stop]
        block = (windows == codes[:width]).ravel()
        total += int(np.count_nonzero(block))
        edges = np.flatnonzero(np.diff(block, prepend=False))
        runs = edges[1::2] - edges[0::2]
        on_lines += int(runs[runs >= 2].sum())
        d = stop
    if total == 0:
        return 0.0
    return on_lines / total


# ---------------------------------------------------------------------------
# Event-stream discretisation and normalised parsing complexity
# ---------------------------------------------------------------------------

IOI_BINS = 8
IOI_LO = 0.001
IOI_HI = 10.0


def _ioi_bins_and_classes(events: Piece | EventView) -> tuple[np.ndarray, np.ndarray]:
    """The log-IOI bins and the pitch classes of :func:`discretize_events`'
    symbols, as two int arrays."""
    if len(events) < 2:
        raise MetricError("discretize_events needs >= 2 events")
    iois = np.clip(np.diff(events.column("onset")), IOI_LO, IOI_HI)
    log_span = math.log(IOI_HI / IOI_LO)
    bins = np.floor(IOI_BINS * np.log(iois / IOI_LO) / log_span).astype(int)
    bins = np.clip(bins, 0, IOI_BINS - 1)
    return bins, events.column("pitch")[1:] % 12


def discretize_events(events: Piece | EventView) -> list[tuple[int, int]]:
    """(log-IOI bin, pitch class) joint symbols of a ``Piece`` or one of its
    event views.

    IOIs are taken between consecutive onsets of the full stream and quantised
    into 8 logarithmic bins spanning 1 ms .. 10 s; the first event (no IOI)
    is dropped.
    """
    bins, classes = _ioi_bins_and_classes(events)
    return list(zip(bins.tolist(), classes.tolist()))


def normalized_lz(events: Piece | EventView) -> float:
    """Parsing complexity per event of the discretised stream of a ``Piece``
    or one of its event views.

    The symbols are parsed as the int codes ``bin * 12 + pitch class``, one
    per (bin, class) pair of :func:`discretize_events`, so the phrase count
    is the same and no tuple is built per event.
    """
    bins, classes = _ioi_bins_and_classes(events)
    return _lz_phrases((bins * 12 + classes).tolist()) / len(bins)
