import math
import time

import numpy as np
import pytest

from polycanon.canon import (
    ConvergenceQuery,
    _candidate_pairs,
    VoiceSpec,
    find_convergences,
    next_convergence_after,
    voice_time,
    voice_times_until,
)
from polycanon.presets import rational_canon, transcendental_canon


def brute_force_pairs(q):
    """Independent oracle: full double loop over event indices."""
    out = []
    vi, vj = q.voice_i, q.voice_j
    n_max = int(q.horizon / vi.base_ioi) + 2
    m_max = int(q.horizon / vj.base_ioi) + 2
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            ti, tj = voice_time(vi, n), voice_time(vj, m)
            if abs(ti - tj) < q.epsilon and min(ti, tj) <= q.horizon:
                out.append((min(ti, tj), n, m, abs(ti - tj)))
    return sorted(out)


def test_voice_time_examples():
    assert voice_time(VoiceSpec(1, 1), 3) == pytest.approx(3.0)
    assert voice_time(VoiceSpec(4, 3), 4) == pytest.approx(3.0)  # IOI 0.75
    assert voice_time(VoiceSpec(1, 1, alpha=0.5), 2) == pytest.approx(1.5)


def test_voice_time_strictly_increasing():
    for alpha in (0.5, 0.9, 1.0):
        v = VoiceSpec(2.0, 1.5, alpha=alpha)
        times = [voice_time(v, k) for k in range(40)]
        assert np.all(np.diff(times) > 0)


@pytest.mark.parametrize("alpha", [0.97, 1.0, 1.01])
@pytest.mark.parametrize("start", [0.0, 0.25])
@pytest.mark.parametrize("horizon", [0.1, 3.7, 12.0])
def test_voice_times_until_equals_voice_time_stepped_to_the_horizon(alpha, start, horizon):
    v = VoiceSpec(2.0, 1.0, alpha=alpha, start=start)
    stepped, k = [], 0
    while voice_time(v, k) <= horizon:
        stepped.append(voice_time(v, k))
        k += 1
    assert voice_times_until(v, horizon).tolist() == stepped
    assert voice_times_until(v, start - 1.0).tolist() == []


def test_onsets_converging_before_the_horizon_raise_at_once():
    # alpha < 1: the onsets converge to 0.5 / 0.03 = 16.7 s, before the horizon
    q = ConvergenceQuery(0.05, 30.0, VoiceSpec(2.0, 1.0, alpha=0.97), VoiceSpec(3.0, 1.0))
    t = time.perf_counter()
    with pytest.raises(ValueError, match="converge"):
        find_convergences(q)
    assert time.perf_counter() - t < 0.1


def test_rational_canon_count_is_tolerance_invariant():
    vi, vj = rational_canon()
    for eps_ms in range(1, 101, 3):
        q = ConvergenceQuery(eps_ms / 1000.0, 30.0, vi, vj)
        events = find_convergences(q)
        assert len(events) == 11
    times = [e.time for e in find_convergences(ConvergenceQuery(0.05, 30.0, vi, vj))]
    assert np.allclose(times, np.arange(0, 31, 3))


def test_residuals_respect_epsilon():
    q = ConvergenceQuery(0.05, 30.0, *transcendental_canon())
    for e in find_convergences(q):
        assert e.residual < q.epsilon


def test_monotone_in_epsilon():
    vi, vj = transcendental_canon()
    prev_times = None
    for eps in (0.005, 0.02, 0.05, 0.1):
        events = find_convergences(ConvergenceQuery(eps, 30.0, vi, vj))
        times = [e.time for e in events]
        if prev_times is not None:
            assert len(times) >= len(prev_times)
            # every tighter-tolerance event persists within the wider window
            for t in prev_times:
                assert min(abs(t - u) for u in times) < eps
        prev_times = times


def test_next_convergence_after():
    q = ConvergenceQuery(0.05, 30.0, *rational_canon())
    assert next_convergence_after(q, 14.0).time == pytest.approx(15.0)
    assert next_convergence_after(q, 30.0) is None


def test_first_transcendental_event_matches_brute_force():
    q = ConvergenceQuery(0.05, 30.0, *transcendental_canon())
    ours = find_convergences(q)
    oracle = brute_force_pairs(q)
    assert ours[0].time == pytest.approx(oracle[0][0])
    # merged count never exceeds the raw pair count
    assert len(ours) <= len(oracle)


def test_accelerating_search_matches_brute_force_enumeration():
    vi = VoiceSpec(1.0, 1.0, alpha=0.97)
    vj = VoiceSpec(1.3, 1.0)
    q = ConvergenceQuery(0.02, 20.0, vi, vj)
    events = find_convergences(q)
    ti = voice_times_until(vi, 20.02)
    tj = voice_times_until(vj, 20.02)
    raw = [(min(a, b), abs(a - b)) for a in ti for b in tj
           if abs(a - b) < 0.02 and min(a, b) <= 20.0]
    assert events, "expected at least one convergence"
    assert len(events) <= len(raw)
    for e in events:
        assert any(abs(e.time - t) < 1e-9 for t, _ in raw)


@pytest.mark.parametrize("voices", [(VoiceSpec(3.0, 1.0), VoiceSpec(4.0, 1.0)),
                                    transcendental_canon(),
                                    (VoiceSpec(1.0, 1.0, alpha=1.01), VoiceSpec(1.3, 1.0))],
                         ids=["rational", "transcendental", "accelerating"])
@pytest.mark.parametrize("epsilon", [0.01, 0.2, 0.45, 0.9])
def test_pair_search_finds_every_pair_a_double_loop_finds(voices, epsilon):
    """Also where epsilon spans several events of a voice (rational IOIs 1/3 s
    and 1/4 s), and every field is a Python number."""
    q = ConvergenceQuery(epsilon, 12.0, *voices)
    ti = voice_times_until(q.voice_i, 12.0 + epsilon).tolist()
    tj = voice_times_until(q.voice_j, 12.0 + epsilon).tolist()
    oracle = sorted((min(a, b), n, m, abs(a - b)) for n, a in enumerate(ti)
                    for m, b in enumerate(tj) if abs(a - b) < epsilon and min(a, b) <= 12.0)
    pairs = _candidate_pairs(q)
    assert [(e.time, e.index_i, e.index_j, e.residual) for e in pairs] == oracle
    assert all(type(e.time) is float and type(e.index_i) is int and type(e.index_j) is int
               and type(e.residual) is float for e in pairs)


def test_invalid_query_rejected():
    vi, vj = rational_canon()
    with pytest.raises(ValueError):
        ConvergenceQuery(0.0, 30.0, vi, vj)
    with pytest.raises(ValueError):
        ConvergenceQuery(0.05, -1.0, vi, vj)
    with pytest.raises(ValueError):
        VoiceSpec(0.0, 1.0)


def test_transcendental_tau_base_reproduces_published_counts():
    vi, vj = transcendental_canon()
    assert vi.base_ioi == pytest.approx(1 / math.e)
    assert vj.base_ioi == pytest.approx(1 / math.pi)
    counts = [len(find_convergences(ConvergenceQuery(e, 30.0, vi, vj)))
              for e in (0.01, 0.02, 0.05, 0.1)]
    assert counts == [5, 11, 26, 51]
