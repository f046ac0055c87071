import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from polycanon import stats
from polycanon.stats import (
    UndefinedStatisticError,
    bootstrap_ci,
    correlation,
    ks_distance,
    ks_distance_to_cdf,
    kruskal_wallis,
    mann_whitney,
    paired_t_test,
    permutation_test,
    piecewise_breakpoint_ci,
    piecewise_fit,
    t_test_with_d,
    wasserstein1,
)


def test_ks_distance_examples():
    assert ks_distance([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_distance([1, 2, 3], [1, 2, 4]) == pytest.approx(1 / 3)
    assert ks_distance([0, 1], [5, 6]) == 1.0
    with pytest.raises(ValueError):
        ks_distance([], [1])


def sorted_pool_ks_distance(x, y):
    """The formula before the pooled sample lost its sort."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pooled = np.concatenate([x, y])
    pooled.sort(kind="mergesort")
    fx = np.searchsorted(np.sort(x), pooled, side="right") / x.size
    fy = np.searchsorted(np.sort(y), pooled, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


# few distinct values make ties inside and across the samples
ks_samples = st.one_of(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=1, max_size=30),
                       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))


@settings(max_examples=100, deadline=None)
@given(ks_samples, ks_samples)
def test_ks_distance_equals_the_sorted_pool_formula(x, y):
    assert ks_distance(x, y) == sorted_pool_ks_distance(x, y)
    assert ks_distance(x + x, y) == sorted_pool_ks_distance(x + x, y)  # duplicated sample


def test_ks_distance_to_cdf_discrete_atom():
    # sample identical to a degenerate law scores zero
    cdf = lambda x: (np.asarray(x) >= 0.2 - 1e-12).astype(float)
    assert ks_distance_to_cdf([0.2, 0.2, 0.2], cdf) == 0.0
    # one displaced observation out of four
    assert ks_distance_to_cdf([0.2, 0.2, 0.2, 0.4], cdf) == pytest.approx(0.25)


def test_wasserstein_examples():
    assert wasserstein1([0], [1]) == 1.0
    assert wasserstein1([0, 2], [1, 3]) == pytest.approx(1.0)
    assert wasserstein1([3, 1, 4], [3, 1, 4]) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
       st.lists(st.floats(-50, 50), min_size=1, max_size=12))
def test_wasserstein_equal_size_sorted_pairing_oracle(x, y):
    if len(x) == len(y):
        oracle = np.mean(np.abs(np.sort(x) - np.sort(y)))
        assert wasserstein1(x, y) == pytest.approx(oracle, abs=1e-9)


# samples of unequal sizes: heavy ties, integer pitches, and free floats
w1_samples = st.one_of(
    st.lists(st.integers(0, 3).map(float), min_size=1, max_size=400),
    st.lists(st.integers(21, 108).map(float), min_size=1, max_size=400),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=400))


@settings(max_examples=300, deadline=None)
@given(w1_samples, w1_samples)
def test_wasserstein_equals_scipy_exactly(x, y):
    assert wasserstein1(x, y) == sps.wasserstein_distance(x, y)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=1, max_size=10),
       st.lists(st.floats(-20, 20), min_size=1, max_size=10),
       st.lists(st.floats(-20, 20), min_size=1, max_size=10))
def test_wasserstein_triangle_inequality(x, y, z):
    assert wasserstein1(x, z) <= wasserstein1(x, y) + wasserstein1(y, z) + 1e-9


def test_mann_whitney_complete_separation_15_15():
    x = np.arange(15) + 100.0
    y = np.arange(15.0)
    res = mann_whitney(x, y)
    assert res.statistic in (0.0, 225.0)
    assert abs(res.effect_size) == pytest.approx(1.0)


def test_mann_whitney_u_min_is_the_smaller_tail():
    x, y = np.arange(15) + 100.0, np.arange(15.0)
    assert mann_whitney(x, y).extras["u_min"] == 0.0 == mann_whitney(y, x).extras["u_min"]
    res = mann_whitney([1.0, 4, 6], [2.0, 3, 5, 7])
    assert res.statistic == 5.0 and res.extras["u_min"] == 5.0
    assert mann_whitney([2.0, 3, 5, 7], [1.0, 4, 6]).extras["u_min"] == 5.0


def test_mann_whitney_small_sample_exact():
    res = mann_whitney([1.0, 2, 3, 4, 5], [10.0, 11, 12])
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(0.0357, abs=5e-4)
    assert res.extras["method"] == "exact"


def test_mann_whitney_identical_multisets():
    res = mann_whitney([1.0, 2, 3, 4] * 5, [1.0, 2, 3, 4] * 5)
    assert abs(res.effect_size) < 0.05


def test_t_test_with_d_null_case():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 40)
    res = t_test_with_d(x, x + 0.0)
    assert res.effect_size == pytest.approx(0.0, abs=1e-12)


def test_paired_t_test_on_the_differences():
    # differences 1, 2, 3: mean 2, SD 1, so t = 2 / (1 / sqrt(3)) on 2 df
    res = paired_t_test([2.0, 4, 6], [1.0, 2, 3])
    assert res.statistic == pytest.approx(2 * np.sqrt(3))
    assert res.df == 2
    assert res.p_value == pytest.approx(2 * sps.t.sf(2 * np.sqrt(3), 2))


def test_t_test_with_constant_group_flags_undefined():
    res = t_test_with_d(np.full(5, 800.0), np.array([100.0, 400, 700]))
    assert res.undefined and res.effect_size is None


def test_kruskal_identical_groups():
    res = kruskal_wallis([[1.0, 1, 1], [1.0, 1], [1.0]])
    assert res.p_value == pytest.approx(1.0)


def test_kruskal_two_groups_agrees_with_mann_whitney_direction():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, 30)
    y = rng.normal(2, 1, 30)
    kw = kruskal_wallis([x, y])
    mw = mann_whitney(x, y)
    assert (kw.p_value < 0.01) == (mw.p_value < 0.01)


def test_correlation_examples():
    x = np.arange(10.0)
    assert correlation(x, 3 * x + 1, "pearson").statistic == pytest.approx(1.0)
    y = np.exp(x)
    assert correlation(x, y, "spearman").statistic == pytest.approx(1.0)
    assert correlation(x, y, "pearson").statistic < 1.0
    with pytest.raises(UndefinedStatisticError):
        correlation(x, np.ones(10), "pearson")


def test_bootstrap_ci_constant_data():
    lo, hi = bootstrap_ci(np.full(20, 7.0), np.mean, n_boot=200, rng=np.random.default_rng(0))
    assert lo == hi == 7.0


def test_bootstrap_ci_brackets_point_estimate():
    rng = np.random.default_rng(2)
    data = rng.normal(5, 1, 100)
    lo, hi = bootstrap_ci(data, np.mean, n_boot=10_000,
                          rng=np.random.default_rng(3))
    assert lo < data.mean() < hi
    with pytest.raises(ValueError):
        bootstrap_ci(data, np.mean, n_boot=10, rng=np.random.default_rng(3))


def test_permutation_test_extreme_observation():
    p = permutation_test(100.0, np.array([float(i % 7) for i in range(999)]))
    assert p == pytest.approx(1 / 1000)


def test_permutation_test_counts_float_ties_as_extreme():
    # a null 1e-13 short of the observation is a tie recomputed with float dust
    nulls = np.array([0.7 - 1e-13] * 3 + [0.7 - 1e-11] * 97 + [0.1] * 100)
    assert permutation_test(0.7, nulls) == 4 / 201
    assert permutation_test(0.7, list(nulls)) == 4 / 201
    with pytest.raises(ValueError):
        permutation_test(0.7, nulls[:99])


def test_p_values_uniform_under_null():
    rng = np.random.default_rng(4)
    sims = 2000
    mw_p = np.empty(sims)
    for k in range(sims):
        x = rng.normal(0, 1, 12)
        y = rng.normal(0, 1, 12)
        mw_p[k] = mann_whitney(x, y).p_value
    grid = np.linspace(0, 1, 401)
    ecdf = np.searchsorted(np.sort(mw_p), grid, side="right") / sims
    assert np.max(np.abs(ecdf - grid)) < 0.05


def test_piecewise_fit_recovers_noiseless_breakpoint():
    x = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], dtype=float)
    # discontinuous two-segment data: the break is unambiguous at x = 5
    y = np.where(x <= 5, 2 * x, 3 + 0.1 * (x - 5))
    fit = piecewise_fit(x, y)
    assert 4.5 <= fit.breakpoint <= 5.5
    assert fit.r2_piecewise > 0.999
    assert fit.pre_slope == pytest.approx(2.0, abs=0.01)
    assert fit.post_slope == pytest.approx(0.1, abs=0.01)


def test_piecewise_fit_needs_five_points():
    with pytest.raises(ValueError):
        piecewise_fit([1, 2, 3, 4], [1, 2, 3, 4])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=6, max_size=16))
@example(ys=[3.3164345008107023] * 6)  # equal values whose float mean is not exact
def test_piecewise_sse_never_exceceds_linear(ys):
    x = np.arange(len(ys), dtype=float)
    y = np.asarray(ys)
    fit = piecewise_fit(x, y)
    sst = np.sum((y - y.mean()) ** 2)
    assert fit.r2_piecewise >= fit.r2_linear - 1e-9


def test_breakpoint_ci_contains_estimate():
    x = np.array([10, 15, 20, 25, 28, 30, 40, 50, 60, 80, 100, 120, 150, 200], float)
    y = np.array([1.0, 0.92, 0.78, 0.55, 0.38, 0.25, 0.22, 0.2, 0.18, 0.16, 0.15, 0.14, 0.13, 0.12])
    fit = piecewise_fit(x, y)
    lo, hi = piecewise_breakpoint_ci(x, y, n_boot=500, rng=np.random.default_rng(5))
    assert lo <= fit.breakpoint <= hi
    assert 23.0 <= lo and hi <= 50.0


def polyfit_breakpoint(x, y):
    """The breakpoint search written out with one np.polyfit per segment."""
    xs = np.unique(x)
    best = None
    for b in sorted(set(xs[1:-1]) | {0.5 * (u + v) for u, v in zip(xs[:-1], xs[1:])}):
        left = x <= b
        if np.unique(x[left]).size < 2 or np.unique(x[~left]).size < 2:
            continue
        total = 0.0
        for side in (left, ~left):
            resid = y[side] - np.polyval(np.polyfit(x[side], y[side], 1), x[side])
            total += float(np.dot(resid, resid))
        if best is None or total < best[0] - 1e-15:
            best = (total, b)
    return best[1]


def test_batched_breakpoints_match_per_replicate_fits():
    x = np.array([10, 15, 20, 25, 28, 30, 40, 50, 60, 80, 100, 120, 150, 200], float)
    y = np.array([1.0, 0.92, 0.78, 0.55, 0.38, 0.25, 0.22, 0.2, 0.18, 0.16, 0.15, 0.14, 0.13, 0.12])
    fit = piecewise_fit(x, y)
    assert fit.breakpoint == polyfit_breakpoint(x, y)
    fitted = np.where(x <= fit.breakpoint, fit.pre_intercept + fit.pre_slope * x,
                      fit.post_intercept + fit.post_slope * x)
    residuals = y - fitted
    rng = np.random.default_rng(3)
    y_star = np.array([fitted + residuals[rng.integers(0, x.size, x.size)] for _ in range(500)])
    batched = stats._best_breakpoints(x, y_star)
    singles = np.array([piecewise_fit(x, row).breakpoint for row in y_star])
    np.testing.assert_array_equal(batched, singles)
    np.testing.assert_array_equal(batched, [polyfit_breakpoint(x, row) for row in y_star])
    # the CI draws its replicates in this same order from the same stream
    lo, hi = piecewise_breakpoint_ci(x, y, n_boot=500, rng=np.random.default_rng(3))
    assert (lo, hi) == tuple(np.quantile(singles, [0.025, 0.975]))


def test_breakpoint_search_handles_unsorted_repeated_x():
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.integers(0, 7, 20).astype(float)
        if np.unique(x).size < 4:
            continue
        y = np.round(rng.normal(size=20), 1)
        assert piecewise_fit(x, y).breakpoint == polyfit_breakpoint(x, y)
