"""Statistics kernel: distances, hypothesis tests, effect sizes, resampling,
and two-segment breakpoint regression.

Only what the experiment harness needs. Standard machinery (the KS test,
Mann-Whitney, paired and pooled t, Kruskal-Wallis, correlations) is delegated
to scipy, which each of those functions imports when it is called:
``ks_test``, ``mann_whitney``, ``paired_t_test``, ``t_test_with_d``,
``kruskal_wallis`` and ``correlation``.
Everything else runs on numpy alone, so importing this module, or calling
the metrics that use its distances, never loads scipy: KS distances, the W1
distance (scipy's own arithmetic, so both give the same float), bootstrap,
permutation tests and the breakpoint fit, whose exact conventions are part
of the project contract.

The generation path never loads this module either: ``import polycanon``
and ``polycanon generate``, ``expand`` and ``compensate`` run without it.
``metrics`` and ``experiments`` import it, and ``hal.simulate_mismatch``
imports ``paired_t_test`` when it is called, for its p value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class UndefinedStatisticError(ValueError):
    pass


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    effect_name: str = ""
    effect_size: float | None = None
    df: float | None = None
    undefined: bool = False
    note: str = ""
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def ks_distance(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_x - F_y|."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValueError("ks_distance needs non-empty samples")
    # the supremum over the pooled points does not depend on their order, so
    # the pool is left as two sorted runs (searchsorted is fastest on sorted keys)
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / x.size
    fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def ks_distance_to_cdf(x, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS distance between an empirical sample and a reference CDF.

    The supremum is evaluated on both sides of every jump of the ECDF using
    the reference law's left limits as well, so discrete laws (whose atoms
    coincide with sample values) are scored correctly. The CDF callable must
    be right-continuous.
    """
    x = np.sort(np.asarray(x, dtype=float))
    if x.size == 0:
        raise ValueError("ks_distance_to_cdf needs a non-empty sample")
    n = x.size
    values, first_idx = np.unique(x, return_index=True)
    last_idx = np.concatenate([first_idx[1:], [n]])
    ecdf_right = last_idx / n
    ecdf_left = first_idx / n
    delta = 1e-9 * np.maximum(np.abs(values), 1.0)
    f_right = np.asarray(cdf(values), dtype=float)
    f_left = np.asarray(cdf(values - delta), dtype=float)
    d = max(np.max(np.abs(ecdf_right - f_right)), np.max(np.abs(ecdf_left - f_left)))
    return float(d)


def ks_test(x, y) -> TestResult:
    """Two-sample KS test (distance + asymptotic p)."""
    from scipy import stats as sps

    res = sps.ks_2samp(x, y, method="asymp")
    return TestResult(float(res.statistic), float(res.pvalue), effect_name="D")


def wasserstein1(x, y) -> float:
    """First Wasserstein distance between two empirical distributions.

    The integral of |F_x - F_y| over the pooled sample, computed with the
    operations of scipy's ``wasserstein_distance`` in the same order, so the
    two return the same float.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValueError("wasserstein1 needs non-empty samples")
    pooled = np.concatenate([x, y])
    pooled.sort(kind="mergesort")
    fx = np.searchsorted(x, pooled[:-1], side="right") / x.size
    fy = np.searchsorted(y, pooled[:-1], side="right") / y.size
    return float(np.dot(np.abs(fx - fy), np.diff(pooled)))


# ---------------------------------------------------------------------------
# Hypothesis tests
# ---------------------------------------------------------------------------

EXACT_MW_LIMIT = 20  # combined sample size up to which the exact U null is used


def mann_whitney(x, y) -> TestResult:
    """Two-sided Mann-Whitney U with rank-biserial effect size.

    Exact null for combined n <= 20 without ties, normal approximation with
    tie correction otherwise. ``extras["u_min"]`` is min(U, n1*n2 - U), which
    is 0 exactly when the two samples separate completely.
    """
    from scipy import stats as sps

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("mann_whitney needs non-empty samples")
    has_ties = np.unique(np.concatenate([x, y])).size < x.size + y.size
    method = "exact" if (x.size + y.size <= EXACT_MW_LIMIT and not has_ties) else "asymptotic"
    res = sps.mannwhitneyu(x, y, alternative="two-sided", method=method)
    u = float(res.statistic)
    r = 1.0 - 2.0 * u / (x.size * y.size)
    return TestResult(u, float(res.pvalue), effect_name="rank-biserial r", effect_size=r,
                      extras={"method": method, "u_min": min(u, x.size * y.size - u)})


def t_test_with_d(x, y) -> TestResult:
    """Pooled-variance two-sample t test with Cohen's d.

    Zero pooled variance leaves d undefined; the result is flagged rather
    than raising, since constant-vs-anything contrasts are legitimate inputs.
    """
    from scipy import stats as sps

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or y.size < 2:
        raise ValueError("t_test_with_d needs n >= 2 per sample")
    n1, n2 = x.size, y.size
    df = n1 + n2 - 2
    pooled_var = ((n1 - 1) * x.var(ddof=1) + (n2 - 1) * y.var(ddof=1)) / df
    if x.var(ddof=1) == 0 or y.var(ddof=1) == 0:
        # a degenerate (constant) group makes d meaningless; separation is
        # qualitative and the caller should report it as such
        return TestResult(np.nan, np.nan, effect_name="cohen d", df=df, undefined=True,
                          note="a group has zero SD; d undefined")
    t = (x.mean() - y.mean()) / np.sqrt(pooled_var * (1.0 / n1 + 1.0 / n2))
    p = 2.0 * sps.t.sf(abs(t), df)
    d = (x.mean() - y.mean()) / np.sqrt(pooled_var)
    return TestResult(float(t), float(p), effect_name="cohen d", effect_size=float(d),
                      df=float(df))


def paired_t_test(x, y) -> TestResult:
    """Two-sided paired t test of the differences x - y (scipy's ``ttest_rel``)."""
    from scipy import stats as sps

    res = sps.ttest_rel(x, y)
    return TestResult(float(res.statistic), float(res.pvalue), effect_name="t",
                      df=float(res.df))


def kruskal_wallis(groups: Sequence) -> TestResult:
    """Kruskal-Wallis H across two or more groups."""
    from scipy import stats as sps

    if len(groups) < 2:
        raise ValueError("kruskal_wallis needs >= 2 groups")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    pooled = np.concatenate(arrays)
    if np.all(pooled == pooled[0]):
        return TestResult(0.0, 1.0, effect_name="H", note="all values identical")
    res = sps.kruskal(*arrays)
    return TestResult(float(res.statistic), float(res.pvalue), effect_name="H")


def correlation(x, y, kind: str = "pearson") -> TestResult:
    from scipy import stats as sps

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("correlation needs equal-length samples of size >= 3")
    if np.var(x) == 0 or np.var(y) == 0:
        raise UndefinedStatisticError("correlation undefined for zero-variance input")
    if kind == "pearson":
        res = sps.pearsonr(x, y)
    elif kind == "spearman":
        res = sps.spearmanr(x, y)
    else:
        raise ValueError(f"unknown correlation kind {kind!r}")
    return TestResult(float(res.statistic), float(res.pvalue), effect_name=kind)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def bootstrap_ci(data, statistic: Callable, n_boot: int = 2000, level: float = 0.95, *,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Seeded percentile bootstrap CI for a statistic of one sample."""
    if n_boot < 100:
        raise ValueError("n_boot must be >= 100")
    data = np.asarray(data)
    n = data.shape[0]
    values = np.empty(n_boot, dtype=float)
    for b in range(n_boot):
        idx = rng.integers(0, n, n)
        values[b] = statistic(data[idx])
    alpha = 1.0 - level
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


def permutation_test(observed: float, nulls) -> float:
    """One-sided Monte Carlo permutation p-value: (1 + #extreme) / (len(nulls) + 1).

    ``nulls`` holds the statistic of each null draw; one at or above
    ``observed``, or within 1e-12 below it, is extreme, so float dust in a
    recomputed statistic cannot make a tie look less extreme than the
    observation.
    """
    nulls = np.asarray(nulls, dtype=float)
    if len(nulls) < 100:
        raise ValueError("permutation_test needs >= 100 trials")
    extreme = np.sum(nulls >= observed - 1e-12)
    return (1 + int(extreme)) / (len(nulls) + 1)


# ---------------------------------------------------------------------------
# Breakpoint regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseFit:
    breakpoint: float
    pre_slope: float
    pre_intercept: float
    post_slope: float
    post_intercept: float
    sse: float
    r2_piecewise: float
    r2_linear: float
    linear_slope: float

    @property
    def slope_ratio(self) -> float:
        return self.pre_slope / self.post_slope if self.post_slope != 0 else np.inf


def _line_sse(x: np.ndarray, y: np.ndarray):
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return coef, float(np.dot(resid, resid))


def _segment_sse(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise SSE of the least-squares line through each row of y over x."""
    xc = x - x.mean()
    yc = y - y.mean(axis=1, keepdims=True)
    resid = yc - np.outer(yc @ xc / (xc @ xc), xc)
    return np.einsum("ij,ij->i", resid, resid)


def _best_breakpoints(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SSE-minimising breakpoint of every row of y (rows x points) over x.

    Candidates are every interior distinct x plus the midpoints between
    consecutive distinct x values, in ascending order; a candidate is
    admissible when each side keeps >= 2 distinct x. Candidates that split
    the points identically share one SSE, so only the first of them can win,
    and a later candidate replaces the best only below ``best - 1e-15``.
    """
    xs = np.unique(x)
    candidates = sorted(set(xs[1:-1]) | {0.5 * (a + b) for a, b in zip(xs[:-1], xs[1:])})
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[:, order]
    best_sse = best_b = None
    seen = set()
    for b in candidates:
        n_left = int(np.searchsorted(x, b, side="right"))
        distinct_left = int(np.searchsorted(xs, b, side="right"))
        if distinct_left < 2 or xs.size - distinct_left < 2 or n_left in seen:
            continue
        seen.add(n_left)
        sse = _segment_sse(x[:n_left], y[:, :n_left]) + _segment_sse(x[n_left:], y[:, n_left:])
        if best_sse is None:
            best_sse, best_b = sse, np.full(sse.shape, b)
        else:
            better = sse < best_sse - 1e-15
            best_sse = np.where(better, sse, best_sse)
            best_b = np.where(better, b, best_b)
    return best_b


def piecewise_fit(x, y) -> PiecewiseFit:
    """Two independent least-squares segments split at the SSE-minimising breakpoint.

    Candidate breakpoints are every interior x plus the midpoints between
    consecutive distinct x values; segments are fit independently (no
    continuity constraint at the break). Ties resolve to the smallest
    candidate.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 5:
        raise ValueError("piecewise_fit needs >= 5 (x, y) points")
    if np.unique(x).size < 4:
        raise ValueError("piecewise_fit needs >= 4 distinct x values")
    b = _best_breakpoints(x, y[None, :])[0]
    left = x <= b
    c1, sse1 = _line_sse(x[left], y[left])
    c2, sse2 = _line_sse(x[~left], y[~left])
    sse = sse1 + sse2
    # both models fit equal y values exactly, and the mean of equal floats
    # need not be exact, so their sst would be rounding noise
    sst = float(np.sum((y - y.mean()) ** 2)) if np.ptp(y) > 0 else 0.0
    lin_coef, lin_sse = _line_sse(x, y)
    return PiecewiseFit(
        breakpoint=float(b),
        pre_slope=float(c1[0]),
        pre_intercept=float(c1[1]),
        post_slope=float(c2[0]),
        post_intercept=float(c2[1]),
        sse=sse,
        r2_piecewise=1.0 - sse / sst if sst > 0 else 1.0,
        r2_linear=1.0 - lin_sse / sst if sst > 0 else 1.0,
        linear_slope=float(lin_coef[0]),
    )


def piecewise_breakpoint_ci(x, y, n_boot: int = 2000, *,
                            rng: np.random.Generator) -> tuple[float, float]:
    """Percentile bootstrap 95% CI for the breakpoint.

    The density levels form a designed grid, so this is a residual bootstrap:
    the fitted two-segment curve stays, residuals are resampled onto it, and
    the breakpoint is re-estimated per replicate. The replicates are drawn one
    ``rng.integers(0, n, n)`` call at a time, in the same order as a
    per-replicate refit would draw them, and then searched as one batch; each
    replicate's breakpoint is the one ``piecewise_fit`` would choose.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fit = piecewise_fit(x, y)
    left = x <= fit.breakpoint
    fitted = np.where(left,
                      fit.pre_intercept + fit.pre_slope * x,
                      fit.post_intercept + fit.post_slope * x)
    residuals = y - fitted
    n = x.size
    idx = np.array([rng.integers(0, n, n) for _ in range(n_boot)]).reshape(n_boot, n)
    values = _best_breakpoints(x, fitted + residuals[idx])
    # 1 - 0.95 is not the float 0.05, and the lower quantile reads its last bit
    alpha = 1.0 - 0.95
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)
