"""Resolve the permutation/scaling ambiguity between two dictionaries and
evaluate the recovery inequalities against a certificate.

Matching minimizes the worst per-column error over injective column maps,
with the per-pair scale chosen by least squares. The min-max assignment is
solved exactly: binary search over cost thresholds with a bipartite matching
feasibility oracle, then a deterministic lexicographic extraction
(lowest source index first, then lowest target index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import HypothesisError, ThresholdError


@dataclass
class AlignmentResult:
    """Injective column map with per-column scales and errors (1-based columns)."""

    pi: dict
    scales: dict
    column_errors: dict
    max_column_error: float
    unmatched_source: tuple
    unmatched_target: tuple

    @property
    def matched_source(self):
        return tuple(sorted(self.pi))

    @property
    def matched_target(self):
        return tuple(sorted(self.pi.values()))


def _pair_costs(a_mat, b_mat):
    """Cost and optimal scale for every (source, target) column pair.

    The scale is the least-squares coefficient <A_j, B_l> / ||B_l||^2 and the
    cost its explicit residual norm. Numerator and denominator go through the
    same dot-product routine, so identical columns get scale exactly 1.0 and
    cost exactly 0.0. Zero target columns are unmatchable.
    """
    m, m_bar = a_mat.shape[1], b_mat.shape[1]
    b_sq = np.array([float(np.dot(b_mat[:, l], b_mat[:, l]))
                     for l in range(m_bar)])
    usable = b_sq > 0.0
    scales = np.zeros((m, m_bar))
    costs = np.full((m, m_bar), math.inf)
    for j in range(m):
        a = a_mat[:, j]
        for l in range(m_bar):
            if not usable[l]:
                continue
            scale = float(np.dot(a, b_mat[:, l])) / b_sq[l]
            scales[j, l] = scale
            d = a - scale * b_mat[:, l]
            costs[j, l] = math.sqrt(float(np.dot(d, d)))
    return costs, scales, usable


def _max_matching(allowed):
    """Size of a maximum matching between the rows and columns of a boolean matrix.

    Kuhn's augmenting paths: each row in turn claims a free allowed column or
    re-routes the row holding one. The recursion depth is at most the row count.
    """
    adjacency = [[col for col, ok in enumerate(row) if ok]
                 for row in allowed.tolist()]
    owner = [-1] * allowed.shape[1]

    def augment(row, seen):
        for col in adjacency[row]:
            if not seen[col]:
                seen[col] = True
                if owner[col] < 0 or augment(owner[col], seen):
                    owner[col] = row
                    return True
        return False

    return sum(augment(row, [False] * len(owner)) for row in range(len(adjacency)))


def _matching_deficit(costs, threshold):
    """Number of pairs a max matching leaves above the threshold (0 = feasible)."""
    return min(costs.shape) - _max_matching(costs <= threshold)


def align_dictionaries(dictionary, candidate):
    """Best injective column matching between two dictionaries.

    Minimizes the maximum per-column error ||A_j - c * B_pi(j)|| over
    injective maps pi and per-pair least-squares scales c. When the candidate
    has fewer usable (nonzero) columns than the source has columns, only that
    many sources are matched.
    """
    a_mat = geometry.as_matrix(dictionary, "dictionary")
    b_mat = geometry.as_matrix(candidate, "candidate")
    if a_mat.shape[0] != b_mat.shape[0]:
        raise ValueError("dictionaries have different signal dimensions")
    m, m_bar = a_mat.shape[1], b_mat.shape[1]
    costs, scales, usable = _pair_costs(a_mat, b_mat)
    n_usable = int(np.sum(usable))
    if n_usable == 0:
        raise ValueError("candidate dictionary has no nonzero columns")
    n_match = min(m, n_usable)

    levels = np.unique(costs[np.isfinite(costs)])
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_deficit(costs, levels[mid]) <= min(m, m_bar) - n_match:
            hi = mid
        else:
            lo = mid + 1
    threshold = levels[lo]

    pi, used = {}, set()
    for j in range(m):
        matched_needed = n_match - len(pi)
        if matched_needed == 0:
            break
        for l in range(m_bar):
            if l in used or costs[j, l] > threshold:
                continue
            rows = [jj for jj in range(j + 1, m)]
            cols = [ll for ll in range(m_bar) if ll != l and ll not in used]
            if matched_needed == 1 or _submatching_ok(
                    costs, rows, cols, threshold, matched_needed - 1):
                pi[j] = l
                used.add(l)
                break
    column_errors = {j + 1: float(costs[j, l]) for j, l in pi.items()}
    result = AlignmentResult(
        pi={j + 1: l + 1 for j, l in pi.items()},
        scales={j + 1: float(scales[j, l]) for j, l in pi.items()},
        column_errors=column_errors,
        max_column_error=max(column_errors.values()),
        unmatched_source=tuple(j + 1 for j in range(m) if j not in pi),
        unmatched_target=tuple(l + 1 for l in range(m_bar) if l not in used),
    )
    return result


def _submatching_ok(costs, rows, cols, threshold, needed):
    if needed == 0:
        return True
    if not rows or not cols:
        return False
    sub = costs[np.ix_(rows, cols)]
    return _max_matching(sub <= threshold) >= needed


def code_alignment_error(x, xbar, alignment, subset=None):
    """l1 distance between codes and the back-transformed candidate codes.

    Sums |x_j - xbar_pi(j) / c_j| over the matched source columns (or the
    given 1-based subset of them), in increasing j. ``x`` and ``xbar`` are
    one code each, shape (m,), giving a float, or N codes as columns, shape
    (m, N), giving an (N,) array. Zero scales cannot be inverted.
    """
    x = np.asarray(x, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    columns = sorted(alignment.pi) if subset is None else sorted(subset)
    scales = np.array([alignment.scales[j] for j in columns], dtype=float)
    zero = np.flatnonzero(scales == 0.0)
    if zero.size:
        raise ValueError(f"matched column {columns[zero[0]]} has zero scale")
    source = np.array([j - 1 for j in columns], dtype=np.intp)
    target = np.array([alignment.pi[j] - 1 for j in columns], dtype=np.intp)
    single = x.ndim == 1
    if single:
        x, xbar = x[:, None], xbar[:, None]
    terms = np.abs(x[source] - xbar[target] / scales[:, None])
    # row by row, so the sum runs in increasing j for every N (numpy would
    # sum a contiguous axis pairwise)
    total = np.zeros(terms.shape[1])
    for row in terms:
        total += row
    return float(total[0]) if single else total


@dataclass
class TheoremReport:
    """Outcome of checking the recovery inequalities for one (B, xbar) pair.

    ``matched_subset`` is the best-scoring source subset of the guaranteed
    size (it need not be unique when the candidate is oversized).
    """

    eps: float
    residuals: np.ndarray
    alignment: AlignmentResult
    m: int
    m_bar: int
    r: int
    m_bar_ok: bool
    guaranteed_columns: int | None
    matched_subset: tuple
    max_column_error: float
    bound5: float
    eq5_ok: bool | None
    code_tier_active: bool
    code_errors: np.ndarray | None = None
    code_bounds: np.ndarray | None = None
    eq6_ok: bool | None = None
    l2k_aligned: float | None = None
    l2k_floor: float | None = None
    l2k_ok: bool | None = None

    @property
    def all_ok(self):
        checks = [self.m_bar_ok, self.eq5_ok]
        if self.code_tier_active:
            checks += [self.eq6_ok, self.l2k_ok]
        return all(c for c in checks if c is not None)


def verify_theorem1(dictionary, codes, candidate, codes_bar, certificate, eps,
                    tol=1e-9):
    """Check the dictionary- and code-recovery inequalities at residual level eps.

    Raises HypothesisError when some sample violates ||A x_i - B xbar_i|| <= eps
    and ThresholdError when eps is not strictly below the certified dictionary
    threshold (no guarantee exists there, so the check refuses to run).
    """
    a_mat = geometry.as_matrix(dictionary, "dictionary")
    b_mat = geometry.as_matrix(candidate, "candidate")
    if codes.n_codes != codes_bar.n_codes:
        raise ValueError("code sets have different sample counts")
    if certificate.C1 is None or certificate.eps_max_dictionary is None:
        raise HypothesisError("certificate carries no stability constant")
    if certificate.r is None:
        raise HypothesisError("certificate lacks a regularity degree")

    residuals = np.linalg.norm(a_mat @ codes.codes - b_mat @ codes_bar.codes,
                               axis=0)
    worst = float(np.max(residuals))
    if worst > eps * (1.0 + 1e-12) + 1e-300:
        raise HypothesisError(
            f"sample residual {worst:.6g} exceeds the stated eps {eps:.6g}"
        )
    if eps >= certificate.eps_max_dictionary:
        raise ThresholdError(
            f"eps {eps:.6g} is not below the certified threshold "
            f"{certificate.eps_max_dictionary:.6g}"
        )

    c1 = certificate.C1
    r = certificate.r
    m, m_bar = a_mat.shape[1], b_mat.shape[1]
    alignment = align_dictionaries(a_mat, b_mat)
    bound5 = c1 * eps

    guaranteed = None
    if (r - 1) * m_bar < m * r:
        guaranteed = m_bar - r * (m_bar - m)
    if guaranteed is not None and guaranteed > 0:
        ranked = sorted(alignment.pi, key=lambda j: alignment.column_errors[j])
        if len(ranked) >= guaranteed:
            subset = tuple(sorted(ranked[:guaranteed]))
            max_err = max(alignment.column_errors[j] for j in subset)
            eq5_ok = max_err <= bound5 + tol
        else:
            subset = tuple(sorted(ranked))
            max_err = alignment.max_column_error
            eq5_ok = False
    else:
        subset = alignment.matched_source
        max_err = alignment.max_column_error
        eq5_ok = None

    report = TheoremReport(
        eps=eps,
        residuals=residuals,
        alignment=alignment,
        m=m,
        m_bar=m_bar,
        r=r,
        m_bar_ok=m_bar >= m,
        guaranteed_columns=guaranteed,
        matched_subset=subset,
        max_column_error=max_err,
        bound5=bound5,
        eq5_ok=eq5_ok,
        code_tier_active=bool(
            certificate.spark_ok
            and certificate.eps_max_codes is not None
            and eps < certificate.eps_max_codes
        ),
    )
    if not report.code_tier_active:
        return report

    l2k = certificate.L2k
    denominator = l2k - c1 * eps
    errors = code_alignment_error(codes.codes, codes_bar.codes, alignment, subset)
    bounds = (1.0 + c1 * codes.l1_norms()) * eps / denominator
    aligned = np.column_stack(
        [alignment.scales[j] * b_mat[:, alignment.pi[j] - 1] for j in subset])
    l2k_aligned = geometry.lower_bound_k(
        aligned, min(2 * certificate.k, aligned.shape[1]))

    report.code_errors = errors
    report.code_bounds = bounds
    report.eq6_ok = bool(np.all(errors <= bounds + tol))
    report.l2k_aligned = l2k_aligned
    report.l2k_floor = denominator
    report.l2k_ok = l2k_aligned >= denominator - tol
    return report
