"""Resolve the permutation/scaling ambiguity between two dictionaries and
evaluate the recovery inequalities against a certificate.

Matching minimizes the worst per-column error over injective column maps,
with the per-pair scale chosen by least squares. The min-max assignment is
solved exactly by thresholding with a bipartite-matching oracle (Kuhn's
augmenting paths). The pairs enter one matching in increasing cost until it
is large enough; that cost is the threshold. A deterministic lexicographic
extraction (lowest source index first, then lowest target index) then runs
on the pairs at or below the threshold, carrying that one matching along:
a candidate pair needs at most one augmenting path to decide, never a fresh
matching.

The recovery inequalities are checked by one sweep verifier,
``_verify_sweep``, over all levels of a noise sweep: candidates and
candidate codes come as stacks with a leading level axis, and the pair
costs, the code errors and the aligned 2k-bound are each taken for all
levels at once, with the same BLAS and LAPACK calls per level as one level
alone makes. The matching and the checks that can raise run level by level,
in order. ``verify_theorem1`` and ``align_dictionaries`` are its batches of
one.
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


def _pair_costs(a_mat, b_mats):
    """Cost and optimal scale for every (source, target) column pair, at
    every level of the (L, n, m_bar) stack of candidates ``b_mats``.

    The scale is the least-squares coefficient <A_j, B_l> / ||B_l||^2 and the
    cost its explicit residual norm. Numerator and denominator go through the
    same dot-product routine, so identical columns get scale exactly 1.0 and
    cost exactly 0.0. Zero target columns are unmatchable. Returns (L, m,
    m_bar) costs and scales and an (L, m_bar) mask of usable targets.

    Every column is first scaled by the power of two that brings its peak
    into [0.5, 1), so no square overflows or underflows; the costs and scales
    are scaled back by the matching powers of two. Both steps are exact, so
    where the unscaled arithmetic stays in the normal range the results are
    the same bits. The dot products run as stacked (1, n) @ (n, 1) matmuls,
    which call the same ``ddot`` as one ``np.dot`` per pair with the same
    increments: column views of the scaled copies, which keep the inputs'
    memory layout, and contiguous residual rows. A broadcast sum would add
    in another order. The level axis only adds outer loops around the same
    calls, so each level's values are those of its candidate alone.
    """
    a_exp = np.frexp(np.max(np.abs(a_mat), axis=0))[1]
    b_exp = np.frexp(np.max(np.abs(b_mats), axis=1))[1]
    a_cols = np.ldexp(a_mat, -a_exp).T
    b_cols = np.swapaxes(np.ldexp(b_mats, -b_exp[:, None, :]), 1, 2)
    b_sq = (b_cols[..., None, :] @ b_cols[..., :, None])[..., 0, 0]
    usable = b_sq > 0.0
    numerators = (a_cols[:, None, None, :] @ b_cols[:, None, :, :, None])[..., 0, 0]
    scales = np.divide(numerators, b_sq[:, None, :], out=np.zeros_like(numerators),
                       where=usable[:, None, :])
    residuals = np.subtract(a_cols[:, None, :], scales[..., None] * b_cols[:, None],
                            order="C")
    norms = np.sqrt((residuals[..., None, :] @ residuals[..., :, None])[..., 0, 0])
    with np.errstate(over="ignore"):  # beyond the largest float is inf
        costs = np.where(usable[:, None, :], np.ldexp(norms, a_exp[:, None]), math.inf)
        scales = np.ldexp(scales, a_exp[:, None] - b_exp[:, None, :])
    return costs, scales, usable


def _augment(adjacency, col_of, row_of, rows, blocked=()):
    """Grow a matching by one augmenting path from a free row in ``rows``.

    Kuhn's search: a free row claims a free column, or one whose row can be
    moved on along another augmenting path. ``col_of``/``row_of`` hold the
    matching (-1 for free) and are updated in place; columns in ``blocked``
    are never entered. The rows share one visited set: a column that a failed
    search reached leads to no free column from any row, so the pass finds an
    augmenting path whenever one exists. Returns whether one was found.
    """
    seen = set(blocked)

    def visit(row):
        for col in adjacency[row]:
            if col not in seen:
                seen.add(col)
                if row_of[col] < 0 or visit(row_of[col]):
                    col_of[row], row_of[col] = col, row
                    return True
        return False

    return any(col_of[row] < 0 and visit(row) for row in rows)


def _bottleneck(costs, n_match):
    """The pairs at or below the bottleneck threshold, and a matching of
    ``n_match`` of them.

    The threshold is the smallest cost at which the pairs of that cost or
    less hold a matching of ``n_match`` pairs. The pairs enter in increasing
    cost, and each one that can grow the matching does, so the matching is
    maximum among the pairs in so far and reaches ``n_match`` pairs at the
    threshold. Returns (adjacency, col_of, row_of): each row's columns at or
    below the threshold in increasing order, and the matching as
    row -> column and column -> row lists (-1 for free).
    """
    m, m_bar = costs.shape
    order = np.argsort(costs, axis=None).tolist()
    flat = costs.ravel().tolist()
    adjacency = [[] for _ in range(m)]
    col_of, row_of = [-1] * m, [-1] * m_bar
    size = 0
    for position, index in enumerate(order):
        cost = flat[index]
        if not math.isfinite(cost):
            break
        j, l = divmod(index, m_bar)
        adjacency[j].append(l)
        if col_of[j] < 0 and row_of[l] < 0:
            col_of[j], row_of[l] = l, j
        elif not _augment(adjacency, col_of, row_of, range(m)):
            continue
        size += 1
        if size == n_match:
            for later in order[position + 1:]:
                if flat[later] != cost:
                    break
                adjacency[later // m_bar].append(later % m_bar)
            for row in adjacency:
                row.sort()
            return adjacency, col_of, row_of
    raise ValueError(f"no {n_match} column pairs with finite alignment costs "
                     "form a matching")


def _lexicographic(adjacency, col_of, row_of, n_match):
    """The lexicographically first matching of ``n_match`` pairs: each source
    in turn takes the lowest target that leaves the later sources a matching
    of the pairs still needed (a source that fits none stays unmatched).

    ``col_of``/``row_of`` start as a matching of ``n_match`` pairs and stay
    one of as many pairs as are still needed, in the graph that is left (no
    more fit there). Giving source j the target l drops the pairs at j and
    at l; when these are two pairs, one augmenting path among the later
    sources decides whether target l still leaves a completion.
    """
    pi, used = {}, set()
    for j in range(len(adjacency)):
        if len(pi) == n_match:
            break
        for l in adjacency[j]:
            if l in used:
                continue
            own, holder = col_of[j], row_of[l]
            trial_col, trial_row = col_of[:], row_of[:]
            if own >= 0:
                trial_row[own] = -1
            if holder >= 0:
                trial_col[holder] = -1
            trial_col[j] = trial_row[l] = -1
            if own >= 0 and own != l and holder >= 0 and not _augment(
                    adjacency, trial_col, trial_row,
                    range(j + 1, len(adjacency)), used | {l}):
                continue
            col_of, row_of = trial_col, trial_row
            pi[j] = l
            used.add(l)
            break
    return pi, used


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
    return _match(*(level[0] for level in _pair_costs(a_mat, b_mat[None])))


def _match(costs, scales, usable):
    """The alignment of one level's pair costs and scales (``_pair_costs``)."""
    m, m_bar = costs.shape
    n_usable = int(np.sum(usable))
    if n_usable == 0:
        raise ValueError("candidate dictionary has no nonzero columns")
    n_match = min(m, n_usable)
    pi, used = _lexicographic(*_bottleneck(costs, n_match), n_match)
    column_errors = {j + 1: float(costs[j, l]) for j, l in pi.items()}
    return AlignmentResult(
        pi={j + 1: l + 1 for j, l in pi.items()},
        scales={j + 1: float(scales[j, l]) for j, l in pi.items()},
        column_errors=column_errors,
        max_column_error=max(column_errors.values()),
        unmatched_source=tuple(j + 1 for j in range(m) if j not in pi),
        unmatched_target=tuple(l + 1 for l in range(m_bar) if l not in used),
    )


def code_alignment_error(x, xbar, alignment, subset=None):
    """l1 distance between codes and the back-transformed candidate codes.

    Sums |x_j - xbar_pi(j) / c_j| over the matched source columns (or the
    given 1-based subset of them), in increasing j. ``x`` and ``xbar`` are
    one code each, shape (m,), giving a float, or N codes as columns, shape
    (m, N), giving an (N,) array. Every column summed must be matched, and
    zero scales cannot be inverted.
    """
    x = np.asarray(x, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    columns = sorted(alignment.pi) if subset is None else sorted(subset)
    unmatched = [j for j in columns if j not in alignment.pi]
    if unmatched:
        raise ValueError(f"column {unmatched[0]} is not matched")
    scales = np.array([alignment.scales[j] for j in columns], dtype=float)
    zero = np.flatnonzero(scales == 0.0)
    if zero.size:
        raise ValueError(f"matched column {columns[zero[0]]} has zero scale")
    source = np.array([[j - 1 for j in columns]], dtype=np.intp)
    target = np.array([[alignment.pi[j] - 1 for j in columns]], dtype=np.intp)
    single = x.ndim == 1
    if single:
        x, xbar = x[:, None], xbar[:, None]
    total = _l1_errors(x, xbar[None], np.zeros(1, dtype=np.intp), source, target,
                       scales[None])[0]
    return float(total[0]) if single else total


def _l1_errors(x, xbars, levels, source, target, scales):
    """Row t: the l1 distances, one per code, between ``x`` and the code
    matrix ``xbars[levels[t]]`` back-transformed through the (T, s) source
    rows, target rows and scales of row t, from one gather.

    The terms are summed row by row, so every sum runs in increasing j for
    every N (numpy would sum a contiguous axis pairwise).
    """
    terms = np.abs(x[source] - xbars[levels[:, None], target] / scales[..., None])
    total = np.zeros((terms.shape[0], terms.shape[2]))
    for j in range(terms.shape[1]):
        total += terms[:, j]
    return total


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


def verify_theorem1(dictionary, codes, candidate, codes_bar, certificate, eps,
                    tol=1e-9):
    """Check the dictionary- and code-recovery inequalities at residual level eps.

    Raises HypothesisError when some sample violates ||A x_i - B xbar_i|| <= eps
    and ThresholdError when eps is not strictly below the certified dictionary
    threshold (no guarantee exists there, so the check refuses to run). A
    non-finite eps raises ValueError. The batch of one of ``_verify_sweep``.
    """
    a_mat = geometry.as_matrix(dictionary, "dictionary")
    b_mat = geometry.as_matrix(candidate, "candidate")
    if codes.n_codes != codes_bar.n_codes:
        raise ValueError("code sets have different sample counts")
    return _verify_sweep(a_mat, codes, b_mat[None], codes_bar.codes[None],
                         certificate, [eps], tol=tol)[0]


def _residual_norms(a_mat, x, candidates, xbars):
    """(L, N) norms ||A x_i - B xbar_i|| at every level of the candidate and
    code stacks (a stack of one serves every level); each level's matmul is
    the one its pair alone would run."""
    return np.linalg.norm(a_mat @ x - candidates @ xbars, axis=1)


def _verify_sweep(a_mat, codes, candidates, xbars, certificate, eps,
                  residuals=None, tol=1e-9):
    """The TheoremReport of ``verify_theorem1`` at every level of a sweep.

    Level i checks the candidate ``candidates[i]`` (an (L, n, m_bar) stack)
    with the code matrix ``xbars[i]`` (an (L, m_bar, N) stack) at residual
    level ``eps[i]``; a stack of one serves every level. ``residuals`` are
    the (L, N) residual norms when the caller has them. The levels are
    checked in order, and a level raises what verify_theorem1 would raise
    for it before any later level is checked. The pair costs come from one
    stacked pass, the matching runs per distinct candidate, and the code
    errors and the aligned 2k-bound of all code-tier levels are taken at the
    end, in one gather and one stacked SVD per subset size.
    """
    finite = np.isfinite(candidates).all(axis=(1, 2))
    costs = worsts = None
    alignments, aligned, tables = {}, {}, {}
    reports, sources = [], []
    for level, level_eps in enumerate(eps):
        source = level if len(candidates) > 1 else 0
        sources.append(source)
        if not finite[source]:
            raise ValueError("candidate has non-finite entries")
        if not math.isfinite(level_eps):
            raise ValueError(f"eps must be finite, got {level_eps!r}")
        if certificate.C1 is None or certificate.eps_max_dictionary is None:
            raise HypothesisError("certificate carries no stability constant")
        if certificate.r is None:
            raise HypothesisError("certificate lacks a regularity degree")
        if worsts is None:
            if residuals is None:
                residuals = _residual_norms(a_mat, codes.codes, candidates, xbars)
            worsts = np.max(residuals, axis=1).tolist()
        worst = worsts[level]
        if worst > level_eps * (1.0 + 1e-12) + 1e-300:
            raise HypothesisError(
                f"sample residual {worst:.6g} exceeds the stated eps {level_eps:.6g}"
            )
        if level_eps >= certificate.eps_max_dictionary:
            raise ThresholdError(
                f"eps {level_eps:.6g} is not below the certified threshold "
                f"{certificate.eps_max_dictionary:.6g}"
            )
        if costs is None:
            costs, scales, usable = _pair_costs(a_mat, candidates)
        if source not in alignments:
            alignments[source] = _match(costs[source], scales[source], usable[source])
        report = _dictionary_tier(alignments[source], a_mat.shape[1],
                                  candidates.shape[2], certificate, level_eps,
                                  residuals[level], tol)
        reports.append(report)
        if not report.code_tier_active:
            continue
        # what the code tier of this level can raise, in verify_theorem1's order
        alignment, subset = report.alignment, report.matched_subset
        zero = [j for j in subset if alignment.scales[j] == 0.0]
        if zero:
            raise ValueError(f"matched column {zero[0]} has zero scale")
        if source not in aligned:
            columns = [alignment.pi[j] - 1 for j in subset]
            matrix = candidates[source][:, columns] * np.array(
                [alignment.scales[j] for j in subset])
            if not np.all(np.isfinite(matrix)):
                raise ValueError("dictionary has non-finite entries")
            aligned[source] = matrix
        width = len(subset)
        if width not in tables:
            tables[width] = geometry._column_table([geometry.k_subsets(
                width, min(2 * certificate.k, width)).tolist()])
    _code_tier(codes, xbars, certificate, eps, reports, sources, aligned, tables, tol)
    return reports


def _dictionary_tier(alignment, m, m_bar, certificate, eps, residuals, tol):
    """One level's report with eq. (5) decided and the code tier not yet run."""
    c1 = certificate.C1
    r = certificate.r
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

    return TheoremReport(
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


def _code_tier(codes, xbars, certificate, eps, reports, sources, aligned, tables, tol):
    """Fill in eq. (6) and the aligned 2k-bound of every code-tier report.

    Level i's candidate is ``sources[i]``, and ``aligned`` maps each
    candidate of a code-tier level to its aligned columns. The levels are
    grouped by the size of their matched subset (one group unless some
    candidate has zero columns). Per group, the code errors come from one
    gather (``_l1_errors``), and the restricted lower bounds of the aligned
    candidates from one stacked SVD over their 2k-subsets, the ``tables``
    of ``geometry._column_table`` by width (``geometry._table_bounds``),
    each value as ``geometry.lower_bound_k`` of that candidate alone gives
    it.
    """
    groups = {}
    for level, report in enumerate(reports):
        if report.code_tier_active:
            groups.setdefault(len(report.matched_subset), []).append(level)
    if not groups:
        return
    c1, l2k = certificate.C1, certificate.L2k
    weights = 1.0 + c1 * codes.l1_norms()
    for width, levels in groups.items():
        group = [reports[level] for level in levels]
        source = np.array([[j - 1 for j in r.matched_subset] for r in group],
                          dtype=np.intp)
        target = np.array([[r.alignment.pi[j] - 1 for j in r.matched_subset]
                           for r in group], dtype=np.intp)
        scales = np.array([[r.alignment.scales[j] for j in r.matched_subset]
                           for r in group])
        rows = np.array(levels if len(xbars) > 1 else [0] * len(levels), dtype=np.intp)
        errors = _l1_errors(codes.codes, xbars, rows, source, target, scales)
        denominators = [l2k - c1 * eps[level] for level in levels]
        bounds = (weights * np.array([eps[level] for level in levels], dtype=float)[:, None]
                  / np.array(denominators)[:, None])
        eq6 = np.all(errors <= bounds + tol, axis=1).tolist()
        candidates = list(dict.fromkeys(sources[level] for level in levels))
        lower = dict(zip(candidates, geometry._table_bounds(
            np.stack([aligned[c] for c in candidates]), tables[width])[0]))
        for row, (level, report) in enumerate(zip(levels, group)):
            report.code_errors = errors[row]
            report.code_bounds = bounds[row]
            report.eq6_ok = eq6[row]
            report.l2k_aligned = lower[sources[level]]
            report.l2k_floor = denominators[row]
            report.l2k_ok = report.l2k_aligned >= denominators[row] - tol
