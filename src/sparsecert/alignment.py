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
costs and the code errors are each taken for all levels at once, with the
same BLAS calls per level as one level alone makes. Each distinct
candidate is matched once. Where each source has exactly one target at or
below the largest of the sources' cheapest costs, and no two sources share
it, that cost is the bottleneck threshold and those pairs are the
matching, read off the cost stack (``_targets``); only the other
candidates run the Kuhn search (``_match``). Eq. (5), the code tier and
the checks that can raise are array expressions over the levels, and the
sweep raises what the first failing level raises, in the order of
verify_theorem1's checks. ``verify_theorem1`` is its batch of one. The
sweep computes only what a noise-sweep record reads; the aligned
candidate's 2k-bound (the report's ``l2k_*`` fields) is taken by
``verify_theorem1`` alone, as ``geometry.lower_bound_k`` of its aligned
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .constants import _false_hypotheses
from .errors import HypothesisError, ThresholdError

# Absolute slack of every recovery check: eq. (5) and eq. (6) pass at
# achieved <= bound + BOUND_SLACK, and verify_theorem1's aligned 2k-bound at
# l2k_aligned >= floor - BOUND_SLACK. Read at call time.
BOUND_SLACK = 1e-9


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
    costs, scales, usable = (level[0] for level in _pair_costs(a_mat, b_mat[None]))
    target = _match(costs, usable)
    sources = range(len(target))
    return _alignment(target, scales[sources, target].tolist(),
                      costs[sources, target].tolist(), costs.shape[1])


def _match(costs, usable):
    """Each source's target (-1 where unmatched) in the alignment of one
    level's pair costs (``_pair_costs``), by Kuhn's search."""
    m = costs.shape[0]
    n_usable = int(np.sum(usable))
    if n_usable == 0:
        raise ValueError("candidate dictionary has no nonzero columns")
    n_match = min(m, n_usable)
    pi, _ = _lexicographic(*_bottleneck(costs, n_match), n_match)
    return [pi.get(j, -1) for j in range(m)]


def _alignment(target, scales, errors, m_bar):
    """The AlignmentResult of per-source lists: each source's 0-based target
    (-1 where unmatched), and the scale and cost of its pair."""
    matched = [j for j, l in enumerate(target) if l >= 0]
    column_errors = {j + 1: errors[j] for j in matched}
    return AlignmentResult(
        pi={j + 1: target[j] + 1 for j in matched},
        scales={j + 1: scales[j] for j in matched},
        column_errors=column_errors,
        max_column_error=max(column_errors.values()),
        unmatched_source=tuple(j + 1 for j, l in enumerate(target) if l < 0),
        unmatched_target=tuple(l + 1 for l in range(m_bar) if l not in target),
    )


def _targets(costs, usable):
    """Each source's target (-1 where unmatched) in the alignment of every
    candidate of an (S, m, m_bar) cost stack, as an (S, m) array, and the
    (index, ValueError) of the first candidate whose matching fails, or None;
    the candidates after a failure are left unmatched.

    A candidate is simple when each source has exactly one target at or
    below theta, the largest of the sources' cheapest costs, and no two
    sources share it (theta finite). Every matching of all m sources holds a
    pair of cost theta or more, and those one-per-source pairs are such a
    matching: so theta is the bottleneck threshold, the pairs at or below it
    are exactly these, and the lexicographic extraction takes them all. A
    simple candidate's targets are thus its row argmins; only the others run
    Kuhn's search (``_match``).
    """
    count, m, m_bar = costs.shape
    target = np.full((count, m), -1, dtype=np.intp)
    simple = np.zeros(count, dtype=bool)
    if m_bar >= m:
        theta = costs.min(axis=2).max(axis=1)
        below = costs <= theta[:, None, None]
        simple = (np.isfinite(theta) & (below.sum(axis=2) == 1).all(axis=1)
                  & (below.sum(axis=1) <= 1).all(axis=1))
        target[simple] = costs[simple].argmin(axis=2)
    for index in np.flatnonzero(~simple).tolist():
        try:
            target[index] = _match(costs[index], usable[index])
        except ValueError as exc:
            target[index:] = -1
            return target, (index, exc)
    return target, None


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


class _Sweep(NamedTuple):
    """The outcome of ``_verify_sweep``, one row per level.

    Sources are 0-based dictionary columns. ``target`` holds each source's
    matched target (-1 where unmatched), ``scales`` and ``errors`` the scale
    and cost of its pair (0.0 and inf where unmatched), and ``subset`` marks
    the matched subset, whose largest error is ``max_col_err``. ``eq5`` is
    None when Lemma 4 guarantees no subset, which depends on m, m_bar and r
    alone (``guaranteed``). Where ``code_tier`` is False the rows of
    ``code_errors`` and ``code_bounds`` are NaN and ``eq6`` is False.
    """

    residuals: np.ndarray
    target: np.ndarray
    scales: np.ndarray
    errors: np.ndarray
    guaranteed: int | None
    subset: np.ndarray
    max_col_err: np.ndarray
    bound5: np.ndarray
    eq5: np.ndarray | None
    code_tier: np.ndarray
    code_errors: np.ndarray
    code_bounds: np.ndarray
    eq6: np.ndarray


def verify_theorem1(dictionary, codes, candidate, codes_bar, certificate, eps):
    """Check the dictionary- and code-recovery inequalities at residual level eps.

    Raises HypothesisError when some sample violates ||A x_i - B xbar_i|| <= eps,
    and when the certificate has no threshold (naming the hypothesis flags
    that withhold it), and ThresholdError when eps is not strictly below the
    certified dictionary threshold (no guarantee exists there, so the check
    refuses to run). A non-finite eps raises ValueError. Each inequality is
    decided up to the absolute slack BOUND_SLACK. The batch of one of
    ``_verify_sweep``; in the code tier it adds the ``l2k_*`` fields, the
    restricted lower bound of the aligned columns over their
    min(2k, width)-subsets (``geometry.lower_bound_k``) against the floor
    L2k - C1 * eps.
    """
    a_mat = geometry.as_matrix(dictionary, "dictionary")
    b_mat = geometry.as_matrix(candidate, "candidate")
    if codes.n_codes != codes_bar.n_codes:
        raise ValueError("code sets have different sample counts")
    sweep = _verify_sweep(a_mat, codes, b_mat[None], codes_bar.codes[None],
                          certificate, [eps])
    report = _report(sweep, 0, eps, certificate, a_mat.shape[1], b_mat.shape[1])
    if report.code_tier_active:
        aligned = _aligned_columns(b_mat, report.alignment, report.matched_subset)
        report.l2k_aligned = geometry.lower_bound_k(
            aligned, min(2 * certificate.k, aligned.shape[1]))
        report.l2k_floor = certificate.L2k - certificate.C1 * eps
        report.l2k_ok = report.l2k_aligned >= report.l2k_floor - BOUND_SLACK
    return report


def _report(sweep, level, eps, certificate, m, m_bar):
    """The TheoremReport of one level of a sweep, at residual level ``eps``
    and without the ``l2k_*`` fields."""
    code_tier = bool(sweep.code_tier[level])
    return TheoremReport(
        eps=eps,
        residuals=sweep.residuals[level],
        alignment=_alignment(sweep.target[level].tolist(), sweep.scales[level].tolist(),
                             sweep.errors[level].tolist(), m_bar),
        m=m,
        m_bar=m_bar,
        r=certificate.r,
        m_bar_ok=m_bar >= m,
        guaranteed_columns=sweep.guaranteed,
        matched_subset=tuple((np.flatnonzero(sweep.subset[level]) + 1).tolist()),
        max_column_error=float(sweep.max_col_err[level]),
        bound5=float(sweep.bound5[level]),
        eq5_ok=None if sweep.eq5 is None else bool(sweep.eq5[level]),
        code_tier_active=code_tier,
        code_errors=sweep.code_errors[level] if code_tier else None,
        code_bounds=sweep.code_bounds[level] if code_tier else None,
        eq6_ok=bool(sweep.eq6[level]) if code_tier else None,
    )


def _aligned_columns(candidate, alignment, subset):
    """The candidate's columns matched to ``subset``, each times its scale."""
    columns = [alignment.pi[j] - 1 for j in subset]
    return candidate[:, columns] * np.array([alignment.scales[j] for j in subset])


def _residual_norms(a_mat, x, candidates, xbars):
    """(L, N) norms ||A x_i - B xbar_i|| at every level of the candidate and
    code stacks (a stack of one serves every level); each level's matmul is
    the one its pair alone would run."""
    return np.linalg.norm(a_mat @ x - candidates @ xbars, axis=1)


def _no_threshold(certificate):
    """Why a certificate without ``C1`` or ``eps_max_dictionary`` has no
    threshold: the dictionary-hypothesis flags that read false, if any."""
    failed = _false_hypotheses(certificate)
    if not failed:
        return "certificate carries no stability constant"
    return f"certificate withholds its thresholds: {', '.join(failed)} false"


def _admitted(a_mat, codes, candidates, xbars, certificate, eps, residuals):
    """The checks that come before each level's matching, level by level in
    verify_theorem1's order: (stop, error, residuals), with ``stop`` the
    first level that fails one and ``error`` what it raises (len(eps) and
    None when every level passes). The residual norms are taken when the
    first level reaches their check, unless the caller has them."""
    finite = np.isfinite(candidates).all(axis=(1, 2)).tolist()
    worsts = None
    for level, level_eps in enumerate(eps):
        if not finite[level if len(finite) > 1 else 0]:
            return level, ValueError("candidate has non-finite entries"), residuals
        if not math.isfinite(level_eps):
            return level, ValueError(f"eps must be finite, got {level_eps!r}"), residuals
        if certificate.C1 is None or certificate.eps_max_dictionary is None:
            return level, HypothesisError(_no_threshold(certificate)), residuals
        if certificate.r is None:
            return (level, HypothesisError("certificate lacks a regularity degree"),
                    residuals)
        if worsts is None:
            if residuals is None:
                residuals = _residual_norms(a_mat, codes.codes, candidates, xbars)
            worsts = np.max(residuals, axis=1).tolist()
        worst = worsts[level]
        if worst > level_eps * (1.0 + 1e-12) + 1e-300:
            return level, HypothesisError(
                f"sample residual {worst:.6g} exceeds the stated eps {level_eps:.6g}"
            ), residuals
        if level_eps >= certificate.eps_max_dictionary:
            return level, ThresholdError(
                f"eps {level_eps:.6g} is not below the certified threshold "
                f"{certificate.eps_max_dictionary:.6g}"
            ), residuals
    return len(eps), None, residuals


def _verify_sweep(a_mat, codes, candidates, xbars, certificate, eps,
                  residuals=None):
    """What ``verify_theorem1`` finds at every level of a sweep (``_Sweep``).

    Level i checks the candidate ``candidates[i]`` (an (L, n, m_bar) stack)
    with the code matrix ``xbars[i]`` (an (L, m_bar, N) stack) at residual
    level ``eps[i]``; a stack of one serves every level. ``residuals`` are
    the (L, N) residual norms when the caller has them. The sweep raises
    what verify_theorem1 raises at the first level that fails, in its
    order: the checks before the matching (``_admitted``), the matching,
    then the code tier's zero scales and non-finite aligned columns. The
    pair costs come from one stacked pass, each distinct candidate is
    matched once (``_targets``), and eq. (5) and the code tier are array
    expressions over the levels, with the code errors from one gather per
    subset size. The sweep makes no LAPACK call; the aligned 2k-bound is
    ``verify_theorem1``'s.
    """
    stop, error, residuals = _admitted(a_mat, codes, candidates, xbars,
                                       certificate, eps, residuals)
    if stop == 0:
        raise error
    costs, scales, usable = _pair_costs(a_mat, candidates)
    one = len(candidates) == 1
    target, failed = _targets(costs[:1 if one else stop], usable[:1 if one else stop])
    if failed is not None:
        # the failing candidate's first level is its index
        stop, error = failed
    rows = np.zeros(stop, dtype=np.intp) if one else np.arange(stop)
    m, m_bar = a_mat.shape[1], candidates.shape[2]
    target = target[rows]
    pairs = (rows[:, None], np.arange(m), target)
    matched = target >= 0
    errors = np.where(matched, costs[pairs], math.inf)
    scales = np.where(matched, scales[pairs], 0.0)

    # eq. (5) over the Lemma-4 subset: the best-scoring sources, where each
    # source's place is that of a stable sort on the errors (the unmatched
    # last): the sources with a smaller error, or an equal one and a lower
    # index, go before it
    c1, r = certificate.C1, certificate.r
    level_eps = np.array(eps[:stop], dtype=float)
    guaranteed = m_bar - r * (m_bar - m) if (r - 1) * m_bar < m * r else None
    decided = guaranteed is not None and guaranteed > 0
    n_matched = matched.sum(axis=1)
    size = np.minimum(n_matched, guaranteed) if decided else n_matched
    ahead, behind = errors[:, None, :], errors[:, :, None]
    earlier = np.arange(m) < np.arange(m)[:, None]
    place = ((ahead < behind) | ((ahead == behind) & earlier)).sum(axis=2)
    subset = place < size[:, None]
    max_col_err = np.where(subset, errors, -math.inf).max(axis=1)
    bound5 = c1 * level_eps
    eq5 = None
    if decided:
        eq5 = (n_matched >= guaranteed) & (max_col_err <= bound5 + BOUND_SLACK)

    code_tier = np.zeros(stop, dtype=bool)
    if certificate.spark_ok and certificate.eps_max_codes is not None:
        code_tier = level_eps < certificate.eps_max_codes
    # what the code tier can raise, level by level: a zero scale, then a
    # non-finite aligned column (an overflow there is taken again below, so
    # that it warns as verify_theorem1's product does)
    checked = subset & code_tier[:, None]
    zero = checked & (scales == 0.0)
    factors = np.where(checked, scales, 0.0)[..., None]
    with np.errstate(over="ignore"):
        aligned = candidates[rows[:, None], :, target] * factors
    broken = zero.any(axis=1) | ~np.isfinite(aligned).all(axis=(1, 2))
    if broken.any():
        stop = int(broken.argmax())
        if zero[stop].any():
            error = ValueError(f"matched column {int(zero[stop].argmax()) + 1} "
                               "has zero scale")
        else:
            columns = checked[stop]
            candidates[rows[stop]][:, target[stop, columns]] * scales[stop, columns]
            error = ValueError("dictionary has non-finite entries")
    if error is not None:
        raise error
    return _Sweep(residuals, target, scales, errors, guaranteed, subset, max_col_err,
                  bound5, eq5, code_tier,
                  *_code_tier(codes, xbars, certificate, level_eps, code_tier, subset,
                              target, scales))


def _code_tier(codes, xbars, certificate, eps, code_tier, subset, target, scales):
    """Eq. (6) at every code-tier level: (code errors, code bounds, eq6),
    NaN rows and False where ``code_tier`` is off.

    The levels are grouped by the size of their matched subset (one group
    unless some candidate has zero columns), and per group the code errors
    come from one gather (``_l1_errors``) over the subsets in increasing
    order.
    """
    errors = np.full((len(eps), codes.n_codes), math.nan)
    bounds = errors.copy()
    eq6 = np.zeros(len(eps), dtype=bool)
    active = np.flatnonzero(code_tier)
    if not active.size:
        return errors, bounds, eq6
    c1, l2k = certificate.C1, certificate.L2k
    weights = 1.0 + c1 * codes.l1_norms()
    sizes = subset.sum(axis=1)
    for size in set(sizes[active].tolist()):
        levels = active[sizes[active] == size]
        source = np.nonzero(subset[levels])[1].reshape(len(levels), size)
        rows = levels if len(xbars) > 1 else np.zeros_like(levels)
        picked = (levels[:, None], source)
        errors[levels] = _l1_errors(codes.codes, xbars, rows, source, target[picked],
                                    scales[picked])
        bounds[levels] = (weights * eps[levels, None]
                          / (l2k - c1 * eps[levels])[:, None])
    eq6[active] = (errors[active] <= bounds[active] + BOUND_SLACK).all(axis=1)
    return errors, bounds, eq6
