"""Stability constants, recovery thresholds, sample-size formulas, and the
certificate that bundles them with the hypothesis checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, geometry
from .codes import (SCREEN_ROWS, SUBSET_WORK_CAP, _independent,
                    support_index_sets)
from .errors import CapExceededError, HypothesisError
from .hypergraph import has_sip, pairwise_unions, regularity

# Groups of r+1 edges are enumerated when maximizing xi.
DEFAULT_GROUP_CAP = 100_000
# Below this the code family is treated as failing general linear position.
C1_DENOM_TOL = 1e-12
# Exact SVDs that seed the C1 denominator's least value in a chunk that the
# screen leaves wide open.
_SEED_SUBSETS = 16


def compute_C2(dictionary, hypergraph, rank_tol=geometry.DEFAULT_RANK_TOL,
               group_cap=DEFAULT_GROUP_CAP):
    """Geometry-only stability constant of a dictionary over a regular hypergraph.

    (r + 1) times the largest column norm, divided by one minus the largest
    xi over all groups of r + 1 edge spans. Requires a regular hypergraph.
    The worst group has the smallest sine product P, and 1 - xi is taken as
    P / (1 + sqrt(1 - P)), which keeps its digits when xi is near 1, so
    nearly degenerate geometry gives a large constant; a zero denominator
    (P = 0) is refused as degenerate.
    """
    mat = geometry.as_matrix(dictionary, "dictionary")
    if hypergraph.m != mat.shape[1]:
        raise ValueError("hypergraph vertices must index dictionary columns")
    r = regularity(hypergraph)
    if r is None:
        raise HypothesisError("hypergraph is not regular")
    n_groups = math.comb(len(hypergraph.edges), r + 1)
    if n_groups > group_cap:
        raise CapExceededError(f"{n_groups} edge groups exceed cap {group_cap}")
    lowest = 1.0
    if n_groups:
        spans = [geometry.column_span(mat, e, rank_tol) for e in hypergraph.edges]
        best, = geometry._sine_products([spans], r + 1, rank_tol)
        # xi is non-increasing in the product: the worst group has the smallest
        lowest = min(best[frozenset(group)] for group in
                     itertools.combinations(range(len(spans)), r + 1))
    # 1 - sqrt(1 - P) without cancellation; P is clamped against overshoot
    lowest = min(lowest, 1.0)
    denominator = lowest / (1.0 + math.sqrt(1.0 - lowest))
    if denominator <= 0.0:
        raise HypothesisError(
            "edge-span geometry is degenerate (ordering aggregate reached 1)"
        )
    max_column = float(np.max(np.linalg.norm(mat, axis=0)))
    return (r + 1) * max_column / denominator


class _Support(NamedTuple):
    """One support's inputs to the screened code checks."""

    codes: np.ndarray      # m x N, the support's code columns
    smax: float            # largest singular value of ``codes``
    units: np.ndarray      # k x N, the support rows, unit columns
    norms: np.ndarray      # column norms of the support rows
    product: np.ndarray    # n x N, dictionary @ codes
    product_norms: np.ndarray
    weights: np.ndarray    # per column: code norm over product norm
    spectrum: np.ndarray   # k lower bounds on the singular values of A_S
    margin: float          # SVD and product rounding of A X_T, absolute


def _support(mat, codes, edge, ids):
    k = len(edge)
    rows = [v - 1 for v in edge]
    x = codes.codes[:, ids]
    units, norms = geometry.unit_columns(x[rows])
    product = mat @ x
    product_norms = geometry.unit_columns(product)[1]
    sv = np.zeros(k)
    found = np.linalg.svd(mat[:, rows], compute_uv=False)
    sv[:len(found)] = found
    slack = geometry.SCREEN_SLACK * sv[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = norms / product_norms
    return _Support(
        codes=x, smax=float(np.linalg.svd(x, compute_uv=False)[0]),
        units=units, norms=norms, product=product, product_norms=product_norms,
        weights=weights, spectrum=np.maximum(sv - slack, 0.0),
        margin=slack * math.sqrt(k) * float(np.max(norms)),
    )


def _lowest(support, subsets, hadamard, lowest):
    """The least of ``lowest`` and the smallest singular values of A X_T.

    vol(A_S X_T) = vol(A_S) |det X_T|, so the Hadamard ratio of A X_T is
    bounded below by that of X_T times prod_i spectrum[i] weights[T_i]. A
    subset whose resulting floor exceeds the running least by the support's
    margin cannot lower it. When more than _SEED_SUBSETS are left open, the
    exact SVDs of the lowest-floor ones come first, and the rest are
    screened again against the least they give.
    """
    with np.errstate(invalid="ignore"):
        scale = support.weights[subsets[:, 0]] * support.spectrum[0]
        for j in range(1, subsets.shape[1]):
            scale *= support.weights[subsets[:, j]] * support.spectrum[j]
        floor = geometry.sigma_floor(hadamard * scale, support.product_norms,
                                     subsets)

    def open_subsets(least):
        return ~((floor > least + support.margin) & (floor < math.inf))

    still_open = open_subsets(lowest)
    candidates = np.flatnonzero(still_open)
    if len(candidates) > _SEED_SUBSETS:
        seeds = candidates[np.argpartition(floor[candidates], _SEED_SUBSETS - 1)
                           [:_SEED_SUBSETS]]
        lowest = _exact_lowest(support, subsets[seeds], lowest)
        still_open[seeds] = False
        still_open &= open_subsets(lowest)
    if still_open.any():
        lowest = _exact_lowest(support, subsets[still_open], lowest)
    return lowest


def _exact_lowest(support, subsets, lowest):
    sv = _kernels.edge_min_singular_values(support.product, subsets)
    return min(lowest, float(np.min(sv)))


def _code_checks(mat, codes, hypergraph, index_sets, rank_tol):
    """(glp_ok, C1 denominator) from one screened k-subset stream per code count.

    On each edge S the k-subsets T of its codes serve both checks: X_T
    independent against the top singular value of X_S, and the restricted
    lower bound of A X_T. Supports with equal code counts share one stream
    of chunks, and per support the determinants of a chunk's blocks, taken
    over the whole chunk, bound both checks from below for every subset
    (``geometry.hadamard_floor``); only the subsets the bounds leave open
    get the exact SVD, so the results equal those of one SVD per subset. A
    support with fewer than k codes fails both; one with more than
    SUBSET_WORK_CAP k-subsets raises CapExceededError before any subset is
    checked.
    """
    k = hypergraph.k
    by_count = {}
    for edge in hypergraph.edges:
        count = len(index_sets[edge])
        if count < k:
            return False, 0.0
        by_count.setdefault(count, []).append(edge)
    for count in by_count:
        n_subsets = math.comb(count, k)
        if n_subsets > SUBSET_WORK_CAP:
            raise CapExceededError(f"{n_subsets} {k}-subsets of one support's codes "
                                   f"exceed cap {SUBSET_WORK_CAP}")
    glp_ok, lowest = True, math.inf
    for count, edges in by_count.items():
        supports = [_support(mat, codes, edge, index_sets[edge]) for edge in edges]
        for chunk in geometry.subset_chunks(count, k, SCREEN_ROWS):
            for support in supports:
                hadamard = geometry.hadamard_floor(support.units, chunk)
                glp_ok = glp_ok and _independent(
                    support.codes, chunk,
                    geometry.sigma_floor(hadamard, support.norms, chunk),
                    support.smax, rank_tol)
                lowest = _lowest(support, chunk, hadamard, lowest)
    return glp_ok, lowest / math.sqrt(k)


def _c1(c2, denominator):
    if denominator <= C1_DENOM_TOL:
        raise HypothesisError("per-support code bound vanished (fewer than k codes "
                              "on a support, or codes not in general linear position)")
    return c2 / denominator


def compute_C1(dictionary, codes, hypergraph, rank_tol=geometry.DEFAULT_RANK_TOL,
               group_cap=DEFAULT_GROUP_CAP):
    """Full stability constant: compute_C2 over the worst per-support code bound.

    The denominator is the minimum over edges S of the restricted lower bound
    (at the uniform edge size) of dictionary @ codes restricted to the codes
    supported in S. Every edge needs at least k codes; a denominator at or
    below 1e-12 is reported as a general-linear-position failure.
    """
    mat = geometry.as_matrix(dictionary, "dictionary")
    if hypergraph.k is None:
        raise HypothesisError("hypergraph must be uniform")
    c2 = compute_C2(mat, hypergraph, rank_tol, group_cap)
    index_sets = support_index_sets(codes, hypergraph)
    return _c1(c2, _code_checks(mat, codes, hypergraph, index_sets, rank_tol)[1])


def epsilon_for(delta1, delta2, c1, l2k, max_l1):
    """Residual threshold guaranteeing recovery within (delta1, delta2).

    min(delta1 / c1, delta2 * l2k / (1 + c1 * (delta2 + max_l1))); strictly
    positive whenever both deltas are.
    """
    if delta1 < 0 or delta2 < 0:
        raise ValueError("deltas must be nonnegative")
    if c1 <= 0 or l2k <= 0:
        raise ValueError("c1 and l2k must be positive")
    if max_l1 < 0:
        raise ValueError("max_l1 must be nonnegative")
    return min(delta1 / c1, delta2 * l2k / (1.0 + c1 * (delta2 + max_l1)))


def sample_size_cor1(m, k, hypergraph):
    """Sufficient total sample count: |H| * ((k-1) * C(m, k) + 1)."""
    if hypergraph.k != k:
        raise ValueError("hypergraph is not k-uniform for the given k")
    if hypergraph.m != m:
        raise ValueError("hypergraph vertex count differs from m")
    return len(hypergraph.edges) * ((k - 1) * math.comb(m, k) + 1)


class SampleRequirement(NamedTuple):
    per_support: int
    total: int


def sample_size_thm2(m_bar, k, hypergraph):
    """Per-support and total counts for the minimal-support-size formulation.

    Per support: (k-1) * (C(m_bar, k) + |H| * k * C(m_bar, k-1)) + 1.
    """
    if m_bar < 1 or k < 1:
        raise ValueError("m_bar and k must be positive")
    edges = len(hypergraph.edges)
    per_support = (k - 1) * (math.comb(m_bar, k) + edges * k * math.comb(m_bar, k - 1)) + 1
    return SampleRequirement(per_support, edges * per_support)


@dataclass
class StabilityCertificate:
    """Computed constants, thresholds, and hypothesis flags for an instance.

    ``eps_max_codes`` is present only when the spark condition holds; the
    code-recovery tier of the guarantee needs it. ``required_per_support`` is
    the per-edge code count the sufficient-sample bound asks for.
    """

    m: int
    n: int
    k: int
    m_bar: int | None
    r: int | None
    L2: float
    L2k: float
    L2H: float
    C2: float | None
    C1: float | None
    eps_max_dictionary: float | None
    eps_max_codes: float | None
    max_code_l1: float
    support_counts: dict
    required_per_support: int
    sip_ok: bool
    regular_ok: bool
    lower_bound_ok: bool
    glp_ok: bool
    spark_ok: bool
    counts_ok: bool

    @property
    def hypotheses_ok(self):
        """Dictionary-recovery hypotheses hold and ``C1`` was computed.

        A certificate without ``C1`` has no recovery threshold, so it is not
        ok even when every flag is. The spark flag only gates the code tier.
        """
        return (self.sip_ok and self.regular_ok and self.lower_bound_ok
                and self.glp_ok and self.counts_ok and self.C1 is not None)


def build_certificate(dictionary, codes, hypergraph,
                      rank_tol=geometry.DEFAULT_RANK_TOL, m_bar=None):
    """Run every hypothesis check and assemble the stability certificate.

    Never raises on failed hypotheses: flags record what failed and the
    constants that remain computable are still reported (C1/C2 are None when
    their own preconditions break). GLP and the C1 denominator share one
    exhaustive, screened k-subset stream per support code count.

    CapExceededError is raised only on size, never on a verdict, in four
    places: more than 1M column subsets for L2 or L2k (C(m, 2) or
    C(m, min(2k, m))), more than 1M edge pairs for L2H, a support whose
    codes have more than SUBSET_WORK_CAP (10M) k-subsets, and more than
    DEFAULT_GROUP_CAP (100,000) groups of r + 1 edges for C2. A rank_tol
    that is not positive and finite raises ValueError before any check runs.
    """
    geometry._check_rank_tol(rank_tol)
    mat = geometry.as_matrix(dictionary, "dictionary")
    n, m = mat.shape
    if hypergraph.m != m:
        raise ValueError("hypergraph vertices must index dictionary columns")
    if codes.m != m:
        raise ValueError("codes live in the wrong ambient dimension")
    if hypergraph.k is None:
        raise HypothesisError("hypergraph must be uniform")
    k = hypergraph.k

    r = regularity(hypergraph)
    sip_ok = has_sip(hypergraph)
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])

    l2 = geometry.lower_bound_k(mat, min(2, m))
    l2k = geometry.lower_bound_k(mat, min(2 * k, m))
    l2h = geometry.restricted_lower_bound(mat, pairwise_unions(hypergraph))
    lower_bound_ok = l2h > rank_tol * smax
    spark_ok = geometry.spark_from_bound(l2k, min(2 * k, m), smax, rank_tol)

    index_sets = support_index_sets(codes, hypergraph)
    support_counts = {edge: len(ids) for edge, ids in index_sets.items()}
    required = (k - 1) * math.comb(m, k) + 1
    counts_ok = all(count >= required for count in support_counts.values())
    glp_ok, denominator = _code_checks(mat, codes, hypergraph, index_sets, rank_tol)

    c2 = c1 = None
    try:
        c2 = compute_C2(mat, hypergraph, rank_tol)
        c1 = _c1(c2, denominator)
    except HypothesisError:
        pass

    eps_dict = l2 / c1 if c1 else None
    eps_codes = l2k / c1 if (c1 and spark_ok) else None
    max_l1 = float(np.max(codes.l1_norms())) if codes.n_codes else 0.0

    return StabilityCertificate(
        m=m, n=n, k=k, m_bar=m_bar, r=r,
        L2=l2, L2k=l2k, L2H=l2h,
        C2=c2, C1=c1,
        eps_max_dictionary=eps_dict,
        eps_max_codes=eps_codes,
        max_code_l1=max_l1,
        support_counts=support_counts,
        required_per_support=required,
        sip_ok=sip_ok,
        regular_ok=r is not None,
        lower_bound_ok=lower_bound_ok,
        glp_ok=glp_ok,
        spark_ok=spark_ok,
        counts_ok=counts_ok,
    )
