"""Stability constants, recovery thresholds, sample-size formulas, and the
certificate that bundles them with the hypothesis checks.

The checks of the codes' k-subsets, general linear position and the C1
denominator, come from the one screen in ``codes._code_checks``; ``C1`` is
a field of the certificate, never computed on its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .codes import _code_checks, support_index_sets
from .errors import CapExceededError, HypothesisError
from .hypergraph import has_sip, pairwise_unions, regularity

# Groups of r+1 edges are enumerated when maximizing xi.
DEFAULT_GROUP_CAP = 100_000


def compute_C2(dictionary, hypergraph, rank_tol=geometry.DEFAULT_RANK_TOL,
               group_cap=DEFAULT_GROUP_CAP):
    """Geometry-only stability constant of a dictionary over a regular hypergraph.

    (r + 1) times the largest column norm, divided by one minus the largest
    xi over all groups of r + 1 edge spans. Requires a regular hypergraph.
    The worst group has the smallest sine product P, and 1 - xi is taken as
    P / (1 + sqrt(1 - P)), which keeps its digits when xi is near 1, so
    nearly degenerate geometry gives a large constant; a zero denominator
    (P = 0) is refused as degenerate. The column norms are taken after an
    exact power-of-two scaling of each column, so they do not overflow.
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
        geometry._check_rank_tol(rank_tol)
        # column_span of every edge, from stacked SVDs
        spans = geometry._bases([mat[:, [v - 1 for v in e]] for e in hypergraph.edges],
                                rank_tol)
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
    # the norms of columns scaled by exact powers of two, which cannot overflow
    shifts = np.frexp(np.max(np.abs(mat), axis=0))[1]
    norms = np.ldexp(np.linalg.norm(np.ldexp(mat, -shifts), axis=0), shifts)
    max_column = float(np.max(norms))
    return (r + 1) * max_column / denominator


def _c1(c2, glp_ok, denominator):
    """C2 over the code bound, refused when the bound vanished or C1 overflows.

    The bound is the least, over edges S, of the restricted lower bound (at
    the uniform edge size) of dictionary @ codes restricted to the codes
    supported in S. The codes' general linear position, judged relative to
    each support's own top singular value, decides whether the bound is
    degenerate; no absolute cut applies, so C1 is unchanged when the
    dictionary is scaled and scales as 1/s when the codes are.
    """
    if not (glp_ok and denominator > 0.0):
        raise HypothesisError("per-support code bound vanished (fewer than k codes "
                              "on a support, or codes not in general linear position)")
    c1 = c2 / denominator
    if c1 == math.inf:
        raise HypothesisError("C1 overflows the floating-point range")
    return c1


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
    exhaustive, screened k-subset stream per support code count
    (``codes._code_checks``).

    CapExceededError is raised only on size, never on a verdict, in four
    places: more than 1M column subsets for L2 or L2k (C(m, 2) or
    C(m, min(2k, m))), more than 1M edge pairs for L2H, a support whose
    codes have more than codes.SUBSET_WORK_CAP (10M) k-subsets, and more than
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
        c1 = _c1(c2, glp_ok, denominator)
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
