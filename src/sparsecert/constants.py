"""Stability constants, recovery thresholds, the Corollary-1 sample count, and
the certificate that bundles them with the hypothesis checks.

The checks of the codes' k-subsets, general linear position and the C1
denominator, come from the one screen in ``codes._code_checks``; ``C1`` is
a field of the certificate, never computed on its own. ``C2`` runs the xi
subset DP over the edge spans with every factor read from one table of
Friedrichs sines over (edge, edge intersection) pairs (``compute_C2``).
``L2``, ``L2k`` and ``L2H`` are read from one ``geometry._column_table``
per hypergraph (``_bound_plan``): the column pairs, the min(2k, m)-sets and
the pairwise unions of the edges, each distinct set factored once per
certificate. Both plans hold read-only index arrays only and are cached per
hypergraph, so equal hypergraphs share them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .codes import _code_checks, support_index_sets
from .errors import CapExceededError, HypothesisError
from .hypergraph import as_integer, has_sip, pairwise_unions, regularity

# Groups of r+1 edges are enumerated when maximizing xi.
DEFAULT_GROUP_CAP = 100_000


def compute_C2(dictionary, hypergraph, rank_tol=geometry.DEFAULT_RANK_TOL):
    """Geometry-only stability constant of a dictionary over a regular hypergraph.

    (r + 1) times the largest column norm, divided by one minus the largest
    xi over all groups of r + 1 edge spans. Requires a regular hypergraph.
    The worst group has the smallest sine product P, and 1 - xi is taken as
    P / (1 + sqrt(1 - P)), which keeps its digits when xi is near 1, so
    nearly degenerate geometry gives a large constant; a zero denominator
    (P = 0) is refused as degenerate. The column norms are taken after an
    exact power-of-two scaling of each column, so they do not overflow.

    P comes from a subset DP over the edges whose factors are read from one
    table. Where the dictionary A is injective on every union of two edges,
    as L2H > 0 asserts, the meet of any set of edge spans is span A[:, I]
    for the intersection I of their edges, by induction over the DP's
    prefixes: a prefix's I lies inside one edge S_b, so I | S_a lies inside
    S_a | S_b. So every factor is sin^2 of the Friedrichs angle between
    V_a = span A[:, S_a] and span A[:, I], for I among the intersections of
    at most r edges; it is exactly 1 when one of S_a and I contains the
    other, the empty I included. The table holds the other (a, I) pairs:
    their meet is span A[:, I & S_a], so the Friedrichs sine is the
    (|I & S_a| + 1)-th smallest singular value of (I - P_I) Q_a. That
    residual is n x |S_a| whatever I is, so the pairs of one edge width
    share stacked SVDs of at most geometry._STACK_BLOCK pairs each, on
    bases from one stacked SVD per width. The DP's index arrays depend on
    the hypergraph only and are kept per hypergraph (``_c2_plan``).

    That precondition is checked on the table's own SVDs: an edge or
    lattice column set whose span is rank deficient at rank_tol, or a table
    sine at or below rank_tol (the spans meet beyond their shared columns),
    raises HypothesisError naming the columns. Neither can happen where the
    certificate's lower_bound_ok holds, L2H > rank_tol smax: a unit vector
    of V_a orthogonal to span A[:, I & S_a] has coefficients of norm at
    least 1 / smax on S_a - I, so with U = S_a | I inside S_a | S_b its
    distance to span A[:, I] is at least sigma_min(A_U) / smax, and
    sigma_min(A_U) >= L2H sqrt(|S_a | S_b|) > rank_tol smax sqrt(|U|).
    """
    mat = geometry.as_matrix(dictionary, "dictionary")
    if hypergraph.m != mat.shape[1]:
        raise ValueError("hypergraph vertices must index dictionary columns")
    r = regularity(hypergraph)
    if r is None:
        raise HypothesisError("hypergraph is not regular")
    n_groups = math.comb(len(hypergraph.edges), r + 1)
    if n_groups > DEFAULT_GROUP_CAP:
        raise CapExceededError(
            f"{n_groups} edge groups exceed cap {DEFAULT_GROUP_CAP}")
    lowest = 1.0
    if n_groups:
        geometry._check_rank_tol(rank_tol)
        plan = _c2_plan(hypergraph, r + 1)
        bases = {}
        for width, columns in plan.stacks.items():
            u, s, _ = np.linalg.svd(np.swapaxes(mat.T[columns], 1, 2),
                                    full_matrices=False)
            deficient = np.count_nonzero(s > rank_tol * s[:, :1], axis=1) < width
            if np.any(deficient):
                raise HypothesisError(
                    f"columns {_vertices(columns[np.argmax(deficient)])} "
                    "are dependent at rank_tol")
            bases[width] = u
        sines = []
        for p, edge_at, meet_at, meet_width, shared in plan.widths:
            # stacks of at most _STACK_BLOCK pairs bound the memory of
            # hypergraphs with large lattices
            for lo in range(0, len(edge_at), geometry._STACK_BLOCK):
                block = slice(lo, lo + geometry._STACK_BLOCK)
                a, i, q = edge_at[block], meet_at[block], meet_width[block]
                runs = [0, *(np.flatnonzero(np.diff(q)) + 1).tolist(), len(q)]
                residuals = []
                for start, stop in zip(runs, runs[1:]):
                    qa, qi = bases[p][a[start:stop]], bases[q[start]][i[start:stop]]
                    residuals.append(qa - qi @ (np.swapaxes(qi, 1, 2) @ qa))
                sine = np.linalg.svd(np.concatenate(residuals), compute_uv=False)
                sine = sine[np.arange(len(sine)), p - 1 - shared[block]]
                if not np.all(sine > rank_tol):
                    bad = np.argmin(sine)
                    raise HypothesisError(
                        f"the span of edge {_vertices(plan.stacks[p][a[bad]])} meets "
                        f"that of columns {_vertices(plan.stacks[q[bad]][i[bad]])} "
                        "beyond their shared columns")
                sines.append(sine)
        factors = np.concatenate(sines + [np.ones(1)]) ** 2
        best = np.ones(len(hypergraph.edges))
        for tidx, pidx in plan.levels:
            best = (factors[tidx] * best[pidx]).max(axis=1)
        # xi is non-increasing in the product: the worst group has the smallest
        lowest = float(best.min())
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


def _vertices(columns):
    """1-based vertices of 0-based columns, as a tuple."""
    return tuple(int(c) + 1 for c in columns)


class _C2Plan(NamedTuple):
    """The index arrays of ``compute_C2``; they depend on the hypergraph only.

    ``stacks`` maps a width to the (G, width) array of 0-based column sets
    of that width whose bases the table needs: every edge, then the lattice
    elements I of the table's pairs, as ``geometry._column_table`` lists
    them. ``widths`` holds, per edge width |S_a|, the positions in the
    width stacks of the edge and of the I of each table pair, with |I| and
    |I & S_a|, in table order: the pairs of one width are consecutive, and
    so are those of one (|I|, |I & S_a|) shape. One more entry, the exact
    factor 1, ends the table. ``levels`` holds, for the DP levels of 2 to
    r + 1 edges, subsets in colex order, the table entry of each
    (subset, member a) factor and the position of the subset without a one
    level below, the latter from the shared ``geometry._subset_levels``.
    """

    stacks: dict
    widths: tuple
    levels: tuple


@functools.lru_cache(maxsize=8)
def _c2_plan(hypergraph, size):
    """The ``_C2Plan`` of the DP over groups of ``size`` edges; its arrays
    are read-only, since every caller shares them."""
    edges = [frozenset(v - 1 for v in e) for e in hypergraph.edges]
    n_edges = len(edges)
    levels = geometry._subset_levels(n_edges, size)
    # the lattice elements, each a column set with an id; edges come first
    sets = list(edges)
    ids = {e: i for i, e in enumerate(sets)}

    def meet_ids(elements, members):
        """The id of each sets[elements[j]] & edges[members[j]]."""
        keys, inverse = np.unique(elements * n_edges + members, return_inverse=True)
        found = []
        for key in keys.tolist():
            meet = sets[key // n_edges] & edges[key % n_edges]
            if meet not in ids:
                ids[meet] = len(sets)
                sets.append(meet)
            found.append(ids[meet])
        return np.array(found, dtype=np.intp)[inverse.ravel()]

    # per level of s edges, the pair (member, meet of the rest) of each
    # subset and member as the key meet * n_edges + member
    meets = np.arange(n_edges)
    keys = []
    for s, (combos, below) in enumerate(levels, 2):
        rest = meets[below]
        keys.append(rest * n_edges + combos)
        if s < size:
            meets = meet_ids(rest[:, -1], combos[:, -1])
    pair_keys, inverse = np.unique(np.concatenate([key.ravel() for key in keys]),
                                   return_inverse=True)
    pairs = [(key % n_edges, key // n_edges) for key in pair_keys.tolist()]
    shapes = [(len(edges[a]), len(sets[i]), len(edges[a] & sets[i])) for a, i in pairs]
    # the factor is exactly 1 when one of S_a and I contains the other
    table = [j for j, (p, q, d) in enumerate(shapes) if d not in (p, q)]
    listed = [*range(n_edges), *sorted({pairs[j][1] for j in table})]
    stacks, (rows,) = geometry._column_table([[sorted(sets[i]) for i in listed]])
    starts = dict(zip(stacks, itertools.accumulate(map(len, stacks.values()), initial=0)))
    position = {i: row - starts[len(sets[i])] for i, row in zip(listed, rows.tolist())}
    slots = np.full(len(pairs), len(table), dtype=np.intp)
    order = [table[g]
             for _, group in sorted(geometry._groups([shapes[j] for j in table]))
             for g in group]
    slots[order] = np.arange(len(order))
    widths = []
    for p, group in geometry._groups([shapes[j][0] for j in order]):
        group = [order[g] for g in group]
        widths.append((p, *(geometry._frozen(column) for column in zip(
            *[(position[pairs[j][0]], position[pairs[j][1]], *shapes[j][1:])
              for j in group]))))
    tidx = np.split(slots[inverse.ravel()], np.cumsum([key.size for key in keys])[:-1])
    return _C2Plan(
        stacks=stacks,
        widths=tuple(widths),
        levels=tuple((geometry._frozen(t.reshape(below.shape)), below)
                     for t, (_, below) in zip(tidx, levels)))


@functools.lru_cache(maxsize=8)
def _bound_plan(hypergraph):
    """The ``geometry._column_table`` of L2, L2k and L2H over a uniform
    hypergraph, in that order: every 2-subset and every min(2k, m)-subset
    of the columns, and the pairwise unions of the edges. Its arrays are
    read-only, since every caller shares them."""
    m, k = hypergraph.m, hypergraph.k
    return geometry._column_table(
        [geometry.k_subsets(m, min(width, m)).tolist() for width in (2, 2 * k)]
        + [[[v - 1 for v in union] for union in pairwise_unions(hypergraph).edges]])


def _c1(c2, glp_ok, denominator):
    """C2 over the code bound; None when the bound vanished or C1 overflows.

    The bound is the least, over edges S, of the restricted lower bound (at
    the uniform edge size) of dictionary @ codes restricted to the codes
    supported in S. The codes' general linear position, judged relative to
    each support's own top singular value, decides whether the bound is
    degenerate; no absolute cut applies, so C1 is unchanged when the
    dictionary is scaled and scales as 1/s when the codes are.
    """
    # the bound vanishes with fewer than k codes on a support, or codes not
    # in general linear position
    if not (glp_ok and denominator > 0.0):
        return None
    c1 = c2 / denominator
    return None if c1 == math.inf else c1


def sample_size_cor1(m, k, hypergraph):
    """Sufficient total sample count: |H| * ((k-1) * C(m, k) + 1)."""
    m, k = as_integer(m, "m"), as_integer(k, "k")
    if hypergraph.k != k:
        raise ValueError("hypergraph is not k-uniform for the given k")
    if hypergraph.m != m:
        raise ValueError("hypergraph vertex count differs from m")
    return len(hypergraph.edges) * ((k - 1) * math.comb(m, k) + 1)


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
    their own preconditions break; C2's, edge spans that meet only in their
    shared columns, holds wherever lower_bound_ok does). L2, L2k and L2H
    come from one kernel call per column-set width (``_bound_plan``), and
    ``compute_C2`` is called once. GLP and the C1 denominator share one
    exhaustive, screened k-subset stream per support code count
    (``codes._code_checks``).

    CapExceededError is raised only on size, never on a verdict, in four
    places: more than 1M column subsets for L2 or L2k (C(m, 2) or
    C(m, min(2k, m))), more than 1M edge pairs for L2H, more than
    DEFAULT_GROUP_CAP (100,000) groups of r + 1 edges for C2, and a support
    whose codes have more than codes.SUBSET_WORK_CAP (10M) k-subsets, in
    that order: C2 runs before the code screen. A rank_tol
    that is not positive and finite, or an m_bar other than None that is
    not a positive integer (``hypergraph.as_integer``), raises ValueError
    before any check runs.
    """
    geometry._check_rank_tol(rank_tol)
    m_bar = None if m_bar is None else as_integer(m_bar, "m_bar")
    if m_bar is not None and m_bar < 1:
        raise ValueError("m_bar must be a positive integer")
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

    l2, l2k, l2h = geometry._table_bounds(mat, _bound_plan(hypergraph))
    lower_bound_ok = l2h > rank_tol * smax
    spark_ok = geometry.spark_from_bound(l2k, min(2 * k, m), smax, rank_tol)

    # C2 before the code checks, so that its group cap refuses before their
    # work is paid for
    c2 = None
    try:
        c2 = compute_C2(mat, hypergraph, rank_tol)
    except HypothesisError:
        pass

    index_sets = support_index_sets(codes, hypergraph)
    support_counts = {edge: len(ids) for edge, ids in index_sets.items()}
    # the Corollary-1 count, per support
    required = sample_size_cor1(m, k, hypergraph) // len(hypergraph.edges)
    counts_ok = all(count >= required for count in support_counts.values())
    glp_ok, denominator = _code_checks(mat, codes, hypergraph, index_sets, rank_tol)
    c1 = None if c2 is None else _c1(c2, glp_ok, denominator)

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
