"""Sparse code families, synthetic datasets, and the k-subset screen of a
code family.

Codes live in columns of an m x N matrix, each column carrying an explicit
support set; ``experiment.generate_instance`` draws them Gaussian, which stay
well conditioned at the counts Corollary 1 asks for.

``_code_checks`` is the one check of the k-subsets of every support's codes:
general linear position (GLP) and the C1 denominator, from one screened
subset stream per code count, both reported by the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import CapExceededError
from .hypergraph import normalize_support

# Guardrail on the k-subsets of one support's codes. The subsets are
# streamed, so it bounds the work, not the memory; cyclic m=10, k=3 at 241
# codes (2,303,960) fits.
SUBSET_WORK_CAP = 10_000_000
# Grid entries per block of the subset stream, over all stacked supports. A
# block pairs a run of first indices with one slice of the tail list, so
# its determinant grid holds at most this many doubles (128 KB); from k = 4
# the gathered k x k blocks take k^2 times that.
SCREEN_ROWS = 1 << 14
# Exact SVDs that seed the C1 denominator's least value among the subsets
# of a block that the screen leaves wide open.
_SEED_SUBSETS = 16


@dataclass
class SparseCodeSet:
    """m x N matrix of at-most-k-sparse columns with per-column support sets.

    The supports are validated as one boolean (m, N) mask, kept as
    ``support_mask``: entry (v - 1, i) is True iff vertex v is in the
    support of column i. Each distinct support object is normalised once.
    """

    m: int
    codes: np.ndarray
    supports: tuple
    k: int
    support_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=float)
        if self.codes.ndim != 2 or self.codes.shape[0] != self.m:
            raise ValueError("codes must be an (m, N) array")
        if not np.all(np.isfinite(self.codes)):
            raise ValueError("codes have non-finite entries")
        # keyed by identity: the raw supports stay alive in ``raw``, and an
        # object normalises the same way every time it is met
        raw = tuple(self.supports)
        position, distinct, which = {}, [], []
        for s in raw:
            key = id(s)
            if key not in position:
                position[key] = len(distinct)
                distinct.append(normalize_support(s, self.m))
            which.append(position[key])
        self.supports = tuple(distinct[i] for i in which)
        if len(self.supports) != self.codes.shape[1]:
            raise ValueError("one support set per code column required")
        distinct_mask = np.zeros((self.m, len(distinct)), dtype=bool)
        for i, support in enumerate(distinct):
            distinct_mask[[v - 1 for v in support], i] = True
        self.support_mask = distinct_mask[:, which]
        failure = _entry_failure(self.codes[None], self.support_mask[None], self.k)
        if failure is not None:
            raise ValueError(failure[1])

    @classmethod
    def _on_supports(cls, codes, supports, support_mask, k):
        """A code set on supports that are already normalised, with their
        mask, whose entries have passed ``_entry_failure``; nothing is
        normalised or checked again."""
        code_set = cls.__new__(cls)
        code_set.m = support_mask.shape[0]
        code_set.codes, code_set.supports, code_set.k = codes, supports, k
        code_set.support_mask = support_mask
        return code_set

    @property
    def n_codes(self):
        return self.codes.shape[1]

    def l1_norms(self):
        return np.abs(self.codes).sum(axis=0)


def _entry_failure(codes, masks, k):
    """The first matrix of an (L, m, N) stack of codes whose entries fail the
    ``SparseCodeSet`` checks against its support mask, as (index, message);
    None when every one passes.

    ``masks`` is an (L, m, N) or (1, m, N) stack of support masks. A matrix
    fails on a non-finite entry, or at its first column whose support is
    larger than k (checked first) or that has an entry outside its support.
    """
    finite = np.isfinite(codes).all(axis=(1, 2))
    oversize = masks.sum(axis=1) > k
    failing = oversize | np.any((codes != 0.0) & ~masks, axis=1)
    bad = np.flatnonzero(~finite | failing.any(axis=1))
    if not bad.size:
        return None
    index = int(bad[0])
    if not finite[index]:
        return index, "codes have non-finite entries"
    col = int(np.argmax(failing[index]))
    if oversize[index if len(oversize) > 1 else 0, col]:
        return index, f"support of column {col} larger than k={k}"
    return index, f"column {col} has entries outside its support"


def _independent(mat, subsets, floor, smax, rank_tol):
    """Whether every subset clears the GLP threshold, given lower bounds
    ``floor`` on their smallest singular values and the top singular value
    ``smax``, one or one per subset, of the matrices they come from; the
    exact SVD settles each subset that the bound does not prove
    independent."""
    smax = np.broadcast_to(smax, floor.shape)
    proved = (floor > (rank_tol + geometry.SCREEN_SLACK) * smax) & (floor < math.inf)
    if proved.all():
        return True
    sv = geometry.edge_min_singular_values(mat, subsets[~proved])
    return bool(np.all(sv > rank_tol * smax[~proved]))


class _Stack(NamedTuple):
    """The inputs to the screened code checks of the supports that share a
    code count N, side by side: support s holds columns s N to s N + N - 1
    of the column arrays."""

    codes: np.ndarray      # m x SN, the supports' code columns
    smax: np.ndarray       # S, largest singular value of each support's codes
    units: np.ndarray      # S x k x N, the support rows, unit columns
    norms: np.ndarray      # SN, column norms of the support rows
    product: np.ndarray    # n x SN, dictionary @ codes, support by support
    product_norms: np.ndarray
    weights: np.ndarray    # SN, code norm over product norm
    spectrum: np.ndarray   # S x k, lower bounds on the singular values of A_S
    margin: np.ndarray     # S, SVD and product rounding of A X_T, absolute


def _stack(mat, codes, edges, index_sets):
    """The ``_Stack`` of edges whose code counts are equal; the SVDs and the
    column scalings run on stacks, matrix by matrix."""
    k = len(edges[0])
    rows = np.array([[v - 1 for v in edge] for edge in edges])
    x = np.stack([codes.codes[:, index_sets[edge]] for edge in edges])
    units, norms = geometry.unit_columns(np.take_along_axis(x, rows[:, :, None], axis=1))
    product = np.stack([mat @ support for support in x])
    product_norms = geometry.unit_columns(product)[1]
    sv = np.zeros((len(edges), k))
    found = np.linalg.svd(np.moveaxis(mat[:, rows], 1, 0), compute_uv=False)
    sv[:, :found.shape[1]] = found
    slack = geometry.SCREEN_SLACK * sv[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = norms / product_norms
    return _Stack(
        codes=np.concatenate(x, axis=1), smax=np.linalg.svd(x, compute_uv=False)[:, 0],
        units=units, norms=norms.ravel(), product=np.concatenate(product, axis=1),
        product_norms=product_norms.ravel(), weights=weights.ravel(),
        spectrum=np.maximum(sv - slack[:, None], 0.0),
        margin=slack * math.sqrt(k) * np.max(norms, axis=1),
    )


def _settling(stack, k, rank_tol):
    """Per support: the settling floor of the GLP check, and the lower bounds
    on the factors of the C1 floor (``_c1_floor``), in order.

    The bounds are the least values over the support's columns; a NaN
    among them, from a zero column, settles nothing.
    """
    def least(values):
        return values.reshape(len(stack.units), -1).min(axis=1)

    scale = geometry.sigma_scale(k)
    factors = least(stack.weights)[:, None] * stack.spectrum
    product = factors[:, 0]
    for j in range(1, k):
        product = product * factors[:, j]
    glp = geometry.settling_floor((rank_tol + geometry.SCREEN_SLACK) * stack.smax,
                                  [scale, least(stack.norms)])
    return glp, [product, scale, least(stack.product_norms)]


def _c1_floor(stack, owners, subsets, hadamard):
    """Lower bounds on the smallest singular values of A X_T.

    ``subsets`` index the stack's columns, and ``owners`` are their
    supports. vol(A_S X_T) = vol(A_S) |det X_T|, so the Hadamard ratio of
    A X_T is bounded below by that of X_T times prod_i spectrum[i]
    weights[T_i].
    """
    with np.errstate(invalid="ignore"):
        scale = stack.weights[subsets[:, 0]] * stack.spectrum[owners, 0]
        for j in range(1, subsets.shape[1]):
            scale *= stack.weights[subsets[:, j]] * stack.spectrum[owners, j]
        return geometry.sigma_floor(hadamard * scale, stack.product_norms, subsets)


def _lowest(stack, owners, subsets, hadamard, lowest):
    """The least of ``lowest`` and the smallest singular values of A X_T.

    A subset whose floor (``_c1_floor``) exceeds the running least by its
    support's margin cannot lower it. When more than _SEED_SUBSETS are left
    open, the exact SVDs of the lowest-floor ones come first, and the rest
    are screened again against the least they give.
    """
    floor = _c1_floor(stack, owners, subsets, hadamard)
    margin = stack.margin[owners]

    def open_subsets(least):
        return ~((floor > least + margin) & (floor < math.inf))

    still_open = open_subsets(lowest)
    candidates = np.flatnonzero(still_open)
    if len(candidates) > _SEED_SUBSETS:
        seeds = candidates[np.argpartition(floor[candidates], _SEED_SUBSETS - 1)
                           [:_SEED_SUBSETS]]
        lowest = _exact_lowest(stack, subsets[seeds], lowest)
        still_open[seeds] = False
        still_open &= open_subsets(lowest)
    if still_open.any():
        lowest = _exact_lowest(stack, subsets[still_open], lowest)
    return lowest


def _exact_lowest(stack, subsets, lowest):
    sv = geometry.edge_min_singular_values(stack.product, subsets)
    return min(lowest, float(np.min(sv)))


def _code_checks(mat, codes, hypergraph, index_sets, rank_tol):
    """(glp_ok, C1 denominator) from one screened k-subset stream per code count.

    On each edge S the k-subsets T of its codes serve both checks: X_T
    independent against the top singular value of X_S, and the restricted
    lower bound of A X_T. The supports with equal code counts are stacked
    and walk one stream of first-index blocks (``geometry.unsettled_subsets``):
    per block, the determinants of every support's subsets come from the
    block's first columns against the tail minors
    (``geometry.hadamard_floor``). A subset whose determinant clears its
    support's settling floor (``geometry.settling_floor``) is proved for
    both checks by that alone. The few others, of all supports at once, get
    their full floors from their index tuples (``geometry.sigma_floor``,
    ``_lowest``), and only the subsets that those leave open get the exact
    SVD, so the results equal those of one SVD per subset. The first block
    with a dependent subset ends the check with (False, 0.0): once GLP
    fails, the denominator is not used. A support with fewer than k codes
    fails both; one with more than SUBSET_WORK_CAP k-subsets raises
    CapExceededError before any subset is checked.
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
    lowest = math.inf
    for edges in by_count.values():
        stack = _stack(mat, codes, edges, index_sets)
        glp_settle, c1_factors = _settling(stack, k, rank_tol)

        def settle():
            # read before each block: the C1 target falls with the least value
            c1 = geometry.settling_floor(lowest + stack.margin, c1_factors)
            return np.maximum(c1, glp_settle)

        for owners, subsets, floor in geometry.unsettled_subsets(stack.units,
                                                                 SCREEN_ROWS, settle):
            if not _independent(stack.codes, subsets,
                                geometry.sigma_floor(floor, stack.norms, subsets),
                                stack.smax[owners], rank_tol):
                return False, 0.0
            lowest = _lowest(stack, owners, subsets, floor, lowest)
    return True, lowest / math.sqrt(k)


def support_index_sets(codes, hypergraph):
    """For each edge S, the 0-based code columns whose support is contained in S.

    A column belongs to S when its support mask has no row outside S.
    """
    edges = hypergraph.edges
    outside = np.ones((len(edges), codes.m), dtype=bool)
    for e, edge in enumerate(edges):
        outside[e, [v - 1 for v in edge if v <= codes.m]] = False
    # boolean matmul: entry (e, i) is True iff column i has a row outside edge e
    spills = outside @ codes.support_mask
    return {edge: np.flatnonzero(~row).tolist() for edge, row in zip(edges, spills)}


@dataclass
class Dataset:
    """Noisy signals z_i = A x_i + n_i with per-sample noise norm at most eta."""

    signals: np.ndarray
    eta: float
    dictionary: np.ndarray | None = None
    codes: SparseCodeSet | None = None
    noise: np.ndarray | None = None


def synthesize_dataset(dictionary, codes, eta, seed=None, worst_case=False):
    """Generate signals dictionary @ codes plus norm-bounded noise.

    Noise directions are uniform on the sphere; radii are eta * U^(1/n)
    (uniform in the eta-ball) or exactly eta when ``worst_case`` is set.
    The bound ||n_i|| <= eta is enforced exactly and the draw is
    deterministic under ``seed``.
    """
    mat = geometry.as_matrix(dictionary, "dictionary")
    if mat.shape[1] != codes.m:
        raise ValueError("dictionary columns and code rows differ")
    # a NaN fails both comparisons
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be nonnegative and finite, got {eta!r}")
    n, count = mat.shape[0], codes.n_codes
    clean = mat @ codes.codes
    if eta == 0.0:
        noise = np.zeros_like(clean)
    else:
        rng = np.random.default_rng(seed)
        directions = rng.standard_normal((n, count))
        norms = np.linalg.norm(directions, axis=0)
        norms[norms == 0.0] = 1.0
        directions /= norms
        if worst_case:
            radii = np.full(count, eta)
        else:
            radii = eta * rng.uniform(0.0, 1.0, count) ** (1.0 / n)
        noise = directions * radii
        achieved = np.linalg.norm(noise, axis=0)
        over = achieved > eta
        if np.any(over):
            noise[:, over] *= eta / achieved[over]
    return Dataset(clean + noise, float(eta), mat, codes, noise)
