"""Sparse code families, synthetic datasets, and the k-subset screen of a
code family.

Codes live in columns of an m x N matrix, each column carrying an explicit
support set; ``experiment.generate_instance`` draws them Gaussian, which stay
well conditioned at the counts Corollary 1 asks for.

``_code_checks`` is the one check of the k-subsets T of every support S's
codes, and both of its results are reported by the certificate: general
linear position (GLP), X_T independent against the top singular value of
X_S, and the C1 denominator, the least sigma_min(A X_T). Both come from one
screen. The supports with equal code counts are stacked side by side
(``_Stack``) and walk one stream of first-index blocks, laid out once per
code count, order and stack size (``_screen_plan``): a block pairs a run of
first indices with one slice of the lexicographic list of (k-1)-subset
tails. Each subset's determinant comes from its first column against the
minors of its tail, computed once per support, in one matmul per block
(``_tail_minors``, ``_hadamard_floor``; LU from k = 4). The exact SVDs of
the first block's lowest determinants seed the least value, and from then
on a determinant above its support's settling floor (``_settling_floor``)
proves the subset for both checks on its own, in every block. The others
get their full floors (``_sigma_floor``, ``_c1_floor``), and only the
subsets that those leave open reach the kernel, so the results equal those
of one exact SVD per subset. The settling floor is sound only while
``_settling`` lists its factors in the order in which ``_sigma_floor`` and
``_c1_floor`` round their products.
"""

from __future__ import annotations

import functools
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
# its determinant grid holds at most this many doubles (256 KB); from k = 4
# the gathered k x k blocks take k^2 times that.
SCREEN_ROWS = 1 << 15
# Relative and absolute slack of the k-subset determinant screen: it covers
# the rounding of the screen's own arithmetic and LAPACK's SVD error bound
# p eps sigma_max for any p up to about 2e6.
SCREEN_SLACK = 2.0 ** -32
# Exact SVDs that seed the C1 denominator's least value: of the first
# block's lowest determinants, and of the lowest-floor subsets of a block
# that the screen leaves wide open.
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


class _ScreenPlan(NamedTuple):
    """The layout of one k-subset stream; its arrays are read-only, since
    every caller shares them.

    ``tails`` are the (k-1)-subsets of range(count) in lexicographic order,
    (T, k-1), and ``start[i]`` is the position of the first tail whose
    entries all exceed i: the k-subsets with first index i are (i, *tail)
    for the tails from start[i] on, so the k-subsets in lexicographic order
    are the first indices in turn, each against a suffix of one tail list.
    At k = 1 the one tail is empty. ``blocks`` walk them in that order: a
    block (first, cut, valid) holds the k-subsets (i, *tails[c]) for the
    first indices i in the slice ``first`` and the tail positions c in the
    slice ``cut``, as a (rows, width) grid in row-major order. Its ``valid``
    mask drops, for each later row, the tails before its own start; it is
    None when every grid entry is a subset.
    """

    tails: np.ndarray
    start: np.ndarray
    blocks: tuple


@functools.lru_cache(maxsize=8)
def _screen_plan(count, k, supports, rows):
    """The ``_ScreenPlan`` of the k-subsets of ``count`` codes, for a stack
    of ``supports`` supports whose blocks hold at most ``rows`` grid entries
    over the stack (``SCREEN_ROWS``, passed so that the cache key holds it).
    A block takes a run of consecutive first indices; a row whose tails
    alone exceed its share is split into blocks of tails. Needs
    1 <= k <= count.
    """
    if k == 1:
        tails = np.zeros((1, 0), dtype=np.intp)
        start = np.zeros(count, dtype=np.intp)
    else:
        tails = (np.column_stack(np.triu_indices(count, 1)) if k == 3
                 else geometry.k_subsets(count, k - 1, cap=math.inf))
        start = np.searchsorted(tails[:, 0], np.arange(count), side="right")
    budget = max(rows // supports, 1)
    n_tails = len(tails)
    last = int(np.searchsorted(start, n_tails))
    blocks, s = [], 0
    while s < last:
        lo = int(start[s])
        width = n_tails - lo
        if width > budget:
            blocks += [(slice(s, s + 1), slice(c, min(c + budget, n_tails)), None)
                       for c in range(lo, n_tails, budget)]
            s += 1
            continue
        e = min(s + budget // width, last)
        valid = None if e == s + 1 else np.arange(lo, n_tails) >= start[s:e, None]
        blocks.append((slice(s, e), slice(lo, n_tails), valid))
        s = e
    for array in (tails, start, *(valid for _, _, valid in blocks if valid is not None)):
        array.flags.writeable = False
    return _ScreenPlan(tails, start, tuple(blocks))


def _block_subsets(tails, first, cut, at, count):
    """The supports and the (E, k) stack column indices of the entries at
    row-major positions ``at`` of a stack's (S, rows, width) grid over the
    block (first, cut) of a ``_ScreenPlan``, for ``count`` codes per
    support."""
    owners, flat = np.divmod(at, (first.stop - first.start) * (cut.stop - cut.start))
    rows, cols = np.divmod(flat, cut.stop - cut.start)
    subsets = np.column_stack([first.start + rows, tails[cut][cols]])
    return owners, subsets + (owners * count)[:, None]


def _tail_minors(units, tails):
    """The first-column minors of every tail's k x k blocks, (..., k, T).

    ``units`` is a (..., k, N) stack of unit columns. A k-subset (i, *tail)
    has |det| = |sum_j (-1)^j units[j, i] minors[j, tail]|: at k = 1 the
    minor is 1, at k = 2 the tail's entries b_1 and b_0, and at k = 3 the
    2 x 2 minors of the tail's two columns. From k = 4 there are none: the
    LU determinant gathers each block's tail columns instead.
    """
    k = units.shape[-2]
    if k == 1:
        return np.ones(units.shape[:-2] + (1, len(tails)))
    b = units[..., tails[:, 0]]
    if k == 2:
        return b[..., ::-1, :]
    if k == 3:
        c = units[..., tails[:, 1]]
        return np.stack([b[..., 1, :] * c[..., 2, :] - b[..., 2, :] * c[..., 1, :],
                         b[..., 0, :] * c[..., 2, :] - b[..., 2, :] * c[..., 0, :],
                         b[..., 0, :] * c[..., 1, :] - b[..., 1, :] * c[..., 0, :]],
                        axis=-2)
    return None


def _hadamard_floor(units, minors, tails, first, cut):
    """Lower bound on |det| of each k-subset's block of ``units``, as a
    (..., rows, width) grid over the block (first, cut) of a
    ``_ScreenPlan``.

    ``units`` is a (..., k, N) stack with unit columns, so each determinant
    is a Hadamard ratio in [0, 1] and every entry is in [-1, 1]. For k <= 3
    the determinant of (i, *tail) is the first-column Laplace expansion
    sum_j (-1)^j a_j M_j of the block's first columns a against the tails'
    ``minors`` (``_tail_minors``), one stacked matmul of the sign-alternated
    first columns (..., rows, k) against the minors (..., k, width). BLAS
    may sum the k products in any order, fused or not; any such inner
    product is within gamma_k sum_j |a_j| |M_j| of its exact value, with
    unit roundoff eps/2 (Higham 2002, Sec. 3.1). On unit columns
    sum_j |a_j| |M_j| <= ||a|| ||M|| <= 1, since the squares of the 2 x 2
    minors of two unit columns sum to at most 1 (Cauchy-Binet), and the
    rounding of the minors themselves (two products and a subtraction
    each) adds at most gamma_2 sum_{p != q} |b_p| |c_q| <= k gamma_2. So the
    forward error is at most about gamma_k + k gamma_2: none at k = 1,
    where the product with the minor 1 is exact and |u_0| comes out bit for
    bit, about 1 eps at k = 2, whose minors are entries, and some 5 eps at
    k = 3. From k = 4 (``minors`` None) one batched LU determinant covers
    the block's k x k blocks, gathered with the subset's columns as rows,
    with backward error k^3 (k+1) 2^k eps (partial pivoting, growth at most
    2^(k-1); Higham 2002, Thm 9.3). That one absolute term, 4, 96 and 864
    eps at k = 1, 2, 3, covers both evaluations with room for the few eps
    by which a stored unit column's entries can exceed 1, and the floor
    also allows relative SCREEN_SLACK for the determinant's rounding. NaN
    blocks give NaN. Grid entries outside the block's ``valid`` mask are
    not subsets and mean nothing.
    """
    k = units.shape[-2]
    with np.errstate(divide="ignore", invalid="ignore"):
        if minors is None:
            columns = np.swapaxes(units, -1, -2)
            head = columns[..., first, :]
            blocks = np.empty(head.shape[:-1] + (cut.stop - cut.start, k, k))
            blocks[..., 0, :] = head[..., :, None, :]
            blocks[..., 1:, :] = columns[..., None, tails[cut], :]
            det = np.abs(np.linalg.det(blocks))
        else:
            heads = np.swapaxes(units[..., first], -1, -2) * [1.0, -1.0, 1.0][:k]
            det = np.abs(heads @ minors[..., cut])
    det *= 1.0 - SCREEN_SLACK
    det -= k ** 3 * (k + 1) * 2.0 ** k * np.finfo(float).eps
    return det


def _sigma_floor(hadamard, norms, subsets):
    """Lower bound on the smallest singular value of each k-column matrix M_T.

    ``hadamard`` bounds vol(M_T) / prod of its column norms from below, per
    row T of subsets, and ``norms`` are the column norms of M. Then
    sigma_min(M_T) >= hadamard ((k-1)/k)^((k-1)/2) min_{j in T} norms[j]
    (Hong & Pan 1992, on the column-normalised M_T), less SCREEN_SLACK
    relative for the rounding of this product.
    """
    k = subsets.shape[1]
    least = norms[subsets[:, 0]]
    for j in range(1, k):
        least = np.minimum(least, norms[subsets[:, j]])
    return hadamard * _sigma_scale(k) * least


def _sigma_scale(k):
    """The factor ((k-1)/k)^((k-1)/2) (1 - SCREEN_SLACK) of ``_sigma_floor``."""
    return ((k - 1) / k) ** ((k - 1) / 2) * (1.0 - SCREEN_SLACK)


def _settling_floor(target, factors):
    """Per stacked support, a Hadamard floor above which every subset's floor
    exceeds ``target``, so that a block settles on its determinants alone.

    A subset's floor is its Hadamard floor h times nonnegative factors, one
    rounded product at a time: for ``_sigma_floor`` the scale, then the
    least column norm. ``factors`` are, in that order, lower bounds on them
    per support. Rounding to nearest is monotone, so for h >= t >= 0 the
    floor is at least the same products of t with each factor at its bound,
    and the returned t is one for which that product exceeds ``target`` in
    the same arithmetic. Where no t is proved, as with a NaN, infinite or
    zero factor or target, it is inf.
    """
    with np.errstate(all="ignore"):
        product = 1.0
        for factor in factors:
            product = product * factor
        least = target / product * (1.0 + 2.0 ** -40)
        bound = least
        for factor in factors:
            bound = bound * factor
        return np.where(bound > target, least, np.inf)


def _independent(mat, subsets, floor, smax, rank_tol):
    """Whether every subset clears the GLP threshold, given lower bounds
    ``floor`` on their smallest singular values and the top singular value
    ``smax``, one or one per subset, of the matrices they come from; the
    exact SVD settles each subset that the bound does not prove
    independent."""
    smax = np.broadcast_to(smax, floor.shape)
    proved = (floor > (rank_tol + SCREEN_SLACK) * smax) & (floor < math.inf)
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
    columns = np.array([index_sets[edge] for edge in edges])
    x = codes.codes[:, columns.ravel()]
    units, norms = geometry.unit_columns(codes.codes[rows[:, :, None], columns[:, None, :]])
    product = mat @ x
    product_norms = geometry.unit_columns(product)[1]
    sv = np.zeros((len(edges), k))
    found = np.linalg.svd(np.moveaxis(mat[:, rows], 1, 0), compute_uv=False)
    sv[:, :found.shape[1]] = found
    slack = SCREEN_SLACK * sv[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = norms.ravel() / product_norms
    supports = np.moveaxis(x.reshape(codes.m, *columns.shape), 1, 0)
    return _Stack(
        codes=x, smax=np.linalg.svd(supports, compute_uv=False)[:, 0],
        units=units, norms=norms.ravel(), product=product,
        product_norms=product_norms, weights=weights,
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

    scale = _sigma_scale(k)
    factors = least(stack.weights)[:, None] * stack.spectrum
    product = factors[:, 0]
    for j in range(1, k):
        product = product * factors[:, j]
    glp = _settling_floor((rank_tol + SCREEN_SLACK) * stack.smax,
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
        return _sigma_floor(hadamard * scale, stack.product_norms, subsets)


def _lowest_of(values, candidates):
    """The _SEED_SUBSETS positions among ``candidates`` with the lowest
    ``values``; all of them when there are no more."""
    if len(candidates) <= _SEED_SUBSETS:
        return candidates
    return candidates[np.argpartition(values[candidates], _SEED_SUBSETS - 1)
                      [:_SEED_SUBSETS]]


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
        seeds = _lowest_of(floor, candidates)
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
    """(glp_ok, C1 denominator) from one screened k-subset stream per code
    count (the screen of the module docstring).

    While no least value is known, the exact SVDs of the block's
    _SEED_SUBSETS lowest determinants give one first; those subsets do not
    reach the kernel again for the denominator. The C1 settling floor falls
    with the least value found so far, so it is taken again before each
    block. The first block with a dependent subset ends the check with
    (False, 0.0): once GLP fails, the denominator is not used. A support
    with fewer than k codes fails both; one with more than SUBSET_WORK_CAP
    k-subsets raises CapExceededError before any subset is checked.
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
    for count, edges in by_count.items():
        stack = _stack(mat, codes, edges, index_sets)
        glp_settle, c1_factors = _settling(stack, k, rank_tol)
        plan = _screen_plan(count, k, len(edges), SCREEN_ROWS)
        minors = _tail_minors(stack.units, plan.tails)
        for first, cut, valid in plan.blocks:
            hadamard = _hadamard_floor(stack.units, minors, plan.tails, first, cut)
            seeds = []
            if lowest == math.inf:
                entries = (np.arange(hadamard.size) if valid is None else
                           np.flatnonzero(np.broadcast_to(valid, hadamard.shape)))
                seeds = _lowest_of(hadamard.ravel(), entries)
                lowest = _exact_lowest(
                    stack, _block_subsets(plan.tails, first, cut, seeds, count)[1], lowest)
            settle = np.maximum(_settling_floor(lowest + stack.margin, c1_factors),
                                glp_settle)
            still_open = ~(hadamard > settle[:, None, None])
            if valid is not None:
                still_open &= valid
            at = np.flatnonzero(still_open)
            if not len(at):
                continue
            owners, subsets = _block_subsets(plan.tails, first, cut, at, count)
            floor = hadamard.ravel()[at]
            if not _independent(stack.codes, subsets,
                                _sigma_floor(floor, stack.norms, subsets),
                                stack.smax[owners], rank_tol):
                return False, 0.0
            still_open.flat[seeds] = False
            fresh = still_open.ravel()[at]
            lowest = _lowest(stack, owners[fresh], subsets[fresh], floor[fresh], lowest)
    return True, lowest / math.sqrt(k)


def support_index_sets(codes, hypergraph):
    """For each edge S, the 0-based code columns whose support is contained in S.

    A column belongs to S when its support mask has no row outside S.
    """
    edges = hypergraph.edges
    outside = np.ones((len(edges), codes.m), dtype=np.float32)
    for e, edge in enumerate(edges):
        outside[e, [v - 1 for v in edge if v <= codes.m]] = 0.0
    # entry (e, i) counts the rows of column i outside edge e. A float32
    # matmul runs on BLAS, where a boolean one does not, and a sum of 0/1
    # products is zero exactly when every product is, so the test is exact.
    inside = outside @ codes.support_mask.astype(np.float32) == 0.0
    return {edge: np.flatnonzero(row).tolist() for edge, row in zip(edges, inside)}


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
