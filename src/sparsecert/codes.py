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
(``_Stack``) and walk one stream of blocks, laid out once per code count,
order and stack size (``_screen_plan``): a block pairs a run of head
indices with one slice of a list of (k-1)-subset tails, and at k = 3 it
groups the triples on their middle index, so that nearly every grid entry
is a subset. Each subset's |det| comes from its head column against the
minors of its tail, computed once per support, in one matmul per block
(``_tail_minors``, ``_block_determinants``; LU from k = 4). The exact SVDs
of the first block's lowest row minima seed the least value, and from then
on one comparison per grid entry settles a subset for both checks on its
own, in every block: its raw |det| against its support's threshold
(``_settling_threshold``). The others get their full floors
(``_hadamard_floor``, then ``_sigma_floor`` and ``_c1_floor``), and only
the subsets that those leave open reach the kernel, so the results equal
those of one exact SVD per subset.

Three roundings have to agree for a comparison to settle only what the
full floors would. The settling floor (``_settling_floor``) bounds the
Hadamard floor above which every full floor exceeds its target, and it is
sound only while ``_settling`` lists its factors in the order in which
``_sigma_floor`` and ``_c1_floor`` round their products. The threshold
folds the Hadamard floor's relative slack and absolute term into it,
rounded upward by a margin that a short rounding argument covers: the
Hadamard floor is monotone in |det|, so a |det| above the threshold has a
floor above the settling floor. A NaN |det|, from a zero column, never
clears it.
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
# block pairs a run of head indices with one slice of the tail list, so
# its determinant grid holds at most this many doubles (256 KB); from k = 4
# the gathered k x k blocks take k^2 times that.
SCREEN_ROWS = 1 << 15
# Relative and absolute slack of the k-subset determinant screen: it covers
# the rounding of the screen's own arithmetic and LAPACK's SVD error bound
# p eps sigma_max for any p up to about 2e6.
SCREEN_SLACK = 2.0 ** -32
# Exact SVDs that seed the C1 denominator's least value: of the subsets at
# the first block's lowest row minima, and of the lowest-floor subsets of a
# block that the screen leaves wide open.
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


class _Block(NamedTuple):
    """One block of a ``_ScreenPlan``: the k-subsets {h} | tails[c] for the
    head indices h in the slice ``heads`` and the tail positions c in the
    slice ``cut``, as a (rows, width) grid in row-major order. The head is
    the subset's least index, or its greatest when ``head_last`` is set.
    The ``valid`` mask drops the grid entries that are not such subsets; it
    is None when every entry is one, and every row holds at least one.
    """

    heads: slice
    cut: slice
    valid: np.ndarray | None
    head_last: bool


class _ScreenPlan(NamedTuple):
    """The layout of one k-subset stream; its arrays are read-only, since
    every caller shares them.

    ``tails`` is a (T, k-1) list of (k-1)-subsets of range(count), and the
    ``blocks`` (``_Block``) cover every k-subset exactly once. At k = 1 the
    one tail is empty. For k = 2 and from k = 4 the tails are in
    lexicographic order and a block pairs a run of least indices with a
    suffix of them. At k = 3 a subset i < j < l is grouped on its middle
    index j (``_middle_blocks``).
    """

    tails: np.ndarray
    blocks: tuple


# Grid entries that are not subsets, at most this fraction of a k = 3
# block's subsets.
_MIDDLE_WASTE = 1 / 8


@functools.lru_cache(maxsize=8)
def _screen_plan(count, k, supports, rows):
    """The ``_ScreenPlan`` of the k-subsets of ``count`` codes, for a stack
    of ``supports`` supports whose blocks hold at most ``rows`` grid entries
    over the stack (``SCREEN_ROWS``, passed so that the cache key holds it).
    Outside k = 3 a block takes a run of consecutive least indices, each
    against the tails whose entries all exceed it; a row whose tails alone
    exceed its share is split into blocks of tails. Needs 1 <= k <= count.
    """
    budget = max(rows // supports, 1)
    if k == 3:
        tails, blocks = _middle_blocks(count, budget)
    else:
        if k == 1:
            tails = np.zeros((1, 0), dtype=np.intp)
            start = np.zeros(count, dtype=np.intp)
        else:
            tails = geometry.k_subsets(count, k - 1, cap=math.inf)
            start = np.searchsorted(tails[:, 0], np.arange(count), side="right")
        n_tails = len(tails)
        last = int(np.searchsorted(start, n_tails))
        blocks, s = [], 0
        while s < last:
            lo = int(start[s])
            width = n_tails - lo
            if width > budget:
                blocks += [_Block(slice(s, s + 1), slice(c, min(c + budget, n_tails)),
                                  None, False)
                           for c in range(lo, n_tails, budget)]
                s += 1
                continue
            e = min(s + budget // width, last)
            valid = None if e == s + 1 else np.arange(lo, n_tails) >= start[s:e, None]
            blocks.append(_Block(slice(s, e), slice(lo, n_tails), valid, False))
            s = e
    for array in (tails, *(b.valid for b in blocks if b.valid is not None)):
        array.flags.writeable = False
    return _ScreenPlan(tails, tuple(blocks))


def _middle_blocks(count, budget):
    """The tails and blocks of the k = 3 plan, grouped on the middle index.

    The triples i < j < l with one middle j fill a j x (count-1-j) grid
    exactly: the heads l > j against the pairs (i, j), or the heads i < j
    against the pairs (j, l). Below the middle ``half`` the heads come last,
    against the pairs of range(half) in colexicographic order (grouped on
    their greater index); from ``half`` on they come first, against the
    pairs of range(half, count) in lexicographic order (grouped on their
    lesser one). A block takes a run of middles against the heads that any
    of them needs, and grows while it holds at most ``budget`` entries and
    at most _MIDDLE_WASTE of them are not subsets; a middle whose grid alone
    exceeds the budget is split into blocks of pairs.
    """
    half = count // 2
    low = np.column_stack(np.triu_indices(half, 1))
    low = low[np.lexsort((low[:, 0], low[:, 1]))]
    high = np.column_stack(np.triu_indices(count - half, 1)) + half
    tails = np.concatenate([low, high])
    # per middle j, the positions of its pairs start at first[j], and the
    # triples of the middles before j number before[j]
    middles = np.arange(count)
    first = np.concatenate([[0], np.cumsum(np.minimum(middles, count - 1 - middles))])
    before = np.concatenate([[0], np.cumsum(middles * (count - 1 - middles))])

    def heads(s, e):
        return slice(0, e - 1) if s >= half else slice(s + 1, count)

    def grid(s, e):
        rows = heads(s, e)
        return int(first[e] - first[s]) * (rows.stop - rows.start)

    blocks, s = [], 1
    while s < count - 1:
        e = s + 1
        limit = count - 1 if s >= half else half
        while (e < limit and grid(s, e + 1) <= budget
               and grid(s, e + 1) <= (1 + _MIDDLE_WASTE) * (before[e + 1] - before[s])):
            e += 1
        rows, last = heads(s, e), s >= half
        lo, hi = int(first[s]), int(first[e])
        if grid(s, e) > budget:
            step = max(budget // (rows.stop - rows.start), 1)
            blocks += [_Block(rows, slice(c, min(c + step, hi)), None, not last)
                       for c in range(lo, hi, step)]
        else:
            index = np.arange(rows.start, rows.stop)[:, None]
            valid = index < tails[lo:hi, 0] if last else index > tails[lo:hi, 1]
            blocks.append(_Block(rows, slice(lo, hi), None if valid.all() else valid,
                                 not last))
        s = e
    return tails, blocks


def _block_subsets(tails, block, at, count):
    """The supports and the (E, k) sorted stack column indices of the
    entries at row-major positions ``at`` of a stack's (S, rows, width)
    grid over ``block`` of a ``_ScreenPlan``, for ``count`` codes per
    support."""
    rows = block.heads.stop - block.heads.start
    width = block.cut.stop - block.cut.start
    owners, flat = np.divmod(at, rows * width)
    row, col = np.divmod(flat, width)
    parts = [tails[block.cut][col], block.heads.start + row]
    subsets = np.column_stack(parts if block.head_last else parts[::-1])
    return owners, subsets + (owners * count)[:, None]


def _head_columns(units):
    """The (..., N, k) stack of the unit columns of a (..., k, N) stack as
    rows, with their j-th entries times (-1)^j: the head columns of the
    Laplace expansion against ``_tail_minors``. The LU path takes them as
    they are: flipping the signs of whole columns of a k x k block keeps
    |det|, and partial pivoting then makes the same choices and rounds the
    same magnitudes, so |det| comes out bit for bit."""
    return np.swapaxes(units, -1, -2) * (-1.0) ** np.arange(units.shape[-2])


def _tail_minors(units, tails):
    """The minors of every tail's columns against which a head column's
    Laplace expansion gives |det|, (..., k, T).

    ``units`` is a (..., k, N) stack of unit columns. A k-subset {h} | tail
    has |det| = |sum_j (-1)^j units[j, h] minors[j, tail]|: at k = 1 the
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


def _block_determinants(columns, minors, tails, block):
    """|det| of each k-subset's block of unit columns, as a
    (..., rows, width) grid over ``block`` of a ``_ScreenPlan``.

    ``columns`` (``_head_columns``) hold unit columns, so each determinant
    is a Hadamard ratio in [0, 1] and every entry is in [-1, 1]. For k <= 3
    it is the Laplace expansion sum_j (-1)^j a_j M_j of the head column a
    against the tail's ``minors`` (``_tail_minors``), one stacked matmul of
    the sign-alternated head columns (..., rows, k) against the minors
    (..., k, width); a head that comes last is a cyclic shift of the
    columns at k = 3, which keeps |det|. BLAS may sum the k products in any
    order, fused or not; any such inner product is within
    gamma_k sum_j |a_j| |M_j| of its exact value, with unit roundoff eps/2
    (Higham 2002, Sec. 3.1). On unit columns
    sum_j |a_j| |M_j| <= ||a|| ||M|| <= 1, since the squares of the 2 x 2
    minors of two unit columns sum to at most 1 (Cauchy-Binet), and the
    rounding of the minors themselves (two products and a subtraction each)
    adds at most gamma_2 sum_{p != q} |b_p| |c_q| <= k gamma_2. So the
    forward error is at most about gamma_k + k gamma_2: none at k = 1,
    where the product with the minor 1 is exact and |u_0| comes out bit for
    bit, about 1 eps at k = 2, whose minors are entries, and some 5 eps at
    k = 3. From k = 4 (``minors`` None) one batched LU determinant covers
    the block's k x k blocks, gathered with the subset's columns as rows,
    with backward error k^3 (k+1) 2^k eps (partial pivoting, growth at most
    2^(k-1); Higham 2002, Thm 9.3); ``_hadamard_floor`` allows for both.
    NaN blocks give NaN. Grid entries outside the block's ``valid`` mask
    are not subsets and mean nothing.
    """
    head = columns[..., block.heads, :]
    if minors is not None:
        det = head @ minors[..., block.cut]
        return np.abs(det, out=det)
    k = columns.shape[-1]
    blocks = np.empty(head.shape[:-1] + (block.cut.stop - block.cut.start, k, k))
    blocks[..., 0, :] = head[..., :, None, :]
    blocks[..., 1:, :] = columns[..., None, tails[block.cut], :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(np.linalg.det(blocks))


def _absolute_error(k):
    """The absolute term k^3 (k+1) 2^k eps of ``_hadamard_floor``, with
    eps = 2^-52."""
    return k ** 3 * (k + 1) * 2.0 ** (k - 52)


def _hadamard_floor(det, k):
    """Lower bound on the Hadamard ratio of each k-subset from its computed
    |det| (``_block_determinants``): det (1 - SCREEN_SLACK) less the
    absolute term k^3 (k+1) 2^k eps, one rounded operation at a time.

    That term, 4, 96 and 864 eps at k = 1, 2, 3, covers the LU backward
    error and the forward error of the closed forms, with room for the few
    eps by which a stored unit column's entries can exceed 1, and the
    relative slack covers the determinant's rounding. NaN gives NaN.
    """
    return det * (1.0 - SCREEN_SLACK) - _absolute_error(k)


def _settling_threshold(floor, k):
    """Per support, a bound on the computed |det| above which the subset's
    ``_hadamard_floor`` exceeds the settling floor ``floor``, so that one
    comparison of the raw |det| settles it.

    The floor is monotone in |det|: each of its two rounded operations is.
    So a threshold t whose own floor exceeds ``floor`` settles only what
    the floor itself would settle. t is fl(fl(f + c) (1 + 2^-31)) for the
    settling floor f >= 0 (``_settling_floor`` gives no negative one) and
    the absolute term c. With unit roundoff u = 2^-53 and SCREEN_SLACK =
    2^-32, its floor's first product is at least
    (f + c) (1 - u)^3 (1 + 2^-31) (1 - 2^-32) > (f + c) (1 + 2^-33), so the
    subtraction leaves at least f + (f + c) 2^-33, more than half an ulp
    above f, and rounds above it. An infinite floor gives an infinite t
    and a NaN floor a NaN one, and no |det| clears either; t overflows to
    inf only where no |det| could clear it.
    """
    with np.errstate(over="ignore"):
        return (floor + _absolute_error(k)) * (1.0 + 2.0 ** -31)


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
    # a support's codes are zero off its k rows, so these rows alone carry
    # its singular values
    support_rows = codes.codes[rows[:, :, None], columns[:, None, :]]
    units, norms = geometry.unit_columns(support_rows)
    product = mat @ x
    product_norms = geometry.unit_columns(product)[1]
    sv = np.zeros((len(edges), k))
    found = np.linalg.svd(np.moveaxis(mat[:, rows], 1, 0), compute_uv=False)
    sv[:, :found.shape[1]] = found
    slack = SCREEN_SLACK * sv[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = norms.ravel() / product_norms
    return _Stack(
        codes=x, smax=np.linalg.svd(support_rows, compute_uv=False)[:, 0],
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

    Per grid entry a block costs one matmul output, one comparison of the
    raw |det| against its support's folded threshold and one
    ``flatnonzero``, with a pass of the block's mask where it has one; the
    floors are taken only on the entries left open. While no least value is
    known, the block's rows give it first: the minimum of each grid row,
    and the exact SVDs of the subsets at the _SEED_SUBSETS lowest of them
    (``_row_minimum_seeds``); those subsets do not reach the kernel again
    for the denominator. The C1 settling floor falls with the least value
    found so far, so it and the threshold are taken again whenever that
    value falls. The first block with a dependent subset ends the check with
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
        columns = _head_columns(stack.units)
        minors = _tail_minors(stack.units, plan.tails)
        target = None
        for block in plan.blocks:
            det = _block_determinants(columns, minors, plan.tails, block)
            seeds = None
            if lowest == math.inf:
                seeds = _row_minimum_seeds(det, block.valid)
                lowest = _exact_lowest(
                    stack, _block_subsets(plan.tails, block, seeds, count)[1], lowest)
            if lowest != target:
                target = lowest
                threshold = _settling_threshold(np.maximum(
                    _settling_floor(lowest + stack.margin, c1_factors), glp_settle), k)
            still_open = ~(det > threshold[:, None, None])
            if block.valid is not None:
                still_open &= block.valid
            at = np.flatnonzero(still_open)
            if not len(at):
                continue
            owners, subsets = _block_subsets(plan.tails, block, at, count)
            floor = _hadamard_floor(det.ravel()[at], k)
            if not _independent(stack.codes, subsets,
                                _sigma_floor(floor, stack.norms, subsets),
                                stack.smax[owners], rank_tol):
                return False, 0.0
            fresh = slice(None)
            if seeds is not None:
                still_open.flat[seeds] = False
                fresh = still_open.ravel()[at]
            lowest = _lowest(stack, owners[fresh], subsets[fresh], floor[fresh], lowest)
    return True, lowest / math.sqrt(k)


def _row_minimum_seeds(det, valid):
    """The row-major positions of the _SEED_SUBSETS lowest row minima of a
    stack's (S, rows, width) determinant grid over a block, among the
    entries of its ``valid`` mask: all the rows' minima when there are no
    more rows."""
    if valid is not None:
        det = np.where(valid, det, np.inf)
    width = det.shape[-1]
    det = det.reshape(-1, width)
    # argmin along a row runs several times faster than min
    at = np.argmin(det, axis=1)
    rows = np.arange(len(det))
    rows = _lowest_of(det[rows, at], rows)
    return rows * width + at[rows]


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
