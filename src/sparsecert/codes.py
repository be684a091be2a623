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
order and stack size (``_screen_plan``) by one rule at every k: a subset is
a head index and a (k-1)-subset tail, each tail admits a nested range of
heads, and a block pairs a run of tails with every head that the run's
widest tail admits. Each subset's |det| comes from its head column against
the minors of its tail, in one matmul per block (``_block_determinants``);
the minors come from one recursive Laplace expansion at every k, once per
stack (``_tail_minors``). In each stack the exact SVDs of the first
block's lowest row minima seed the least value, and from then on one
comparison per grid entry settles a subset for both checks on its own, in
every block: its raw |det| against its support's threshold
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

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import CapExceededError
from .hypergraph import normalize_support

# Guardrail on the k-subsets of one support's codes. The subsets are
# streamed; cyclic m=10, k=3 at 241 codes (2,303,960) fits.
SUBSET_WORK_CAP = 10_000_000
# Grid entries per block of the subset stream, over all stacked supports. A
# block pairs a range of head indices with one slice of the tail list, so
# its determinant grid holds at most this many doubles (256 KB). The tail
# minors that a stack's blocks share take S k C(N, k-1) doubles for S
# supports of N codes, which SUBSET_WORK_CAP bounds per support through
# C(N, k-1) = C(N, k) k / (N - k + 1): 42 MB on cyclic m=7, k=4 at 106
# codes.
SCREEN_ROWS = 1 << 15
# Relative and absolute slack of the k-subset determinant screen: it covers
# the rounding of the screen's own arithmetic and LAPACK's SVD error bound
# p eps sigma_max for any p up to about 2e6.
SCREEN_SLACK = 2.0 ** -32
# Exact SVDs that seed the C1 denominator's least value in each code-count
# stack: of the subsets at its first block's lowest row minima.
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
    ``blocks`` (``_Block``) cover every k-subset exactly once. Each tail
    admits a nested range of heads, and a block pairs a run of tails with
    every head that the run's last, widest tail admits.
    """

    tails: np.ndarray
    blocks: tuple


@functools.lru_cache(maxsize=8)
def _screen_plan(count, k, supports, rows):
    """The ``_ScreenPlan`` of the k-subsets of ``count`` codes, for a stack
    of ``supports`` supports whose blocks hold at most ``rows`` grid entries
    over the stack (``SCREEN_ROWS``, passed so that the cache key holds it).
    Needs 1 <= k <= count.

    The tail list comes in segments, each in order of widening head range:
    a tail admits the heads below its least index, the first ``width`` of
    range(count), or in a ``head_last`` segment the heads above its greatest
    index, the last ``width``. At k = 1 the one tail is empty and admits
    every head. At k = 3 the pairs inside the lower half, range(count // 2),
    take the heads above them and the pairs inside the upper half the heads
    below them, so the tail minors cover about half of all C(count, 2)
    pairs. Each segment is laid out from its widest tail down: a block takes
    the widest tail not yet placed and the tails before it while its grid
    fits the share of ``rows``; a tail whose heads alone exceed the share is
    cut into blocks of heads. So the first block has the most rows, a block
    holds at most the share, every grid row holds a subset, and a run whose
    tails share one head range needs no mask. A run of widest width s holds
    at most share / s tails, each at least as wide as the next run's widest
    s', so it holds at most share (1 - s'/s) entries that are not subsets;
    over a segment these add up to at most share ln(widest / narrowest).
    """
    if k == 1:
        segments = [(np.zeros((1, 0), dtype=np.intp), np.array([count]), False)]
    elif k == 3:
        half = count // 2
        # the pairs of range(half) by descending greater entry
        low = half - 1 - np.column_stack(np.triu_indices(half, 1))[:, ::-1]
        high = np.column_stack(np.triu_indices(count - half, 1)) + half
        segments = [(low, count - 1 - low[:, 1], True), (high, high[:, 0], False)]
    else:
        tails = geometry.k_subsets(count, k - 1, cap=math.inf)
        segments = [(tails, tails[:, 0], False)]
    share = max(rows // supports, 1)
    blocks, offset = [], 0
    for part, widths, head_last in segments:
        sizes = widths.tolist()
        e, lo = len(sizes), bisect.bisect_right(sizes, 0)
        while e > lo:
            size = sizes[e - 1]
            first = count - size if head_last else 0
            c = max(e - max(share // size, 1), lo)
            valid = None
            if sizes[c] < size:
                index = np.arange(size)[:, None]
                valid = (index >= size - widths[c:e]) if head_last else index < widths[c:e]
            for h in range(first, first + size, share):
                blocks.append(_Block(slice(h, min(h + share, first + size)),
                                     slice(offset + c, offset + e), valid, head_last))
            e = c
        offset += len(sizes)
    tails = np.concatenate([part for part, _, _ in segments])
    for array in (tails, *(b.valid for b in blocks if b.valid is not None)):
        array.flags.writeable = False
    return _ScreenPlan(tails, tuple(blocks))


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
    Laplace expansion against ``_tail_minors``."""
    return np.swapaxes(units, -1, -2) * (-1.0) ** np.arange(units.shape[-2])


def _tail_minors(units, tails):
    """The determinants of every tail's w columns on each w-subset of the k
    rows of an (S, k, N) stack of unit columns, (C(k, w), S, T) for a
    (T, w) list of tails: the row sets in reverse lexicographic order, each
    set's minors together. At w = k - 1 set j is the one without row j,
    and its minor is the one against which a head column's entry j enters
    the Laplace expansion of |det|.

    A minor on rows R expands along the tail's last column c against the
    minors of the rest on R less one row,
    sum_p (-1)^(w-1-p) M(R - R_p) c[R_p], summed from p = w - 1 down. The
    empty minor is 1 and level 1 holds the column's entries, so k = 2
    gives b_1, b_0 and k = 3 the 2 x 2 minors b_p c_q - b_q c_p. Where the
    rest has two or more columns, its minors are taken once per run of
    tails that share it, as lexicographic tails do; the last column is
    gathered one row at a time, so that the top level's minors are the
    largest array.
    """
    k, width = units.shape[1], tails.shape[1]
    if not width:
        return np.ones((1, len(units), len(tails)))
    if width == 1:
        return np.take(units.transpose(1, 0, 2), tails[:, 0], axis=-1)[::-1]
    rest, which = tails[:, :-1], slice(None)
    if width > 2:
        changed = np.any(rest[1:] != rest[:-1], axis=1)
        rest, which = rest[np.append(True, changed)], np.append(0, np.cumsum(changed))
    lower = _tail_minors(units, rest)
    below = list(itertools.combinations(range(k), width - 1))[::-1]
    sets = list(itertools.combinations(range(k), width))[::-1]
    minors = np.empty((len(sets), len(units), len(tails)))
    for r in range(k - 1, -1, -1):
        entry = np.take(units[:, r], tails[:, -1], axis=-1)
        for i, rows in enumerate(sets):
            if r in rows:
                p = rows.index(r)
                term = lower[below.index(rows[:p] + rows[p + 1:])][:, which]
                if p == width - 1:
                    np.multiply(term, entry, out=minors[i])
                else:
                    (np.subtract, np.add)[(width - p) % 2](minors[i], term * entry,
                                                           out=minors[i])
    return minors


def _block_determinants(columns, minors, block):
    """|det| of each k-subset's block of unit columns, as a
    (..., rows, width) grid over ``block`` of a ``_ScreenPlan``: the Laplace
    expansion sum_j (-1)^j a_j M_j of the head column a against the tail's
    ``minors`` (``_tail_minors``), one stacked matmul of the sign-alternated
    head columns (``_head_columns``, (..., rows, k)) against the minors
    (..., k, width). A head that comes last is a cyclic shift of the
    columns at k = 3, which keeps |det|.

    On unit columns each determinant is a Hadamard ratio in [0, 1], and so
    is each minor (Hadamard's inequality). A minor of w columns, like the
    determinant at w = k, is a sum of w products of a unit column's entries
    with minors of w - 1 columns; BLAS may sum the determinant's in any
    order, fused or not, and any such sum is within gamma_w of the sum of
    the products' magnitudes, with unit roundoff eps/2 (Higham 2002,
    Sec. 3.1). By Cauchy-Schwarz over the column's w entries, the largest
    error E_w of a minor of w columns then obeys E_1 = 0 and
    E_w <= sqrt(w) (E_(w-1) + gamma_w (1 + E_(w-1))): none at k = 1, where
    the product with the minor 1 is exact and |u_0| comes out bit for bit,
    and about 1, 5, 14 and 37 eps at k = 2 to 5, well inside
    ``_hadamard_floor``'s absolute term. NaN columns give NaN. Grid entries
    outside the block's ``valid`` mask are not subsets and mean nothing.
    """
    det = columns[..., block.heads, :] @ minors[..., block.cut]
    return np.abs(det, out=det)


def _absolute_error(k):
    """The absolute term k^3 (k+1) 2^k eps of ``_hadamard_floor``, with
    eps = 2^-52."""
    return k ** 3 * (k + 1) * 2.0 ** (k - 52)


def _hadamard_floor(det, k):
    """Lower bound on the Hadamard ratio of each k-subset from its computed
    |det| (``_block_determinants``): det (1 - SCREEN_SLACK) less the
    absolute term k^3 (k+1) 2^k eps, one rounded operation at a time.

    That term, 4, 96, 864, 5,120 and 24,000 eps at k = 1 to 5, covers the
    forward error of the Laplace expansion, about 1, 5, 14 and 37 eps at
    k = 2 to 5 (``_block_determinants``), with room for the few eps by
    which a stored unit column's entries can exceed 1, and the relative
    slack covers the determinant's rounding. NaN gives NaN.
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
    least = functools.reduce(np.minimum, norms[subsets.T])
    return hadamard * _sigma_scale(subsets.shape[1]) * least


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
    product = functools.reduce(np.multiply, factors.T)
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


def _lowest(stack, owners, subsets, hadamard, lowest):
    """The least of ``lowest`` and the smallest singular values of A X_T.

    A subset whose floor (``_c1_floor``) exceeds the running least by its
    support's margin cannot lower it; the others take one exact SVD each,
    in one kernel call.
    """
    floor = _c1_floor(stack, owners, subsets, hadamard)
    still_open = ~((floor > lowest + stack.margin[owners]) & (floor < math.inf))
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
    floors are taken only on the entries left open. The first block of each
    stack seeds the least value before anything is settled: the minimum of
    each grid row, and the exact SVDs of the subsets at the _SEED_SUBSETS
    lowest of them (``_row_minimum_seeds``); those subsets do not reach the
    kernel again for the denominator. A later stack takes its own seeds:
    the least value of the stacks before it can lie far above its subsets'
    values, and would then leave nearly all of them open. The C1 settling
    floor falls with the least value found so far, so it and the threshold
    are taken again whenever that value falls. The first block with a
    dependent subset ends the check with (False, 0.0): once GLP fails, the
    denominator is not used. A support with fewer than k codes fails both;
    one with more than SUBSET_WORK_CAP k-subsets raises CapExceededError
    before any subset is checked.
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
        minors = _tail_minors(stack.units, plan.tails).transpose(1, 0, 2)
        target = None
        for block in plan.blocks:
            det = _block_determinants(columns, minors, block)
            seeds = None
            if block is plan.blocks[0]:
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
    if len(rows) > _SEED_SUBSETS:
        rows = np.argpartition(det[rows, at], _SEED_SUBSETS - 1)[:_SEED_SUBSETS]
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
