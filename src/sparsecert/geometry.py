"""Matrix and subspace geometry: restricted lower bounds, spark checks, the
spark polynomial, subspace distance, Friedrichs angles, the ordering-maximized
sine-product aggregate, and numerical subspace intersection.

Every restricted-singular-value quantity funnels through the `_kernels`
function (numpy's batched LAPACK SVD over one (E, w) column-index array).
The k-subset checks on codes walk the subsets in first-index blocks
(`subset_tails`, `subset_blocks`): a block pairs a run of first indices
with one slice of the lexicographic list of (k-1)-subset tails. Each
subset's determinant comes from its first column against the minors of its
tail, computed once per support (`tail_minors`, `hadamard_floor`; LU from
k = 4). A determinant above the support's `settling_floor` proves the
subset's check on its own (`unsettled_subsets` yields the rest); the others
get their full lower bound (`sigma_floor`), and only the subsets that the
bound cannot settle reach the kernel.

Friedrichs angles, meets and the xi subset DP rest on one routine,
`_principal`, with one tolerance: for a (u, w) pair it takes one SVD of
(I - P_W) U, whose singular values are the sines of the principal angles
(Bjorck-Golub 1973; Knyazev-Argentati 2002). A sine at or below rank_tol is
a meet direction, and the next smallest is the Friedrichs sine. Pairs of
equal shape share one stacked SVD; numpy's stacked LAPACK gufuncs run the
same routine on each matrix of a stack, with the same workspace, so every
value is bit-identical to one factorization per pair. `friedrichs_angle` is
a batch of one, `intersect` folds its list pair by pair, and
`_subset_dp` runs each DP level in batches and meets each whole collection
as `intersect` does. The stacks hold at most _STACK_BLOCK matrices, and
bases built from a stack take the `Subspace` checks once per stack. In the
same way `orthonormal_basis` is a batch of one of `_bases`, which factors
matrices of equal shape in one stacked SVD. The DP serves general
subspaces (`xi`, the Lemma-3 check); `constants.compute_C2` reads the
sines of edge spans from its own table instead, since the meets of edge
spans are spans of shared columns there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import CapExceededError
from .hypergraph import DEFAULT_EDGE_CAP

# Relative rank tolerance: double-precision SVD noise floor with safety margin.
DEFAULT_RANK_TOL = 1e-9
# Orthonormality tolerance on stored subspace bases.
_ORTHO_TOL = 1e-10
# All orderings of a subspace collection are enumerated; factorial guardrail.
DEFAULT_ORDERING_CAP = 8
# Guardrail on the number of determinants the spark polynomial evaluates.
DEFAULT_MINOR_CAP = 500_000
# Angles per batch of the subset DP; bounds the stacked LAPACK calls.
_STACK_BLOCK = 1024
# Relative and absolute slack of the k-subset determinant screen: it covers
# the rounding of the screen's own arithmetic and LAPACK's SVD error bound
# p eps sigma_max for any p up to about 2e6.
SCREEN_SLACK = 2.0 ** -32


def as_matrix(mat, name="matrix"):
    """Validate and return a finite real 2-D float array."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _check_bases(ambient, bases):
    """The ``Subspace`` checks on a (G, ambient, dim) stack of bases, once for
    the stack; returns a read-only copy."""
    if bases.ndim != 3 or bases.shape[1] != ambient:
        raise ValueError("basis must be an (ambient, dim) array")
    dim = bases.shape[2]
    if dim > ambient:
        raise ValueError("dimension exceeds ambient dimension")
    if not np.all(np.isfinite(bases)):
        raise ValueError("basis has non-finite entries")
    if dim and len(bases):
        gram = np.swapaxes(bases, 1, 2) @ bases
        if np.max(np.abs(gram - np.eye(dim))) > _ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal")
    bases = bases.copy()
    bases.flags.writeable = False
    return bases


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^ambient held as an orthonormal basis (dim 0 allowed)."""

    ambient: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("basis must be an (ambient, dim) array")
        object.__setattr__(self, "basis", _check_bases(self.ambient, basis[None])[0])

    @classmethod
    def _stack(cls, ambient, bases):
        """One subspace per basis of a (G, ambient, dim) stack, checked as a stack."""
        spaces = []
        for basis in _check_bases(ambient, np.asarray(bases, dtype=float)):
            space = object.__new__(cls)
            object.__setattr__(space, "ambient", ambient)
            object.__setattr__(space, "basis", basis)
            spaces.append(space)
        return spaces

    @property
    def dim(self):
        return self.basis.shape[1]

    def project(self, x):
        """Orthogonal projection of a vector or matrix onto the subspace."""
        return self.basis @ (self.basis.T @ x)


def _check_rank_tol(rank_tol):
    # a NaN fails both comparisons
    if not 0.0 < rank_tol < math.inf:
        raise ValueError("rank_tol must be positive and finite")


def orthonormal_basis(mat, rank_tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the column span at the given relative rank tolerance.

    The numerical rank is the number of singular values exceeding
    ``rank_tol`` times the largest one; the zero matrix yields dimension 0.
    """
    mat = as_matrix(mat)
    _check_rank_tol(rank_tol)
    return _bases([mat], rank_tol)[0]


def _bases(mats, rank_tol):
    """``orthonormal_basis`` of each finite 2-D matrix of a list, from one
    stacked SVD per shape; a basis is the same whatever it is stacked with."""
    results = [None] * len(mats)
    for (n, _), idx in _groups([mat.shape for mat in mats]):
        u, s, _ = np.linalg.svd(np.stack([mats[i] for i in idx]), full_matrices=False)
        # the zero matrix has no singular value above 0, so it gets dimension 0
        ranks = np.count_nonzero(s > rank_tol * s[:, :1], axis=1)
        for rank, sub in _groups(ranks.tolist()):
            for i, space in zip(sub, Subspace._stack(n, u[sub, :, :rank])):
                results[idx[i]] = space
    return results


def column_span(mat, support, rank_tol=DEFAULT_RANK_TOL):
    """Span of the matrix columns selected by a 1-based support set."""
    mat = as_matrix(mat)
    cols = [v - 1 for v in support]
    if not cols:
        return Subspace(mat.shape[0], np.zeros((mat.shape[0], 0)))
    return orthonormal_basis(mat[:, cols], rank_tol)


def k_subsets(count, k, cap=DEFAULT_EDGE_CAP):
    """All k-subsets of range(count), in lexicographic order, as an (E, k) array."""
    if not 1 <= k <= count:
        raise ValueError(f"need 1 <= k <= count, got k={k}, count={count}")
    n_subsets = math.comb(count, k)
    if n_subsets > cap:
        raise CapExceededError(f"{n_subsets} {k}-subsets exceed cap {cap}")
    flat = itertools.chain.from_iterable(itertools.combinations(range(count), k))
    return np.fromiter(flat, dtype=np.intp, count=n_subsets * k).reshape(n_subsets, k)


def subset_tails(count, k):
    """The (k-1)-subsets of range(count), the tails, and where each first
    index's tails begin.

    Returns the tails in lexicographic order as a (T, k-1) array, and for
    each first index i the position start[i] of the first tail whose entries
    all exceed i. The k-subsets with first index i are (i, *tail) for the
    tails from start[i] on, so the k-subsets in lexicographic order are the
    first indices in turn, each against a suffix of one tail list. At k = 1
    the one tail is empty. Needs 1 <= k <= count.
    """
    if k == 1:
        return np.zeros((1, 0), dtype=np.intp), np.zeros(count, dtype=np.intp)
    if k == 3:
        tails = np.column_stack(np.triu_indices(count, 1))
    else:
        tails = k_subsets(count, k - 1, cap=math.inf)
    return tails, np.searchsorted(tails[:, 0], np.arange(count), side="right")


class SubsetBlock(NamedTuple):
    """The k-subsets (i, *columns[c]) for the first indices i in ``first``
    and the tails ``columns``, at positions ``tails`` of the tail list, as a
    (rows, width) grid in lexicographic row-major order. ``valid`` masks the
    grid where a tail does not exceed its row's first index; it is None when
    every entry is a subset."""

    first: slice
    tails: slice
    columns: np.ndarray
    valid: np.ndarray | None

    def subsets(self, flat):
        """The (E, k) index array of the grid entries at row-major ``flat``."""
        rows, cols = np.divmod(flat, len(self.columns))
        return np.column_stack([self.first.start + rows, self.columns[cols]])


def subset_blocks(tails, start, budget, rows=None):
    """The k-subsets of ``subset_tails`` with first index in ``rows`` (a
    range, all by default) in lexicographic order, as blocks of consecutive
    first indices of at most ``budget`` grid entries each.

    A block of first indices [s, e) takes the tails from start[s] on, and its
    ``valid`` mask drops, for each later row, the tails before its own start.
    A row whose tails alone exceed the budget is split into blocks of tails.
    """
    n_tails = len(tails)
    rows = range(len(start)) if rows is None else rows
    last = min(rows.stop, int(np.searchsorted(start, n_tails)))
    s = rows.start
    while s < last:
        lo = int(start[s])
        width = n_tails - lo
        if width > budget:
            for c in range(lo, n_tails, budget):
                hi = min(c + budget, n_tails)
                yield SubsetBlock(slice(s, s + 1), slice(c, hi), tails[c:hi], None)
            s += 1
            continue
        e = min(s + budget // width, last)
        valid = None if e == s + 1 else np.arange(lo, n_tails) >= start[s:e, None]
        yield SubsetBlock(slice(s, e), slice(lo, n_tails), tails[lo:], valid)
        s = e


def unit_columns(mat):
    """Columns of ``mat`` scaled to unit norm, and their norms.

    Each column is divided by its largest magnitude before the squares are
    summed, so no scale overflows or underflows them; a zero column gives
    NaN. A stack of matrices (..., rows, columns) is taken matrix by matrix.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        peaks = np.max(np.abs(mat), axis=-2)
        units = mat / peaks[..., None, :]
        norms = np.linalg.norm(units, axis=-2)
        units = units / norms[..., None, :]
    return units, norms * peaks


def tail_minors(units, tails):
    """The first-column cofactors of every tail's k x k blocks, (..., k, T).

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


def hadamard_floor(units, minors, block):
    """Lower bound on |det| of each k-subset's block of ``units``, as a
    (..., rows, width) grid over the ``block``.

    ``units`` is a (..., k, N) stack with unit columns, so each determinant
    is a Hadamard ratio in [0, 1] and every entry is in [-1, 1]. For k <= 3
    the determinant of (i, *tail) is the first-column Laplace expansion
    a_0 M_0 - a_1 M_1 + a_2 M_2 of the block's first columns a against the
    tails' ``minors`` (``tail_minors``), summed left to right. These are
    the operations, in their order, of a_0 b_1 - a_1 b_0 at k = 2 and of the
    cofactor expansion along the first column at k = 3; at k = 1 the
    product with the minor 1 is exact, so |u_0| comes out bit for bit. Each
    of the k! Leibniz products then carries at most 2k - 1 roundings (k - 1
    products, the subtraction inside a 2 x 2 minor, k - 1 sums), so the
    forward error is at most k! gamma_{2k-1} with unit roundoff eps/2
    (Higham 2002, Sec. 3.1): about 2 eps at k = 2 and 15 eps at k = 3, and
    none at k = 1. From k = 4 (``minors`` None) one batched LU determinant
    covers the block's k x k blocks, gathered with the subset's columns as
    rows, with backward error k^3 (k+1) 2^k eps (partial pivoting, growth at
    most 2^(k-1); Higham 2002, Thm 9.3). That one absolute term, 4, 96 and
    864 eps at k = 1, 2, 3, covers both evaluations with room for the few
    eps by which a stored unit column's entries can exceed 1, and the floor
    also allows relative SCREEN_SLACK for the determinant's rounding. NaN
    blocks give NaN. Grid entries outside ``block.valid`` are not subsets
    and mean nothing.
    """
    k = units.shape[-2]
    with np.errstate(divide="ignore", invalid="ignore"):
        if minors is None:
            columns = np.swapaxes(units, -1, -2)
            first = columns[..., block.first, :]
            blocks = np.empty(first.shape[:-1] + (len(block.columns), k, k))
            blocks[..., 0, :] = first[..., :, None, :]
            blocks[..., 1:, :] = columns[..., None, block.columns, :]
            det = np.abs(np.linalg.det(blocks))
        else:
            a = units[..., block.first]
            m = minors[..., block.tails]
            det = a[..., 0, :, None] * m[..., 0, None, :]
            for j in range(1, k):
                term = a[..., j, :, None] * m[..., j, None, :]
                if j % 2:
                    det -= term
                else:
                    det += term
            np.abs(det, out=det)
    det *= 1.0 - SCREEN_SLACK
    det -= k ** 3 * (k + 1) * 2.0 ** k * np.finfo(float).eps
    return det


def sigma_floor(hadamard, norms, subsets):
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
    return hadamard * sigma_scale(k) * least


def sigma_scale(k):
    """The factor ((k-1)/k)^((k-1)/2) (1 - SCREEN_SLACK) of ``sigma_floor``."""
    return ((k - 1) / k) ** ((k - 1) / 2) * (1.0 - SCREEN_SLACK)


def settling_floor(target, factors):
    """Per stacked matrix, a Hadamard floor above which every subset's floor
    exceeds ``target``, so that a block settles on its determinants alone.

    A subset's floor is its Hadamard floor h times nonnegative factors, one
    rounded product at a time: for ``sigma_floor`` the scale, then the least
    column norm. ``factors`` are, in that order, lower bounds on them per
    matrix. Rounding to nearest is monotone, so for h >= t >= 0 the floor
    is at least the same products of t with each factor at its bound, and
    the returned t is one for which that product exceeds ``target`` in the
    same arithmetic. Where no t is proved, as with a NaN, infinite or zero
    factor or target, it is inf.
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


def unsettled_subsets(units, budget, settle):
    """The k-subsets of the columns of each stacked support that their
    determinants do not settle, block by block.

    ``units`` is an (S, k, N) stack of unit columns and ``settle()`` gives,
    before each block, the (S,) settling floors (``settling_floor``) that a
    Hadamard floor must exceed. The blocks (``subset_blocks``) hold at most
    ``budget`` grid entries over the stack; the first row comes alone, so
    that floors that fall with what it finds settle the larger blocks after
    it.
    Yields, for each block with subsets left open, their supports, their
    index tuples into the supports' columns side by side (support s at
    s N to s N + N - 1), and their Hadamard floors.
    """
    count = units.shape[2]
    tails, start = subset_tails(count, units.shape[1])
    minors = tail_minors(units, tails)
    budget = max(budget // len(units), 1)
    blocks = itertools.chain(subset_blocks(tails, start, budget, range(1)),
                             subset_blocks(tails, start, budget, range(1, count)))
    for block in blocks:
        hadamard = hadamard_floor(units, minors, block)
        still_open = ~(hadamard > settle()[:, None, None])
        if block.valid is not None:
            still_open &= block.valid
        owners, flat = np.nonzero(still_open.reshape(len(units), -1))
        if len(flat):
            yield (owners, block.subsets(flat) + (owners * count)[:, None],
                   hadamard.reshape(len(units), -1)[owners, flat])


def subset_lower_bound(mat, subsets):
    """Least smallest singular value over the (E, w) column subsets, over sqrt(w)."""
    sv = _kernels.edge_min_singular_values(mat, subsets)
    return float(np.min(sv / np.sqrt(subsets.shape[1])))


def restricted_lower_bound(mat, hypergraph):
    """Worst-case restricted lower bound of the matrix over the hypergraph.

    For each edge S the smallest singular value of the column submatrix is
    scaled by 1/sqrt(|S|); the minimum over edges is returned, one kernel call
    per edge size. Empty edges are rejected (their submatrix is the zero map).
    """
    mat = as_matrix(mat, "dictionary")
    if hypergraph.m != mat.shape[1]:
        raise ValueError(
            f"hypergraph on {hypergraph.m} vertices cannot index "
            f"{mat.shape[1]} columns"
        )
    if not hypergraph.edges:
        raise ValueError("empty hypergraph")
    if any(len(e) == 0 for e in hypergraph.edges):
        raise ValueError("empty support set in hypergraph")
    by_width = {}
    for edge in hypergraph.edges:
        by_width.setdefault(len(edge), []).append([v - 1 for v in edge])
    return min(subset_lower_bound(mat, np.array(g)) for g in by_width.values())


def lower_bound_k(mat, k, cap=DEFAULT_EDGE_CAP):
    """Restricted lower bound over all size-k column subsets."""
    mat = as_matrix(mat, "dictionary")
    return subset_lower_bound(mat, k_subsets(mat.shape[1], k, cap))


def spark_from_bound(bound, width, smax, rank_tol=DEFAULT_RANK_TOL):
    """Spark verdict from the lower bound over all ``width``-column subsets."""
    return bound * math.sqrt(width) > rank_tol * smax


def spark_condition(mat, k, rank_tol=DEFAULT_RANK_TOL, cap=DEFAULT_EDGE_CAP):
    """True iff every set of min(2k, m) columns is linearly independent.

    Equivalent to the restricted lower bound over min(2k, m)-subsets clearing
    the rank-scaled threshold rank_tol * (largest singular value of mat).
    """
    mat = as_matrix(mat, "dictionary")
    if k < 1:
        raise ValueError("sparsity level must be positive")
    width = min(2 * k, mat.shape[1])
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])
    return spark_from_bound(lower_bound_k(mat, width, cap), width, smax, rank_tol)


def spark_polynomial(mat, k, minor_cap=DEFAULT_MINOR_CAP):
    """Product over 2k-column subsets of the sums of squared 2k-minors.

    Strictly positive iff every 2k columns are independent. The minors are
    taken on the column-normalised matrix (``unit_columns``, after an exact
    power-of-two scaling of each column), where each subset's sum of squared
    minors is at most 1, and the squared column norms are multiplied back in
    while the product is carried as a mantissa and a power of two
    (``math.frexp``). Per-subset sums at or below the LU round-off floor of
    the determinant evaluations (minor count times 1e-24) are
    indistinguishable from exact zeros and make the result exactly 0.0, as
    does a zero column. Any other result is positive: it saturates at inf
    above the largest double and at the smallest positive double below the
    smallest one, so the zero/nonzero verdict survives every scale.
    """
    mat = as_matrix(mat, "dictionary")
    n, m = mat.shape
    if k < 1:
        raise ValueError("sparsity level must be positive")
    width = 2 * k
    if width > min(n, m):
        raise ValueError(f"need 2k <= min(n, m), got 2k={width}, shape {n}x{m}")
    n_minors = math.comb(m, width) * math.comb(n, width)
    if n_minors > minor_cap:
        raise CapExceededError(f"{n_minors} minors exceed cap {minor_cap}")
    shifts = np.frexp(np.max(np.abs(mat), axis=0))[1]
    units, norms = unit_columns(np.ldexp(mat, -shifts))
    if not np.all(norms > 0.0):
        return 0.0
    squares, shifts = (norms * norms).tolist(), shifts.tolist()
    row_sets = np.array(list(itertools.combinations(range(n), width)))
    floor = len(row_sets) * 1e-24
    mantissa, exponent = 1.0, 0
    for cols in itertools.combinations(range(m), width):
        dets = np.linalg.det(units[:, cols][row_sets])
        factor = float(np.sum(dets * dets))
        if factor <= floor:
            return 0.0
        mantissa, e = math.frexp(mantissa * factor)
        exponent += e
        for j in cols:
            mantissa, e = math.frexp(mantissa * squares[j])
            exponent += e + 2 * shifts[j]
    try:
        value = math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf
    return max(value, math.ulp(0.0))


def subspace_distance(u, v):
    """max over unit vectors of U of the distance to V; in [0, 1].

    Asymmetric in general: equals 1 whenever dim(U) > dim(V). The zero
    subspace is at distance 0 from everything.
    """
    if u.ambient != v.ambient:
        raise ValueError("ambient dimensions differ")
    if u.dim == 0:
        return 0.0
    residual = u.basis - v.basis @ (v.basis.T @ u.basis)
    top = float(np.linalg.svd(residual, compute_uv=False)[0])
    return min(top, 1.0)


def _groups(keys):
    """Indices by key, in first-seen key order."""
    groups = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    return groups.items()


def _chunks(items):
    """Consecutive lists of at most _STACK_BLOCK items."""
    items = iter(items)
    while chunk := list(itertools.islice(items, _STACK_BLOCK)):
        yield chunk


def _principal(pairs, rank_tol):
    """Friedrichs sine and meet of (u, w) pairs of equal ambient dimension.

    One SVD of the residual U - W (W^T U) per pair, stacked by shape: its
    singular values are the sines of the principal angles of u against w.
    Those at or below rank_tol are meet directions, and U times their right
    singular vectors is the meet basis; the next smallest is the Friedrichs
    sine, returned with its right singular vector. The sine is 1, with no
    vector, when the meet is all of u or either side is zero.
    """
    results = [None] * len(pairs)
    for (n, p, q), idx in _groups([(u.ambient, u.dim, w.dim) for u, w in pairs]):
        if p == 0 or q == 0:
            zero = Subspace(n, np.zeros((n, 0)))
            for i in idx:
                results[i] = (1.0, zero, None)
            continue
        u = np.stack([pairs[i][0].basis for i in idx])
        w = np.stack([pairs[i][1].basis for i in idx])
        _, s, vt = np.linalg.svd(u - w @ (np.swapaxes(w, 1, 2) @ u),
                                 full_matrices=False)
        dims = np.count_nonzero(s <= rank_tol, axis=1)
        for d, sub in _groups(dims.tolist()):
            meets = Subspace._stack(n, u[sub] @ np.swapaxes(vt[sub, p - d:], 1, 2))
            for i, meet in zip(sub, meets):
                if d == p:
                    results[idx[i]] = (1.0, meet, None)
                else:
                    results[idx[i]] = (float(s[i, p - 1 - d]), meet, vt[i, p - 1 - d])
    return results


def intersect(subspaces, rank_tol=DEFAULT_RANK_TOL):
    """Numerical intersection of a collection of subspaces.

    Folds the list in order: each space is met with the intersection of the
    ones before it, keeping the directions whose principal-angle sine is at
    or below rank_tol.
    """
    spaces = list(subspaces)
    if not spaces:
        raise ValueError("empty collection")
    n = spaces[0].ambient
    if any(s.ambient != n for s in spaces):
        raise ValueError("ambient dimensions differ")
    meet = spaces[0]
    for space in spaces[1:]:
        meet = _principal([(space, meet)], rank_tol)[0][1]
    return meet


def friedrichs_angle(u, w, rank_tol=DEFAULT_RANK_TOL):
    """Principal angle between the subspaces after removing their intersection.

    Returns a value in (0, pi/2]; pi/2 whenever either complement of the
    intersection is trivial (in particular when one contains the other).
    The angle is atan2 of the Friedrichs sine and the cosine of the same
    principal vector, accurate at both ends of the range.
    """
    if u.ambient != w.ambient:
        raise ValueError("ambient dimensions differ")
    if u.dim == 0 and w.dim == 0:
        raise ValueError("at least one subspace must be nonzero")
    sine, _, vector = _principal([(u, w)], rank_tol)[0]
    if vector is None:
        return math.pi / 2
    cosine = float(np.linalg.norm(w.basis.T @ (u.basis @ vector)))
    return math.atan2(sine, cosine)


def _subset_dp(collections, max_size, rank_tol):
    """The product P of ``xi`` for every index subset of at most ``max_size``
    spaces, one dict per collection, and the meet of each whole collection.

    Maps frozenset(ids) to the maximum over orderings of those spaces of the
    product of squared Friedrichs sines, by dynamic programming over subsets.
    Each level (one subset size) takes every (space, rest) pair of every
    collection in batches of _STACK_BLOCK; the pair whose space has the
    largest index also gives the subset's meet for the next level, so meets
    are intersected in sorted index order, as ``intersect`` folds the
    collection, and the meet of a whole collection is ``intersect`` of it
    bit for bit (None for a collection of more than ``max_size`` spaces).
    The DP max runs over the spaces in index order. One call serves every
    sub-collection, and every collection, with the arithmetic of a separate
    call.
    """
    for spaces in collections:
        n = spaces[0].ambient
        if any(s.ambient != n for s in spaces):
            raise ValueError("ambient dimensions differ")
        if any(s.dim == 0 for s in spaces):
            raise ValueError("collection contains the zero subspace")
    bests = [{frozenset([i]): 1.0 for i in range(len(c))} for c in collections]
    meets = [{frozenset([i]): s for i, s in enumerate(c)} for c in collections]
    whole = [c[0] if len(c) == 1 else None for c in collections]
    for size in range(2, max_size + 1):
        live = [c for c in range(len(collections)) if len(collections[c]) >= size]
        jobs = ((c, ids, a) for c in live
                for ids in itertools.combinations(range(len(collections[c])), size)
                for a in ids)
        found = [{} for _ in collections]
        for chunk in _chunks(jobs):
            results = _principal([(collections[c][a], meets[c][frozenset(ids) - {a}])
                                  for c, ids, a in chunk], rank_tol)
            for (c, ids, a), (sine, meet, _) in zip(chunk, results):
                group = frozenset(ids)
                if a == ids[-1]:
                    found[c][group] = meet
                value = sine ** 2 * bests[c][group - {a}]
                if value > bests[c].setdefault(group, 0.0):
                    bests[c][group] = value
        for c in live:
            if len(collections[c]) == size:
                whole[c] = found[c][frozenset(range(size))]
        meets = found
    return bests, whole


def _xi_from_product(product):
    """sqrt(1 - P), clamped to [0, 1] against floating-point overshoot."""
    return math.sqrt(min(max(1.0 - product, 0.0), 1.0))


def _xis(collections, rank_tol, ordering_cap):
    """``xi`` and the meet of each collection, from one batched subset DP."""
    for spaces in collections:
        if not spaces:
            raise ValueError("empty collection")
        if len(spaces) > ordering_cap:
            raise CapExceededError(
                f"{len(spaces)} subspaces exceed ordering cap {ordering_cap}"
            )
    bests, meets = _subset_dp(collections, max(map(len, collections)), rank_tol)
    xis = [_xi_from_product(best[frozenset(range(len(spaces)))])
           for spaces, best in zip(collections, bests)]
    return xis, meets


def xi(subspaces, rank_tol=DEFAULT_RANK_TOL, ordering_cap=DEFAULT_ORDERING_CAP):
    """Ordering-maximized sine-product aggregate of a subspace collection.

    Zero for a single subspace; otherwise sqrt(1 - P) where P is the maximum
    over all orderings V_1, ..., V_l of the product over i < l of
    sin^2 of the Friedrichs angle between V_i and the intersection of the
    later ones. In [0, 1]: every factor is a Friedrichs sine above rank_tol
    (a sine at or below it is a meet direction), so P > 0, and xi reaches 1
    only by round-off, once P is below about 1e-16. The maximum is computed
    by dynamic programming over index subsets, which enumerates
    exactly the orderings.
    """
    return _xis([list(subspaces)], rank_tol, ordering_cap)[0][0]


def distance_to_subspace(x, space):
    """Euclidean distance from a point to a subspace."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - space.project(x)))
