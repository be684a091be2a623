"""Matrix and subspace geometry: restricted lower bounds, spark checks, the
spark polynomial, subspace distance, Friedrichs angles, the ordering-maximized
sine-product aggregate, and numerical subspace intersection.

Every restricted-singular-value quantity funnels through one kernel,
`edge_min_singular_values` (numpy's batched LAPACK SVD over one (E, w)
column-index array); callers look it up on this module at call time.
The restricted lower bounds, least sigma_min(A_S) / sqrt(|S|) over a family
of column sets S, are read from one table: `_column_table` lists the
distinct sets of several families once by width, with the rows that each
family reads, and `_table_bounds` makes one kernel call per width and takes
each family's least value. `lower_bound_k` and `restricted_lower_bound` are
tables of one family; the certificate's `L2`, `L2k` and `L2H` share one
table per hypergraph (`constants._bound_plan`). A value of a stacked SVD
does not depend on what it is stacked with, so every bound is the same bits
as from its family alone.
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
equal shape share one stacked SVD of at most _STACK_BLOCK matrices; numpy's
stacked LAPACK gufuncs run the same routine on each matrix of a stack, with
the same workspace, so every value is bit-identical to one factorization
per pair. `friedrichs_angle` is a batch of one, `intersect` folds its list
pair by pair, and `_subset_dp` runs each DP level as one batch and meets
each whole collection as `intersect` does. In the same way
`orthonormal_basis` is a batch of one of `_bases`, which factors matrices
of equal shape in one stacked SVD. Inside, bases are raw orthonormal
arrays; a `Subspace`, with its checks, is built only where a public
function takes or returns one.

One set of level arrays serves every xi recursion: `_subset_levels` lists,
per subset size, the subsets in colex order and the position of each
subset without each member one level below. `_subset_dp` walks them over
general subspaces (`xi`, the Lemma-3 check), and `constants._c2_plan` walks
the same arrays over edge spans, whose sines `constants.compute_C2` reads
from its own table, since the meets of edge spans are spans of shared
columns there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError
from .hypergraph import DEFAULT_EDGE_CAP, as_integer

# Relative rank tolerance: double-precision SVD noise floor with safety margin.
DEFAULT_RANK_TOL = 1e-9
# Orthonormality tolerance on stored subspace bases.
_ORTHO_TOL = 1e-10
# All orderings of a subspace collection are enumerated; factorial guardrail.
DEFAULT_ORDERING_CAP = 8
# Guardrail on the number of determinants the spark polynomial evaluates.
DEFAULT_MINOR_CAP = 500_000
# Matrices per stacked SVD of principal angles, in the DP and in the C2
# table; bounds the memory of the stacked LAPACK calls.
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


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^ambient held as an orthonormal basis (dim 0 allowed).

    The basis is checked and kept as a read-only C-ordered copy; an integral
    float ambient counts as its integer (``hypergraph.as_integer``).
    """

    ambient: int
    basis: np.ndarray

    def __post_init__(self):
        ambient = as_integer(self.ambient, "ambient dimension")
        basis = np.array(self.basis, dtype=float, order="C")
        if basis.ndim != 2 or basis.shape[0] != ambient:
            raise ValueError("basis must be an (ambient, dim) array")
        dim = basis.shape[1]
        if dim > ambient:
            raise ValueError("dimension exceeds ambient dimension")
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis has non-finite entries")
        if dim and np.max(np.abs(basis.T @ basis - np.eye(dim))) > _ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal")
        basis.flags.writeable = False
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self):
        return self.basis.shape[1]

    def project(self, x):
        """Orthogonal projection of a vector or matrix onto the subspace."""
        return _project(self.basis, x)


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
    return Subspace(mat.shape[0], _bases([mat], rank_tol)[0])


def _bases(mats, rank_tol):
    """The basis of ``orthonormal_basis`` of each finite 2-D matrix of a
    list, as an array, from one stacked SVD per shape; a basis is the same
    whatever it is stacked with."""
    results = [None] * len(mats)
    for _, idx in _groups([mat.shape for mat in mats]):
        u, s, _ = np.linalg.svd(np.stack([mats[i] for i in idx]), full_matrices=False)
        # the zero matrix has no singular value above 0, so it gets dimension 0
        ranks = np.count_nonzero(s > rank_tol * s[:, :1], axis=1)
        for rank, sub in _groups(ranks.tolist()):
            for i, basis in zip(sub, u[sub, :, :rank]):
                results[idx[i]] = basis
    return results


def column_span(mat, support, rank_tol=DEFAULT_RANK_TOL):
    """Span of the matrix columns selected by a 1-based support set, taken in
    the support's order; a vertex outside [1, m] raises ValueError."""
    mat = as_matrix(mat)
    n, m = mat.shape
    cols = [as_integer(v, "vertex") - 1 for v in support]
    for c in cols:
        if not 0 <= c < m:
            raise ValueError(f"vertex {c + 1} outside [1, {m}]")
    if not cols:
        return Subspace(n, np.zeros((n, 0)))
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


def edge_min_singular_values(mat, edges):
    """Smallest singular value of ``mat[:, edge]`` for every row of ``edges``.

    ``edges`` is an (E, w) array of 0-based column indices. Width zero and
    widths above the row count are rank deficient by shape and give zeros.
    A stack of matrices (..., n, m) gives a (..., E) array from one stacked
    SVD, each value the same as from its matrix alone.
    """
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.intp)
    if edges.ndim != 2:
        raise ValueError("edges must be an (E, w) index array")
    n_rows, n_cols = mat.shape[-2:]
    if edges.size and (edges.min() < 0 or edges.max() >= n_cols):
        raise ValueError("edge index out of range for the given matrix")
    if not 0 < edges.shape[1] <= n_rows:
        return np.zeros(mat.shape[:-2] + (len(edges),))
    return np.linalg.svd(np.moveaxis(mat[..., edges], -3, -2), compute_uv=False)[..., -1]


def _column_table(families):
    """The distinct column sets of ``families`` by width, and where each
    family reads them.

    A family is a list of sequences of 0-based column indices. Returns a
    dict from each width, in first-seen order, to the (G, width) array of
    its distinct sets in first-seen order, and per family the position of
    each of its sets in those arrays laid end to end, in the dict's order.
    Every array is read-only, so a cached table can be shared.
    """
    stacks = {}
    for columns in itertools.chain.from_iterable(families):
        stacks.setdefault(len(columns), {})[tuple(columns)] = None
    position = {c: row for row, c in enumerate(itertools.chain(*stacks.values()))}
    return ({width: _frozen(list(rows)) for width, rows in stacks.items()},
            tuple(_frozen([position[tuple(c)] for c in family]) for family in families))


def _table_bounds(mat, table):
    """Per family of a ``_column_table``, the least smallest singular value
    of its column sets over the square root of their width, from one kernel
    call per width. A stack of matrices (..., n, m) gives, per family, the
    nested list of the bound of each matrix."""
    values = np.concatenate([edge_min_singular_values(mat, sets) / np.sqrt(width)
                             for width, sets in table[0].items()], axis=-1)
    return [np.min(values[..., rows], axis=-1).tolist() for rows in table[1]]


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
    columns = [[v - 1 for v in edge] for edge in hypergraph.edges]
    return _table_bounds(mat, _column_table([columns]))[0]


def lower_bound_k(mat, k):
    """Restricted lower bound over all size-k column subsets; an integral
    float k counts as its integer (``hypergraph.as_integer``)."""
    mat = as_matrix(mat, "dictionary")
    subsets = k_subsets(mat.shape[1], as_integer(k, "k")).tolist()
    return _table_bounds(mat, _column_table([subsets]))[0]


def spark_from_bound(bound, width, smax, rank_tol=DEFAULT_RANK_TOL):
    """Spark verdict from the lower bound over all ``width``-column subsets."""
    return bound * math.sqrt(width) > rank_tol * smax


def spark_condition(mat, k, rank_tol=DEFAULT_RANK_TOL):
    """True iff every set of min(2k, m) columns is linearly independent.

    Equivalent to the restricted lower bound over min(2k, m)-subsets clearing
    the rank-scaled threshold rank_tol * (largest singular value of mat).
    """
    mat = as_matrix(mat, "dictionary")
    k = as_integer(k, "k")
    if k < 1:
        raise ValueError("sparsity level must be positive")
    width = min(2 * k, mat.shape[1])
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])
    return spark_from_bound(lower_bound_k(mat, width), width, smax, rank_tol)


def spark_polynomial(mat, k):
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
    k = as_integer(k, "k")
    if k < 1:
        raise ValueError("sparsity level must be positive")
    width = 2 * k
    if width > min(n, m):
        raise ValueError(f"need 2k <= min(n, m), got 2k={width}, shape {n}x{m}")
    n_minors = math.comb(m, width) * math.comb(n, width)
    if n_minors > DEFAULT_MINOR_CAP:
        raise CapExceededError(f"{n_minors} minors exceed cap {DEFAULT_MINOR_CAP}")
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
    residual = u.basis - _project(v.basis, u.basis)
    top = float(np.linalg.svd(residual, compute_uv=False)[0])
    return min(top, 1.0)


def _groups(keys):
    """Indices by key, in first-seen key order."""
    groups = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    return groups.items()


def _frozen(values):
    """A read-only intp array of ``values``."""
    array = np.array(values, dtype=np.intp)
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=8)
def _subset_levels(count, size):
    """The levels of a subset DP over ``count`` items, for 2 to ``size``
    members, each as read-only arrays shared by every caller.

    Level s holds the s-subsets of range(count) in colex order, one sorted
    row each, and for each member j the position one level below of the
    subset without its j-th member. A subset's colex position, the sum of
    C(c_i, i + 1) over its sorted members c_i, does not depend on
    ``count``, so the subsets of range(c) for any c < count are a prefix of
    every level. Levels above ``count`` are empty and left out.
    """
    binomials = np.array([[math.comb(v, j) for j in range(size + 1)]
                          for v in range(count)], dtype=np.intp)

    def ranks(combos):
        return binomials[combos, np.arange(1, combos.shape[1] + 1)].sum(axis=1)

    levels = []
    for s in range(2, min(size, count) + 1):
        combos = k_subsets(count, s, cap=math.inf)
        combos = combos[np.argsort(ranks(combos))]
        below = np.column_stack([ranks(np.delete(combos, j, axis=1)) for j in range(s)])
        levels.append((_frozen(combos), _frozen(below)))
    return tuple(levels)


def _principal(pairs, rank_tol):
    """Friedrichs sine and meet of (u, w) pairs of orthonormal bases of equal
    ambient dimension.

    One SVD of the residual U - W (W^T U) per pair, stacked by shape in
    stacks of at most _STACK_BLOCK: its singular values are the sines of the
    principal angles of u against w. Those at or below rank_tol are meet
    directions, and U times their right singular vectors is the meet basis;
    the next smallest is the Friedrichs sine, returned with its right
    singular vector. The sine is 1, with no vector, when the meet is all of
    u or either side is zero.
    """
    results = [None] * len(pairs)
    for (n, p, q), idx in _groups([u.shape + w.shape[1:] for u, w in pairs]):
        if p == 0 or q == 0:
            zero = np.zeros((n, 0))
            for i in idx:
                results[i] = (1.0, zero, None)
            continue
        for lo in range(0, len(idx), _STACK_BLOCK):
            block = idx[lo:lo + _STACK_BLOCK]
            u = np.stack([pairs[i][0] for i in block])
            w = np.stack([pairs[i][1] for i in block])
            _, s, vt = np.linalg.svd(u - w @ (np.swapaxes(w, 1, 2) @ u),
                                     full_matrices=False)
            dims = np.count_nonzero(s <= rank_tol, axis=1)
            for d, sub in _groups(dims.tolist()):
                meets = u[sub] @ np.swapaxes(vt[sub, p - d:], 1, 2)
                for i, meet in zip(sub, meets):
                    if d == p:
                        results[block[i]] = (1.0, meet, None)
                    else:
                        results[block[i]] = (float(s[i, p - 1 - d]), meet,
                                             vt[i, p - 1 - d])
    return results


def _collection(subspaces):
    """The bases of a nonempty collection of subspaces of one ambient dimension."""
    spaces = list(subspaces)
    if not spaces:
        raise ValueError("empty collection")
    if any(s.ambient != spaces[0].ambient for s in spaces):
        raise ValueError("ambient dimensions differ")
    return [s.basis for s in spaces]


def intersect(subspaces, rank_tol=DEFAULT_RANK_TOL):
    """Numerical intersection of a collection of subspaces.

    Folds the list in order: each space is met with the intersection of the
    ones before it, keeping the directions whose principal-angle sine is at
    or below rank_tol.
    """
    _check_rank_tol(rank_tol)
    bases = _collection(subspaces)
    meet = bases[0]
    for basis in bases[1:]:
        meet = _principal([(basis, meet)], rank_tol)[0][1]
    return Subspace(meet.shape[0], meet)


def friedrichs_angle(u, w, rank_tol=DEFAULT_RANK_TOL):
    """Principal angle between the subspaces after removing their intersection.

    Returns a value in (0, pi/2]; pi/2 whenever either complement of the
    intersection is trivial (in particular when one contains the other).
    The angle is atan2 of the Friedrichs sine and the cosine of the same
    principal vector, accurate at both ends of the range.
    """
    _check_rank_tol(rank_tol)
    if u.ambient != w.ambient:
        raise ValueError("ambient dimensions differ")
    if u.dim == 0 and w.dim == 0:
        raise ValueError("at least one subspace must be nonzero")
    sine, _, vector = _principal([(u.basis, w.basis)], rank_tol)[0]
    if vector is None:
        return math.pi / 2
    cosine = float(np.linalg.norm(w.basis.T @ (u.basis @ vector)))
    return math.atan2(sine, cosine)


def _subset_dp(collections, max_size, rank_tol):
    """The product P of ``xi`` for every subset of at most ``max_size``
    members of each collection of orthonormal bases, and the meet of each
    whole collection.

    Per collection, one array per subset size s from 1 holds, over the
    s-subsets in the colex order of ``_subset_levels``, the maximum over
    orderings of the product of squared Friedrichs sines: at each level
    best = max_j (sine_j ** 2 * best[below_j]) over the members j in index
    order, each factor squared as a Python float. All (member, rest) pairs
    of a level, over every collection, go to one ``_principal`` call. The
    pair of a subset's last member gives its meet for the next level, so
    meets are intersected in index order, as ``intersect`` folds a list,
    and the meet of a whole collection is that of ``intersect`` bit for bit
    (None for a collection of more than ``max_size`` bases).
    """
    sizes = [len(bases) for bases in collections]
    levels = _subset_levels(max(sizes), max_size)
    bests = [[np.ones(size)] for size in sizes]
    meets = [list(bases) for bases in collections]
    whole = [bases[0] if len(bases) == 1 else None for bases in collections]
    for s, (members, below) in enumerate(levels, 2):
        live = [(c, math.comb(size, s)) for c, size in enumerate(sizes) if size >= s]
        results = iter(_principal(
            [(collections[c][a], meets[c][b]) for c, count in live
             for a, b in zip(members[:count].ravel().tolist(),
                             below[:count].ravel().tolist())], rank_tol))
        for c, count in live:
            found = list(itertools.islice(results, count * s))
            factors = np.array([sine ** 2 for sine, _, _ in found]).reshape(count, s)
            bests[c].append((factors * bests[c][-1][below[:count]]).max(axis=1))
            meets[c] = [meet for _, meet, _ in found[s - 1::s]]
            if count == 1:
                whole[c] = meets[c][0]
    return bests, whole


def _xi_from_product(product):
    """sqrt(1 - P), clamped to [0, 1] against floating-point overshoot."""
    return math.sqrt(min(max(1.0 - product, 0.0), 1.0))


def _xis(collections, rank_tol):
    """``xi`` and the meet basis of each collection of bases, from one
    batched subset DP."""
    bests, meets = _subset_dp(collections, max(map(len, collections)), rank_tol)
    return [_xi_from_product(best[-1][0]) for best in bests], meets


def xi(subspaces, rank_tol=DEFAULT_RANK_TOL):
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
    _check_rank_tol(rank_tol)
    spaces = list(subspaces)
    if len(spaces) > DEFAULT_ORDERING_CAP:
        raise CapExceededError(
            f"{len(spaces)} subspaces exceed ordering cap {DEFAULT_ORDERING_CAP}"
        )
    bases = _collection(spaces)
    if any(basis.shape[1] == 0 for basis in bases):
        raise ValueError("collection contains the zero subspace")
    return _xis([bases], rank_tol)[0][0]


def distance_to_subspace(x, space):
    """Euclidean distance from a point to a subspace."""
    return _distance(np.asarray(x, dtype=float), space.basis)


def _project(basis, x):
    """Orthogonal projection onto the span of an orthonormal basis."""
    return basis @ (basis.T @ x)


def _distance(x, basis):
    """Euclidean distance from a point to the span of an orthonormal basis."""
    return float(np.linalg.norm(x - _project(basis, x)))
