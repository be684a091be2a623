"""Matrix and subspace geometry: restricted lower bounds, the spark verdict
read from them and the spark polynomial, subspace distance, Friedrichs angles,
the ordering-maximized sine-product aggregate, and numerical subspace
intersection.

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


def k_subsets(count, k, cap=DEFAULT_EDGE_CAP):
    """All k-subsets of range(count), in lexicographic order, as an (E, k) array."""
    if not 1 <= k <= count:
        raise ValueError(f"need 1 <= k <= count, got k={k}, count={count}")
    n_subsets = math.comb(count, k)
    if n_subsets > cap:
        raise CapExceededError(f"{n_subsets} {k}-subsets exceed cap {cap}")
    flat = itertools.chain.from_iterable(itertools.combinations(range(count), k))
    return np.fromiter(flat, dtype=np.intp, count=n_subsets * k).reshape(n_subsets, k)


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


def edge_min_singular_values(mat, edges):
    """Smallest singular value of ``mat[:, edge]`` for every row of ``edges``.

    ``edges`` is an (E, w) array of 0-based column indices. Width zero and
    widths above the row count are rank deficient by shape and give zeros.
    """
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.intp)
    if edges.ndim != 2:
        raise ValueError("edges must be an (E, w) index array")
    n_rows, n_cols = mat.shape
    if edges.size and (edges.min() < 0 or edges.max() >= n_cols):
        raise ValueError("edge index out of range for the given matrix")
    if not 0 < edges.shape[1] <= n_rows:
        return np.zeros(len(edges))
    return np.linalg.svd(mat[:, edges].transpose(1, 0, 2), compute_uv=False)[:, -1]


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
    call per width."""
    values = np.concatenate([edge_min_singular_values(mat, sets) / np.sqrt(width)
                             for width, sets in table[0].items()])
    return [float(np.min(values[rows])) for rows in table[1]]


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
    """Spark verdict from the lower bound over all ``width``-column subsets.

    True iff every ``width`` columns are independent at ``rank_tol``: the
    least sigma_min over them clears rank_tol times ``smax``, the largest
    singular value of the dictionary. The certificate's ``spark_ok`` reads
    it at width min(2k, m).
    """
    return bound * math.sqrt(width) > rank_tol * smax


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


def _project(basis, x):
    """Orthogonal projection onto the span of an orthonormal basis."""
    return basis @ (basis.T @ x)


def _distance(x, basis):
    """Euclidean distance from a point to the span of an orthonormal basis."""
    return float(np.linalg.norm(x - _project(basis, x)))
