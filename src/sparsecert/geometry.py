"""Matrix and subspace geometry: restricted lower bounds, spark checks, the
spark polynomial, subspace distance, Friedrichs angles, the ordering-maximized
sine-product aggregate, and numerical subspace intersection.

Every restricted-singular-value quantity funnels through the `_kernels`
function (numpy's batched LAPACK SVD over one (E, w) column-index array).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
    """A subspace of R^ambient held as an orthonormal basis (dim 0 allowed)."""

    ambient: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != self.ambient:
            raise ValueError("basis must be an (ambient, dim) array")
        if basis.shape[1] > self.ambient:
            raise ValueError("dimension exceeds ambient dimension")
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis has non-finite entries")
        if basis.shape[1]:
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(basis.shape[1]))) > _ORTHO_TOL:
                raise ValueError("basis columns are not orthonormal")
        basis = basis.copy()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self):
        return self.basis.shape[1]

    def project(self, x):
        """Orthogonal projection of a vector or matrix onto the subspace."""
        return self.basis @ (self.basis.T @ x)


def orthonormal_basis(mat, rank_tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the column span at the given relative rank tolerance.

    The numerical rank is the number of singular values exceeding
    ``rank_tol`` times the largest one; the zero matrix yields dimension 0.
    """
    mat = as_matrix(mat)
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace(mat.shape[0], np.zeros((mat.shape[0], 0)))
    rank = int(np.sum(s > rank_tol * s[0]))
    return Subspace(mat.shape[0], u[:, :rank])


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

    Strictly positive iff every 2k columns are independent. Per-subset sums
    at or below the LU round-off floor of the determinant evaluations
    (minor count times (1e-12 x Hadamard column bound)^2) are indistinguishable
    from exact zeros and make the result exactly 0.0. Values can overflow to
    inf for large well-conditioned inputs; the zero/nonzero verdict survives.
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
    row_sets = np.array(list(itertools.combinations(range(n), width)))
    col_norms = np.linalg.norm(mat, axis=0)
    value = 1.0
    for cols in itertools.combinations(range(m), width):
        dets = np.linalg.det(mat[:, cols][row_sets])
        factor = float(np.sum(dets * dets))
        hadamard = float(np.prod(col_norms[list(cols)]))
        floor = len(row_sets) * (1e-12 * hadamard) ** 2
        if factor <= floor:
            return 0.0
        value *= factor
    return value


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


def intersect(subspaces, rank_tol=DEFAULT_RANK_TOL):
    """Numerical intersection of a collection of subspaces.

    Null directions of the summed complement projectors sum(I - P_i), i.e.
    eigenvectors with eigenvalue below rank_tol, orthonormalized.
    """
    spaces = list(subspaces)
    if not spaces:
        raise ValueError("empty collection")
    n = spaces[0].ambient
    if any(s.ambient != n for s in spaces):
        raise ValueError("ambient dimensions differ")
    acc = np.zeros((n, n))
    for s in spaces:
        acc += np.eye(n) - s.basis @ s.basis.T
    evals, evecs = np.linalg.eigh(acc)
    return Subspace(n, evecs[:, evals < rank_tol])


def _complement_within(space, sub, rank_tol):
    """Orthogonal complement of ``sub`` inside ``space`` (sub must lie in space).

    Bases are unit-scale, so the rank cut here is absolute at rank_tol.
    """
    if space.dim == 0 or sub.dim == 0:
        return space
    residual = space.basis - sub.basis @ (sub.basis.T @ space.basis)
    u, s, _ = np.linalg.svd(residual, full_matrices=False)
    rank = int(np.sum(s > rank_tol))
    return Subspace(space.ambient, u[:, :rank])


def friedrichs_angle(u, w, rank_tol=DEFAULT_RANK_TOL):
    """Principal angle between the subspaces after removing their intersection.

    Returns a value in (0, pi/2]; pi/2 whenever either complement of the
    intersection is trivial (in particular when one contains the other).
    Cosines are clamped to [0, 1] against floating-point overshoot.
    """
    if u.ambient != w.ambient:
        raise ValueError("ambient dimensions differ")
    if u.dim == 0 and w.dim == 0:
        raise ValueError("at least one subspace must be nonzero")
    meet = intersect([u, w], rank_tol)
    uc = _complement_within(u, meet, rank_tol)
    wc = _complement_within(w, meet, rank_tol)
    if uc.dim == 0 or wc.dim == 0:
        return math.pi / 2
    cosine = float(np.linalg.svd(uc.basis.T @ wc.basis, compute_uv=False)[0])
    return math.acos(min(max(cosine, 0.0), 1.0))


def _sine_products(spaces, max_size, rank_tol):
    """The product P of ``xi`` for every index subset of at most ``max_size`` spaces.

    Maps frozenset(ids) to the maximum over orderings of those spaces of the
    product of sin^2 Friedrichs angles, by dynamic programming over subsets.
    Meets are intersected in sorted index order and cached by subset, so one
    call serves every sub-collection with the arithmetic of a separate call.
    """
    n = spaces[0].ambient
    if any(s.ambient != n for s in spaces):
        raise ValueError("ambient dimensions differ")
    if any(s.dim == 0 for s in spaces):
        raise ValueError("collection contains the zero subspace")

    inter_cache = {}

    def meet(ids):
        if len(ids) == 1:
            return spaces[next(iter(ids))]
        if ids not in inter_cache:
            inter_cache[ids] = intersect([spaces[i] for i in sorted(ids)], rank_tol)
        return inter_cache[ids]

    best = {}
    for size in range(1, max_size + 1):
        for ids in itertools.combinations(range(len(spaces)), size):
            group = frozenset(ids)
            if size == 1:
                best[group] = 1.0
                continue
            top = 0.0
            for a in ids:
                rest = group - {a}
                angle = friedrichs_angle(spaces[a], meet(rest), rank_tol)
                value = math.sin(angle) ** 2 * best[rest]
                if value > top:
                    top = value
            best[group] = top
    return best


def _xi_from_product(product):
    """sqrt(1 - P), clamped to [0, 1] against floating-point overshoot."""
    return math.sqrt(min(max(1.0 - product, 0.0), 1.0))


def xi(subspaces, rank_tol=DEFAULT_RANK_TOL, ordering_cap=DEFAULT_ORDERING_CAP):
    """Ordering-maximized sine-product aggregate of a subspace collection.

    Zero for a single subspace; otherwise sqrt(1 - P) where P is the maximum
    over all orderings V_1, ..., V_l of the product over i < l of
    sin^2 of the Friedrichs angle between V_i and the intersection of the
    later ones. Always in [0, 1). The maximum is computed by dynamic
    programming over index subsets, which enumerates exactly the orderings.
    """
    spaces = list(subspaces)
    if not spaces:
        raise ValueError("empty collection")
    if len(spaces) > ordering_cap:
        raise CapExceededError(
            f"{len(spaces)} subspaces exceed ordering cap {ordering_cap}"
        )
    best = _sine_products(spaces, len(spaces), rank_tol)
    return _xi_from_product(best[frozenset(range(len(spaces)))])


def distance_to_subspace(x, space):
    """Euclidean distance from a point to a subspace."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - space.project(x)))
