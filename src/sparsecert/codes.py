"""Sparse code families and synthetic datasets.

Codes live in columns of an m x N matrix, each column carrying an explicit
support set. The power-node construction produces, for any count, codes on a
shared support with any k of them linearly independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, geometry
from .errors import CapExceededError, GenerationError, HypothesisError
from .hypergraph import has_sip, normalize_support, pairwise_unions, regularity

GENERATE_MAX_RETRIES = 10
# Guardrail on the k-subsets of one support's codes (or of one
# general_linear_position call). The subsets are streamed, so it bounds the
# work, not the memory; cyclic m=10, k=3 at 241 codes (2,303,960) fits.
SUBSET_WORK_CAP = 10_000_000
# Grid entries per block of the subset stream, over all stacked supports. A
# block pairs a run of first indices with one slice of the tail list, so
# its determinant grid holds at most this many doubles (128 KB); from k = 4
# the gathered k x k blocks take k^2 times that.
SCREEN_ROWS = 1 << 14


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
        which = np.array(which, dtype=np.intp)
        distinct_mask = np.zeros((self.m, len(distinct)), dtype=bool)
        for i, support in enumerate(distinct):
            distinct_mask[[v - 1 for v in support], i] = True
        self.support_mask = distinct_mask[:, which]
        oversize = np.array([len(s) for s in distinct], dtype=np.intp)[which] > self.k
        outside = np.any((self.codes != 0.0) & ~self.support_mask, axis=0)
        failing = np.flatnonzero(oversize | outside)
        if failing.size:
            col = int(failing[0])
            if oversize[col]:
                raise ValueError(f"support of column {col} larger than k={self.k}")
            raise ValueError(f"column {col} has entries outside its support")

    @property
    def n_codes(self):
        return self.codes.shape[1]

    def column(self, i):
        return self.codes[:, i]

    def l1_norms(self):
        return np.abs(self.codes).sum(axis=0)


def merge_code_sets(code_sets):
    """Concatenate code sets over a common vertex count."""
    sets = list(code_sets)
    if not sets:
        raise ValueError("nothing to merge")
    m = sets[0].m
    if any(cs.m != m for cs in sets):
        raise ValueError("vertex counts differ")
    codes = np.hstack([cs.codes for cs in sets])
    supports = tuple(s for cs in sets for s in cs.supports)
    return SparseCodeSet(m, codes, supports, max(cs.k for cs in sets))


def vandermonde_codes(support, count, gammas, m=None):
    """Codes gamma_i^j (j = 1..count) placed on a shared support.

    For distinct positive nodes any k = |support| of the resulting columns
    are linearly independent. Nodes must be distinct and nonzero; counts that
    would push gamma^count outside [1e-300, 1e300] are rejected.
    """
    if m is None:
        m = max(support)
    support = normalize_support(support, m)
    gammas = [float(g) for g in gammas]
    if len(gammas) != len(support):
        raise ValueError("need one node per support vertex")
    if count < 1:
        raise ValueError("count must be positive")
    if any(g == 0.0 for g in gammas):
        raise ValueError("nodes must be nonzero")
    if len(set(gammas)) != len(gammas):
        raise ValueError("nodes must be distinct")
    for g in gammas:
        magnitude = count * math.log10(abs(g))
        if magnitude < -300 or magnitude > 300:
            raise ValueError(f"|{g}|^{count} outside the representable range")
    codes = np.zeros((m, count))
    powers = np.arange(1, count + 1)
    for row, g in zip((v - 1 for v in support), gammas):
        codes[row] = g ** powers
    return SparseCodeSet(m, codes, (support,) * count, len(support))


def general_linear_position(vectors, k, rank_tol=geometry.DEFAULT_RANK_TOL,
                            subset_cap=SUBSET_WORK_CAP):
    """True iff every k of the vectors are linearly independent.

    Exhaustive over all k-subsets, which ``subsets_independent`` streams
    and screens; more than ``subset_cap`` of them raise CapExceededError
    before any is checked. Independence is judged by the subset's smallest
    singular value clearing rank_tol times the largest singular value of
    the whole stack.
    """
    mat = _vectors(vectors, k)
    count = mat.shape[1]
    if count >= k and math.comb(count, k) > subset_cap:
        raise CapExceededError(f"{math.comb(count, k)} {k}-subsets exceed cap "
                               f"{subset_cap}")
    return subsets_independent(mat, k, rank_tol)


def _vectors(vectors, k):
    """The vectors as the columns of a finite 2-D float array; k must be
    positive."""
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2:
        raise ValueError("vectors must stack into a 2-D array")
    if k < 1:
        raise ValueError("k must be positive")
    if not np.all(np.isfinite(mat)):
        raise ValueError("vectors have non-finite entries")
    return mat


def subsets_independent(mat, k, rank_tol=geometry.DEFAULT_RANK_TOL):
    """True iff every k columns of ``mat`` are linearly independent.

    Each k-subset T must have a smallest singular value above rank_tol
    times the largest singular value of ``mat``; with fewer than k columns
    there is none. The columns' coordinates in the top-k left singular
    subspace of ``mat`` (padded with zero rows when the rank is lower) lose
    nothing of sigma_min(mat[:, T]). The subsets are walked in first-index
    blocks (``geometry.unsettled_subsets``), and the determinants of their
    column-normalised k x k blocks, from the first-column Laplace expansion
    against the tail minors (``geometry.hadamard_floor``), bound it from
    below (``geometry.sigma_floor``). A subset whose bound clears
    (rank_tol + SCREEN_SLACK) times the largest singular value is proved
    independent, and a determinant above the ``geometry.settling_floor``
    of that threshold proves it without the bound; every other subset gets
    the exact SVD of ``mat[:, T]``. The first block with a failing subset
    ends the check. Non-finite entries and k < 1 raise ValueError.
    """
    mat = _vectors(mat, k)
    return mat.shape[1] < k or _stack_independent(mat[None], k, rank_tol)


def _stack_independent(mats, k, rank_tol):
    """``subsets_independent`` of each matrix of an (S, n, N) stack, with
    N >= k, from one stream of subset blocks for the whole stack."""
    smax = np.linalg.svd(mats, compute_uv=False)[:, 0]
    basis = np.linalg.svd(mats, full_matrices=False)[0][..., :k]
    coords = np.zeros((len(mats), k, mats.shape[2]))
    for s, (vectors, mat) in enumerate(zip(basis, mats)):
        coords[s, :vectors.shape[1]] = vectors.T @ mat
    units, norms = geometry.unit_columns(coords)
    glp_settle = geometry.settling_floor((rank_tol + geometry.SCREEN_SLACK) * smax,
                                         [geometry.sigma_scale(k), norms.min(axis=1)])
    columns, norms = np.concatenate(mats, axis=1), norms.ravel()
    return all(
        _independent(columns, subsets, geometry.sigma_floor(floor, norms, subsets),
                     smax[owners], rank_tol)
        for owners, subsets, floor in geometry.unsettled_subsets(
            units, SCREEN_ROWS, lambda: glp_settle))


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
    sv = _kernels.edge_min_singular_values(mat, subsets[~proved])
    return bool(np.all(sv > rank_tol * smax[~proved]))


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
    if eta < 0:
        raise ValueError("eta must be nonnegative")
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


def generate_instance(m, n, k, hypergraph, per_support_count, seed=None,
                      max_retries=GENERATE_MAX_RETRIES,
                      rank_tol=geometry.DEFAULT_RANK_TOL):
    """Random dictionary plus per-edge power-node codes, verified post hoc.

    The dictionary has independent standard normal entries; each edge gets
    ``per_support_count`` codes with nodes drawn from [0.5, 1.5] (distinct by
    rejection). The draw is accepted only if the instance passes all
    certificate hypotheses: SIP, regularity, positive restricted lower bound
    over pairwise unions, the spark condition, general linear position per
    support, and the per-support counts. Retries with fresh randomness up to
    ``max_retries`` times, then raises GenerationError.
    """
    if n < min(2 * k, m):
        raise ValueError(f"need n >= min(2k, m) = {min(2 * k, m)}, got n={n}")
    if per_support_count < 1:
        raise ValueError("per_support_count must be positive")
    if hypergraph.m != m or hypergraph.k != k:
        raise ValueError("hypergraph does not match the requested (m, k)")
    if not has_sip(hypergraph):
        raise HypothesisError("hypergraph lacks the singleton intersection property")
    if regularity(hypergraph) is None:
        raise HypothesisError("hypergraph is not regular")
    rng = np.random.default_rng(seed)
    unions = pairwise_unions(hypergraph)
    for _ in range(max_retries):
        mat = rng.standard_normal((n, m))
        blocks = []
        for edge in hypergraph.edges:
            while True:
                gammas = rng.uniform(0.5, 1.5, size=k)
                if len(set(gammas)) == k:
                    break
            blocks.append(vandermonde_codes(edge, per_support_count, gammas, m=m))
        codes = merge_code_sets(blocks)
        if _instance_verified(mat, codes, hypergraph, unions, per_support_count,
                              k, rank_tol):
            return mat, codes
    raise GenerationError(f"no verified instance after {max_retries} attempts")


def _instance_verified(mat, codes, hypergraph, unions, per_support_count, k,
                       rank_tol):
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])
    if geometry.restricted_lower_bound(mat, unions) <= rank_tol * smax:
        return False
    if not geometry.spark_condition(mat, k, rank_tol):
        return False
    by_count = {}
    for ids in support_index_sets(codes, hypergraph).values():
        if len(ids) < per_support_count:
            return False
        by_count.setdefault(len(ids), []).append(ids)
    for count in by_count:
        if count >= k and math.comb(count, k) > SUBSET_WORK_CAP:
            raise CapExceededError(f"{math.comb(count, k)} {k}-subsets exceed cap "
                                   f"{SUBSET_WORK_CAP}")
    # general linear position of every support, one stream per code count
    return all(count < k or _stack_independent(
                   np.stack([codes.codes[:, ids] for ids in group]), k, rank_tol)
               for count, group in by_count.items())
