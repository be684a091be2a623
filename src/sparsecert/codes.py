"""Sparse code families, synthetic datasets, and the k-subset screen of a
code family.

Codes live in columns of an m x N matrix, each column carrying an explicit
support set. The power-node construction produces, for any count, codes on a
shared support with any k of them linearly independent.

``_code_checks`` is the one check of the k-subsets of every support's codes:
general linear position (GLP) and the C1 denominator, from one screened
subset stream per code count. ``generate_instance`` accepts a draw by its
GLP verdict, and ``constants.build_certificate`` reports both results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels, geometry
from .errors import CapExceededError, GenerationError, HypothesisError
from .hypergraph import has_sip, normalize_support, pairwise_unions, regularity

GENERATE_MAX_RETRIES = 10
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
    sv = _kernels.edge_min_singular_values(stack.product, subsets)
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
    rejection), so every support holds exactly that many codes. The
    hypergraph must have SIP and be regular, and ``per_support_count`` must
    be at least k. A draw is accepted by the certificate's own checks: a
    positive restricted lower bound over pairwise unions, the spark
    condition, and general linear position of every support's codes
    (``_code_checks``). Retries with fresh randomness up to ``max_retries``
    times, then raises GenerationError. A rank_tol that is not positive and
    finite raises ValueError before any draw.
    """
    geometry._check_rank_tol(rank_tol)
    if n < min(2 * k, m):
        raise ValueError(f"need n >= min(2k, m) = {min(2 * k, m)}, got n={n}")
    if per_support_count < k:
        raise ValueError(f"per_support_count must be at least k={k}, "
                         f"got {per_support_count}")
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
        smax = float(np.linalg.svd(mat, compute_uv=False)[0])
        if (geometry.restricted_lower_bound(mat, unions) > rank_tol * smax
                and geometry.spark_condition(mat, k, rank_tol)
                and _code_checks(mat, codes, hypergraph,
                                 support_index_sets(codes, hypergraph), rank_tol)[0]):
            return mat, codes
    raise GenerationError(f"no verified instance after {max_retries} attempts")
