"""Fixtures and reference checks that the tests share and the package does not
export: the benchmark's workload module, the power-node code family,
Gaussian codes drawn edge by edge, spans of
dictionary columns, a point's distance to a subspace, the certificate's spark
verdict on a bare matrix, the brute-force admissibility check of one
Lemma-4 edge map, and candidate stacks with planted ties for the sweep
verifier."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np

from sparsecert import SparseCodeSet, Subspace, lower_bound_k, orthonormal_basis, regularity
from sparsecert import geometry

# the benchmark's instances and records, read from its source file
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def power_node_codes(supports, count, gammas, m):
    """``count`` codes gamma_i^j (j = 1..count) on each support, the blocks
    side by side in support order; node gamma_i sits on the support's i-th
    smallest vertex. For distinct nonzero nodes any k columns of a block are
    independent in exact arithmetic (the paper's witness), and they grow
    ill-conditioned with the count."""
    supports = [tuple(sorted(support)) for support in supports]
    codes = np.zeros((m, count * len(supports)))
    powers = np.arange(1, count + 1)
    for block, support in enumerate(supports):
        for row, g in zip((v - 1 for v in support), gammas):
            codes[row, block * count:(block + 1) * count] = float(g) ** powers
    return SparseCodeSet(m, codes, tuple(s for s in supports for _ in range(count)),
                         max(map(len, supports)))


def edge_codes(rng, hypergraph, count):
    """``count`` Gaussian codes on every edge, drawn edge by edge: one
    standard_normal call of the edge's size by ``count`` per edge."""
    blocks, supports = [], []
    for edge in hypergraph.edges:
        block = np.zeros((hypergraph.m, count))
        block[[v - 1 for v in edge]] = rng.standard_normal((len(edge), count))
        blocks.append(block)
        supports += [edge] * count
    return SparseCodeSet(hypergraph.m, np.hstack(blocks), tuple(supports), hypergraph.k)


def column_span(mat, support, rank_tol=geometry.DEFAULT_RANK_TOL):
    """The span of the columns of a 1-based support, taken in the support's
    order; the empty support spans the zero subspace."""
    mat = np.asarray(mat, dtype=float)
    if not support:
        return Subspace(mat.shape[0], np.zeros((mat.shape[0], 0)))
    return orthonormal_basis(mat[:, [v - 1 for v in support]], rank_tol)


def distance(x, space):
    """Euclidean distance from a point to a subspace."""
    return float(np.linalg.norm(x - space.project(x)))


def spark_verdict(mat, k, rank_tol=geometry.DEFAULT_RANK_TOL):
    """The certificate's ``spark_ok`` for a dictionary alone: the lower bound
    over every min(2k, m) columns, read by ``geometry.spark_from_bound``."""
    width = min(2 * k, mat.shape[1])
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])
    return geometry.spark_from_bound(lower_bound_k(mat, width), width, smax, rank_tol)


def is_admissible_map(hypergraph, images):
    """Whether an edge map, one image (a set of elements) per edge in edge
    order, is admissible: the image sizes sum to at least the edge sizes, and
    every group of r or r + 1 edges meets in no more images' elements than
    edge vertices. Each group is checked on its own."""
    r = regularity(hypergraph)
    edges = hypergraph.edges
    if sum(len(set(image)) for image in images) < sum(map(len, edges)):
        return False
    for size in (r, r + 1):
        for group in itertools.combinations(range(len(edges)), size):
            images_meet = set.intersection(*(set(images[i]) for i in group))
            edges_meet = set.intersection(*(set(edges[i]) for i in group))
            if len(images_meet) > len(edges_meet):
                return False
    return True


# the kinds of candidate level that ``planted_candidates`` draws
PLANTED = ("orbit", "tie", "zeroed", "exact", "integer")


def planted_candidates(rng, a_mat, m_bar, kinds):
    """A stack of n x m_bar candidates for ``a_mat``, one level per kind.

    An orbit level scales and permutes the dictionary's columns (Gaussian
    columns where m_bar > m) and adds noise whose size differs by column,
    so one column sets the bottleneck; "tie" then copies the bottleneck
    column, or the least noisy one, onto another (an exact tie at the
    threshold or below it), "zeroed" zeroes some columns, and "exact" adds
    no noise at power-of-two scales (every matched cost exactly 0). An
    integer level has entries in -2..2, so its costs tie often. Returns the
    stack and, per level and target, the source column (-1 for none) and
    the scale it carries.
    """
    n, m = a_mat.shape
    stack = np.empty((len(kinds), n, m_bar))
    sources = np.full((len(kinds), m_bar), -1)
    diags = np.ones((len(kinds), m_bar))
    for level, kind in enumerate(kinds):
        if kind == "integer":
            stack[level] = rng.integers(-2, 3, (n, m_bar))
            continue
        perm = rng.permutation(max(m, m_bar))[:m_bar]
        diag = rng.choice([-2.0, -1.0, 0.5, 1.0, 4.0], m_bar)
        junk = rng.standard_normal((n, m_bar))
        cand = np.where(perm < m, a_mat[:, np.minimum(perm, m - 1)], junk) * diag
        sizes = 10.0 ** rng.uniform(-12, -3, m_bar)
        if kind != "exact":
            cand = cand + sizes * rng.standard_normal((n, m_bar))
        if kind == "tie" and m_bar > 1:
            copied = int(np.argmax(sizes) if rng.random() < 0.5 else np.argmin(sizes))
            cand[:, (copied + int(rng.integers(1, m_bar))) % m_bar] = cand[:, copied]
        if kind == "zeroed":
            cand[:, rng.random(m_bar) < 0.4] = 0.0
        stack[level] = cand
        sources[level] = np.where(perm < m, perm, -1)
        diags[level] = diag
    return stack, sources, diags
