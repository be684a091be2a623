"""Support-set hypergraphs: construction, regularity, and star-intersection checks.

Vertices are numbered 1..m everywhere callers can see them. Edges are kept as
sorted duplicate-free tuples and the edge list itself is sorted, so equal
hypergraphs compare equal and set operations are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import CapExceededError

# Guardrail on every enumeration of edges or of k-subsets.
DEFAULT_EDGE_CAP = 1_000_000


def normalize_support(indices, m):
    """Canonical support set: sorted duplicate-free tuple of vertices in [1, m]."""
    support = tuple(sorted({int(i) for i in indices}))
    for v in support:
        if not 1 <= v <= m:
            raise ValueError(f"vertex {v} outside [1, {m}]")
    return support


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set [1, m] plus a duplicate-free collection of support sets.

    ``k`` is the common edge size when the hypergraph is uniform, else None.
    """

    m: int
    edges: tuple = ()
    k: int | None = field(init=False, default=None)

    def __post_init__(self):
        if int(self.m) < 1:
            raise ValueError("vertex count must be positive")
        object.__setattr__(self, "m", int(self.m))
        canonical = sorted({normalize_support(e, self.m) for e in self.edges})
        object.__setattr__(self, "edges", tuple(canonical))
        sizes = {len(e) for e in self.edges}
        object.__setattr__(self, "k", sizes.pop() if len(sizes) == 1 else None)

    def __len__(self):
        return len(self.edges)


def build_cyclic(m, k):
    """Hypergraph of the m consecutive length-k intervals in cyclic vertex order."""
    if not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    edges = [
        tuple(sorted((start + t) % m + 1 for t in range(k))) for start in range(m)
    ]
    return Hypergraph(m, edges)


def build_complete(m, k, cap=DEFAULT_EDGE_CAP):
    """All size-k subsets of [1, m]."""
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    count = math.comb(m, k)
    if count > cap:
        raise CapExceededError(f"{count} edges exceed cap {cap}")
    return Hypergraph(m, itertools.combinations(range(1, m + 1), k))


def build_grid(m):
    """Rows and columns of [1, m] arranged into a square grid (m a perfect square)."""
    k = math.isqrt(m)
    if k * k != m or k < 2:
        raise ValueError(f"m={m} is not a perfect square >= 4")
    rows = [tuple(r * k + c + 1 for c in range(k)) for r in range(k)]
    cols = [tuple(r * k + c + 1 for r in range(k)) for c in range(k)]
    return Hypergraph(m, rows + cols)


def star(hypergraph, i):
    """The edges containing vertex i."""
    if not 1 <= i <= hypergraph.m:
        raise ValueError(f"vertex {i} outside [1, {hypergraph.m}]")
    return [e for e in hypergraph.edges if i in e]


def regularity(hypergraph):
    """The common vertex degree r, or None when degrees differ or are all zero."""
    degrees = [0] * (hypergraph.m + 1)
    for edge in hypergraph.edges:
        for v in edge:
            degrees[v] += 1
    values = set(degrees[1:])
    if len(values) != 1:
        return None
    r = values.pop()
    return r if r > 0 else None


def has_sip(hypergraph):
    """True iff for every vertex the intersection of its star is exactly that vertex.

    Vertices with an empty star fail the check.
    """
    for i in range(1, hypergraph.m + 1):
        containing = [set(e) for e in hypergraph.edges if i in e]
        if not containing:
            return False
        if set.intersection(*containing) != {i}:
            return False
    return True


def pairwise_unions(hypergraph, cap=DEFAULT_EDGE_CAP):
    """All unions of unordered edge pairs, including each edge with itself."""
    n_edges = len(hypergraph.edges)
    n_pairs = n_edges * (n_edges + 1) // 2
    if n_pairs > cap:
        raise CapExceededError(f"{n_pairs} edge pairs exceed cap {cap}")
    unions = {
        tuple(sorted(set(a) | set(b)))
        for a, b in itertools.combinations_with_replacement(hypergraph.edges, 2)
    }
    return Hypergraph(hypergraph.m, unions)
