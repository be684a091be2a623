"""Support-set hypergraphs: construction, regularity, and star-intersection checks.

Also the JSON config readers that the CLI and the experiment harness share:
``_config_integer`` and ``hypergraph_from_config``. They live here, beside
``as_integer``, so that ``sparsecert check-lemmas`` reads its config without
loading ``experiment``.

Vertices are numbered 1..m everywhere callers can see them. Edges are kept as
sorted duplicate-free tuples and the edge list itself is sorted, so equal
hypergraphs compare equal and set operations are deterministic.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field

from .errors import CapExceededError, HypothesisError

# Guardrail on every enumeration of edges or of k-subsets.
DEFAULT_EDGE_CAP = 1_000_000


def as_integer(value, name):
    """``value`` as an int: an integer, numpy's included, or a float without a
    fractional part (4.0 counts as 4). A fractional or non-finite number, a
    string or a boolean raises ValueError rather than being truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, float) and value.is_integer():
                return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_real(value, name):
    """``value`` as a float: an integer or a float, numpy's included. A string,
    a boolean or an integer beyond the float range raises ValueError rather
    than being converted."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _config_integer(section, key, default=None, name=None):
    """An integer from a JSON config section (``as_integer``). A key without a
    default must be present."""
    value = section[key] if default is None else section.get(key, default)
    return as_integer(value, name or key)


def normalize_support(indices, m):
    """Canonical support set: sorted duplicate-free tuple of vertices in [1, m]."""
    support = tuple(sorted({as_integer(i, "vertex") for i in indices}))
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
        m = as_integer(self.m, "vertex count")
        if m < 1:
            raise ValueError("vertex count must be positive")
        object.__setattr__(self, "m", m)
        canonical = sorted({normalize_support(e, self.m) for e in self.edges})
        object.__setattr__(self, "edges", tuple(canonical))
        sizes = {len(e) for e in self.edges}
        object.__setattr__(self, "k", sizes.pop() if len(sizes) == 1 else None)

    def __len__(self):
        return len(self.edges)


def build_cyclic(m, k):
    """Hypergraph of the m consecutive length-k intervals in cyclic vertex order."""
    m, k = as_integer(m, "m"), as_integer(k, "k")
    if not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    edges = [
        tuple(sorted((start + t) % m + 1 for t in range(k))) for start in range(m)
    ]
    return Hypergraph(m, edges)


def build_complete(m, k):
    """All size-k subsets of [1, m]."""
    m, k = as_integer(m, "m"), as_integer(k, "k")
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    count = math.comb(m, k)
    if count > DEFAULT_EDGE_CAP:
        raise CapExceededError(f"{count} edges exceed cap {DEFAULT_EDGE_CAP}")
    return Hypergraph(m, itertools.combinations(range(1, m + 1), k))


def build_grid(m):
    """Rows and columns of [1, m] arranged into a square grid (m a perfect square)."""
    m = as_integer(m, "m")
    k = math.isqrt(m)
    if k * k != m or k < 2:
        raise ValueError(f"m={m} is not a perfect square >= 4")
    rows = [tuple(r * k + c + 1 for c in range(k)) for r in range(k)]
    cols = [tuple(r * k + c + 1 for r in range(k)) for c in range(k)]
    return Hypergraph(m, rows + cols)


def hypergraph_from_config(kind, m, k):
    """The hypergraph a config names: "cyclic", "grid" or "complete"."""
    if kind == "cyclic":
        return build_cyclic(m, k)
    if kind == "grid":
        return build_grid(m)
    if kind == "complete":
        return build_complete(m, k)
    raise ValueError(f"unknown hypergraph kind {kind!r}")


def star(hypergraph, i):
    """The edges containing vertex i."""
    i = as_integer(i, "vertex")
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
        containing = star(hypergraph, i)
        if not containing or set(containing[0]).intersection(*containing[1:]) != {i}:
            return False
    return True


def _require_regular_sip(hypergraph):
    """The regularity r of a hypergraph that is regular and has the singleton
    intersection property, the design that the generator and Lemma 4 need;
    HypothesisError names the first of the two that fails, regularity
    first."""
    r = regularity(hypergraph)
    if r is None:
        raise HypothesisError("hypergraph is not regular")
    if not has_sip(hypergraph):
        raise HypothesisError("hypergraph lacks the singleton intersection property")
    return r


def pairwise_unions(hypergraph):
    """All unions of unordered edge pairs, including each edge with itself."""
    n_pairs = math.comb(len(hypergraph.edges) + 1, 2)
    if n_pairs > DEFAULT_EDGE_CAP:
        raise CapExceededError(f"{n_pairs} edge pairs exceed cap {DEFAULT_EDGE_CAP}")
    pairs = itertools.combinations_with_replacement(hypergraph.edges, 2)
    return Hypergraph(hypergraph.m, {frozenset(a).union(b) for a, b in pairs})
