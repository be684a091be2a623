"""Property checks behind the `check-lemmas` CLI command.

The distance-to-intersection inequality is probed on random subspace
collections; the injective-map counting statement is checked exhaustively
over all admissible edge maps at desk scale. Admissibility and the
guarantee depend only on the sizes of meets, so the maps are counted by
type (their orbits under relabelling of [m_bar]): images are assigned edge
by edge while the state is the sizes of the Venn atoms of the images so
far, and states with equal atom sizes merge with their counts added. The
counts are those of a labelled enumeration, and the size caps are the same.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import CapExceededError, HypothesisError
from .hypergraph import as_integer, has_sip, regularity

# Lemma-3 trials drawn together, whose bases and xi DPs share stacked
# factorizations; bounds the memory of a check whatever its trial count.
# check_lemma3(200) takes about 0.8x the time at 128 as at 32, and no less
# at 256 (one pinned CPU).
LEMMA3_BLOCK = 128
# A Lemma-3 sample violates the bound when its margin exceeds this slack;
# read at call time, as is the rank cut geometry.DEFAULT_RANK_TOL.
LEMMA3_SLACK = 1e-8
LEMMA4_MAX_M = 6
LEMMA4_MAX_EXTRA = 2
# The type count grows with the edges: complete m=4, k=2 at m_bar=6 (6 edges)
# takes about 20 s on one CPU, and 10 edges do not finish in minutes.
LEMMA4_MAX_EDGES = 6


@dataclass
class Lemma3Report:
    trials: int
    violations: int
    worst_margin: float
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return self.violations == 0


def _lemma3_draws(rng, ambient_dim, max_subspaces):
    """One trial's draws, in a fixed order: the matrices whose spans form the
    collection, a point, and the uniform that plants the point in the meet."""
    count = int(rng.integers(2, max_subspaces + 1))
    shared_dim = int(rng.integers(0, 3)) if rng.random() < 0.5 else 0
    shared = rng.standard_normal((ambient_dim, shared_dim))
    mats = []
    for _ in range(count):
        extra = int(rng.integers(1, max(2, ambient_dim // 2)))
        mats.append(np.hstack([shared, rng.standard_normal((ambient_dim, extra))]))
    return mats, rng.standard_normal(ambient_dim), rng.random()


def check_lemma3(trials=1000, ambient_dim=8, max_subspaces=4, seed=None):
    """Sample subspace collections and points; check the intersection bound.

    For each sample: dist(x, intersection) must not exceed
    sum_i dist(x, V_i) / (1 - xi) plus LEMMA3_SLACK, with ranks cut at
    geometry.DEFAULT_RANK_TOL. Roughly half the collections share a planted
    common subspace so the intersection is nontrivial; a point is planted
    inside a nonzero intersection when its uniform draw is below 0.2. The
    trials run in blocks of LEMMA3_BLOCK: a block takes all its draws
    first, in trial order (so the draws do not depend on the geometry),
    then the bases of all its collections from stacked SVDs, and each
    collection's xi and intersection from one batched subset DP. The
    collections and their meets stay raw basis arrays throughout; the
    counts are integers (``hypergraph.as_integer``).
    """
    trials = as_integer(trials, "trials")
    ambient_dim = as_integer(ambient_dim, "ambient dimension")
    max_subspaces = as_integer(max_subspaces, "max_subspaces")
    if trials < 1:
        raise ValueError("need at least one trial")
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be positive")
    if max_subspaces < 2:
        raise ValueError("need at least two subspaces per collection")
    if max_subspaces > geometry.DEFAULT_ORDERING_CAP:
        raise CapExceededError(
            f"{max_subspaces} subspaces exceed ordering cap "
            f"{geometry.DEFAULT_ORDERING_CAP}"
        )
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -np.inf
    failures = []
    for start in range(0, trials, LEMMA3_BLOCK):
        draws = [_lemma3_draws(rng, ambient_dim, max_subspaces)
                 for _ in range(start, min(start + LEMMA3_BLOCK, trials))]
        bases = iter(geometry._bases([mat for mats, _, _ in draws for mat in mats],
                                     geometry.DEFAULT_RANK_TOL))
        collections = [[next(bases) for _ in mats] for mats, _, _ in draws]
        aggregates, meets = geometry._xis(collections, geometry.DEFAULT_RANK_TOL)
        for trial, (spaces, (_, x, u), aggregate, meet) in enumerate(
                zip(collections, draws, aggregates, meets), start):
            if meet.shape[1] and u < 0.2:
                x = geometry._project(meet, x)
            lhs = geometry._distance(x, meet)
            total = sum(geometry._distance(x, v) for v in spaces)
            rhs = np.inf if aggregate >= 1.0 - 1e-15 else total / (1.0 - aggregate)
            margin = lhs - rhs
            worst = max(worst, margin)
            if margin > LEMMA3_SLACK:
                violations += 1
                failures.append({"trial": trial, "lhs": lhs, "rhs": rhs,
                                 "xi": aggregate, "count": len(spaces)})
    return Lemma3Report(trials, violations, float(worst), failures)


@dataclass
class Lemma4Report:
    """Outcome of the exhaustive injective-map check.

    ``admissible`` counts the admissible labelled edge maps and ``verified``
    those that meet the guarantee; ``types`` is the number of admissible
    maps up to relabelling of [m_bar]. ``counterexamples`` holds one map per
    type that fails the guarantee, its lexicographically smallest labelled
    map as image bitmasks in edge order, and is sorted; admissible - verified
    counts every failing labelled map, not only the listed ones.
    """

    m: int
    m_bar: int
    r: int
    guaranteed_size: int
    admissible: int
    verified: int
    types: int
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self):
        return self.admissible == self.verified and not self.counterexamples


def validate_lemma4(hypergraph, m_bar):
    """Reject a Lemma-4 input before any enumeration; returns the regularity r."""
    m_bar = as_integer(m_bar, "m_bar")
    if m_bar < 1:
        raise ValueError("m_bar must be a positive integer")
    r = regularity(hypergraph)
    if r is None:
        raise HypothesisError("hypergraph is not regular")
    if not has_sip(hypergraph):
        raise HypothesisError("hypergraph lacks the singleton intersection property")
    if hypergraph.m > LEMMA4_MAX_M or m_bar > hypergraph.m + LEMMA4_MAX_EXTRA:
        raise CapExceededError(
            f"sizes (m={hypergraph.m}, m_bar={m_bar}) above the exhaustive-check cap"
        )
    if len(hypergraph.edges) > LEMMA4_MAX_EDGES:
        raise CapExceededError(
            f"{len(hypergraph.edges)} edges above the exhaustive-check cap "
            f"of {LEMMA4_MAX_EDGES}"
        )
    return r


def check_lemma4(hypergraph, m_bar):
    """Exhaustively verify the injective-map guarantee over admissible edge maps.

    A map pi from edges to subsets of [m_bar] is admissible when the summed
    image sizes reach the summed edge sizes and every group of r or r+1
    edges satisfies |intersection of images| <= |intersection of edges|. For
    each admissible map, m_bar >= m must hold and (when (r-1) m_bar < m r)
    the vertices whose star images intersect in a single element must cover
    at least m_bar - r(m_bar - m) distinct elements.

    Both conditions depend only on the sizes of meets, so relabelling
    [m_bar] changes neither, and the maps are counted by type (their orbits
    under relabelling). Images are assigned edge by edge, in edge order; the
    state is the multiset of Venn atoms, an atom being the elements of
    [m_bar] with one pattern of membership in the images assigned so far.
    The next image takes t_a elements from each atom a, which ∏ C(|a|, t_a)
    labelled images do. The size condition and each group that ends at this
    edge are checked on the t vector (the group's meet takes the t_a of the
    atoms inside its earlier images), and states with equal atoms merge
    with their counts added. The final states are the admissible types.

    ``admissible`` and ``verified`` count labelled maps and ``types`` the
    admissible types. Each type that fails the guarantee contributes its
    lexicographically smallest labelled map, as image bitmasks in edge
    order, to the sorted ``counterexamples``; admissible - verified still
    counts every failing labelled map.
    """
    m_bar = as_integer(m_bar, "m_bar")
    r = validate_lemma4(hypergraph, m_bar)
    m = hypergraph.m
    edges = hypergraph.edges
    n_edges = len(edges)
    edge_masks = [sum(1 << (v - 1) for v in e) for e in edges]
    required_total = sum(len(e) for e in edges)

    # group constraints indexed by the highest edge they involve, each as
    # (the bitmask of the group's other edges, the group's cap)
    group_checks = [[] for _ in range(n_edges)]
    for size in (r, r + 1):
        if size > n_edges:
            continue
        for group in itertools.combinations(range(n_edges), size):
            others = sum(1 << idx for idx in group[:-1])
            group_checks[group[-1]].append(
                (others, _intersection_size(edge_masks, group)))

    # a state is its nonempty atoms as sorted (pattern, size) pairs, the
    # pattern being the bitmask of the edges whose images hold the atom; it
    # maps to the number of labelled partial maps of that type
    states = {((0, m_bar),): 1}
    for level in range(n_edges):
        need = required_total - (n_edges - 1 - level) * m_bar
        bit = 1 << level
        merged = {}
        for atoms, count in states.items():
            short = need - sum(size * pattern.bit_count() for pattern, size in atoms)
            caps = [
                ([a for a, (pattern, _) in enumerate(atoms)
                  if pattern & others == others], cap)
                for others, cap in group_checks[level]
            ]
            for takes in itertools.product(*(range(size + 1) for _, size in atoms)):
                if sum(takes) < short or any(
                        sum(takes[a] for a in inside) > cap for inside, cap in caps):
                    continue
                weight = count
                child = []
                for (pattern, size), t in zip(atoms, takes):
                    weight *= math.comb(size, t)
                    if t:
                        child.append((pattern | bit, t))
                    if t < size:
                        child.append((pattern, size - t))
                child = tuple(sorted(child))
                merged[child] = merged.get(child, 0) + weight
        states = merged

    stars = [
        sum(1 << idx for idx, e in enumerate(edges) if i in e)
        for i in range(1, m + 1)
    ]
    guaranteed = m_bar - r * (m_bar - m)
    proviso = (r - 1) * m_bar < m * r

    admissible = verified = 0
    counterexamples = []
    for atoms, count in states.items():
        admissible += count
        if _verify_type(atoms, stars, m, m_bar, guaranteed, proviso):
            verified += count
        else:
            counterexamples.append(_smallest_map(atoms, n_edges))
    counterexamples.sort()
    return Lemma4Report(m, m_bar, r, guaranteed, admissible, verified,
                        types=len(states), counterexamples=counterexamples)


def _intersection_size(edge_masks, group):
    meet = edge_masks[group[0]]
    for idx in group[1:]:
        meet &= edge_masks[idx]
    return meet.bit_count()


def _verify_type(atoms, stars, m, m_bar, guaranteed, proviso):
    if m_bar < m:
        return False
    if not proviso or guaranteed <= 0:
        return True
    # a star's image meet is a singleton when exactly one atom lies inside
    # it and that atom has one element, so distinct atoms are distinct elements
    singletons = set()
    for star in stars:
        inside = [(pattern, size) for pattern, size in atoms
                  if pattern & star == star]
        if len(inside) == 1 and inside[0][1] == 1:
            singletons.add(inside[0][0])
    return len(singletons) >= guaranteed


def _smallest_map(atoms, n_edges):
    """The lexicographically smallest labelled map of a type, as image bitmasks.

    Labelling the elements in decreasing order of their membership read in
    edge order puts each image's elements as low as the earlier images allow.
    """
    order = sorted(
        (pattern for pattern, size in atoms for _ in range(size)),
        key=lambda pattern: [-(pattern >> idx & 1) for idx in range(n_edges)],
    )
    return [
        sum(1 << label for label, pattern in enumerate(order) if pattern >> idx & 1)
        for idx in range(n_edges)
    ]
