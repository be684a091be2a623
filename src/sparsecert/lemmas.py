"""Property checks behind the `check-lemmas` CLI command.

The distance-to-intersection inequality is probed on random subspace
collections; the injective-map counting statement is checked exhaustively
over all admissible edge maps at desk scale. That enumeration assigns edge
images one edge at a time and finds each edge's admissible images by ANDing
precomputed bitmasks over all 2^m_bar candidate images, instead of testing
the candidates one by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import CapExceededError, HypothesisError
from .hypergraph import has_sip, regularity

LEMMA4_MAX_M = 6
LEMMA4_MAX_EXTRA = 2


@dataclass
class Lemma3Report:
    trials: int
    violations: int
    worst_margin: float
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return self.violations == 0


def check_lemma3(trials=1000, ambient_dim=8, max_subspaces=4, seed=None,
                 slack=1e-8, rank_tol=geometry.DEFAULT_RANK_TOL):
    """Sample subspace collections and points; check the intersection bound.

    For each sample: dist(x, intersection) must not exceed
    sum_i dist(x, V_i) / (1 - xi) plus the slack. Roughly half the
    collections share a planted common subspace so the intersection is
    nontrivial; some points are planted inside it.
    """
    if max_subspaces < 2:
        raise ValueError("need at least two subspaces per collection")
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -np.inf
    failures = []
    for trial in range(trials):
        count = int(rng.integers(2, max_subspaces + 1))
        shared_dim = int(rng.integers(0, 3)) if rng.random() < 0.5 else 0
        shared = rng.standard_normal((ambient_dim, shared_dim))
        spaces = []
        for _ in range(count):
            extra = int(rng.integers(1, max(2, ambient_dim // 2)))
            block = np.hstack([shared, rng.standard_normal((ambient_dim, extra))])
            spaces.append(geometry.orthonormal_basis(block, rank_tol))
        meet = geometry.intersect(spaces, rank_tol)
        x = rng.standard_normal(ambient_dim)
        if meet.dim and rng.random() < 0.2:
            x = meet.project(x)
        lhs = geometry.distance_to_subspace(x, meet)
        aggregate = geometry.xi(spaces, rank_tol)
        total = sum(geometry.distance_to_subspace(x, v) for v in spaces)
        rhs = np.inf if aggregate >= 1.0 - 1e-15 else total / (1.0 - aggregate)
        margin = lhs - rhs
        worst = max(worst, margin)
        if margin > slack:
            violations += 1
            failures.append({"trial": trial, "lhs": lhs, "rhs": rhs,
                             "xi": aggregate, "count": count})
    return Lemma3Report(trials, violations, float(worst), failures)


@dataclass
class Lemma4Report:
    m: int
    m_bar: int
    r: int
    guaranteed_size: int
    admissible: int
    verified: int
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self):
        return self.admissible == self.verified and not self.counterexamples


def _image_masks(hypergraph, m_bar, images):
    if len(images) != len(hypergraph.edges):
        raise ValueError("one image per edge required")
    masks = []
    for image in images:
        mask = 0
        for v in image:
            if not 1 <= v <= m_bar:
                raise ValueError(f"image element {v} outside [1, {m_bar}]")
            mask |= 1 << (v - 1)
        masks.append(mask)
    return masks


def is_admissible_map(hypergraph, m_bar, images):
    """Whether an edge map (edge order -> vertex subsets of [1, m_bar]) is admissible.

    Admissible means the summed image sizes reach the summed edge sizes and
    every group of r or r+1 edges has |intersection of images| bounded by
    |intersection of edges|.
    """
    r = regularity(hypergraph)
    if r is None:
        raise HypothesisError("hypergraph is not regular")
    edges = hypergraph.edges
    masks = _image_masks(hypergraph, m_bar, images)
    edge_masks = [sum(1 << (v - 1) for v in e) for e in edges]
    if sum(mask.bit_count() for mask in masks) < sum(len(e) for e in edges):
        return False
    for size in (r, r + 1):
        if size > len(edges):
            continue
        for group in itertools.combinations(range(len(edges)), size):
            meet = masks[group[0]]
            edge_meet = edge_masks[group[0]]
            for idx in group[1:]:
                meet &= masks[idx]
                edge_meet &= edge_masks[idx]
            if meet.bit_count() > edge_meet.bit_count():
                return False
    return True


def star_image_singletons(hypergraph, m_bar, images):
    """Vertices whose star images intersect in exactly one element, and that element."""
    masks = _image_masks(hypergraph, m_bar, images)
    result = {}
    for i in range(1, hypergraph.m + 1):
        meet = (1 << m_bar) - 1
        for idx, edge in enumerate(hypergraph.edges):
            if i in edge:
                meet &= masks[idx]
        if meet.bit_count() == 1:
            result[i] = meet.bit_length()
    return result


def validate_lemma4(hypergraph, m_bar):
    """Reject a Lemma-4 input before any enumeration; returns the regularity r."""
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
    return r


def check_lemma4(hypergraph, m_bar):
    """Exhaustively verify the injective-map guarantee over admissible edge maps.

    A map pi from edges to subsets of [m_bar] is admissible when the summed
    image sizes reach the summed edge sizes and every group of r or r+1
    edges satisfies |intersection of images| <= |intersection of edges|. For
    each admissible map, m_bar >= m must hold and (when (r-1) m_bar < m r)
    the vertices whose star images intersect in a single element must cover
    at least m_bar - r(m_bar - m) distinct elements.

    Images are bitmasks over [m_bar] and are assigned edge by edge, in edge
    order. The candidates for the next edge form one bitmask over the 2^m_bar
    possible images: the images large enough for the size condition still to
    be reachable, ANDed with one precomputed mask per group that ends at this
    edge (the images c with |meet & c| <= cap, for the meet of the group's
    earlier images). Candidates are walked in increasing order, so maps are
    visited in lexicographic order; at the last edge the admissible maps are
    counted by popcount and each one is checked against the guarantee.
    """
    r = validate_lemma4(hypergraph, m_bar)
    m = hypergraph.m
    edges = hypergraph.edges
    n_edges = len(edges)
    edge_masks = [sum(1 << (v - 1) for v in e) for e in edges]
    required_total = sum(len(e) for e in edges)
    images = range(1 << m_bar)
    full = (1 << m_bar) - 1

    # at_least[p]: the images with at least p elements (p > m_bar: none)
    at_least = [sum(1 << c for c in images if c.bit_count() >= p)
                for p in range(m_bar + 2)]
    # allowed[cap][meet]: the images c with |meet & c| <= cap
    allowed = {}
    # group constraints indexed by the highest edge they involve, each as
    # (the group's other edges, its row of allowed)
    group_checks = [[] for _ in range(n_edges)]
    for size in (r, r + 1):
        if size > n_edges:
            continue
        for group in itertools.combinations(range(n_edges), size):
            cap = _intersection_size(edge_masks, group)
            if cap not in allowed:
                allowed[cap] = [
                    sum(1 << c for c in images if (meet & c).bit_count() <= cap)
                    for meet in images
                ]
            group_checks[group[-1]].append((group[:-1], allowed[cap]))

    stars = [
        [idx for idx, e in enumerate(edges) if i in e]
        for i in range(1, m + 1)
    ]
    guaranteed = m_bar - r * (m_bar - m)
    proviso = (r - 1) * m_bar < m * r

    admissible = verified = 0
    counterexamples = []
    assignment = [0] * n_edges
    last = n_edges - 1

    def descend(level, assigned_sum):
        nonlocal admissible, verified
        need = required_total - assigned_sum - (last - level) * m_bar
        cands = at_least[min(max(need, 0), m_bar + 1)]
        for others, row in group_checks[level]:
            meet = full
            for idx in others:
                meet &= assignment[idx]
            cands &= row[meet]
        if level == last:
            admissible += cands.bit_count()
        while cands:
            low = cands & -cands
            cands ^= low
            candidate = low.bit_length() - 1
            assignment[level] = candidate
            if level < last:
                descend(level + 1, assigned_sum + candidate.bit_count())
            elif _verify_assignment(assignment, stars, m, m_bar, guaranteed,
                                    proviso):
                verified += 1
            else:
                counterexamples.append(list(assignment))

    descend(0, 0)
    return Lemma4Report(m, m_bar, r, guaranteed, admissible, verified,
                        counterexamples)


def _intersection_size(edge_masks, group):
    meet = edge_masks[group[0]]
    for idx in group[1:]:
        meet &= edge_masks[idx]
    return meet.bit_count()


def _verify_assignment(assignment, stars, m, m_bar, guaranteed, proviso):
    if m_bar < m:
        return False
    if not proviso or guaranteed <= 0:
        return True
    singletons = set()
    for star_edges in stars:
        meet = (1 << m_bar) - 1
        for idx in star_edges:
            meet &= assignment[idx]
        if meet.bit_count() == 1:
            singletons.add(meet)
    return len(singletons) >= guaranteed
