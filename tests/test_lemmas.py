"""Distance-to-intersection sampling and injective-map counting checks."""

import itertools
import time

import numpy as np
import pytest

from sparsecert import (
    CapExceededError,
    Hypergraph,
    build_complete,
    build_cyclic,
    build_grid,
    check_lemma3,
    check_lemma4,
    distance_to_subspace,
    intersect,
    is_admissible_map,
    orthonormal_basis,
    regularity,
    star_image_singletons,
    xi,
)
from sparsecert import lemmas


def test_lemma3_point_in_intersection():
    rng = np.random.default_rng(0)
    shared = rng.standard_normal((6, 1))
    spaces = [
        orthonormal_basis(np.hstack([shared, rng.standard_normal((6, 2))]))
        for _ in range(3)
    ]
    meet = intersect(spaces)
    assert meet.dim >= 1
    x = meet.project(rng.standard_normal(6))
    lhs = distance_to_subspace(x, meet)
    assert lhs <= 1e-10
    total = sum(distance_to_subspace(x, v) for v in spaces)
    assert lhs <= total / (1 - xi(spaces)) + 1e-8


def test_lemma3_identical_subspaces():
    v = orthonormal_basis(np.random.default_rng(1).standard_normal((5, 2)))
    assert xi([v, v]) == pytest.approx(0.0, abs=1e-12)
    x = np.random.default_rng(2).standard_normal(5)
    lhs = distance_to_subspace(x, intersect([v, v]))
    assert lhs <= 2 * distance_to_subspace(x, v) + 1e-8


def test_lemma3_sampling_clean():
    report = check_lemma3(trials=200, ambient_dim=6, max_subspaces=3, seed=3)
    assert report.ok
    assert report.violations == 0
    assert report.worst_margin <= 1e-8


def test_lemma4_identity_map_admissible():
    h = build_cyclic(4, 2)
    images = list(h.edges)
    assert is_admissible_map(h, 4, images)
    singles = star_image_singletons(h, 4, images)
    assert singles == {1: 1, 2: 2, 3: 3, 4: 4}  # injective on all of [4]


def test_lemma4_violating_map_excluded():
    h = build_cyclic(4, 2)
    # give two disjoint edges overlapping images: breaks the pair condition
    images = [(1, 2), (1, 2), (3, 4), (1, 4)]
    assert not is_admissible_map(h, 4, images)


def test_lemma4_size_condition():
    h = build_cyclic(4, 2)
    # image sizes sum below the edge sizes
    images = [(1,), (2,), (3,), (4,)]
    assert not is_admissible_map(h, 4, images)


def test_lemma4_exhaustive_m4_mbar5():
    report = check_lemma4(build_cyclic(4, 2), 5)
    assert report.ok
    assert report.guaranteed_size == 3
    assert report.admissible > 0
    assert report.counterexamples == []


def test_lemma4_enumeration_matches_naive():
    # the pruned search must find exactly the maps the flat scan admits
    h = build_cyclic(3, 2)
    m_bar = 4
    subsets = [tuple(v + 1 for v in range(m_bar) if mask >> v & 1)
               for mask in range(1 << m_bar)]
    naive = sum(
        1
        for images in itertools.product(subsets, repeat=len(h.edges))
        if is_admissible_map(h, m_bar, images)
    )
    report = check_lemma4(h, m_bar)
    assert report.admissible == naive > 0


def test_lemma4_no_admissible_maps_for_small_target():
    # the counting conclusion m_bar >= m shows up as an empty admissible set
    report = check_lemma4(build_cyclic(4, 2), 3)
    assert report.admissible == 0


def test_lemma4_cap():
    with pytest.raises(CapExceededError):
        check_lemma4(build_cyclic(8, 2), 9)


def test_lemma4_edge_cap_refuses_before_enumeration():
    # complete m=5, k=2 has 10 edges; m and m_bar are within their caps
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="10 edges"):
        check_lemma4(build_complete(5, 2), 6)
    assert time.perf_counter() - start < 1.0
    # six edges are still checked
    assert check_lemma4(build_cyclic(6, 2), 6).ok


def _reference_verify(assignment, stars, m, m_bar, guaranteed, proviso):
    """The guarantee on one labelled map, its images as bitmasks in edge order."""
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


def _reference_lemma4(hypergraph, m_bar, verify=_reference_verify):
    """Candidate-by-candidate descent: each image is tested against its groups.

    Returns (admissible, verified, counterexamples, guaranteed_size), with
    every failing labelled map listed in lexicographic order. ``verify``
    checks the guarantee on each admissible labelled map.
    """
    r = regularity(hypergraph)
    m = hypergraph.m
    edges = hypergraph.edges
    n_edges = len(edges)
    edge_masks = [sum(1 << (v - 1) for v in e) for e in edges]
    required_total = sum(len(e) for e in edges)
    universe = list(range(1 << m_bar))

    group_checks = [[] for _ in range(n_edges)]
    for size in (r, r + 1):
        if size > n_edges:
            continue
        for group in itertools.combinations(range(n_edges), size):
            cap = lemmas._intersection_size(edge_masks, group)
            group_checks[max(group)].append((group, cap))

    stars = [
        [idx for idx, e in enumerate(edges) if i in e]
        for i in range(1, m + 1)
    ]
    guaranteed = m_bar - r * (m_bar - m)
    proviso = (r - 1) * m_bar < m * r

    admissible = verified = 0
    counterexamples = []
    assignment = [0] * n_edges

    def descend(level, assigned_sum):
        nonlocal admissible, verified
        if assigned_sum + (n_edges - level) * m_bar < required_total:
            return
        if level == n_edges:
            admissible += 1
            if verify(assignment, stars, m, m_bar, guaranteed, proviso):
                verified += 1
            else:
                counterexamples.append(list(assignment))
            return
        for candidate in universe:
            assignment[level] = candidate
            ok = True
            for group, cap in group_checks[level]:
                meet = candidate
                for idx in group:
                    meet &= assignment[idx]
                if meet.bit_count() > cap:
                    ok = False
                    break
            if ok:
                descend(level + 1, assigned_sum + candidate.bit_count())

    descend(0, 0)
    return admissible, verified, counterexamples, guaranteed


def _summary(report):
    return (report.admissible, report.verified, report.counterexamples,
            report.guaranteed_size)


ORACLE_CASES = (
    [pytest.param(build_cyclic(m, 2), m_bar, id=f"cyclic{m}-mbar{m_bar}")
     for m in (3, 4) for m_bar in (m - 1, m, m + 1)]
    + [pytest.param(build_cyclic(5, 2), m_bar, id=f"cyclic5-mbar{m_bar}")
       for m_bar in (4, 5)]
    + [pytest.param(build_complete(4, 3), m_bar, id=f"complete4k3-mbar{m_bar}")
       for m_bar in (4, 5)]
    + [pytest.param(build_grid(4), m_bar, id=f"grid4-mbar{m_bar}")
       for m_bar in (4, 5)]
    # a non-uniform hypergraph with r=3
    + [pytest.param(Hypergraph(3, [(1, 2), (1, 3), (2, 3), (1, 2, 3)]), 5,
                    id="mixed3-mbar5")]
)


@pytest.mark.parametrize("hypergraph, m_bar", ORACLE_CASES)
def test_lemma4_matches_reference_descent(hypergraph, m_bar):
    report = check_lemma4(hypergraph, m_bar)
    assert _summary(report) == _reference_lemma4(hypergraph, m_bar)


def _map_type(images, m_bar):
    """The orbit of a labelled map under relabelling: its elements' membership patterns."""
    return tuple(sorted(
        sum((image >> label & 1) << idx for idx, image in enumerate(images))
        for label in range(m_bar)
    ))


def test_lemma4_counterexamples_keep_reference_order(monkeypatch):
    # real inputs never fail the guarantee, so force failures with a rule
    # that ignores labels, on both sides: a map fails when its first image
    # has odd size; at m_bar=5 the proviso holds and the guaranteed size is
    # 3, so each map's singletons are still counted
    verify_type = lemmas._verify_type

    def odd_first_image_fails(atoms, *args):
        first = sum(size for pattern, size in atoms if pattern & 1)
        return first % 2 == 0 and verify_type(atoms, *args)

    def odd_first_image_fails_labelled(assignment, *args):
        return (assignment[0].bit_count() % 2 == 0
                and _reference_verify(assignment, *args))

    monkeypatch.setattr(lemmas, "_verify_type", odd_first_image_fails)
    h = build_cyclic(4, 2)
    report = check_lemma4(h, 5)
    admissible, verified, failing, guaranteed = _reference_lemma4(
        h, 5, odd_first_image_fails_labelled)
    assert (report.admissible, report.verified, report.guaranteed_size) == (
        admissible, verified, guaranteed)
    assert guaranteed == 3
    assert 0 < len(failing) == admissible - verified < admissible
    assert report.counterexamples == sorted(report.counterexamples)
    for images in report.counterexamples:
        subsets = [tuple(v + 1 for v in range(5) if image >> v & 1)
                   for image in images]
        assert is_admissible_map(h, 5, subsets)
        assert images[0].bit_count() % 2 == 1
    types = [_map_type(images, 5) for images in report.counterexamples]
    assert len(set(types)) == len(types)
    # each is its type's first map in the reference's lexicographic listing
    first_of_type = {}
    for images in failing:
        first_of_type.setdefault(_map_type(images, 5), images)
    assert report.counterexamples == sorted(first_of_type.values())


def test_lemma4_benchmark_count():
    # the count the benchmark's check-lemmas round expects
    report = check_lemma4(build_cyclic(4, 2), 6)
    assert report.admissible == report.verified == 108_840
    assert report.counterexamples == []


@pytest.mark.parametrize("m, m_bar, maps, types", [
    (4, 6, 108_840, 345),
    # counts the labelled searches also gave, at sizes the reference's
    # descent is too slow to reach in a test
    (5, 7, 2_243_220, 971),
    (6, 7, 579_600, 133),
])
def test_lemma4_pinned_counts_and_types(m, m_bar, maps, types):
    report = check_lemma4(build_cyclic(m, 2), m_bar)
    assert report.admissible == report.verified == maps
    assert report.types == types
    assert report.counterexamples == []


def test_lemma3_rejects_no_trials():
    with pytest.raises(ValueError, match="at least one trial"):
        check_lemma3(trials=0)


def _reference_lemma3(trials, ambient_dim, max_subspaces, seed, slack):
    """The sequential loop: one intersect and one xi call per trial."""
    rng = np.random.default_rng(seed)
    violations, worst, failures = 0, -np.inf, []
    for trial in range(trials):
        count = int(rng.integers(2, max_subspaces + 1))
        shared_dim = int(rng.integers(0, 3)) if rng.random() < 0.5 else 0
        shared = rng.standard_normal((ambient_dim, shared_dim))
        spaces = []
        for _ in range(count):
            extra = int(rng.integers(1, max(2, ambient_dim // 2)))
            block = np.hstack([shared, rng.standard_normal((ambient_dim, extra))])
            spaces.append(orthonormal_basis(block))
        meet = intersect(spaces)
        x = rng.standard_normal(ambient_dim)
        # the planting uniform is drawn on every trial, whatever the meet
        u = rng.random()
        if meet.dim and u < 0.2:
            x = meet.project(x)
        lhs = distance_to_subspace(x, meet)
        aggregate = xi(spaces)
        total = sum(distance_to_subspace(x, v) for v in spaces)
        rhs = np.inf if aggregate >= 1.0 - 1e-15 else total / (1.0 - aggregate)
        margin = lhs - rhs
        worst = max(worst, margin)
        if margin > slack:
            violations += 1
            failures.append({"trial": trial, "lhs": lhs, "rhs": rhs,
                             "xi": aggregate, "count": count})
    return violations, float(worst), failures


LEMMA3_CONFIGS = [
    {"ambient_dim": 8, "max_subspaces": 4, "seed": 0, "slack": 1e-8},
    # a negative slack turns ordinary margins into reported failures
    {"ambient_dim": 5, "max_subspaces": 5, "seed": 1606, "slack": -0.5},
]


@pytest.mark.parametrize("config", LEMMA3_CONFIGS)
# part of one block (31 to 33), both sides of a block edge, and two blocks
@pytest.mark.parametrize("trials", [
    1, 31, 32, 33,
    lemmas.LEMMA3_BLOCK - 1, lemmas.LEMMA3_BLOCK, lemmas.LEMMA3_BLOCK + 1, 200])
def test_lemma3_blocks_match_sequential_loop(trials, config):
    report = check_lemma3(trials=trials, **config)
    violations, worst, failures = _reference_lemma3(trials, **config)
    assert report.trials == trials
    assert report.violations == violations
    assert report.worst_margin.hex() == worst.hex()
    assert len(report.failures) == len(failures)
    for got, want in zip(report.failures, failures):
        assert got.keys() == want.keys()
        for key in want:
            assert repr(got[key]) == repr(want[key])
    if config["slack"] < 0 and trials > 1:
        assert failures


def test_lemma3_draws_do_not_depend_on_the_geometry():
    # a coarse rank_tol changes which meets are nonzero, but not the draws
    states, xis = [], []
    for rank_tol in (1e-9, 0.3):
        rng = np.random.default_rng(5)
        # a hugely negative slack reports every trial, with its xi
        report = check_lemma3(trials=lemmas.LEMMA3_BLOCK + 7, seed=rng,
                              slack=-1e300, rank_tol=rank_tol)
        states.append(rng.bit_generator.state)
        xis.append([failure["xi"] for failure in report.failures])
    assert states[0] == states[1]
    assert xis[0] != xis[1]


@pytest.mark.parametrize("slack", [float("nan"), float("inf"), -float("inf")])
def test_lemma3_rejects_non_finite_slack(slack):
    # no margin exceeds a NaN or infinite slack, so the check would pass vacuously
    with pytest.raises(ValueError, match="slack must be finite"):
        check_lemma3(trials=20, seed=0, slack=slack)


def test_lemma3_ordering_cap_raises_before_sampling(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made")

    # every draw, and so every factorization, goes through the generator
    monkeypatch.setattr(lemmas.np.random, "default_rng", no_draws)
    with pytest.raises(CapExceededError, match="9 subspaces exceed ordering cap 8"):
        check_lemma3(trials=1000, max_subspaces=9, seed=0)


@pytest.mark.parametrize("ambient_dim", [0, -3])
def test_lemma3_rejects_nonpositive_ambient_dim(ambient_dim):
    with pytest.raises(ValueError, match="ambient dimension must be positive"):
        check_lemma3(trials=5, ambient_dim=ambient_dim)


@pytest.mark.parametrize("m_bar", [0, -1])
def test_lemma4_rejects_nonpositive_m_bar(m_bar):
    with pytest.raises(ValueError, match="m_bar must be a positive integer"):
        check_lemma4(build_cyclic(3, 2), m_bar)
