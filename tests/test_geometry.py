"""Subspace geometry and restricted-lower-bound tests.

Derived expectations are computed by independent oracles (dense sampling,
per-edge LAPACK SVD, brute-force minors) before comparing to the library.
"""

import itertools
import math

import numpy as np
import pytest

from sparsecert import (
    CapExceededError,
    Hypergraph,
    Subspace,
    build_complete,
    build_cyclic,
    column_span,
    friedrichs_angle,
    intersect,
    lower_bound_k,
    orthonormal_basis,
    pairwise_unions,
    restricted_lower_bound,
    spark_condition,
    spark_polynomial,
    regularity,
    subspace_distance,
    xi,
)
from sparsecert import geometry

RANK_TOL = 1e-9


def section2_matrix():
    """Five basis columns plus their alternating sum; fails the spark condition."""
    eye = np.eye(5)
    extra = eye[:, 0] + eye[:, 2] + eye[:, 4]
    return np.hstack([eye, extra[:, None]])


def oracle_restricted_bound(mat, hypergraph):
    """Per-edge LAPACK SVD, no shared kernel code."""
    values = []
    for edge in hypergraph.edges:
        sub = mat[:, [v - 1 for v in edge]]
        smin = 0.0 if sub.shape[1] > sub.shape[0] else np.linalg.svd(
            sub, compute_uv=False)[-1]
        values.append(smin / math.sqrt(len(edge)))
    return min(values)


def oracle_subspace_distance(u_basis, v_basis, samples=20000, seed=0):
    """Maximize dist(u, V) over sampled unit vectors of U."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((u_basis.shape[1], samples))
    coeffs /= np.linalg.norm(coeffs, axis=0)
    us = u_basis @ coeffs
    proj = v_basis @ (v_basis.T @ us) if v_basis.shape[1] else np.zeros_like(us)
    return float(np.max(np.linalg.norm(us - proj, axis=0)))


# orthonormal_basis


def test_basis_identity():
    assert orthonormal_basis(np.eye(3)).dim == 3


def test_basis_collinear_columns():
    e1 = np.array([[1.0], [0.0], [0.0]])
    s = orthonormal_basis(np.hstack([e1, 2 * e1]))
    assert s.dim == 1
    assert abs(abs(s.basis[0, 0]) - 1.0) < 1e-12


def test_basis_zero_matrix():
    assert orthonormal_basis(np.zeros((4, 2))).dim == 0


def test_basis_rejects_empty():
    with pytest.raises(ValueError):
        orthonormal_basis(np.zeros((3, 0)))


@pytest.mark.parametrize("rank_tol", [math.nan, math.inf, 0.0, -1.0])
def test_basis_rejects_bad_rank_tol(rank_tol):
    with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
        orthonormal_basis(np.eye(3), rank_tol)


def test_subspace_validates_orthonormality():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_subspace_ambient_is_an_integer():
    space = Subspace(3.0, np.eye(3)[:, :1])
    assert space.ambient == 3 and type(space.ambient) is int
    assert Subspace(np.int64(3), np.eye(3)).ambient == 3
    for bad in (True, 2.5, "3", math.nan):
        with pytest.raises(ValueError, match="ambient dimension must be an integer"):
            Subspace(bad, np.eye(3)[:, :1])


@pytest.mark.parametrize("support", [(0,), (1, 0), (5,), (2, 5), (1.5,), (True,)])
def test_column_span_refuses_vertices_outside_the_columns(support):
    mat = np.random.default_rng(4).standard_normal((4, 4))
    with pytest.raises(ValueError, match="vertex"):
        column_span(mat, support)


def test_column_span_keeps_the_support_order():
    mat = np.random.default_rng(4).standard_normal((5, 4))
    for support in [(3, 1), (1, 3), (4, 2, 1), (2.0, np.int64(4))]:
        cols = [int(v) - 1 for v in support]
        want = orthonormal_basis(mat[:, cols]).basis
        assert column_span(mat, support).basis.tobytes() == want.tobytes()


# restricted_lower_bound / lower_bound_k


def test_restricted_bound_identity_pairs():
    got = restricted_lower_bound(np.eye(4), build_complete(4, 2))
    assert abs(got - 1 / math.sqrt(2)) < 1e-15


def test_restricted_bound_singletons_is_min_column_norm():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((6, 5)) * rng.uniform(0.1, 3.0, 5)
    got = restricted_lower_bound(mat, build_complete(5, 1))
    assert got == pytest.approx(float(np.min(np.linalg.norm(mat, axis=0))),
                                abs=1e-12)


def test_restricted_bound_section2_positive():
    mat = section2_matrix()
    doubled = pairwise_unions(build_cyclic(6, 2))
    got = restricted_lower_bound(mat, doubled)
    assert got == pytest.approx(oracle_restricted_bound(mat, doubled), abs=1e-12)
    assert got > 1e-6


def test_restricted_bound_rejects_empty_hypergraph():
    with pytest.raises(ValueError):
        restricted_lower_bound(np.eye(3), Hypergraph(3, []))


def test_restricted_bound_rejects_missing_column():
    with pytest.raises(ValueError):
        restricted_lower_bound(np.eye(3), Hypergraph(4, [(1, 4)]))


def test_lower_bound_identity():
    for m in (2, 4, 6):
        for k in range(1, m + 1):
            assert abs(lower_bound_k(np.eye(m), k) - 1 / math.sqrt(k)) < 1e-14


def test_lower_bound_zero_column():
    mat = np.eye(3).copy()
    mat[:, 1] = 0.0
    assert lower_bound_k(mat, 1) == 0.0


def test_lower_bound_monotone_in_k():
    rng = np.random.default_rng(13)
    for _ in range(10):
        mat = rng.standard_normal((6, 5))
        bounds = [lower_bound_k(mat, k) for k in range(1, 6)]
        for small, large in zip(bounds, bounds[1:]):
            assert small >= large - 1e-10


# spark_condition


def test_spark_identity():
    assert spark_condition(np.eye(6), 2)
    assert spark_condition(np.eye(6), 3)


def test_spark_section2_fails():
    assert not spark_condition(section2_matrix(), 2)


def test_spark_duplicate_column():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((4, 4))
    mat[:, 2] = mat[:, 0]
    assert not spark_condition(mat, 1)


def test_spark_wide_sparsity_uses_all_columns():
    # 2k > m: all three columns must be independent
    assert spark_condition(np.eye(3), 2)
    mat = np.eye(3).copy()
    mat[:, 2] = mat[:, 0] + mat[:, 1]
    assert not spark_condition(mat, 2)


# spark_polynomial


def oracle_polynomial(mat, k):
    n, m = mat.shape
    width = 2 * k
    total = 1.0
    for cols in itertools.combinations(range(m), width):
        acc = 0.0
        for rows in itertools.combinations(range(n), width):
            acc += np.linalg.det(mat[np.ix_(rows, cols)]) ** 2
        total *= acc
    return total


@pytest.mark.parametrize("call", [lower_bound_k, spark_condition, spark_polynomial])
def test_sparsity_level_follows_the_integer_rule(call):
    # 2.0 used to raise TypeError in lower_bound_k, and True was taken as 1
    mat = np.random.default_rng(3).standard_normal((6, 6))
    assert float(call(mat, 2.0)).hex() == float(call(mat, 2)).hex()
    for bad in (True, 2.5, "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            call(mat, bad)


def test_polynomial_identity2():
    assert spark_polynomial(np.eye(2), 1) == 1.0


def test_polynomial_duplicate_columns_zero():
    mat = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    assert spark_polynomial(mat, 1) == 0.0


def test_polynomial_matches_rank_verdicts_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        mat = rng.standard_normal((4, 4))
        poly = spark_polynomial(mat, 1)
        assert poly == pytest.approx(oracle_polynomial(mat, 1), rel=1e-9)
        assert (poly > 0) == spark_condition(mat, 1)


def test_polynomial_size_caps(monkeypatch):
    with pytest.raises(ValueError):
        spark_polynomial(np.eye(3), 2)
    # the cap is read at call time
    monkeypatch.setattr(geometry, "DEFAULT_MINOR_CAP", 100)
    with pytest.raises(CapExceededError, match="exceed cap 100"):
        spark_polynomial(np.eye(12), 2)


@pytest.mark.parametrize("scale", [1e-40, 1e-20, 1e20, 1e40])
@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 6)])
def test_polynomial_survives_extreme_scales(shape, scale):
    mat = np.random.default_rng(0).standard_normal(shape)
    assert spark_condition(mat * scale, 1)
    poly = spark_polynomial(mat * scale, 1)
    # each column pair's sum of squared minors scales by scale^4: in range
    # for 2 x 2 at every scale and 3 x 3 at 1e+-20, out of it for the rest
    power = 4 * math.comb(shape[1], 2)
    log_value = math.log10(oracle_polynomial(mat, 1)) + power * math.log10(scale)
    if log_value > 308.3:
        assert poly == math.inf
    elif log_value < -323.3:
        assert poly == math.ulp(0.0)
    else:
        assert poly == pytest.approx(oracle_polynomial(mat, 1) * scale ** power,
                                     rel=1e-12)


# subspace_distance


def test_distance_contained():
    u = orthonormal_basis(np.eye(4)[:, :1])
    v = orthonormal_basis(np.eye(4)[:, :3])
    assert subspace_distance(u, v) < 1e-14


def test_distance_orthogonal_lines():
    e = np.eye(3)
    u = orthonormal_basis(e[:, :1])
    v = orthonormal_basis(e[:, 1:2])
    assert subspace_distance(u, v) == pytest.approx(1.0, abs=1e-14)


def test_distance_line_to_diagonal():
    e = np.eye(2)
    u = orthonormal_basis(e[:, :1])
    v = orthonormal_basis(((e[:, 0] + e[:, 1]) / math.sqrt(2))[:, None])
    expected = oracle_subspace_distance(u.basis, v.basis)
    assert expected == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert subspace_distance(u, v) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_distance_zero_subspace():
    z = orthonormal_basis(np.zeros((3, 1)))
    v = orthonormal_basis(np.eye(3)[:, :2])
    assert subspace_distance(z, v) == 0.0
    assert subspace_distance(v, z) == pytest.approx(1.0, abs=1e-14)


def test_distance_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_distance(orthonormal_basis(np.eye(3)),
                          orthonormal_basis(np.eye(4)))


def test_distance_symmetry_equal_dims():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, n + 1))
        u = orthonormal_basis(rng.standard_normal((n, d)))
        v = orthonormal_basis(rng.standard_normal((n, d)))
        assert abs(subspace_distance(u, v) - subspace_distance(v, u)) <= 1e-9


def test_distance_dimension_fact():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        du = int(rng.integers(1, n + 1))
        dv = int(rng.integers(1, n + 1))
        u = orthonormal_basis(rng.standard_normal((n, du)))
        v = orthonormal_basis(rng.standard_normal((n, dv)))
        if subspace_distance(u, v) < 1 - 1e-9:
            assert u.dim <= v.dim


# friedrichs_angle


def test_angle_contained_is_right():
    e = np.eye(3)
    u = orthonormal_basis(e[:, :1])
    w = orthonormal_basis(e[:, :2])
    assert friedrichs_angle(u, w) == pytest.approx(math.pi / 2, abs=1e-12)


def test_angle_orthogonal_lines():
    e = np.eye(3)
    assert friedrichs_angle(
        orthonormal_basis(e[:, :1]), orthonormal_basis(e[:, 1:2])
    ) == pytest.approx(math.pi / 2, abs=1e-12)


def test_angle_45_degree_lines():
    e = np.eye(2)
    u = orthonormal_basis(e[:, :1])
    w = orthonormal_basis(((e[:, 0] + e[:, 1]) / math.sqrt(2))[:, None])
    # oracle: maximize |<u, w>| over unit vectors; lines leave only the basis pair
    cos_oracle = abs(float(u.basis[:, 0] @ w.basis[:, 0]))
    assert cos_oracle == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert friedrichs_angle(u, w) == pytest.approx(math.pi / 4, abs=1e-12)


@pytest.mark.parametrize("theta", [1e-8, 1e-6, 3e-5, 1e-4, 1e-3])
def test_angle_of_nearly_parallel_lines(theta):
    # sines above rank_tol are angles, not meet directions
    u = orthonormal_basis(np.array([[1.0], [0.0]]))
    w = orthonormal_basis(np.array([[math.cos(theta)], [math.sin(theta)]]))
    assert friedrichs_angle(u, w) == pytest.approx(theta, rel=1e-6)
    assert friedrichs_angle(w, u) == pytest.approx(theta, rel=1e-6)
    assert intersect([u, w]).dim == 0


def test_angle_rejects_two_zero_subspaces():
    z = orthonormal_basis(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        friedrichs_angle(z, z)


# intersect


def test_intersect_coordinate_planes():
    e = np.eye(3)
    got = intersect([orthonormal_basis(e[:, :2]), orthonormal_basis(e[:, 1:])])
    assert got.dim == 1
    assert abs(abs(got.basis[1, 0]) - 1.0) < 1e-12


def test_intersect_idempotent():
    v = orthonormal_basis(np.random.default_rng(1).standard_normal((5, 2)))
    got = intersect([v, v])
    assert got.dim == 2
    assert subspace_distance(got, v) < 1e-10
    assert subspace_distance(v, got) < 1e-10


def test_intersect_spans_identity_dictionary():
    mat = np.eye(4)
    got = intersect([column_span(mat, (1, 2)), column_span(mat, (2, 3))])
    want = column_span(mat, (2,))
    assert subspace_distance(got, want) < 1e-10
    assert subspace_distance(want, got) < 1e-10


def test_intersect_rejects_empty():
    with pytest.raises(ValueError):
        intersect([])


def lemma2_subsets(mat, hypergraph, rank_tol=RANK_TOL):
    """Check span-of-intersection equals intersection-of-spans for all subsets."""
    for size in range(1, len(hypergraph.edges) + 1):
        for group in itertools.combinations(hypergraph.edges, size):
            spans = [column_span(mat, e, rank_tol) for e in group]
            meet = intersect(spans, rank_tol)
            common = set(group[0])
            for e in group[1:]:
                common &= set(e)
            want = column_span(mat, tuple(sorted(common)), rank_tol)
            assert subspace_distance(meet, want) <= 1e-8
            assert subspace_distance(want, meet) <= 1e-8


def test_span_intersection_identity_random():
    rng = np.random.default_rng(29)
    h = build_cyclic(5, 2)
    for _ in range(5):
        mat = rng.standard_normal((6, 5))
        assert restricted_lower_bound(mat, pairwise_unions(h)) > 1e-6
        lemma2_subsets(mat, h)


# xi


@pytest.mark.parametrize("rank_tol", [math.nan, math.inf, 0.0, -1.0])
def test_xi_intersect_and_angle_reject_bad_rank_tol(rank_tol):
    # three 3-dim spans in R^6 sharing the first direction: NaN or -1 used to
    # give xi = 1, an empty meet and an angle of 0, and inf xi = 0 with a
    # 3-dim meet
    e = np.eye(6)
    spaces = [orthonormal_basis(e[:, [0, 1 + 2 * i, 2 + 2 * i]]) for i in range(2)]
    spaces.append(orthonormal_basis(e[:, [0, 1, 3]] + e[:, [0, 5, 4]]))
    with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
        xi(spaces, rank_tol)
    with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
        intersect(spaces, rank_tol)
    with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
        friedrichs_angle(spaces[0], spaces[1], rank_tol)
    # a single subspace needs no principal angles and is refused all the same
    with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
        xi(spaces[:1], rank_tol)
    with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
        intersect(spaces[:1], rank_tol)


def test_xi_single_subspace():
    assert xi([orthonormal_basis(np.eye(3)[:, :2])]) == 0.0


def test_xi_orthogonal_lines():
    e = np.eye(3)
    spaces = [orthonormal_basis(e[:, i:i + 1]) for i in range(3)]
    assert xi(spaces) == pytest.approx(0.0, abs=1e-12)


def test_xi_45_degree_lines():
    e = np.eye(2)
    u = orthonormal_basis(e[:, :1])
    w = orthonormal_basis(((e[:, 0] + e[:, 1]) / math.sqrt(2))[:, None])
    # oracle: xi^2 = 1 - sin^2(pi/4)
    assert xi([u, w]) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_xi_subcollection_monotonicity_fails_for_max_ordering():
    # Monotonicity under subcollections does NOT hold for the max-over-orderings
    # definition: with a third subspace present, the best ordering can postpone
    # the ill-separated pair behind trivial intersections, whose angle is pi/2.
    # Two nearly parallel lines plus an orthogonal one make this exact.
    theta = 1e-3
    u = orthonormal_basis(np.array([[1.0], [0.0], [0.0]]))
    w = orthonormal_basis(np.array([[math.cos(theta)], [math.sin(theta)], [0.0]]))
    x = orthonormal_basis(np.array([[0.0], [0.0], [1.0]]))
    pair = xi([u, w])
    triple = xi([u, w, x])
    assert pair == pytest.approx(math.cos(theta), abs=1e-9)
    assert triple == pytest.approx(0.0, abs=1e-9)
    assert pair > triple + 0.9


def test_xi_matches_permutation_enumeration():
    # the subset dynamic program must equal the literal max over orderings
    rng = np.random.default_rng(41)
    for _ in range(5):
        spaces = [
            orthonormal_basis(rng.standard_normal((5, int(rng.integers(1, 4)))))
            for _ in range(4)
        ]
        best = 0.0
        for order in itertools.permutations(range(4)):
            product = 1.0
            for i in range(3):
                rest = [spaces[j] for j in order[i + 1:]]
                tail = rest[0] if len(rest) == 1 else intersect(rest)
                product *= math.sin(friedrichs_angle(spaces[order[i]], tail)) ** 2
            best = max(best, product)
        want = math.sqrt(max(0.0, 1.0 - best))
        assert xi(spaces) == pytest.approx(want, abs=1e-10)


def test_xi_ordering_cap():
    spaces = [orthonormal_basis(np.eye(4)[:, :1])] * 9
    with pytest.raises(CapExceededError):
        xi(spaces)


# chain property


def test_chain_l2_l2h_l2k():
    rng = np.random.default_rng(37)
    for _ in range(20):
        m = int(rng.integers(4, 7))
        k = int(rng.integers(2, min(4, m)))
        n = int(rng.integers(2 * k, 9))
        mat = rng.standard_normal((n, m))
        h = build_cyclic(m, k)
        l2 = lower_bound_k(mat, 2)
        l2h = restricted_lower_bound(mat, pairwise_unions(h))
        l2k = lower_bound_k(mat, min(2 * k, m))
        assert l2 >= l2h - 1e-10
        assert l2h >= l2k - 1e-10


# batched angles, meets and DP against one pair at a time, and against the
# eigh-based per-pair oracles


def _reference_intersect(spaces, rank_tol=RANK_TOL):
    """One eigh of the summed complement projectors per collection."""
    n = spaces[0].ambient
    acc = np.zeros((n, n))
    for s in spaces:
        acc += np.eye(n) - s.basis @ s.basis.T
    evals, evecs = np.linalg.eigh(acc)
    return Subspace(n, evecs[:, evals < rank_tol])


def _reference_complement_within(space, sub, rank_tol=RANK_TOL):
    if space.dim == 0 or sub.dim == 0:
        return space
    residual = space.basis - sub.basis @ (sub.basis.T @ space.basis)
    u, s, _ = np.linalg.svd(residual, full_matrices=False)
    rank = int(np.sum(s > rank_tol))
    return Subspace(space.ambient, u[:, :rank])


def _reference_friedrichs_angle(u, w, rank_tol=RANK_TOL):
    """Three or four factorizations per pair, one pair at a time."""
    meet = _reference_intersect([u, w], rank_tol)
    uc = _reference_complement_within(u, meet, rank_tol)
    wc = _reference_complement_within(w, meet, rank_tol)
    if uc.dim == 0 or wc.dim == 0:
        return math.pi / 2
    cosine = float(np.linalg.svd(uc.basis.T @ wc.basis, compute_uv=False)[0])
    return math.acos(min(max(cosine, 0.0), 1.0))


def _reference_sine_products(spaces, max_size, rank_tol=RANK_TOL):
    """The subset DP of one collection, one friedrichs_angle call per angle."""
    inter_cache = {}

    def meet(ids):
        if len(ids) == 1:
            return spaces[next(iter(ids))]
        if ids not in inter_cache:
            inter_cache[ids] = _reference_intersect(
                [spaces[i] for i in sorted(ids)], rank_tol)
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
                angle = _reference_friedrichs_angle(spaces[a], meet(rest), rank_tol)
                value = math.sin(angle) ** 2 * best[rest]
                if value > top:
                    top = value
            best[group] = top
    return best


def _bits(best):
    return {group: value.hex() for group, value in best.items()}


def _by_group(levels):
    """The DP's level arrays as {frozenset(members): product}, each entry
    mapped to its subset by a colex enumeration of the subsets."""
    count = len(levels[0])
    best = {}
    for size, level in enumerate(levels, 1):
        groups = sorted(itertools.combinations(range(count), size),
                        key=lambda group: group[::-1])
        assert len(level) == len(groups)
        best.update((frozenset(group), float(value))
                    for group, value in zip(groups, level))
    return best


def _raw(collections):
    """The basis arrays of each collection, as the subset DP takes them."""
    return [[space.basis for space in spaces] for spaces in collections]


def _pairwise_sine_products(spaces, max_size, rank_tol=RANK_TOL):
    """The subset DP of one collection, one ``_principal`` pair per angle and
    each meet from ``intersect`` over the sorted indices."""
    best = {frozenset([i]): 1.0 for i in range(len(spaces))}
    for size in range(2, max_size + 1):
        for ids in itertools.combinations(range(len(spaces)), size):
            group = frozenset(ids)
            top = 0.0
            for a in ids:
                rest = group - {a}
                meet = intersect([spaces[i] for i in sorted(rest)], rank_tol)
                sine = geometry._principal([(spaces[a].basis, meet.basis)],
                                           rank_tol)[0][0]
                value = sine ** 2 * best[rest]
                if value > top:
                    top = value
            best[group] = top
    return best


# The eigh-based references cut meets on squared sines, so they agree with
# the SVD sines to round-off only: DP products and angles to 1e-13, meets
# in dimension and to 1e-12 in subspace distance.
ORACLE_ABS = 1e-13
MEET_DISTANCE = 1e-12


def _assert_close_products(got, want):
    assert got.keys() == want.keys()
    for group, value in want.items():
        assert abs(got[group] - value) <= ORACLE_ABS


def _assert_same_meet(got, want):
    assert got.dim == want.dim
    assert subspace_distance(got, want) <= MEET_DISTANCE
    assert subspace_distance(want, got) <= MEET_DISTANCE


def lemma3_style_collections(seed, count=40):
    """Planted shared subspaces, nested and repeated spaces, ambient 3 to 10."""
    rng = np.random.default_rng(seed)
    collections = []
    for _ in range(count):
        n = int(rng.integers(3, 11))
        shared = rng.standard_normal((n, int(rng.integers(0, 3))))
        spaces = []
        for _ in range(int(rng.integers(2, 6))):
            roll = rng.random()
            if spaces and roll < 0.15:
                spaces.append(spaces[int(rng.integers(len(spaces)))])
            elif spaces and roll < 0.3 and spaces[-1].dim < n:
                grown = np.hstack([spaces[-1].basis, rng.standard_normal((n, 1))])
                spaces.append(orthonormal_basis(grown))
            else:
                extra = rng.standard_normal((n, int(rng.integers(1, max(2, n // 2)))))
                spaces.append(orthonormal_basis(np.hstack([shared, extra])))
        collections.append(spaces)
    return collections


@pytest.mark.parametrize("seed, block", [(0, None), (1, None), (2, None), (1606, 5)])
def test_batched_dp_matches_reference_bit_for_bit(seed, block, monkeypatch):
    if block is not None:
        # stacks that split the pairs of one shape within a level
        monkeypatch.setattr(geometry, "_STACK_BLOCK", block)
    collections = lemma3_style_collections(seed)
    got = geometry._subset_dp(_raw(collections), 5, RANK_TOL)[0]
    for spaces, levels in zip(collections, got):
        best = _by_group(levels)
        assert _bits(best) == _bits(_pairwise_sine_products(spaces, len(spaces)))
        _assert_close_products(best, _reference_sine_products(spaces, len(spaces)))


@pytest.mark.parametrize("seed, max_size", [(0, 5), (1606, 3)])
def test_dp_meets_are_intersect_bit_for_bit(seed, max_size):
    collections = lemma3_style_collections(seed) + [[orthonormal_basis(np.eye(3))]]
    bests, meets = geometry._subset_dp(_raw(collections), max_size, RANK_TOL)
    assert [_bits(_by_group(levels)) for levels in bests] == [
        _bits(_pairwise_sine_products(spaces, max_size)) for spaces in collections]
    for spaces, meet in zip(collections, meets):
        if len(spaces) > max_size:
            assert meet is None
            continue
        want = intersect(spaces)
        assert meet.shape == want.basis.shape
        assert meet.tobytes() == want.basis.tobytes()


def _reference_basis(mat, rank_tol):
    """One unstacked SVD, the rank cut against the largest singular value."""
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((mat.shape[0], 0))
    return u[:, :int(np.sum(s > rank_tol * s[0]))]


def test_stacked_bases_match_one_at_a_time():
    rng = np.random.default_rng(8)
    shared = rng.standard_normal((5, 2))
    mats = [np.zeros((5, 3)), np.hstack([shared, shared[:, :1] * 3.0]),
            np.eye(5)[:, :1] * 1e-300]
    mats += [rng.standard_normal((5, int(c))) for c in rng.integers(1, 7, 30)]
    mats += [np.hstack([shared, rng.standard_normal((5, 1))]) for _ in range(5)]
    for rank_tol in (RANK_TOL, 0.3):
        got = geometry._bases(mats, rank_tol)
        for mat, basis in zip(mats, got):
            want = _reference_basis(mat, rank_tol)
            assert basis.shape == want.shape
            assert basis.tobytes() == np.ascontiguousarray(want).tobytes()
            single = orthonormal_basis(mat, rank_tol)
            assert single.basis.tobytes() == basis.tobytes()
    assert [b.shape[1] for b in geometry._bases(mats[:3], RANK_TOL)] == [0, 2, 1]


@pytest.mark.parametrize("kind, m, n, k", [
    ("cyclic", 8, 8, 2), ("complete", 4, 4, 2), ("cyclic", 6, 6, 3)])
def test_batched_dp_matches_reference_on_edge_spans(kind, m, n, k):
    h = build_cyclic(m, k) if kind == "cyclic" else build_complete(m, k)
    size = regularity(h) + 1
    for seed in range(3):
        mat = np.random.default_rng([seed, m, k]).standard_normal((n, m))
        spans = [column_span(mat, e) for e in h.edges]
        levels, = geometry._subset_dp(_raw([spans]), size, RANK_TOL)[0]
        got = _by_group(levels)
        assert _bits(got) == _bits(_pairwise_sine_products(spans, size))
        _assert_close_products(got, _reference_sine_products(spans, size))


def geometry_input_pairs():
    e2, e3 = np.eye(2), np.eye(3)
    diagonal = ((e2[:, 0] + e2[:, 1]) / math.sqrt(2))[:, None]
    rng = np.random.default_rng(1)
    v = orthonormal_basis(rng.standard_normal((5, 2)))
    pairs = [
        (orthonormal_basis(e3[:, :1]), orthonormal_basis(e3[:, :2])),
        (orthonormal_basis(e3[:, :1]), orthonormal_basis(e3[:, 1:2])),
        (orthonormal_basis(e2[:, :1]), orthonormal_basis(diagonal)),
        (orthonormal_basis(e3[:, :2]), orthonormal_basis(e3[:, 1:])),
        (v, v),
        (column_span(np.eye(4), (1, 2)), column_span(np.eye(4), (2, 3))),
    ]
    for _ in range(20):
        n = int(rng.integers(2, 8))
        pairs.append(tuple(
            orthonormal_basis(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
            for _ in range(2)))
    return pairs


def test_angle_and_intersect_match_reference_bit_for_bit():
    pairs = [ab for u, w in geometry_input_pairs() for ab in ((u, w), (w, u))]
    batch = geometry._principal([(u.basis, w.basis) for u, w in pairs], RANK_TOL)
    for (a, b), (sine, meet, vector) in zip(pairs, batch):
        # a batch of every pair gives the bits of a batch of one
        angle = math.pi / 2
        if vector is not None:
            cosine = float(np.linalg.norm(b.basis.T @ (a.basis @ vector)))
            angle = math.atan2(sine, cosine)
        assert friedrichs_angle(a, b).hex() == angle.hex()
        got = intersect([b, a])
        assert got.basis.shape == meet.shape
        assert got.basis.tobytes() == meet.tobytes()
        assert abs(angle - _reference_friedrichs_angle(a, b)) <= ORACLE_ABS
        _assert_same_meet(got, _reference_intersect([a, b]))


def test_angle_with_zero_subspace_is_exactly_right():
    z = orthonormal_basis(np.zeros((4, 1)))
    u = orthonormal_basis(np.random.default_rng(3).standard_normal((4, 2)))
    assert friedrichs_angle(u, z) == math.pi / 2
    assert friedrichs_angle(z, u) == math.pi / 2
    with pytest.raises(ValueError, match="at least one subspace"):
        friedrichs_angle(z, z)


@pytest.mark.parametrize("bad, message", [
    (np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]), "not orthonormal"),
    (np.array([[1.0, 0.0], [0.0, np.nan], [0.0, 0.0]]), "non-finite"),
    (np.array([[1.0, 0.0], [0.0, np.inf], [0.0, 0.0]]), "non-finite"),
    (np.eye(4)[:, :2], "must be an \\(ambient, dim\\) array"),
    (np.eye(3)[:, 0], "must be an \\(ambient, dim\\) array"),
], ids=["oblique", "nan", "inf", "rows", "vector"])
def test_subspace_keeps_every_check(bad, message):
    with pytest.raises(ValueError, match=message):
        Subspace(3, bad)


def test_stacked_bases_are_read_only():
    # public bases are read-only copies, whatever stack they came from
    basis = np.eye(4)[:, :2]
    space = Subspace(4, basis)
    basis[0, 0] = 5.0
    assert np.array_equal(space.basis, np.eye(4)[:, :2])
    e = np.eye(3)
    spaces = [space, orthonormal_basis(e[:, :2]), column_span(e, (2, 3)),
              intersect([orthonormal_basis(e[:, :2]), orthonormal_basis(e[:, 1:])])]
    for space in spaces:
        assert not space.basis.flags.writeable
        with pytest.raises(ValueError):
            space.basis[0, 0] = 2.0
