"""Stability constants, thresholds, sample sizes, and certificate assembly."""

import itertools
import math
import sys

import numpy as np
import pytest

from sparsecert import (
    DEFAULT_RANK_TOL,
    HypothesisError,
    SparseCodeSet,
    StabilityCertificate,
    column_span,
    build_certificate,
    build_complete,
    build_cyclic,
    build_grid,
    compute_C2,
    epsilon_for,
    generate_instance,
    has_sip,
    lower_bound_k,
    merge_code_sets,
    pairwise_unions,
    restricted_lower_bound,
    sample_size_cor1,
    sample_size_thm2,
    support_index_sets,
    vandermonde_codes,
    xi,
)
from sparsecert import constants, geometry
from sparsecert import codes as codes_module
from sparsecert.hypergraph import Hypergraph, regularity


def singleton_codes(coefficients):
    m = len(coefficients)
    return merge_code_sets([
        vandermonde_codes((i + 1,), 1, (c,), m=m)
        for i, c in enumerate(coefficients)
    ])


# compute_C2


def test_c2_identity_cyclic():
    # coordinate-span geometry: all ordering aggregates vanish, r = 2, unit columns
    assert compute_C2(np.eye(4), build_cyclic(4, 2)) == pytest.approx(3.0, abs=1e-12)


def test_c2_scales_linearly():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((5, 4))
    h = build_cyclic(4, 2)
    assert compute_C2(2 * mat, h) == pytest.approx(2 * compute_C2(mat, h), rel=1e-10)


def test_c2_identity_grid():
    assert compute_C2(np.eye(9), build_grid(9)) == pytest.approx(3.0, abs=1e-12)


def per_group_c2(mat, hypergraph):
    """Reference C2: a separate subset DP for every group of r + 1 edge spans."""
    r = regularity(hypergraph)
    lowest = 1.0
    for group in itertools.combinations(hypergraph.edges, r + 1):
        levels, = geometry._subset_dp([[column_span(mat, e).basis for e in group]],
                                      r + 1, DEFAULT_RANK_TOL)[0]
        # the top level holds the one subset, the whole group
        lowest = min(lowest, float(levels[r][0]))
    denominator = lowest / (1.0 + math.sqrt(1.0 - lowest))
    return (r + 1) * float(np.max(np.linalg.norm(mat, axis=0))) / denominator


def per_group_xi_c2(mat, hypergraph):
    """Reference C2: a separate xi for every group of r + 1 edge spans."""
    r = regularity(hypergraph)
    worst = 0.0
    for group in itertools.combinations(hypergraph.edges, r + 1):
        worst = max(worst, xi([column_span(mat, e) for e in group]))
    return (r + 1) * float(np.max(np.linalg.norm(mat, axis=0))) / (1.0 - worst)


@pytest.mark.parametrize("hypergraph", [
    build_cyclic(8, 2), build_complete(4, 2), build_complete(5, 2),
    build_grid(9), build_cyclic(6, 3),
], ids=["cyclic8k2", "complete4k2", "complete5k2", "grid9", "cyclic6k3"])
def test_c2_shared_dp_matches_per_group_xi_bitwise(hypergraph):
    mat = np.random.default_rng(hypergraph.m).standard_normal(
        (hypergraph.m, hypergraph.m))
    c2 = compute_C2(mat, hypergraph)
    # the table's sines come from other SVDs than the DP's meets
    assert c2 == pytest.approx(per_group_c2(mat, hypergraph), rel=1e-13, abs=0)
    # 1 - xi from xi itself loses digits to cancellation; compute_C2 does not
    assert c2 == pytest.approx(per_group_xi_c2(mat, hypergraph), rel=1e-12, abs=0)


def numeric_dp_c2(mat, hypergraph, rank_tol=DEFAULT_RANK_TOL):
    """Reference C2: one numeric subset DP over the edge spans, every meet
    intersected numerically, shared by all groups of r + 1 edges."""
    r = regularity(hypergraph)
    spans = geometry._bases([mat[:, [v - 1 for v in e]] for e in hypergraph.edges],
                            rank_tol)
    levels, = geometry._subset_dp([spans], r + 1, rank_tol)[0]
    # the top level holds one entry per group of r + 1 edges
    assert len(levels[r]) == math.comb(len(spans), r + 1)
    lowest = min(float(levels[r].min()), 1.0)
    denominator = lowest / (1.0 + math.sqrt(1.0 - lowest))
    shifts = np.frexp(np.max(np.abs(mat), axis=0))[1]
    norms = np.ldexp(np.linalg.norm(np.ldexp(mat, -shifts), axis=0), shifts)
    return (r + 1) * float(np.max(norms)) / denominator


# every hypergraph here has a numeric DP of under a second per call
SWEEP = ([build_cyclic(m, 2) for m in range(4, 11)]
         + [build_cyclic(m, 3) for m in range(4, 11)]
         + [build_complete(m, 2) for m in (4, 5, 6)]
         + [build_complete(5, 3), build_grid(9), build_complete(4, 1)])


@pytest.mark.parametrize("hypergraph", SWEEP,
                         ids=[f"m{h.m}k{h.k}e{len(h.edges)}" for h in SWEEP])
def test_c2_table_matches_numeric_dp(hypergraph):
    m = hypergraph.m
    for seed in range(3):
        for n in (m, m + 3):
            rng = np.random.default_rng([seed, m, hypergraph.k, n])
            mat = rng.standard_normal((n, m))
            assert compute_C2(mat, hypergraph) == pytest.approx(
                numeric_dp_c2(mat, hypergraph), rel=1e-13, abs=0)


def test_c2_table_in_small_stacks_is_bit_identical(monkeypatch):
    # stacks of 7 pairs split every shape of cyclic m=8, k=2 (16, 40, 48 pairs)
    mat = np.random.default_rng(3).standard_normal((8, 8))
    h = build_cyclic(8, 2)
    whole = compute_C2(mat, h)
    monkeypatch.setattr(geometry, "_STACK_BLOCK", 7)
    assert compute_C2(mat, h).hex() == whole.hex()


def test_c2_plan_is_shared_by_equal_hypergraphs():
    constants._c2_plan.cache_clear()
    mat = np.random.default_rng(2).standard_normal((4, 4))
    first, second = build_cyclic(4, 2), build_cyclic(4, 2)
    assert first is not second
    assert compute_C2(mat, first) == compute_C2(mat, second)
    info = constants._c2_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def repeated_column_instance():
    """Cyclic m=4, k=2 with column 3 equal to column 1, and Gaussian codes:
    the spans of edges {1, 2} and {2, 3} coincide."""
    rng = np.random.default_rng(5)
    h = build_cyclic(4, 2)
    mat = rng.standard_normal((4, 4))
    mat[:, 2] = mat[:, 0]
    codes = np.zeros((4, 7 * len(h.edges)))
    for index, edge in enumerate(h.edges):
        rows = [v - 1 for v in edge]
        codes[rows, index * 7:(index + 1) * 7] = rng.standard_normal((2, 7))
    supports = tuple(edge for edge in h.edges for _ in range(7))
    return mat, SparseCodeSet(4, codes, supports, 2), h


def test_c2_refuses_a_repeated_column():
    mat, codes, h = repeated_column_instance()
    with pytest.raises(HypothesisError, match="beyond their shared columns"):
        compute_C2(mat, h)
    cert = build_certificate(mat, codes, h)
    assert cert.C2 is None and cert.C1 is None
    assert not cert.lower_bound_ok and not cert.hypotheses_ok


def test_c2_refuses_a_rank_deficient_edge():
    mat = np.random.default_rng(5).standard_normal((4, 4))
    mat[:, 1] = 2.0 * mat[:, 0]
    with pytest.raises(HypothesisError, match=r"columns \(1, 2\) are dependent"):
        compute_C2(mat, build_cyclic(4, 2))


def near_repeat_dictionary(eps):
    """4x4 Gaussian dictionary whose column 3 is column 1 plus eps * noise."""
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 4))
    mat[:, 2] = mat[:, 0] + eps * rng.standard_normal(4)
    return mat


def test_c2_nearly_degenerate_spans_give_a_large_constant():
    # the edge spans {1, 2} and {3, 4} of cyclic m=4 nearly share a column
    c2 = compute_C2(near_repeat_dictionary(1e-4), build_cyclic(4, 2))
    assert math.isfinite(c2)
    assert c2 == pytest.approx(3.7757e10, rel=1e-3)


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7])
def test_c2_is_not_refused_where_lower_bound_holds(eps):
    # sines of order eps, far above rank_tol: the precondition check stays
    # silent wherever the certificate's L2H flag holds
    mat, h = near_repeat_dictionary(eps), build_cyclic(4, 2)
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])
    assert restricted_lower_bound(mat, pairwise_unions(h)) > DEFAULT_RANK_TOL * smax
    assert math.isfinite(compute_C2(mat, h))


def test_c2_denominator_keeps_its_digits():
    # 1 - xi is of order eps^2, so C2 * eps^2 settles as eps shrinks
    h = build_cyclic(4, 2)
    a, b = (compute_C2(near_repeat_dictionary(eps), h) * eps ** 2
            for eps in (1e-6, 1e-7))
    assert a == pytest.approx(b, rel=1e-5)


def test_c2_requires_regular():
    with pytest.raises(HypothesisError):
        compute_C2(np.eye(3), Hypergraph(3, [(1, 2), (2, 3)]))


# C1


def test_c1_singleton_formula_identity():
    codes = singleton_codes([1.0, 1.0, 1.0, 1.0])
    got = build_certificate(np.eye(4), codes, build_complete(4, 1)).C1
    assert got == pytest.approx(2.0, abs=1e-12)


def test_c1_singleton_footnote_bound():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        mat = rng.standard_normal((m + 1, m))
        coeffs = rng.uniform(0.2, 3.0, m) * rng.choice([-1.0, 1.0], m)
        c1 = build_certificate(mat, singleton_codes(coeffs), build_complete(m, 1)).C1
        assert c1 >= 2.0 / np.min(np.abs(coeffs)) - 1e-9
        assert c1 >= 1.0 / np.min(np.abs(coeffs))


def test_c1_decreases_when_codes_scale_up():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=0)
    doubled = merge_code_sets([codes])
    doubled.codes = 2 * doubled.codes
    assert build_certificate(mat, doubled, h).C1 < build_certificate(mat, codes, h).C1


def test_c1_requires_codes_everywhere():
    codes = vandermonde_codes((1, 2), 3, (1.0, 2.0), m=4)
    cert = build_certificate(np.eye(4), codes, build_cyclic(4, 2))
    assert not cert.glp_ok
    assert cert.C1 is None


# epsilon_for


def test_epsilon_zero_deltas():
    assert epsilon_for(0.0, 0.0, 3.0, 0.5, 1.0) == 0.0


def test_epsilon_example_value():
    got = epsilon_for(0.3, 0.1, 3.0, 0.5, 1.0)
    assert got == pytest.approx(min(0.1, 0.05 / 4.3), abs=1e-15)


def test_epsilon_large_delta1_hits_second_branch():
    got = epsilon_for(1e9, 0.1, 3.0, 0.5, 1.0)
    assert got == pytest.approx(0.05 / 4.3, abs=1e-15)


def test_epsilon_monotone_and_positive():
    grid = [0.0, 1e-3, 0.1, 1.0, 10.0]
    values = [[epsilon_for(d1, d2, 2.0, 0.3, 1.5) for d2 in grid] for d1 in grid]
    for i, d1 in enumerate(grid):
        for j, d2 in enumerate(grid):
            if d1 > 0 and d2 > 0:
                assert values[i][j] > 0
            if i + 1 < len(grid):
                assert values[i + 1][j] >= values[i][j]
            if j + 1 < len(grid):
                assert values[i][j + 1] >= values[i][j]


def test_epsilon_rejects_negative():
    with pytest.raises(ValueError):
        epsilon_for(-0.1, 0.1, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("position", range(5))
def test_epsilon_refuses_non_finite_inputs(position, bad):
    # a NaN delta, l2k or max_l1 used to give 1.0, and a NaN delta1 or c1 NaN
    args = [0.3, 0.1, 3.0, 0.5, 1.0]
    args[position] = bad
    with pytest.raises(ValueError, match="finite"):
        epsilon_for(*args)


# sample sizes


def test_cor1_cyclic_5_2():
    assert sample_size_cor1(5, 2, build_cyclic(5, 2)) == 55


def test_cor1_k1():
    h = build_complete(6, 1)
    assert sample_size_cor1(6, 1, h) == len(h.edges)


def test_cor1_cyclic_4_2():
    assert sample_size_cor1(4, 2, build_cyclic(4, 2)) == 28


def test_cor1_intro_identity():
    # |H| = m gives m(k-1)C(m,k) + m
    for m, k in [(5, 2), (6, 3), (7, 2)]:
        h = build_cyclic(m, k)
        assert sample_size_cor1(m, k, h) == m * (k - 1) * math.comb(m, k) + m


def test_thm2_5_2():
    got = sample_size_thm2(5, 2, build_cyclic(5, 2))
    assert got.per_support == 61
    assert got.total == 305


def test_thm2_k1():
    assert sample_size_thm2(5, 1, build_cyclic(5, 1)).per_support == 1


def test_thm2_4_2():
    got = sample_size_thm2(4, 2, build_cyclic(4, 2))
    assert got.per_support == 39
    assert got.total == 156


def test_sample_sizes_are_exact_integers():
    # big instances stay exact under arbitrary-precision arithmetic
    h = build_cyclic(30, 6)
    value = sample_size_cor1(30, 6, h)
    assert value == 30 * (5 * math.comb(30, 6) + 1)
    assert isinstance(value, int)


# certificate


def test_certificate_on_verified_instance():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    cert = build_certificate(mat, codes, h)
    assert cert.hypotheses_ok and cert.spark_ok
    assert cert.r == 2
    assert cert.required_per_support == 7
    assert all(v == 7 for v in cert.support_counts.values())
    assert cert.C1 > 0 and cert.C2 > 0
    assert cert.eps_max_dictionary == pytest.approx(cert.L2 / cert.C1)
    assert cert.eps_max_codes == pytest.approx(cert.L2k / cert.C1)
    assert cert.eps_max_codes <= cert.eps_max_dictionary + 1e-18
    assert cert.L2 >= cert.L2H >= cert.L2k >= 0


def test_certificate_computes_c2_once(monkeypatch):
    calls = []
    original = constants.compute_C2

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    h = build_cyclic(4, 2)
    # generation certifies its draws, so the count starts after it
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    monkeypatch.setattr(constants, "compute_C2", counted)
    cert = build_certificate(mat, codes, h)
    assert len(calls) == 1
    denominator = codes_module._code_checks(mat, codes, h, support_index_sets(codes, h),
                                            DEFAULT_RANK_TOL)[1]
    assert cert.C1 == cert.C2 / denominator


@pytest.mark.parametrize("rank_tol", [math.nan, math.inf, 0.0, -1e-9])
def test_certificate_rejects_bad_rank_tol_before_any_check(rank_tol, monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran")

    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    monkeypatch.setattr(constants.geometry, "edge_min_singular_values", no_checks)
    with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
        build_certificate(mat, codes, h, rank_tol=rank_tol)


@pytest.mark.parametrize("m_bar", ["x", 2.5, True, -3, 0])
def test_certificate_rejects_bad_m_bar_before_any_check(m_bar, monkeypatch):
    # these used to be stored as given and written into the certificate JSON
    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran")

    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    monkeypatch.setattr(constants.geometry, "edge_min_singular_values", no_checks)
    with pytest.raises(ValueError, match="m_bar must be"):
        build_certificate(mat, codes, h, m_bar=m_bar)


def test_certificate_takes_an_integral_m_bar():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    assert build_certificate(mat, codes, h).m_bar is None
    m_bar = build_certificate(mat, codes, h, m_bar=6.0).m_bar
    assert m_bar == 6 and type(m_bar) is int


def test_certificate_without_c1_is_not_ok(monkeypatch):
    def refuse(*args, **kwargs):
        raise HypothesisError("degenerate")

    monkeypatch.setattr(constants, "compute_C2", refuse)
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    cert = build_certificate(mat, codes, h)
    assert cert.C1 is None and cert.C2 is None
    assert (cert.sip_ok and cert.regular_ok and cert.lower_bound_ok
            and cert.glp_ok and cert.counts_ok)
    assert not cert.hypotheses_ok


def test_certificate_permutation_invariance():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=2)
    c2 = compute_C2(mat, h)
    perm = [2, 0, 3, 1]
    relabel = {old + 1: new + 1 for new, old in enumerate(perm)}
    permuted_edges = [tuple(sorted(relabel[v] for v in e)) for e in h.edges]
    c2_perm = compute_C2(mat[:, perm], Hypergraph(4, permuted_edges))
    assert c2_perm == pytest.approx(c2, rel=1e-9)


def test_certificate_non_spark_dictionary_still_certifies():
    # five basis columns plus their alternating sum: spark fails, bound over
    # the union hypergraph stays positive, and the code tier is withheld
    eye = np.eye(5)
    mat = np.hstack([eye, (eye[:, 0] + eye[:, 2] + eye[:, 4])[:, None]])
    h = build_cyclic(6, 2)
    blocks = [vandermonde_codes(e, 16, (0.75, 1.25), m=6) for e in h.edges]
    cert = build_certificate(mat, merge_code_sets(blocks), h)
    assert not cert.spark_ok
    assert cert.lower_bound_ok
    assert cert.hypotheses_ok
    assert cert.eps_max_codes is None
    assert cert.eps_max_dictionary is not None and cert.eps_max_dictionary > 0


def test_certificate_grid_design():
    h = build_grid(4)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=3)
    cert = build_certificate(mat, codes, h)
    assert cert.r == 2
    assert cert.hypotheses_ok and cert.spark_ok


def test_certificate_counts_flag():
    h = build_cyclic(4, 2)
    blocks = [vandermonde_codes(e, 3, (0.8, 1.2), m=4) for e in h.edges]
    cert = build_certificate(np.eye(4), merge_code_sets(blocks), h)
    assert not cert.counts_ok
    assert cert.required_per_support == 7


# one k-subset index array: bit identity with the separate enumerations


def gaussian_instance(seed, kind, m, k, count):
    """Gaussian m x m dictionary and ``count`` Gaussian codes on every edge."""
    rng = np.random.default_rng(seed)
    h = build_cyclic(m, k) if kind == "cyclic" else build_complete(m, k)
    mat = rng.standard_normal((m, m))
    codes = np.zeros((m, count * len(h.edges)))
    for index, edge in enumerate(h.edges):
        rows = [v - 1 for v in edge]
        codes[rows, index * count:(index + 1) * count] = rng.standard_normal((k, count))
    supports = tuple(edge for edge in h.edges for _ in range(count))
    return mat, SparseCodeSet(m, codes, supports, k), h


def complete_path_lower_bound(mat, k):
    """Restricted lower bound over a build_complete hypergraph of k-subsets."""
    return restricted_lower_bound(mat, build_complete(mat.shape[1], k))


def itertools_glp(vectors, k, rank_tol):
    """Every k-subset independent against rank_tol times the stack's top value."""
    top = np.linalg.svd(vectors, compute_uv=False)[0]
    subsets = list(itertools.combinations(range(vectors.shape[1]), k))
    stacked = np.stack([vectors[:, list(t)] for t in subsets])
    return bool(np.all(np.linalg.svd(stacked, compute_uv=False)[:, -1] > rank_tol * top))


def separate_path_certificate(mat, codes, h, rank_tol=DEFAULT_RANK_TOL):
    """The certificate with every k-subset enumeration done on its own."""
    n, m = mat.shape
    k = h.k
    r = regularity(h)
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])
    l2 = complete_path_lower_bound(mat, min(2, m))
    l2k = complete_path_lower_bound(mat, min(2 * k, m))
    l2h = restricted_lower_bound(mat, pairwise_unions(h))
    spark_ok = l2k * math.sqrt(min(2 * k, m)) > rank_tol * smax
    index_sets = support_index_sets(codes, h)
    counts = {edge: len(ids) for edge, ids in index_sets.items()}
    required = (k - 1) * math.comb(m, k) + 1
    glp_ok = all(itertools_glp(codes.codes[:, index_sets[e]], k, rank_tol)
                 for e in h.edges)
    denominator = min(complete_path_lower_bound(mat @ codes.codes[:, index_sets[e]], k)
                      for e in h.edges)
    c2 = compute_C2(mat, h, rank_tol)
    c1 = c2 / denominator if glp_ok and denominator > 0.0 else None
    return StabilityCertificate(
        m=m, n=n, k=k, m_bar=None, r=r, L2=l2, L2k=l2k, L2H=l2h, C2=c2, C1=c1,
        eps_max_dictionary=l2 / c1 if c1 else None,
        eps_max_codes=l2k / c1 if (c1 and spark_ok) else None,
        max_code_l1=float(np.max(codes.l1_norms())),
        support_counts=counts, required_per_support=required,
        sip_ok=has_sip(h), regular_ok=r is not None,
        lower_bound_ok=l2h > rank_tol * smax, glp_ok=glp_ok, spark_ok=spark_ok,
        counts_ok=all(c >= required for c in counts.values()),
    )


@pytest.mark.parametrize("spec", [
    ("cyclic", 6, 3, 41), ("cyclic", 8, 2, 29), ("complete", 4, 2, 7),
], ids=["cyclic6k3", "cyclic8k2", "complete4k2"])
def test_certificate_bit_identical_to_separate_enumerations(spec):
    mat, codes, h = gaussian_instance(1606, *spec)
    cert = build_certificate(mat, codes, h)
    assert cert.hypotheses_ok
    assert cert == separate_path_certificate(mat, codes, h)


def test_lower_bound_k_bit_identical_to_complete_path():
    rng = np.random.default_rng(12)
    for shape in [(4, 6), (6, 6), (3, 5), (8, 7)]:
        mat = rng.standard_normal(shape)
        for k in range(1, shape[1] + 1):
            assert lower_bound_k(mat, k) == complete_path_lower_bound(mat, k)


def test_certificate_submits_each_subset_once(monkeypatch):
    mat, codes, h = gaussian_instance(0, "complete", 4, 2, 7)
    on_dictionary, on_codes, completes = [], [], []
    kernel = geometry.edge_min_singular_values

    def counted(matrix, edges):
        target = on_dictionary if matrix is mat else on_codes
        target.extend((matrix.tobytes(), tuple(row)) for row in edges)
        return kernel(matrix, edges)

    def recorded(*args, **kwargs):
        completes.append(args)
        return build_complete(*args, **kwargs)

    monkeypatch.setattr(geometry, "edge_min_singular_values", counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("sparsecert") and hasattr(module, "build_complete"):
            monkeypatch.setattr(module, "build_complete", recorded)
    cert = build_certificate(mat, codes, h)
    m, k = 4, 2
    # L2, L2k and L2H on the dictionary itself: each distinct column set of
    # the three families once, 6 pairs, 1 four-set and 4 triples
    wanted = {tuple(c) for width in (2, min(2 * k, m))
              for c in itertools.combinations(range(m), width)}
    wanted |= {tuple(v - 1 for v in union) for union in pairwise_unions(h).edges}
    assert len(on_dictionary) == len(set(on_dictionary)) == len(wanted) == 11
    assert {columns for _, columns in on_dictionary} == wanted
    # the code checks: no subset of a code or product matrix twice, and at
    # most one exact SVD per subset and check
    per_support = sum(math.comb(count, k) for count in cert.support_counts.values())
    assert len(set(on_codes)) == len(on_codes) <= 2 * per_support
    assert completes == []


CHAIN_HYPERGRAPHS = [build_cyclic(6, 2), build_cyclic(8, 3), build_complete(5, 2),
                     build_grid(9)]


@pytest.mark.parametrize("seed", [0, 1, 1606])
@pytest.mark.parametrize("h", CHAIN_HYPERGRAPHS,
                         ids=["cyclic6k2", "cyclic8k3", "complete5k2", "grid9"])
def test_certificate_bounds_interlace(h, seed):
    # sigma_min of a column set is at least that of any superset (Cauchy
    # interlacing). Every pair lies in a union of two supports, and every
    # union in a 2k-set (2k <= m), so L2 >= L2H >= L2k; a table that reads
    # one family's rows for another breaks the chain or the views
    rng = np.random.default_rng(seed)
    m, k = h.m, h.k
    mat = rng.standard_normal((m, m))
    x = np.zeros((m, (k + 1) * len(h.edges)))
    for index, edge in enumerate(h.edges):
        x[[v - 1 for v in edge], index * (k + 1):(index + 1) * (k + 1)] = (
            rng.standard_normal((k, k + 1)))
    supports = tuple(edge for edge in h.edges for _ in range(k + 1))
    cert = build_certificate(mat, SparseCodeSet(m, x, supports, k), h)
    assert cert.L2 >= cert.L2H >= cert.L2k > 0.0
    assert (cert.L2, cert.L2k, cert.L2H) == (
        lower_bound_k(mat, 2), lower_bound_k(mat, 2 * k),
        restricted_lower_bound(mat, pairwise_unions(h)))


def test_bound_plan_is_shared_by_equal_hypergraphs(monkeypatch):
    constants._bound_plan.cache_clear()
    mat, codes, first = gaussian_instance(0, "cyclic", 4, 2, 7)
    second = build_cyclic(4, 2)
    assert first is not second
    cert = build_certificate(mat, codes, first)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return pairwise_unions(*args, **kwargs)

    monkeypatch.setattr(constants, "pairwise_unions", counted)
    assert build_certificate(mat, codes, second) == cert
    assert calls == []
    info = constants._bound_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("h", CHAIN_HYPERGRAPHS + [
    Hypergraph(6, [(1, 2, 3), (4, 5, 6), (1, 4), (2, 5), (3, 6)])],
    ids=["cyclic6k2", "cyclic8k3", "complete5k2", "grid9", "mixed6"])
def test_cached_plans_hold_only_read_only_arrays(h):
    arrays = []

    def walk(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (tuple, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                walk(item)
        else:
            # a width or a (|S_a|, |I|, |I & S_a|) shape entry
            assert type(value) is int

    walk(constants._c2_plan(h, regularity(h) + 1))
    if h.k is not None:
        walk(constants._bound_plan(h))
    assert arrays
    assert not any(array.flags.writeable for array in arrays)


def test_planted_dependence_found_exhaustively():
    # C(110, 3) = 215,820 triples, one of them dependent
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 110))
    x[:, 109] = x[:, 0] + x[:, 1]
    codes = SparseCodeSet(3, x, ((1, 2, 3),) * 110, 3)
    h = Hypergraph(3, [(1, 2, 3)])
    cert = build_certificate(rng.standard_normal((3, 3)), codes, h)
    assert not cert.glp_ok
    assert cert.C1 is None
