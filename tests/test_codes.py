"""Code families, position checks, dataset synthesis, and instance generation."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecert import (
    GenerationError,
    Hypergraph,
    HypothesisError,
    SparseCodeSet,
    build_certificate,
    build_complete,
    build_cyclic,
    check_lemma4,
    generate_instance,
    pairwise_unions,
    restricted_lower_bound,
    support_index_sets,
    synthesize_dataset,
)
from sparsecert import codes as codes_module, experiment, geometry

from oracles import power_node_codes, spark_verdict


def _glp(codes, support):
    """The GLP verdict of the certificate's code checks on the codes of one
    support, as the one edge of a hypergraph."""
    h = Hypergraph(codes.m, [support])
    mat = np.random.default_rng(0).standard_normal((codes.m, codes.m))
    return codes_module._code_checks(mat, codes, h, support_index_sets(codes, h),
                                     geometry.DEFAULT_RANK_TOL)[0]


def test_vandermonde_example_powers():
    codes = power_node_codes([(1, 2)], 3, (1.0, 2.0), m=4)
    assert codes.codes.shape == (4, 3)
    np.testing.assert_array_equal(codes.codes[0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(codes.codes[1], [2.0, 4.0, 8.0])
    np.testing.assert_array_equal(codes.codes[2:], np.zeros((2, 3)))
    assert codes.supports == ((1, 2),) * 3


def test_vandermonde_scalar_powers():
    codes = power_node_codes([(3,)], 4, (0.5,), m=3)
    np.testing.assert_allclose(codes.codes[2], [0.5, 0.25, 0.125, 0.0625])


def test_vandermonde_always_general_position():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        count = int(rng.integers(k, 13))
        gammas = sorted(rng.uniform(0.5, 1.5, k))
        while len(set(gammas)) < k:
            gammas = sorted(rng.uniform(0.5, 1.5, k))
        support = tuple(sorted(rng.choice(6, size=k, replace=False) + 1))
        codes = power_node_codes([support], count, gammas, m=6)
        assert _glp(codes, support)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_vandermonde_general_position_property(data):
    k = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(k, 10))
    gammas = data.draw(
        st.lists(
            st.floats(0.5, 1.5).map(lambda v: round(v, 6)),
            min_size=k, max_size=k, unique=True,
        )
    )
    codes = power_node_codes([tuple(range(1, k + 1))], count, gammas, m=k + 1)
    assert _glp(codes, tuple(range(1, k + 1)))


def test_glp_standard_basis():
    codes = SparseCodeSet(3, np.eye(3)[:, :2], ((1, 2),) * 2, 2)
    assert _glp(codes, (1, 2))


def test_glp_parallel_vectors():
    vectors = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    assert not _glp(SparseCodeSet(3, vectors, ((1, 2),) * 2, 2), (1, 2))


def test_support_index_sets_single_support():
    codes = power_node_codes([(1, 2)], 5, (0.8, 1.2), m=4)
    sets = support_index_sets(codes, build_cyclic(4, 2))
    assert sets[(1, 2)] == list(range(5))
    assert sets[(2, 3)] == []
    assert sets[(3, 4)] == []
    assert sets[(1, 4)] == []


def test_support_index_sets_containment():
    codes = power_node_codes([(2,)], 2, (1.5,), m=3)
    from sparsecert.hypergraph import Hypergraph
    sets = support_index_sets(codes, Hypergraph(3, [(1, 2), (2, 3)]))
    assert sets[(1, 2)] == [0, 1]
    assert sets[(2, 3)] == [0, 1]


def test_support_index_sets_balanced_generation():
    h = build_cyclic(4, 2)
    _, codes = generate_instance(4, 4, 2, h, 7, seed=4)
    sets = support_index_sets(codes, h)
    assert all(len(ids) == 7 for ids in sets.values())


def _reference_support_index_sets(codes, hypergraph):
    """support_index_sets by set containment, one column and edge at a time."""
    result = {edge: [] for edge in hypergraph.edges}
    for col, support in enumerate(codes.supports):
        for edge in hypergraph.edges:
            if set(support) <= set(edge):
                result[edge].append(col)
    return result


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_support_index_sets_match_containment(data):
    m = data.draw(st.integers(2, 6))
    h_m = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, min(m, h_m) - 1))
    h = data.draw(st.sampled_from([build_cyclic, build_complete]))(h_m, k)
    supports = data.draw(st.lists(
        st.lists(st.integers(1, m), max_size=k).map(tuple), max_size=12))
    codes = SparseCodeSet(m, np.zeros((m, len(supports))), supports, k)
    sets = support_index_sets(codes, h)
    assert sets == _reference_support_index_sets(codes, h)
    assert all(type(col) is int for ids in sets.values() for col in ids)


@pytest.mark.parametrize("h_m", [10, 12])
def test_support_index_sets_match_containment_at_scale(h_m):
    # thousands of random supports of every size up to k, against every
    # 3-subset of [1, h_m]; at h_m = 12 some edges hold vertices past m
    m, k = 10, 3
    rng = np.random.default_rng(h_m)
    supports = [tuple(rng.choice(np.arange(1, m + 1), size=rng.integers(0, k + 1),
                                 replace=False)) for _ in range(3000)]
    codes = SparseCodeSet(m, np.zeros((m, len(supports))), supports, k)
    h = build_complete(h_m, k)
    assert support_index_sets(codes, h) == _reference_support_index_sets(codes, h)


def test_synthesize_noiseless():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=5)
    data = synthesize_dataset(mat, codes, 0.0)
    np.testing.assert_array_equal(data.signals, mat @ codes.codes)


def test_synthesize_noise_bound_exact():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=6)
    data = synthesize_dataset(mat, codes, 0.1, seed=9)
    residuals = np.linalg.norm(data.signals - mat @ codes.codes, axis=0)
    assert np.all(residuals <= 0.1)
    worst = synthesize_dataset(mat, codes, 0.1, seed=9, worst_case=True)
    radii = np.linalg.norm(worst.noise, axis=0)
    assert np.all(radii <= 0.1)
    assert np.all(radii >= 0.1 - 1e-12)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -0.1])
def test_synthesize_refuses_bad_eta(eta):
    # a NaN or infinite eta used to give signals of nan
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=7)
    with pytest.raises(ValueError, match="eta must be nonnegative and finite"):
        synthesize_dataset(mat, codes, eta, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: synthesize_dataset(
        np.eye(5), generate_instance(4, 4, 2, build_cyclic(4, 2), 7, seed=0)[1], 0.0),
     "dictionary columns and code rows differ"),
    (lambda: SparseCodeSet(4, np.zeros((3, 2)), ((1,), (2,)), 1),
     "codes must be an (m, N) array"),
], ids=["synthesize_other_m", "code_rows_other_m"])
def test_codes_refuse_mismatched_shapes(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_synthesize_deterministic():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=7)
    a = synthesize_dataset(mat, codes, 0.05, seed=123)
    b = synthesize_dataset(mat, codes, 0.05, seed=123)
    assert np.array_equal(a.signals, b.signals)


def test_generate_instance_flags():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=8)
    assert mat.shape == (4, 4)
    assert codes.n_codes == 28
    assert codes.k == 2


def test_generate_instance_rejects_small_n():
    with pytest.raises(ValueError):
        generate_instance(4, 3, 2, build_cyclic(4, 2), 7, seed=0)


@pytest.mark.parametrize("count", [0, 1, 2])
def test_generate_instance_refuses_fewer_codes_than_k(count, monkeypatch):
    # k - 1 codes on a support cannot be in general linear position; such an
    # instance used to be accepted with a certificate reading glp_ok=False
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(codes_module.np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="per_support_count must be at least k=3"):
        generate_instance(6, 6, 3, build_cyclic(6, 3), count, seed=0)


@pytest.mark.parametrize("m, edges, message", [
    (4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)], "is not regular"),
    (3, [(1, 2, 3)], "lacks the singleton intersection property"),
    (4, [(1, 2), (2, 3), (3, 4)], "is not regular"),
], ids=["sip_not_regular", "regular_without_sip", "neither"])
def test_generator_and_lemma4_refuse_a_design_alike(m, edges, message, monkeypatch):
    # one check for both, regularity first
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(codes_module.np.random, "default_rng", no_draws)
    h = Hypergraph(m, edges)
    k = len(edges[0])
    with pytest.raises(HypothesisError) as generated:
        generate_instance(m, m, k, h, k + 1, seed=0)
    with pytest.raises(HypothesisError) as lemma4:
        check_lemma4(h, m + 1)
    assert str(generated.value) == str(lemma4.value) == f"hypergraph {message}"


def test_generate_instance_counts_take_integral_floats():
    # 7.0 and n=4.0 used to raise TypeError
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=8)
    for args in [(4, 4, 2, h, 7.0), (4.0, 4.0, 2.0, h, 7)]:
        other_mat, other_codes = generate_instance(*args, seed=8)
        assert np.array_equal(other_mat, mat)
        assert np.array_equal(other_codes.codes, codes.codes)
        assert other_codes.supports == codes.supports


@pytest.mark.parametrize("position", range(4), ids=["m", "n", "k", "per_support_count"])
def test_generate_instance_refuses_boolean_counts_before_any_draw(position, monkeypatch):
    # per_support_count=True used to be reported as "must be at least k=2"
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(codes_module.np.random, "default_rng", no_draws)
    args = [4, 4, 2, build_cyclic(4, 2), 7]
    args[position if position < 3 else 4] = True
    with pytest.raises(ValueError, match="must be an integer, got True"):
        generate_instance(*args, seed=0)


def _reference_independent(x, k, rank_tol=geometry.DEFAULT_RANK_TOL):
    """Every k columns of x independent, by one exact SVD per k-subset."""
    smax = float(np.linalg.svd(x, compute_uv=False)[0])
    sv = geometry.edge_min_singular_values(
        x, geometry.k_subsets(x.shape[1], k, cap=math.inf))
    return bool(np.min(sv) > rank_tol * smax)


def _reference_generate(m, n, k, hypergraph, per_support_count, seed,
                        rank_tol=geometry.DEFAULT_RANK_TOL):
    """The draw loop of generate_instance, each draw's codes filled by one
    standard_normal(k) call per column, and each draw accepted by L2H, the
    spark check and an exhaustive GLP check of every support."""
    rng = np.random.default_rng(seed)
    unions = pairwise_unions(hypergraph)
    for _ in range(experiment.GENERATE_MAX_RETRIES):
        mat = rng.standard_normal((n, m))
        x = np.zeros((m, len(hypergraph.edges) * per_support_count))
        supports = []
        for edge in hypergraph.edges:
            for _ in range(per_support_count):
                x[[v - 1 for v in edge], len(supports)] = rng.standard_normal(k)
                supports.append(edge)
        codes = SparseCodeSet(m, x, tuple(supports), k)
        smax = float(np.linalg.svd(mat, compute_uv=False)[0])
        if (restricted_lower_bound(mat, unions) > rank_tol * smax
                and spark_verdict(mat, k, rank_tol)
                and all(_reference_independent(codes.codes[:, ids], k, rank_tol)
                        for ids in support_index_sets(codes, hypergraph).values())):
            return mat, codes
    raise GenerationError("no verified instance after "
                          f"{experiment.GENERATE_MAX_RETRIES} attempts")


def _outcome(generate, *args):
    try:
        return generate(*args)
    except GenerationError:
        return None


@pytest.mark.parametrize("m, count", [(4, 7), (6, 16), (8, 29)])
def test_generate_instance_equals_exhaustive_reference(m, count):
    h = build_cyclic(m, 2)
    accepted = 0
    for seed in range(50):
        got = _outcome(generate_instance, m, m, 2, h, count, seed)
        expected = _outcome(_reference_generate, m, m, 2, h, count, seed)
        if expected is None:
            assert got is None, seed
            continue
        mat, codes = got
        assert mat.tobytes() == expected[0].tobytes(), seed
        assert codes.codes.tobytes() == expected[1].codes.tobytes(), seed
        assert codes.supports == expected[1].supports
        cert = build_certificate(mat, codes, h)
        assert cert.lower_bound_ok and cert.spark_ok and cert.glp_ok, seed
        accepted += 1
    assert accepted > 0


def test_generate_instance_raises_when_no_draw_is_in_general_position(monkeypatch):
    # at rank_tol 0.999 no draw passes: a k-subset of a support's 41 codes
    # would need its least singular value within 0.1% of the support's
    # largest, and L2H <= smax / sqrt(k) fails the lower bound as well
    h = build_cyclic(6, 3)
    monkeypatch.setattr(experiment, "build_certificate",
                        functools.partial(build_certificate, rank_tol=0.999))
    with pytest.raises(GenerationError):
        generate_instance(6, 6, 3, h, 41, seed=0)
    with pytest.raises(GenerationError):
        _reference_generate(6, 6, 3, h, 41, 0, rank_tol=0.999)


def test_generate_instance_seed_variation():
    h = build_cyclic(4, 2)
    a, _ = generate_instance(4, 4, 2, h, 7, seed=100)
    b, _ = generate_instance(4, 4, 2, h, 7, seed=101)
    assert not np.array_equal(a, b)


def test_code_set_validates_support():
    with pytest.raises(ValueError):
        SparseCodeSet(3, np.ones((3, 1)), ((1, 2),), 2)
