"""Code families, position checks, dataset synthesis, and instance generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecert import (
    GenerationError,
    Hypergraph,
    SparseCodeSet,
    build_certificate,
    build_complete,
    build_cyclic,
    generate_instance,
    merge_code_sets,
    pairwise_unions,
    restricted_lower_bound,
    spark_condition,
    support_index_sets,
    synthesize_dataset,
    vandermonde_codes,
)
from sparsecert import _kernels, codes as codes_module, geometry


def _glp(codes, support):
    """The GLP verdict of the certificate's code checks on the codes of one
    support, as the one edge of a hypergraph."""
    h = Hypergraph(codes.m, [support])
    mat = np.random.default_rng(0).standard_normal((codes.m, codes.m))
    return codes_module._code_checks(mat, codes, h, support_index_sets(codes, h),
                                     geometry.DEFAULT_RANK_TOL)[0]


def test_vandermonde_example_powers():
    codes = vandermonde_codes((1, 2), 3, (1.0, 2.0), m=4)
    assert codes.codes.shape == (4, 3)
    np.testing.assert_array_equal(codes.codes[0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(codes.codes[1], [2.0, 4.0, 8.0])
    np.testing.assert_array_equal(codes.codes[2:], np.zeros((2, 3)))
    assert codes.supports == ((1, 2),) * 3


def test_vandermonde_scalar_powers():
    codes = vandermonde_codes((3,), 4, (0.5,), m=3)
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
        codes = vandermonde_codes(support, count, gammas, m=6)
        assert _glp(codes, support)


def test_vandermonde_rejects_bad_nodes():
    with pytest.raises(ValueError):
        vandermonde_codes((1, 2), 3, (1.0, 1.0), m=3)
    with pytest.raises(ValueError):
        vandermonde_codes((1, 2), 3, (0.0, 1.0), m=3)
    with pytest.raises(ValueError):
        vandermonde_codes((1,), 2000, (2.0,), m=2)


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
    codes = vandermonde_codes(tuple(range(1, k + 1)), count, gammas, m=k + 1)
    assert _glp(codes, tuple(range(1, k + 1)))


def test_glp_standard_basis():
    codes = SparseCodeSet(3, np.eye(3)[:, :2], ((1, 2),) * 2, 2)
    assert _glp(codes, (1, 2))


def test_glp_parallel_vectors():
    vectors = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    assert not _glp(SparseCodeSet(3, vectors, ((1, 2),) * 2, 2), (1, 2))


def test_support_index_sets_single_support():
    codes = vandermonde_codes((1, 2), 5, (0.8, 1.2), m=4)
    sets = support_index_sets(codes, build_cyclic(4, 2))
    assert sets[(1, 2)] == list(range(5))
    assert sets[(2, 3)] == []
    assert sets[(3, 4)] == []
    assert sets[(1, 4)] == []


def test_support_index_sets_containment():
    codes = vandermonde_codes((2,), 2, (1.5,), m=3)
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


@pytest.mark.parametrize("rank_tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_generate_instance_rejects_bad_rank_tol_before_any_draw(rank_tol, monkeypatch):
    # a NaN used to spend every draw, and zero or a negative value accepted one
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(codes_module.np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
        generate_instance(4, 4, 2, build_cyclic(4, 2), 7, seed=0, rank_tol=rank_tol)


def _reference_independent(x, k, rank_tol=geometry.DEFAULT_RANK_TOL):
    """Every k columns of x independent, by one exact SVD per k-subset."""
    smax = float(np.linalg.svd(x, compute_uv=False)[0])
    sv = _kernels.edge_min_singular_values(
        x, geometry.k_subsets(x.shape[1], k, cap=math.inf))
    return bool(np.min(sv) > rank_tol * smax)


def _reference_generate(m, n, k, hypergraph, per_support_count, seed,
                        max_retries=codes_module.GENERATE_MAX_RETRIES,
                        rank_tol=geometry.DEFAULT_RANK_TOL):
    """The draw loop of generate_instance, each draw accepted by L2H, the
    spark check and an exhaustive GLP check of every support."""
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
        if (restricted_lower_bound(mat, unions) > rank_tol * smax
                and spark_condition(mat, k, rank_tol)
                and all(_reference_independent(codes.codes[:, ids], k, rank_tol)
                        for ids in support_index_sets(codes, hypergraph).values())):
            return mat, codes
    raise GenerationError(f"no verified instance after {max_retries} attempts")


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


def test_generate_instance_raises_when_no_draw_is_in_general_position():
    # power-node codes at 41 per support of cyclic m=6, k=3 are too
    # ill-conditioned to pass GLP
    h = build_cyclic(6, 3)
    with pytest.raises(GenerationError):
        generate_instance(6, 6, 3, h, 41, seed=0)
    with pytest.raises(GenerationError):
        _reference_generate(6, 6, 3, h, 41, 0)


def test_generate_instance_seed_variation():
    h = build_cyclic(4, 2)
    a, _ = generate_instance(4, 4, 2, h, 7, seed=100)
    b, _ = generate_instance(4, 4, 2, h, 7, seed=101)
    assert not np.array_equal(a, b)


def test_code_set_validates_support():
    with pytest.raises(ValueError):
        SparseCodeSet(3, np.ones((3, 1)), ((1, 2),), 2)


def test_merge_code_sets():
    a = vandermonde_codes((1,), 2, (1.1,), m=3)
    b = vandermonde_codes((2, 3), 3, (0.7, 1.3), m=3)
    merged = merge_code_sets([a, b])
    assert merged.n_codes == 5
    assert merged.k == 2
    assert merged.supports[:2] == ((1,), (1,))


def test_merge_code_sets_rejects_mixed_ambient():
    a = vandermonde_codes((1,), 2, (1.1,), m=3)
    b = vandermonde_codes((1,), 2, (1.1,), m=4)
    with pytest.raises(ValueError):
        merge_code_sets([a, b])
