"""Code families, position checks, dataset synthesis, and instance generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecert import (
    SparseCodeSet,
    build_complete,
    build_cyclic,
    general_linear_position,
    generate_instance,
    merge_code_sets,
    support_index_sets,
    synthesize_dataset,
    vandermonde_codes,
)


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
        assert general_linear_position(codes.codes, k)


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
    assert general_linear_position(codes.codes, k)


def test_glp_standard_basis():
    assert general_linear_position(np.eye(3)[:, :2], 2)


def test_glp_parallel_vectors():
    vectors = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    assert not general_linear_position(vectors, 2)


def test_glp_sampling_path():
    # more than subset_cap subsets are refused, never sampled
    rng = np.random.default_rng(10)
    vectors = rng.standard_normal((6, 30))
    from sparsecert import CapExceededError
    with pytest.raises(CapExceededError):
        general_linear_position(vectors, 3, subset_cap=100)


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
