"""The restricted-singular-value kernel against per-edge LAPACK calls.

The kernel takes one (E, w) index array; edges of mixed widths go through
``restricted_lower_bound``, which groups them by width.
"""

import itertools

import numpy as np
import pytest

import sparsecert
from sparsecert import Hypergraph, restricted_lower_bound
from sparsecert.geometry import edge_min_singular_values


def index_array(edges):
    return np.array(edges, dtype=np.intp)


def reference(mat, edges):
    out = []
    for e in edges:
        sub = mat[:, list(e)]
        if sub.shape[1] > sub.shape[0]:
            out.append(0.0)
        else:
            out.append(np.linalg.svd(sub, compute_uv=False)[-1])
    return np.array(out)


def test_identity_subsets_exact():
    mat = np.eye(6)
    edges = index_array(list(itertools.combinations(range(6), 3)))
    got = edge_min_singular_values(mat, edges)
    assert np.all(got == 1.0)


def random_mixed_edges(rng):
    return [tuple(sorted(rng.choice(10, size=s, replace=False)))
            for s in (1, 2, 3, 4, 5) for _ in range(20)]


def test_random_matches_lapack():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((8, 10))
    edges = random_mixed_edges(rng)
    for width in (1, 2, 3, 4, 5):
        group = [e for e in edges if len(e) == width]
        got = edge_min_singular_values(mat, index_array(group))
        want = reference(mat, group)
        assert np.max(np.abs(got - want)) < 1e-10


def test_mixed_widths_through_restricted_lower_bound():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((8, 10))
    edges = random_mixed_edges(rng)
    hypergraph = Hypergraph(10, [[v + 1 for v in e] for e in edges])
    want = min(reference(mat, [e])[0] / np.sqrt(len(e)) for e in edges)
    assert restricted_lower_bound(mat, hypergraph) == pytest.approx(want, abs=1e-10)


def test_duplicate_columns_give_zero():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((5, 4))
    mat[:, 3] = mat[:, 1]
    got = edge_min_singular_values(mat, index_array([(1, 3), (0, 2)]))
    assert got[0] < 1e-12
    assert got[1] > 0.1


def test_wide_edge_is_rank_deficient():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((2, 5))
    got = edge_min_singular_values(mat, index_array([(0, 1, 2, 3)]))
    assert got[0] < 1e-12


def test_singleton_edge_is_column_norm():
    mat = np.array([[3.0, 0.0], [4.0, 2.0]])
    got = edge_min_singular_values(mat, index_array([(0,), (1,)]))
    assert got[0] == pytest.approx(5.0, abs=1e-14)
    assert got[1] == pytest.approx(2.0, abs=1e-14)


def test_zero_column():
    mat = np.zeros((4, 2))
    mat[:, 0] = [1, 0, 0, 0]
    assert edge_min_singular_values(mat, index_array([(0, 1)])).tolist() == [0.0]
    assert edge_min_singular_values(mat, index_array([(1,)])).tolist() == [0.0]
    assert restricted_lower_bound(mat, Hypergraph(2, [(1, 2), (2,)])) == 0.0


def test_empty_edge_is_zero_in_place():
    got = edge_min_singular_values(np.eye(3), np.zeros((2, 0), dtype=np.intp))
    assert got.tolist() == [0.0, 0.0]
    assert edge_min_singular_values(np.eye(3), index_array([(0,)])).tolist() == [1.0]
    assert edge_min_singular_values(np.eye(3), index_array([(1, 2)])).tolist() == [1.0]
    assert edge_min_singular_values(np.eye(3), np.zeros((0, 2), dtype=np.intp)).size == 0
    with pytest.raises(ValueError, match="empty support set"):
        restricted_lower_bound(np.eye(3), Hypergraph(3, [(1,), (), (2, 3)]))


def test_wrapper_validates_indices():
    with pytest.raises(ValueError):
        edge_min_singular_values(np.eye(3), index_array([(0, 5)]))
    with pytest.raises(ValueError):
        edge_min_singular_values(np.eye(3), index_array([(-1, 2)]))
    with pytest.raises(ValueError):
        edge_min_singular_values(np.eye(3), index_array([0, 1]))


def test_backend_name_exported():
    assert sparsecert.kernel_backend == "python"
