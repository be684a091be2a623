"""Hypergraph construction, regularity, star intersection, and union tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecert import (
    CapExceededError,
    Hypergraph,
    build_complete,
    build_cyclic,
    build_grid,
    has_sip,
    pairwise_unions,
    regularity,
    sample_size_cor1,
    star,
)
from sparsecert import hypergraph as hypergraph_module


def edge_set(h):
    return set(h.edges)


def test_cyclic_5_2():
    h = build_cyclic(5, 2)
    assert edge_set(h) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    assert regularity(h) == 2


def test_cyclic_singletons():
    h = build_cyclic(4, 1)
    assert edge_set(h) == {(1,), (2,), (3,), (4,)}
    assert regularity(h) == 1


def test_cyclic_6_3_degrees_and_sip():
    h = build_cyclic(6, 3)
    assert len(h.edges) == 6
    for i in range(1, 7):
        assert len(star(h, i)) == 3
    assert has_sip(h)


@pytest.mark.parametrize("m,k", [(2, 2), (3, 0), (4, 5), (5, 5)])
def test_cyclic_rejects_bad_k(m, k):
    with pytest.raises(ValueError):
        build_cyclic(m, k)


def test_complete_4_2():
    h = build_complete(4, 2)
    assert len(h.edges) == 6
    assert regularity(h) == 3


def test_complete_full_edge():
    h = build_complete(3, 3)
    assert h.edges == ((1, 2, 3),)
    assert regularity(h) == 1


def test_complete_singletons():
    h = build_complete(5, 1)
    assert len(h.edges) == 5
    assert regularity(h) == 1


@pytest.mark.parametrize("m, edges", [
    (4, [[1.5, 2]]), (4.7, [[1, 2]]), (True, [[1]]), ("4", [[1, 2]]),
    (4, [["1", 2]]),
])
def test_non_integer_vertices_refused(m, edges):
    # a fractional vertex or count used to be truncated
    with pytest.raises(ValueError, match="must be an integer"):
        Hypergraph(m, edges)


def test_integral_floats_and_numpy_integers_accepted():
    want = Hypergraph(4, [(1, 2), (3, 4)])
    assert Hypergraph(4.0, [[1.0, 2], [np.int64(3), 4]]) == want
    assert Hypergraph(np.int32(4), [(1, 2), (3, 4)]) == want
    assert type(Hypergraph(4.0, []).m) is int


def test_complete_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        build_complete(40, 20)
    # the cap is read at call time
    monkeypatch.setattr(hypergraph_module, "DEFAULT_EDGE_CAP", 1000)
    with pytest.raises(CapExceededError, match="3003 edges exceed cap 1000"):
        build_complete(15, 5)


def test_grid_4():
    h = build_grid(4)
    assert edge_set(h) == {(1, 2), (3, 4), (1, 3), (2, 4)}
    assert regularity(h) == 2


def test_grid_9():
    h = build_grid(9)
    assert len(h.edges) == 6
    assert h.k == 3
    for i in range(1, 10):
        assert len(star(h, i)) == 2
    assert has_sip(h)


@pytest.mark.parametrize("call, message", [
    (lambda: Hypergraph(0, []), "vertex count must be positive"),
    (lambda: build_complete(3, 4), "need 1 <= k <= m, got k=4, m=3"),
], ids=["no_vertices", "complete_k_above_m"])
def test_hypergraphs_refuse_bad_sizes(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_grid_rejects_non_square():
    with pytest.raises(ValueError):
        build_grid(3)


def test_star_cyclic():
    h = build_cyclic(5, 2)
    assert set(star(h, 2)) == {(1, 2), (2, 3)}


def test_star_complete():
    h = build_complete(3, 2)
    assert set(star(h, 1)) == {(1, 2), (1, 3)}


def test_star_isolated_vertex():
    h = Hypergraph(3, [(1, 2)])
    assert star(h, 3) == []


def test_star_range_check():
    with pytest.raises(ValueError):
        star(build_cyclic(4, 2), 5)


def test_regularity_absent():
    h = Hypergraph(3, [(1, 2), (2, 3)])
    assert regularity(h) is None


def test_regularity_complete():
    assert regularity(build_complete(4, 2)) == 3


def test_sip_cyclic():
    assert has_sip(build_cyclic(5, 2))


def test_sip_nested_edges_fail():
    assert not has_sip(Hypergraph(3, [(1, 2), (1, 2, 3)]))


def test_sip_grid():
    assert has_sip(build_grid(4))


def test_pairwise_unions_small():
    h = Hypergraph(3, [(1, 2), (2, 3)])
    assert edge_set(pairwise_unions(h)) == {(1, 2), (2, 3), (1, 2, 3)}


def test_pairwise_unions_cyclic6():
    doubled = edge_set(pairwise_unions(build_cyclic(6, 2)))
    assert (1, 2, 3) in doubled
    assert (1, 3, 5, 6) not in doubled


def test_pairwise_unions_single_edge():
    h = Hypergraph(4, [(1, 3)])
    assert pairwise_unions(h).edges == h.edges


def test_cyclic_uniform_regular_sip_exhaustive():
    for m in range(2, 13):
        for k in range(1, m):
            h = build_cyclic(m, k)
            assert h.k == k
            assert regularity(h) == k
            assert has_sip(h)


def test_complete_sip_range():
    for m in range(2, 8):
        for k in range(1, m):
            assert has_sip(build_complete(m, k))


def test_union_sizes_bounded():
    for m, k in [(5, 2), (6, 3), (7, 2)]:
        h = build_cyclic(m, k)
        assert all(len(e) <= 2 * k for e in pairwise_unions(h).edges)


def test_edges_canonicalized():
    h = Hypergraph(4, [(3, 1), (1, 3), (4, 2)])
    assert h.edges == ((1, 3), (2, 4))


def test_edge_range_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, [(1, 4)])


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(2, 8),
    data=st.data(),
)
def test_star_regularity_consistency(m, data):
    n_edges = data.draw(st.integers(1, 6))
    edges = [
        data.draw(st.sets(st.integers(1, m), min_size=1, max_size=m))
        for _ in range(n_edges)
    ]
    h = Hypergraph(m, [tuple(sorted(e)) for e in edges])
    r = regularity(h)
    degrees = {i: len(star(h, i)) for i in range(1, m + 1)}
    if r is not None:
        assert set(degrees.values()) == {r}
    else:
        assert len(set(degrees.values())) != 1 or set(degrees.values()) == {0}


_CYCLIC_4 = build_cyclic(4, 2)


@pytest.mark.parametrize("call, count", [
    (lambda c: build_cyclic(c, 2), 4),
    (lambda c: build_cyclic(4, c), 2),
    (lambda c: build_complete(c, 2), 4),
    (lambda c: build_complete(4, c), 2),
    (build_grid, 9),
    (lambda c: star(_CYCLIC_4, c), 1),
    (lambda c: sample_size_cor1(c, 2, _CYCLIC_4), 4),
    (lambda c: sample_size_cor1(4, c, _CYCLIC_4), 2),
], ids=["cyclic-m", "cyclic-k", "complete-m", "complete-k", "grid-m", "star-vertex",
        "cor1-m", "cor1-k"])
def test_count_arguments_follow_the_integer_rule(call, count):
    # floats used to raise TypeError, and a boolean was taken as 1 (or a
    # fractional vertex found no star)
    assert call(float(count)) == call(count)
    assert call(np.int64(count)) == call(count)
    for bad in (count + 0.5, True, str(count)):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
