"""The determinant screen behind GLP and the C1 denominator, against the
exhaustive one-SVD-per-subset path it replaced.

``_reference_code_checks`` is that path: every k-subset of every support
goes through the kernel twice, once on the codes and once on the dictionary
times the codes. The screen must give the same ``(glp_ok, denominator)``
bit for bit, and so the same certificate.
"""

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsecert import (
    CapExceededError,
    Hypergraph,
    SparseCodeSet,
    build_certificate,
    build_cyclic,
    general_linear_position,
    support_index_sets,
)
from sparsecert import _kernels, constants, geometry
from sparsecert import codes as codes_module
from sparsecert.codes import subsets_independent

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _reference_code_checks(mat, codes, hypergraph, index_sets, rank_tol):
    """(glp_ok, C1 denominator) with one exact SVD per k-subset and check."""
    k = hypergraph.k
    glp_ok, denominator = True, math.inf
    for edge in hypergraph.edges:
        ids = index_sets[edge]
        if len(ids) < k:
            return False, 0.0
        x = codes.codes[:, ids]
        subsets = geometry.k_subsets(len(ids), k, cap=math.inf)
        smax = float(np.linalg.svd(x, compute_uv=False)[0])
        sv = _kernels.edge_min_singular_values(x, subsets)
        glp_ok = bool(np.min(sv) > rank_tol * smax) and glp_ok
        denominator = min(denominator, geometry.subset_lower_bound(mat @ x, subsets))
    return glp_ok, denominator


def _reference_independent(mat, k, rank_tol=geometry.DEFAULT_RANK_TOL):
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])
    sv = _kernels.edge_min_singular_values(
        mat, geometry.k_subsets(mat.shape[1], k, cap=math.inf))
    return bool(np.min(sv) > rank_tol * smax)


def _both(mat, codes, hypergraph, rank_tol=geometry.DEFAULT_RANK_TOL):
    index_sets = support_index_sets(codes, hypergraph)
    return (constants._code_checks(mat, codes, hypergraph, index_sets, rank_tol),
            _reference_code_checks(mat, codes, hypergraph, index_sets, rank_tol))


def _bits(pair):
    glp_ok, denominator = pair
    return glp_ok, denominator.hex()


def _count_kernel_rows(monkeypatch):
    rows = []
    kernel = _kernels.edge_min_singular_values

    def counted(mat, edges):
        rows.append(len(edges))
        return kernel(mat, edges)

    monkeypatch.setattr(_kernels, "edge_min_singular_values", counted)
    return rows


def _gaussian(seed, m, k, count, n=None):
    return workloads.gaussian_instance(np.random.default_rng(seed), "cyclic",
                                       m, n or m, k, count)


def _pool(name, seed):
    # the streams and specs the benchmark's workloads use
    if name == "certify_k2":
        return workloads.pool_instances(1, seed, workloads.K2_POOL)
    if name == "certify_k3":
        return workloads.pool_instances(2, seed, workloads.K3_POOL)
    return [workloads.gaussian_instance(np.random.default_rng([seed, 3, 0]),
                                        *workloads.CLI_SPEC)]


@pytest.mark.parametrize("seed", [0, 1606, 7])
@pytest.mark.parametrize("name", ["certify_k2", "certify_k3", "cli"])
def test_pools_bit_identical_to_exhaustive(name, seed, monkeypatch):
    for mat, codes, h in _pool(name, seed):
        screened, reference = _both(mat, codes, h)
        assert _bits(screened) == _bits(reference)
        record = workloads.certificate_record(build_certificate(mat, codes, h))
        monkeypatch.setattr(constants, "_code_checks", lambda *args: reference)
        expected = workloads.certificate_record(build_certificate(mat, codes, h))
        monkeypatch.undo()
        assert record == expected


@pytest.mark.parametrize("m, k, count", [(4, 1, 5), (5, 2, 12), (6, 4, 14)],
                         ids=["k1", "k2", "k4"])
def test_uniform_sizes_bit_identical(m, k, count):
    for seed in (0, 1606, 7):
        screened, reference = _both(*_gaussian(seed, m, k, count))
        assert _bits(screened) == _bits(reference)


def test_ill_conditioned_dictionary_bit_identical():
    for seed in (0, 1606, 7):
        mat, codes, h = _gaussian(seed, 6, 3, 20)
        noise = np.random.default_rng(seed + 1).standard_normal(6)
        mat[:, 2] = mat[:, 1] + 1e-6 * noise
        screened, reference = _both(mat, codes, h)
        assert _bits(screened) == _bits(reference)


def test_short_dictionary_bit_identical():
    # n < k: every product block is rank deficient by shape
    screened, reference = _both(*_gaussian(3, 5, 3, 8, n=2))
    assert _bits(screened) == _bits(reference) == (True, (0.0).hex())


def _planted(scale, near_tie):
    mat, codes, h = _gaussian(11, 6, 3, 41)
    x = codes.codes.copy()
    rows = [v - 1 for v in h.edges[2]]
    first = 2 * 41
    # one dependent triple, or a nearly dependent one tied with a second
    # triple to about one part in 1e15
    x[rows, first + 2] = x[rows, first] + x[rows, first + 1]
    if near_tie:
        x[rows, first + 2] += 1e-8 * np.array([1.0, -2.0, 0.5])
        x[rows, first + 3] = x[rows, first + 2] * (1 + 2.0 ** -50)
    codes = SparseCodeSet(6, x * scale, codes.supports, 3)
    return mat, codes, h


@pytest.mark.parametrize("near_tie", [False, True], ids=["dependent", "near_tie"])
# past 1e154 the squares of a column's entries overflow, below 1e-154 they
# underflow
@pytest.mark.parametrize("scale", [1.0, 1e-110, 1e110, 1e-200, 1e200])
def test_planted_scaled_bit_identical(scale, near_tie, monkeypatch):
    mat, codes, h = _planted(scale, near_tie)
    reference = _reference_code_checks(mat, codes, h, support_index_sets(codes, h),
                                       geometry.DEFAULT_RANK_TOL)
    rows = _count_kernel_rows(monkeypatch)
    screened = constants._code_checks(mat, codes, h, support_index_sets(codes, h),
                                      geometry.DEFAULT_RANK_TOL)
    assert _bits(screened) == _bits(reference)
    assert not screened[0]
    # the screen decides at every scale: no fallback to all 6 x 2 x C(41, 3)
    assert sum(rows) < 1000


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
def test_non_finite_or_negative_bounds_stay_open(bad):
    mat, codes, h = _planted(1.0, near_tie=False)
    edge = h.edges[2]
    ids = support_index_sets(codes, h)[edge]
    x = codes.codes[:, ids]
    subsets = geometry.k_subsets(len(ids), 3)
    smax = float(np.linalg.svd(x, compute_uv=False)[0])
    floor = np.full(len(subsets), bad)
    assert not codes_module._independent(x, subsets, floor, smax, 1e-9)
    support = constants._support(mat, codes, edge, ids)
    lowest = constants._lowest(support, subsets, np.full(len(subsets), bad), math.inf)
    assert lowest == float(np.min(_kernels.edge_min_singular_values(mat @ x, subsets)))


def test_glp_screen_matches_exhaustive_on_general_vectors():
    rng = np.random.default_rng(5)
    cases = [rng.standard_normal((5, 12)), rng.standard_normal((3, 15)),
             rng.standard_normal((2, 7)), rng.standard_normal((4, 2)) @
             rng.standard_normal((2, 9))]
    planted = rng.standard_normal((6, 10))
    planted[:, 9] = planted[:, 2] - 0.5 * planted[:, 7]
    cases.append(planted)
    for mat in cases:
        for k in range(1, min(mat.shape[1], 5) + 1):
            for scale in (1.0, 1e-110, 1e110):
                assert (subsets_independent(mat * scale, k)
                        == _reference_independent(mat * scale, k)), (mat.shape, k)


def test_support_past_old_cap_certifies_and_finds_dependence():
    # C(190, 3) = 1,125,180 triples on one support, above the old 1M cap
    h = build_cyclic(4, 3)
    rng = np.random.default_rng(21)
    mat = rng.standard_normal((4, 4))
    counts = [190, 9, 9, 9]
    blocks, supports = [], []
    for edge, count in zip(h.edges, counts):
        block = np.zeros((4, count))
        block[[v - 1 for v in edge]] = rng.standard_normal((3, count))
        blocks.append(block)
        supports += [edge] * count
    x = np.hstack(blocks)
    cert = build_certificate(mat, SparseCodeSet(4, x, tuple(supports), 3), h)
    assert math.comb(190, 3) > 1_000_000
    assert cert.hypotheses_ok and math.isfinite(cert.C1)
    x[:, 150] = x[:, 17] - 2.0 * x[:, 99]
    cert = build_certificate(mat, SparseCodeSet(4, x, tuple(supports), 3), h)
    assert not cert.glp_ok
    assert cert.C1 is None


def test_code_subset_cap_raises_before_any_check(monkeypatch):
    monkeypatch.setattr(constants, "SUBSET_WORK_CAP", 100)
    rows = _count_kernel_rows(monkeypatch)
    mat, codes, h = _gaussian(2, 4, 3, 10)
    with pytest.raises(CapExceededError, match="120 3-subsets"):
        constants._code_checks(mat, codes, h, support_index_sets(codes, h), 1e-9)
    assert rows == []


def test_general_linear_position_streams_past_old_cap():
    # one dependent triple among C(200, 3) = 1,313,400
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 200))
    assert general_linear_position(x, 3)
    x[:, 7] = 3.0 * x[:, 180] + x[:, 55]
    assert not general_linear_position(x, 3)


def test_single_support_hypergraph_unchanged():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 30))
    codes = SparseCodeSet(3, x, ((1, 2, 3),) * 30, 3)
    h = Hypergraph(3, [(1, 2, 3)])
    screened, reference = _both(rng.standard_normal((5, 3)), codes, h)
    assert _bits(screened) == _bits(reference)


def _exact_abs_det(block):
    """|det| of the float entries of a square block, exactly (Leibniz)."""
    entries = [[Fraction(x) for x in row] for row in block.tolist()]
    total = Fraction(0)
    for perm in itertools.permutations(range(len(entries))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= entries[row][col]
        total += term
    return abs(total)


def _assert_floor_sound(units):
    subsets = geometry.k_subsets(units.shape[1], units.shape[0])
    floor = geometry.hadamard_floor(units, subsets)
    assert not np.isnan(floor).any()
    for subset, bound in zip(subsets, floor.tolist()):
        assert Fraction(bound) <= _exact_abs_det(units[:, subset])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hadamard_floor_below_exact_determinant(k):
    rng = np.random.default_rng(40 + k)
    for _ in range(5):
        x = rng.standard_normal((k, 8))
        _assert_floor_sound(geometry.unit_columns(x)[0])
        if k == 1:
            continue  # every nonzero 1 x 1 block is nonsingular
        # a planted sum, one nearly dependent to within 1e-8, and an exact
        # repeat of a stored unit column, whose determinant is exactly 0
        x[:, 6] = x[:, 0] - 2.0 * x[:, 1]
        x[:, 7] = x[:, 2] + 0.5 * x[:, 3] + 1e-8 * rng.standard_normal(k)
        units = geometry.unit_columns(x)[0]
        units[:, 5] = units[:, 4]
        _assert_floor_sound(units)
        assert geometry.hadamard_floor(units, np.array([[4, 5, 0, 1][:k]]))[0] < 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hadamard_floor_sound_on_arbitrary_unit_columns(data):
    k = data.draw(st.integers(1, 4))
    count = data.draw(st.integers(k, 6))
    x = np.array(data.draw(st.lists(
        st.floats(-1.0, 1.0, allow_nan=False), min_size=k * count,
        max_size=k * count))).reshape(k, count)
    assume(np.all(np.any(x != 0.0, axis=0)))
    _assert_floor_sound(geometry.unit_columns(x)[0])


def test_closed_form_determinants_skip_lu(monkeypatch):
    mat, codes, h = _pool("certify_k3", 0)[0]
    expected = workloads.certificate_record(build_certificate(mat, codes, h))
    rng = np.random.default_rng(8)
    vectors = rng.standard_normal((5, 9))

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", refuse)
    record = workloads.certificate_record(build_certificate(mat, codes, h))
    assert record == expected
    for k in (1, 2, 3):
        assert subsets_independent(vectors, k)
    with pytest.raises(AssertionError, match="det called"):
        subsets_independent(vectors, 4)
