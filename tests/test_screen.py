"""The determinant screen behind GLP and the C1 denominator, against the
exhaustive one-SVD-per-subset path it replaced.

``_reference_code_checks`` is that path: every k-subset of every support
goes through the kernel twice, once on the codes and once on the dictionary
times the codes. Where GLP holds, the screen must give the same
``(glp_ok, denominator)`` bit for bit, and so the same certificate. Where it
fails, the screen stops at the first failing block with (False, 0.0), and
the verdict and the certificate must be the same.
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
    support_index_sets,
)
from sparsecert import _kernels, constants, geometry
from sparsecert.hypergraph import regularity
from sparsecert import codes as codes_module

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


def _reference_hadamard_floor(units, subsets):
    """The determinant floor over an (E, k) index array, as the screen took
    it before the first-index blocks: one column gather per position."""
    k = subsets.shape[1]
    with np.errstate(invalid="ignore"):
        if k <= 3:
            a, *rest = (np.take(units, subsets[:, j], axis=1) for j in range(k))
            if k == 1:
                det = np.abs(a[0])
            elif k == 2:
                b, = rest
                det = np.abs(a[0] * b[1] - a[1] * b[0])
            else:
                b, c = rest
                det = np.abs(a[0] * (b[1] * c[2] - b[2] * c[1])
                             - a[1] * (b[0] * c[2] - b[2] * c[0])
                             + a[2] * (b[0] * c[1] - b[1] * c[0]))
        else:
            det = np.abs(np.linalg.det(units.T[subsets]))
    lu_error = k ** 3 * (k + 1) * 2.0 ** k * np.finfo(float).eps
    return det * (1.0 - geometry.SCREEN_SLACK) - lu_error


def _reference_sigma_floor(hadamard, norms, subsets):
    k = subsets.shape[1]
    scale = ((k - 1) / k) ** ((k - 1) / 2) * (1.0 - geometry.SCREEN_SLACK)
    least = norms[subsets[:, 0]]
    for j in range(1, k):
        least = np.minimum(least, norms[subsets[:, j]])
    return hadamard * scale * least


def _reference_screen_floors(stack, subsets):
    """The determinant, GLP and C1 floors of each support of a
    ``codes._Stack`` over an (E, k) index array of its subsets, (S, E)
    each, as the index-array screen took them."""
    count = stack.units.shape[2]
    hadamard, glp, c1 = [], [], []
    for s, units in enumerate(stack.units):
        columns = s * count
        det = _reference_hadamard_floor(units, subsets)
        norms = stack.norms[columns:columns + count]
        weights = stack.weights[columns:columns + count]
        with np.errstate(invalid="ignore"):
            scale = weights[subsets[:, 0]] * stack.spectrum[s, 0]
            for j in range(1, subsets.shape[1]):
                scale *= weights[subsets[:, j]] * stack.spectrum[s, j]
            glp.append(_reference_sigma_floor(det, norms, subsets))
            c1.append(_reference_sigma_floor(
                det * scale, stack.product_norms[columns:columns + count], subsets))
        hadamard.append(det)
    return np.array(hadamard), np.array(glp), np.array(c1)


def _both(mat, codes, hypergraph, rank_tol=geometry.DEFAULT_RANK_TOL):
    index_sets = support_index_sets(codes, hypergraph)
    return (codes_module._code_checks(mat, codes, hypergraph, index_sets, rank_tol),
            _reference_code_checks(mat, codes, hypergraph, index_sets, rank_tol))


def _bits(pair):
    glp_ok, denominator = pair
    return glp_ok, denominator.hex()


def _records(mat, codes, hypergraph, reference):
    """The instance's certificate record, and the record it gets when the
    code checks return ``reference``."""
    record = workloads.certificate_record(build_certificate(mat, codes, hypergraph))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constants, "_code_checks", lambda *args: reference)
        expected = workloads.certificate_record(
            build_certificate(mat, codes, hypergraph))
    return record, expected


def _assert_same_glp_failure(mat, codes, hypergraph, screened, reference):
    """A GLP-failing stream ends with (False, 0.0); its denominator never
    reaches the certificate, which equals the exhaustive path's."""
    assert screened == (False, 0.0)
    assert not reference[0]
    record, expected = _records(mat, codes, hypergraph, reference)
    assert record == expected
    assert not record["glp_ok"] and record["C1"] is None


def _count_kernel_rows(monkeypatch):
    """The index arrays that reach the kernel, one per call."""
    rows = []
    kernel = _kernels.edge_min_singular_values

    def counted(mat, edges):
        rows.append(edges)
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
def test_pools_bit_identical_to_exhaustive(name, seed):
    for mat, codes, h in _pool(name, seed):
        screened, reference = _both(mat, codes, h)
        assert _bits(screened) == _bits(reference)
        record, expected = _records(mat, codes, h, reference)
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
    screened = codes_module._code_checks(mat, codes, h, support_index_sets(codes, h),
                                         geometry.DEFAULT_RANK_TOL)
    # the screen decides at every scale: no fallback to all 6 x 2 x C(41, 3)
    assert sum(map(len, rows)) < 1000
    _assert_same_glp_failure(mat, codes, h, screened, reference)


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
    stack = codes_module._stack(mat, codes, [edge], {edge: ids})
    owners = np.zeros(len(subsets), dtype=np.intp)
    lowest = codes_module._lowest(stack, owners, subsets, np.full(len(subsets), bad),
                                  math.inf)
    assert lowest == float(np.min(_kernels.edge_min_singular_values(mat @ x, subsets)))


def _one_support_glp(x, rank_tol=geometry.DEFAULT_RANK_TOL):
    """The GLP verdict of ``_code_checks`` on the columns of a k x N matrix,
    as the codes of the one edge (1, ..., k) of a one-edge hypergraph."""
    k, count = x.shape
    edge = tuple(range(1, k + 1))
    codes = SparseCodeSet(k, x, (edge,) * count, k)
    h = Hypergraph(k, [edge])
    mat = np.random.default_rng(k).standard_normal((k + 1, k))
    return codes_module._code_checks(mat, codes, h, support_index_sets(codes, h),
                                     rank_tol)[0]


def test_glp_screen_matches_exhaustive_on_general_vectors():
    # each matrix holds the codes of one support, k = its row count
    rng = np.random.default_rng(5)
    cases = [rng.standard_normal((5, 12)), rng.standard_normal((3, 15)),
             rng.standard_normal((2, 7)), rng.standard_normal((4, 2)) @
             rng.standard_normal((2, 9))]
    planted = rng.standard_normal((6, 10))
    planted[:, 9] = planted[:, 2] - 0.5 * planted[:, 7]
    cases.append(planted)
    for mat in cases:
        for scale in (1.0, 1e-110, 1e110):
            assert (_one_support_glp(mat * scale)
                    == _reference_independent(mat * scale, len(mat))), mat.shape


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
    monkeypatch.setattr(codes_module, "SUBSET_WORK_CAP", 100)
    rows = _count_kernel_rows(monkeypatch)
    mat, codes, h = _gaussian(2, 4, 3, 10)
    with pytest.raises(CapExceededError, match="120 3-subsets"):
        codes_module._code_checks(mat, codes, h, support_index_sets(codes, h), 1e-9)
    assert rows == []


def test_glp_streams_past_old_cap():
    # one dependent triple among C(200, 3) = 1,313,400
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 200))
    assert _one_support_glp(x)
    x[:, 7] = 3.0 * x[:, 180] + x[:, 55]
    assert not _one_support_glp(x)


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


def _grid_entries(block, grid):
    """The entries of a (rows, width) block grid that are k-subsets, in
    lexicographic order."""
    return grid.ravel() if block.valid is None else grid[block.valid]


def _block_hadamard_floors(units, budget=codes_module.SCREEN_ROWS):
    """``geometry.hadamard_floor`` of every k-subset of the columns, in
    lexicographic order."""
    tails, start = geometry.subset_tails(units.shape[1], units.shape[0])
    minors = geometry.tail_minors(units[None], tails)
    return np.concatenate([
        _grid_entries(block, geometry.hadamard_floor(units[None], minors, block)[0])
        for block in geometry.subset_blocks(tails, start, budget)])


def _assert_floor_sound(units):
    subsets = geometry.k_subsets(units.shape[1], units.shape[0])
    floor = _block_hadamard_floors(units)
    assert floor.shape == (len(subsets),)
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
        # the blocks hold each subset in lexicographic order
        repeated = sorted([4, 5, 0, 1][:k])
        subsets = geometry.k_subsets(8, k).tolist()
        assert _block_hadamard_floors(units)[subsets.index(repeated)] < 0


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
    vectors = {k: rng.standard_normal((k, 9)) for k in (1, 2, 3, 4)}

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", refuse)
    record = workloads.certificate_record(build_certificate(mat, codes, h))
    assert record == expected
    for k in (1, 2, 3):
        assert _one_support_glp(vectors[k])
    with pytest.raises(AssertionError, match="det called"):
        _one_support_glp(vectors[4])


def _same_bits(a, b):
    """Equal shapes, NaN at the same places and equal bits everywhere else."""
    return (a.shape == b.shape and np.array_equal(np.isnan(a), np.isnan(b))
            and np.array_equal(np.where(np.isnan(a), 0.0, a).view(np.int64),
                               np.where(np.isnan(b), 0.0, b).view(np.int64)))


def _two_supports(k, count, seed):
    """The ``codes._Stack`` of two supports of ``count`` codes, with zero
    columns and columns scaled by 1e110 and -1e-110."""
    rng = np.random.default_rng(seed)
    m = k + 1
    edges = [tuple(range(1, k + 1)), tuple(range(2, k + 2))]
    x = np.zeros((m, 2 * count))
    for e, edge in enumerate(edges):
        block = rng.standard_normal((k, count))
        picks = rng.permutation(count)
        block[:, picks[:max(1, count // 9)]] = 0.0
        block[:, picks[count // 9:count // 4]] *= 1e110
        block[:, picks[count // 4:count // 3]] *= -1e-110
        x[[v - 1 for v in edge], e * count:(e + 1) * count] = block
    codes = SparseCodeSet(m, x, tuple(e for e in edges for _ in range(count)), k)
    index_sets = {edge: list(range(e * count, (e + 1) * count))
                  for e, edge in enumerate(edges)}
    return codes_module._stack(rng.standard_normal((m + 1, m)), codes, edges, index_sets)


@pytest.mark.parametrize("budget", [codes_module.SCREEN_ROWS, 37],
                         ids=["default", "split"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_block_floors_bit_identical_to_index_arrays(k, budget):
    # a budget of 37 splits long rows into blocks of tails and gives
    # multi-row blocks with masks at every k; two supports are stacked
    counts = range(k, 61) if k <= 3 else range(k, 13)
    for count in counts:
        stack = _two_supports(k, count, 100 * k + count)
        subsets = geometry.k_subsets(count, k, cap=math.inf)
        tails, start = geometry.subset_tails(count, k)
        minors = geometry.tail_minors(stack.units, tails)
        blocks = geometry.subset_blocks(tails, start, budget // 2)
        hadamard = np.concatenate([
            np.stack([_grid_entries(block, grid)
                      for grid in geometry.hadamard_floor(stack.units, minors, block)])
            for block in blocks], axis=1)
        # the full floors of every subset, from the block determinants
        owners = np.repeat([0, 1], len(subsets))
        columns = np.concatenate([subsets, subsets + count])
        glp = geometry.sigma_floor(hadamard.ravel(), stack.norms, columns)
        c1 = codes_module._c1_floor(stack, owners, columns, hadamard.ravel())
        reference = _reference_screen_floors(stack, subsets)
        assert _same_bits(hadamard, reference[0]), count
        assert _same_bits(glp.reshape(2, -1), reference[1]), count
        assert _same_bits(c1.reshape(2, -1), reference[2]), count
        assert np.isnan(reference[0]).any()


@pytest.mark.parametrize("m, k, count", [(4, 1, 50), (5, 2, 30), (6, 3, 25), (6, 4, 12)],
                         ids=["k1", "k2", "k3", "k4"])
def test_small_blocks_bit_identical(m, k, count, monkeypatch):
    # tiny blocks: rows split into blocks of tails, masks in most blocks
    monkeypatch.setattr(codes_module, "SCREEN_ROWS", 53)
    for seed in (0, 1606):
        mat, codes, h = _gaussian(seed, m, k, count)
        screened, reference = _both(mat, codes, h)
        assert _bits(screened) == _bits(reference)


def test_glp_failure_settled_by_neither_floor_alone():
    # columns 3 and 4 of the dictionary agree to 1e-12, so the C1 target is
    # down to its margin after the first row. A short triple of support
    # (1, 2, 3) whose codes are dependent to 8e-9 then has a determinant
    # above its C1 settling floor but below its GLP one, and must fail GLP.
    mat, codes, h = _gaussian(5, 6, 3, 41)
    mat[:, 3] = mat[:, 2] + 1e-12 * np.random.default_rng(6).standard_normal(6)
    i, p, q = _planted_positions(41, len(h.edges))[1]
    x = codes.codes.copy()
    x[:3, [i, p]] *= 0.1
    x[:3, q] = x[:3, i] - 0.5 * x[:3, p] + 8e-9 * np.array([1.0, -1.0, 2.0])
    codes = SparseCodeSet(6, x, codes.supports, 3)
    screened, reference = _both(mat, codes, h)
    _assert_same_glp_failure(mat, codes, h, screened, reference)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stacked_glp_matches_each_matrix(k):
    # one stream for the stacked supports of a code count, against one
    # exhaustive check per support; support 3 carries a dependent k-subset,
    # and support 1 is scaled by 1e110
    mat, codes, h = _gaussian(30 + k, 5, k, 13)
    x = codes.codes.copy()
    rows = [[v - 1 for v in edge] for edge in h.edges]
    x[rows[3], 3 * 13 + 12] = (x[rows[3], 3 * 13:3 * 13 + k - 1].sum(axis=1)
                               if k > 1 else 0.0)
    x[rows[1], 13:2 * 13] *= 1e110
    codes = SparseCodeSet(5, x, codes.supports, k)
    verdicts = []
    for edges in (h.edges, h.edges[:3], h.edges[3:4]):
        part = Hypergraph(5, edges)
        index_sets = support_index_sets(codes, part)
        expected = all(_reference_independent(x[:, index_sets[e]], k) for e in edges)
        verdicts.append(codes_module._code_checks(mat, codes, part, index_sets, 1e-9)[0])
        assert verdicts[-1] == expected
    assert verdicts == [False, True, False]


def test_block_layout_is_lexicographic():
    for k in (1, 2, 3, 4):
        for count in range(k, 15):
            for budget in (1, 5, 64, 8192):
                tails, start = geometry.subset_tails(count, k)
                listed = np.concatenate([
                    block.subsets(np.flatnonzero(
                        np.ones((block.first.stop - block.first.start,
                                 len(block.columns)), bool)
                        if block.valid is None else block.valid))
                    for block in geometry.subset_blocks(tails, start, budget)])
                assert listed.tolist() == geometry.k_subsets(count, k).tolist()


def _planted_positions(count, n_supports):
    """Subsets at the first and the last row of a multi-row block, and the
    last subset, for the k = 3 stream of ``n_supports`` stacked supports."""
    tails, start = geometry.subset_tails(count, 3)
    blocks = list(geometry.subset_blocks(tails, start,
                                         codes_module.SCREEN_ROWS // n_supports))
    block = next(b for b in blocks if b.valid is not None)
    last_row = block.first.stop - 1
    return [(block.first.start, *tails[block.tails.start]),
            (last_row, *tails[start[last_row]]),
            (count - 3, count - 2, count - 1)]


@pytest.mark.parametrize("which", [0, 1, 2], ids=["block_first_row",
                                                  "block_last_row", "last_subset"])
def test_planted_dependence_at_block_edges(which, monkeypatch):
    mat, codes, h = _gaussian(11, 6, 3, 41)
    i, p, q = _planted_positions(41, len(h.edges))[which]
    x = codes.codes.copy()
    rows = [v - 1 for v in h.edges[4]]
    first = 4 * 41
    x[rows, first + q] = x[rows, first + i] - 0.5 * x[rows, first + p]
    codes = SparseCodeSet(6, x, codes.supports, 3)
    index_sets = support_index_sets(codes, h)
    reference = _reference_code_checks(mat, codes, h, index_sets,
                                       geometry.DEFAULT_RANK_TOL)
    rows_seen = _count_kernel_rows(monkeypatch)
    screened = codes_module._code_checks(mat, codes, h, index_sets,
                                         geometry.DEFAULT_RANK_TOL)
    assert sum(map(len, rows_seen)) < 1000
    _assert_same_glp_failure(mat, codes, h, screened, reference)


def test_dependent_first_block_ends_the_stream(monkeypatch):
    # one dependent triple in the stream's first block (first index 0) and
    # one far into it: the check stops after the first block, so no subset
    # with a later first index reaches the kernel
    mat, codes, h = _gaussian(11, 6, 3, 41)
    x = codes.codes.copy()
    rows = [v - 1 for v in h.edges[2]]
    first = 2 * 41
    x[rows, first + 2] = x[rows, first] + x[rows, first + 1]
    x[rows, first + 40] = x[rows, first + 30] - 2.0 * x[rows, first + 20]
    codes = SparseCodeSet(6, x, codes.supports, 3)
    seen = _count_kernel_rows(monkeypatch)
    screened = codes_module._code_checks(mat, codes, h, support_index_sets(codes, h),
                                         geometry.DEFAULT_RANK_TOL)
    assert screened == (False, 0.0)
    subsets = np.concatenate(seen)
    assert len(subsets) > 0
    assert np.all(subsets[:, 0] % 41 == 0)


# C1 moves with the rounding of A @ X wherever the least sigma_min(A X_T) is
# small against the largest: scaling the dictionary by 3 moves it by up to
# 1.5e-11 relative on the certify_k3 pool and 1.4e-12 on the seed-0 cli
# instance, as much as scaling by 1e200 or 2^600 does.
_SCALED_REL = {"certify_k2": 1e-12, "cli": 1e-11, "certify_k3": 1e-10}


@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0 ** 600, 2.0 ** -600])
@pytest.mark.parametrize("name", ["certify_k2", "certify_k3", "cli"])
def test_c1_unchanged_when_dictionary_scaled(name, scale):
    for mat, codes, h in _pool(name, 0):
        base = build_certificate(mat, codes, h)
        cert = build_certificate(mat * scale, codes, h)
        assert base.hypotheses_ok and cert.hypotheses_ok
        assert math.isfinite(cert.C1) and math.isfinite(cert.C2)
        assert cert.C1 == pytest.approx(base.C1, rel=_SCALED_REL[name])
        assert cert.C2 == pytest.approx(base.C2 * scale, rel=1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("name", ["certify_k2", "certify_k3"])
def test_c1_scales_inversely_with_the_codes(name, scale):
    for mat, codes, h in _pool(name, 0):
        base = build_certificate(mat, codes, h)
        scaled = SparseCodeSet(codes.m, codes.codes * scale, codes.supports, codes.k)
        cert = build_certificate(mat, scaled, h)
        assert cert.hypotheses_ok
        assert cert.C1 == pytest.approx(base.C1 / scale, rel=_SCALED_REL[name])


def test_c2_column_norms_do_not_overflow():
    # the repro: Gaussian cyclic m=4, k=2 at 7 codes per support, dictionary
    # times 1e200, used to read ok with C1 == inf
    mat, codes, h = workloads.gaussian_instance(np.random.default_rng(0),
                                                *workloads.CLI_SPEC)
    base = build_certificate(mat, codes, h)
    cert = build_certificate(mat * 1e200, codes, h)
    assert cert.hypotheses_ok
    assert cert.C2 == pytest.approx(base.C2 * 1e200, rel=1e-12)
    assert cert.C1 == pytest.approx(base.C1, rel=1e-12)


def _reference_C2(mat, h, rank_tol=geometry.DEFAULT_RANK_TOL):
    """compute_C2 with the plain column norms it took before the scaling."""
    r = regularity(h)
    spans = [geometry.column_span(mat, e, rank_tol) for e in h.edges]
    best, = geometry._subset_dp([spans], r + 1, rank_tol)[0]
    lowest = min(min(best[frozenset(group)] for group in
                     itertools.combinations(range(len(spans)), r + 1)), 1.0)
    denominator = lowest / (1.0 + math.sqrt(1.0 - lowest))
    return (r + 1) * float(np.max(np.linalg.norm(mat, axis=0))) / denominator


@pytest.mark.parametrize("seed", [0, 1606, 7])
def test_c2_bits_unchanged_on_pools(seed):
    dictionaries = [inst for name in ("certify_k2", "certify_k3")
                    for inst in _pool(name, seed)]
    assert len(dictionaries) == 6
    for mat, _, h in dictionaries:
        c2 = constants.compute_C2(mat, h)
        assert math.isfinite(c2)
        # the table's sines come from other SVDs than the numeric DP's meets
        assert c2 == pytest.approx(_reference_C2(mat, h), rel=1e-13, abs=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_glp_rejects_non_finite_vectors(bad):
    # the screen reads codes only from a SparseCodeSet, which refuses them
    x = np.random.default_rng(3).standard_normal((3, 7))
    x[1, 4] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SparseCodeSet(3, x, ((1, 2, 3),) * 7, 3)


def _chain(value, factors):
    with np.errstate(over="ignore"):
        for factor in factors:
            value = value * factor
    return value


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_settling_floor_is_sound(data):
    # any target and nonnegative factors, subnormal and huge ones included
    values = st.floats(0.0, 1e308, allow_nan=False)
    target = data.draw(values)
    factors = [np.float64(f) for f in data.draw(st.lists(values, min_size=1,
                                                         max_size=3))]
    settle = float(geometry.settling_floor(np.float64(target), factors))
    assert settle > 0.0
    if settle < math.inf:
        above = data.draw(st.floats(settle, float(np.finfo(float).max)))
        for h in (settle, float(np.nextafter(settle, math.inf)), above):
            assert _chain(np.float64(h), factors) > target


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_settling_floor_settles_nothing_on_bad_factors(bad):
    assert geometry.settling_floor(np.float64(1e-3), [np.float64(0.5), bad]) == math.inf
    assert geometry.settling_floor(np.float64(bad), [np.float64(0.5)]) == math.inf


@pytest.mark.parametrize("seed", [0, 1606])
def test_settled_subsets_clear_their_full_floors(seed):
    # every subset that a block settles on its determinant alone has full
    # GLP and C1 floors above the targets it was settled against
    for mat, codes, h in _pool("certify_k3", seed) + [_planted(1e110, False)]:
        index_sets = support_index_sets(codes, h)
        k, count = h.k, len(index_sets[h.edges[0]])
        # the exhaustive least value: the planted instance fails GLP, where
        # the screen stops early and returns no denominator
        lowest = _reference_code_checks(mat, codes, h, index_sets,
                                        geometry.DEFAULT_RANK_TOL)[1] * math.sqrt(k)
        stack = codes_module._stack(mat, codes, h.edges, index_sets)
        glp_settle, c1_factors = codes_module._settling(stack, k,
                                                        geometry.DEFAULT_RANK_TOL)
        c1_target = lowest + stack.margin
        c1_settle = geometry.settling_floor(c1_target, c1_factors)
        assert np.all(glp_settle < math.inf) and np.all(c1_settle < math.inf)
        tails, start = geometry.subset_tails(count, k)
        minors = geometry.tail_minors(stack.units, tails)
        settled = 0
        for block in geometry.subset_blocks(tails, start, 1000):
            hadamard = geometry.hadamard_floor(stack.units, minors, block)
            for s, grid in enumerate(hadamard):
                flat = np.flatnonzero(np.ones(grid.shape, bool) if block.valid is None
                                      else block.valid)
                subsets = block.subsets(flat) + s * count
                floor = grid.ravel()[flat]
                glp = geometry.sigma_floor(floor, stack.norms, subsets)
                glp_target = ((geometry.DEFAULT_RANK_TOL + geometry.SCREEN_SLACK)
                              * stack.smax[s])
                assert np.all(glp[floor > glp_settle[s]] > glp_target)
                c1 = codes_module._c1_floor(stack, np.full(len(flat), s), subsets, floor)
                assert np.all(c1[floor > c1_settle[s]] > c1_target[s])
                settled += np.count_nonzero(floor > c1_settle[s])
        assert settled > 0.9 * len(h.edges) * math.comb(count, k)
