"""Dictionary alignment, code error, and the recovery-inequality harness."""

import itertools
import math

import numpy as np
import pytest

from sparsecert import (
    HypothesisError,
    ThresholdError,
    align_dictionaries,
    build_complete,
    build_cyclic,
    code_alignment_error,
    generate_instance,
    merge_code_sets,
    vandermonde_codes,
    verify_theorem1,
)
from sparsecert.alignment import AlignmentResult, _max_matching
from sparsecert.constants import build_certificate


def brute_force_max_error(a_mat, b_mat):
    """Exhaustive min-max over injective column maps with least-squares scales."""
    m, m_bar = a_mat.shape[1], b_mat.shape[1]
    best = math.inf
    for targets in itertools.permutations(range(m_bar), min(m, m_bar)):
        worst = 0.0
        for j, l in enumerate(targets):
            b = b_mat[:, l]
            denom = float(b @ b)
            if denom == 0.0:
                worst = math.inf
                break
            scale = float(a_mat[:, j] @ b) / denom
            worst = max(worst, float(np.linalg.norm(a_mat[:, j] - scale * b)))
        best = min(best, worst)
    return best


def random_orbit_pair(rng, n, m):
    a_mat = rng.standard_normal((n, m))
    perm = rng.permutation(m)
    diag = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
    return a_mat, a_mat[:, perm] * diag, perm, diag


def test_exact_orbit_recovery():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a_mat, b_mat, perm, diag = random_orbit_pair(rng, 5, 4)
        res = align_dictionaries(a_mat, b_mat)
        assert res.max_column_error <= 1e-12
        for l in range(4):
            # B_l = diag_l * A_perm(l), so the recovered scale inverts diag_l
            assert res.pi[perm[l] + 1] == l + 1
            assert res.scales[perm[l] + 1] == pytest.approx(1 / diag[l], rel=1e-10)


def test_signed_scaled_permutation_example():
    a_mat = np.eye(3)
    b_mat = np.column_stack([2 * a_mat[:, 1], a_mat[:, 2], -a_mat[:, 0]])
    res = align_dictionaries(a_mat, b_mat)
    assert res.pi == {1: 3, 2: 1, 3: 2}
    assert res.scales[1] == pytest.approx(-1.0)
    assert res.scales[2] == pytest.approx(0.5)
    assert res.scales[3] == pytest.approx(1.0)
    assert res.max_column_error == 0.0


def test_matches_brute_force_small():
    rng = np.random.default_rng(1)
    for trial in range(30):
        m = int(rng.integers(2, 7))
        m_bar = m + int(rng.integers(0, 2))
        n = int(rng.integers(m, m + 4))
        a_mat = rng.standard_normal((n, m))
        b_mat = a_mat[:, rng.permutation(m)] * rng.uniform(0.5, 2.0, m)
        if m_bar > m:
            b_mat = np.hstack([b_mat, rng.standard_normal((n, m_bar - m))])
        b_mat += 0.01 * rng.standard_normal(b_mat.shape)
        res = align_dictionaries(a_mat, b_mat)
        assert abs(res.max_column_error
                   - brute_force_max_error(a_mat, b_mat)) <= 1e-12


def brute_force_matching(allowed):
    """Largest set of allowed cells with no two in one row or one column."""
    n_rows, n_cols = allowed.shape
    best = 0
    for size in range(1, min(n_rows, n_cols) + 1):
        if any(all(allowed[r, c] for r, c in zip(rows, cols))
               for rows in itertools.combinations(range(n_rows), size)
               for cols in itertools.permutations(range(n_cols), size)):
            best = size
    return best


def test_max_matching_matches_brute_force():
    rng = np.random.default_rng(5)
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 8)]
    for n_rows, n_cols in shapes:
        for density in (0.2, 0.5, 0.8):
            allowed = rng.random((n_rows, n_cols)) < density
            allowed[rng.integers(n_rows)] = False
            allowed[:, rng.integers(n_cols)] = False
            assert _max_matching(allowed) == brute_force_matching(allowed)
    assert _max_matching(np.ones((6, 7), dtype=bool)) == 6
    assert _max_matching(np.zeros((4, 3), dtype=bool)) == 0


def test_tie_breaking_deterministic_and_lexicographic():
    # two identical source columns and two identical targets: all four pairings
    # are optimal; lowest source takes the lowest target
    a_mat = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0], np.eye(3)[:, 1]])
    b_mat = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0], np.eye(3)[:, 1]])
    first = align_dictionaries(a_mat, b_mat)
    second = align_dictionaries(a_mat, b_mat)
    assert first.pi == second.pi == {1: 1, 2: 2, 3: 3}
    assert first.max_column_error == 0.0


def test_oversized_candidate_still_verifies():
    # candidate with one extra junk column: the guaranteed subset shrinks to
    # m_bar - r(m_bar - m) columns, which all stay within the bound
    h = build_cyclic(4, 2)
    a_mat, codes = generate_instance(4, 4, 2, h, 7, seed=17)
    cert = build_certificate(a_mat, codes, h)
    rng = np.random.default_rng(2)
    b_mat = np.hstack([a_mat, rng.standard_normal((4, 1))])
    pad = np.zeros((1, codes.n_codes))
    from sparsecert import SparseCodeSet

    codes_bar = SparseCodeSet(5, np.vstack([codes.codes, pad]),
                              codes.supports, codes.k)
    eps = max(float(np.max(np.linalg.norm(
        a_mat @ codes.codes - b_mat @ codes_bar.codes, axis=0))), 1e-12)
    report = verify_theorem1(a_mat, codes, b_mat, codes_bar, cert, eps)
    assert report.m_bar == 5 and report.m_bar_ok
    assert report.guaranteed_columns == 5 - 2 * (5 - 4)
    assert len(report.matched_subset) == 3
    assert report.eq5_ok


def test_zero_columns_unmatchable():
    a_mat = np.eye(3)
    b_mat = np.column_stack([np.zeros(3), a_mat[:, 0], a_mat[:, 1], a_mat[:, 2]])
    res = align_dictionaries(a_mat, b_mat)
    assert 1 not in res.matched_target
    assert res.unmatched_target == (1,)
    assert res.max_column_error <= 1e-12


def test_all_zero_candidate_rejected():
    with pytest.raises(ValueError):
        align_dictionaries(np.eye(3), np.zeros((3, 2)))


def test_undersized_candidate_leaves_sources_unmatched():
    rng = np.random.default_rng(3)
    a_mat = rng.standard_normal((4, 4))
    b_mat = a_mat[:, :2]
    res = align_dictionaries(a_mat, b_mat)
    assert len(res.pi) == 2
    assert len(res.unmatched_source) == 2


def test_code_error_exact_transform():
    rng = np.random.default_rng(5)
    a_mat, b_mat, perm, diag = random_orbit_pair(rng, 5, 4)
    res = align_dictionaries(a_mat, b_mat)
    x = rng.standard_normal(4)
    xbar = np.empty(4)
    for l in range(4):
        xbar[l] = x[perm[l]] / diag[l]
    assert code_alignment_error(x, xbar, res) <= 1e-10


def test_code_error_k1_consistent_rescale():
    # scale 2 (candidate columns at half length), code carried at twice the size
    a_mat = np.eye(3)
    b_mat = 0.5 * np.eye(3)
    res = align_dictionaries(a_mat, b_mat)
    assert res.scales[1] == pytest.approx(2.0)
    x = np.array([1.0, 0.0, 0.0])
    xbar = np.array([2.0, 0.0, 0.0])
    assert code_alignment_error(x, xbar, res) == 0.0


def test_code_error_matches_direct_formula():
    rng = np.random.default_rng(7)
    a_mat, b_mat, perm, diag = random_orbit_pair(rng, 5, 4)
    res = align_dictionaries(a_mat, b_mat)
    x = rng.standard_normal(4)
    xbar = rng.standard_normal(4)
    direct = sum(
        abs(x[j - 1] - xbar[res.pi[j] - 1] / res.scales[j]) for j in res.pi
    )
    assert code_alignment_error(x, xbar, res) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("m, m_bar, subset", [
    (4, 4, None), (10, 10, None), (10, 12, None), (10, 10, (1, 3, 4, 7, 8, 9, 10)),
])
def test_code_error_columns_equal_single_codes(m, m_bar, subset):
    # (m, N) codes give the per-code values bit for bit, with 8 or more
    # matched columns too, where numpy would sum a contiguous axis pairwise
    rng = np.random.default_rng(m + m_bar)
    a_mat = rng.standard_normal((m + 2, m))
    b_mat = rng.standard_normal((m + 2, m_bar))
    res = align_dictionaries(a_mat, b_mat)
    x = rng.standard_normal((m, 9))
    xbar = rng.standard_normal((m_bar, 9))
    errors = code_alignment_error(x, xbar, res, subset)
    assert errors.shape == (9,)
    singles = [code_alignment_error(x[:, i], xbar[:, i], res, subset)
               for i in range(9)]
    assert all(type(e) is float for e in singles)
    assert errors.tolist() == singles
    ordered = sorted(res.pi) if subset is None else sorted(subset)
    for i in range(9):
        total = 0.0
        for j in ordered:
            total += abs(x[j - 1, i] - xbar[res.pi[j] - 1, i] / res.scales[j])
        assert singles[i] == total


def test_code_error_zero_scale_names_column():
    res = AlignmentResult(pi={1: 2, 2: 1, 3: 3}, scales={1: 1.0, 2: 0.0, 3: 0.0},
                          column_errors={1: 0.0, 2: 0.0, 3: 0.0},
                          max_column_error=0.0, unmatched_source=(),
                          unmatched_target=())
    for x in (np.ones(3), np.ones((3, 4))):
        with pytest.raises(ValueError, match="^matched column 2 has zero scale$"):
            code_alignment_error(x, x, res)
        with pytest.raises(ValueError, match="^matched column 3 has zero scale$"):
            code_alignment_error(x, x, res, subset=(3, 1))
    assert code_alignment_error(np.ones(3), np.ones(3), res, subset=(1,)) == 0.0


def test_orbit_invariance_of_code_reconstruction():
    # re-transforming (B, xbar) by another permutation/diagonal and re-aligning
    # leaves the composite code error unchanged
    rng = np.random.default_rng(9)
    h = build_cyclic(4, 2)
    a_mat, codes = generate_instance(4, 4, 2, h, 7, seed=11)
    b_mat = a_mat + 1e-4 * rng.standard_normal(a_mat.shape)
    xbar = codes.codes + 1e-5 * rng.standard_normal(codes.codes.shape)
    res1 = align_dictionaries(a_mat, b_mat)
    err1 = [
        sum(abs(codes.codes[j - 1, i] - xbar[res1.pi[j] - 1, i] / res1.scales[j])
            for j in res1.pi)
        for i in range(4)
    ]
    perm = rng.permutation(4)
    diag = rng.uniform(0.5, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
    b2 = b_mat[:, perm] * diag
    inverse = np.empty(4, dtype=int)
    inverse[perm] = np.arange(4)
    xbar2 = xbar[perm, :] / diag[:, None]
    res2 = align_dictionaries(a_mat, b2)
    err2 = [
        sum(abs(codes.codes[j - 1, i] - xbar2[res2.pi[j] - 1, i] / res2.scales[j])
            for j in res2.pi)
        for i in range(4)
    ]
    np.testing.assert_allclose(err1, err2, rtol=1e-8, atol=1e-12)


# verify_theorem1


def exact_orbit_candidate(a_mat, codes, seed):
    rng = np.random.default_rng(seed)
    m = a_mat.shape[1]
    perm = rng.permutation(m)
    diag = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
    b_mat = a_mat[:, perm] * diag
    xbar = codes.codes[perm, :] / diag[:, None]
    inverse = np.empty(m, dtype=int)
    inverse[perm] = np.arange(m)
    supports = tuple(
        tuple(sorted(int(inverse[v - 1]) + 1 for v in s)) for s in codes.supports
    )
    from sparsecert import SparseCodeSet

    return b_mat, SparseCodeSet(m, xbar, supports, codes.k)


def test_verify_passes_on_exact_orbit():
    h = build_cyclic(4, 2)
    a_mat, codes = generate_instance(4, 4, 2, h, 7, seed=13)
    cert = build_certificate(a_mat, codes, h)
    b_mat, codes_bar = exact_orbit_candidate(a_mat, codes, 3)
    eps = float(np.max(np.linalg.norm(
        a_mat @ codes.codes - b_mat @ codes_bar.codes, axis=0)))
    report = verify_theorem1(a_mat, codes, b_mat, codes_bar, cert,
                             max(eps, 1e-13))
    assert report.m_bar_ok and report.eq5_ok
    assert report.max_column_error <= 1e-10
    assert report.code_tier_active
    assert report.eq6_ok and report.l2k_ok
    assert float(np.max(report.code_errors)) <= 1e-8


def test_verify_rejects_violated_residual():
    h = build_cyclic(4, 2)
    a_mat, codes = generate_instance(4, 4, 2, h, 7, seed=14)
    cert = build_certificate(a_mat, codes, h)
    with pytest.raises(HypothesisError):
        verify_theorem1(a_mat, codes, a_mat + 1.0, codes, cert,
                        cert.eps_max_dictionary / 2)


def test_verify_refuses_above_threshold():
    h = build_cyclic(4, 2)
    a_mat, codes = generate_instance(4, 4, 2, h, 7, seed=15)
    cert = build_certificate(a_mat, codes, h)
    b_mat, codes_bar = exact_orbit_candidate(a_mat, codes, 4)
    with pytest.raises(ThresholdError):
        verify_theorem1(a_mat, codes, b_mat, codes_bar, cert,
                        2 * cert.eps_max_dictionary)


def necessity_instance(m):
    """Identity dictionary, singleton codes, and the merged-column candidate."""
    a_mat = np.eye(m)
    codes = merge_code_sets([
        vandermonde_codes((i,), 1, (1.0,), m=m) for i in range(1, m + 1)
    ])
    b_mat = np.eye(m).copy()
    b_mat[:, 0] = 0.0
    b_mat[:, 1] = 0.5 * (a_mat[:, 0] + a_mat[:, 1])
    xbar_cols = []
    supports = []
    for i in range(m):
        col = np.zeros(m)
        if i in (0, 1):
            col[1] = 1.0
            supports.append((2,))
        else:
            col[i] = 1.0
            supports.append((i + 1,))
        xbar_cols.append(col)
    from sparsecert import SparseCodeSet

    codes_bar = SparseCodeSet(m, np.column_stack(xbar_cols), tuple(supports), 1)
    return a_mat, codes, b_mat, codes_bar


def test_threshold_necessity_construction():
    a_mat, codes, b_mat, codes_bar = necessity_instance(4)
    cert = build_certificate(a_mat, codes, build_complete(4, 1))
    residuals = np.linalg.norm(
        a_mat @ codes.codes - b_mat @ codes_bar.codes, axis=0)
    assert float(np.max(residuals)) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert math.sqrt(2) / 2 >= cert.eps_max_dictionary
    with pytest.raises(ThresholdError):
        verify_theorem1(a_mat, codes, b_mat, codes_bar, cert,
                        float(np.max(residuals)))
