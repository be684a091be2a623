"""Dictionary alignment, code error, and the recovery-inequality harness."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sparsecert import (
    HypothesisError,
    SparseCodeSet,
    ThresholdError,
    align_dictionaries,
    build_complete,
    build_cyclic,
    generate_instance,
    verify_theorem1,
)
from sparsecert import alignment, geometry
from sparsecert.alignment import AlignmentResult, _augment, _l1_errors, _pair_costs
from sparsecert.constants import build_certificate
from sparsecert.hypergraph import Hypergraph

from oracles import PLANTED, edge_codes, planted_candidates


# The per-pair alignment that the stacked costs and the one-matching
# extraction replaced, kept as the oracle they must equal bit for bit.


def _reference_pair_costs(a_mat, b_mat):
    m, m_bar = a_mat.shape[1], b_mat.shape[1]
    b_sq = np.array([float(np.dot(b_mat[:, l], b_mat[:, l]))
                     for l in range(m_bar)])
    usable = b_sq > 0.0
    scales = np.zeros((m, m_bar))
    costs = np.full((m, m_bar), math.inf)
    for j in range(m):
        a = a_mat[:, j]
        for l in range(m_bar):
            if not usable[l]:
                continue
            scale = float(np.dot(a, b_mat[:, l])) / b_sq[l]
            scales[j, l] = scale
            d = a - scale * b_mat[:, l]
            costs[j, l] = math.sqrt(float(np.dot(d, d)))
    return costs, scales, usable


def _reference_max_matching(allowed):
    adjacency = [[col for col, ok in enumerate(row) if ok]
                 for row in allowed.tolist()]
    owner = [-1] * allowed.shape[1]

    def augment(row, seen):
        for col in adjacency[row]:
            if not seen[col]:
                seen[col] = True
                if owner[col] < 0 or augment(owner[col], seen):
                    owner[col] = row
                    return True
        return False

    return sum(augment(row, [False] * len(owner)) for row in range(len(adjacency)))


def _reference_submatching_ok(costs, rows, cols, threshold, needed):
    if needed == 0:
        return True
    if not rows or not cols:
        return False
    sub = costs[np.ix_(rows, cols)]
    return _reference_max_matching(sub <= threshold) >= needed


def _reference_align_dictionaries(dictionary, candidate):
    """Binary search over cost levels with a fresh matching per probe, then
    the lexicographic extraction with a fresh matching per candidate pair."""
    a_mat = geometry.as_matrix(dictionary, "dictionary")
    b_mat = geometry.as_matrix(candidate, "candidate")
    m, m_bar = a_mat.shape[1], b_mat.shape[1]
    costs, scales, usable = _reference_pair_costs(a_mat, b_mat)
    n_usable = int(np.sum(usable))
    if n_usable == 0:
        raise ValueError("candidate dictionary has no nonzero columns")
    n_match = min(m, n_usable)

    levels = np.unique(costs[np.isfinite(costs)])
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        deficit = min(costs.shape) - _reference_max_matching(costs <= levels[mid])
        if deficit <= min(m, m_bar) - n_match:
            hi = mid
        else:
            lo = mid + 1
    threshold = levels[lo]

    pi, used = {}, set()
    for j in range(m):
        matched_needed = n_match - len(pi)
        if matched_needed == 0:
            break
        for l in range(m_bar):
            if l in used or costs[j, l] > threshold:
                continue
            rows = [jj for jj in range(j + 1, m)]
            cols = [ll for ll in range(m_bar) if ll != l and ll not in used]
            if matched_needed == 1 or _reference_submatching_ok(
                    costs, rows, cols, threshold, matched_needed - 1):
                pi[j] = l
                used.add(l)
                break
    column_errors = {j + 1: float(costs[j, l]) for j, l in pi.items()}
    return AlignmentResult(
        pi={j + 1: l + 1 for j, l in pi.items()},
        scales={j + 1: float(scales[j, l]) for j, l in pi.items()},
        column_errors=column_errors,
        max_column_error=max(column_errors.values()),
        unmatched_source=tuple(j + 1 for j in range(m) if j not in pi),
        unmatched_target=tuple(l + 1 for l in range(m_bar) if l not in used),
    )


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


def oracle_case(kind, rng):
    """One (A, B) pair of the given kind, C- or F-ordered at random."""
    m, m_bar, n = (int(v) for v in rng.integers(1, [11, 11, 13]))
    noise = 10.0 ** rng.uniform(-14, -2)
    if kind == "gaussian":
        a_mat = rng.standard_normal((n, m))
        b_mat = rng.standard_normal((n, m_bar))
    elif kind == "integer":
        a_mat = rng.integers(-2, 3, (n, m)).astype(float)
        b_mat = rng.integers(-2, 3, (n, m_bar)).astype(float)
    elif kind == "binary_duplicates":
        a_mat = rng.integers(0, 2, (n, m)).astype(float)
        b_mat = a_mat[:, rng.integers(0, m, m_bar)]
    elif kind == "zero_and_duplicate_columns":
        a_mat = rng.standard_normal((n, m))
        b_mat = rng.standard_normal((n, m_bar))
        b_mat[:, rng.random(m_bar) < 0.3] = 0.0
        b_mat[:, -1] = b_mat[:, 0]
        a_mat[:, -1] = a_mat[:, 0]
    elif kind == "near_orbit":
        a_mat = rng.standard_normal((n, m))
        b_mat = a_mat[:, rng.integers(0, m, m_bar)]
        b_mat = b_mat * rng.uniform(0.5, 2.0, m_bar) * rng.choice([-1.0, 1.0], m_bar)
        b_mat = b_mat + noise * rng.standard_normal(b_mat.shape)
    else:  # near_permutation: a permuted prefix, padded with junk columns
        a_mat = rng.standard_normal((n, m))
        b_mat = a_mat[:, rng.permutation(m)[:m_bar]]
        if m_bar > m:
            b_mat = np.hstack([b_mat, rng.standard_normal((n, m_bar - m))])
        b_mat = b_mat + noise * rng.standard_normal(b_mat.shape)
    if rng.random() < 0.5:
        a_mat = np.asfortranarray(a_mat)
    if rng.random() < 0.5:
        b_mat = np.asfortranarray(b_mat)
    return a_mat, b_mat


@pytest.mark.parametrize("kind", [
    "gaussian", "integer", "binary_duplicates", "zero_and_duplicate_columns",
    "near_orbit", "near_permutation",
])
def test_alignment_equals_per_pair_reference(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    shapes = set()
    for _ in range(250):
        a_mat, b_mat = oracle_case(kind, rng)
        shapes.add((np.sign(b_mat.shape[1] - a_mat.shape[1]),
                    a_mat.flags.f_contiguous, b_mat.flags.f_contiguous))
        costs, scales, usable = _reference_pair_costs(a_mat, b_mat)
        new_costs, new_scales, new_usable = (level[0] for level in
                                             _pair_costs(a_mat, b_mat[None]))
        assert np.array_equal(new_costs, costs)
        assert np.array_equal(new_scales, scales)
        assert np.array_equal(new_usable, usable)
        if not usable.any():
            with pytest.raises(ValueError, match="no nonzero columns"):
                align_dictionaries(a_mat, b_mat)
            continue
        assert (align_dictionaries(a_mat, b_mat)
                == _reference_align_dictionaries(a_mat, b_mat))
    if kind != "binary_duplicates":
        assert len(shapes) == 12


@pytest.mark.parametrize("kind", ["gaussian", "zero_and_duplicate_columns", "near_orbit"])
def test_pair_costs_of_a_stack_equal_each_level_alone(kind):
    # a sweep takes the costs of all its candidates in one pass; each level
    # must get what its candidate alone gets (the per-pair reference, in
    # the normal range; see test_alignment_equals_per_pair_reference)
    rng = np.random.default_rng(sum(map(ord, kind)) + 1)
    for _ in range(40):
        a_mat, b_mat = oracle_case(kind, rng)
        levels = np.stack([b_mat, np.zeros_like(b_mat), b_mat + 1e-9 * rng.standard_normal(
            b_mat.shape), b_mat * 10.0 ** rng.integers(-200, 200)])
        stacked = _pair_costs(a_mat, levels)
        for level in range(len(levels)):
            alone = _pair_costs(a_mat, levels[level:level + 1])
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[level], want[0])
        for got, want in zip(stacked, _reference_pair_costs(a_mat, levels[0])):
            assert np.array_equal(got[0], want)


def planted_dictionary(rng):
    """A dictionary of one to six columns, Gaussian or in -2..2, with a
    repeated column at times."""
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 8))
    if rng.random() < 0.7:
        a_mat = rng.standard_normal((n, m))
    else:
        a_mat = rng.integers(-2, 3, (n, m)).astype(float)
    if m > 1 and rng.random() < 0.2:
        a_mat[:, -1] = a_mat[:, 0]
    return a_mat


@pytest.mark.parametrize("seed", range(4))
def test_read_off_targets_equal_the_kuhn_search(monkeypatch, seed):
    # every level of a stack gets the targets that Kuhn's search gives it
    # alone, whether read off the costs or searched; a failing level stops
    # the stack with the search's error
    searched = []
    match = alignment._match

    def counted(costs, usable):
        searched.append(True)
        return match(costs, usable)

    rng = np.random.default_rng(seed)
    read_off, failures, relations = 0, 0, set()
    for _ in range(150):
        a_mat = planted_dictionary(rng)
        m = a_mat.shape[1]
        m_bar = int(rng.choice([1, max(m - 1, 1), m, m + 1, m + 2]))
        relations.add(int(np.sign(m_bar - m)))
        kinds = rng.choice(PLANTED, int(rng.integers(1, 6)))
        costs, _, usable = _pair_costs(a_mat, planted_candidates(rng, a_mat, m_bar, kinds)[0])
        with monkeypatch.context() as patch:
            patch.setattr(alignment, "_match", counted)
            target, failed = alignment._targets(costs, usable)
        for level in range(len(kinds)):
            try:
                expected = match(costs[level], usable[level])
            except ValueError as exc:
                assert failed[0] == level and str(failed[1]) == str(exc)
                assert np.all(target[level:] == -1)
                failures += 1
                break
            assert target[level].tolist() == expected
        else:
            assert failed is None
        read_off += len(kinds) - len(searched)
        searched.clear()
    assert read_off and failures and relations == {-1, 0, 1}


def test_targets_search_only_where_the_threshold_graph_is_ambiguous(monkeypatch):
    # three unit sources, four targets; theta is the largest cheapest cost
    e1, e2, e3 = np.eye(3)
    base = [e1, e2, e3 + 0.1 * e1]
    levels = {
        "simple": base + [e1 + e2 + e3],
        "tie at theta": base + [e3 + 0.1 * e1],
        "tie below theta": base + [e2],
        # source 1's second target costs 0.45, below theta = 0.67, and the
        # extraction takes it: the row argmins are not the matching
        "second below theta": [e1 + 0.5 * e3, e1 + 0.1 * e2, e2 + 0.9 * e3, e3 + 0.5 * e2],
        "shared cheapest": [e1 + 2 * e3, e2 + 2 * e3, e3, e1 + e2],
        "zero column": [e1, 0 * e1, e3 + 0.1 * e1, e2],
    }
    stack = np.stack([np.column_stack(columns) for columns in levels.values()])
    costs, _, usable = _pair_costs(np.eye(3), stack)
    searched = []
    match = alignment._match

    def counted(costs, usable):
        searched.append(len(searched))
        return match(costs, usable)

    monkeypatch.setattr(alignment, "_match", counted)
    target, failed = alignment._targets(costs, usable)
    assert failed is None and len(searched) == 4
    for level in range(len(stack)):
        assert target[level].tolist() == match(costs[level], usable[level])
    assert target.tolist() == [[0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 2, 3], [0, 1, 2],
                               [0, 3, 2]]
    assert np.argmin(costs[3], axis=1).tolist() == [1, 2, 3]


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e155, 1e-170, 1e200, 1e-200,
                                   1e300, 1e-300])
def test_alignment_at_extreme_column_scales(scale):
    rng = np.random.default_rng(4)
    a_mat = rng.standard_normal((4, 3))
    res = align_dictionaries(a_mat * scale, (a_mat * scale)[:, [2, 0, 1]])
    assert res.pi == {1: 2, 2: 3, 3: 1}
    assert all(c == pytest.approx(1.0, rel=1e-15) for c in res.scales.values())
    assert res.max_column_error <= 1e-15 * scale


@pytest.mark.parametrize("power", [-1000, -520, -300, 300, 500, 900])
def test_power_of_two_scaling_is_exact(power):
    # a power of two passes through the column scaling exactly, so costs
    # scale by it and the map and scales do not move
    rng = np.random.default_rng(power % 97)
    a_mat, b_mat, _, _ = random_orbit_pair(rng, 5, 4)
    b_mat = b_mat + 1e-6 * rng.standard_normal(b_mat.shape)
    base = align_dictionaries(a_mat, b_mat)
    res = align_dictionaries(np.ldexp(a_mat, power), np.ldexp(b_mat, power))
    assert res.pi == base.pi and res.scales == base.scales
    assert res.column_errors == {j: math.ldexp(e, power)
                                 for j, e in base.column_errors.items()}


def test_overflowing_costs_rejected():
    # the only pair's residual is the whole column, beyond the largest float
    with pytest.raises(ValueError, match="finite alignment costs"):
        align_dictionaries(np.full((2, 1), 1.5e308), np.array([[1.0], [-1.0]]))


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


def max_matching(allowed):
    """Size of the matching that ``_augment`` grows until no path is left."""
    adjacency = [[col for col, ok in enumerate(row) if ok]
                 for row in allowed.tolist()]
    col_of, row_of = [-1] * allowed.shape[0], [-1] * allowed.shape[1]
    size = 0
    while _augment(adjacency, col_of, row_of, range(allowed.shape[0])):
        size += 1
    for row, col in enumerate(col_of):
        assert col < 0 or (allowed[row, col] and row_of[col] == row)
    assert sum(col >= 0 for col in col_of) == size
    return size


def test_max_matching_matches_brute_force():
    rng = np.random.default_rng(5)
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 8)]
    for n_rows, n_cols in shapes:
        for density in (0.2, 0.5, 0.8):
            allowed = rng.random((n_rows, n_cols)) < density
            allowed[rng.integers(n_rows)] = False
            allowed[:, rng.integers(n_cols)] = False
            assert max_matching(allowed) == brute_force_matching(allowed)
    assert max_matching(np.ones((6, 7), dtype=bool)) == 6
    assert max_matching(np.zeros((4, 3), dtype=bool)) == 0


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


@pytest.mark.parametrize("m_bar, guaranteed", [(5, 3), (6, 2), (7, 1), (8, None),
                                                (9, None)])
def test_eq5_undecided_where_lemma4_guarantees_nothing(m_bar, guaranteed):
    # Lemma 4 guarantees m_bar - r (m_bar - m) matched columns only while
    # (r - 1) m_bar < m r: below m_bar = 8 here (m = 4, r = 2); from there
    # on eq. (5) is left undecided over the whole matching
    h = build_cyclic(4, 2)
    a_mat, codes = generate_instance(4, 4, 2, h, 7, seed=0)
    cert = build_certificate(a_mat, codes, h)
    extra = np.random.default_rng(m_bar).standard_normal((4, m_bar - 4))
    pad = np.zeros((m_bar - 4, codes.n_codes))
    codes_bar = SparseCodeSet(m_bar, np.vstack([codes.codes, pad]), codes.supports,
                              codes.k)
    report = verify_theorem1(a_mat, codes, np.hstack([a_mat, extra]), codes_bar, cert,
                             cert.eps_max_dictionary / 2)
    assert report.m_bar == m_bar and report.m_bar_ok
    assert report.guaranteed_columns == guaranteed
    if guaranteed is None:
        assert report.eq5_ok is None
        assert report.matched_subset == (1, 2, 3, 4)
    else:
        assert report.eq5_ok is True
        assert len(report.matched_subset) == guaranteed


def test_eq5_fails_when_fewer_columns_match_than_lemma4_guarantees():
    # the candidate's column 4 is zero, so only three sources can be
    # matched where Lemma 4 guarantees four (m_bar = m): eq. (5) fails over
    # the three, however small their errors, while eq. (6) holds on codes
    # whose row 4 is zero as well
    h = build_cyclic(4, 2)
    a_mat, codes = generate_instance(4, 4, 2, h, 7, seed=0)
    cert = build_certificate(a_mat, codes, h)
    x = codes.codes.copy()
    x[3] = 0.0
    zeroed = SparseCodeSet(4, x, codes.supports, codes.k)
    b_mat = a_mat.copy()
    b_mat[:, 3] = 0.0
    report = verify_theorem1(a_mat, zeroed, b_mat, zeroed, cert,
                             cert.eps_max_dictionary / 2)
    assert report.guaranteed_columns == 4
    assert report.alignment.unmatched_source == (4,)
    assert report.matched_subset == (1, 2, 3)
    assert report.max_column_error == 0.0
    assert report.eq5_ok is False
    assert report.eq6_ok is True


def test_alignment_refuses_different_signal_dimensions():
    with pytest.raises(ValueError, match="different signal dimensions"):
        align_dictionaries(np.eye(3), np.eye(4))


def test_verify_refuses_different_sample_counts():
    h = build_cyclic(4, 2)
    a_mat, codes = generate_instance(4, 4, 2, h, 7, seed=0)
    cert = build_certificate(a_mat, codes, h)
    fewer = SparseCodeSet(4, codes.codes[:, 1:], codes.supports[1:], codes.k)
    with pytest.raises(ValueError, match="different sample counts"):
        verify_theorem1(a_mat, codes, a_mat, fewer, cert, cert.eps_max_dictionary / 2)


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


def code_errors(x, xbar, alignment, subset=None):
    """The code errors of verify_theorem1's code tier (``_l1_errors``) for
    one code, shape (m,), or N codes as columns, shape (m, N), over the
    matched columns or the given 1-based subset of them."""
    columns = sorted(alignment.pi) if subset is None else sorted(subset)
    source = np.array([[j - 1 for j in columns]], dtype=np.intp)
    target = np.array([[alignment.pi[j] - 1 for j in columns]], dtype=np.intp)
    scales = np.array([[alignment.scales[j] for j in columns]])
    x, xbar = np.asarray(x, dtype=float), np.asarray(xbar, dtype=float)
    single = x.ndim == 1
    if single:
        x, xbar = x[:, None], xbar[:, None]
    total = _l1_errors(x, xbar[None], np.zeros(1, dtype=np.intp), source, target,
                       scales)[0]
    return float(total[0]) if single else total


def test_code_error_exact_transform():
    rng = np.random.default_rng(5)
    a_mat, b_mat, perm, diag = random_orbit_pair(rng, 5, 4)
    res = align_dictionaries(a_mat, b_mat)
    x = rng.standard_normal(4)
    xbar = np.empty(4)
    for l in range(4):
        xbar[l] = x[perm[l]] / diag[l]
    assert code_errors(x, xbar, res) <= 1e-10


def test_code_error_k1_consistent_rescale():
    # scale 2 (candidate columns at half length), code carried at twice the size
    a_mat = np.eye(3)
    b_mat = 0.5 * np.eye(3)
    res = align_dictionaries(a_mat, b_mat)
    assert res.scales[1] == pytest.approx(2.0)
    x = np.array([1.0, 0.0, 0.0])
    xbar = np.array([2.0, 0.0, 0.0])
    assert code_errors(x, xbar, res) == 0.0


def test_code_error_matches_direct_formula():
    rng = np.random.default_rng(7)
    a_mat, b_mat, perm, diag = random_orbit_pair(rng, 5, 4)
    res = align_dictionaries(a_mat, b_mat)
    x = rng.standard_normal(4)
    xbar = rng.standard_normal(4)
    direct = sum(
        abs(x[j - 1] - xbar[res.pi[j] - 1] / res.scales[j]) for j in res.pi
    )
    assert code_errors(x, xbar, res) == pytest.approx(direct, rel=1e-12)


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
    errors = code_errors(x, xbar, res, subset)
    assert errors.shape == (9,)
    singles = [code_errors(x[:, i], xbar[:, i], res, subset) for i in range(9)]
    assert all(type(e) is float for e in singles)
    assert errors.tolist() == singles
    ordered = sorted(res.pi) if subset is None else sorted(subset)
    for i in range(9):
        total = 0.0
        for j in ordered:
            total += abs(x[j - 1, i] - xbar[res.pi[j] - 1, i] / res.scales[j])
        assert singles[i] == total


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


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_verify_refuses_non_finite_eps(eps):
    # a NaN used to give eq5_ok False rather than an error
    h = build_cyclic(4, 2)
    a_mat, codes = generate_instance(4, 4, 2, h, 7, seed=15)
    cert = build_certificate(a_mat, codes, h)
    with pytest.raises(ValueError, match="eps must be finite"):
        verify_theorem1(a_mat, codes, a_mat, codes, cert, eps)


def test_refactorization_without_sip_is_refused():
    # vertices 1, 2 and 5, 6 of this design are never apart (no SIP), so
    # mixing columns 1, 2 and columns 5, 6 of A by M, and the matching code
    # rows by M^-1, keeps every support and the data: an exact second
    # factorization whose aligned columns lie 0.8 away. Against the
    # threshold L2 / C1 that the certificate used to carry, eq. (5) reads
    # false; the certificate carries no threshold, and the check refuses
    h = Hypergraph(6, [(1, 2, 3), (1, 2, 4), (3, 5, 6), (4, 5, 6)])
    rng = np.random.default_rng(0)
    a_mat = rng.standard_normal((6, 6))
    codes = edge_codes(rng, h, 41)
    mix = np.array([[1.0, 0.7], [0.3, 1.0]])
    b_mat, x = a_mat.copy(), codes.codes.copy()
    for pair in ([0, 1], [4, 5]):
        b_mat[:, pair] = a_mat[:, pair] @ mix
        x[pair] = np.linalg.solve(mix, codes.codes[pair])
    codes_bar = SparseCodeSet(6, x, codes.supports, 3)
    residual = float(np.max(np.linalg.norm(a_mat @ codes.codes - b_mat @ x, axis=0)))
    assert residual < 1e-14
    cert = build_certificate(a_mat, codes, h)
    assert not cert.sip_ok and cert.C1 is not None and cert.eps_max_dictionary is None
    assert cert.regular_ok and cert.lower_bound_ok and cert.glp_ok and cert.counts_ok
    unproven = SimpleNamespace(**dict(vars(cert), eps_max_dictionary=cert.L2 / cert.C1,
                                      eps_max_codes=cert.L2k / cert.C1))
    report = verify_theorem1(a_mat, codes, b_mat, codes_bar, unproven, residual)
    assert report.eq5_ok is False and report.max_column_error > 0.5
    with pytest.raises(HypothesisError) as exc:
        verify_theorem1(a_mat, codes, b_mat, codes_bar, cert, residual)
    assert str(exc.value) == "certificate withholds its thresholds: sip_ok false"


def necessity_instance(m):
    """Identity dictionary, singleton codes, and the merged-column candidate."""
    a_mat = np.eye(m)
    codes = SparseCodeSet(m, np.eye(m), tuple((i,) for i in range(1, m + 1)), 1)
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
