"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Tolerances and sizes are pinned here, not configurable.
"""

import itertools
import math
import time

import numpy as np

from sparsecert import (
    ThresholdError,
    align_dictionaries,
    build_complete,
    build_cyclic,
    check_lemma3,
    check_lemma4,
    generate_instance,
    lower_bound_k,
    orthonormal_basis,
    pairwise_unions,
    restricted_lower_bound,
    spark_polynomial,
    subspace_distance,
    verify_theorem1,
)
from sparsecert import geometry, lemmas
from sparsecert.codes import SparseCodeSet
from sparsecert.constants import build_certificate
from sparsecert.experiment import PERTURBATION_FAMILIES, perturb_instance

from oracles import spark_verdict


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {detail}")
    return ok


def test_criterion_01_identity_lower_bound_exact():
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 9):
        for k in range(1, min(4, m) + 1):
            got = lower_bound_k(np.eye(m), k)
            worst = max(worst, abs(got - 1.0 / math.sqrt(k)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(1, ok, f"identity bounds exact to {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_non_spark_dictionary_example():
    start = time.perf_counter()
    eye = np.eye(5)
    mat = np.hstack([eye, (eye[:, 0] + eye[:, 2] + eye[:, 4])[:, None]])
    doubled = pairwise_unions(build_cyclic(6, 2))
    spark = spark_verdict(mat, 2)
    bound = restricted_lower_bound(mat, doubled)
    elapsed = time.perf_counter() - start
    ok = (not spark) and bound > 1e-6 and elapsed < 1.0
    assert report(2, ok, f"spark={spark}, union bound={bound:.6f}, {elapsed:.2f}s")


def test_criterion_03_monotonicity_and_chain():
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(100):
        m = int(rng.integers(4, 8))
        k = int(rng.integers(2, min(4, m)))
        n = int(rng.integers(2 * k, 9))
        mat = rng.standard_normal((n, m))
        bounds = [lower_bound_k(mat, j) for j in range(1, min(2 * k, m) + 1)]
        for small, large in zip(bounds, bounds[1:]):
            if small < large - 1e-10:
                violations += 1
        h = build_cyclic(m, k)
        l2 = lower_bound_k(mat, 2)
        l2h = restricted_lower_bound(mat, pairwise_unions(h))
        l2k = lower_bound_k(mat, min(2 * k, m))
        if l2 < l2h - 1e-10 or l2h < l2k - 1e-10:
            violations += 1
    assert report(3, violations == 0,
                  f"100 matrices, {violations} monotonicity/chain violations")


def test_criterion_04_distance_symmetry_and_dimension():
    rng = np.random.default_rng(202)
    sym_worst = 0.0
    dim_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n + 1))
        u = orthonormal_basis(rng.standard_normal((n, d)))
        v = orthonormal_basis(rng.standard_normal((n, d)))
        sym_worst = max(sym_worst,
                        abs(subspace_distance(u, v) - subspace_distance(v, u)))
        if subspace_distance(u, v) < 1 - 1e-9 and u.dim > v.dim:
            dim_ok = False
    for _ in range(100):
        n = int(rng.integers(2, 9))
        u = orthonormal_basis(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
        v = orthonormal_basis(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
        if subspace_distance(u, v) < 1 - 1e-9 and u.dim > v.dim:
            dim_ok = False
    ok = sym_worst <= 1e-9 and dim_ok
    assert report(4, ok, f"symmetry gap {sym_worst:.2e}, dimension fact {dim_ok}")


def test_criterion_05_distance_to_intersection_inequality():
    start = time.perf_counter()
    result = check_lemma3(trials=1000, ambient_dim=8, max_subspaces=4, seed=303)
    elapsed = time.perf_counter() - start
    ok = (result.violations == 0 and elapsed < 30.0
          and lemmas.LEMMA3_SLACK == 1e-8)
    assert report(5, ok, f"1000 collections, {result.violations} violations, "
                         f"worst margin {result.worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_06_injective_map_counting_exhaustive():
    counterexamples = 0
    admissible_total = 0
    for m in (3, 4, 5):
        for m_bar in (m, m + 1):
            rep = check_lemma4(build_cyclic(m, 2), m_bar)
            counterexamples += len(rep.counterexamples)
            admissible_total += rep.admissible
            assert rep.guaranteed_size == m_bar - 2 * (m_bar - m)
    ok = counterexamples == 0 and admissible_total > 0
    assert report(6, ok, f"{admissible_total} admissible maps checked, "
                         f"{counterexamples} counterexamples")


def test_criterion_07_recovery_bounds_end_to_end():
    start = time.perf_counter()
    h = build_cyclic(4, 2)
    grid = (1e-4, 1e-3, 1e-2)
    executed = 0
    eq5_failures = 0
    eq6_checked = 0
    eq6_failures = 0
    for seed in range(20):
        mat, codes = generate_instance(4, 4, 2, h, 7, seed=seed)
        assert codes.n_codes == 28  # exceeds the per-support requirement 6
        cert = build_certificate(mat, codes, h)
        assert cert.hypotheses_ok and cert.spark_ok
        family = PERTURBATION_FAMILIES[seed % len(PERTURBATION_FAMILIES)]
        rng = np.random.default_rng([404, seed])
        for eps_target in grid:
            if eps_target >= cert.eps_max_dictionary:
                continue
            cand, codes_bar = perturb_instance(mat, codes, family, eps_target, rng)
            eps = float(np.max(np.linalg.norm(
                mat @ codes.codes - cand @ codes_bar.codes, axis=0)))
            if eps >= cert.eps_max_dictionary:
                continue
            rep = verify_theorem1(mat, codes, cand, codes_bar, cert, eps)
            executed += 1
            if not rep.eq5_ok:
                eq5_failures += 1
            if rep.code_tier_active:
                eq6_checked += 1
                if not (rep.eq6_ok and rep.l2k_ok):
                    eq6_failures += 1
    elapsed = time.perf_counter() - start
    ok = (executed > 0 and eq5_failures == 0 and eq6_failures == 0
          and elapsed < 300.0)
    assert report(7, ok,
                  f"{executed} trials executed (grid filtered per instance), "
                  f"eq5 failures {eq5_failures}, eq6 checked {eq6_checked} "
                  f"failures {eq6_failures}, {elapsed:.1f}s")


def brute_force_max_error(a_mat, b_mat):
    m, m_bar = a_mat.shape[1], b_mat.shape[1]
    best = math.inf
    for targets in itertools.permutations(range(m_bar), m):
        worst = 0.0
        for j, l in enumerate(targets):
            b = b_mat[:, l]
            denom = float(np.dot(b, b))
            if denom == 0.0:
                worst = math.inf
                break
            scale = float(np.dot(a_mat[:, j], b)) / denom
            worst = max(worst, float(np.linalg.norm(a_mat[:, j] - scale * b)))
        best = min(best, worst)
    return best


def test_criterion_08_alignment_matches_exhaustive_search():
    rng = np.random.default_rng(505)
    worst_gap = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m, m + 3))
        a_mat = rng.standard_normal((n, m))
        b_mat = a_mat[:, rng.permutation(m)] * (
            rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m))
        noise = rng.standard_normal(b_mat.shape)
        noise /= np.linalg.norm(noise, axis=0)
        b_mat = b_mat + noise * rng.uniform(0.0, 0.01, m)
        got = align_dictionaries(a_mat, b_mat).max_column_error
        want = brute_force_max_error(a_mat, b_mat)
        worst_gap = max(worst_gap, abs(got - want))
    assert report(8, worst_gap <= 1e-12,
                  f"50 instances, worst solver/oracle gap {worst_gap:.2e}")


def test_criterion_09_random_instances_always_certify():
    h = build_cyclic(4, 2)
    failures = 0
    for seed in range(50):
        try:
            mat, codes = generate_instance(4, 4, 2, h, 7, seed=1000 + seed)
        except Exception:
            failures += 1
            continue
        cert = build_certificate(mat, codes, h)
        if not (cert.sip_ok and cert.regular_ok and cert.spark_ok
                and cert.glp_ok and cert.counts_ok and cert.lower_bound_ok):
            failures += 1
    assert report(9, failures == 0, f"50 seeds, {failures} certification failures")


def test_criterion_10_threshold_necessity():
    m = 4
    a_mat = np.eye(m)
    codes = SparseCodeSet(m, np.eye(m), tuple((i,) for i in range(1, m + 1)), 1)
    b_mat = np.eye(m).copy()
    b_mat[:, 0] = 0.0
    b_mat[:, 1] = 0.5 * (a_mat[:, 0] + a_mat[:, 1])
    cols, supports = [], []
    for i in range(m):
        col = np.zeros(m)
        target = 1 if i in (0, 1) else i
        col[target] = 1.0
        cols.append(col)
        supports.append((target + 1,))
    codes_bar = SparseCodeSet(m, np.column_stack(cols), tuple(supports), 1)
    cert = build_certificate(a_mat, codes, build_complete(m, 1))
    residual = float(np.max(np.linalg.norm(
        a_mat @ codes.codes - b_mat @ codes_bar.codes, axis=0)))
    value_ok = abs(residual - math.sqrt(2) / 2) <= 1e-15
    above = residual >= cert.eps_max_dictionary
    refused = False
    try:
        verify_theorem1(a_mat, codes, b_mat, codes_bar, cert, residual)
    except ThresholdError:
        refused = True
    ok = value_ok and above and refused
    assert report(10, ok,
                  f"residual {residual:.6f} (sqrt2/2), threshold "
                  f"{cert.eps_max_dictionary:.6f}, refused={refused}")


def test_criterion_11_spark_verdicts_agree():
    rng = np.random.default_rng(606)
    rank_tol = 1e-9
    disagreements = 0
    positives = negatives = 0
    for trial in range(100):
        k = int(rng.integers(1, 3))
        width = 2 * k
        m = int(rng.integers(width, 7))
        n = int(rng.integers(width, 7))
        kind = trial % 4
        if kind == 0:
            mat = rng.standard_normal((n, m))
        elif kind == 1:
            mat = rng.integers(-3, 4, size=(n, m)).astype(float)
        elif kind == 2:
            mat = rng.standard_normal((n, m))
            degenerate = rng.integers(0, 3)
            if degenerate == 0:
                mat[:, rng.integers(0, m)] = 0.0
            elif degenerate == 1 and m >= 2:
                src, dst = rng.choice(m, size=2, replace=False)
                mat[:, dst] = mat[:, src]
            elif m >= 3:
                a, b, c = rng.choice(m, size=3, replace=False)
                mat = np.round(mat * 2) / 2
                mat[:, c] = mat[:, a] + mat[:, b]
        else:
            mat = rng.integers(-2, 3, size=(n, m)).astype(float)
        poly_positive = spark_polynomial(mat, k) > 0
        smax = float(np.linalg.svd(mat, compute_uv=False)[0])
        bound = lower_bound_k(mat, min(width, m))
        # the certificate's spark_ok, and the same cut written out
        spark = geometry.spark_from_bound(bound, min(width, m), smax, rank_tol)
        lb_positive = bound * math.sqrt(min(width, m)) > rank_tol * smax
        if not (poly_positive == spark == lb_positive):
            disagreements += 1
        if spark:
            positives += 1
        else:
            negatives += 1
    ok = disagreements == 0 and positives > 0 and negatives > 0
    assert report(11, ok, f"100 matrices ({positives} spark-true, "
                          f"{negatives} spark-false), {disagreements} disagreements")
