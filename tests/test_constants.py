"""Stability constants, thresholds, sample sizes, and certificate assembly."""

import itertools
import math

import numpy as np
import pytest

from sparsecert import (
    HypothesisError,
    column_span,
    build_certificate,
    build_complete,
    build_cyclic,
    build_grid,
    compute_C1,
    compute_C2,
    epsilon_for,
    generate_instance,
    merge_code_sets,
    sample_size_cor1,
    sample_size_thm2,
    vandermonde_codes,
    xi,
)
from sparsecert import constants
from sparsecert.hypergraph import Hypergraph, regularity


def singleton_codes(coefficients):
    m = len(coefficients)
    return merge_code_sets([
        vandermonde_codes((i + 1,), 1, (c,), m=m)
        for i, c in enumerate(coefficients)
    ])


# compute_C2


def test_c2_identity_cyclic():
    # coordinate-span geometry: all ordering aggregates vanish, r = 2, unit columns
    assert compute_C2(np.eye(4), build_cyclic(4, 2)) == pytest.approx(3.0, abs=1e-12)


def test_c2_scales_linearly():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((5, 4))
    h = build_cyclic(4, 2)
    assert compute_C2(2 * mat, h) == pytest.approx(2 * compute_C2(mat, h), rel=1e-10)


def test_c2_identity_grid():
    assert compute_C2(np.eye(9), build_grid(9)) == pytest.approx(3.0, abs=1e-12)


def per_group_c2(mat, hypergraph):
    """Reference C2: a separate xi for every group of r + 1 edge spans."""
    r = regularity(hypergraph)
    worst = 0.0
    for group in itertools.combinations(hypergraph.edges, r + 1):
        worst = max(worst, xi([column_span(mat, e) for e in group]))
    return (r + 1) * float(np.max(np.linalg.norm(mat, axis=0))) / (1.0 - worst)


@pytest.mark.parametrize("hypergraph", [
    build_cyclic(8, 2), build_complete(4, 2), build_complete(5, 2),
    build_grid(9), build_cyclic(6, 3),
], ids=["cyclic8k2", "complete4k2", "complete5k2", "grid9", "cyclic6k3"])
def test_c2_shared_dp_matches_per_group_xi_bitwise(hypergraph):
    mat = np.random.default_rng(hypergraph.m).standard_normal(
        (hypergraph.m, hypergraph.m))
    assert compute_C2(mat, hypergraph) == per_group_c2(mat, hypergraph)


def test_c2_requires_regular():
    with pytest.raises(HypothesisError):
        compute_C2(np.eye(3), Hypergraph(3, [(1, 2), (2, 3)]))


# compute_C1


def test_c1_singleton_formula_identity():
    codes = singleton_codes([1.0, 1.0, 1.0, 1.0])
    got = compute_C1(np.eye(4), codes, build_complete(4, 1))
    assert got == pytest.approx(2.0, abs=1e-12)


def test_c1_singleton_footnote_bound():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        mat = rng.standard_normal((m + 1, m))
        coeffs = rng.uniform(0.2, 3.0, m) * rng.choice([-1.0, 1.0], m)
        c1 = compute_C1(mat, singleton_codes(coeffs), build_complete(m, 1))
        assert c1 >= 2.0 / np.min(np.abs(coeffs)) - 1e-9
        assert c1 >= 1.0 / np.min(np.abs(coeffs))


def test_c1_decreases_when_codes_scale_up():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=0)
    doubled = merge_code_sets([codes])
    doubled.codes = 2 * doubled.codes
    assert compute_C1(mat, doubled, h) < compute_C1(mat, codes, h)


def test_c1_requires_codes_everywhere():
    codes = vandermonde_codes((1, 2), 3, (1.0, 2.0), m=4)
    with pytest.raises(HypothesisError):
        compute_C1(np.eye(4), codes, build_cyclic(4, 2))


# epsilon_for


def test_epsilon_zero_deltas():
    assert epsilon_for(0.0, 0.0, 3.0, 0.5, 1.0) == 0.0


def test_epsilon_example_value():
    got = epsilon_for(0.3, 0.1, 3.0, 0.5, 1.0)
    assert got == pytest.approx(min(0.1, 0.05 / 4.3), abs=1e-15)


def test_epsilon_large_delta1_hits_second_branch():
    got = epsilon_for(1e9, 0.1, 3.0, 0.5, 1.0)
    assert got == pytest.approx(0.05 / 4.3, abs=1e-15)


def test_epsilon_monotone_and_positive():
    grid = [0.0, 1e-3, 0.1, 1.0, 10.0]
    values = [[epsilon_for(d1, d2, 2.0, 0.3, 1.5) for d2 in grid] for d1 in grid]
    for i, d1 in enumerate(grid):
        for j, d2 in enumerate(grid):
            if d1 > 0 and d2 > 0:
                assert values[i][j] > 0
            if i + 1 < len(grid):
                assert values[i + 1][j] >= values[i][j]
            if j + 1 < len(grid):
                assert values[i][j + 1] >= values[i][j]


def test_epsilon_rejects_negative():
    with pytest.raises(ValueError):
        epsilon_for(-0.1, 0.1, 1.0, 1.0, 1.0)


# sample sizes


def test_cor1_cyclic_5_2():
    assert sample_size_cor1(5, 2, build_cyclic(5, 2)) == 55


def test_cor1_k1():
    h = build_complete(6, 1)
    assert sample_size_cor1(6, 1, h) == len(h.edges)


def test_cor1_cyclic_4_2():
    assert sample_size_cor1(4, 2, build_cyclic(4, 2)) == 28


def test_cor1_intro_identity():
    # |H| = m gives m(k-1)C(m,k) + m
    for m, k in [(5, 2), (6, 3), (7, 2)]:
        h = build_cyclic(m, k)
        assert sample_size_cor1(m, k, h) == m * (k - 1) * math.comb(m, k) + m


def test_thm2_5_2():
    got = sample_size_thm2(5, 2, build_cyclic(5, 2))
    assert got.per_support == 61
    assert got.total == 305


def test_thm2_k1():
    assert sample_size_thm2(5, 1, build_cyclic(5, 1)).per_support == 1


def test_thm2_4_2():
    got = sample_size_thm2(4, 2, build_cyclic(4, 2))
    assert got.per_support == 39
    assert got.total == 156


def test_sample_sizes_are_exact_integers():
    # big instances stay exact under arbitrary-precision arithmetic
    h = build_cyclic(30, 6)
    value = sample_size_cor1(30, 6, h)
    assert value == 30 * (5 * math.comb(30, 6) + 1)
    assert isinstance(value, int)


# certificate


def test_certificate_on_verified_instance():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    cert = build_certificate(mat, codes, h)
    assert cert.hypotheses_ok and cert.spark_ok
    assert cert.r == 2
    assert cert.required_per_support == 7
    assert all(v == 7 for v in cert.support_counts.values())
    assert cert.C1 > 0 and cert.C2 > 0
    assert cert.eps_max_dictionary == pytest.approx(cert.L2 / cert.C1)
    assert cert.eps_max_codes == pytest.approx(cert.L2k / cert.C1)
    assert cert.eps_max_codes <= cert.eps_max_dictionary + 1e-18
    assert cert.L2 >= cert.L2H >= cert.L2k >= 0


def test_certificate_computes_c2_once(monkeypatch):
    calls = []
    original = constants.compute_C2

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(constants, "compute_C2", counted)
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    cert = build_certificate(mat, codes, h)
    assert len(calls) == 1
    assert cert.C1 == compute_C1(mat, codes, h)


def test_certificate_without_c1_is_not_ok(monkeypatch):
    def refuse(*args, **kwargs):
        raise HypothesisError("degenerate")

    monkeypatch.setattr(constants, "compute_C2", refuse)
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    cert = build_certificate(mat, codes, h)
    assert cert.C1 is None and cert.C2 is None
    assert (cert.sip_ok and cert.regular_ok and cert.lower_bound_ok
            and cert.glp_ok and cert.counts_ok)
    assert not cert.hypotheses_ok


def test_certificate_permutation_invariance():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=2)
    c2 = compute_C2(mat, h)
    perm = [2, 0, 3, 1]
    relabel = {old + 1: new + 1 for new, old in enumerate(perm)}
    permuted_edges = [tuple(sorted(relabel[v] for v in e)) for e in h.edges]
    c2_perm = compute_C2(mat[:, perm], Hypergraph(4, permuted_edges))
    assert c2_perm == pytest.approx(c2, rel=1e-9)


def test_certificate_non_spark_dictionary_still_certifies():
    # five basis columns plus their alternating sum: spark fails, bound over
    # the union hypergraph stays positive, and the code tier is withheld
    eye = np.eye(5)
    mat = np.hstack([eye, (eye[:, 0] + eye[:, 2] + eye[:, 4])[:, None]])
    h = build_cyclic(6, 2)
    blocks = [vandermonde_codes(e, 16, (0.75, 1.25), m=6) for e in h.edges]
    cert = build_certificate(mat, merge_code_sets(blocks), h)
    assert not cert.spark_ok
    assert cert.lower_bound_ok
    assert cert.hypotheses_ok
    assert cert.eps_max_codes is None
    assert cert.eps_max_dictionary is not None and cert.eps_max_dictionary > 0


def test_certificate_grid_design():
    h = build_grid(4)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=3)
    cert = build_certificate(mat, codes, h)
    assert cert.r == 2
    assert cert.hypotheses_ok and cert.spark_ok


def test_certificate_glp_sampling_fallback():
    # force the sampled position check by shrinking the exhaustive cap
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 9, seed=5)
    cert = build_certificate(mat, codes, h, glp_subset_cap=10, glp_samples=200)
    assert cert.glp_ok


def test_certificate_counts_flag():
    h = build_cyclic(4, 2)
    blocks = [vandermonde_codes(e, 3, (0.8, 1.2), m=4) for e in h.edges]
    cert = build_certificate(np.eye(4), merge_code_sets(blocks), h)
    assert not cert.counts_ok
    assert cert.required_per_support == 7
