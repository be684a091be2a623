"""Perturbation families and the sweep runner.

The per-level path runs on arrays: one support mask per code set, one
in-support noise draw, one code-error expression. The ``_reference_*``
helpers are the per-column code it replaced; records, code errors, code
bounds and supports must match them bit for bit.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecert import SparseCodeSet, build_cyclic, generate_instance, verify_theorem1
from sparsecert import codes as codes_module
from sparsecert import experiment
from sparsecert.constants import build_certificate
from sparsecert.experiment import (
    PERTURBATION_FAMILIES,
    hypergraph_from_config,
    perturb_instance,
    run_experiment,
    summarize,
)
from sparsecert.hypergraph import normalize_support

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def instance():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=21)
    cert = build_certificate(mat, codes, h)
    return h, mat, codes, cert


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_realized_residual_matches_target(instance, family):
    _, mat, codes, cert = instance
    rng = np.random.default_rng(5)
    target = cert.eps_max_dictionary / 2
    cand, codes_bar = perturb_instance(mat, codes, family, target, rng)
    residuals = np.linalg.norm(mat @ codes.codes - cand @ codes_bar.codes, axis=0)
    assert float(np.max(residuals)) == pytest.approx(target, rel=1e-9)
    assert codes_bar.k == codes.k


def test_zero_perturbation_returns_exact_instance(instance):
    _, mat, codes, cert = instance
    rng = np.random.default_rng(6)
    cand, codes_bar = perturb_instance(mat, codes, "dict_jitter", 0.0, rng)
    report = verify_theorem1(mat, codes, cand, codes_bar, cert, 0.0)
    assert report.max_column_error == 0.0
    assert report.eq5_ok
    assert report.code_tier_active
    assert float(np.max(report.code_errors)) == 0.0


def test_run_experiment_passes_and_sorted():
    cfg = dict(m=4, n=4, k=2, hypergraph="cyclic", per_support_count=7,
               noise_grid=[1e-4, 1e-3], trials=6, family="dict_jitter", seed=0)
    records, summary = run_experiment(cfg)
    assert summary["records"] == len(records) > 0
    assert summary["pass5_rate"] == 1.0
    assert summary["pass6_rate"] in (None, 1.0)
    keys = [(r.seed, r.eps) for r in records]
    assert keys == sorted(keys)
    assert np.isfinite(summary["error_vs_eps_slope"])
    # each record carries its constant as bound5/eps; the regression slope
    # of achieved error against eps stays below it
    c1_values = [r.bound5 / r.eps for r in records]
    assert summary["error_vs_eps_slope"] <= max(c1_values)


def test_run_experiment_rejects_oversize():
    cfg = dict(m=40, n=40, k=2, hypergraph="cyclic", per_support_count=7,
               noise_grid=[1e-3], trials=1, family="dict_jitter", seed=0)
    with pytest.raises(ValueError):
        run_experiment(cfg)


@pytest.mark.parametrize("change, message", [
    ({"trials": 0}, "need at least one trial"),
    ({"trials": -3}, "need at least one trial"),
    ({"noise_grid": []}, "noise grid is empty"),
])
def test_run_experiment_rejects_empty_sweep(change, message):
    cfg = dict(m=4, n=4, k=2, hypergraph="cyclic", per_support_count=7,
               noise_grid=[1e-3], trials=1, family="dict_jitter", seed=0)
    with pytest.raises(ValueError, match=message):
        run_experiment(dict(cfg, **change))


def test_summarize_empty():
    summary = summarize([])
    assert summary["records"] == 0
    assert summary["error_vs_eps_slope"] is None


def test_zero_signal_raises_typed_error():
    codes = SparseCodeSet(3, np.zeros((3, 2)), ((1, 2), (2, 3)), 2)
    for family in ("dict_jitter", "scaled_permuted"):
        with pytest.raises(ValueError, match=f"{family}: no sample carries signal"):
            perturb_instance(np.eye(3), codes, family, 1e-3,
                             np.random.default_rng(0))


def test_code_jitter_without_support_raises_typed_error():
    codes = SparseCodeSet(3, np.zeros((3, 2)), ((), ()), 2)
    with pytest.raises(ValueError, match="code_jitter: no in-support perturbation"):
        perturb_instance(np.eye(3), codes, "code_jitter", 1e-3,
                         np.random.default_rng(0))


# -- the per-column path the array path replaced --------------------------

def _reference_validate(m, codes, supports, k):
    """SparseCodeSet's support checks one column at a time; the normalised
    supports, or the ValueError they raise."""
    codes = np.asarray(codes, dtype=float)
    supports = tuple(normalize_support(s, m) for s in supports)
    if len(supports) != codes.shape[1]:
        raise ValueError("one support set per code column required")
    for col, support in enumerate(supports):
        if len(support) > k:
            raise ValueError(f"support of column {col} larger than k={k}")
        outside = np.ones(m, dtype=bool)
        outside[[v - 1 for v in support]] = False
        if np.any(codes[outside, col] != 0.0):
            raise ValueError(f"column {col} has entries outside its support")
    return supports


def _reference_jitter_delta(codes, rng):
    """code_jitter's in-support noise, one draw per column."""
    delta = np.zeros_like(codes.codes)
    for col, support in enumerate(codes.supports):
        rows = [v - 1 for v in support]
        delta[rows, col] = rng.standard_normal(len(rows))
    return delta


def _reference_remap(supports, perm):
    """scaled_permuted's supports after the column permutation, per column."""
    inverse_positions = np.empty(len(perm), dtype=int)
    inverse_positions[perm] = np.arange(len(perm))
    return tuple(
        tuple(sorted(int(inverse_positions[v - 1]) + 1 for v in s))
        for s in supports
    )


def _reference_code_alignment_error(x, xbar, alignment, subset=None):
    """code_alignment_error on one code, one matched column at a time."""
    columns = sorted(alignment.pi) if subset is None else sorted(subset)
    total = 0.0
    for j in columns:
        c = alignment.scales[j]
        if c == 0.0:
            raise ValueError(f"matched column {j} has zero scale")
        total += abs(x[j - 1] - xbar[alignment.pi[j] - 1] / c)
    return total


def _reference_code_tier(codes, codes_bar, report, certificate):
    """verify_theorem1's code errors and bounds, one code at a time."""
    c1, eps = certificate.C1, report.eps
    denominator = certificate.L2k - c1 * eps
    errors = np.empty(codes.n_codes)
    bounds = np.empty(codes.n_codes)
    l1 = codes.l1_norms()
    for i in range(codes.n_codes):
        errors[i] = _reference_code_alignment_error(
            codes.codes[:, i], codes_bar.codes[:, i], report.alignment,
            report.matched_subset)
        bounds[i] = (1.0 + c1 * l1[i]) * eps / denominator
    return errors, bounds


def _reference_verify_theorem1(dictionary, codes, candidate, codes_bar,
                               certificate, eps, tol=1e-9):
    """verify_theorem1 with its code tier taken one code at a time."""
    report = verify_theorem1(dictionary, codes, candidate, codes_bar,
                             certificate, eps, tol)
    if report.code_tier_active:
        errors, bounds = _reference_code_tier(codes, codes_bar, report, certificate)
        report.code_errors, report.code_bounds = errors, bounds
        report.eq6_ok = bool(np.all(errors <= bounds + tol))
    return report


def _reference_perturb_instance(dictionary, codes, family, eps_target, rng):
    """perturb_instance with the per-column code-jitter draw and remap."""
    mat = np.asarray(dictionary, dtype=float)
    m = mat.shape[1]
    if family == "dict_jitter":
        return perturb_instance(mat, codes, family, eps_target, rng)
    if family == "scaled_permuted":
        perm = rng.permutation(m)
        diag = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
        base = mat[:, perm] * diag
        xbar = codes.codes[perm, :] / diag[:, None]
        supports = _reference_remap(codes.supports, perm)
        codes_bar = SparseCodeSet(m, xbar, supports, codes.k)
        assert _reference_validate(m, xbar, supports, codes.k) == codes_bar.supports
        noise = rng.standard_normal(mat.shape)
        worst = float(np.max(np.linalg.norm(noise @ codes_bar.codes, axis=0)))
        return base + noise * (eps_target / worst), codes_bar
    delta = _reference_jitter_delta(codes, rng)
    worst = float(np.max(np.linalg.norm(mat @ delta, axis=0)))
    jittered = codes.codes + delta * (eps_target / worst)
    assert (_reference_validate(codes.m, jittered, codes.supports, codes.k)
            == codes.supports)
    return mat, SparseCodeSet(codes.m, jittered, codes.supports, codes.k)


def _timeless(records):
    return [dataclasses.replace(r, ms=0.0) for r in records]


def _trial_instance(seed):
    config = workloads.TRIAL_CONFIG
    m, n, k = config["m"], config["n"], config["k"]
    h = hypergraph_from_config(config["hypergraph"], m, k)
    mat, codes = generate_instance(m, n, k, h, config["per_support_count"], seed=seed)
    return mat, codes, build_certificate(mat, codes, h)


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_records_match_per_column_reference(monkeypatch, family):
    for seed in (0, 1606, 7):
        config = dict(workloads.TRIAL_CONFIG, trials=1, seed=seed, family=family)
        records, summary = run_experiment(config)
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "perturb_instance", _reference_perturb_instance)
            patch.setattr(experiment, "verify_theorem1", _reference_verify_theorem1)
            reference, reference_summary = run_experiment(config)
        assert any(r.pass6 is not None for r in records)
        assert _timeless(records) == _timeless(reference)
        assert summary == reference_summary


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_code_tier_matches_per_column_reference(family):
    mat, codes, cert = _trial_instance(0)
    eps_target = min(workloads.TRIAL_CONFIG["noise_grid"])
    candidate, codes_bar = perturb_instance(
        mat, codes, family, eps_target, np.random.default_rng(3))
    ref_candidate, ref_codes_bar = _reference_perturb_instance(
        mat, codes, family, eps_target, np.random.default_rng(3))
    assert np.array_equal(candidate, ref_candidate)
    assert np.array_equal(codes_bar.codes, ref_codes_bar.codes)
    assert codes_bar.supports == ref_codes_bar.supports
    eps = float(np.max(np.linalg.norm(
        mat @ codes.codes - candidate @ codes_bar.codes, axis=0)))
    report = verify_theorem1(mat, codes, candidate, codes_bar, cert, eps)
    assert report.code_tier_active
    errors, bounds = _reference_code_tier(codes, codes_bar, report, cert)
    assert np.array_equal(report.code_errors, errors)
    assert np.array_equal(report.code_bounds, bounds)


def test_jitter_draw_is_the_per_column_stream():
    # supports of every size from 0 to k, in no particular order
    x = np.zeros((4, 5))
    supports = ((2, 4), (), (1,), (1, 3), (3,))
    codes = SparseCodeSet(4, x, supports, 2)
    rng, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
    _, codes_bar = perturb_instance(np.eye(4), codes, "code_jitter", 1.0, rng)
    delta = _reference_jitter_delta(codes, reference_rng)
    worst = float(np.max(np.linalg.norm(delta, axis=0)))
    assert np.array_equal(codes_bar.codes, delta * (1.0 / worst))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


# -- SparseCodeSet validation ------------------------------------------------

def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return ValueError, str(exc)


def _both(m, x, supports, k):
    new = _outcome(lambda: SparseCodeSet(m, x, supports, k).supports)
    return new, _outcome(lambda: _reference_validate(m, x, supports, k))


@pytest.mark.parametrize("supports, k, message", [
    (((1, 2, 3), (1,)), 2, "support of column 0 larger than k=2"),
    (((1,), (2, 3)), 1, "support of column 1 larger than k=1"),
    (((0, 1), (2,)), 2, "vertex 0 outside [1, 3]"),
    (((1,), (4,)), 2, "vertex 4 outside [1, 3]"),
    (((1,),), 2, "one support set per code column required"),
    (((1,), (2,), (3,)), 2, "one support set per code column required"),
])
def test_code_set_rejects_bad_supports(supports, k, message):
    x = np.zeros((3, 2))
    with pytest.raises(ValueError) as exc:
        SparseCodeSet(3, x, supports, k)
    assert str(exc.value) == message
    assert _both(3, x, supports, k) == ((ValueError, message),) * 2


def test_code_set_rejects_entries_outside_support():
    x = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="^column 1 has entries outside its support$"):
        SparseCodeSet(3, x, ((1,), (1, 2)), 2)


def test_code_set_reports_first_failing_column():
    # column 0 is oversize, column 1 has an entry outside its support
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 5.0]])
    first_size = _both(3, x, ((1, 2, 3), (1,)), 2)
    assert first_size == ((ValueError, "support of column 0 larger than k=2"),) * 2
    # and the other way round
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    first_outside = _both(3, x, ((1,), (1, 2, 3)), 2)
    assert first_outside == ((ValueError, "column 0 has entries outside its support"),) * 2
    # one column failing both: the size check comes first
    x = np.array([[1.0], [0.0], [0.0]])
    both = _both(3, x, ((2, 3),), 1)
    assert both == ((ValueError, "support of column 0 larger than k=1"),) * 2


def test_code_set_normalises_any_support_container():
    x = np.array([[1.0, 0.0, 0.0, 2.0],
                  [0.0, 3.0, 0.0, 0.0],
                  [4.0, 0.0, 5.0, 0.0]])
    supports = ([3, 1], {2}, np.array([3], dtype=np.int64), (np.int32(1), 1, 1))
    codes = SparseCodeSet(3, x, supports, 2)
    assert codes.supports == ((1, 3), (2,), (3,), (1,))
    assert all(type(v) is int for s in codes.supports for v in s)
    assert codes.supports == _reference_validate(3, x, supports, 2)
    assert codes.support_mask.tolist() == [[True, False, False, True],
                                           [False, True, False, False],
                                           [True, False, True, False]]


def test_code_set_normalises_each_support_object_once(monkeypatch):
    calls = []

    def counting(indices, m):
        calls.append(indices)
        return normalize_support(indices, m)

    monkeypatch.setattr(codes_module, "normalize_support", counting)
    shared, other = (1, 2), [2, 3]
    codes = SparseCodeSet(3, np.zeros((3, 5)), (shared, other, shared, other, shared), 2)
    assert len(calls) == 2
    assert codes.supports == ((1, 2), (2, 3)) * 2 + ((1, 2),)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_code_set_validation_matches_reference(data):
    m = data.draw(st.integers(1, 5))
    count = data.draw(st.integers(0, 5))
    k = data.draw(st.integers(0, 3))
    vertex = st.integers(0, m + 1) if data.draw(st.booleans()) else st.integers(1, m)
    support = st.lists(vertex, max_size=4)
    raw = data.draw(st.lists(support, min_size=max(count - 1, 0), max_size=count + 1))
    kinds = (tuple, list, set, lambda s: np.array(s, dtype=np.int64))
    supports = tuple(kinds[data.draw(st.integers(0, 3))](s) for s in raw)
    entries = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0]),
                                 min_size=m * count, max_size=m * count))
    x = np.array(entries).reshape(m, count)
    new, reference = _both(m, x, supports, k)
    assert new == reference
    if new[:1] != (ValueError,):
        mask = SparseCodeSet(m, x, supports, k).support_mask
        expected = np.zeros((m, count), dtype=bool)
        for col, s in enumerate(reference):
            expected[[v - 1 for v in s], col] = True
        assert np.array_equal(mask, expected)
