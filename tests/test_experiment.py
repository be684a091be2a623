"""Perturbation families and the sweep runner.

A trial's noise sweep runs as one stacked pass: the levels' draws in stream
order, one residual stack, one verification of all levels. The
``_reference_*`` helpers are the per-level loop it replaced, with the
per-column code-set checks, draws and code errors before that; records,
summaries, generator states, code errors, code bounds and supports must
match them bit for bit.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecert import (
    CapExceededError,
    SparseCodeSet,
    TheoremReport,
    align_dictionaries,
    build_complete,
    build_cyclic,
    generate_instance,
    sample_size_cor1,
    verify_theorem1,
)
from sparsecert import codes as codes_module
from sparsecert import alignment, constants, experiment, geometry
from sparsecert import hypergraph as hypergraph_module
from sparsecert.constants import build_certificate
from sparsecert.errors import HypothesisError, ThresholdError
from sparsecert.experiment import (
    PERTURBATION_FAMILIES,
    perturb_instance,
    run_experiment,
    summarize,
)
from sparsecert.hypergraph import hypergraph_from_config, normalize_support

from oracles import PLANTED, planted_candidates, workloads


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


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
@pytest.mark.parametrize("eps_target", [math.nan, math.inf, -1.0, True, "x"])
def test_perturb_refuses_bad_targets_before_any_draw(instance, family, eps_target):
    # NaN and inf used to give a non-finite candidate dictionary, or a
    # misleading "codes have non-finite entries" from code_jitter
    _, mat, codes, _ = instance
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="eps_target must be"):
        perturb_instance(mat, codes, family, eps_target, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
@pytest.mark.parametrize("bad, message", [
    ("nan", "dictionary has non-finite entries"),
    ("narrow", "dictionary columns and code rows differ"),
], ids=["nan", "narrow"])
def test_perturb_refuses_bad_dictionaries_before_any_draw(instance, family, bad, message):
    # a NaN entry used to give a non-finite candidate, or code_jitter's
    # "codes have non-finite entries"; 3 columns against 4 code rows an
    # IndexError or numpy's matmul message
    _, mat, codes, _ = instance
    mat = mat.copy()
    if bad == "nan":
        mat[1, 2] = math.nan
    else:
        mat = mat[:, :3]
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        perturb_instance(mat, codes, family, 1e-6, rng)
    assert rng.bit_generator.state == state


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


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_verifier_and_records_read_one_slack(monkeypatch, family):
    # at a slack of -1 no achieved error of these sweeps is within its
    # bound, so every inequality fails wherever it is decided
    sweeps = []
    sweep = alignment._verify_sweep

    def recorded(*args, **kwargs):
        found = sweep(*args, **kwargs)
        sweeps.append(found)
        return found

    monkeypatch.setattr(alignment, "_verify_sweep", recorded)
    monkeypatch.setattr(alignment, "BOUND_SLACK", -1.0)
    records, _ = run_experiment(dict(workloads.TRIAL_CONFIG, seed=0, family=family))
    eq5 = [ok for found in sweeps for ok in found.eq5.tolist()]
    assert len(records) == len(eq5) > 0
    assert eq5 == [r.pass5 for r in records] == [False] * len(records)
    eq6 = [ok for found in sweeps
           for ok, active in zip(found.eq6.tolist(), found.code_tier.tolist()) if active]
    assert eq6 and not any(eq6)
    assert [r.pass6 for r in records if r.pass6 is not None] == [False] * len(eq6)


@pytest.mark.parametrize("call, message", [
    (lambda: generate_instance(5, 5, 2, build_cyclic(4, 2), 7),
     "hypergraph does not match the requested (m, k)"),
    (lambda: perturb_instance(*generate_instance(4, 4, 2, build_cyclic(4, 2), 7, seed=0),
                              "shuffle", 0.1, np.random.default_rng(0)),
     "unknown perturbation family 'shuffle'"),
], ids=["generate_other_m", "unknown_family"])
def test_experiment_refuses_mismatched_requests(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == message


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


def test_run_experiment_refuses_nan_grid_and_skips_inf(monkeypatch):
    cfg = dict(m=4, n=4, k=2, hypergraph="cyclic", per_support_count=7,
               noise_grid=[1e-4], trials=1, family="dict_jitter", seed=0)
    records, _ = run_experiment(cfg)
    # inf is at or above any certified threshold, so it is skipped
    with_inf, _ = run_experiment(dict(cfg, noise_grid=[1e-4, float("inf")]))
    assert ([dataclasses.replace(r, ms=0.0) for r in with_inf]
            == [dataclasses.replace(r, ms=0.0) for r in records])

    def no_instances(*args, **kwargs):
        raise AssertionError("an instance was generated")

    # a NaN used to pass the check and fail later on a non-finite candidate
    monkeypatch.setattr(experiment, "_certified_instance", no_instances)
    with pytest.raises(ValueError, match="noise grid values must be positive"):
        run_experiment(dict(cfg, noise_grid=[1e-4, float("nan")]))


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


# -- the per-level loop the sweep replaced, per-column where that was -------

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


def _reference_code_error(x, xbar, alignment, subset=None):
    """verify_theorem1's code error on one code, one matched column at a time."""
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
        errors[i] = _reference_code_error(
            codes.codes[:, i], codes_bar.codes[:, i], report.alignment,
            report.matched_subset)
        bounds[i] = (1.0 + c1 * l1[i]) * eps / denominator
    return errors, bounds


def _reference_verify_theorem1(dictionary, codes, candidate, codes_bar,
                               certificate, eps, tol=1e-9):
    """verify_theorem1 one level at a time, its code tier one code at a time
    and its aligned 2k-bound from ``lower_bound_k``."""
    a_mat = geometry.as_matrix(dictionary, "dictionary")
    b_mat = geometry.as_matrix(candidate, "candidate")
    if codes.n_codes != codes_bar.n_codes:
        raise ValueError("code sets have different sample counts")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    if certificate.C1 is None or certificate.eps_max_dictionary is None:
        raise HypothesisError("certificate carries no stability constant")
    if certificate.r is None:
        raise HypothesisError("certificate lacks a regularity degree")
    residuals = np.linalg.norm(a_mat @ codes.codes - b_mat @ codes_bar.codes, axis=0)
    worst = float(np.max(residuals))
    if worst > eps * (1.0 + 1e-12) + 1e-300:
        raise HypothesisError(f"sample residual {worst:.6g} exceeds the stated eps {eps:.6g}")
    if eps >= certificate.eps_max_dictionary:
        raise ThresholdError(f"eps {eps:.6g} is not below the certified threshold "
                             f"{certificate.eps_max_dictionary:.6g}")
    c1, r = certificate.C1, certificate.r
    m, m_bar = a_mat.shape[1], b_mat.shape[1]
    alignment = align_dictionaries(a_mat, b_mat)
    bound5 = c1 * eps
    guaranteed = None
    if (r - 1) * m_bar < m * r:
        guaranteed = m_bar - r * (m_bar - m)
    if guaranteed is not None and guaranteed > 0:
        ranked = sorted(alignment.pi, key=lambda j: alignment.column_errors[j])
        if len(ranked) >= guaranteed:
            subset = tuple(sorted(ranked[:guaranteed]))
            max_err = max(alignment.column_errors[j] for j in subset)
            eq5_ok = max_err <= bound5 + tol
        else:
            subset = tuple(sorted(ranked))
            max_err, eq5_ok = alignment.max_column_error, False
    else:
        subset, max_err, eq5_ok = alignment.matched_source, alignment.max_column_error, None
    report = TheoremReport(
        eps=eps, residuals=residuals, alignment=alignment, m=m, m_bar=m_bar, r=r,
        m_bar_ok=m_bar >= m, guaranteed_columns=guaranteed, matched_subset=subset,
        max_column_error=max_err, bound5=bound5, eq5_ok=eq5_ok,
        code_tier_active=bool(certificate.spark_ok
                              and certificate.eps_max_codes is not None
                              and eps < certificate.eps_max_codes))
    if not report.code_tier_active:
        return report
    errors, bounds = _reference_code_tier(codes, codes_bar, report, certificate)
    aligned = np.column_stack(
        [alignment.scales[j] * b_mat[:, alignment.pi[j] - 1] for j in subset])
    l2k_aligned = geometry.lower_bound_k(aligned, min(2 * certificate.k, aligned.shape[1]))
    denominator = certificate.L2k - c1 * eps
    report.code_errors, report.code_bounds = errors, bounds
    report.eq6_ok = bool(np.all(errors <= bounds + tol))
    report.l2k_aligned, report.l2k_floor = l2k_aligned, denominator
    report.l2k_ok = l2k_aligned >= denominator - tol
    return report


def _reference_step(eps_target, worst, family):
    if worst == 0.0:
        if family == "code_jitter":
            raise ValueError("code_jitter: no in-support perturbation moves a sample")
        raise ValueError(f"{family}: no sample carries signal, so no "
                         "dictionary perturbation moves a sample")
    return eps_target / worst


def _reference_perturb_instance(dictionary, codes, family, eps_target, rng):
    """perturb_instance one level at a time, with the per-column code-jitter
    draw and remap and a fully validated code set at every level."""
    mat = np.asarray(dictionary, dtype=float)
    m = mat.shape[1]
    if family == "dict_jitter":
        noise = rng.standard_normal(mat.shape)
        worst = float(np.max(np.linalg.norm(noise @ codes.codes, axis=0)))
        return mat + noise * _reference_step(eps_target, worst, family), codes
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
        return base + noise * _reference_step(eps_target, worst, family), codes_bar
    delta = _reference_jitter_delta(codes, rng)
    worst = float(np.max(np.linalg.norm(mat @ delta, axis=0)))
    jittered = codes.codes + delta * _reference_step(eps_target, worst, family)
    assert (_reference_validate(codes.m, jittered, codes.supports, codes.k)
            == codes.supports)
    return mat, SparseCodeSet(codes.m, jittered, codes.supports, codes.k)


def _reference_run_experiment(config):
    """run_experiment one noise level at a time: perturb, measure the
    realized residual, skip it at or above the threshold, verify."""
    m, n, k = config["m"], config["n"], config["k"]
    family = config.get("family", "dict_jitter")
    grid = [float(v) for v in config["noise_grid"]]
    base_seed = config.get("seed", 0)
    hypergraph = hypergraph_from_config(config.get("hypergraph", "cyclic"), m, k)
    records = []
    for trial in range(config["trials"]):
        seed = base_seed + trial
        mat, codes = generate_instance(m, n, k, hypergraph, config["per_support_count"],
                                       seed=seed)
        cert = build_certificate(mat, codes, hypergraph)
        rng = np.random.default_rng([base_seed, trial, 0xC0DE])
        for eps_target in grid:
            if cert.eps_max_dictionary is None or eps_target >= cert.eps_max_dictionary:
                continue
            candidate, codes_bar = _reference_perturb_instance(mat, codes, family,
                                                               eps_target, rng)
            eps = float(np.max(np.linalg.norm(
                mat @ codes.codes - candidate @ codes_bar.codes, axis=0)))
            if eps >= cert.eps_max_dictionary:
                continue
            report = _reference_verify_theorem1(mat, codes, candidate, codes_bar, cert, eps)
            if report.code_tier_active:
                max_code_err = float(np.max(report.code_errors))
                bound6 = float(np.max(report.code_bounds))
                pass6 = report.eq6_ok
            else:
                max_code_err = bound6 = pass6 = None
            records.append(experiment.ExperimentRecord(
                seed=seed, eps=eps, max_col_err=report.max_column_error,
                bound5=report.bound5, max_code_err=max_code_err, bound6=bound6,
                pass5=bool(report.eq5_ok), pass6=pass6, ms=0.0))
    records.sort(key=lambda r: (r.seed, r.eps))
    return records, summarize(records)


def _timeless(records):
    return [dataclasses.replace(r, ms=0.0) for r in records]


def _trial_instance(seed):
    config = workloads.TRIAL_CONFIG
    m, n, k = config["m"], config["n"], config["k"]
    h = hypergraph_from_config(config["hypergraph"], m, k)
    mat, codes = generate_instance(m, n, k, h, config["per_support_count"], seed=seed)
    return mat, codes, build_certificate(mat, codes, h)


def _with_streams(monkeypatch, run, config):
    """``run(config)`` and the final state of every generator it made."""
    made = []
    default_rng = np.random.default_rng

    def recording(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        records, summary = run(config)
    return _timeless(records), summary, [g.bit_generator.state for g in made]


def _assert_matches_reference(monkeypatch, config):
    """The sweep's records (``ms`` aside), summary and final generator
    states equal the per-level reference's; returns the records."""
    swept = _with_streams(monkeypatch, run_experiment, config)
    assert swept == _with_streams(monkeypatch, _reference_run_experiment, config)
    return swept[0]


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_records_match_per_column_reference(monkeypatch, family):
    for seed in (0, 1606, 7, *range(200, 220)):
        config = dict(workloads.TRIAL_CONFIG, trials=1, seed=seed, family=family)
        records = _assert_matches_reference(monkeypatch, config)
        assert any(r.pass6 is not None for r in records)
    # several trials in one call, on another design
    config = dict(m=4, n=4, k=2, hypergraph="cyclic", per_support_count=7,
                  noise_grid=[1e-4, 1e-2, 1e-6, 1e-1], trials=4, seed=3, family=family)
    assert _assert_matches_reference(monkeypatch, config)


@pytest.mark.parametrize("family, seed", [("dict_jitter", 24), ("scaled_permuted", 17),
                                          ("code_jitter", 30)])
def test_level_realized_at_threshold_is_dropped(monkeypatch, family, seed):
    # targets just below the threshold realize residuals on both sides of it
    # at these seeds (5, 6 and 6 of the 8 near targets kept)
    threshold = _trial_instance(seed)[2].eps_max_dictionary
    near = [threshold * (1 - 1e-10 * i) for i in range(1, 9)]
    config = dict(workloads.TRIAL_CONFIG, trials=1, seed=seed, family=family,
                  noise_grid=near + [1e-12])
    records = _assert_matches_reference(monkeypatch, config)
    assert 1 < len(records) < len(near) + 1
    assert all(r.eps < threshold for r in records)
    # the level after the dropped ones keeps its own stream
    assert records[0].eps == pytest.approx(1e-12, rel=1e-6)


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_sweep_without_levels_below_threshold(monkeypatch, family):
    config = dict(workloads.TRIAL_CONFIG, trials=2, seed=0, family=family,
                  noise_grid=[1.0, float("inf")])
    records, summary, states = _with_streams(monkeypatch, run_experiment, config)
    assert records == [] and summary["records"] == 0
    assert (records, summary, states) == _with_streams(
        monkeypatch, _reference_run_experiment, config)


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_code_tier_matches_per_column_reference(family):
    # every report field, the aligned 2k-bound included, at one level far
    # below the code threshold and one just below it
    for seed in (0, 1606, 7):
        mat, codes, cert = _trial_instance(seed)
        for eps_target in (min(workloads.TRIAL_CONFIG["noise_grid"]),
                           cert.eps_max_codes * (1 - 1e-6)):
            candidate, codes_bar = perturb_instance(
                mat, codes, family, eps_target, np.random.default_rng(3))
            ref_candidate, ref_codes_bar = _reference_perturb_instance(
                mat, codes, family, eps_target, np.random.default_rng(3))
            assert np.array_equal(candidate, ref_candidate)
            assert np.array_equal(codes_bar.codes, ref_codes_bar.codes)
            assert codes_bar.supports == ref_codes_bar.supports
            eps = float(np.max(np.linalg.norm(
                mat @ codes.codes - candidate @ codes_bar.codes, axis=0)))
            new, reference = _verify_outcomes(mat, codes, candidate, codes_bar,
                                              cert, eps)
            assert new == reference
            assert new["code_tier_active"] and new["l2k_aligned"] is not None


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_pass6_is_the_per_sample_eq6(monkeypatch, family):
    # at a slack equal to the first code-tier record's margin between its
    # worst code error and its largest bound, that worst error is within
    # the largest bound, yet some sample breaks its own, smaller bound
    config = dict(workloads.TRIAL_CONFIG, seed=0, family=family)
    records, _ = run_experiment(config)
    first = next(r for r in records if r.pass6 is not None)
    monkeypatch.setattr(alignment, "BOUND_SLACK", first.max_code_err - first.bound6)
    again, _ = run_experiment(config)
    same = next(r for r in again if r.eps == first.eps)
    assert same.max_code_err <= same.bound6 + alignment.BOUND_SLACK
    assert same.pass6 is False


@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_sweep_makes_no_svd(monkeypatch, family):
    # the aligned 2k-bound is verify_theorem1's alone; a trial's sweep reads
    # no singular value
    inside, svds = [], []
    sweep, svd = alignment._verify_sweep, np.linalg.svd

    def counted_sweep(*args, **kwargs):
        inside.append(True)
        try:
            return sweep(*args, **kwargs)
        finally:
            inside.pop()

    def counted_svd(*args, **kwargs):
        if inside:
            svds.append(True)
        return svd(*args, **kwargs)

    monkeypatch.setattr(alignment, "_verify_sweep", counted_sweep)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    records, _ = run_experiment(dict(workloads.TRIAL_CONFIG, seed=0, family=family))
    assert any(r.pass6 is not None for r in records)
    assert svds == []


@pytest.mark.parametrize("seed", [0, 1606])
@pytest.mark.parametrize("family", PERTURBATION_FAMILIES)
def test_trial_sweeps_read_every_matching_off_the_costs(monkeypatch, family, seed):
    # every level of a benchmark trial has one cheapest target per source
    # below the threshold, so no level runs Kuhn's search; the augmenting
    # paths alone would not show a return to per-level search, since that
    # search reaches these matchings by direct joins
    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")
        return call

    monkeypatch.setattr(alignment, "_match", refused("_match"))
    monkeypatch.setattr(alignment, "_augment", refused("_augment"))
    records, _ = run_experiment(dict(workloads.TRIAL_CONFIG, seed=seed, family=family))
    assert records and calls == []


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


# -- verify_theorem1, the batch of one of the sweep verifier -----------------

def _report_fields(report):
    """A report as comparable values: arrays as bytes, the alignment as a dict."""
    fields = dict(vars(report))
    fields["alignment"] = vars(report.alignment)
    for key in ("residuals", "code_errors", "code_bounds"):
        if fields[key] is not None:
            fields[key] = fields[key].tobytes()
    return fields


def _verify_outcomes(*args):
    """verify_theorem1 and the per-level reference on the same arguments:
    each report's fields, or the type and message of what it raised."""
    def outcome(verify):
        try:
            return _report_fields(verify(*args))
        except (ValueError, HypothesisError, ThresholdError) as exc:
            return type(exc), str(exc)

    return outcome(verify_theorem1), outcome(_reference_verify_theorem1)


def _dense_codes(m, x):
    """A code set whose every column is supported on its nonzero rows."""
    return SparseCodeSet(m, x, tuple(tuple(np.flatnonzero(col) + 1) for col in x.T), m)


def _sweep_case(rng):
    """A random sweep and the arguments of each of its levels alone: a
    dictionary, integer codes, candidates of every planted kind (m_bar at,
    above or below m), their codes (mapped through the orbit where there is
    one), one candidate or one code matrix for all levels at times, a
    certificate, and residual levels of which a few fail a check."""
    m, n, count = int(rng.integers(1, 5)), int(rng.integers(2, 6)), 4
    m_bar = int(rng.choice([1, max(m - 1, 1), m, m + 1]))
    a_mat = rng.standard_normal((n, m))
    if m > 1 and rng.random() < 0.2:
        a_mat[:, -1] = a_mat[:, 0]
    x = rng.integers(-2, 3, (m, count)).astype(float)
    kinds = rng.choice(PLANTED, int(rng.integers(1, 6)))
    candidates, sources, diags = planted_candidates(rng, a_mat, m_bar, kinds)
    xbars = rng.integers(-2, 3, (len(kinds), m_bar, count)).astype(float)
    mapped = sources >= 0
    xbars[mapped] = x[sources[mapped]] / diags[mapped][:, None]
    layout = rng.integers(3)
    if layout == 1:
        candidates = candidates[:1]
    elif layout == 2:
        xbars = xbars[:1]
    level_args = []
    worsts = []
    for level in range(len(kinds)):
        candidate = candidates[min(level, len(candidates) - 1)]
        xbar = xbars[min(level, len(xbars) - 1)]
        worsts.append(float(np.max(np.linalg.norm(a_mat @ x - candidate @ xbar, axis=0))))
        level_args.append((candidate, _dense_codes(m_bar, xbar)))
    threshold = 2 * max(worsts) + 1.0
    c1 = 10.0 ** rng.uniform(-1, 3)
    certificate = SimpleNamespace(
        C1=c1, eps_max_dictionary=threshold, r=int(rng.integers(1, 4)), spark_ok=True,
        eps_max_codes=None if rng.random() < 0.2 else threshold * rng.random(),
        L2k=c1 * threshold * rng.uniform(0.5, 2.0), k=1)
    eps = []
    for worst in worsts:
        fate = rng.random()
        if fate < 0.05:
            eps.append(math.nan)
        elif fate < 0.1 and worst > 0:
            eps.append(worst / 2)
        elif fate < 0.15:
            eps.append(threshold * 1.5)
        else:
            eps.append(worst * float(rng.choice([1.0, 1.5])))
    return (a_mat, _dense_codes(m, x), candidates, xbars, certificate, eps), level_args


@pytest.mark.parametrize("seed", range(3))
def test_sweep_equals_verify_theorem1_level_by_level(seed):
    # the sweep raises what the first failing level raises alone, and up to
    # that level its reports are verify_theorem1's and the per-level
    # reference's (Kuhn's search, eq. (5) in Python, the code tier code by
    # code), the aligned 2k-bound aside
    rng = np.random.default_rng(seed)
    raised, compared, code_tier = set(), 0, 0
    for _ in range(100):
        (a_mat, codes, candidates, xbars, cert, eps), level_args = _sweep_case(rng)
        outcomes = []
        for (candidate, codes_bar), level_eps in zip(level_args, eps):
            new, reference = _verify_outcomes(a_mat, codes, candidate, codes_bar, cert,
                                              level_eps)
            assert new == reference
            outcomes.append(reference)
        stop = next((i for i, o in enumerate(outcomes) if isinstance(o, tuple)), len(eps))
        if stop < len(eps):
            with pytest.raises((ValueError, HypothesisError, ThresholdError)) as exc:
                alignment._verify_sweep(a_mat, codes, candidates, xbars, cert, eps)
            assert (type(exc.value), str(exc.value)) == outcomes[stop]
            raised.add(outcomes[stop][1].split()[0])
        if stop == 0:
            continue
        sweep = alignment._verify_sweep(a_mat, codes, experiment._kept(candidates, slice(stop)),
                                        experiment._kept(xbars, slice(stop)), cert, eps[:stop])
        for level in range(stop):
            report = alignment._report(sweep, level, eps[level], cert, a_mat.shape[1],
                                       candidates.shape[2])
            expected = dict(outcomes[level], l2k_aligned=None, l2k_floor=None, l2k_ok=None)
            assert _report_fields(report) == expected
            compared += 1
            code_tier += report.code_tier_active
    assert compared > 150 and code_tier > 50
    assert {"candidate", "eps", "sample"} <= raised


def test_sweep_raise_order_across_levels():
    # a later level's check before the matching waits behind an earlier
    # level's failing matching, and a zero scale behind nothing later
    a_mat = np.eye(2)
    codes = SparseCodeSet(2, np.zeros((2, 3)), ((1,), (2,), (1, 2)), 2)
    cert = SimpleNamespace(C1=1.0, eps_max_dictionary=1.0, r=1, spark_ok=True,
                           eps_max_codes=1.0, L2k=1.0, k=1)
    good, zero_scale, empty = np.eye(2), np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros((2, 2))
    cases = [
        ([good, empty, good], [0.5, 0.5, 2.0], "candidate dictionary has no nonzero columns"),
        ([good, zero_scale, empty], [0.5, 0.5, 0.5], "matched column 1 has zero scale"),
        ([good, good, zero_scale], [0.5, 1.5, 0.5], "eps 1.5 is not below"),
    ]
    for levels, eps, message in cases:
        with pytest.raises((ValueError, ThresholdError)) as exc:
            alignment._verify_sweep(a_mat, codes, np.stack(levels), codes.codes[None],
                                    cert, eps)
        assert str(exc.value).startswith(message)


def test_oversized_candidates_match_reference(instance):
    _, mat, codes, cert = instance
    rng = np.random.default_rng(4)
    for extra in (1, 2):
        perm = rng.permutation(4 + extra)
        junk = rng.standard_normal((4, extra))
        candidate = np.hstack([mat, junk])[:, perm]
        xbar = np.vstack([codes.codes, np.zeros((extra, codes.n_codes))])[perm]
        inverse = np.argsort(perm)
        supports = tuple(tuple(sorted(int(inverse[v - 1]) + 1 for v in s))
                         for s in codes.supports)
        codes_bar = SparseCodeSet(4 + extra, xbar, supports, codes.k)
        for eps in (1e-12, cert.eps_max_dictionary / 2):
            for layout in (candidate, np.asfortranarray(candidate)):
                new, reference = _verify_outcomes(mat, codes, layout, codes_bar, cert, eps)
                assert new == reference
                assert new["m_bar"] == 4 + extra


def test_zero_scale_through_verify_theorem1():
    # both candidate columns are e2, so source e1 must take a target at
    # scale 0.0, and the code tier cannot invert it
    codes = SparseCodeSet(2, np.zeros((2, 3)), ((1,), (2,), (1, 2)), 2)
    cert = SimpleNamespace(C1=1.0, eps_max_dictionary=1.0, r=1, spark_ok=True,
                           eps_max_codes=1.0, L2k=1.0, k=1)
    candidate = np.array([[0.0, 0.0], [1.0, 1.0]])
    new, reference = _verify_outcomes(np.eye(2), codes, candidate, codes, cert, 0.5)
    assert new == reference == (ValueError, "matched column 1 has zero scale")
    # outside the code tier the same alignment verifies
    cert.eps_max_codes = 0.25
    new, reference = _verify_outcomes(np.eye(2), codes, candidate, codes, cert, 0.5)
    assert new == reference
    assert new["alignment"]["scales"] == {1: 0.0, 2: 1.0}


def test_verify_theorem1_error_order(instance):
    _, mat, codes, cert = instance
    candidate = mat + 1e-3
    residual = float(np.max(np.linalg.norm(
        mat @ codes.codes - candidate @ codes.codes, axis=0)))
    no_c1 = SimpleNamespace(**dict(vars(cert), C1=None))
    no_r = SimpleNamespace(**dict(vars(cert), r=None))
    low = SimpleNamespace(**dict(vars(cert), eps_max_dictionary=residual / 2))
    bad_candidate = candidate.copy()
    bad_candidate[0, 0] = np.nan
    cases = [
        # (candidate, certificate, eps, expected type, message start)
        (bad_candidate, no_c1, math.nan, ValueError, "candidate has non-finite"),
        (candidate, no_c1, math.nan, ValueError, "eps must be finite"),
        (candidate, no_c1, math.inf, ValueError, "eps must be finite"),
        (candidate, no_c1, residual / 4, HypothesisError, "certificate carries no"),
        (candidate, no_r, residual / 4, HypothesisError, "certificate lacks"),
        (candidate, low, residual / 4, HypothesisError, "sample residual"),
        (candidate, low, residual, ThresholdError, "eps "),
    ]
    for cand, certificate, eps, kind, start in cases:
        new, reference = _verify_outcomes(mat, codes, cand, codes, certificate, eps)
        assert new == reference
        assert new[0] is kind and new[1].startswith(start), (new, start)


@pytest.mark.parametrize("value", [True, False, np.True_, "1e-10", None, [1e-4], 10 ** 400])
def test_run_experiment_refuses_non_real_grid_values(monkeypatch, value):
    def no_instances(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(experiment, "_certified_instance", no_instances)
    cfg = dict(m=4, n=4, k=2, hypergraph="cyclic", per_support_count=7,
               noise_grid=[1e-4, value], trials=1, family="dict_jitter", seed=0)
    with pytest.raises(ValueError, match="^noise grid value must be a real number"):
        run_experiment(cfg)


def test_run_experiment_accepts_python_and_numpy_reals():
    cfg = dict(m=4, n=4, k=2, hypergraph="cyclic", per_support_count=7,
               noise_grid=[1e-4], trials=1, family="dict_jitter", seed=0)
    records, _ = run_experiment(cfg)
    # 1 and np.int64(1) are far above the threshold and skipped
    for grid in ([np.float64(1e-4), 1], [1e-4, np.int64(1)], [1e-4, np.float32(1.0)]):
        assert _timeless(run_experiment(dict(cfg, noise_grid=grid))[0]) == _timeless(records)
    assert hypergraph_module.as_real(np.float32(0.5), "x") == 0.5
    assert type(hypergraph_module.as_real(np.int8(3), "x")) is float


def _counted_checks(monkeypatch):
    """Counts of the certificates and k-subset screens made from now on,
    every module name a check is called by wrapped."""
    counts = {"certificates": 0, "screens": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(experiment, "build_certificate",
                        counting("certificates", experiment.build_certificate))
    screen = counting("screens", codes_module._code_checks)
    monkeypatch.setattr(codes_module, "_code_checks", screen)
    monkeypatch.setattr(constants, "_code_checks", screen)
    return counts


# stream 0, operation 18,310 of the trial workload: its first draw fails GLP
REJECTED_FIRST_DRAW = 0 * 100_000 + 18_310


@pytest.mark.parametrize("seed, draws", [(0, 1), (1606 * 100_000, 1),
                                         (REJECTED_FIRST_DRAW, 2)])
def test_trial_certifies_each_draw_once(monkeypatch, seed, draws):
    counts = _counted_checks(monkeypatch)
    records, _ = run_experiment(dict(workloads.TRIAL_CONFIG, seed=seed))
    assert records
    assert counts == {"certificates": draws, "screens": draws}


def test_generation_refuses_a_draw_above_the_c2_group_cap(monkeypatch):
    # complete m=7, k=2 has C(21, 7) = 116,280 groups of r + 1 = 7 edges; the
    # draw's certificate refuses it, as certify would
    counts = _counted_checks(monkeypatch)
    with pytest.raises(CapExceededError, match="edge groups exceed cap"):
        generate_instance(7, 7, 2, build_complete(7, 2), 2, seed=0)
    assert counts["certificates"] == 1


@pytest.mark.parametrize("seed", [0, 1606])
@pytest.mark.parametrize("kind, m, k", [("cyclic", 10, 2), ("cyclic", 6, 3),
                                        ("cyclic", 8, 3), ("grid", 9, 3)])
def test_generation_certifies_at_the_corollary_1_count(kind, m, k, seed):
    # Gaussian codes at (k - 1) C(m, k) + 1 per support; per-edge power-node
    # codes, exponentially ill-conditioned at these counts, failed every draw
    h = hypergraph_from_config(kind, m, k)
    count = sample_size_cor1(m, k, h) // len(h.edges)
    _, codes, cert = experiment._certified_instance(m, m, k, h, count, seed)
    assert codes.n_codes == count * len(h.edges)
    assert cert.hypotheses_ok


@pytest.mark.parametrize("stream", [0, 1606])
def test_trial_workload_accepts_its_first_draws(monkeypatch, stream):
    # the benchmark's trial check reads the first certificate of each
    # operation as the trial's own, which holds while its first draw passes
    families = PERTURBATION_FAMILIES
    counts = _counted_checks(monkeypatch)
    for i in range(100):
        counts["certificates"] = 0
        experiment.run_experiment(dict(workloads.TRIAL_CONFIG, seed=stream * 100_000 + i,
                                       family=families[i % len(families)]))
        assert counts["certificates"] == 1, i
