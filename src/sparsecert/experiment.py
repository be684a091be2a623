"""Noise-sweep harness: perturb generated instances and check the recovery bounds.

Each trial generates a verified instance, builds a candidate pair (B, xbar)
from a perturbation family, measures the realized worst per-sample residual,
and runs the theorem verification at exactly that residual level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .alignment import verify_theorem1
from .codes import SparseCodeSet, generate_instance
from .constants import build_certificate
from .hypergraph import as_integer, build_complete, build_cyclic, build_grid

PERTURBATION_FAMILIES = ("dict_jitter", "scaled_permuted", "code_jitter")

# Desk-scale guardrails for experiment configurations.
MAX_M = 10
MAX_N = 64
MAX_TRIALS = 10_000


@dataclass
class ExperimentRecord:
    """One (seed, eps) verification outcome.

    The code-tier fields are None when eps was not below the code threshold;
    pass flags equal achieved <= bound + 1e-9 for their inequality.
    """

    seed: int
    eps: float
    max_col_err: float
    bound5: float
    max_code_err: float | None
    bound6: float | None
    pass5: bool
    pass6: bool | None
    ms: float


def _config_integer(section, key, default=None, name=None):
    """An integer from a JSON config section (``hypergraph.as_integer``). A key
    without a default must be present."""
    value = section[key] if default is None else section.get(key, default)
    return as_integer(value, name or key)


def hypergraph_from_config(kind, m, k):
    if kind == "cyclic":
        return build_cyclic(m, k)
    if kind == "grid":
        return build_grid(m)
    if kind == "complete":
        return build_complete(m, k)
    raise ValueError(f"unknown hypergraph kind {kind!r}")


def perturb_instance(dictionary, codes, family, eps_target, rng):
    """Candidate (B, xbar) whose worst per-sample residual equals eps_target.

    dict_jitter adds scaled dense noise to the dictionary and keeps the
    codes; scaled_permuted first moves to a random point of the ambiguity
    orbit and then jitters the dictionary; code_jitter perturbs code
    coefficients inside their supports and keeps the dictionary.
    """
    mat = np.asarray(dictionary, dtype=float)
    n, m = mat.shape
    if eps_target < 0:
        raise ValueError("eps_target must be nonnegative")
    if eps_target == 0.0:
        if family not in PERTURBATION_FAMILIES:
            raise ValueError(f"unknown perturbation family {family!r}")
        return mat, codes
    if family == "dict_jitter":
        noise = rng.standard_normal(mat.shape)
        worst = float(np.max(np.linalg.norm(noise @ codes.codes, axis=0)))
        candidate = mat + noise * _step(eps_target, worst, family)
        return candidate, codes
    if family == "scaled_permuted":
        perm = rng.permutation(m)
        diag = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
        base = mat[:, perm] * diag
        inverse_positions = np.empty(m, dtype=int)
        inverse_positions[perm] = np.arange(m)
        xbar = codes.codes[perm, :] / diag[:, None]
        remapped = {
            s: tuple(sorted(int(inverse_positions[v - 1]) + 1 for v in s))
            for s in set(codes.supports)
        }
        supports = tuple(remapped[s] for s in codes.supports)
        codes_bar = SparseCodeSet(m, xbar, supports, codes.k)
        noise = rng.standard_normal(mat.shape)
        worst = float(np.max(np.linalg.norm(noise @ codes_bar.codes, axis=0)))
        return base + noise * _step(eps_target, worst, family), codes_bar
    if family == "code_jitter":
        # one draw, scattered column by column in support order: the same
        # stream as one standard_normal(len(support)) call per column
        cols, rows = np.nonzero(codes.support_mask.T)
        delta = np.zeros_like(codes.codes)
        delta[rows, cols] = rng.standard_normal(rows.size)
        worst = float(np.max(np.linalg.norm(mat @ delta, axis=0)))
        codes_bar = SparseCodeSet(
            codes.m, codes.codes + delta * _step(eps_target, worst, family),
            codes.supports, codes.k)
        return mat, codes_bar
    raise ValueError(f"unknown perturbation family {family!r}")


def _step(eps_target, worst, family):
    """Scale that takes the worst per-sample residual ``worst`` to eps_target."""
    if worst == 0.0:
        if family == "code_jitter":
            raise ValueError("code_jitter: no in-support perturbation moves a sample")
        raise ValueError(f"{family}: no sample carries signal, so no "
                         "dictionary perturbation moves a sample")
    return eps_target / worst


def run_experiment(config):
    """Run the configured sweep; returns (records, summary).

    Config keys: m, n, k, hypergraph (kind), per_support_count, noise_grid,
    trials, family, seed. Grid values at or above the per-instance
    dictionary threshold are skipped (no guarantee exists there).
    """
    m, n, k = (_config_integer(config, key) for key in ("m", "n", "k"))
    if m > MAX_M or n > MAX_N:
        raise ValueError(f"configuration above desk-scale caps (m<={MAX_M}, n<={MAX_N})")
    trials = _config_integer(config, "trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials above cap {MAX_TRIALS}")
    family = config.get("family", "dict_jitter")
    if family not in PERTURBATION_FAMILIES:
        raise ValueError(f"unknown perturbation family {family!r}")
    grid = [float(v) for v in config["noise_grid"]]
    if not grid:
        raise ValueError("noise grid is empty")
    # NaN is refused here; inf is skipped below, as at or above any threshold
    if any(not v > 0 for v in grid):
        raise ValueError("noise grid values must be positive")
    base_seed = _config_integer(config, "seed", 0)
    per_support = _config_integer(config, "per_support_count")
    hypergraph = hypergraph_from_config(config.get("hypergraph", "cyclic"), m, k)

    records = []
    for trial in range(trials):
        seed = base_seed + trial
        mat, codes = generate_instance(m, n, k, hypergraph, per_support, seed=seed)
        cert = build_certificate(mat, codes, hypergraph)
        rng = np.random.default_rng([base_seed, trial, 0xC0DE])
        for eps_target in grid:
            if cert.eps_max_dictionary is None or eps_target >= cert.eps_max_dictionary:
                continue
            start = time.perf_counter()
            candidate, codes_bar = perturb_instance(mat, codes, family,
                                                    eps_target, rng)
            residuals = np.linalg.norm(
                mat @ codes.codes - candidate @ codes_bar.codes, axis=0)
            eps = float(np.max(residuals))
            if eps >= cert.eps_max_dictionary:
                continue
            report = verify_theorem1(mat, codes, candidate, codes_bar, cert, eps)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if report.code_tier_active:
                # uniform code bound (worst l1-norm), so the row alone decides pass6
                max_code_err = float(np.max(report.code_errors))
                bound6 = float(np.max(report.code_bounds))
                pass6 = max_code_err <= bound6 + 1e-9
            else:
                max_code_err = bound6 = pass6 = None
            records.append(ExperimentRecord(
                seed=seed,
                eps=eps,
                max_col_err=report.max_column_error,
                bound5=report.bound5,
                max_code_err=max_code_err,
                bound6=bound6,
                pass5=bool(report.eq5_ok),
                pass6=pass6,
                ms=elapsed_ms,
            ))
    records.sort(key=lambda r: (r.seed, r.eps))
    return records, summarize(records)


def summarize(records):
    """Pass rates plus the least-squares slope of column error versus eps."""
    if not records:
        return {"records": 0, "pass5_rate": None, "pass6_rate": None,
                "error_vs_eps_slope": None}
    eps = np.array([r.eps for r in records])
    err = np.array([r.max_col_err for r in records])
    slope = float(np.sum(eps * err) / np.sum(eps * eps))
    code_records = [r for r in records if r.pass6 is not None]
    return {
        "records": len(records),
        "pass5_rate": float(np.mean([r.pass5 for r in records])),
        "pass6_rate": (float(np.mean([r.pass6 for r in code_records]))
                       if code_records else None),
        "error_vs_eps_slope": slope,
    }
