"""Instance generation and the noise-sweep harness.

An instance is a Gaussian dictionary and codes, accepted by its own
certificate, which its trial keeps. Each trial runs its noise sweep as one
stacked pass: the grid levels below the certified dictionary threshold draw
their candidate pairs (B, xbar) in grid order, each as one
``perturb_instance`` call would; the realized worst per-sample residuals of
all levels come from one residual stack; and the levels whose residual
stays below the threshold are verified together
(``alignment._verify_sweep``), each at exactly its residual. The sweep
computes what the records read, eq. (5) and eq. (6); the aligned 2k-bound
of ``verify_theorem1``'s report is not among them, and it is not taken.

A config's integers and its hypergraph kind are read by
``hypergraph._config_integer`` and ``hypergraph.hypergraph_from_config``,
which the CLI shares.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import alignment, geometry
from .codes import SparseCodeSet, _entry_failure
from .constants import build_certificate
from .errors import GenerationError
from .hypergraph import (_config_integer, _require_regular_sip, as_integer, as_real,
                         hypergraph_from_config)

PERTURBATION_FAMILIES = ("dict_jitter", "scaled_permuted", "code_jitter")

# Desk-scale guardrails for experiment configurations.
MAX_M = 10
MAX_N = 64
MAX_TRIALS = 10_000
GENERATE_MAX_RETRIES = 10


@dataclass
class ExperimentRecord:
    """One (seed, eps) verification outcome.

    The code-tier fields are None when eps was not below the code threshold.
    ``pass5`` is the report's ``eq5_ok`` (False where that is None) and
    ``pass6`` its ``eq6_ok``, each decided up to ``alignment.BOUND_SLACK``:
    ``pass6`` holds when every sample's code error is within its own eq. (6)
    bound, sample by sample. ``max_code_err`` and ``bound6`` are the worst
    code error and the largest code bound, which may belong to different
    samples. ``ms`` is the wall time of the trial's sweep (draws and
    verification of all its levels) divided by the number of levels it
    verified.
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


def generate_instance(m, n, k, hypergraph, per_support_count, seed=None):
    """Gaussian dictionary and codes on every edge, verified post hoc.

    Each draw is a standard normal dictionary, then one standard normal
    call for the code entries: ``per_support_count`` columns per edge, in
    edge order, each column's k entries in support order. The
    hypergraph must be regular and have SIP, and ``per_support_count`` must
    be at least k. A draw is accepted when its certificate reads
    ``lower_bound_ok``, ``spark_ok`` and ``glp_ok`` (not ``counts_ok``).
    Retries with fresh randomness up to GENERATE_MAX_RETRIES times, then
    raises GenerationError. An m, n, k or per_support_count that fails
    ``hypergraph.as_integer`` raises ValueError before any draw; a
    certificate over a cap raises CapExceededError.
    """
    return _certified_instance(m, n, k, hypergraph, per_support_count, seed)[:2]


def _certified_instance(m, n, k, hypergraph, per_support_count, seed):
    """``generate_instance`` and the accepted draw's certificate."""
    m, n, k = as_integer(m, "m"), as_integer(n, "n"), as_integer(k, "k")
    per_support_count = as_integer(per_support_count, "per_support_count")
    if n < min(2 * k, m):
        raise ValueError(f"need n >= min(2k, m) = {min(2 * k, m)}, got n={n}")
    if per_support_count < k:
        raise ValueError(f"per_support_count must be at least k={k}, "
                         f"got {per_support_count}")
    if hypergraph.m != m or hypergraph.k != k:
        raise ValueError("hypergraph does not match the requested (m, k)")
    _require_regular_sip(hypergraph)
    rng = np.random.default_rng(seed)
    supports = tuple(e for e in hypergraph.edges for _ in range(per_support_count))
    rows = np.subtract(supports, 1).ravel()
    cols = np.repeat(np.arange(len(supports)), k)
    for _ in range(GENERATE_MAX_RETRIES):
        mat = rng.standard_normal((n, m))
        x = np.zeros((m, len(supports)))
        x[rows, cols] = rng.standard_normal(rows.size)
        codes = SparseCodeSet(m, x, supports, k)
        cert = build_certificate(mat, codes, hypergraph)
        if cert.lower_bound_ok and cert.spark_ok and cert.glp_ok:
            return mat, codes, cert
    raise GenerationError(f"no verified instance after {GENERATE_MAX_RETRIES} attempts")


def perturb_instance(dictionary, codes, family, eps_target, rng):
    """Candidate (B, xbar) whose worst per-sample residual equals eps_target.

    dict_jitter adds scaled dense noise to the dictionary and keeps the
    codes; scaled_permuted first moves to a random point of the ambiguity
    orbit and then jitters the dictionary; code_jitter perturbs code
    coefficients inside their supports and keeps the dictionary. The batch
    of one of a sweep's draw step. A dictionary that is not a finite 2-D
    array with one column per code row, or an eps_target that is not a real
    number (``hypergraph.as_real``), or is negative or not finite, raises
    ValueError before any draw.
    """
    mat = geometry.as_matrix(dictionary, "dictionary")
    if mat.shape[1] != codes.m:
        raise ValueError("dictionary columns and code rows differ")
    eps_target = as_real(eps_target, "eps_target")
    # a NaN fails both comparisons
    if not 0.0 <= eps_target < math.inf:
        raise ValueError(f"eps_target must be nonnegative and finite, got {eps_target!r}")
    if family not in PERTURBATION_FAMILIES:
        raise ValueError(f"unknown perturbation family {family!r}")
    if eps_target == 0.0:
        return mat, codes
    candidates, xbars, perms, error = _draw(mat, codes, family, [eps_target], rng)
    if error is not None:
        raise error
    if family == "dict_jitter":
        return candidates[0], codes
    supports = codes.supports
    if family == "scaled_permuted":
        perm = perms[0]
        inverse_positions = np.empty(len(perm), dtype=int)
        inverse_positions[perm] = np.arange(len(perm))
        remapped = {
            s: tuple(sorted(int(inverse_positions[v - 1]) + 1 for v in s))
            for s in set(supports)
        }
        supports = tuple(remapped[s] for s in supports)
    return candidates[0], SparseCodeSet(codes.m, xbars[0], supports, codes.k)


def _draw(mat, codes, family, targets, rng):
    """The candidate pairs whose worst per-sample residuals equal the
    positive ``targets``, one level per target, up to the first level whose
    draw fails: (candidates, codes, perms, error).

    ``candidates`` is an (L, n, m) stack and ``codes`` an (L, m, N) stack of
    candidate code matrices; the family that keeps the dictionary, or the
    codes, gives a stack of one that serves every level. ``perms`` are
    scaled_permuted's column permutations, (L, m), and None for the other
    families. ``error`` is the failing level's ValueError, None when every
    level drew.

    Each level draws from ``rng`` what one perturb_instance call draws, in
    level order: dict_jitter one standard_normal of the dictionary's shape;
    scaled_permuted a permutation, a uniform, a sign choice and a
    standard_normal; code_jitter one standard_normal per in-support entry,
    column by column in support order. One standard_normal call for all
    levels gives the numbers of one call per level. The worst-case norms,
    steps and candidates are then taken as stacks, with each level's
    matmul the one its pair alone would run. The candidate codes keep the
    source's normalised supports (their rows permuted for scaled_permuted),
    and only their entries are checked (``codes._entry_failure``).
    """
    n, m = mat.shape
    levels = len(targets)
    perms = masks = None
    if family == "dict_jitter":
        noise = rng.standard_normal((levels, n, m))
        base, xbars = mat, codes.codes[None]
        signal = noise @ codes.codes
    elif family == "scaled_permuted":
        perms = np.empty((levels, m), dtype=np.intp)
        diags = np.empty((levels, m))
        noise = np.empty((levels, n, m))
        for level in range(levels):
            perms[level] = rng.permutation(m)
            diags[level] = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
            noise[level] = rng.standard_normal((n, m))
        base = np.ascontiguousarray(np.moveaxis(mat[:, perms], 1, 0)) * diags[:, None, :]
        xbars = codes.codes[perms] / diags[:, :, None]
        masks = codes.support_mask[perms]
        signal = noise @ xbars
    else:
        # the same stream as one standard_normal(len(support)) call per column
        cols, rows = np.nonzero(codes.support_mask.T)
        delta = np.zeros((levels,) + codes.codes.shape)
        delta[:, rows, cols] = rng.standard_normal((levels, rows.size))
        masks = codes.support_mask[None]
        signal = mat @ delta
    worst = np.max(np.linalg.norm(signal, axis=1), axis=1)
    # a level without signal gets an infinite step; it fails below
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.asarray(targets, dtype=float)[:, None, None] / worst[:, None, None]
        if family == "code_jitter":
            candidates, xbars = mat[None], codes.codes + delta * steps
        else:
            candidates = base + noise * steps
    stop, error = levels, None
    if np.any(worst == 0.0):
        stop = int(np.argmax(worst == 0.0))
        error = ValueError("code_jitter: no in-support perturbation moves a sample"
                           if family == "code_jitter" else
                           f"{family}: no sample carries signal, so no "
                           "dictionary perturbation moves a sample")
    if masks is not None:
        failure = _entry_failure(xbars[:stop], masks[:stop], codes.k)
        if failure is not None:
            stop, error = failure[0], ValueError(failure[1])
    return (candidates if family == "code_jitter" else candidates[:stop],
            xbars if family == "dict_jitter" else xbars[:stop],
            None if perms is None else perms[:stop], error)


def _kept(stack, keep):
    """The kept levels of a per-level stack; a stack of one serves them all."""
    return stack if len(stack) == 1 else stack[keep]


def run_experiment(config):
    """Run the configured sweep; returns (records, summary).

    Config keys: m, n, k, hypergraph (kind), per_support_count, noise_grid,
    trials, family, seed. Grid values at or above the per-instance
    dictionary threshold are skipped (no guarantee exists there), as are
    levels whose realized residual lands at or above it; their draws are
    still taken, so the stream of every later level stays the same.
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
    try:
        grid = list(config["noise_grid"])
    except TypeError:
        raise ValueError(f"noise_grid must be a list of numbers, "
                         f"got {config['noise_grid']!r}") from None
    grid = [as_real(v, "noise grid value") for v in grid]
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
        mat, codes, cert = _certified_instance(m, n, k, hypergraph, per_support, seed)
        rng = np.random.default_rng([base_seed, trial, 0xC0DE])
        threshold = cert.eps_max_dictionary
        targets = [] if threshold is None else [v for v in grid if v < threshold]
        if not targets:
            continue
        start = time.perf_counter()
        candidates, xbars, _, error = _draw(mat, codes, family, targets, rng)
        residuals = alignment._residual_norms(mat, codes.codes, candidates, xbars)
        realized = np.max(residuals, axis=1).tolist()
        keep = [level for level, eps in enumerate(realized) if not eps >= threshold]
        reports = []
        if keep:
            reports = alignment._verify_sweep(
                mat, codes, _kept(candidates, keep), _kept(xbars, keep), cert,
                [realized[level] for level in keep], residuals[keep])
        # the levels before a failed draw are verified first, as one
        # perturb-and-verify call per level would have done
        if error is not None:
            raise error
        elapsed_ms = (time.perf_counter() - start) * 1e3
        for report in reports:
            max_code_err = bound6 = None
            if report.code_tier_active:
                max_code_err = float(np.max(report.code_errors))
                bound6 = float(np.max(report.code_bounds))
            records.append(ExperimentRecord(
                seed=seed,
                eps=report.eps,
                max_col_err=report.max_column_error,
                bound5=report.bound5,
                max_code_err=max_code_err,
                bound6=bound6,
                pass5=bool(report.eq5_ok),
                pass6=report.eq6_ok,
                ms=elapsed_ms / len(reports),
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
