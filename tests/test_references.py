"""Certificates of the benchmark's pools against its stored references.

The benchmark gates every certificate on seeds 0 and 1606 against
``perfbench/references.json`` (flags equal, constants to ``REL_TOL``
relative). These tests rebuild the same certificates from the benchmark's
own instance generators and compare them read-only, so a change to the
numerics fails here as well as in the benchmark. The workloads' own output
checks run here too, on workloads built as ``workloads.make`` builds them
but without its output directory.
"""

import contextlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sparsecert
from sparsecert import experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
# spans kept in memory; nothing is written
tracing = _load("tracing")
SEEDS = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)


def _instances(name, seed):
    # the streams and specs of workloads.make
    if name == "certify_k2":
        return workloads.pool_instances(1, seed, workloads.K2_POOL)
    if name == "certify_k3":
        return workloads.pool_instances(2, seed, workloads.K3_POOL)
    return [workloads.gaussian_instance(np.random.default_rng([seed, 3, 0]),
                                        *workloads.CLI_SPEC)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["certify_k2", "certify_k3", "cli"])
def test_certificates_match_references(name, seed):
    references = workloads.load_references(seed)[name]
    if name == "cli":
        references = [references]
    instances = _instances(name, seed)
    assert len(instances) == len(references)
    for instance, reference in zip(instances, references):
        record = workloads.certificate_record(sparsecert.build_certificate(*instance))
        for flag in workloads.FLAGS:
            assert record[flag] == reference[flag], flag
        for value in workloads.VALUES:
            want = reference[value]
            if want is None:
                assert record[value] is None, value
            else:
                assert record[value] == pytest.approx(
                    want, rel=workloads.REL_TOL, abs=0), value


def test_workload_output_checks_pass():
    seed = workloads.DEFAULT_SEED
    # the streams and specs of workloads.make
    for workload in (
            workloads.CertifyWorkload("certify_k2", 1, seed, workloads.K2_POOL),
            workloads.CertifyWorkload("certify_k3", 2, seed, workloads.K3_POOL)):
        for i in range(workload.cycle):
            assert workload.run(i, None)[1], i
    # the trial check takes the first certificate of each run_experiment
    # call as the trial's own, so it sees which draws are certified; a
    # traced run replaces the traced functions in every sparsecert module,
    # so the check runs in both modes, over every family
    for traced in (False, True):
        tracer = tracing.Tracer()
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            for trial_seed in SEEDS:
                trial = workloads.TrialWorkload(trial_seed)
                for i in range(trial.cycle):
                    assert trial.run(i, tracer)[1], (traced, trial_seed, i)
        if traced:
            calls = tracer.totals()[0]
            assert calls["experiment.run_experiment"] == 2 * trial.cycle
            assert calls["constants.build_certificate"] == 2 * trial.cycle
    assert experiment.build_certificate is sparsecert.build_certificate
    # run.py reads it into every run's environment record
    assert isinstance(sparsecert.kernel_backend, str)
