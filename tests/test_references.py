"""Certificates of the benchmark's pools against its stored references.

The benchmark gates every certificate on seeds 0 and 1606 against
``perfbench/references.json`` (flags equal, constants to ``REL_TOL``
relative). These tests rebuild the same certificates from the benchmark's
own instance generators and compare them read-only, so a change to the
numerics fails here as well as in the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sparsecert

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
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
