"""The benchmark's workloads: seeded inputs, one timed operation, a correctness gate.

Every workload draws its inputs from ``numpy.random.default_rng`` under the
run's seed; the package receives only those inputs. ``run(i, tracer)``
performs operation ``i`` and returns ``(parts, ok)``: the operation's timed
parts in milliseconds and whether every output passed its check. The loop
stops only at the end of a ``cycle`` of operations, and ``round``
consecutive operations make one end-to-end sample.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import sparsecert
from sparsecert import experiment, serialize

DEFAULT_SEED = 0
# Kept out of tuning; a later change confirms a claim on it.
HELD_OUT_SEED = 1606
REL_TOL = 1e-12

FLAGS = ("sip_ok", "regular_ok", "lower_bound_ok", "glp_ok", "spark_ok", "counts_ok")
VALUES = ("C1", "C2", "L2", "L2k", "L2H", "eps_max_dictionary", "eps_max_codes")

# (hypergraph kind, m, n, k, codes per support); counts are (k-1) C(m,k) + 1.
K2_POOL = [("cyclic", 8, 8, 2, 29)] * 3 + [("complete", 4, 4, 2, 7)]
K3_POOL = [("cyclic", 6, 6, 3, 41)] * 2
CLI_SPEC = ("cyclic", 4, 4, 2, 7)

TRIAL_CONFIG = {"m": 6, "n": 6, "k": 2, "hypergraph": "cyclic",
                "per_support_count": 16, "trials": 1,
                "noise_grid": [float(v) for v in np.logspace(-13, -8, 12)]}
LEMMA_CONFIG = {"lemma3": {"trials": 200},
                "lemma4": {"hypergraph": "cyclic", "m": 4, "k": 2, "m_bar": 6}}
# Admissible edge maps of cyclic m=4, k=2 into [1, 6]; every one must verify.
LEMMA4_ADMISSIBLE = 108_840
CHILD_TIMEOUT_S = 120

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"
REFERENCES = ROOT / "perfbench" / "references.json"


def gaussian_instance(rng, kind, m, n, k, count):
    """Gaussian dictionary and ``count`` Gaussian codes on every edge."""
    if kind == "cyclic":
        hypergraph = sparsecert.build_cyclic(m, k)
    else:
        hypergraph = sparsecert.build_complete(m, k)
    dictionary = rng.standard_normal((n, m))
    codes = np.zeros((m, count * len(hypergraph.edges)))
    supports = []
    for index, edge in enumerate(hypergraph.edges):
        rows = [v - 1 for v in edge]
        codes[rows, index * count:(index + 1) * count] = rng.standard_normal((k, count))
        supports += [edge] * count
    code_set = sparsecert.SparseCodeSet(m, codes, tuple(supports), k)
    return dictionary, code_set, hypergraph


def pool_instances(stream, seed, specs):
    return [gaussian_instance(np.random.default_rng([seed, stream, index]), *spec)
            for index, spec in enumerate(specs)]


def certificate_record(cert):
    record = {name: getattr(cert, name) for name in FLAGS + VALUES}
    record["hypotheses_ok"] = cert.hypotheses_ok
    return record


def load_references(seed):
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text()).get(str(seed), {})


def _close(a, b):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def matches_reference(record, reference):
    """Flags equal and constants equal to 1e-12 relative."""
    return (all(record[name] == reference[name] for name in FLAGS)
            and all(_close(record[name], reference[name]) for name in VALUES))


def certifies(record):
    """Every hypothesis flag true and a finite C1."""
    c1 = record["C1"]
    return all(record[name] for name in FLAGS) and c1 is not None and math.isfinite(c1)


class CertifyWorkload:
    """``build_certificate`` over a rotating pool of Gaussian instances."""

    in_process = True
    round = 1

    def __init__(self, name, stream, seed, specs):
        self.pool = pool_instances(stream, seed, specs)
        self.cycle = len(self.pool)
        self.references = load_references(seed).get(name)
        self.first = [None] * len(self.pool)

    def run(self, i, tracer):
        index = i % len(self.pool)
        start = time.perf_counter()
        cert = sparsecert.build_certificate(*self.pool[index])
        elapsed = (time.perf_counter() - start) * 1e3
        record = certificate_record(cert)
        ok = certifies(record)
        if self.references is not None:
            ok = ok and matches_reference(record, self.references[index])
        if self.first[index] is None:
            self.first[index] = record
        ok = ok and record == self.first[index]
        return {"certify": elapsed}, ok


class TrialWorkload:
    """One-trial ``run_experiment``; the seed advances and the family rotates."""

    in_process = True
    cycle = len(experiment.PERTURBATION_FAMILIES)
    round = 1

    def __init__(self, seed):
        self.seed = seed

    def run(self, i, tracer):
        families = experiment.PERTURBATION_FAMILIES
        config = dict(TRIAL_CONFIG, seed=self.seed * 100_000 + i,
                      family=families[i % len(families)])
        certificates = []
        certify = experiment.build_certificate

        def capture(*args, **kwargs):
            cert = certify(*args, **kwargs)
            certificates.append(cert)
            return cert

        experiment.build_certificate = capture
        try:
            start = time.perf_counter()
            _, summary = experiment.run_experiment(config)
            elapsed = (time.perf_counter() - start) * 1e3
        finally:
            experiment.build_certificate = certify
        # every grid level below the certified threshold yields one record
        threshold = certificates[0].eps_max_dictionary
        expected = sum(1 for eps in config["noise_grid"] if eps < threshold)
        ok = (summary["records"] == expected and summary["pass5_rate"] == 1.0
              and summary["pass6_rate"] in (None, 1.0))
        return {"trial": elapsed}, ok


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child_timeout(signum, frame):
    raise TimeoutError(f"child process ran over {CHILD_TIMEOUT_S} s")


def run_child(argv, stdout_path):
    """Run one child to completion; returns (exit code, wall ms, peak RSS in MB).

    The wait blocks without polling, so the parent takes no CPU time from the
    child; an alarm kills a child that runs over the timeout.
    """
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        previous = signal.signal(signal.SIGALRM, _child_timeout)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = (time.perf_counter() - start) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def import_ms():
    """Milliseconds a fresh interpreter spends in ``import sparsecert``."""
    code = ("import time; t = time.perf_counter(); import sparsecert; "
            "print((time.perf_counter() - t) * 1e3)")
    out = OUT / "import.txt"
    status, _, _ = run_child([sys.executable, "-c", code], out)
    if status != 0:
        raise RuntimeError("import sparsecert failed in a child process")
    return float(out.read_text())


class CliWorkload:
    """``sparsecert certify`` and ``sparsecert check-lemmas`` in turn, one child each.

    One round, one child of each, is one end-to-end sample.
    """

    in_process = False
    cycle = round = 2

    def __init__(self, seed):
        self.dir = OUT / f"cli-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        dictionary, codes, hypergraph = gaussian_instance(
            np.random.default_rng([seed, 3, 0]), *CLI_SPEC)
        payloads = {
            "dictionary": serialize.matrix_to_json_dict(dictionary),
            "codes": serialize.code_set_to_json_dict(codes),
            "hypergraph": serialize.hypergraph_to_json_dict(hypergraph),
        }
        for name, payload in payloads.items():
            serialize.dump_json(payload, self.dir / f"{name}.json")
        lemma_config = dict(LEMMA_CONFIG, lemma3=dict(LEMMA_CONFIG["lemma3"], seed=seed))
        (self.dir / "lemmas.json").write_text(json.dumps(lemma_config))
        cert = sparsecert.build_certificate(dictionary, codes, hypergraph)
        self.record = certificate_record(cert)
        reference = load_references(seed).get("cli")
        self.certifies = certifies(self.record) and (
            reference is None or matches_reference(self.record, reference))
        digests = {f"{name}_sha256": serialize.canonical_digest(payload)
                   for name, payload in payloads.items()}
        self.expected = json.loads(serialize.dump_json(
            serialize.certificate_to_json_dict(cert, digests)))
        self.peak_rss_mb = 0.0

    def _child(self, args, tracer, label):
        out = self.dir / f"{label}.out"
        if tracer is None:
            status, elapsed, rss = run_child(
                [sys.executable, "-m", "sparsecert.cli", *args], out)
        else:
            spans = self.dir / f"spans-{label}.json"
            argv = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
                    str(spans), *args]
            with tracer.span(f"cli.{label}_process") as span:
                status, elapsed, rss = run_child(argv, out)
            payload = json.loads(spans.read_text())
            tracer.adopt(payload["spans"], payload["counts"], span)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return status, elapsed, out.read_text()

    def run(self, i, tracer):
        d = self.dir
        if i % 2 == 0:
            status, elapsed, text = self._child(
                ["certify", "--dict", str(d / "dictionary.json"),
                 "--codes", str(d / "codes.json"),
                 "--hypergraph", str(d / "hypergraph.json")], tracer, "certify")
            ok = self.certifies and status == 0 and json.loads(text) == self.expected
            return {"cli_certify": elapsed}, ok
        status, elapsed, text = self._child(
            ["check-lemmas", "--config", str(d / "lemmas.json")], tracer, "lemmas")
        ok = status == 0
        if ok:
            report = json.loads(text)
            counting = report["injective_map_counting"]
            ok = (report["distance_to_intersection"]["violations"] == 0
                  and counting["admissible_maps"] == counting["verified_maps"]
                  == LEMMA4_ADMISSIBLE)
        return {"cli_lemmas": elapsed}, ok


def make(name, seed):
    OUT.mkdir(parents=True, exist_ok=True)
    if name == "certify_k2":
        return CertifyWorkload(name, 1, seed, K2_POOL)
    if name == "certify_k3":
        return CertifyWorkload(name, 2, seed, K3_POOL)
    if name == "trial":
        return TrialWorkload(seed)
    if name == "cli":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

