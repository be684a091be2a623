"""Write references.json: certificate constants for the default and held-out seeds.

Usage: python3 perfbench/make_references.py

Run only when the certificate is meant to change; the benchmark compares
every certificate of these seeds against the stored values at 1e-12
relative.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sparsecert  # noqa: E402

import workloads  # noqa: E402


def records(seed):
    result = {}
    for name in ("certify_k2", "certify_k3"):
        result[name] = [workloads.certificate_record(sparsecert.build_certificate(*inst))
                        for inst in workloads.make(name, seed).pool]
    result["cli"] = workloads.make("cli", seed).record
    return result


def main():
    payload = {str(seed): records(seed)
               for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)}
    workloads.REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
