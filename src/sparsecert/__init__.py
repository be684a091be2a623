"""Certificates of identifiability and stability for sparse linear coding.

Computes hypergraph support-design conditions, restricted matrix lower
bounds, subspace-geometry constants, and recovery-error thresholds, and
verifies the resulting guarantees numerically at desk scale.

The exports load lazily (PEP 562 module ``__getattr__``): ``import
sparsecert`` imports no submodule, and the first use of an exported name
imports the module that defines it. ``from sparsecert import X`` and
``sparsecert.X`` work as with eager imports.
"""

import importlib

__version__ = "0.1.0"

# Kept because perfbench/run.py records it in each run's environment; the one
# kernel is geometry.edge_min_singular_values.
kernel_backend = "python"

# each export -> the submodule that defines it
_HOME = {
    "AlignmentResult": "alignment",
    "TheoremReport": "alignment",
    "align_dictionaries": "alignment",
    "verify_theorem1": "alignment",
    "Dataset": "codes",
    "SparseCodeSet": "codes",
    "support_index_sets": "codes",
    "synthesize_dataset": "codes",
    "StabilityCertificate": "constants",
    "build_certificate": "constants",
    "compute_C2": "constants",
    "sample_size_cor1": "constants",
    "CapExceededError": "errors",
    "GenerationError": "errors",
    "HypothesisError": "errors",
    "SparseCertError": "errors",
    "ThresholdError": "errors",
    "ExperimentRecord": "experiment",
    "generate_instance": "experiment",
    "perturb_instance": "experiment",
    "run_experiment": "experiment",
    "DEFAULT_RANK_TOL": "geometry",
    "Subspace": "geometry",
    "friedrichs_angle": "geometry",
    "intersect": "geometry",
    "lower_bound_k": "geometry",
    "orthonormal_basis": "geometry",
    "restricted_lower_bound": "geometry",
    "spark_polynomial": "geometry",
    "subspace_distance": "geometry",
    "xi": "geometry",
    "Hypergraph": "hypergraph",
    "build_complete": "hypergraph",
    "build_cyclic": "hypergraph",
    "build_grid": "hypergraph",
    "has_sip": "hypergraph",
    "normalize_support": "hypergraph",
    "pairwise_unions": "hypergraph",
    "regularity": "hypergraph",
    "star": "hypergraph",
    "Lemma3Report": "lemmas",
    "Lemma4Report": "lemmas",
    "check_lemma3": "lemmas",
    "check_lemma4": "lemmas",
}

__all__ = [*_HOME, "kernel_backend", "__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    # later lookups find the name without calling this function again
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
