"""Certificates of identifiability and stability for sparse linear coding.

Computes hypergraph support-design conditions, restricted matrix lower
bounds, subspace-geometry constants, and recovery-error thresholds, and
verifies the resulting guarantees numerically at desk scale.
"""

from .alignment import (
    AlignmentResult,
    TheoremReport,
    align_dictionaries,
    verify_theorem1,
)
from .codes import (
    Dataset,
    SparseCodeSet,
    support_index_sets,
    synthesize_dataset,
)
from .constants import (
    StabilityCertificate,
    build_certificate,
    compute_C2,
    sample_size_cor1,
)
from .errors import (
    CapExceededError,
    GenerationError,
    HypothesisError,
    SparseCertError,
    ThresholdError,
)
from .experiment import ExperimentRecord, generate_instance, perturb_instance, run_experiment
from .geometry import (
    DEFAULT_RANK_TOL,
    Subspace,
    friedrichs_angle,
    intersect,
    lower_bound_k,
    orthonormal_basis,
    restricted_lower_bound,
    spark_polynomial,
    subspace_distance,
    xi,
)
from .hypergraph import (
    Hypergraph,
    build_complete,
    build_cyclic,
    build_grid,
    has_sip,
    normalize_support,
    pairwise_unions,
    regularity,
    star,
)
from .lemmas import (
    Lemma3Report,
    Lemma4Report,
    check_lemma3,
    check_lemma4,
)
from .serialize import TOOLKIT_VERSION as __version__

# Kept because perfbench/run.py records it in each run's environment; the one
# kernel is geometry.edge_min_singular_values.
kernel_backend = "python"
