"""Certificates of identifiability and stability for sparse linear coding.

Computes hypergraph support-design conditions, restricted matrix lower
bounds, subspace-geometry constants, and recovery-error thresholds, and
verifies the resulting guarantees numerically at desk scale.
"""

from .alignment import (
    AlignmentResult,
    TheoremReport,
    align_dictionaries,
    code_alignment_error,
    verify_theorem1,
)
from .codes import (
    Dataset,
    SparseCodeSet,
    generate_instance,
    merge_code_sets,
    support_index_sets,
    synthesize_dataset,
    vandermonde_codes,
)
from .constants import (
    SampleRequirement,
    StabilityCertificate,
    build_certificate,
    compute_C2,
    epsilon_for,
    sample_size_cor1,
    sample_size_thm2,
)
from .errors import (
    CapExceededError,
    GenerationError,
    HypothesisError,
    SparseCertError,
    ThresholdError,
)
from .experiment import ExperimentRecord, perturb_instance, run_experiment
from .geometry import (
    DEFAULT_RANK_TOL,
    Subspace,
    column_span,
    distance_to_subspace,
    friedrichs_angle,
    intersect,
    lower_bound_k,
    orthonormal_basis,
    restricted_lower_bound,
    spark_condition,
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
    is_admissible_map,
    star_image_singletons,
)
from .serialize import TOOLKIT_VERSION as __version__

# The one restricted-singular-value kernel: numpy's batched LAPACK SVD.
kernel_backend = "python"
