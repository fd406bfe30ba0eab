"""dickekit: entanglement detection around symmetric Dicke states.

Dense and symmetric-sector state construction, fidelity-based
genuine-multipartite witnesses, collective-spin entanglement criteria,
noise-robustness thresholds, and brute-force numeric oracles that verify
every closed-form bound independently.
"""

from types import ModuleType as _Module

from .collective import (
    CRITERION_KINDS,
    DETECTED_ENTANGLED,
    DETECTED_GENUINE,
    DETECTED_NONE,
    GENUINE3_BOUND,
    GENUINE4_BOUND,
    PartitionBounds,
    WitnessVerdict,
    collective_noise_threshold,
    collective_threshold_numeric,
    criterion_verdict,
    dicke_fidelity_bound,
    fidelity_threshold_numeric,
    fidelity_witness_verdict,
    lemma1_bound,
    lemma2_eigenvalues,
    lemma2_operators,
    lemma2_vector_norm,
    maximize_over_ti_product,
    superradiance_intensity,
    theorem2_bound,
    theorem3_eigenvalues,
    theorem3_operators,
    theorem3_partition_bounds,
)
from .config import (
    DEFAULT_TOLERANCES,
    DENSE_QUBIT_LIMIT,
    SYMMETRIC_QUBIT_LIMIT,
    Tolerances,
)
from .errors import DickekitError, DomainError, InvariantViolationError
from .oracle import (
    AppendixReport,
    BiseparableArgument,
    BlochProduct,
    OptimizationResult,
    max_biseparable_overlap,
    max_eigenvalue,
    maximize_over_biseparable,
    maximize_over_product_states,
    sample_random_states,
    verify_appendix_inequality,
)
from .states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Bipartition,
    DensityMatrix,
    HermitianOperator,
    Mixture,
    Moments,
    PureState,
    QuadraticForm,
    SymmetricState,
    assemble_bipartite,
    collective_operator,
    dicke_state,
    dicke_symmetric,
    expectation,
    moments,
    product_state,
    psixy_noise_mix,
    psixy_state,
    psixy_symmetric,
    schmidt_spectrum,
    symmetric_to_dense,
    white_noise_mix,
)

__version__ = "0.1.0"

# the import block above is the one declaration of the public names
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
