"""Simulator and property-testing toolkit for finite-dimensional quantum measurements."""

__version__ = "0.1.0"

from .core import (
    CompletenessViolation,
    DimensionMismatch,
    Measurement,
    QmtestError,
    ZeroOperator,
    apply_measurement,
    canonical_phase_align,
    choi_prob,
    choi_vector,
    frobenius_norm,
    haar_random_state,
    hs_inner,
    maximally_entangled,
    normalized_choi,
    random_measurement,
    random_unitary,
    validate_measurement,
)
from .pauli import (
    DegenerateLabel,
    PauliLabel,
    f_T,
    g_T,
    pauli_matrix,
    pauli_product_phase,
    q_distribution,
    stabilizer_measurement,
    support,
)
from .metric import (
    DistanceReport,
    delta_measurement,
    delta_op,
    delta_op_numeric,
    distance_to_stabilizer_family,
    fidelity,
    klocal_distance_lower_bound,
    nearest_klocal,
    nearest_perminv,
    outcome_distance_lower_bound,
    variational,
)
from .schur import (
    BlockDecomposition,
    SchurBasis,
    block_decompose,
    build_schur_transform,
    dim_gl,
    dim_sn,
    hook_lengths,
    isotypic_projectors,
    partitions,
    permutation_operator,
    twirl,
)
from .blackbox import BlackBox, SampleBudgetExceeded, aggregate_multinomial
from .testers import (
    FiniteSetSpec,
    TesterConfig,
    Verdict,
    estimate_distance,
    test_finite_set,
    test_identity,
    test_klocal,
    test_perminv,
    test_stabilizer,
)
