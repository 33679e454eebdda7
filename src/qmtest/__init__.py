"""Simulator and property-testing toolkit for finite-dimensional quantum measurements."""

__version__ = "0.1.0"

from .core import (
    CompletenessViolation,
    DimensionMismatch,
    Measurement,
    QmtestError,
    ZeroOperator,
    choi_prob,
    hs_inner,
    random_unitary,
    validate_measurement,
)
from .pauli import (
    DegenerateLabel,
    PauliLabel,
    pauli_matrix,
    q_distribution,
    stabilizer_measurement,
)
from .metric import (
    DistanceReport,
    delta_measurement,
    delta_op,
    delta_op_numeric,
    distance_to_stabilizer_family,
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
