"""Momentum-space lattice simulator for a thermostatted fluctuating scalar
field, with correlator reconstruction and a truncated Fock operator algebra."""

from .action import BathParams, MatterActionKind, extended_action, matter_action, matter_grad
from .dynamics import (
    ExtendedState,
    IntegratorParams,
    StepFailureError,
    flip_momenta,
    init_state,
    make_rng,
    run,
)
from .estimators import (
    BatchMeans,
    CorrelatorAccumulator,
    CorrelatorGrid,
    CovarianceAccumulator,
    EstimatorError,
    GridSpec,
    MgfAccumulator,
    VarianceAccumulator,
    default_batch_len,
)
from .lattice import (
    FixedShell,
    GlobalDynamicShell,
    LocalDynamicShell,
    MomentumLattice,
    omega,
)
from .operator_algebra import (
    AlgebraError,
    CheckResult,
    FockRep,
    GaussianPacket,
    GramAccumulator,
    GramMatrix,
    HilbertContext,
    LinearObservable,
    MicrocausalityResult,
    SparseOperand,
    algebra_report,
    annihilation_operator,
    commutator_check,
    creation_operator,
    field_operator,
    gram_exact,
    microcausality_ratio,
    packet_observables,
    number_operator,
    packet_coefficients,
    quotient_orthonormalize,
    standard_packet_configuration,
)
from .oracles import (
    ExactCovariance,
    exact_covariance,
    expected_correlator,
    pauli_jordan_discrete,
    smeared_commutator,
)
from .config import ConfigError, RunConfig, parse_config
from .storage import CheckpointError, read_checkpoint, write_checkpoint

__version__ = "0.1.0"
