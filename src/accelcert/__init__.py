"""Accelerated first-order methods with Lyapunov convergence certificates."""

from .algorithms import (
    ALGORITHMS,
    AlgoState,
    RunParams,
    Trace,
    TraceRecord,
    initial_state,
    run,
    step,
)
from .errors import (
    AccelCertError,
    InvalidProblemError,
    ParameterError,
    StepSizeError,
    UnsupportedRegularizerError,
)
from .lyapunov import (
    Certificate,
    EnergyBreakdown,
    certify,
    energy,
    seq_R,
    seq_S,
    seq_T,
    theorem_bound,
    threshold_K,
)
from .problems import (
    CompositeObjective,
    OptimumInfo,
    SmoothOracle,
    as_composite,
    finite_diff_gradient,
    make_lasso,
    make_quadratic,
    oracle_eval,
    resolve_problem,
)
from .proximal import (
    ProxResult,
    prox_bruteforce,
    prox_eval,
    prox_subgradient,
    prox_value,
    soft_threshold,
)

__version__ = "0.1.0"
