"""hybridavg: simulate stochastic hybrid systems with fast-oscillating flows
and verify their stability through the averaged dynamics.

The package follows one pipeline: describe a system (``core``, ``systems``),
run seeded random solutions (``solver``), construct and certify the average
system (``averaging``, ``certificates``), and validate recurrence and
exponential decay in the mean on ensembles (``stats``).  The ``hybridavg``
command line wraps all of it behind config files.
"""

__version__ = "0.1.0"

from .averaging import (
    AverageSpec,
    GammaCurve,
    LipschitzEstimates,
    build_average_system,
    check_jacobian_average,
    estimate_average_map,
    estimate_gamma,
    estimate_lipschitz,
    window_average,
)
from .certificates import (
    CertGrid,
    FosterCertificate,
    foster_certificate,
)
from .config import ConfigDocument, ConfigError
from .core import (
    HybridArc,
    HybridTime,
    JumpNoise,
    SamplingPlan,
    SetDescriptor,
    StateVec,
    SystemSpec,
    hybrid_time_sum,
    validate_spec,
)
from .solver import (
    Horizon,
    IntegratorConfig,
    simulate_ensemble,
    simulate_path,
)
from .stats import (
    EnvelopeFit,
    RecurrenceReport,
    SweepParams,
    epsilon_sweep,
    hitting_time,
    recurrence_estimate,
    uges_m_fit,
)
from .systems import JamParams, jammed_actuator, jammed_es, load_system

__all__ = [
    "AverageSpec", "CertGrid", "ConfigDocument", "ConfigError", "EnvelopeFit",
    "FosterCertificate", "GammaCurve", "Horizon", "HybridArc", "HybridTime",
    "IntegratorConfig", "JamParams", "JumpNoise", "LipschitzEstimates",
    "RecurrenceReport", "SamplingPlan", "SetDescriptor", "StateVec",
    "SweepParams", "SystemSpec", "build_average_system",
    "check_jacobian_average", "epsilon_sweep", "estimate_average_map",
    "estimate_gamma", "estimate_lipschitz", "foster_certificate",
    "hitting_time", "hybrid_time_sum", "jammed_actuator", "jammed_es",
    "load_system", "recurrence_estimate", "simulate_ensemble",
    "simulate_path", "uges_m_fit", "validate_spec", "window_average",
]
