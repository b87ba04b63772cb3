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
    build_average_system,
    check_jacobian_average,
    estimate_average_map,
    estimate_gamma,
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
    SetDescriptor,
    StateVec,
    SystemSpec,
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
    epsilon_sweep,
    recurrence_estimate,
    uges_m_fit,
)
from .systems import jammed_actuator, jammed_es, load_system

__all__ = [
    "AverageSpec", "CertGrid", "ConfigDocument", "ConfigError", "EnvelopeFit",
    "FosterCertificate", "GammaCurve", "Horizon", "HybridArc", "HybridTime",
    "IntegratorConfig", "JumpNoise",
    "RecurrenceReport", "SetDescriptor", "StateVec",
    "SystemSpec", "build_average_system",
    "check_jacobian_average", "epsilon_sweep", "estimate_average_map",
    "estimate_gamma", "foster_certificate",
    "jammed_actuator", "jammed_es", "load_system", "recurrence_estimate",
    "simulate_ensemble", "simulate_path", "uges_m_fit",
]
