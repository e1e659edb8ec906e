"""Zeno and anti-Zeno physics of quantum Brownian motion.

A numerical library for the damped quantum harmonic oscillator coupled
to a thermal bosonic reservoir: time-dependent master-equation
coefficients, effective decay rates of Fock states under repeated
non-selective measurements, Zeno/anti-Zeno regime classification and
crossover searches, and a rate-equation simulator for the
shuttered-noise measurement protocol.
"""

from .coefficients import (
    CoefficientSeries,
    MarkovianLimits,
    damping_coefficient,
    diffusion_coefficient,
    integrated_damping,
    integrated_diffusion,
    markovian_limits,
    markovian_limits_numerical,
    tabulate_coefficients,
)
from .dynamics import (
    LadderState,
    LadderTrace,
    MeasurementMode,
    MeasurementSchedule,
    ShutteredComparison,
    UnshutteredSurvival,
    eid_attenuation,
    evolve_ladder,
    shuttered_comparison,
    survival_after_measurements,
    survival_probability,
    transition_probabilities,
    unshuttered_survival,
)
from .errors import (
    DegenerateDenominatorError,
    IndeterminateAtZeroError,
    NegativeFrequencyError,
    NegativeProbabilityError,
    PerturbativeBreakdownError,
    TruncationLeakageError,
)
from .numerics import NonConvergenceError, NonFiniteError, QuadratureError
from .spectral import (
    BaseSpectralDensity,
    OhmicLorentzDrude,
    ReservoirParams,
    spectral_density,
    thermal_factor,
    weighted_spectral_density,
)
from .zeno import (
    RATIO_TOL,
    Regime,
    ZenoScan,
    classify_regime,
    effective_decay_rate,
    effective_decay_rate_fd,
    find_crossover_time,
    high_t_ratio,
    markovian_decay_rate,
    zeno_ratio,
    zeno_scan,
)

__version__ = "0.1.0"
