"""Excitation dwell times of a single photon crossing a 1D two-level medium.

Average, transmitted-post-selected, and scattered-post-selected dwell times
from closed-form frequency-domain solutions, an independent time-domain
integrator of the forward/backward no-jump equations, and the analogous
single-sided Fabry-Perot bounce-time model.
"""

from .cavity import (
    CavityParams,
    MirrorParams,
    dwell_avg,
    feynman_tau_B,
    mirror_map,
    scatter_probabilities,
    tau_B_closed,
    tau_B_direct,
)
from .domain import (
    AtomParams,
    DelayReport,
    GaussianPulse,
    MediumProfile,
    NarrowBandPulse,
    PulseSpec,
    TabulatedSpectrumPulse,
    make_gaussian_pulse,
    make_tabulated_medium,
    make_uniform_medium,
    od_integral,
)
from .errors import ConfigError, DwellTimeError, InvalidParameterError, NumericError
from .spectral import (
    Asymptotics,
    asymptotics,
    delay_report,
    effective_od,
    group_delay,
    invert_od_eff,
    lorentzian,
    medium_response,
    scattered_delay,
    tau_S,
    tau_T,
    transmission_probability,
    wigner_delay,
)
from .timedomain import (
    FieldHistory,
    GridSpec,
    com_delays,
    delay_report_td,
    integrate_backward,
    integrate_forward,
    tau_S_oracle,
    tau_T_td,
    tau_avg_td,
    weak_trace,
)
from .validation import CheckResult, run_validation

__version__ = "0.1.0"

__all__ = [
    "AtomParams",
    "Asymptotics",
    "CavityParams",
    "CheckResult",
    "ConfigError",
    "DelayReport",
    "DwellTimeError",
    "FieldHistory",
    "GaussianPulse",
    "GridSpec",
    "InvalidParameterError",
    "MediumProfile",
    "MirrorParams",
    "NarrowBandPulse",
    "NumericError",
    "PulseSpec",
    "TabulatedSpectrumPulse",
    "asymptotics",
    "com_delays",
    "delay_report",
    "delay_report_td",
    "dwell_avg",
    "effective_od",
    "feynman_tau_B",
    "group_delay",
    "integrate_backward",
    "integrate_forward",
    "invert_od_eff",
    "lorentzian",
    "make_gaussian_pulse",
    "make_tabulated_medium",
    "make_uniform_medium",
    "medium_response",
    "mirror_map",
    "od_integral",
    "run_validation",
    "scatter_probabilities",
    "scattered_delay",
    "tau_B_closed",
    "tau_B_direct",
    "tau_S",
    "tau_S_oracle",
    "tau_T",
    "tau_T_td",
    "tau_avg_td",
    "transmission_probability",
    "weak_trace",
    "wigner_delay",
]
