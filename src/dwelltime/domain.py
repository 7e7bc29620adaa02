"""Core value types and constructors shared by the spectral, time-domain and cavity engines.

Internal units: c = 1 and Gamma = 1. Times are quoted in units of 1/Gamma,
frequencies in units of Gamma, optical depth is dimensionless. AtomParams keeps
the physical decay rate so results can be re-dimensionalized at the boundary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InvalidParameterError

# |alpha_in| support cut relative to the pulse peak, shared with the time-domain grid
TAIL_CUT = 1e-8
SIGMA_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class AtomParams:
    """Physical decay rate of the excited state, for re-dimensionalizing outputs."""

    gamma: float = 1.0  # [1/time]

    def __post_init__(self):
        if not self.gamma > 0:
            raise InvalidParameterError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian single-photon pulse with RMS intensity duration sigma.

    Spectral density c*|alpha_in(w)|^2 = sqrt(2/pi)*sigma*exp(-2 sigma^2 (w-detuning)^2),
    normalized to unit frequency integral.
    """

    sigma: float  # RMS duration of |alpha_in(t)|^2 [1/Gamma]
    detuning: float = 0.0  # carrier offset from resonance [Gamma]

    def __post_init__(self):
        # sigma**2 enters the spectrum, so it must stay a finite float
        if not 0 < self.sigma < SIGMA_MAX:
            raise InvalidParameterError(f"sigma must be positive and below {SIGMA_MAX:.3g}, got {self.sigma}")

    def spectral_density(self, w):
        w = np.asarray(w, dtype=float)
        with np.errstate(over="ignore"):  # an exponent past float range is -inf: density 0
            return math.sqrt(2.0 / math.pi) * self.sigma * np.exp(-2.0 * self.sigma**2 * (w - self.detuning) ** 2)

    def spectral_amplitude(self, w):
        # real positive root of the density
        w = np.asarray(w, dtype=float)
        return (2.0 / math.pi) ** 0.25 * math.sqrt(self.sigma) * np.exp(-(self.sigma**2) * (w - self.detuning) ** 2)

    def time_amplitude(self, t):
        t = np.asarray(t, dtype=float)
        env = (2.0 * math.pi * self.sigma**2) ** -0.25 * np.exp(-(t**2) / (4.0 * self.sigma**2))
        return env * np.exp(1j * self.detuning * t)

    @property
    def support_halfwidth(self):
        # |alpha_in(t)| drops below TAIL_CUT of peak outside +-this
        return 2.0 * self.sigma * math.sqrt(-math.log(TAIL_CUT))


@dataclass(frozen=True)
class NarrowBandPulse:
    """Formal delta-spectrum limit at the given detuning; engines use closed forms."""

    detuning: float = 0.0  # [Gamma]


@dataclass(frozen=True)
class TabulatedSpectrumPulse:
    """Spectrum sampled on a frequency grid, linearly interpolated between samples."""

    omegas: np.ndarray  # sample frequencies [Gamma], strictly increasing
    amplitudes: np.ndarray  # complex spectral amplitude samples
    normalize: bool = True

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        a = np.asarray(self.amplitudes, dtype=complex)
        if w.ndim != 1 or w.size < 2 or a.shape != w.shape:
            raise InvalidParameterError("omegas and amplitudes must be matching 1d arrays with >= 2 samples")
        with np.errstate(over="ignore", invalid="ignore"):
            span = w[-1] - w[0]
        if not span < math.inf:  # an inf sample, or a span past float range
            raise InvalidParameterError(f"omegas must span a finite range, got {w[0]:.6g} to {w[-1]:.6g}")
        if not np.all(np.diff(w) > 0):
            raise InvalidParameterError("omegas must be strictly increasing")
        with np.errstate(over="ignore"):
            norm = np.trapezoid(np.abs(a) ** 2, w)
        if not 0 < norm < math.inf:
            raise InvalidParameterError(f"spectrum norm {norm} is not positive and finite")
        if self.normalize:
            a = a / math.sqrt(norm)
        elif abs(norm - 1.0) > 1e-8:
            raise InvalidParameterError(f"spectrum norm {norm} differs from 1; pass normalize=True")
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "amplitudes", a)

    def spectral_amplitude(self, w):
        w = np.asarray(w, dtype=float)
        re = np.interp(w, self.omegas, self.amplitudes.real, left=0.0, right=0.0)
        im = np.interp(w, self.omegas, self.amplitudes.imag, left=0.0, right=0.0)
        return re + 1j * im

    def spectral_density(self, w):
        return np.abs(self.spectral_amplitude(w)) ** 2


PulseSpec = Union[GaussianPulse, NarrowBandPulse, TabulatedSpectrumPulse]


@dataclass(frozen=True)
class MediumProfile:
    """Coupling profile g(z) >= 0 on [0, L]; g = 0 outside the medium."""

    length: float  # L [c/Gamma]
    g0: float | None = None  # uniform coupling, exclusive with samples
    z_samples: np.ndarray | None = None
    g_samples: np.ndarray | None = None
    _cum_g2: np.ndarray | None = field(default=None, repr=False)
    # exact g0^2 when built from a requested depth; sqrt would lose the last bit
    _g0_sq: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.length > 0:
            raise InvalidParameterError(f"length must be positive, got {self.length}")
        if (self.g0 is None) == (self.z_samples is None):
            raise InvalidParameterError("provide exactly one of g0 or (z_samples, g_samples)")
        if self.g0 is not None:
            if self.g0 < 0:
                raise InvalidParameterError(f"g0 must be nonnegative, got {self.g0}")
            if self._g0_sq is None:
                object.__setattr__(self, "_g0_sq", self.g0**2)
            return
        z = np.asarray(self.z_samples, dtype=float)
        g = np.asarray(self.g_samples, dtype=float)
        if z.ndim != 1 or z.size < 2 or g.shape != z.shape:
            raise InvalidParameterError("z_samples and g_samples must be matching 1d arrays with >= 2 samples")
        if not (np.all(np.diff(z) > 0) and z[0] == 0.0 and abs(z[-1] - self.length) < 1e-12 * self.length):
            raise InvalidParameterError("z_samples must increase strictly from 0 to length")
        if np.any(g < 0):
            raise InvalidParameterError("g_samples must be nonnegative")
        # exact integral of the squared linear interpolant, panel by panel
        dz = np.diff(z)
        panels = dz * (g[:-1] ** 2 + g[:-1] * g[1:] + g[1:] ** 2) / 3.0
        cum = np.concatenate(([0.0], np.cumsum(panels)))
        object.__setattr__(self, "z_samples", z)
        object.__setattr__(self, "g_samples", g)
        object.__setattr__(self, "_cum_g2", cum)

    @property
    def od0(self):
        # resonant optical depth, OD0 = (4/(c Gamma)) * integral of g^2 over the medium
        if self.g0 is not None:
            return 4.0 * self._g0_sq * self.length
        return 4.0 * self._cum_g2[-1]

    def g_of(self, z):
        z = np.asarray(z, dtype=float)
        if self.g0 is not None:
            return np.where((z >= 0.0) & (z <= self.length), self.g0, 0.0)
        inside = (z >= 0.0) & (z <= self.length)
        return np.where(inside, np.interp(z, self.z_samples, self.g_samples), 0.0)


def make_gaussian_pulse(sigma, detuning=0.0):
    """Normalized Gaussian pulse of RMS intensity duration sigma [1/Gamma]."""
    return GaussianPulse(sigma=float(sigma), detuning=float(detuning))


def make_uniform_medium(od0, length=1.0):
    """Uniform medium with the requested resonant optical depth."""
    if not 0 <= od0 < math.inf:
        raise InvalidParameterError(f"od0 must be finite and nonnegative, got {od0}")
    if not length > 0:
        raise InvalidParameterError(f"length must be positive, got {length}")
    g0_sq = od0 / (4.0 * length)  # c = Gamma = 1
    return MediumProfile(length=float(length), g0=math.sqrt(g0_sq), _g0_sq=g0_sq)


def make_tabulated_medium(z_samples, g_samples):
    z = np.asarray(z_samples, dtype=float)
    return MediumProfile(length=float(z[-1]), z_samples=z, g_samples=np.asarray(g_samples, dtype=float))


def od_integral(medium: MediumProfile, z):
    """Resonant optical depth accumulated from 0 to z, monotone in z."""
    zf = float(z)
    if zf < 0.0 or zf > medium.length * (1 + 1e-12):
        raise InvalidParameterError(f"z={zf} outside [0, {medium.length}]")
    zf = min(zf, medium.length)
    if medium.g0 is not None:
        return medium.od0 * zf / medium.length
    zs, gs, cum = medium.z_samples, medium.g_samples, medium._cum_g2
    i = int(np.searchsorted(zs, zf, side="right")) - 1
    i = min(max(i, 0), zs.size - 2)
    gz = np.interp(zf, zs, gs)
    partial = (zf - zs[i]) * (gs[i] ** 2 + gs[i] * gz + gz**2) / 3.0
    return 4.0 * (cum[i] + partial)


REPORT_FIELDS = ("P_T", "P_S", "tau_0", "tau_T", "tau_S", "t_g", "t_W", "t_S", "od_eff", "method")


@dataclass(frozen=True)
class DelayReport:
    """Bundle of probabilities and dwell/delay times for one (pulse, medium) case.

    Times are in units of 1/Gamma. The narrow-band-only delays t_g, t_W, t_S are
    NaN for finite-bandwidth pulses.
    """

    P_T: float
    P_S: float
    tau_0: float
    tau_T: float
    tau_S: float  # NaN when nothing scatters (od0 = 0)
    t_g: float
    t_W: float
    t_S: float
    od_eff: float
    method: str  # "analytic" or "timedomain"

    def __post_init__(self):
        if not (0.0 < self.P_T <= 1.0 + 1e-9):
            raise InvalidParameterError(f"P_T={self.P_T} outside (0, 1]")
        if abs(self.P_T + self.P_S - 1.0) > 1e-6:
            raise InvalidParameterError(f"P_T + P_S = {self.P_T + self.P_S} is not 1")
        if self.od_eff < -1e-12:
            raise InvalidParameterError(f"od_eff={self.od_eff} is negative")
        if self.method not in ("analytic", "timedomain"):
            raise InvalidParameterError(f"unknown method tag {self.method!r}")

    def as_dict(self):
        return {k: getattr(self, k) for k in REPORT_FIELDS}
