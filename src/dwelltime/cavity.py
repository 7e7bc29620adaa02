"""Single-sided driving of a two-mirror cavity: dwell times of the intracavity field.

Same weak-value structure as the atomic medium, with the cavity mode playing the
role of the excitation. Post-selecting on the photon returning through the input
mirror gives a back-reflection dwell time tau_B that can be negative while the
unconditioned dwell time stays positive. Frequencies are offsets from the cavity
resonance; gamma1 (input) and gamma2 (output) are the mirror intensity decay rates.
Each average over a pulse spectrum integrates over the pulse's own window: every
integrand carries the pulse's density, so the cavity line needs no room of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import PulseSpec
from .errors import InvalidParameterError
from .spectral import _spectral_integrals


@dataclass(frozen=True)
class CavityParams:
    """Intensity decay rates through the input (1) and output (2) mirrors."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not (self.gamma1 > 0 and self.gamma2 > 0):
            raise InvalidParameterError("both mirror rates must be positive")


@dataclass(frozen=True)
class MirrorParams:
    """Amplitude reflectivities and round-trip time of the equivalent etalon."""

    r1: float
    r2: float
    tau_rt: float

    def __post_init__(self):
        if not (0.0 < self.r1 < 1.0 and 0.0 < self.r2 < 1.0):
            raise InvalidParameterError("reflectivities must lie in (0, 1); the bounce series diverges otherwise")
        if not self.tau_rt > 0:
            raise InvalidParameterError("round-trip time must be positive")


def scatter_probabilities(params: CavityParams, pulse: PulseSpec):
    """(P_ref, P_tr): probabilities of leaving through the input or output mirror."""
    g1, g2 = params.gamma1, params.gamma2

    def rows(w, dens):
        with np.errstate(over="ignore", invalid="ignore"):
            w2 = 4.0 * w * w
            ref = dens * ((g2 - g1) ** 2 + w2) / ((g1 + g2) ** 2 + w2)
        return dens, np.where(np.isinf(w2), dens, ref)  # its limit where 4 w^2 overflows

    (norm, ref_raw), _ = _spectral_integrals(pulse, rows)
    p_ref = float(ref_raw / norm)
    return p_ref, 1.0 - p_ref


def dwell_avg(params: CavityParams, pulse: PulseSpec):
    """Unconditioned dwell time: time integral of the mode population.

    Equals P_tr / gamma2, since output leakage drains the mode at rate gamma2.
    """
    g1, g2 = params.gamma1, params.gamma2

    def rows(w, dens):
        with np.errstate(over="ignore"):
            return dens, dens * 4.0 * g1 / ((g1 + g2) ** 2 + 4.0 * w * w)

    (norm, raw), _ = _spectral_integrals(pulse, rows)
    return float(raw / norm)


def tau_B_direct(params: CavityParams, pulse: PulseSpec):
    """Dwell time conditioned on back-reflection, from the weak-value integral."""
    g1, g2 = params.gamma1, params.gamma2

    def rows(w, dens):
        with np.errstate(over="ignore", invalid="ignore"):
            w2 = 4.0 * w * w
            den2 = (g1 + g2) ** 2 + w2
            ref2 = ((g2 - g1) ** 2 + w2) / den2
            num = dens * (g1 - g2 + 2j * w) / ((g1 + g2 + 2j * w) * den2)
        far = np.isinf(w2)  # where 4 w^2 overflows: the limits ref2 -> 1, num -> 0
        return dens * np.where(far, 1.0, ref2), np.where(far, 0.0, num)

    (ref_raw, num_raw), _ = _spectral_integrals(pulse, rows)
    if not ref_raw.real > 0.0:
        raise InvalidParameterError("nothing reflects; conditional dwell undefined")
    return float(4.0 * g1 * np.real(num_raw) / ref_raw.real)


def tau_B_closed(params: CavityParams):
    """Resonant narrow-band tau_B in terms of the effective depth -ln P_ref."""
    g1, g2 = params.gamma1, params.gamma2
    if not g1 < g2:
        raise InvalidParameterError("closed form holds on the undercoupled branch gamma1 < gamma2")
    eta0 = -2.0 * math.log((g2 - g1) / (g1 + g2))
    return -2.0 * math.sinh(eta0 / 2.0) / g2


def mirror_map(params: CavityParams, tau_rt=None):
    """Equivalent etalon reflectivities for the given rates; tau_rt defaults
    to 0.01 / gamma2 (well inside the fast round-trip regime)."""
    if tau_rt is None:
        tau_rt = 0.01 / params.gamma2
    if not tau_rt > 0:
        raise InvalidParameterError("round-trip time must be positive")
    vals = []
    for g in (params.gamma1, params.gamma2):
        x = g * tau_rt / 4.0
        if x >= 1.0:
            raise InvalidParameterError(f"gamma * tau_rt / 4 = {x} >= 1 leaves no valid reflectivity")
        vals.append((1.0 - x) / (1.0 + x))
    return MirrorParams(r1=vals[0], r2=vals[1], tau_rt=float(tau_rt))


def feynman_tau_B(mirrors: MirrorParams, n_terms):
    """Bounce-by-bounce (path sum) construction of tau_B.

    Each n-bounce path contributes n round trips weighted by its amplitude;
    the sum is normalized by the net reflection amplitude. Returns
    (series_value, closed_form); the partial sums converge geometrically in
    r1 * r2.
    """
    if int(n_terms) < 1:
        raise InvalidParameterError("need at least one bounce term")
    r1, r2, t = mirrors.r1, mirrors.r2, mirrors.tau_rt
    if r1 == r2:
        raise InvalidParameterError("net reflection vanishes at r1 = r2")
    t1_sq = 1.0 - r1 * r1
    n = np.arange(1, int(n_terms) + 1, dtype=float)
    series = float(np.sum(n * (r1 * r2) ** (n - 1)))
    net_reflection = (r1 - r2) / (1.0 - r1 * r2)
    series_value = -t * t1_sq * r2 * series / net_reflection
    closed_form = -t * t1_sq * r2 / ((1.0 - r1 * r2) * (r1 - r2))
    return series_value, closed_form
