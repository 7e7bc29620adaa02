"""Closed-form frequency-domain engine for dwell and delay times.

Fourier convention exp(+i w t). All formulas are in internal units c = Gamma = 1;
w is the offset from atomic resonance. The no-jump transmission amplitude through
optical depth od is exp(od * lorentzian(w) * (i*w - 1/2)), whose modulus gives
the familiar exp(-od * lorentzian(w) / 2) attenuation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import (
    DelayReport,
    GaussianPulse,
    MediumProfile,
    NarrowBandPulse,
    PulseSpec,
    TabulatedSpectrumPulse,
    make_uniform_medium,
    od_integral,
)
from .errors import (
    InvalidParameterError,
    NumericError,
    UndefinedConditionalError,
    UnsupportedVariantError,
)

DEFAULT_TOL = 1e-9
N_START = 1024
N_CAP = 2**20


def lorentzian(omega):
    """Resonance line shape 1 / (1 + (2 w)^2), unit height at w = 0; its limit 0
    where (2 w)^2 overflows."""
    w = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + 4.0 * w * w)


def group_delay(detuning, od0):
    """Stationary-phase transmission delay through resonant optical depth od0;
    its limit 0 where (1 + (2 w)^2)^2 overflows (|w| above about 6e76)."""
    w = np.asarray(detuning, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = 4.0 * w * w
        den = (1.0 + w2) ** 2
        delay = np.asarray(-od0 * (1.0 - w2) / den)
    delay[np.isinf(den)] = 0.0  # the limit, where the formula gives 0 (x / inf) or NaN (inf / inf)
    return delay if delay.ndim else float(delay)


def wigner_delay(detuning):
    """Scattering phase derivative of a single atom, 2 * lorentzian(detuning)."""
    return 2.0 * float(lorentzian(detuning))


def medium_response(medium: MediumProfile, z, omega):
    """Accumulated optical depth and phase at depth z: (od, phase) with phase = -w * od."""
    od_z = od_integral(medium, z)
    w = np.asarray(omega, dtype=float)
    od = od_z * lorentzian(w)
    return od, -w * od


def _spectral_window(pulse: PulseSpec):
    """Center and half-width wide enough for both the line and the pulse spectrum."""
    if isinstance(pulse, GaussianPulse):
        return pulse.detuning, max(20.0, 8.0 / pulse.sigma)
    if isinstance(pulse, TabulatedSpectrumPulse):
        lo, hi = pulse.omegas[0], pulse.omegas[-1]
        center = 0.5 * (lo + hi)
        return center, max(20.0, 0.5 * (hi - lo))
    raise UnsupportedVariantError("narrow-band pulses have no quadrature window")


def converge_trapezoid(rows_fn, center, half_width, *, tol=DEFAULT_TOL, grid_n=None):
    """Integrate each row of rows_fn(w) on a doubling uniform grid until stable.

    Stops when every row changes by less than tol * max(|value|, 1) under one
    doubling. grid_n pins the panel count instead (no convergence check).
    A tol below double precision, or not finite, raises NumericError.
    Returns (values, panel_count).
    """
    if grid_n is not None:
        w = np.linspace(center - half_width, center + half_width, int(grid_n) + 1)
        return _trapz_rows(rows_fn(w), w), int(grid_n)
    if not np.finfo(float).eps <= tol < math.inf:
        raise NumericError(f"tol={tol} cannot be certified: it must be finite and "
                           "not below double precision")
    prev = None
    n = N_START
    while n <= N_CAP:
        w = np.linspace(center - half_width, center + half_width, n + 1)
        vals = _trapz_rows(rows_fn(w), w)
        if prev is not None and np.all(np.abs(vals - prev) <= tol * np.maximum(np.abs(vals), 1.0)):
            return vals, n
        prev = vals
        n *= 2
    raise NumericError(f"quadrature not converged at {N_CAP} panels (tol={tol})")


def _trapz_rows(rows, w):
    rows = np.atleast_2d(np.asarray(rows))
    h = w[1] - w[0]
    return h * (rows.sum(axis=1) - 0.5 * (rows[:, 0] + rows[:, -1]))


def _core_integrals(pulse: PulseSpec, medium: MediumProfile, tol, grid_n):
    """The one pass per case: P_T, P_S, tau_T, tau_S, od_eff and the panel count.

    Narrow band: closed forms at the carrier (panels = 0). Finite bandwidth:
    four real rows (norm, P_T, P_S and the tau_T numerator) on one grid.
    """
    od0 = medium.od0
    if isinstance(pulse, NarrowBandPulse):
        x = od0 * float(lorentzian(pulse.detuning))
        pt, ps, n = math.exp(-x), -math.expm1(-x), 0
        tau_t = group_delay(pulse.detuning, od0)
        with np.errstate(over="ignore"):  # t_g / inf -> tau_S = 1, its dense limit
            tau_s = 1.0 - tau_t / float(np.expm1(x)) if x > 0 else math.nan
        od_eff = x
    else:
        center, half = _spectral_window(pulse)

        def rows(w):
            dens = pulse.spectral_density(w)
            x = od0 * lorentzian(w)
            trans = dens * np.exp(-x)
            return np.stack([dens, trans, dens * -np.expm1(-x), trans * group_delay(w, od0)])

        (norm, pt_raw, ps_raw, num), n = converge_trapezoid(rows, center, half, tol=tol, grid_n=grid_n)
        pt, ps, tau_t = pt_raw / norm, ps_raw / norm, num / pt_raw
        # 0/0 at od0 = 0, where the scattered channel is empty
        tau_s = 1.0 - num / ps_raw if ps_raw > 0.0 else math.nan
        od_eff = -np.log(pt)
    return {"pt": float(pt), "ps": float(ps), "tau_t": float(tau_t), "tau_s": float(tau_s),
            "od_eff": float(od_eff), "panels": n}


def transmission_probability(pulse: PulseSpec, medium: MediumProfile, *, tol=DEFAULT_TOL, grid_n=None):
    """(P_T, P_S): probabilities that the photon survives or scatters."""
    core = _core_integrals(pulse, medium, tol, grid_n)
    return core["pt"], core["ps"]


def tau_T(pulse: PulseSpec, medium: MediumProfile, *, tol=DEFAULT_TOL, grid_n=None):
    """Excited-state dwell time conditioned on transmission.

    Negative values are allowed: the transmitted weak value of the excitation
    integrates the group delay over the surviving spectrum.
    """
    return _core_integrals(pulse, medium, tol, grid_n)["tau_t"]


def tau_S(pulse: PulseSpec, medium: MediumProfile, *, tol=DEFAULT_TOL, grid_n=None):
    """Excited-state dwell time conditioned on scattering, from the outcome sum rule."""
    if medium.od0 == 0.0:
        raise UndefinedConditionalError("nothing scatters at od0 = 0")
    return _core_integrals(pulse, medium, tol, grid_n)["tau_s"]


def scattered_delay(pulse: PulseSpec, medium: MediumProfile, *, tol=DEFAULT_TOL, grid_n=None):
    """Arrival-time delay of the scattered photon relative to free flight.

    Narrow band: closed form. Finite bandwidth: average of the per-frequency
    delay over the scattered part of the spectrum.
    """
    if medium.od0 == 0.0:
        raise UndefinedConditionalError("nothing scatters at od0 = 0")
    od0 = medium.od0
    if isinstance(pulse, NarrowBandPulse):
        return float(_scattered_delay_point(pulse.detuning, od0))
    center, half = _spectral_window(pulse)

    def rows(w):
        dens = pulse.spectral_density(w)
        weight = dens * -np.expm1(-od0 * lorentzian(w))
        return np.stack([weight, weight * _scattered_delay_point(w, od0)])

    (den, num), _ = converge_trapezoid(rows, center, half, tol=tol, grid_n=grid_n)
    return float(num / den)


def _scattered_delay_point(w, od0):
    """Per-frequency scattered delay; NaN where nothing scatters (x = 0), as tau_S."""
    line = lorentzian(w)
    x = od0 * line  # > 0 whenever anything scatters
    # x / inf -> 0 in dense media; the 0 / 0 at x = 0 is overwritten below
    with np.errstate(over="ignore", invalid="ignore"):
        q = 1.0 - 4.0 * np.asarray(w, dtype=float) ** 2
        t_s = np.asarray(2.0 * line + q * line * (x / np.expm1(x) - 1.0))
    t_s[x == 0] = np.nan
    return t_s


def effective_od(pulse: PulseSpec, medium: MediumProfile, *, tol=DEFAULT_TOL, grid_n=None):
    """Effective optical depth -ln(P_T) seen by the full pulse spectrum."""
    if isinstance(pulse, NarrowBandPulse):
        return medium.od0 * float(lorentzian(pulse.detuning))
    center, half = _spectral_window(pulse)
    od0 = medium.od0

    def rows(w):
        dens = pulse.spectral_density(w)
        return np.stack([dens, dens * np.exp(-od0 * lorentzian(w))])

    (norm, pt_raw), _ = converge_trapezoid(rows, center, half, tol=tol, grid_n=grid_n)
    return float(-np.log(pt_raw.real / norm.real))


def invert_od_eff(pulse: PulseSpec, od_eff, *, length=1.0, tol=1e-10):
    """Resonant optical depth od0 whose effective depth equals od_eff, by bisection."""
    target = float(od_eff)
    if target < 0:
        raise InvalidParameterError(f"od_eff must be nonnegative, got {target}")
    if target == 0.0:
        return 0.0
    if isinstance(pulse, NarrowBandPulse):
        return target / float(lorentzian(pulse.detuning))

    def f(od0):
        return effective_od(pulse, make_uniform_medium(od0, length))

    # od_eff <= od0 always, so od0 = target is a valid lower bracket
    lo = target
    hi = max(2.0 * target, 1.0)
    while f(hi) < target:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise NumericError(f"no od0 below 1e9 reaches od_eff = {target}")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def delay_report(pulse: PulseSpec, medium: MediumProfile, *, tol=DEFAULT_TOL, grid_n=None):
    """Full analytic DelayReport for one case; conditional times are NaN at od0 = 0."""
    core = _core_integrals(pulse, medium, tol, grid_n)
    t_g = t_W = t_S = math.nan
    if isinstance(pulse, NarrowBandPulse):
        t_g, t_W = core["tau_t"], wigner_delay(pulse.detuning)
        if medium.od0 > 0:
            t_S = float(_scattered_delay_point(pulse.detuning, medium.od0))
    return DelayReport(
        P_T=core["pt"],
        P_S=core["ps"],
        tau_0=core["ps"],
        tau_T=core["tau_t"],
        tau_S=core["tau_s"],
        t_g=t_g,
        t_W=t_W,
        t_S=t_S,
        od_eff=core["od_eff"],
        method="analytic",
    )


@dataclass(frozen=True)
class Asymptotics:
    """Narrow-bandwidth limiting forms, valid for sigma << 1/Gamma."""

    od_eff: float
    pt_low_od: float
    pt_high_od: float
    tau_t_low_od: float
    tau_t_high_od: float
    tau_s_low_od: float
    tau_s_high_od: float


def asymptotics(pulse: PulseSpec, medium: MediumProfile, *, tol=DEFAULT_TOL):
    """Dilute- and dense-medium limiting forms for a Gaussian pulse."""
    if not isinstance(pulse, GaussianPulse):
        raise UnsupportedVariantError("asymptotic forms are derived for Gaussian pulses")
    if pulse.sigma > 0.2:
        warnings.warn("asymptotics assume sigma * Gamma << 1; sigma exceeds 0.2", stacklevel=2)
    od0 = medium.od0
    sig = pulse.sigma
    od_eff = effective_od(pulse, medium, tol=tol)
    return Asymptotics(
        od_eff=od_eff,
        pt_low_od=1.0 - math.sqrt(math.pi / 2.0) * sig * od0,
        pt_high_od=math.exp(-sig * math.sqrt(2.0 * od0)),
        tau_t_low_od=math.sqrt(math.pi / 2.0) * (sig / 4.0) * od0**2,
        tau_t_high_od=od_eff / 2.0,
        tau_s_low_od=1.0 - math.sqrt(2.0 / math.pi) * od_eff / (4.0 * sig),
        tau_s_high_od=1.0 - od_eff / (2.0 * math.expm1(od_eff)) if od_eff > 0 else 1.0,
    )
