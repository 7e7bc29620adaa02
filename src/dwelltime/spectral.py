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
)
from .errors import InvalidParameterError, NumericError

DEFAULT_TOL = 1e-9
OD_EFF_TOL = 1e-10  # relative bracket width at which invert_od_eff stops bisecting
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


def _spectral_window(pulse: PulseSpec):
    """Center and half-width wide enough for both the line and the pulse spectrum."""
    if isinstance(pulse, GaussianPulse):
        return pulse.detuning, max(20.0, 8.0 / pulse.sigma)
    if isinstance(pulse, TabulatedSpectrumPulse):
        lo, hi = pulse.omegas[0], pulse.omegas[-1]
        center = 0.5 * (lo + hi)
        return center, max(20.0, 0.5 * (hi - lo))
    raise InvalidParameterError("narrow-band pulses have no quadrature window")


def converge_trapezoid(rows_fn, center, half_width):
    """Integrate each row of rows_fn(w) on a doubling uniform grid until stable.

    Stops when every row changes by less than DEFAULT_TOL * max(|value|, 1)
    under one doubling. Returns (values, panel_count).
    """
    prev = None
    n = N_START
    while n <= N_CAP:
        vals = _trapezoid(rows_fn, center, half_width, n)
        if prev is not None and np.all(np.abs(vals - prev) <= DEFAULT_TOL * np.maximum(np.abs(vals), 1.0)):
            return vals, n
        prev = vals
        n *= 2
    raise NumericError(f"quadrature not converged at {N_CAP} panels (tol={DEFAULT_TOL})")


def _trapezoid(rows_fn, center, half_width, n):
    """Trapezoid sum of each row of rows_fn(w) over n uniform panels."""
    w = np.linspace(center - half_width, center + half_width, n + 1)
    h = w[1] - w[0]
    if not h > 0.0:
        raise InvalidParameterError(f"quadrature panels near w = {w[0]:.6g} are finer than "
                                    "float64 resolves there")
    rows = np.atleast_2d(np.asarray(rows_fn(w)))
    return h * (rows.sum(axis=1) - 0.5 * (rows[:, 0] + rows[:, -1]))


def _core_rows(pulse: PulseSpec, od0):
    """The four real rows of a finite-bandwidth pass, as a function of w: the
    spectral norm, P_T, P_S and the tau_T numerator, each unnormalized."""

    def rows(w):
        dens = pulse.spectral_density(w)
        x = od0 * lorentzian(w)
        trans = dens * np.exp(-x)
        return np.stack([dens, trans, dens * -np.expm1(-x), trans * group_delay(w, od0)])

    return rows


def _core_integrals(pulse: PulseSpec, medium: MediumProfile):
    """The one pass per case: P_T, P_S, tau_T, tau_S, od_eff and the panel count.

    Narrow band: closed forms at the carrier (panels = 0). Finite bandwidth:
    the four _core_rows on the grid that converge_trapezoid picks.
    """
    od0 = medium.od0
    if isinstance(pulse, NarrowBandPulse):
        x = od0 * float(lorentzian(pulse.detuning))
        pt, ps, n = math.exp(-x), -math.expm1(-x), 0
        tau_t = group_delay(pulse.detuning, od0)
        tau_s = _scattered_delay_point(pulse.detuning, od0)
        od_eff = x
    else:
        center, half = _spectral_window(pulse)
        (norm, pt_raw, ps_raw, num), n = converge_trapezoid(_core_rows(pulse, od0), center, half)
        if not pt_raw > 0.0:
            raise InvalidParameterError(f"P_T underflows to 0 at od0 = {od0:.6g}; "
                                        "the transmitted spectrum is below float64 range")
        pt, ps, tau_t = pt_raw / norm, ps_raw / norm, num / pt_raw
        # 0/0 at od0 = 0, where the scattered channel is empty
        tau_s = 1.0 - num / ps_raw if ps_raw > 0.0 else math.nan
        od_eff = -np.log(pt)
    return {"pt": float(pt), "ps": float(ps), "tau_t": float(tau_t), "tau_s": float(tau_s),
            "od_eff": float(od_eff), "panels": n}


# transmission_probability, tau_T and tau_S each return fields of delay_report
# from a pass of their own. Nothing in the package calls them; they are kept
# because the benchmark in perfbench/ does.

def transmission_probability(pulse: PulseSpec, medium: MediumProfile):
    """(P_T, P_S) of delay_report: probabilities that the photon survives or scatters."""
    core = _core_integrals(pulse, medium)
    return core["pt"], core["ps"]


def tau_T(pulse: PulseSpec, medium: MediumProfile):
    """tau_T of delay_report: excited-state dwell time conditioned on transmission.

    Negative values are allowed: the transmitted weak value of the excitation
    integrates the group delay over the surviving spectrum.
    """
    return _core_integrals(pulse, medium)["tau_t"]


def tau_S(pulse: PulseSpec, medium: MediumProfile):
    """tau_S of delay_report: excited-state dwell time conditioned on scattering.

    Finite bandwidth: from the outcome sum rule. Narrow band: the per-frequency
    scattered delay at the carrier, which the sum rule reduces to there.
    Raises where delay_report gives NaN, at od0 = 0.
    """
    if medium.od0 == 0.0:
        raise InvalidParameterError("nothing scatters at od0 = 0")
    return _core_integrals(pulse, medium)["tau_s"]


def scattered_delay(pulse: PulseSpec, medium: MediumProfile):
    """Arrival-time delay of the scattered photon relative to free flight.

    Narrow band: closed form. Finite bandwidth: average of the per-frequency
    delay over the scattered part of the spectrum.
    """
    if medium.od0 == 0.0:
        raise InvalidParameterError("nothing scatters at od0 = 0")
    od0 = medium.od0
    if isinstance(pulse, NarrowBandPulse):
        return float(_scattered_delay_point(pulse.detuning, od0))
    center, half = _spectral_window(pulse)

    def rows(w):
        dens = pulse.spectral_density(w)
        weight = dens * -np.expm1(-od0 * lorentzian(w))
        return np.stack([weight, weight * _scattered_delay_point(w, od0)])

    (den, num), _ = converge_trapezoid(rows, center, half)
    return float(num / den)


def _scattered_delay_point(w, od0):
    """Per-frequency scattered delay; NaN where nothing scatters (x = 0), as tau_S."""
    line = lorentzian(w)
    x = np.asarray(od0 * line)  # > 0 whenever anything scatters
    # x / inf -> 0 in dense media; the 0 / 0 at x = 0 is overwritten below
    with np.errstate(over="ignore", invalid="ignore"):
        q = 1.0 - 4.0 * np.asarray(w, dtype=float) ** 2
        shift = np.asarray(x / np.expm1(x) - 1.0)
        # that difference carries an absolute error of about eps, so below
        # x = 1e-3 its series keeps the relative accuracy of its -x / 2
        small = x < 1e-3
        xs = x[small]
        shift[small] = xs * (xs / 12.0 - 0.5) - xs**4 / 720.0
        t_s = np.asarray(2.0 * line + q * line * shift)
    t_s[x == 0] = np.nan
    return t_s


def invert_od_eff(pulse: PulseSpec, od_eff):
    """Resonant optical depth od0 whose effective depth -ln P_T equals od_eff, by bisection."""
    target = float(od_eff)
    if target < 0:
        raise InvalidParameterError(f"od_eff must be nonnegative, got {target}")
    if target == 0.0:
        return 0.0
    if isinstance(pulse, NarrowBandPulse):
        return target / float(lorentzian(pulse.detuning))
    center, half = _spectral_window(pulse)

    def f(od0):
        # -ln P_T from the two rows it needs, not the full pass of delay_report
        def rows(w):
            dens = pulse.spectral_density(w)
            return np.stack([dens, dens * np.exp(-od0 * lorentzian(w))])

        (norm, pt_raw), _ = converge_trapezoid(rows, center, half)
        return float(-np.log(pt_raw / norm))

    # od_eff <= od0 always, so od0 = target is a valid lower bracket
    lo = target
    hi = max(2.0 * target, 1.0)
    while f(hi) < target:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise NumericError(f"no od0 below 1e9 reaches od_eff = {target}")
    while hi - lo > OD_EFF_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def delay_report(pulse: PulseSpec, medium: MediumProfile):
    """Full analytic DelayReport for one case; conditional times are NaN at od0 = 0."""
    core = _core_integrals(pulse, medium)
    t_g = t_W = t_S = math.nan
    if isinstance(pulse, NarrowBandPulse):
        t_g, t_W, t_S = core["tau_t"], wigner_delay(pulse.detuning), core["tau_s"]
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


def asymptotics(pulse: PulseSpec, medium: MediumProfile, od_eff):
    """Dilute- and dense-medium limiting forms for a Gaussian pulse, given the
    case's effective depth od_eff (delay_report(pulse, medium).od_eff)."""
    if not isinstance(pulse, GaussianPulse):
        raise InvalidParameterError("asymptotic forms are derived for Gaussian pulses")
    if pulse.sigma > 0.2:
        warnings.warn("asymptotics assume sigma * Gamma << 1; sigma exceeds 0.2", stacklevel=2)
    od0 = medium.od0
    sig = pulse.sigma
    return Asymptotics(
        od_eff=od_eff,
        pt_low_od=1.0 - math.sqrt(math.pi / 2.0) * sig * od0,
        pt_high_od=math.exp(-sig * math.sqrt(2.0 * od0)),
        tau_t_low_od=math.sqrt(math.pi / 2.0) * (sig / 4.0) * od0**2,
        tau_t_high_od=od_eff / 2.0,
        tau_s_low_od=1.0 - math.sqrt(2.0 / math.pi) * od_eff / (4.0 * sig),
        tau_s_high_od=1.0 - od_eff / (2.0 * math.expm1(od_eff)) if od_eff > 0 else 1.0,
    )
