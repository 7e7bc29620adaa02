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
from functools import partial, reduce

import numpy as np

from .domain import (
    DelayReport,
    GaussianPulse,
    MediumProfile,
    NarrowBandPulse,
    PulseSpec,
    SIGMA_MAX,
)
from .errors import InvalidParameterError, NumericError

DEFAULT_TOL = 1e-9
OD_EFF_TOL = 1e-10  # relative bracket width at which invert_od_eff stops bisecting
# relative distance from invert_od_eff's Newton root outside which its bisection replay
# takes the sign of od0 - root for that of -ln P_T(od0) - od_eff; Newton stops at a step this small
_REPLAY_GAP = 1e-12
_NEWTON_STEPS = 30  # Newton passes after which invert_od_eff bisects on -ln P_T alone
# above this od_eff, P_T = exp(-od_eff) is subnormal and the inversion loses its accuracy
OD_EFF_MAX = -math.log(np.finfo(float).tiny)
N_START = 1024
N_CAP = 2**20
# two-point Gauss-Legendre on [-1, 1]: nodes +-_GL_X, each of weight 1
_GL_X = math.sqrt(1.0 / 3.0)
# table intervals whose nodes a level samples at once: the temporaries of one block
# stay near 300 kB however many samples the table has, so a table pass does not
# grow and hand back the heap on every call
_GL_BLOCK = 2048


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


def _spectral_window(pulse: GaussianPulse, od_eff=0.0):
    """Center and half-width of a Gaussian pulse's quadrature window,
    max(8, sqrt((min(od_eff, OD_EFF_MAX) + 40) / 2)) / sigma, which leaves out density of
    mass at most e^-40 P_T for od_eff >= -ln P_T. InvalidParameterError where the squared
    offsets over the window, which the density takes, pass float range."""
    half = max(8.0, math.sqrt(0.5 * (min(od_eff, OD_EFF_MAX) + 40.0))) / pulse.sigma
    if not half < SIGMA_MAX:
        raise InvalidParameterError(f"sigma = {pulse.sigma:.6g} spreads the spectrum past float range")
    return pulse.detuning, half


def _spectral_integrals(pulse: PulseSpec, rows, od_eff=0.0):
    """(values, panels): the integral of each row of rows(w, dens) over the pulse
    spectrum, dens its density at w, on _level's nodes until _converge stops them;
    a narrow-band pulse gives rows(detuning, 1.0) and 0 panels; od_eff >= -ln P_T sizes
    a Gaussian's window. Every frequency integral of the package is taken here."""
    if isinstance(pulse, NarrowBandPulse):
        return _level(pulse, rows, 0), 0
    return _converge(lambda n: _level(pulse, rows, n, od_eff))


def _level(pulse: PulseSpec, rows, n, od_eff=0.0):
    """The row integrals on level n's nodes (_nodes) for a -ln P_T of at most od_eff."""
    if isinstance(pulse, NarrowBandPulse):
        return np.asarray(rows(pulse.detuning, 1.0))
    return _sum_blocks(integrate(np.asarray(rows(w, pulse.spectral_density(w))))
                       for w, integrate in _nodes(pulse, n, od_eff))


def _nodes(pulse: PulseSpec, n, od_eff=0.0):
    """Level n's blocks (w, integrate): frequency nodes w, and integrate(rows), the rule
    that sums rows sampled at w along their last axis into the block's integrals. The
    level's integrals are the blocks' sum (_sum_blocks).

    A Gaussian: one block, the trapezoid on n uniform panels over its window for a
    -ln P_T of at most od_eff. A table: two-point Gauss-Legendre on each interval
    between its own samples and the n + 1 uniform points over its span, _GL_BLOCK
    intervals a block. Its density, |linear interpolant|^2, is quadratic on each such
    interval and 0 off the span, so only the rows' other factors limit the rule. Its
    nodes number at most 2 (n + m) for m table intervals; past n = N_CAP / 2 it raises
    _converge's NumericError.
    """
    if isinstance(pulse, GaussianPulse):
        w, h = _panel_grid(*_spectral_window(pulse, od_eff), n)
        return [(w, partial(_trapezoid, h))]
    if 2 * n > N_CAP:
        raise NumericError(f"quadrature not converged at {N_CAP} panels (tol={DEFAULT_TOL})")
    omegas = pulse.omegas
    # their union, as np.union1d takes it; np.unique's first call would import numpy.ma
    edges = np.sort(np.concatenate([omegas, np.linspace(omegas[0], omegas[-1], n + 1)]))
    edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
    return (_gauss_legendre(edges[i:i + _GL_BLOCK + 1]) for i in range(0, edges.size - 1, _GL_BLOCK))


def _gauss_legendre(edges):
    """The block (w, integrate) of two-point Gauss-Legendre on the k intervals between
    edges: w holds every interval's left node, then every interval's right node."""
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    k = half.size
    return (np.concatenate([mid - _GL_X * half, mid + _GL_X * half]),
            lambda rows: ((rows[..., :k] + rows[..., k:]) * half).sum(axis=-1))


def _sum_blocks(integrals):
    """The sum of a level's per-block integrals; a single block's, unchanged."""
    return reduce(np.add, integrals)


def _joined(blocks):
    """A level's blocks as one (w, integrate), for a caller that keeps every sample of
    the level; integrate sums each block's slice of the samples by its own rule."""
    ws, rules = zip(*blocks)
    if len(rules) == 1:
        return ws[0], rules[0]
    cuts = np.cumsum([w.size for w in ws[:-1]])
    return np.concatenate(ws), lambda rows: _sum_blocks(
        rule(part) for rule, part in zip(rules, np.split(rows, cuts, axis=-1)))


def _converge(level):
    """Double n from N_START until no row of level(n), the row integrals on n panels,
    changes by more than DEFAULT_TOL * max(|value|, 1). Returns (values, n)."""
    prev = None
    n = N_START
    while n <= N_CAP:
        vals = level(n)
        if prev is not None and np.all(np.abs(vals - prev) <= DEFAULT_TOL * np.maximum(np.abs(vals), 1.0)):
            return vals, n
        prev = vals
        n *= 2
    raise NumericError(f"quadrature not converged at {N_CAP} panels (tol={DEFAULT_TOL})")


def _panel_grid(center, half_width, n):
    """The n + 1 uniform nodes over center +- half_width, and their spacing h > 0."""
    w = np.linspace(center - half_width, center + half_width, n + 1)
    h = w[1] - w[0]
    if not h > 0.0:
        raise InvalidParameterError(f"quadrature panels near w = {w[0]:.6g} are finer than "
                                    "float64 resolves there")
    return w, h


def _trapezoid(h, rows):
    """Trapezoid sum along the last axis of samples spaced h apart."""
    return h * (rows.sum(axis=-1) - 0.5 * (rows[..., 0] + rows[..., -1]))


def _core_rows(od0):
    """The four real rows of a finite-bandwidth pass, as a function of (w, dens):
    the spectral norm, P_T, P_S and the tau_T numerator, each unnormalized."""

    def rows(w, dens):
        x = od0 * lorentzian(w)
        trans = dens * np.exp(-x)
        return np.stack([dens, trans, dens * -np.expm1(-x), trans * group_delay(w, od0)])

    return rows


def _core_pass(pulse: PulseSpec, medium: MediumProfile):
    """The one pass per case: (its DelayReport, the panel count).

    Narrow band: closed forms at the carrier (0 panels). Finite bandwidth: the
    four _core_rows, with tau_S from the outcome sum rule and the narrow-band-only
    delays NaN. The conditional times are NaN at od0 = 0.
    """
    od0 = medium.od0
    if not math.isfinite(od0):  # a depth over a subnormal length needs g0^2 past float range
        raise InvalidParameterError(f"od0 = {od0:.6g} over length {medium.length:.6g} is past float range")
    if isinstance(pulse, NarrowBandPulse):
        od_eff = od0 * float(lorentzian(pulse.detuning))
        pt, ps, n = math.exp(-od_eff), -math.expm1(-od_eff), 0
        tau_t = t_g = group_delay(pulse.detuning, od0)
        tau_s = t_s = float(_scattered_delay_point(pulse.detuning, od0))
        t_w = wigner_delay(pulse.detuning)
    else:
        rows = _core_rows(od0)
        (norm, pt_raw, ps_raw, num), n = _spectral_integrals(pulse, rows)
        # a dense medium transmits in the far wing: re-run on the window of this -ln P_T
        bound = -math.log(pt_raw / norm) if pt_raw > 0.0 else OD_EFF_MAX
        if isinstance(pulse, GaussianPulse) and _spectral_window(pulse, bound) != _spectral_window(pulse):
            (norm, pt_raw, ps_raw, num), n = _spectral_integrals(pulse, rows, bound)
        if not pt_raw > 0.0:
            raise InvalidParameterError(f"P_T underflows to 0 at od0 = {od0:.6g}; "
                                        "the transmitted spectrum is below float64 range")
        pt, ps, tau_t = pt_raw / norm, ps_raw / norm, num / pt_raw
        # 0/0 at od0 = 0, where the scattered channel is empty
        tau_s = 1.0 - num / ps_raw if ps_raw > 0.0 else math.nan
        t_g = t_w = t_s = math.nan
        od_eff = -np.log(pt)
    report = DelayReport(P_T=float(pt), P_S=float(ps), tau_0=float(ps), tau_T=float(tau_t),
                         tau_S=float(tau_s), t_g=t_g, t_W=t_w, t_S=t_s,
                         od_eff=float(od_eff), method="analytic")
    return report, n


def delay_report(pulse: PulseSpec, medium: MediumProfile):
    """Full analytic DelayReport for one case; conditional times are NaN at od0 = 0."""
    return _core_pass(pulse, medium)[0]


# transmission_probability, tau_T and tau_S are views of delay_report. Nothing
# in the package calls them; they are kept because the benchmark in perfbench/
# does.

def transmission_probability(pulse: PulseSpec, medium: MediumProfile):
    """(P_T, P_S) of delay_report: probabilities that the photon survives or scatters."""
    report = delay_report(pulse, medium)
    return report.P_T, report.P_S


def tau_T(pulse: PulseSpec, medium: MediumProfile):
    """tau_T of delay_report: excited-state dwell time conditioned on transmission.

    Negative values are allowed: the transmitted weak value of the excitation
    integrates the group delay over the surviving spectrum.
    """
    return delay_report(pulse, medium).tau_T


def tau_S(pulse: PulseSpec, medium: MediumProfile):
    """tau_S of delay_report: excited-state dwell time conditioned on scattering.

    Finite bandwidth: from the outcome sum rule. Narrow band: the per-frequency
    scattered delay at the carrier, which the sum rule reduces to there.
    Raises where delay_report gives NaN, at od0 = 0.
    """
    if medium.od0 == 0.0:
        raise InvalidParameterError("nothing scatters at od0 = 0")
    return delay_report(pulse, medium).tau_S


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

    def rows(w, dens):
        weight = dens * -np.expm1(-od0 * lorentzian(w))
        return np.stack([weight, weight * _scattered_delay_point(w, od0)])

    (den, num), _ = _spectral_integrals(pulse, rows, od0)
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
    """Resonant optical depth od0 with -ln P_T = od_eff. InvalidParameterError above
    OD_EFF_MAX, and where a narrow-band carrier's line leaves od0 without a finite value.

    The result is the bisection's, to the bit. Newton finds the root of the bisection's
    own objective -ln P_T(od0); the bisection is then replayed against that root, and
    evaluates the objective only at points within _REPLAY_GAP of it. A Newton iterate
    past 1e9 raises the bisection's NumericError at once; where Newton finds no finite
    root otherwise, the bisection runs on the objective alone. Every pass reuses each
    level's nodes, rule (_nodes, _joined) and density, built once per inversion.
    """
    target = float(od_eff)
    if not 0.0 <= target <= OD_EFF_MAX:
        raise InvalidParameterError(f"od_eff must lie in [0, {OD_EFF_MAX:.6g}], past which P_T "
                                    f"underflows the normal float64 range; got {target:.6g}")
    if target == 0.0:
        return 0.0
    if isinstance(pulse, NarrowBandPulse):
        line = float(lorentzian(pulse.detuning))
        if not (line > 0.0 and math.isfinite(target / line)):
            raise InvalidParameterError(f"no finite od0 reaches od_eff = {target:.6g} at detuning "
                                        f"{pulse.detuning:.6g}, where the line is {line:.6g}")
        return target / line
    levels = {}  # panel count -> the od0-independent parts: rule, density, line, norm
    trans = {}  # panel count -> the transmitted samples at the latest od0 on that level

    def level(n, od0):
        if n not in levels:
            w, integrate = _joined(_nodes(pulse, n, target))
            dens = pulse.spectral_density(w)
            levels[n] = integrate, dens, lorentzian(w), integrate(dens)
        integrate, dens, line, norm = levels[n]
        trans[n] = dens * np.exp(-od0 * line)
        return np.array([norm, integrate(trans[n])])

    def f(od0):
        # (-ln P_T, the level _converge stopped at); a P_T below float range lies above
        # every target, as -ln 0 = inf would
        (norm, pt_raw), n = _converge(lambda n: level(n, od0))
        return (float(-np.log(pt_raw / norm)) if pt_raw > 0.0 else math.inf), n

    def newton_root():
        # f is concave and increasing from f(0) = 0, so from od0 = target the iterates
        # rise to the root without overshooting, and one past 1e9 puts the root beyond the
        # bracket's reach; NaN where Newton finds no root
        od0 = target
        for _ in range(_NEWTON_STEPS):
            try:
                value, n = f(od0)
            except NumericError:  # the bisection's own points may still converge
                return math.nan
            if not math.isfinite(value):
                return math.nan
            integrate, _, line, _ = levels[n]
            slope = float(integrate(trans[n] * line) / integrate(trans[n]))
            if not slope > 0.0:
                return math.nan
            step = (target - value) / slope
            od0 += step
            if not od0 <= 1e9:
                raise NumericError(f"no od0 below 1e9 reaches od_eff = {target}")
            if abs(step) <= _REPLAY_GAP * od0:
                return od0
        return math.nan

    root = newton_root()

    def below(od0):
        # f(od0) < target, read off the root outside its gap; a NaN root fails the gap
        # test, so every point is evaluated
        if abs(od0 - root) > _REPLAY_GAP * root:
            return od0 < root
        return f(od0)[0] < target

    # od_eff <= od0 always, so od0 = target is a valid lower bracket
    lo = target
    hi = max(2.0 * target, 1.0)
    while below(hi):
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise NumericError(f"no od0 below 1e9 reaches od_eff = {target}")
    while hi - lo > OD_EFF_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
