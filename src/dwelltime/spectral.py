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
from .errors import DwellTimeError, InvalidParameterError, NumericError

DEFAULT_TOL = 1e-9
OD_EFF_TOL = 1e-10  # relative bracket width at which invert_od_eff stops bisecting
# relative distance from invert_od_eff's Newton root outside which its bisection replay
# takes the sign of od0 - root for that of -ln P_T(od0) - od_eff; Newton stops at a step this small
_REPLAY_GAP = 1e-12
_NEWTON_STEPS = 30  # Newton passes after which invert_od_eff bisects on -ln P_T alone
# above this od_eff, P_T = exp(-od_eff) is subnormal and the inversion loses its accuracy
OD_EFF_MAX = -math.log(np.finfo(float).tiny)
N_START = 1024
N_START_MAPPED = 64  # a pass on the sinh grid (_nodes) starts here; _row_scale judges its rows one by one
N_CAP = 2**20
# two-point Gauss-Legendre on [-1, 1]: nodes +-_GL_X, each of weight 1
_GL_X = math.sqrt(1.0 / 3.0)
# depths x nodes that a level samples at once, in blocks of _BLOCK // 4 nodes: its
# temporaries stay below 1 MB however many panels or depths it has
_BLOCK = 2**14


def lorentzian(omega):
    """Resonance line shape 1 / (1 + (2 w)^2), unit height at w = 0; its limit 0
    where (2 w)^2 overflows."""
    w = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + 4.0 * w * w)


def group_delay(detuning, od0):
    """Stationary-phase transmission delay through resonant optical depth od0;
    its limit 0 where (1 + (2 w)^2)^2 overflows (|w| above about 6e76)."""
    delay = _line_and_delay(np.asarray(detuning, dtype=float), od0)[1]
    return delay if delay.ndim else float(delay)


def _line_and_delay(w, od0):
    """(lorentzian(w), group_delay(w, od0)) as arrays, from one (2 w)^2 and one errstate."""
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = 4.0 * w * w
        line = 1.0 / (1.0 + w2)
        den = (1.0 + w2) ** 2
        delay = np.asarray(-od0 * (1.0 - w2) / den)
    np.copyto(delay, 0.0, where=np.isinf(den))  # the limit, where x / inf gives 0 and inf / inf NaN
    return line, delay


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


def _spectral_integrals(pulse: PulseSpec, rows, signed=()):
    """(values, panels): the integral of each row of rows(w, dens) over the pulse spectrum, dens its density
    at w, on _level's nodes until _converge stops them; a narrow-band pulse gives rows(detuning, 1.0) and 0
    panels; a mapped pass scales the rows in signed (_row_scale). A Gaussian keeps its own window 8 / sigma,
    off which the density, and a row it bounds (a scattered weight), has mass below e^-128, far under
    _converge's 1e-9; only passes that carry P_T widen it. Every frequency integral is taken here."""
    if isinstance(pulse, NarrowBandPulse):
        return _level(pulse, rows, 0), 0
    signed = signed if _start(pulse) == N_START_MAPPED else ()

    def scaled(w, dens):  # the rows, then |row| of each row in signed
        vals = np.asarray(rows(w, dens))
        return np.concatenate([vals, np.abs(vals[list(signed)])])

    level = lambda n, cols, prev: _level(pulse, scaled if signed else rows, n, prev=prev)[:, None]
    level.signed = signed
    vals, panels = _converge(level, _start(pulse))
    return vals[:, 0], int(panels[0])


def _level(pulse: PulseSpec, rows, n, od_eff=0.0, depths=None, prev=None):
    """The row integrals on level n's nodes (_nodes) for a -ln P_T of at most od_eff, the sum of
    its blocks' (_integrate_block); given a 1-D array of depths, with a trailing depth axis.
    Given prev, level n / 2's integrals, a Gaussian samples only level n's new midpoints and
    returns prev / 2 + their weighted sum, level n's trapezoid in w or u; a table ignores prev."""
    if isinstance(pulse, NarrowBandPulse):
        return np.asarray(rows(pulse.detuning, 1.0))
    nested = prev is not None and isinstance(pulse, GaussianPulse)
    total = reduce(np.add, (_integrate_block(integrate, rows, depths, w, pulse.spectral_density(w))
                            for w, integrate in _nodes(pulse, n, od_eff, nested)))
    return 0.5 * np.reshape(prev, total.shape) + total if nested else total  # prev may hold a column axis


def _integrate_block(integrate, rows, depths, x, dens):
    """One block's integrals of rows(x, dens), x a sample at each of its nodes and dens the
    density there. Given a 1-D array of depths, rows(d) gives the rows of a (k, 1) column d
    of them, taken max(1, _BLOCK // nodes) depths at a time, and their integrals are joined
    along a trailing depth axis."""
    if depths is None:
        return integrate(np.asarray(rows(x, dens)))
    step = max(1, _BLOCK // x.size)
    return np.concatenate([integrate(rows(depths[i:i + step, None])(x, dens))
                           for i in range(0, depths.size, step)], axis=-1)


def _nodes(pulse: PulseSpec, n, od_eff=0.0, midpoints=False):
    """Level n's blocks (w, integrate) of about _BLOCK // 4 nodes each: frequency nodes w,
    and integrate(rows), the rule that sums rows sampled at w along their last axis into
    the block's integrals. The level's integrals are the blocks' sum.

    A Gaussian: the trapezoid on n panels over its window for a -ln P_T of at most od_eff,
    _BLOCK // 4 panels a block; each block is its own trapezoid, and shares its end node
    with the next; with midpoints, only the n / 2 odd nodes that level n / 2 lacks, as the
    whole grid's floats, each block's integral its weighted sum; uniform in w, or in u where
    _start maps the window (_sinh_block). A table, whose nodes do not nest, ignores midpoints:
    two-point Gauss-Legendre on each interval between its own samples and the n + 1 uniform
    points over its span, _BLOCK // 8 intervals a block. Its density, |linear interpolant|^2,
    is quadratic on each such interval and 0 off the span, so only the rows' other factors
    limit the rule. Its nodes number at most 2 (n + m) for m table intervals; past
    n = N_CAP / 2 it raises _converge's NumericError.
    """
    if isinstance(pulse, GaussianPulse):
        center, half = _spectral_window(pulse, od_eff)
        if _start(pulse, od_eff) == N_START_MAPPED:  # each block's nodes are made as it is taken
            nodes = n // 2 if midpoints else n
            return (_sinh_block(center, half, n, i, midpoints) for i in range(0, nodes, _BLOCK // 4))
        w, h = _panel_grid(center, half, n)
        if midpoints:
            w, integrate = w[1::2], lambda rows: h * rows.sum(axis=-1)
            return ((w[i:i + _BLOCK // 4], integrate) for i in range(0, n // 2, _BLOCK // 4))
        return ((w[i:i + _BLOCK // 4 + 1], partial(_trapezoid, h)) for i in range(0, n, _BLOCK // 4))
    if 2 * n > N_CAP:
        raise NumericError(f"quadrature not converged at {N_CAP} panels (tol={DEFAULT_TOL})")
    omegas = pulse.omegas
    # their union, as np.union1d takes it; np.unique's first call would import numpy.ma
    edges = np.sort(np.concatenate([omegas, np.linspace(omegas[0], omegas[-1], n + 1)]))
    edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
    return (_gauss_legendre(edges[i:i + _BLOCK // 8 + 1]) for i in range(0, edges.size - 1, _BLOCK // 8))


def _start(pulse: PulseSpec, od_eff=0.0):
    """A pass's first panel count and rule (_row_scale): N_START_MAPPED on the sinh grid (_nodes), else N_START."""
    if isinstance(pulse, GaussianPulse):
        center, half = window = _spectral_window(pulse, od_eff)
        if abs(center) <= half and window == _spectral_window(pulse):  # holds w = 0; od_eff <= 88
            return N_START_MAPPED
    return N_START


def _gauss_legendre(edges):
    """The block (w, integrate) of two-point Gauss-Legendre on the k intervals between
    edges: w holds every interval's left node, then every interval's right node."""
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    k = half.size
    return (np.concatenate([mid - _GL_X * half, mid + _GL_X * half]),
            lambda rows: ((rows[..., :k] + rows[..., k:]) * half).sum(axis=-1))


def _converge(level, start):
    """Double n from start (the pass's _start) until no row of level(n, cols, prev), the rows x columns
    integrals on n panels at columns cols (first slice(None), then the open ones), changes by more than
    DEFAULT_TOL times its _row_scale; each column stops at its own first converged doubling; prev is level
    n / 2's values at cols, None on the first call. Returns (values, panels): the rows x columns values, each
    column's count. The rows the level appends, the integrals of |row| of those in level.signed, only scale."""
    prev, signed = level(start, slice(None), None), getattr(level, "signed", ())
    k = prev.shape[0] - len(signed)
    values, panels, cols = np.empty_like(prev[:k]), np.empty(prev.shape[1], dtype=int), np.arange(prev.shape[1])
    n = 2 * start
    while n <= N_CAP:
        vals = level(n, cols, prev)
        done = (np.abs(vals[:k] - prev[:k]) <= DEFAULT_TOL * _row_scale(vals, signed, start)).all(axis=0)
        values[:, cols[done]], panels[cols[done]] = vals[:k, done], n
        if done.all():
            return values, panels
        cols, prev = cols[~done], vals[:, ~done]
        n *= 2
    raise NumericError(f"quadrature not converged at {N_CAP} panels (tol={DEFAULT_TOL})")


def _row_scale(vals, signed, start):
    """A value row's scale in _converge: max(|value|, 1) on a uniform pass; on a mapped one |value|, or for a row in
    signed its appended integral of |row|, at least e^-88 of the column's largest (past od_eff 88 depths re-run)."""
    scale = np.abs(vals[:vals.shape[0] - len(signed)])
    if start != N_START_MAPPED:
        return np.maximum(scale, 1.0)
    scale[list(signed)] = np.abs(vals[scale.shape[0]:])
    return np.maximum(scale, math.exp(-88.0) * scale.max(axis=0))


def _by_column(batch, values):
    """batch(values), one entry per value of the 1-D array values; where that raises,
    batch of each value in turn, so the error is the first failing value's, as a loop's."""
    try:
        return batch(values)
    except DwellTimeError:
        if values.size < 2:
            raise
    return [out for i in range(values.size) for out in batch(values[i:i + 1])]


def _sinh_block(center, half, n, i, midpoints):
    """Level n's block (w, integrate) from node i (midpoints: odd node 2 i + 1) on the sinh grid over
    center +- half: w = sinh(u) / 2 (the ends exact) of weight h cosh(u) / 2, u on n uniform panels
    over asinh(2 w) of the ends about their centre, so level n / 2's nodes and h / 2 recur exactly
    at level n. Every row is analytic in |Im u| < pi / 4: the trapezoid converges geometrically."""
    k = np.arange(i, min(i + _BLOCK // 4, n // 2 if midpoints else n) + (not midpoints))
    lo, hi = math.asinh(2.0 * (center - half)), math.asinh(2.0 * (center + half))
    u = ((2 * k + 1 if midpoints else k) - n / 2) * ((hi - lo) / n) + 0.5 * (lo + hi)
    w, wts = np.sinh(u) / 2, (hi - lo) / n * np.cosh(u) / 2
    if not midpoints:
        w[k == 0], w[k == n] = center - half, center + half
        wts[0], wts[-1] = 0.5 * wts[0], 0.5 * wts[-1]
    return w, lambda rows: (rows * wts).sum(axis=-1)


def _panel_grid(center, half_width, n):
    """The n + 1 uniform nodes over center +- half_width, as np.linspace's, and their spacing h > 0."""
    lo, hi = center - half_width, center + half_width
    w = np.arange(n + 1.0) * ((hi - lo) / n) + lo
    w[-1] = hi
    h = w[1] - w[0]
    if not h > 0.0:
        raise InvalidParameterError(f"quadrature panels near w = {w[0]:.6g} are finer than "
                                    "float64 resolves there")
    return w, h


def _trapezoid(h, rows):
    """Trapezoid sum along the last axis of samples spaced h apart."""
    return h * (rows.sum(axis=-1) - 0.5 * (rows[..., 0] + rows[..., -1]))


def _core_rows(od0, scaled=False):
    """The four real rows of a finite-bandwidth pass at depth od0, or at a (k, 1) column of depths, as a
    function of (w, dens): norm, P_T, P_S and the tau_T numerator, unnormalized; scaled, then |tau_T numerator|."""

    def rows(w, dens):
        # out first: allocated after _line_and_delay's temporaries, it made the heap shrink and regrow
        out = np.empty((4 + scaled, *np.shape(od0)[:-1], *np.shape(w)))
        line, delay = _line_and_delay(w, od0)
        out[0] = dens
        neg_x = np.negative(np.multiply(od0, line, out=out[2]), out=out[2])
        trans = np.multiply(np.exp(neg_x, out=out[1]), dens, out=out[1])
        np.multiply(np.negative(np.expm1(neg_x, out=out[2]), out=out[2]), dens, out=out[2])
        np.multiply(trans, delay, out=out[3])
        if scaled:
            np.abs(out[3], out=out[4])
        return out

    return rows


def _core_pass(pulse: PulseSpec, depths):
    """The one pass over a depth axis: a (DelayReport, panel count) pair per od0 of the 1-D
    array depths (a MediumProfile: its od0) as one-depth calls give, or their first error;
    InvalidParameterError, before any sampling, for a depth that is not finite.

    Narrow band: closed forms at the carrier (0 panels). Finite bandwidth: the four
    _core_rows of all depths in one blocked _converge (_level), with tau_S from the outcome
    sum rule and the narrow-band-only delays NaN; a depth whose own -ln P_T needs a wider
    window re-runs on it. The conditional times are NaN at od0 = 0.
    """
    medium, depths = depths, np.asarray(getattr(depths, "od0", depths), dtype=float).reshape(-1)
    if not np.isfinite(depths).all():  # a depth over a subnormal length needs g0^2 past float range
        why = f"over length {medium.length:.6g} is past float range" if hasattr(medium, "length") \
            else "is not a finite depth"
        raise InvalidParameterError(f"od0 = {depths[~np.isfinite(depths)][0]:.6g} {why}")
    if isinstance(pulse, NarrowBandPulse):
        line, t_w = float(lorentzian(pulse.detuning)), wigner_delay(pulse.detuning)
        t_g, t_s = group_delay(pulse.detuning, depths), _scattered_delay_point(pulse.detuning, depths)
        return [(DelayReport(P_T=math.exp(-x), P_S=-math.expm1(-x), tau_0=-math.expm1(-x), tau_T=g, tau_S=s,
                             t_g=g, t_W=t_w, t_S=s, od_eff=x, method="analytic"), 0)
                for x, g, s in zip((depths * line).tolist(), t_g.tolist(), t_s.tolist())]
    return _by_column(partial(_core_block, pulse), depths)


def _core_block(pulse: PulseSpec, od0):
    def level(depths, od_eff=0.0):  # _converge's level(n, cols, prev): _core_rows integrals at depths[cols]
        scaled = _start(pulse, od_eff) == N_START_MAPPED  # then |tau_T numerator| (_row_scale)
        if depths.size == 1:  # one depth is sampled without the depth axis, as its one column
            rows = _core_rows(depths[0], scaled)
            at = lambda n, cols, prev: _level(pulse, rows, n, od_eff, prev=prev)[:, None]
        else:
            at = lambda n, cols, prev: _level(pulse, partial(_core_rows, scaled=scaled), n, od_eff, depths[cols], prev)
        at.signed = (3,) if scaled else ()
        return at

    vals, n = _converge(level(od0), _start(pulse))
    for j, (norm, pt_raw) in enumerate(vals[:2].T.tolist()):
        # a dense medium transmits in the far wing: re-run on the window of this -ln P_T
        bound = -math.log(pt_raw / norm) if pt_raw > 0.0 else OD_EFF_MAX
        if isinstance(pulse, GaussianPulse) and _spectral_window(pulse, bound) != _spectral_window(pulse):
            vals[:, j:j + 1], n[j:j + 1] = _converge(level(od0[j:j + 1], bound), _start(pulse, bound))
    if not (vals[1] > 0.0).all():
        raise InvalidParameterError(f"P_T underflows to 0 at od0 = {od0[~(vals[1] > 0.0)][0]:.6g}; "
                                    "the transmitted spectrum is below float64 range")
    od_eff = -np.log(vals[1] / vals[0])
    # tau_S is 0/0 at od0 = 0, where the scattered channel is empty
    return [(DelayReport(P_T=pt / norm, P_S=ps / norm, tau_0=ps / norm, tau_T=num / pt,
                         tau_S=1.0 - num / ps if ps > 0.0 else math.nan, t_g=math.nan, t_W=math.nan,
                         t_S=math.nan, od_eff=e, method="analytic"), k)
            for norm, pt, ps, num, e, k in zip(*vals.tolist(), od_eff.tolist(), n.tolist())]


def delay_report(pulse: PulseSpec, medium: MediumProfile):
    """Full analytic DelayReport for one case; conditional times are NaN at od0 = 0."""
    return _core_pass(pulse, medium)[0][0]


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

    Narrow band: closed form. Finite bandwidth: average of the per-frequency delay over
    the scattered part of the spectrum, on the pulse's own window (_spectral_integrals).
    """
    if medium.od0 == 0.0:
        raise InvalidParameterError("nothing scatters at od0 = 0")
    od0 = medium.od0
    if isinstance(pulse, NarrowBandPulse):
        return float(_scattered_delay_point(pulse.detuning, od0))

    def rows(w, dens):
        weight = dens * -np.expm1(-od0 * lorentzian(w))
        return np.stack([weight, weight * _scattered_delay_point(w, od0)])

    (den, num), _ = _spectral_integrals(pulse, rows)
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
    """Resonant optical depth od0 with -ln P_T = od_eff, or for a 1-D array of targets
    their od0 (or the first failing target's error), as calls per target give them.
    InvalidParameterError above OD_EFF_MAX, and where a narrow-band carrier's line leaves
    od0 without a finite value.

    The result is the bisection's, to the bit. Newton finds the root of the bisection's
    own objective -ln P_T(od0), in lockstep over the targets that share a window; the
    bisection is then replayed against the roots, and evaluates the objective only for
    the targets within _REPLAY_GAP of their root. A Newton iterate past 1e9 raises the
    bisection's NumericError at once; where Newton finds no finite root otherwise, the
    bisection runs on the objective alone. Every pass reuses each level's blocks (_nodes):
    each block's rule, density and line, built once per window.
    """
    targets = np.asarray(od_eff, dtype=float)
    od0 = np.asarray(_by_column(partial(_invert_block, pulse), targets.reshape(-1)), dtype=float)
    return float(od0[0]) if targets.ndim == 0 else od0


def _invert_block(pulse: PulseSpec, targets):
    bad = ~((0.0 <= targets) & (targets <= OD_EFF_MAX))
    if bad.any():
        raise InvalidParameterError(f"od_eff must lie in [0, {OD_EFF_MAX:.6g}], past which P_T "
                                    f"underflows the normal float64 range; got {targets[bad][0]:.6g}")
    od0 = np.zeros_like(targets)
    if isinstance(pulse, NarrowBandPulse):
        line = float(lorentzian(pulse.detuning))
        with np.errstate(over="ignore"):
            od0 = np.where(targets == 0.0, 0.0, targets / line if line > 0.0 else math.inf)
        if not np.all(np.isfinite(od0)):
            raise InvalidParameterError(f"no finite od0 reaches od_eff = {targets[~np.isfinite(od0)][0]:.6g} "
                                        f"at detuning {pulse.detuning:.6g}, where the line is {line:.6g}")
        return od0
    windows = {}  # the Gaussian window of each nonzero target -> their indices
    for i in np.flatnonzero(targets):
        key = _spectral_window(pulse, targets[i]) if isinstance(pulse, GaussianPulse) else None
        windows.setdefault(key, []).append(i)
    for idx in windows.values():
        od0[idx] = _invert_window(pulse, targets[idx])
    return od0


def _invert_window(pulse: PulseSpec, targets):
    """invert_od_eff of nonzero targets in [0, OD_EFF_MAX] that share a window. A Gaussian's
    levels nest as _level's do: past its _start each holds its midpoint blocks and nested norm."""
    levels = {}  # panel count -> the od0-independent parts: its blocks' (rule, line, density), the norm

    def transmitted(d):  # (line, dens) -> the rows trans and trans * line at a (k, 1) column d of od0
        def rows(line, dens):
            out = np.empty((2, d.shape[0], line.size))
            trans = np.multiply(np.exp(-d * line, out=out[1]), dens, out=out[0])
            np.multiply(trans, line, out=out[1])
            return out
        return rows

    def f(od0):
        # -ln P_T at each od0 (inf, above every target, for a P_T below float range) and its slope
        slopes = {}  # panel count -> the integrals of trans and trans * line at each od0

        def level(n, cols, prev):  # nested as _level's, on levels[n // 2] and slopes[n // 2]
            nested = prev is not None and isinstance(pulse, GaussianPulse)
            if n not in levels:
                blocks = [(integrate, lorentzian(w), pulse.spectral_density(w))
                          for w, integrate in _nodes(pulse, n, targets[0], nested)]
                norm = reduce(np.add, (integrate(dens) for integrate, _, dens in blocks))
                levels[n] = blocks, 0.5 * levels[n // 2][1] + norm if nested else norm
            blocks, norm = levels[n]
            idx, raw = np.arange(od0.size)[cols], slopes.setdefault(n, np.empty((2, od0.size)))
            raw[:, idx] = reduce(np.add, (_integrate_block(integrate, transmitted, od0[idx], line, dens)
                                          for integrate, line, dens in blocks))
            if nested:
                raw[:, idx] += 0.5 * slopes[n // 2][:, idx]
            return np.array([np.full(idx.size, norm), raw[0, idx]])

        (norm, pt_raw), n = _converge(level, _start(pulse, targets[0]))
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.array([slopes[k][1, i] for i, k in enumerate(n)]) / pt_raw
            return np.where(pt_raw > 0.0, -np.log(pt_raw / norm), math.inf), slope

    # f is concave and increasing from f(0) = 0, so from od0 = target the Newton iterates
    # rise to the root without overshooting, and one past 1e9 puts the root beyond the
    # bracket's reach; the root stays NaN where Newton finds none
    root, od0, live = np.full(targets.size, math.nan), targets.copy(), np.arange(targets.size)
    for _ in range(_NEWTON_STEPS):
        try:
            value, slope = f(od0[live])
        except NumericError:  # the bisection's own points may still converge
            break
        ok = np.isfinite(value) & (slope > 0.0)
        live, step = live[ok], (targets[live[ok]] - value[ok]) / slope[ok]
        od0[live] += step
        if not np.all(od0[live] <= 1e9):
            raise NumericError(f"no od0 below 1e9 reaches od_eff = {targets[live][~(od0[live] <= 1e9)][0]}")
        done = np.abs(step) <= _REPLAY_GAP * od0[live]
        root[live[done]], live = od0[live[done]], live[~done]
        if not live.size:
            break

    def below(x, idx):
        # f(x) < target, read off the root outside its gap; a NaN root fails the gap
        # test, so every point is evaluated
        out = x < root[idx]
        near = ~(np.abs(x - root[idx]) > _REPLAY_GAP * root[idx])
        if near.any():
            out[near] = f(x[near])[0] < targets[idx[near]]
        return out

    # od_eff <= od0 always, so od0 = target is a valid lower bracket
    lo, hi, idx = targets.copy(), np.maximum(2.0 * targets, 1.0), np.arange(targets.size)
    while idx.size:
        idx = idx[below(hi[idx], idx)]
        lo[idx], hi[idx] = hi[idx], 2.0 * hi[idx]
        if np.any(hi[idx] > 1e9):
            raise NumericError(f"no od0 below 1e9 reaches od_eff = {targets[idx][hi[idx] > 1e9][0]}")
    while (idx := np.flatnonzero(hi - lo > OD_EFF_TOL * np.maximum(1.0, hi))).size:
        mid = 0.5 * (lo[idx] + hi[idx])
        lower = below(mid, idx)
        lo[idx[lower]], hi[idx[~lower]] = mid[lower], mid[~lower]
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
