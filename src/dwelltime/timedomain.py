"""Split-step integrator for the forward and backward no-jump field equations.

One spatial cell is advected per step (unit Courant number, c = 1), so free
propagation is exact; the local atom coupling is applied as an exact 2x2 matrix
exponential on the half steps. The backward pass uses the exact adjoint of the
forward step, which keeps the forward/backward overlap constant to rounding.

The field is stored in the co-moving frame: lab cell i at step n lives at
retarded index max_steps + i - n of one array, so free flight is an index
offset rather than a copy, and each half step reads and writes only the n_med
cells under the medium. The work per step is O(n_med); the stored beta
histories still take O(steps * n_med) memory, and GridSpec.build rejects a
grid whose two histories would exceed MAX_HISTORY_BYTES.

The domain is sized so the forward run loses nothing at a boundary: the right
edge lies beyond the light cone of the run, the left edge holds the full
initial pulse. The backward run may carry some of the post-selected field out
through the left edge.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import (
    DelayReport,
    GaussianPulse,
    MediumProfile,
    NarrowBandPulse,
    PulseSpec,
    TabulatedSpectrumPulse,
    TAIL_CUT,
)
from .errors import InvalidParameterError, NumericError

RESIDUAL_TOL = 1e-8  # stop once the excited norm has decayed to this fraction of its peak
MAX_HISTORY_BYTES = 2e9  # refuse grids whose forward + backward beta histories exceed this
SAMPLES_PER_SIGMA = 50  # medium cells per pulse duration, at least
SETTLE_TIME = 45.0  # integration time reserved after the pulse has left the medium


def _time_amplitude(pulse: PulseSpec, t):
    if isinstance(pulse, GaussianPulse):
        return pulse.time_amplitude(t)
    if isinstance(pulse, TabulatedSpectrumPulse):
        t = np.asarray(t, dtype=float)
        w = pulse.omegas
        amp = pulse.amplitudes
        phases = np.exp(1j * np.outer(t, w))
        return np.trapezoid(phases * amp[None, :], w, axis=1) / math.sqrt(2.0 * math.pi)
    raise InvalidParameterError("time-domain integration needs a finite-bandwidth pulse")


def _support_halfwidth(pulse: PulseSpec):
    if isinstance(pulse, GaussianPulse):
        return pulse.support_halfwidth
    # widen until the boundary amplitude is below the tail cut
    half = 8.0 / (pulse.omegas[-1] - pulse.omegas[0])
    for _ in range(60):
        t = np.linspace(-half, half, 513)
        a = np.abs(_time_amplitude(pulse, t))
        if max(a[0], a[-1]) < TAIL_CUT * a.max():
            return half
        half *= 2.0
    raise NumericError("could not bracket the pulse support")


@dataclass(frozen=True)
class GridSpec:
    """Space-time lattice with dt = dz (unit Courant number)."""

    dz: float
    z_min: float  # left cell boundary
    n_cells: int
    i_med0: int  # index of the first cell inside the medium
    n_med: int
    t_start: float
    max_steps: int
    t_half: float  # pulse support: |alpha_in(t)| < TAIL_CUT * peak beyond +-t_half

    @property
    def dt(self):
        return self.dz

    @property
    def z_centers(self):
        return self.z_min + (np.arange(self.n_cells) + 0.5) * self.dz

    @property
    def i_monitor(self):
        # first cell past the medium exit
        return self.i_med0 + self.n_med

    @property
    def snap_every(self):
        # the forward pass snapshots the field at every multiple of this step
        return max(1, self.max_steps // 40)

    @classmethod
    def build(cls, pulse: PulseSpec, medium: MediumProfile, *, cells_per_medium=200):
        """Grid with at least cells_per_medium cells, and SAMPLES_PER_SIGMA cells
        per pulse duration, across the medium.

        Refuses a grid whose two beta histories would exceed MAX_HISTORY_BYTES.
        The sizes are worked out in float first, so that an extreme pulse,
        medium or cell count gives an inf or NaN size and is refused as over
        budget, where ceil or int -> float would raise OverflowError.
        """
        if isinstance(pulse, NarrowBandPulse):
            raise InvalidParameterError("time-domain integration needs a finite-bandwidth pulse")
        if not cells_per_medium >= 50:
            raise InvalidParameterError(f"medium needs >= 50 cells, got {cells_per_medium}")
        t_half = np.float64(_support_halfwidth(pulse))
        sigma = pulse.sigma if isinstance(pulse, GaussianPulse) else t_half / 6.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            length = np.float64(medium.length)
            cells = np.floor(np.float64(min(cells_per_medium, sys.float_info.max)))
            n_med = max(cells, np.ceil(length * SAMPLES_PER_SIGMA / sigma))
            dz = length / n_med
            # cells from the pulse center to the medium entrance, and as many on to the left edge
            lead = np.ceil(t_half / dz) + 2.0
            t_start = -lead * dz
            max_steps = np.ceil((t_half + length + SETTLE_TIME - t_start) / dz)
            history = 2.0 * max_steps * n_med * np.dtype(complex).itemsize
        if not history <= MAX_HISTORY_BYTES:
            raise InvalidParameterError(
                f"grid of {n_med:.0f} medium cells x {max_steps:.0f} steps needs about "
                f"{history / 1e9:.3g} GB of beta history (limit {MAX_HISTORY_BYTES / 1e9:.0f} GB); "
                "coarsen the grid or use a longer pulse")
        n_med, lead, max_steps = int(n_med), int(lead), int(max_steps)
        n_right = max_steps + 2  # right edge beyond the light cone of the whole run
        return cls(dz=float(dz), z_min=float(t_start - lead * dz), n_cells=2 * lead + n_med + n_right,
                   i_med0=2 * lead, n_med=n_med, t_start=float(t_start), max_steps=max_steps,
                   t_half=float(t_half))


@dataclass
class FieldHistory:
    """Recorded trajectory of one integration pass, one row per step from t_start.

    Both passes fill grid, direction, beta and p_t. The forward pass also fills
    tau_avg, the snapshots (at every multiple of grid.snap_every and at the
    final step, so the first is the input field) and bookkeeping_dev; the
    backward pass fills overlap at the same steps. Fields a pass does not fill
    stay None (or 0.0).
    """

    grid: GridSpec
    direction: str  # "forward" or "backward"
    beta: np.ndarray  # (n_rec, n_med) excitation amplitude on medium cells
    p_t: float
    tau_avg: float = 0.0  # time integral of the excited norm (trapezoid rule)
    snap_alpha: Optional[np.ndarray] = None  # (n_snap, n_cells)
    overlap: Optional[np.ndarray] = None  # <back|fwd> at snapshot steps
    bookkeeping_dev: float = 0.0  # max |alpha norm + beta norm + scattered - 1| over steps

    @property
    def n_rec(self):
        return self.beta.shape[0]

    @property
    def times(self):
        return self.grid.t_start + np.arange(self.n_rec) * self.grid.dt


def _coupling_halfstep(medium: MediumProfile, grid: GridSpec, sign: float):
    """Exact 2x2 matrix exponential of the local coupling over dt/2.

    Returns complex coefficient arrays (a11, sign i a12, a22) over the medium
    cells, for _apply_half; the half-step maps (alpha, beta) ->
    (a11 a + i a12 b, i a12 a + a22 b) with sign = +1, and its exact adjoint is
    the same map with sign = -1. The real a11, a22 are stored as complex so that
    no step pays for the cast.
    """
    h = grid.dt / 2.0
    zc = grid.z_centers[grid.i_med0:grid.i_med0 + grid.n_med]
    g = medium.g_of(zc)
    nu2 = 1.0 / 16.0 - g * g
    nu = np.sqrt(nu2.astype(complex))
    arg = nu * h
    c = np.cosh(arg).real
    small = np.abs(arg) < 1e-6
    safe_nu = np.where(small, 1.0, nu)
    st = np.where(small, h * (1.0 + nu2 * h * h / 6.0), (np.sinh(arg) / safe_nu).real)
    damp = math.exp(-h / 4.0)
    a11 = damp * (c + st / 4.0)
    a12 = damp * g * st
    a22 = damp * (c - st / 4.0)
    return a11.astype(complex), sign * 1j * a12, a22.astype(complex)


def _apply_half(alpha_med, beta, a11, ia12, a22):
    na = a11 * alpha_med + ia12 * beta
    nb = ia12 * alpha_med + a22 * beta
    return na, nb


def _norm2(x):
    return float(np.vdot(x, x).real)


def _step(field, k, beta, coef, shift):
    """One step in the co-moving frame: a half step on the medium window
    field[k:k + n_med], free flight (the window moves by shift), a second half
    step. Returns the new beta; the field changes only on the n_med + 1 cells
    that the two windows cover."""
    nm = beta.size
    for j in (k, k + shift):
        am, beta = _apply_half(field[j:j + nm], beta, *coef)
        field[j:j + nm] = am
    return beta


def _initial_field(pulse: PulseSpec, grid: GridSpec):
    """Lab-frame field at t_start. A tabulated spectrum is synthesised only on the
    cells of its support (plus a two-cell margin); outside it the pulse is below
    TAIL_CUT of its peak, and those cells are zero."""
    t = grid.t_start - grid.z_centers
    if not isinstance(pulse, TabulatedSpectrumPulse):
        return np.asarray(_time_amplitude(pulse, t), dtype=complex)
    alpha = np.zeros(t.size, dtype=complex)
    inside = np.abs(t) <= grid.t_half + 2 * grid.dz
    alpha[inside] = _time_amplitude(pulse, t[inside])
    return alpha


def integrate_forward(pulse: PulseSpec, medium: MediumProfile, grid: GridSpec | None = None):
    """Propagate the initial pulse through the medium under no-jump evolution."""
    if grid is None:
        grid = GridSpec.build(pulse, medium)
    dz = grid.dz
    dt = grid.dt
    nm, ms, nc = grid.n_med, grid.max_steps, grid.n_cells
    # Co-moving frame: lab cell i at step n is field[ms + i - n], so free flight
    # is the index offset and each half step touches only the medium window.
    field = np.zeros(ms + nc, dtype=complex)
    field[ms:] = _initial_field(pulse, grid)
    beta = np.zeros(nm, dtype=complex)
    coef = _coupling_halfstep(medium, grid, 1.0)
    na = dz * float((np.abs(field[ms:]) ** 2).sum())

    # rows past the last step stay untouched
    beta_rows = np.empty((ms + 1, nm), dtype=complex)
    beta_rows[0] = beta
    nb = scat = 0.0  # excited norm and Gamma * its time integral so far
    snaps = [field[ms:].copy()]

    t_min_end = medium.length + grid.t_half + 4 * dz
    peak_beta = 0.0
    book_dev = 0.0
    k = ms + grid.i_med0  # start of the medium window at step n - 1
    for n in range(1, ms + 1):
        covered = field[k - 1:k + nm]  # a view: both windows of this step
        before = _norm2(covered)
        beta = _step(field, k, beta, coef, -1)
        k -= 1
        na += dz * (_norm2(covered) - before)

        t = grid.t_start + n * dt
        nb_prev, nb = nb, dz * _norm2(beta)
        scat += dt * 0.5 * (nb_prev + nb)  # Gamma = 1
        beta_rows[n] = beta
        if n % grid.snap_every == 0:
            snaps.append(field[ms - n:ms - n + nc].copy())
        book_dev = max(book_dev, abs(na + nb + scat - 1.0))
        peak_beta = max(peak_beta, nb)
        if t >= t_min_end and nb <= RESIDUAL_TOL * peak_beta:
            break
    else:
        raise NumericError(
            f"excited norm did not settle below {RESIDUAL_TOL} of peak within {ms} steps")
    final_alpha = field[ms - n:ms - n + nc]
    if n % grid.snap_every:
        snaps.append(final_alpha.copy())
    p_t = dz * _norm2(final_alpha) + nb  # exact, and >= 0 in opaque media
    return FieldHistory(
        grid=grid,
        direction="forward",
        beta=beta_rows[:n + 1],
        p_t=float(p_t),
        tau_avg=scat,  # Gamma = 1
        snap_alpha=np.array(snaps),
        bookkeeping_dev=book_dev,
    )


def integrate_backward(forward: FieldHistory, medium: MediumProfile):
    """Evolve the transmission-post-selected state backward over the forward window.

    Uses the exact adjoint of the forward step, so the overlap with the forward
    state is constant to rounding; samples of it are stored for verification.
    """
    if forward.direction != "forward":
        raise InvalidParameterError("need a forward history")
    grid = forward.grid
    if not forward.p_t > 0:
        raise InvalidParameterError("transmission post-selection needs P_T > 0")
    dz = grid.dz
    nm, ms, nc = grid.n_med, grid.max_steps, grid.n_cells
    n_end = forward.n_rec - 1
    root = math.sqrt(forward.p_t)
    # same co-moving layout as the forward pass; the window now moves right
    field = np.zeros(ms + nc, dtype=complex)
    field[ms - n_end:ms - n_end + nc] = forward.snap_alpha[-1] / root
    beta = np.zeros(nm, dtype=complex)
    coef = _coupling_halfstep(medium, grid, -1.0)

    beta_rows = np.empty((n_end + 1, nm), dtype=complex)
    beta_rows[n_end] = beta
    overlaps = np.full(len(forward.snap_alpha), np.nan + 0j, dtype=complex)

    def record_overlap(step_idx):
        # at the forward snapshots: each multiple of snap_every, and the final step
        if step_idx % grid.snap_every and step_idx != n_end:
            return
        k = -1 if step_idx == n_end else step_idx // grid.snap_every
        alpha = field[ms - step_idx:ms - step_idx + nc]
        ov = np.vdot(alpha, forward.snap_alpha[k]) + np.vdot(beta, forward.beta[step_idx])
        overlaps[k] = dz * ov

    record_overlap(n_end)
    k = ms + grid.i_med0 - n_end  # start of the medium window at step n + 1
    for n in range(n_end - 1, -1, -1):
        beta = _step(field, k, beta, coef, 1)
        k += 1
        beta_rows[n] = beta
        record_overlap(n)
    return FieldHistory(grid=grid, direction="backward", beta=beta_rows, p_t=forward.p_t,
                        overlap=overlaps)


def weak_trace(forward: FieldHistory, backward: FieldHistory):
    """Transmitted weak value of the excited-state population vs time: (times, phi)."""
    if forward.direction != "forward" or backward.direction != "backward":
        raise InvalidParameterError("need one forward and one backward history")
    if forward.n_rec != backward.n_rec or forward.grid is not backward.grid:
        raise InvalidParameterError("histories were not computed on the same grid/run")
    dz = forward.grid.dz
    bb, fb = backward.beta, forward.beta
    # Re(conj(b) f) summed over cells, on real/imag views: no full-size temporaries
    cross = (np.einsum("ij,ij->i", bb.real, fb.real) + np.einsum("ij,ij->i", bb.imag, fb.imag)) * dz
    phi = cross / math.sqrt(forward.p_t)
    return forward.times, phi


def tau_T_td(forward: FieldHistory, backward: FieldHistory):
    """Transmitted dwell time: time integral of the weak trace."""
    times, phi = weak_trace(forward, backward)
    return float(np.trapezoid(phi, times))


def tau_avg_td(forward: FieldHistory):
    """Average dwell time: time integral of the excited-state norm."""
    if forward.direction != "forward":
        raise InvalidParameterError("need a forward history")
    return forward.tau_avg


def com_delays(forward: FieldHistory):
    """Center-of-mass delays (transmitted, scattered) relative to free flight."""
    if forward.direction != "forward":
        raise InvalidParameterError("need a forward history")
    grid = forward.grid
    zc = grid.z_centers
    w0 = np.abs(forward.snap_alpha[0]) ** 2  # the input field, at step 0
    input_com = float((w0 * (grid.t_start - zc)).sum() / w0.sum())
    # the monitor cell at steps 0..n: a cell right of the medium window never
    # changes again, so the final field holds the whole series, reversed
    i_mon, n = grid.i_monitor, forward.n_rec - 1
    m = np.abs(forward.snap_alpha[-1][i_mon:i_mon + n + 1][::-1]) ** 2
    if m.sum() <= 0:
        raise NumericError("no transmitted amplitude reached the monitor")
    t_out = float((m * forward.times).sum() / m.sum())
    transmitted = float(t_out - zc[i_mon] - input_com)
    w2 = np.abs(forward.beta) ** 2
    wsum = float(np.sum(w2))
    if wsum <= 0.0:
        raise InvalidParameterError("nothing scatters; scattered delay undefined")
    zm = zc[grid.i_med0:grid.i_med0 + grid.n_med]
    val = float((w2 * (forward.times[:, None] - zm[None, :])).sum() / wsum)
    return transmitted, val - input_com


def delay_report_td(pulse: PulseSpec, medium: MediumProfile, grid: GridSpec | None = None):
    """DelayReport from the time-domain engine (tau_S via the outcome sum rule)."""
    fwd = integrate_forward(pulse, medium, grid)
    bwd = integrate_backward(fwd, medium)
    p_t = fwd.p_t
    p_s = 1.0 - p_t
    t_t = tau_T_td(fwd, bwd)
    t_0 = tau_avg_td(fwd)
    nan = float("nan")
    return DelayReport(
        P_T=p_t,
        P_S=p_s,
        tau_0=t_0,
        tau_T=t_t,
        tau_S=(t_0 - p_t * t_t) / p_s if p_s > 1e-12 else nan,
        t_g=nan,
        t_W=nan,
        t_S=nan,
        od_eff=-math.log(p_t),
        method="timedomain",
    )


def tau_S_oracle(forward: FieldHistory, medium: MediumProfile):
    """Scattered dwell time from events: the conditional weak value averaged over
    every scattering event (position Z, time T), weighted by its rate.

    The weak value of an event needs the post-selected field evolved back from
    it, a kernel that the adjoint step U carries across the medium.
    Summed over events and lags k, the estimate is sum_k w_k sum_n
    <beta(U^k (0, f[n+k] / dz)), f[n]> with f the forward beta history and the
    trapezoid weights w_0 = 1/2, w_k = 1. Horner's rule in the lag folds this
    into one backward recursion over vectors,

        S_n = U S_{n+1} + (0, f[n] / dz),

    so the cost is O(steps * n_med), less than the forward pass whose history
    it reads. The recursion sums every lag; the kernel decays as exp(-k dt / 2),
    so lags past its 1e-10 tail, which a truncated sum would drop, change the
    result only at rounding. The route reads only the forward beta history and
    the adjoint step, and so stays independent of the spectral engine.
    """
    grid = forward.grid
    dz, dt = grid.dz, grid.dt
    nm = grid.n_med
    f = forward.beta  # (n_rec, nm)
    n_rec = f.shape[0]
    f2 = float(np.vdot(f, f).real)
    p_s_td = dt * dz * f2
    if p_s_td <= 0.0:
        raise InvalidParameterError("nothing scatters; conditional time undefined")

    # the kernel's alpha part in a co-moving buffer: its medium window moves one
    # cell right per adjoint step (restricted to the medium, which is exact there:
    # the post-selected field never re-enters from either side)
    coef = _coupling_halfstep(medium, grid, -1.0)
    field = np.zeros(n_rec + nm, dtype=complex)
    s_beta = f[n_rec - 1] / dz
    acc = np.vdot(s_beta, f[n_rec - 1])
    for n in range(n_rec - 2, -1, -1):
        s_beta = _step(field, n_rec - 2 - n, s_beta, coef, 1)
        s_beta += f[n] / dz
        acc += np.vdot(s_beta, f[n])
    acc -= 0.5 * f2 / dz  # the lag-0 trapezoid weight
    return float((dt * dt * dz * dz / p_s_td) * acc.real)  # Gamma = 1
