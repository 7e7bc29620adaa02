"""Split-step integrator of the forward/backward no-jump equations.

Cross-checks every reported number against the closed-form engine and pins the
structural invariants: norm bookkeeping, exact adjoint stepping (constant
overlap), and the center-of-mass delay identities.
"""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwelltime import spectral, timedomain
from dwelltime.domain import (
    GaussianPulse,
    NarrowBandPulse,
    TabulatedSpectrumPulse,
    make_gaussian_pulse,
    make_tabulated_medium,
    make_uniform_medium,
)
from dwelltime.errors import InvalidParameterError

PULSE = make_gaussian_pulse(1.0)
MEDIUM = make_uniform_medium(2.0)


@pytest.fixture(scope="module")
def run_default():
    fwd = timedomain.integrate_forward(PULSE, MEDIUM)
    bwd = timedomain.integrate_backward(fwd, MEDIUM)
    return fwd, bwd


class TestGridSpec:
    def test_rejects_narrowband(self):
        with pytest.raises(InvalidParameterError, match="needs a finite-bandwidth pulse"):
            timedomain.GridSpec.build(NarrowBandPulse(0.0), MEDIUM)

    @pytest.mark.parametrize("key", ["samples_per_sigma", "settle_time"])
    def test_only_cells_per_medium_is_settable(self, key):
        with pytest.raises(TypeError, match=key):
            timedomain.GridSpec.build(PULSE, MEDIUM, **{key: 1})

    def test_rejects_coarse_medium(self):
        with pytest.raises(InvalidParameterError):
            timedomain.GridSpec.build(PULSE, MEDIUM, cells_per_medium=10)

    def test_rejects_grid_beyond_history_budget(self):
        # a 0.01-wide pulse needs 5000 medium cells for 230k steps: about 37 GB of
        # beta history, refused before anything is allocated
        with pytest.raises(InvalidParameterError, match="beta history"):
            timedomain.GridSpec.build(GaussianPulse(0.01), MEDIUM)

    # moderate draws give grids; the others reach past float range
    @given(sigma=st.floats(0.05, 20.0) | st.floats(5e-324, 1e154) | st.sampled_from([5e-324, 1e154]),
           length=st.floats(0.1, 10.0) | st.floats(5e-324, math.inf) | st.sampled_from([1e-310, math.inf]),
           cells=st.integers(50, 1000) | st.integers(50) | st.sampled_from([2**1024, 10**400]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_extreme_inputs_give_a_grid_or_a_refusal(self, sigma, length, cells):
        """A pulse duration, medium length and cell count anywhere in their
        accepted ranges (gamma enters only as a factor of sigma) give a grid
        within the history budget, or InvalidParameterError; never an
        OverflowError from sizing the grid. Nothing is allocated."""
        try:
            grid = timedomain.GridSpec.build(GaussianPulse(sigma), make_uniform_medium(2.0, length),
                                             cells_per_medium=cells)
        except InvalidParameterError as exc:
            assert "beta history" in str(exc)
            return
        assert 50 <= grid.n_med and grid.dz > 0.0
        assert math.isfinite(grid.z_min) and grid.z_min < grid.t_start < 0.0
        assert 2 * grid.max_steps * grid.n_med * 16 <= timedomain.MAX_HISTORY_BYTES

    def test_geometry(self):
        grid = timedomain.GridSpec.build(PULSE, MEDIUM)
        assert grid.dt == grid.dz
        assert grid.z_centers.size == grid.n_cells
        # monitor sits just past the exit face
        z_mon = grid.z_centers[grid.i_monitor]
        assert MEDIUM.length < z_mon < MEDIUM.length + 2 * grid.dz
        # right buffer outruns the light cone: no outflow for the whole run
        assert grid.n_cells - grid.i_monitor >= grid.max_steps

    def test_initial_pulse_fits_left_of_medium(self):
        grid = timedomain.GridSpec.build(PULSE, MEDIUM)
        zc = grid.z_centers
        a0 = PULSE.time_amplitude(grid.t_start - zc)
        inside = slice(grid.i_med0, grid.i_med0 + grid.n_med)
        assert np.max(np.abs(a0[inside])) < 1e-7 * np.max(np.abs(a0))


class TestForward:
    def test_transmission_matches_spectral(self, run_default):
        fwd, _ = run_default
        p_ref, _ = spectral.transmission_probability(PULSE, MEDIUM)
        assert fwd.p_t == pytest.approx(p_ref, rel=1e-4)

    def test_norm_bookkeeping(self, run_default):
        fwd, _ = run_default
        assert fwd.bookkeeping_dev < 1e-5

    def test_average_dwell_matches_spectral(self, run_default):
        fwd, _ = run_default
        ref = spectral.delay_report(PULSE, MEDIUM).tau_0
        assert timedomain.tau_avg_td(fwd) == pytest.approx(ref, rel=1e-4)

    def test_input_com_centered(self, run_default):
        fwd, _ = run_default
        grid = fwd.grid
        w = np.abs(fwd.snap_alpha[0]) ** 2  # the input field, at step 0
        assert abs((w * (grid.t_start - grid.z_centers)).sum() / w.sum()) < 1e-9


class TestBackward:
    def test_overlap_constant(self, run_default):
        _, bwd = run_default
        ov = bwd.overlap
        assert np.max(np.abs(ov - ov[-1])) < 1e-10

    def test_transmitted_time_matches_spectral(self, run_default):
        fwd, bwd = run_default
        ref = spectral.tau_T(PULSE, MEDIUM)
        assert timedomain.tau_T_td(fwd, bwd) == pytest.approx(ref, rel=1e-3)

    def test_weak_trace_shape(self, run_default):
        fwd, bwd = run_default
        times, phi = timedomain.weak_trace(fwd, bwd)
        assert times.shape == phi.shape
        assert phi.dtype.kind == "f"
        peak = np.max(np.abs(phi))
        assert abs(phi[0]) < 1e-10 * peak and abs(phi[-1]) < 1e-8 * peak

    def test_rejects_mismatched_histories(self, run_default):
        fwd, _ = run_default
        with pytest.raises(InvalidParameterError):
            timedomain.weak_trace(fwd, fwd)


class TestCenterOfMass:
    def test_transmitted_com_equals_weak_value_time(self, run_default):
        """The transmitted pulse is delayed by exactly the conditioned dwell time."""
        fwd, bwd = run_default
        transmitted, _ = timedomain.com_delays(fwd)
        assert transmitted == pytest.approx(timedomain.tau_T_td(fwd, bwd), rel=1e-3, abs=1e-5)

    def test_scattered_com_equals_tau_s(self, run_default):
        """Emission events at (Z, T) average to the scattered dwell time."""
        fwd, _ = run_default
        _, scattered = timedomain.com_delays(fwd)
        assert scattered == pytest.approx(spectral.tau_S(PULSE, MEDIUM), rel=1e-3)

    def test_delays_pinned(self, run_default):
        fwd, _ = run_default
        transmitted, scattered = timedomain.com_delays(fwd)
        assert type(transmitted) is float and type(scattered) is float
        assert transmitted == pytest.approx(-0.3009763732701915, rel=1e-12)
        assert scattered == pytest.approx(1.135912604582643, rel=1e-12)

    def test_backward_history_rejected(self, run_default):
        _, bwd = run_default
        with pytest.raises(InvalidParameterError):
            timedomain.com_delays(bwd)
        # the backward pass records no excited norm
        with pytest.raises(InvalidParameterError):
            timedomain.tau_avg_td(bwd)


class TestDelayReportTd:
    def test_report_recombines_exactly(self, run_default):
        rep = timedomain.delay_report_td(PULSE, MEDIUM)
        assert rep.method == "timedomain"
        lhs = rep.P_S * rep.tau_S + rep.P_T * rep.tau_T
        assert lhs == pytest.approx(rep.tau_0, rel=1e-12)
        assert rep.od_eff == pytest.approx(-math.log(rep.P_T), rel=1e-12)
        assert math.isnan(rep.t_g)

    def test_report_matches_analytic_engine(self):
        ana = spectral.delay_report(PULSE, MEDIUM)
        num = timedomain.delay_report_td(PULSE, MEDIUM)
        assert num.P_T == pytest.approx(ana.P_T, rel=1e-4)
        assert num.tau_T == pytest.approx(ana.tau_T, rel=1e-3)
        assert num.tau_S == pytest.approx(ana.tau_S, rel=1e-3)


class TestEmptyMedium:
    def test_everything_transmits(self):
        m0 = make_uniform_medium(0.0)
        fwd = timedomain.integrate_forward(PULSE, m0)
        assert fwd.p_t == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(InvalidParameterError, match="nothing scatters; scattered delay undefined"):
            timedomain.com_delays(fwd)
        with pytest.raises(InvalidParameterError, match="nothing scatters; conditional time undefined"):
            timedomain.tau_S_oracle(fwd, m0)


@pytest.fixture(scope="module")
def coarse():
    medium = make_uniform_medium(1.0)
    grid = timedomain.GridSpec.build(PULSE, medium, cells_per_medium=60)
    return timedomain.integrate_forward(PULSE, medium, grid), medium


class TestScatteredOracle:
    def test_event_average_matches_sum_rule(self, coarse):
        fwd, medium = coarse
        got = timedomain.tau_S_oracle(fwd, medium)
        assert got == pytest.approx(spectral.tau_S(PULSE, medium), rel=1e-2)
        assert got == pytest.approx(1.2832436043183157, rel=1e-12)

    def test_converges_under_refinement(self):
        # the gap to the spectral tau_S shrinks at second order in dz, like the
        # step-halving ratios of the time-domain cross-validation
        pulse = GaussianPulse(1.0, 0.3)
        medium = make_uniform_medium(2.0)
        ref = spectral.tau_S(pulse, medium)
        gaps = []
        for cells in (60, 120):
            grid = timedomain.GridSpec.build(pulse, medium, cells_per_medium=cells)
            fwd = timedomain.integrate_forward(pulse, medium, grid)
            gaps.append(abs(timedomain.tau_S_oracle(fwd, medium) - ref) / ref)
        assert gaps[0] < 1e-4
        assert 2.0 <= gaps[0] / gaps[1] <= 10.0


def test_tabulated_pulse_integrates():
    ref = GaussianPulse(1.0, 0.0)
    w = np.linspace(-9.0, 9.0, 4001)
    tab = TabulatedSpectrumPulse(w, ref.spectral_amplitude(w))
    medium = make_uniform_medium(1.0)
    grid = timedomain.GridSpec.build(tab, medium, cells_per_medium=60)
    fwd = timedomain.integrate_forward(tab, medium, grid)
    p_ref, _ = spectral.transmission_probability(ref, medium)
    assert fwd.p_t == pytest.approx(p_ref, rel=1e-3)
    # the same value as a synthesis over every cell of the grid: the cells outside
    # the pulse's support hold nothing above rounding
    assert fwd.p_t == pytest.approx(0.5379848359026396, rel=1e-12)


def _dense_time_amplitude(pulse, t):
    """The trapezoid sum of a tabulated spectrum over every (t, w) pair: the
    reference that _time_amplitude's two-table product must match."""
    t = np.asarray(t, dtype=float)
    w = pulse.omegas
    phases = np.exp(1j * np.outer(t, w))
    return np.trapezoid(phases * pulse.amplitudes[None, :], w, axis=1) / math.sqrt(2.0 * math.pi)


def _chirped_table(omegas, sigma=1.0, detuning=0.0, chirp=0.0):
    amp = GaussianPulse(sigma, detuning).spectral_amplitude(omegas)
    return TabulatedSpectrumPulse(omegas, amp * np.exp(1j * chirp * (sigma * (omegas - detuning)) ** 2))


def _tier1_table():
    """The 4001-sample table of test_tabulated_pulse_integrates."""
    return _chirped_table(np.linspace(-9.0, 9.0, 4001))


UNEVEN = np.concatenate([-np.geomspace(9.0, 0.01, 300), np.geomspace(0.02, 9.0, 300)])


@pytest.mark.parametrize("chirp", [0.0, 0.3])
@pytest.mark.parametrize("omegas", [np.linspace(-8.8, 9.2, 1000), UNEVEN], ids=["uniform", "geomspace"])
@pytest.mark.parametrize("n", [1, 2, 3, 97, 513, 1710])
def test_tabulated_synthesis_matches_the_dense_sum(n, omegas, chirp):
    pulse = _chirped_table(omegas, detuning=-0.2, chirp=chirp)
    peak = np.abs(_dense_time_amplitude(pulse, np.linspace(-20.0, 25.0, 181))).max()
    # ascending as in _support_halfwidth, descending as the cell centres of _initial_field
    for t in (np.linspace(-20.0, 25.0, n), np.linspace(3.0, -7.5, n)):
        gap = np.abs(timedomain._time_amplitude(pulse, t) - _dense_time_amplitude(pulse, t))
        assert gap.max() <= 1e-12 * peak


@pytest.mark.parametrize("pulse", [
    *(_chirped_table(np.linspace(-0.2 - 9.0 / s, -0.2 + 9.0 / s, 1000), s, -0.2, 0.3)
      for s in (0.8, 1.0, 1.25)),
    _tier1_table(),
], ids=["bench_sigma0.8", "bench_sigma1", "bench_sigma1.25", "tier1_4001"])
def test_tabulated_grid_matches_the_dense_synthesis(monkeypatch, pulse):
    medium = make_uniform_medium(1.0)
    grid = timedomain.GridSpec.build(pulse, medium, cells_per_medium=60)
    monkeypatch.setattr(timedomain, "_time_amplitude", _dense_time_amplitude)
    ref = timedomain.GridSpec.build(pulse, medium, cells_per_medium=60)
    assert (grid.t_half, grid.max_steps, grid.n_cells) == (ref.t_half, ref.max_steps, ref.n_cells)


def test_tabulated_initial_field_memory():
    # the dense sum over every (cell, sample) pair peaked at about 438 MB here
    pulse = _tier1_table()
    grid = timedomain.GridSpec.build(pulse, make_uniform_medium(1.0), cells_per_medium=60)
    tracemalloc.start()
    try:
        timedomain._initial_field(pulse, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


RAMP_PULSE = GaussianPulse(0.7, 0.4)
RAMP_MEDIUM = make_tabulated_medium(np.linspace(0.0, 1.0, 5), [0.3, 0.6, 0.9, 1.2, 0.8])


@pytest.fixture(scope="module")
def run_ramped():
    grid = timedomain.GridSpec.build(RAMP_PULSE, RAMP_MEDIUM, cells_per_medium=80)
    fwd = timedomain.integrate_forward(RAMP_PULSE, RAMP_MEDIUM, grid)
    return fwd, timedomain.integrate_backward(fwd, RAMP_MEDIUM)


def test_ramped_medium_numbers_pinned(run_ramped):
    """A detuned pulse through a non-uniform g(z): an off-by-one in the offset of the
    medium window (or of the oracle's kernel window) moves every one of these numbers,
    which a uniform medium would hide."""
    fwd, bwd = run_ramped
    transmitted, _ = timedomain.com_delays(fwd)
    assert fwd.p_t == pytest.approx(0.33321824227977986, rel=1e-12)
    assert timedomain.tau_T_td(fwd, bwd) == pytest.approx(0.07507825001187099, rel=1e-12)
    assert timedomain.tau_avg_td(fwd) == pytest.approx(0.6667855853902833, rel=1e-12)
    assert transmitted == pytest.approx(0.07509576177744687, rel=1e-12)
    assert float(np.abs(fwd.beta).sum()) == pytest.approx(11754.654278669655, rel=1e-12)
    assert timedomain.tau_S_oracle(fwd, RAMP_MEDIUM) == pytest.approx(0.9624931866542472, rel=1e-12)


# float.hex of every reported time-domain number, and SHA-256 of the beta
# histories, for the default run and the ramped medium: any change to the
# arithmetic of a step, however small, moves these. The sums over whole fields
# and histories (P_T's final field, the overlaps, the oracle's norm of the
# history) are taken off BLAS, so the pins hold at any BLAS thread count
BITS = {
    "default": dict(
        p_t="0x1.3e8fa23f3363ap-2", tau_T_td="-0x1.3433cb5bb85d6p-2",
        tau_avg_td="0x1.60b83ed9ebdc6p-1", bookkeeping_dev="0x1.ff30b1f000000p-22",
        tau_S_oracle="0x1.22cb7ad8b0af0p+0",
        com_delays=("-0x1.3433268041b37p-2", "0x1.22cb2b1fcbf01p+0"),
        overlap=("0x1.1d928d0c2448cp-1", "0x0.0p+0"),
        beta_fwd="6233279eb0bb1f3c2a6c0d00c1d0419cf6067dd89b232181c731d5f19d71675d",
        beta_bwd="01361553e0ad768ae44c49e4d0584b14f56b99b8c36bdfb42ad40201728e96ec"),
    "ramped": dict(
        p_t="0x1.553729b416cafp-2", tau_T_td="0x1.3385404712034p-4",
        tau_avg_td="0x1.5564eb9564163p-1", bookkeeping_dev="0x1.2a6d1b4080000p-18",
        tau_S_oracle="0x1.eccbe82e9b09cp-1",
        com_delays=("0x1.33979d0e6ffd4p-4", "0x1.ecc738e574780p-1"),
        overlap=("0x1.278d6375d09e1p-1", "-0x1.938bff94ccccdp-57"),
        beta_fwd="ef8b2b54f8702201c5da0ad59bd27e5382a2615940266c5f57329046014b7527",
        beta_bwd="2eadcede589d6adeac5b5250436269678d65697c53be85a13549388a68e18161"),
}


def _outputs(fwd, bwd, medium):
    """The BITS entries of one forward and backward run."""
    return dict(
        p_t=fwd.p_t.hex(), tau_T_td=timedomain.tau_T_td(fwd, bwd).hex(),
        tau_avg_td=timedomain.tau_avg_td(fwd).hex(), bookkeeping_dev=fwd.bookkeeping_dev.hex(),
        tau_S_oracle=timedomain.tau_S_oracle(fwd, medium).hex(),
        com_delays=tuple(x.hex() for x in timedomain.com_delays(fwd)),
        overlap=(bwd.overlap[-1].real.hex(), bwd.overlap[-1].imag.hex()),
        beta_fwd=hashlib.sha256(fwd.beta.tobytes()).hexdigest(),
        beta_bwd=hashlib.sha256(bwd.beta.tobytes()).hexdigest())


@pytest.mark.parametrize("case, medium", [("default", MEDIUM), ("ramped", RAMP_MEDIUM)])
def test_outputs_keep_their_bits(request, case, medium):
    fwd, bwd = request.getfixturevalue(f"run_{case}")
    assert _outputs(fwd, bwd, medium) == BITS[case]


def test_outputs_do_not_depend_on_the_blas_thread_count():
    """The ramped run, and a 60-cell run of a 1000-sample chirped table, in fresh processes
    with one and with two OpenBLAS threads give the same bits: no sum over a whole field or
    history, and no product of the table's synthesis, goes through BLAS's pool."""
    script = (f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r}); "
              "import test_timedomain as t; from dwelltime import timedomain; "
              "grid = timedomain.GridSpec.build(t.RAMP_PULSE, t.RAMP_MEDIUM, cells_per_medium=80); "
              "fwd = timedomain.integrate_forward(t.RAMP_PULSE, t.RAMP_MEDIUM, grid); "
              "print(t._outputs(fwd, timedomain.integrate_backward(fwd, t.RAMP_MEDIUM), t.RAMP_MEDIUM)); "
              "tab, m = t._chirped_table(t.np.linspace(-9.2, 8.8, 1000), 1.0, -0.2, 0.3), t.MEDIUM; "
              "grid = timedomain.GridSpec.build(tab, m, cells_per_medium=60); "
              "print(timedomain.integrate_forward(tab, m, grid).p_t.hex())")
    src = os.path.dirname(os.path.dirname(os.path.abspath(timedomain.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                   text=True, check=True, timeout=120).stdout)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == f"{BITS['ramped']}"


@pytest.mark.parametrize("in_place", [False, True], ids=["into_out", "into_beta"])
@pytest.mark.parametrize("sign, shift", [(1.0, -1), (-1.0, 1)], ids=["forward", "adjoint"])
def test_step_equals_two_fresh_half_steps(sign, shift, in_place):
    """One in-place step of the kernel equals, bit for bit, two half steps written
    with fresh arrays around a free flight by shift, whether the new beta goes to
    its own row or over beta itself; the field changes only on the n_med + 1
    cells that the two windows cover."""
    grid = timedomain.GridSpec.build(RAMP_PULSE, RAMP_MEDIUM, cells_per_medium=80)
    coef = timedomain._coupling_halfstep(RAMP_MEDIUM, grid, sign)
    nm, k = grid.n_med, 5
    rng = np.random.default_rng(22)
    field0 = rng.standard_normal(nm + 10) + 1j * rng.standard_normal(nm + 10)
    beta0 = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)

    ref_field, ref_beta = field0.copy(), beta0.copy()
    a11, ia12, a22 = coef
    for j in (k, k + shift):
        am = ref_field[j:j + nm].copy()
        ref_field[j:j + nm] = a11 * am + ia12 * ref_beta
        ref_beta = ia12 * am + a22 * ref_beta

    field, beta = field0.copy(), beta0.copy()
    out = beta if in_place else np.full(nm, np.nan + 0j)
    timedomain._stepper(coef, field, shift)(k, beta, out)
    assert np.array_equal(out, ref_beta)
    assert np.array_equal(field, ref_field)
    covered = np.zeros(field.size, dtype=bool)
    covered[min(k, k + shift):min(k, k + shift) + nm + 1] = True
    assert np.array_equal(field[~covered], field0[~covered])
    assert not np.array_equal(field[covered], field0[covered])
