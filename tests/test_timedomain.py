"""Split-step integrator of the forward/backward no-jump equations.

Cross-checks every reported number against the closed-form engine and pins the
structural invariants: norm bookkeeping, exact adjoint stepping (constant
overlap), and the center-of-mass delay identities.
"""

import math

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


def test_ramped_medium_numbers_pinned():
    """A detuned pulse through a non-uniform g(z): an off-by-one in the offset of the
    medium window (or of the oracle's kernel window) moves every one of these numbers,
    which a uniform medium would hide."""
    pulse = GaussianPulse(0.7, 0.4)
    medium = make_tabulated_medium(np.linspace(0.0, 1.0, 5), [0.3, 0.6, 0.9, 1.2, 0.8])
    grid = timedomain.GridSpec.build(pulse, medium, cells_per_medium=80)
    fwd = timedomain.integrate_forward(pulse, medium, grid)
    bwd = timedomain.integrate_backward(fwd, medium)
    transmitted, _ = timedomain.com_delays(fwd)
    assert fwd.p_t == pytest.approx(0.33321824227977986, rel=1e-12)
    assert timedomain.tau_T_td(fwd, bwd) == pytest.approx(0.07507825001187099, rel=1e-12)
    assert timedomain.tau_avg_td(fwd) == pytest.approx(0.6667855853902833, rel=1e-12)
    assert transmitted == pytest.approx(0.07509576177744687, rel=1e-12)
    assert float(np.abs(fwd.beta).sum()) == pytest.approx(11754.654278669655, rel=1e-12)
    assert timedomain.tau_S_oracle(fwd, medium) == pytest.approx(0.9624931866542472, rel=1e-12)
