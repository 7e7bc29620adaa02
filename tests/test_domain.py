"""Value types: pulses, media, reports, unit conversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwelltime.domain import (
    AtomParams,
    DelayReport,
    GaussianPulse,
    MediumProfile,
    NarrowBandPulse,
    TabulatedSpectrumPulse,
    make_tabulated_medium,
    make_uniform_medium,
    od_integral,
)
from dwelltime.errors import InvalidParameterError


class TestGaussianPulse:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidParameterError):
            GaussianPulse(sigma=0.0)
        with pytest.raises(InvalidParameterError):
            GaussianPulse(sigma=-1.0)

    def test_spectral_density_normalized(self):
        p = GaussianPulse(0.7, detuning=1.2)
        w = np.linspace(-20, 22, 200001)
        assert np.trapezoid(p.spectral_density(w), w) == pytest.approx(1.0, rel=1e-12)

    def test_density_is_squared_amplitude(self):
        p = GaussianPulse(2.0, detuning=-0.4)
        w = np.linspace(-3, 3, 101)
        np.testing.assert_allclose(p.spectral_amplitude(w) ** 2, p.spectral_density(w), rtol=1e-13)

    def test_time_amplitude_normalized_and_centered(self):
        p = GaussianPulse(0.5, detuning=0.9)
        t = np.linspace(-12, 12, 100001)
        a = p.time_amplitude(t)
        assert np.trapezoid(np.abs(a) ** 2, t) == pytest.approx(1.0, rel=1e-12)
        assert np.trapezoid(t * np.abs(a) ** 2, t) == pytest.approx(0.0, abs=1e-12)

    def test_support_halfwidth_reaches_tail_cut(self):
        # amplitude (not density) drops to TAIL_CUT of peak at the support edge
        p = GaussianPulse(1.3)
        th = p.support_halfwidth
        peak = abs(p.time_amplitude(0.0))
        assert abs(p.time_amplitude(th)) / peak == pytest.approx(1e-8, rel=1e-6)


class TestTabulatedSpectrumPulse:
    def test_normalizes_by_default(self):
        w = np.linspace(-5, 5, 4001)
        p = TabulatedSpectrumPulse(w, 3.7 * np.exp(-(w**2)))
        assert np.trapezoid(np.abs(p.amplitudes) ** 2, w) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_unnormalized_when_asked_to_trust(self):
        w = np.linspace(-5, 5, 1001)
        with pytest.raises(InvalidParameterError):
            TabulatedSpectrumPulse(w, 3.7 * np.exp(-(w**2)), normalize=False)

    def test_rejects_bad_grids(self):
        with pytest.raises(InvalidParameterError):
            TabulatedSpectrumPulse(np.array([0.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(InvalidParameterError):
            TabulatedSpectrumPulse(np.array([0.0, 1.0]), np.ones(3))
        with pytest.raises(InvalidParameterError):
            TabulatedSpectrumPulse(np.array([0.0, 1.0]), np.zeros(2))

    @pytest.mark.parametrize("omegas", [[-math.inf, 0.0, math.inf], [0.0, 1.0, math.inf],
                                        [-1.5e308, 0.0, 1.5e308]], ids=["inf_ends", "inf_end", "span_1e308"])
    def test_rejects_grid_beyond_float_range(self, omegas):
        # refused before a span or a sample spacing of inf - inf warns
        with pytest.raises(InvalidParameterError, match="omegas must span a finite range"):
            TabulatedSpectrumPulse(np.array(omegas), np.ones(3))

    def test_rejects_norm_beyond_float_range(self):
        with pytest.raises(InvalidParameterError, match="spectrum norm inf"):
            TabulatedSpectrumPulse(np.array([0.0, 1.0]), np.full(2, 1e200))

    def test_amplitude_vanishes_outside_grid(self):
        w = np.linspace(-1, 1, 101)
        p = TabulatedSpectrumPulse(w, np.ones(101))
        assert p.spectral_amplitude(2.0) == 0.0
        assert p.spectral_amplitude(-1.5) == 0.0


class TestMediumProfile:
    def test_uniform_depth_round_trips_exactly(self):
        for od0 in (0.1, 1.0, 2.5, 7.0, 19.5):
            assert make_uniform_medium(od0).od0 == od0

    def test_rejects_negative_depth_and_length(self):
        with pytest.raises(InvalidParameterError):
            make_uniform_medium(-1.0)
        with pytest.raises(InvalidParameterError):
            make_uniform_medium(1.0, length=0.0)

    def test_exactly_one_profile_source(self):
        with pytest.raises(InvalidParameterError):
            MediumProfile(length=1.0)
        with pytest.raises(InvalidParameterError):
            MediumProfile(length=1.0, g0=1.0, z_samples=np.array([0.0, 1.0]),
                          g_samples=np.array([1.0, 1.0]))

    def test_tabulated_constant_profile_matches_uniform(self):
        uni = make_uniform_medium(3.0, length=2.0)
        tab = make_tabulated_medium(np.linspace(0, 2.0, 41), np.full(41, uni.g0))
        assert tab.od0 == pytest.approx(uni.od0, rel=1e-12)
        for z in (0.0, 0.37, 1.0, 2.0):
            assert od_integral(tab, z) == pytest.approx(od_integral(uni, z), rel=1e-12, abs=1e-14)

    def test_tabulated_linear_ramp_depth(self):
        # g(z) = z on [0, 1]: integral of g^2 is 1/3, od0 = 4/3, exact for the panel rule
        z = np.linspace(0, 1, 5)
        m = make_tabulated_medium(z, z)
        assert m.od0 == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert od_integral(m, 0.5) == pytest.approx(4.0 * 0.5**3 / 3.0, rel=1e-15)

    def test_od_integral_bounds(self):
        m = make_uniform_medium(2.0)
        with pytest.raises(InvalidParameterError, match=r"z=-0.1 outside \[0, 1.0\]"):
            od_integral(m, -0.1)
        with pytest.raises(InvalidParameterError, match=r"z=1.1 outside \[0, 1.0\]"):
            od_integral(m, 1.1)
        assert od_integral(m, 0.0) == 0.0
        assert od_integral(m, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_coupling_zero_outside_medium(self):
        m = make_uniform_medium(2.0)
        assert np.all(m.g_of(np.array([-0.5, 1.5])) == 0.0)
        assert np.all(m.g_of(np.array([0.0, 0.5, 1.0])) == m.g0)

    @given(st.lists(st.floats(0.0, 3.0), min_size=3, max_size=12),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_od_integral_monotone(self, gs, f1, f2):
        z = np.linspace(0.0, 1.0, len(gs))
        m = make_tabulated_medium(z, np.asarray(gs))
        za, zb = sorted((f1, f2))
        assert od_integral(m, za) <= od_integral(m, zb) + 1e-12


class TestAtomParams:
    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(InvalidParameterError):
            AtomParams(0.0)


class TestDelayReport:
    def _kw(self, **over):
        kw = dict(P_T=0.6, P_S=0.4, tau_0=0.4, tau_T=-0.1, tau_S=1.15,
                  t_g=math.nan, t_W=math.nan, t_S=math.nan,
                  od_eff=-math.log(0.6), method="analytic")
        kw.update(over)
        return kw

    def test_accepts_consistent_report(self):
        rep = DelayReport(**self._kw())
        assert rep.as_dict()["method"] == "analytic"

    def test_rejects_probability_leak(self):
        with pytest.raises(InvalidParameterError):
            DelayReport(**self._kw(P_S=0.5))

    def test_rejects_bad_transmission(self):
        with pytest.raises(InvalidParameterError):
            DelayReport(**self._kw(P_T=1.2, P_S=-0.2, od_eff=0.0))

    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidParameterError):
            DelayReport(**self._kw(method="guesswork"))


def test_narrowband_pulse_is_plain_detuning_tag():
    assert NarrowBandPulse(0.7).detuning == 0.7
    assert NarrowBandPulse().detuning == 0.0


def test_public_names_resolve():
    """Every name in dwelltime.__all__ exists on the package."""
    import dwelltime

    missing = [name for name in dwelltime.__all__ if not hasattr(dwelltime, name)]
    assert missing == []
