"""Single-sided cavity analog: negative back-reflected dwell time.

Frozen Gaussian values were computed by an independent quadrature script
before this module was written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwelltime import cavity
from dwelltime.domain import GaussianPulse, NarrowBandPulse, TabulatedSpectrumPulse
from dwelltime.errors import InvalidParameterError

CP = cavity.CavityParams(1.0, 3.0)


class TestCavityParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(InvalidParameterError):
            cavity.CavityParams(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            cavity.CavityParams(1.0, -2.0)


class TestNarrowBand:
    def test_resonant_reference_value(self):
        # gamma1 = 1, gamma2 = 3 gives tau_B = 4 g1 / (g1^2 - g2^2) = -1/2
        assert cavity.tau_B_direct(CP, NarrowBandPulse(0.0)) == pytest.approx(-0.5, abs=1e-15)

    def test_closed_form_equals_rate_form(self):
        for g1, g2 in ((1.0, 3.0), (0.2, 0.9), (2.0, 2.5)):
            cp = cavity.CavityParams(g1, g2)
            want = 4.0 * g1 / (g1 * g1 - g2 * g2)
            assert cavity.tau_B_closed(cp) == pytest.approx(want, rel=1e-12)

    def test_closed_form_needs_undercoupling(self):
        with pytest.raises(InvalidParameterError):
            cavity.tau_B_closed(cavity.CavityParams(3.0, 1.0))
        with pytest.raises(InvalidParameterError):
            cavity.tau_B_closed(cavity.CavityParams(1.0, 1.0))

    def test_matched_cavity_reflects_nothing(self):
        with pytest.raises(InvalidParameterError, match="nothing reflects"):
            cavity.tau_B_direct(cavity.CavityParams(1.0, 1.0), NarrowBandPulse(0.0))

    def test_negative_while_unconditioned_dwell_positive(self):
        nb = NarrowBandPulse(0.0)
        assert cavity.tau_B_direct(CP, nb) < 0.0 < cavity.dwell_avg(CP, nb)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_spectral_integrands_at_the_carrier_are_the_closed_forms(self, g1, g2, d):
        """A narrow-band pulse evaluates each finite-bandwidth integrand at its
        carrier with unit density; that equals, bit for bit, the closed forms."""
        cp, nb = cavity.CavityParams(g1, g2), NarrowBandPulse(d)
        den = (g1 + g2) ** 2 + 4.0 * d * d
        p_ref = ((g2 - g1) ** 2 + 4.0 * d * d) / den
        assert cavity.scatter_probabilities(cp, nb) == (p_ref, 1.0 - p_ref)
        assert cavity.dwell_avg(cp, nb) == 4.0 * g1 / den
        if p_ref <= 0.0:
            with pytest.raises(InvalidParameterError, match="nothing reflects"):
                cavity.tau_B_direct(cp, nb)
        else:
            num = (g1 - g2 + 2j * d) / ((g1 + g2 + 2j * d) * den)
            assert cavity.tau_B_direct(cp, nb) == 4.0 * g1 * num.real / p_ref


    @pytest.mark.parametrize("detuning", [1e160, -1e160, 1e300])
    @pytest.mark.parametrize("float_type", [float, np.float64])
    def test_far_detuned_carrier_takes_the_limits(self, detuning, float_type):
        # 4 d^2 overflows: everything reflects, with no dwell (a RuntimeWarning fails this)
        nb = NarrowBandPulse(float_type(detuning))
        assert cavity.scatter_probabilities(CP, nb) == (1.0, 0.0)
        assert cavity.dwell_avg(CP, nb) == 0.0
        assert cavity.tau_B_direct(CP, nb) == 0.0


class TestGaussianPulseAverages:
    def test_frozen_reference_values(self):
        pulse = GaussianPulse(1.0, 0.0)
        p_ref, p_tr = cavity.scatter_probabilities(CP, pulse)
        assert p_ref == pytest.approx(0.2900428512593180, rel=5e-9)
        assert p_tr == pytest.approx(0.7099571487406820, rel=5e-9)
        assert cavity.tau_B_direct(CP, pulse) == pytest.approx(-0.3482530559547337, rel=5e-9)

    def test_dwell_equals_transmitted_fraction_over_loss_rate(self):
        for pulse in (NarrowBandPulse(0.3), GaussianPulse(0.7, -0.5)):
            _, p_tr = cavity.scatter_probabilities(CP, pulse)
            assert cavity.dwell_avg(CP, pulse) == pytest.approx(p_tr / CP.gamma2, rel=1e-10)

    def test_probabilities_sum_to_one(self):
        p_ref, p_tr = cavity.scatter_probabilities(CP, GaussianPulse(2.0, 1.0))
        assert p_ref + p_tr == pytest.approx(1.0, abs=1e-12)


# float.hex of (P_ref, P_tr), dwell_avg and tau_B_direct on the pulse's own
# quadrature window; "widened" is a case whose cavity line, 10 (gamma1 + gamma2),
# once widened that window (the bits moved by 1 to 2 ulp when that widening went, by 1 when
# the Gaussian levels began to nest, and by 1 to 2 on the sinh grid: test_reference holds
# each within 1e-14 of the long-double reference)
CAVITY_HEX = {
    "gaussian": (["0x1.cb3f17e0b8a7ep-2", "0x1.1a60740fa3ac1p-1"], "0x1.d6a0c16f661f0p-2",
                 "-0x1.52d53acfc1196p-4"),
    "chirped_table": (["0x1.a2de9c5a31939p-2", "0x1.2e90b1d2e7364p-1"], "0x1.f8467db4d6afcp-2",
                      "-0x1.2612144b6678ep-3"),
    "widened": (["0x1.a3492148ca2d8p-3", "0x1.972db7adcd74ap-1"], "0x1.45be2c8b0ac3cp-3",
                "-0x1.38e76ade99585p-2"),
}


def pinned_case(name):
    if name == "widened":
        return cavity.CavityParams(2.0, 5.0), GaussianPulse(1.0, 0.3)
    if name == "gaussian":
        return cavity.CavityParams(0.5, 1.2), GaussianPulse(0.7, 0.4)
    w = np.linspace(-8.0, 8.0, 1601)
    return cavity.CavityParams(0.5, 1.2), TabulatedSpectrumPulse(w, np.exp(-(w**2) / 2) * np.exp(1j * 0.4 * w**2))


@pytest.mark.parametrize("name", sorted(CAVITY_HEX))
def test_finite_bandwidth_bits_pinned(name):
    cp, pulse = pinned_case(name)
    probabilities, dwell, tau_b = CAVITY_HEX[name]
    assert [float.hex(p) for p in cavity.scatter_probabilities(cp, pulse)] == probabilities
    assert float.hex(cavity.dwell_avg(cp, pulse)) == dwell
    assert float.hex(cavity.tau_B_direct(cp, pulse)) == tau_b


def test_table_pins_against_fine_rule(fine_table_rule):
    """The chirped table's pins lie within 1e-11 of the fine reference rule; the
    uniform trapezoid's pins had tau_B 1.9e-8 off."""
    cp, pulse = pinned_case("chirped_table")
    probabilities, dwell, tau_b = CAVITY_HEX["chirped_table"]
    with fine_table_rule():
        ref = [*cavity.scatter_probabilities(cp, pulse), cavity.dwell_avg(cp, pulse),
               cavity.tau_B_direct(cp, pulse)]
    assert [float.fromhex(h) for h in (*probabilities, dwell, tau_b)] == pytest.approx(ref, rel=1e-11)


class TestMirrorMap:
    def test_round_trip_is_exact(self):
        mir = cavity.mirror_map(CP)
        # rates from reflectivities: gamma = (4 / tau_rt) (1 - r) / (1 + r)
        back = [(4.0 / mir.tau_rt) * (1.0 - r) / (1.0 + r) for r in (mir.r1, mir.r2)]
        assert back[0] == pytest.approx(CP.gamma1, rel=1e-12)
        assert back[1] == pytest.approx(CP.gamma2, rel=1e-12)

    def test_default_round_trip_time_is_fast(self):
        assert cavity.mirror_map(CP).tau_rt == pytest.approx(0.01 / CP.gamma2)

    def test_rejects_slow_round_trip(self):
        with pytest.raises(InvalidParameterError):
            cavity.mirror_map(CP, tau_rt=5.0)

    def test_reflectivities_in_unit_interval(self):
        mir = cavity.mirror_map(CP)
        assert 0.0 < mir.r1 < 1.0 and 0.0 < mir.r2 < 1.0
        assert mir.r1 > mir.r2  # smaller rate, better mirror


class TestFeynmanSum:
    def test_partial_sums_converge_geometrically(self):
        mir = cavity.mirror_map(CP, tau_rt=0.1 / CP.gamma2)
        _, closed = cavity.feynman_tau_B(mir, 1)
        gaps = [abs(cavity.feynman_tau_B(mir, n)[0] - closed) for n in (50, 100, 200, 400)]
        assert all(g2 < 0.8 * g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4 * abs(closed)

    def test_closed_form_tracks_rate_model(self):
        # path-sum closed form differs from the rate-model value by 4 r2/(1+r2)^2
        mir = cavity.mirror_map(CP)
        _, closed = cavity.feynman_tau_B(mir, 1)
        ratio = 4.0 * mir.r2 / (1.0 + mir.r2) ** 2
        assert closed == pytest.approx(cavity.tau_B_closed(CP) * ratio, rel=1e-12)
        # vanishing round trip removes the discretization entirely
        fine = cavity.mirror_map(CP, tau_rt=1e-6 / CP.gamma2)
        _, closed_fine = cavity.feynman_tau_B(fine, 1)
        assert closed_fine == pytest.approx(cavity.tau_B_closed(CP), rel=1e-5)

    def test_balanced_mirrors_rejected(self):
        mir = cavity.MirrorParams(r1=0.9, r2=0.9, tau_rt=0.01)
        with pytest.raises(InvalidParameterError, match="net reflection vanishes at r1 = r2"):
            cavity.feynman_tau_B(mir, 10)

    def test_needs_at_least_one_bounce(self):
        with pytest.raises(InvalidParameterError):
            cavity.feynman_tau_B(cavity.mirror_map(CP), 0)

    def test_mirror_params_validation(self):
        with pytest.raises(InvalidParameterError):
            cavity.MirrorParams(r1=1.0, r2=0.5, tau_rt=0.01)
        with pytest.raises(InvalidParameterError):
            cavity.MirrorParams(r1=0.5, r2=0.5, tau_rt=0.0)


@given(st.floats(0.05, 4.0), st.floats(1.05, 8.0))
@settings(max_examples=60, deadline=None)
def test_closed_form_identity_everywhere(g1, ratio):
    g2 = g1 * ratio
    cp = cavity.CavityParams(g1, g2)
    want = 4.0 * g1 / (g1 * g1 - g2 * g2)
    assert cavity.tau_B_closed(cp) == pytest.approx(want, rel=1e-11)
