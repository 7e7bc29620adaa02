"""Closed-form frequency-domain engine against independently computed values.

The numbers in FROZEN were produced by standalone high-precision quadrature
scripts before this module existed and are pinned here verbatim.
"""

import ast
import contextlib
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwelltime import cavity, spectral, validation
from dwelltime.domain import (
    GaussianPulse,
    NarrowBandPulse,
    TabulatedSpectrumPulse,
    make_gaussian_pulse,
    make_uniform_medium,
    od_integral,
)
from dwelltime.errors import DwellTimeError, InvalidParameterError, NumericError

# (sigma, detuning, od0) -> {P_T, tau_T, tau_S, [od_eff]}; sigma None = narrow-band
FROZEN = [
    (1.0, 0.0, 0.5, dict(P_T=0.7268948363663614, tau_T=-0.14665892101766855,
                         tau_S=1.3903463815053060)),
    (1.0, 0.0, 1.0, dict(P_T=0.5379858683679452, tau_T=-0.2432256292104671,
                         tau_S=1.2832206687659128)),
    (1.0, 0.0, 2.0, dict(P_T=0.3110950959672883, tau_T=-0.3009778644636860,
                         tau_S=1.1359153303761557)),
    (1.0, 0.0, 5.0, dict(P_T=0.0875201981054383, tau_T=0.1355281423641520,
                         tau_S=0.9870008630942351)),
    (0.05, 0.0, 0.1, dict(P_T=0.9941284433276833, tau_T=-8.6199344159177e-5,
                          tau_S=1.0145946338607029, od_eff=0.0058888620340519)),
    (0.05, 0.0, 1800.0, dict(P_T=0.0498701290043493, tau_T=1.4968742609264131,
                             tau_S=0.9214325169911093, od_eff=2.9983330726147521)),
    (0.05, 0.0, 5000.0, dict(P_T=0.0067480620521450, tau_T=2.4971247654396656,
                             tau_S=0.9830347646701300, od_eff=4.9984999187056963)),
    (0.05, 0.0, 12800.0, dict(P_T=3.3593471381590094e-4, tau_T=3.9972655402778063,
                              tau_S=0.9986567284931514, od_eff=7.9985937209999033)),
    (0.5, 1.3, 3.0, dict(P_T=0.5901675322907900, tau_T=0.1638476777325195,
                         tau_S=0.7640558343767243)),
    (3.0, 0.0, 2.0, dict(P_T=0.1644193148361657, tau_T=-1.4447858309624736)),
    (0.02, -2.0, 20.0, dict(P_T=0.8831344018850662, tau_T=0.0601921069578044,
                            tau_S=0.5451379941246395)),
    (None, 0.7, 3.0, dict(P_T=0.3629415367353997, tau_T=0.3287070854638422,
                          tau_S=0.8127307592419351)),
]


def scattered_delay_quadrature(detuning, od0, n_od=4001):
    """Numeric-inner-integral route to the narrow-band scattered delay.

    Averages the group delay over the depth at which the photon is lost,
    weighting each depth by its exponential survival factor.
    """
    line = float(spectral.lorentzian(detuning))
    eta = np.linspace(0.0, od0, int(n_od))
    surv = np.exp(-eta * line)
    tg_unit = spectral.group_delay(detuning, 1.0)  # group delay is linear in depth
    num = tg_unit * np.trapezoid(surv * eta, eta)
    den = np.trapezoid(surv, eta)
    return spectral.wigner_delay(detuning) + num / den


def _pulse(sigma, detuning):
    return NarrowBandPulse(detuning) if sigma is None else GaussianPulse(sigma, detuning)


@pytest.mark.parametrize("sigma,detuning,od0,expect", FROZEN,
                         ids=[f"s{s}_d{d}_od{o}" for s, d, o, _ in FROZEN])
def test_frozen_reference_values(sigma, detuning, od0, expect):
    pulse = _pulse(sigma, detuning)
    medium = make_uniform_medium(od0)
    p_t, p_s = spectral.transmission_probability(pulse, medium)
    assert p_t == pytest.approx(expect["P_T"], rel=5e-9)
    assert p_t + p_s == pytest.approx(1.0, abs=1e-12)
    assert spectral.tau_T(pulse, medium) == pytest.approx(expect["tau_T"], rel=5e-9, abs=1e-12)
    if "tau_S" in expect:
        assert spectral.tau_S(pulse, medium) == pytest.approx(expect["tau_S"], rel=5e-9)
    if "od_eff" in expect:
        assert spectral.delay_report(pulse, medium).od_eff == pytest.approx(expect["od_eff"], rel=5e-9)


class TestClosedForms:
    def test_group_delay_formula(self):
        # -od0 (1 - 4 d^2) / (1 + 4 d^2)^2; vanishes at |detuning| = 1/2
        assert spectral.group_delay(0.0, 3.0) == -3.0
        assert spectral.group_delay(0.5, 7.0) == 0.0
        assert spectral.group_delay(-0.5, 7.0) == 0.0
        assert spectral.group_delay(1.0, 2.0) == pytest.approx(2.0 * 3.0 / 25.0)

    def test_wigner_delay_is_twice_lorentzian(self):
        assert spectral.wigner_delay(0.0) == 2.0
        assert spectral.wigner_delay(0.5) == pytest.approx(1.0)

    def test_narrowband_tau_t_is_group_delay(self):
        for d, od0 in ((0.0, 1.0), (0.7, 3.0), (-1.4, 12.0)):
            got = spectral.tau_T(NarrowBandPulse(d), make_uniform_medium(od0))
            assert got == spectral.group_delay(d, make_uniform_medium(od0).od0)

    def test_narrowband_scattered_formula(self):
        # tau_S = 1 - t_g / (exp(x) - 1), x the absorbed depth at the carrier
        d, od0 = 0.7, 3.0
        x = od0 * spectral.lorentzian(d)
        want = 1.0 - spectral.group_delay(d, od0) / math.expm1(x)
        got = spectral.tau_S(NarrowBandPulse(d), make_uniform_medium(od0))
        assert got == pytest.approx(want, rel=1e-14)

    # 2 l + (1 - 4 d^2) l (x / expm1(x) - 1) with l = lorentzian(d), x = od0 l,
    # evaluated once in 400-digit arithmetic (mpmath) at these float inputs
    @pytest.mark.parametrize("d,od0,want", [
        (1e4, 2.0, 7.499999966666667e-09),
        (1e6, 2.0, 7.499999999996666e-13),
        (1e8, 2.0, 7.5e-17),
        (1e77, 2.0, 7.5e-155),
        (3.0, 0.01, 0.05418187882915787),
    ])
    def test_narrowband_scattered_formula_at_small_depth(self, d, od0, want):
        # x / expm1(x) - 1 has an absolute error of about eps, so a small x
        # leaves it few correct digits
        got = spectral.tau_S(NarrowBandPulse(d), make_uniform_medium(od0))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_narrowband_transmission(self):
        d, od0 = 0.7, 3.0
        p_t, _ = spectral.transmission_probability(NarrowBandPulse(d), make_uniform_medium(od0))
        assert p_t == pytest.approx(math.exp(-od0 * spectral.lorentzian(d)), rel=1e-14)

    def test_scattered_delay_matches_tau_s(self):
        for sigma, d, od0 in ((1.0, 0.0, 1.0), (0.3, 0.8, 6.0)):
            p, m = GaussianPulse(sigma, d), make_uniform_medium(od0)
            assert spectral.scattered_delay(p, m) == pytest.approx(spectral.tau_S(p, m), rel=1e-9)

    def test_scattered_delay_against_numeric_inner_integral(self):
        # independent route: emission-depth integral evaluated by brute quadrature
        for d, od0 in ((0.0, 2.0), (1.1, 5.0)):
            closed = spectral.tau_S(NarrowBandPulse(d), make_uniform_medium(od0))
            numeric = scattered_delay_quadrature(d, od0)
            assert closed == pytest.approx(numeric, rel=1e-7)

# float.hex of invert_od_eff at od_eff = 0.01, 1, 10, off the zero-detuning
# Gaussians of the figures; the bisection visits the same od0 sequence each run
INVERSION_HEX = {
    "chirped_table": ["0x1.f42a2650cccccp-7", "0x1.ae04b9a8c0000p+0", "0x1.bd3a068e90000p+5"],
    "sigma0.1_detuned": ["0x1.6b3c825823d72p-4", "0x1.9ff0d15440000p+5", "0x1.3ed58206f8000p+12"],
    "sigma3_detuned": ["0x1.c96b6ae1d70a6p-6", "0x1.77a6b4fac0000p+1", "0x1.45c2783a08000p+5"],
}


def inversion_pulse(name):
    if name == "chirped_table":
        w = np.linspace(-8.0, 8.0, 8001)
        return TabulatedSpectrumPulse(w, np.exp(-(w**2)) * np.exp(1j * 0.4 * w**2))
    return GaussianPulse(0.1 if name == "sigma0.1_detuned" else 3.0, 0.7)


# float.hex of every finite delay_report field and of scattered_delay, off the
# finite-bandwidth pass (sigma100_detuned's moved by 1 to 8 ulp when the window's
# 20-linewidth floor went, and by 1 to 11 when the Gaussian levels began to nest: od_eff's
# 11 are -ln of P_T's 2 at P_T = 0.79)
REPORT_FIELDS = ("P_T", "P_S", "tau_0", "tau_T", "tau_S", "od_eff")
REPORT_HEX = {
    "chirped_table": (3.0, ["0x1.1dc6934957481p-2", "0x1.711cb65b545c0p-1", "0x1.711cb65b545c0p-1",
                            "0x1.b5f92ad2c58bap-6", "0x1.fab3a42b854bfp-1", "0x1.46b947383f976p+0"],
                      "0x1.fab3a42b854bfp-1"),
    "sigma100_detuned": (4.0, ["0x1.94a6e5a28b27ap-1", "0x1.ad646975d3611p-3", "0x1.ad646975d3611p-3",
                               "0x1.a93170e0c08ecp-3", "0x1.bd388cb4588f0p-3", "0x1.e1e39134ab70bp-3"],
                         "0x1.bd388cb4588f2p-3"),
}


def report_pulse(name):
    if name == "chirped_table":
        w = np.linspace(-8.0, 8.0, 1601)
        return TabulatedSpectrumPulse(w, np.exp(-(w**2) / 2) * np.exp(1j * 0.4 * w**2))
    return GaussianPulse(100.0, 2.0)


@pytest.mark.parametrize("name", sorted(REPORT_HEX))
def test_report_bits_pinned(name):
    od0, fields, delay = REPORT_HEX[name]
    pulse, medium = report_pulse(name), make_uniform_medium(od0)
    report = spectral.delay_report(pulse, medium)
    assert [float.hex(getattr(report, f)) for f in REPORT_FIELDS] == fields
    assert float.hex(spectral.scattered_delay(pulse, medium)) == delay


def test_table_report_pin_against_fine_rule(fine_table_rule):
    """The chirped table's pinned report and scattered delay lie within 1e-11 of the
    fine reference rule; the uniform trapezoid's pins had tau_T 1.1e-9 off."""
    od0, fields, delay = REPORT_HEX["chirped_table"]
    pulse, medium = report_pulse("chirped_table"), make_uniform_medium(od0)
    with fine_table_rule():
        ref = spectral.delay_report(pulse, medium)
        ref_delay = spectral.scattered_delay(pulse, medium)
    assert [float.fromhex(h) for h in fields] == pytest.approx([getattr(ref, f) for f in REPORT_FIELDS],
                                                               rel=1e-11)
    assert float.fromhex(delay) == pytest.approx(ref_delay, rel=1e-11)


def test_only_spectral_touches_the_frequency_grid():
    """The window, nodes, panel grid and trapezoid sum are spectral's own: cavity and
    validation integrate over frequency only through its one routine."""
    private = {"_spectral_window", "_panel_grid", "_trapezoid", "_nodes", "_gauss_legendre"}
    src = Path(spectral.__file__).parent
    for module in ("cavity.py", "validation.py"):
        tree = ast.parse((src / module).read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & private, (module, sorted(names & private))


class TestEffectiveDepth:
    def test_narrowband_effective_depth_closed_form(self):
        assert spectral.delay_report(NarrowBandPulse(0.0), make_uniform_medium(3.0)).od_eff == \
            pytest.approx(3.0, rel=1e-14)
        got = spectral.delay_report(NarrowBandPulse(1.0), make_uniform_medium(3.0)).od_eff
        assert got == pytest.approx(3.0 / 5.0, rel=1e-14)

    def test_inversion_round_trip(self):
        p = make_gaussian_pulse(0.5)
        od0 = spectral.invert_od_eff(p, 1.7)
        assert spectral.delay_report(p, make_uniform_medium(od0)).od_eff == pytest.approx(1.7, abs=1e-8)

    def test_inversion_rejects_negative_target(self):
        with pytest.raises(InvalidParameterError):
            spectral.invert_od_eff(make_gaussian_pulse(1.0), -0.1)

    def test_inversion_past_float_range_refuses(self):
        # the root of -ln P_T = 800 leaves P_T below float64 range
        with pytest.raises(InvalidParameterError, match="P_T underflows"):
            spectral.invert_od_eff(GaussianPulse(1.0), 800.0)

    @pytest.mark.parametrize("target", [709.0, 740.0])
    def test_inversion_to_subnormal_transmission_refuses(self, target):
        # P_T = exp(-target) would be subnormal; the inversion lost 3.5e-6 there at 740
        with pytest.raises(InvalidParameterError, match=r"od_eff must lie in \[0, 708.396\]"):
            spectral.invert_od_eff(GaussianPulse(1.0), target)

    def test_inversion_near_float_range_round_trips(self):
        p = GaussianPulse(1.0)
        od0 = spectral.invert_od_eff(p, 700.0)
        assert spectral.delay_report(p, make_uniform_medium(od0)).od_eff == pytest.approx(700.0, rel=1e-9)

    def test_inversion_at_the_float_range_edge_round_trips(self):
        # P_T = exp(-708) is still a normal float
        p = GaussianPulse(1.0)
        od0 = spectral.invert_od_eff(p, 708.0)
        assert spectral.delay_report(p, make_uniform_medium(od0)).od_eff == pytest.approx(708.0, rel=1e-9)

    def test_inversion_samples_density_once_per_level(self):
        # every pass reuses the density of each block of the panel levels it visits, and
        # each level past the first samples only its new midpoints, so no node is sampled
        # twice; on the sinh grid sigma 1 stops at 128 panels (levels of 65 and 64 new nodes)
        # and sigma 0.02 at 256 (and 128 more), where the uniform grid took 2048 and 8192
        calls = []

        class CountedPulse(GaussianPulse):
            def spectral_density(self, w):
                calls.append(np.array(w))
                return super().spectral_density(w)

        for sigma, blocks in ((1.0, 2), (0.02, 4)):
            calls.clear()
            spectral.invert_od_eff(CountedPulse(sigma), 5.0)
            assert 1 <= len(calls) <= blocks
            nodes = np.concatenate(calls)
            assert np.unique(nodes).size == nodes.size

    @pytest.mark.parametrize("name", sorted(INVERSION_HEX))
    def test_inversion_bits_pinned(self, name):
        got = [float.hex(spectral.invert_od_eff(inversion_pulse(name), t)) for t in (0.01, 1.0, 10.0)]
        assert got == INVERSION_HEX[name]

    def test_table_inversion_pins_against_fine_rule(self, fine_table_rule):
        # -ln P_T rises by at most 1 per unit od0, so each pinned od0, the middle of a
        # bracket of width OD_EFF_TOL * max(1, od0), reaches its target within that width
        pulse = inversion_pulse("chirped_table")
        for target, pin in zip((0.01, 1.0, 10.0), INVERSION_HEX["chirped_table"]):
            od0 = float.fromhex(pin)
            with fine_table_rule():
                od_eff = spectral.delay_report(pulse, make_uniform_medium(od0)).od_eff
            assert abs(od_eff - target) <= spectral.OD_EFF_TOL * max(1.0, od0), target

    @pytest.fixture
    def passes(self, monkeypatch):
        """One entry per spectral._converge call (quadrature pass) made in the test."""
        converge, calls = spectral._converge, []

        def counted_converge(level, start):
            calls.append(1)
            return converge(level, start)

        monkeypatch.setattr(spectral, "_converge", counted_converge)
        return calls

    @pytest.mark.parametrize("sigma,target", [(1.0, 5.0), (0.05, 10.0), (0.1, 700.0)])
    def test_inversion_takes_few_passes(self, passes, sigma, target):
        # the bisection alone took 35, 44 and 48 passes here
        spectral.invert_od_eff(GaussianPulse(sigma), target)
        assert len(passes) <= 10

    @pytest.mark.parametrize("target", [5.0, 300.0])
    def test_unreachable_target_refuses_in_few_passes(self, passes, target):
        # P_T of a flat spectrum over +-2e4 saturates, and Newton passes 1e9 within 3
        # passes; a bisection fallback took 30 (5) and 23 (300) passes in all to refuse
        flat = TabulatedSpectrumPulse(np.array([-2e4, 2e4]), np.ones(2))
        with pytest.raises(NumericError, match="no od0 below 1e9 reaches"):
            spectral.invert_od_eff(flat, target)
        assert len(passes) <= 6

    def test_narrowband_inversion_far_off_resonance(self):
        assert spectral.invert_od_eff(NarrowBandPulse(1e100), 1.0) == 4e200

    @pytest.mark.parametrize("detuning,target", [(1e153, 100.0), (1e160, 1.0), (-1e300, 1.0)])
    def test_narrowband_inversion_without_finite_od0_refuses(self, detuning, target):
        # the line is 0 past |detuning| ~ 6.7e153; at 1e153 od0 = target / line overflows
        with pytest.raises(InvalidParameterError, match=re.escape(f"at detuning {detuning:.6g}")):
            spectral.invert_od_eff(NarrowBandPulse(detuning), target)

    def test_effective_depth_never_exceeds_resonant_depth(self):
        for sigma, od0 in ((0.05, 30.0), (1.0, 5.0), (10.0, 1.0)):
            p, m = make_gaussian_pulse(sigma), make_uniform_medium(od0)
            assert spectral.delay_report(p, m).od_eff <= od0 + 1e-12


def _reference_bisection(pulse, od_eff):
    """invert_od_eff of a finite-bandwidth pulse by plain bisection on -ln P_T: the
    reference whose bits the Newton-located replay must return."""
    target = float(od_eff)
    levels = {}

    def level(n, od0):
        if n not in levels:
            levels[n] = [(integrate, pulse.spectral_density(w), spectral.lorentzian(w))
                         for w, integrate in spectral._nodes(pulse, n, target)]
        blocks = levels[n]
        norm = sum(integrate(dens) for integrate, dens, _ in blocks)
        pt_raw = sum(integrate(dens * np.exp(-od0 * line)) for integrate, dens, line in blocks)
        return np.array([[norm], [pt_raw]])

    def f(od0):
        ((norm,), (pt_raw,)), _ = spectral._converge(lambda n, cols, prev: level(n, od0),
                                                     spectral._start(pulse, target))
        return float(-np.log(pt_raw / norm)) if pt_raw > 0.0 else math.inf

    lo = target
    hi = max(2.0 * target, 1.0)
    while f(hi) < target:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise NumericError(f"no od0 below 1e9 reaches od_eff = {target}")
    while hi - lo > spectral.OD_EFF_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _inversion_outcome(invert, pulse, target):
    try:
        return float.hex(invert(pulse, target))
    except DwellTimeError as exc:
        return type(exc).__name__, str(exc)


PARITY_TARGETS = (1e-3, 0.05, 1.0, 10.0, 300.0, 700.0)
PARITY_PULSES = {f"sigma{s:g}_detuning{d:g}": (lambda s=s, d=d: GaussianPulse(s, d))
                 for s in (0.02, 0.05, 0.3, 1.0, 3.0, 100.0) for d in (0.0, 0.7, -2.5)}
PARITY_PULSES["chirped_table"] = lambda: inversion_pulse("chirped_table")
# P_T of a flat spectrum over +-2e4 saturates: targets 5 and 300 lie above every od0 below 1e9
PARITY_PULSES["flat_table"] = lambda: TabulatedSpectrumPulse(np.array([-2e4, 2e4]), np.ones(2))


@pytest.mark.parametrize("name", sorted(PARITY_PULSES))
def test_inversion_returns_the_bisection_bits(name):
    pulse = PARITY_PULSES[name]()
    targets = (1.0, 5.0, 300.0) if name == "flat_table" else PARITY_TARGETS
    for target in targets:
        want = _inversion_outcome(_reference_bisection, pulse, target)
        assert _inversion_outcome(spectral.invert_od_eff, pulse, target) == want, target


class TestDelayReport:
    def test_gaussian_report_structure(self):
        rep = spectral.delay_report(make_gaussian_pulse(1.0), make_uniform_medium(2.0))
        assert rep.method == "analytic"
        assert math.isnan(rep.t_g) and math.isnan(rep.t_W) and math.isnan(rep.t_S)
        assert rep.od_eff == pytest.approx(-math.log(rep.P_T), rel=1e-12)
        assert rep.tau_0 == pytest.approx(rep.P_S, abs=1e-12)

    def test_narrowband_report_has_finite_delays(self):
        rep = spectral.delay_report(NarrowBandPulse(0.7), make_uniform_medium(3.0))
        assert rep.t_g == spectral.group_delay(0.7, 3.0)
        assert rep.t_W == spectral.wigner_delay(0.7)
        assert rep.t_S == pytest.approx(rep.tau_S, rel=1e-12)

    @pytest.mark.parametrize("detuning,od0", [(1e10, 1e-10), (1e77, 2.0), (1e100, 2.0)])
    def test_narrowband_tau_s_positive_at_large_detuning(self, detuning, od0):
        # 1 - t_g / expm1(x) cancels to 0 here, or gives 1 where t_g takes its limit 0
        rep = spectral.delay_report(NarrowBandPulse(detuning), make_uniform_medium(od0))
        assert rep.tau_S == rep.t_S > 0.0

    def test_empty_medium_leaves_conditional_nan(self):
        rep = spectral.delay_report(make_gaussian_pulse(1.0), make_uniform_medium(0.0))
        assert rep.P_T == pytest.approx(1.0, abs=1e-12)
        assert rep.tau_T == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(rep.tau_S)

    def test_tau_s_raises_without_scattering(self):
        with pytest.raises(InvalidParameterError, match="nothing scatters at od0 = 0"):
            spectral.tau_S(make_gaussian_pulse(1.0), make_uniform_medium(0.0))

    @pytest.mark.parametrize("sigma", [5e-324, 1e-162, 5e-154])
    def test_spectrum_past_float_range_refuses(self, sigma):
        # the window's squared offsets overflow (and sigma^2 underflows): 0 * inf warned
        with pytest.raises(InvalidParameterError, match="spreads the spectrum past float range"):
            spectral.delay_report(make_gaussian_pulse(sigma), make_uniform_medium(1.0))

    def test_density_of_a_long_pulse_vanishes_off_its_carrier(self):
        # sigma^2 (w - detuning)^2 overflows to inf, and exp(-inf) = 0 without a warning
        dens = GaussianPulse(1e153).spectral_density(np.array([-20.0, 0.0, 20.0]))
        assert dens[0] == dens[2] == 0.0 and dens[1] > 0.0


class TestFields:
    """The z-resolved integrands of the gate (validation) against the complex
    no-jump fields they stand for, built here on a (z, w) grid."""

    def test_excitation_ratio_and_adjoint_pole(self):
        """|beta_fwd|^2 and Re[conj(beta_back) beta_fwd] of the complex fields,
        with excitation ratio i g / (i w + 1/2) and the adjoint pole at
        i w - 1/2, integrate to the gate's real-integrand values."""
        p, m, panels = make_gaussian_pulse(0.7, 0.4), make_uniform_medium(3.0), 2048
        p_t, _ = spectral.transmission_probability(p, m)
        z = np.linspace(0.0, m.length, validation.Z_POINTS)
        center, half = spectral._spectral_window(p)
        w = np.linspace(center - half, center + half, panels + 1)
        od_z = np.array([od_integral(m, zi) for zi in z])
        line = spectral.lorentzian(w)
        alpha = p.spectral_amplitude(w) * np.exp(np.outer(od_z, line * (1j * w - 0.5)) - 1j * np.outer(z, w))
        beta = 1j * m.g0 / (1j * w + 0.5) * alpha
        alpha_b = alpha / math.sqrt(p_t) * np.exp(np.outer(od_z, line) - m.od0 * line)
        beta_b = 1j * m.g0 / (1j * w - 0.5) * alpha_b
        excitation = validation._romberg(np.trapezoid(np.abs(beta) ** 2, w, axis=1), z)
        assert validation._field_excitation(p, m, panels) == pytest.approx(excitation, rel=1e-13)
        cross = validation._romberg(np.trapezoid(np.conj(beta_b) * beta, w, axis=1), z).real
        overlap = np.trapezoid((np.conj(alpha_b[-1]) * alpha[-1]).real, w)
        assert validation._field_weak_value(p, m, panels, p_t) == pytest.approx(cross / overlap, rel=1e-13)

    def test_weak_value_from_fields_reproduces_tau_t(self):
        """Integrating conj(beta_back) * beta_fwd over the medium and spectrum,
        normalized by the final overlap, is the transmitted dwell time."""
        p, m = make_gaussian_pulse(1.0), make_uniform_medium(2.0)
        p_t, _ = spectral.transmission_probability(p, m)
        weak = validation._field_weak_value(p, m, 8192, p_t)
        assert weak == pytest.approx(spectral.tau_T(p, m), rel=1e-9)


class TestAsymptotics:
    def test_transmission_limits_bracket_exact(self):
        p = make_gaussian_pulse(0.05)
        m_lo, m_hi = make_uniform_medium(0.1), make_uniform_medium(1800.0)
        exact_lo = spectral.delay_report(p, m_lo)
        a_lo = spectral.asymptotics(p, m_lo, exact_lo.od_eff)
        assert a_lo.pt_low_od == pytest.approx(exact_lo.P_T, rel=1e-3)
        exact_hi = spectral.delay_report(p, m_hi)
        a_hi = spectral.asymptotics(p, m_hi, exact_hi.od_eff)
        assert a_hi.pt_high_od == pytest.approx(exact_hi.P_T, rel=5e-3)

    def test_warns_outside_bandwidth_window(self):
        with pytest.warns(UserWarning):
            p, m = make_gaussian_pulse(1.0), make_uniform_medium(1.0)
            spectral.asymptotics(p, m, spectral.delay_report(p, m).od_eff)

    def test_narrowband_has_no_asymptotics(self):
        with pytest.raises(InvalidParameterError, match="asymptotic forms are derived for Gaussian pulses"):
            spectral.asymptotics(NarrowBandPulse(0.0), make_uniform_medium(1.0), 1.0)

    def test_dilute_transmitted_form_needs_tiny_bandwidth(self):
        """At sigma = 0.05 the quadratic-depth form misses even its own sign;
        the window check therefore probes it at sigma = 5e-4."""
        p, m = make_gaussian_pulse(0.05), make_uniform_medium(0.1)
        exact = spectral.delay_report(p, m)
        approx = spectral.asymptotics(p, m, exact.od_eff).tau_t_low_od
        assert exact.tau_T < 0 < approx  # fractional error above 1, by a wide margin
        p_tiny = make_gaussian_pulse(5e-4)
        m = make_uniform_medium(0.06)
        exact = spectral.delay_report(p_tiny, m)
        approx = spectral.asymptotics(p_tiny, m, exact.od_eff).tau_t_low_od
        assert approx == pytest.approx(exact.tau_T, rel=0.1)


class TestTabulatedSpectrum:
    def test_dense_gaussian_table_matches_closed_form(self):
        ref = GaussianPulse(1.0, 0.3)
        w = np.linspace(0.3 - 9.0, 0.3 + 9.0, 20001)
        tab = TabulatedSpectrumPulse(w, ref.spectral_amplitude(w))
        m = make_uniform_medium(2.0)
        assert spectral.tau_T(tab, m) == pytest.approx(spectral.tau_T(ref, m), rel=1e-6)
        assert spectral.tau_S(tab, m) == pytest.approx(spectral.tau_S(ref, m), rel=1e-6)

    def test_chirped_spectrum_still_satisfies_sum_rule(self):
        w = np.linspace(-8.0, 8.0, 8001)
        tab = TabulatedSpectrumPulse(w, np.exp(-(w**2)) * np.exp(1j * 0.4 * w**2))
        m = make_uniform_medium(3.0)
        p_t, p_s = spectral.transmission_probability(tab, m)
        lhs = p_s * spectral.tau_S(tab, m) + p_t * spectral.tau_T(tab, m)
        assert lhs == pytest.approx(spectral.delay_report(tab, m).tau_0, rel=1e-9)


def _wide_window_tau_t(pulse, od0):
    """tau_T of the core rows on a window of 60 / sigma about the carrier."""
    rows = spectral._core_rows(od0)

    def level(n, cols, prev):
        w, h = spectral._panel_grid(pulse.detuning, 60.0 / pulse.sigma, n)
        return spectral._trapezoid(h, rows(w, pulse.spectral_density(w)))[:, None]

    (_, (pt_raw,), _, (num,)), _ = spectral._converge(level, spectral.N_START)
    return num / pt_raw


@pytest.mark.parametrize("target", [300.0, 700.0])
@pytest.mark.parametrize("sigma", [0.02, 0.05, 0.3])
def test_dense_transmission_in_the_far_wing(sigma, target):
    """A dense medium transmits only the pulse's far wing, which a window of 8 / sigma
    cut off: tau_T read about 173 at od_eff 300 and 569 at 700. It is the group delay
    od_eff / 2 of the surviving spectrum."""
    pulse = GaussianPulse(sigma)
    medium = make_uniform_medium(spectral.invert_od_eff(pulse, target))
    report = spectral.delay_report(pulse, medium)
    assert report.od_eff == pytest.approx(target, rel=1e-9)
    warns = pytest.warns(UserWarning, match="sigma exceeds 0.2") if sigma > 0.2 else contextlib.nullcontext()
    with warns:
        high_od = spectral.asymptotics(pulse, medium, report.od_eff).tau_t_high_od
    assert report.tau_T == pytest.approx(high_od, rel=1e-3)
    assert report.tau_T == pytest.approx(_wide_window_tau_t(pulse, medium.od0), rel=1e-9)


def design_table(sigma, detuning, chirp, samples):
    """A chirped Gaussian spectrum sampled over +-6 / sigma about its carrier, as the
    benchmark's spectral_mix design builds its tables."""
    w = np.linspace(detuning - 6.0 / sigma, detuning + 6.0 / sigma, samples)
    chirp_phase = np.exp(1j * chirp * (sigma * (w - detuning)) ** 2)
    return TabulatedSpectrumPulse(w, GaussianPulse(sigma, detuning).spectral_amplitude(w) * chirp_phase)


def test_table_does_not_stop_short(fine_table_rule):
    # two trapezoid levels agreed to 1e-9 here while both left P_T 1.1e-6 off
    pulse, medium = design_table(0.30008, 2.8017, 1.2100, 2041), make_uniform_medium(6.9811)
    got = spectral.delay_report(pulse, medium).P_T
    with fine_table_rule():
        ref = spectral.delay_report(pulse, medium).P_T
    assert got == pytest.approx(ref, rel=1e-12)


def test_table_tau_s_is_the_scattered_delay():
    # the sum rule's tau_S and the scattered-spectrum average were 6.2e-6 apart on the trapezoid
    pulse, medium = design_table(1.07468, 2.56233, 1.37635, 1150), make_uniform_medium(4.21756)
    assert spectral.delay_report(pulse, medium).tau_S == \
        pytest.approx(spectral.scattered_delay(pulse, medium), rel=1e-9)


def corner_table():
    """The benchmark's narrow, chirped, far-detuned corner of spectral_mix."""
    return design_table(6.4676, -2.6112, 1.5324, 1331)


CORNER_MEDIUM, CORNER_CAVITY = make_uniform_medium(6.3989), cavity.CavityParams(0.4397, 1.4779)


@pytest.fixture
def panels(monkeypatch):
    """The panel count of every spectral._converge call made in the test."""
    converge, counts = spectral._converge, []

    def counted_converge(level, start):
        vals, n = converge(level, start)
        counts.append(n.copy())  # _core_block writes a dense depth's re-run into n
        return vals, n

    monkeypatch.setattr(spectral, "_converge", counted_converge)
    return counts


@pytest.mark.parametrize("integrate", [
    lambda: spectral._core_pass(GaussianPulse(100.0, 0.7), make_uniform_medium(15.0)),
    lambda: cavity.dwell_avg(cavity.CavityParams(5.0, 40.0), GaussianPulse(10.0, 0.3)),
    lambda: spectral.delay_report(corner_table(), CORNER_MEDIUM),
    lambda: spectral.scattered_delay(corner_table(), CORNER_MEDIUM),
    lambda: cavity.scatter_probabilities(CORNER_CAVITY, corner_table()),
    lambda: cavity.dwell_avg(CORNER_CAVITY, corner_table()),
], ids=["core_pass", "cavity_dwell", "table_report", "table_scattered", "table_cavity_probabilities",
        "table_cavity_dwell"])
def test_short_pulse_window_takes_few_panels(panels, integrate):
    # windows of 20 linewidths, or 10 (gamma1 + gamma2) for the cavity, took 32768
    # and 65536 panels; the pulse's own window resolves the same integrands on 2048.
    # The trapezoid over a table's 20-linewidth window ran the corner table to 2**20
    # panels in all but scattered_delay; its breakpoint rule stops at 2048
    integrate()
    assert panels and max(panels) <= 2048


@pytest.mark.parametrize("od0", [100.0, 1e3, 1e4])
def test_scattered_delay_takes_the_pulse_window(panels, od0):
    # every scattered row is bounded by the density, so the pulse's own window holds it;
    # a window sized by od0 took 8192 panels at od0 100 where the report's pass takes 4096
    pulse, medium = GaussianPulse(0.02, 0.7), make_uniform_medium(od0)
    report = spectral.delay_report(pulse, medium)
    report_panels = np.max(panels)
    panels.clear()
    delay = spectral.scattered_delay(pulse, medium)
    assert np.max(panels) <= report_panels
    assert delay == pytest.approx(report.tau_S, rel=1e-12)


def whole_grid(pulse, n):
    """(w, weights): a Gaussian level's n + 1 nodes and their weights before the trapezoid
    halves its ends. Uniform in w: the spacing. Mapped: w = sinh(u) / 2, the window's ends
    exact, of weight h cosh(u) / 2, with u_k = (k - n / 2) h + the centre of the u-window
    over asinh(2 w) of the window's ends."""
    center, half = spectral._spectral_window(pulse)
    if spectral._start(pulse) != spectral.N_START_MAPPED:
        w, h = spectral._panel_grid(center, half, n)
        return w, np.full_like(w, h)
    lo, hi = math.asinh(2.0 * (center - half)), math.asinh(2.0 * (center + half))
    u = (np.arange(n + 1) - n / 2) * ((hi - lo) / n) + 0.5 * (lo + hi)
    w = np.sinh(u) / 2
    w[0], w[-1] = center - half, center + half
    return w, (hi - lo) / n * np.cosh(u) / 2


@pytest.mark.parametrize("n", [2048, 8192, 65536])
def test_gaussian_level_in_blocks_is_the_whole_trapezoid(n):
    # past _BLOCK // 4 panels a Gaussian level is a run of trapezoids that share their
    # end nodes, and a nested level is half the level below plus the weighted sum of its
    # n / 2 midpoints, _BLOCK // 4 a block; each is the whole level's trapezoid in u up to
    # the order of its additions, for one depth and along a depth axis, on the mapped grid
    # of a window that holds the line and the uniform grid of one that does not
    for pulse in (GaussianPulse(0.02), GaussianPulse(0.02, 500.0)):
        assert len(list(spectral._nodes(pulse, n))) == max(1, n // (spectral._BLOCK // 4))
        assert len(list(spectral._nodes(pulse, n, midpoints=True))) == max(1, n // 2 // (spectral._BLOCK // 4))
        w, weights = whole_grid(pulse, n)
        dens = pulse.spectral_density(w)
        depths = np.array([0.5, 2.0, 30.0])
        cases = [(spectral._core_rows(2.0), None, spectral._core_rows(2.0)(w, dens)),  # one depth
                 (spectral._core_rows, depths, spectral._core_rows(depths[:, None])(w, dens))]  # a depth axis
        for rows, axis, samples in cases:
            whole = spectral._trapezoid(1.0, samples * weights)
            level = partial(spectral._level, pulse, rows, depths=axis)
            np.testing.assert_allclose(level(n), whole, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(level(n, prev=level(n // 2)), whole, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("sigma", [1e-6, 1e-4, 1e-3, 0.02, 0.05, 0.3, 1.0, 10.0, 100.0])
def test_mapped_pass_stops_at_512_panels(panels, sigma):
    # on the uniform grid these took 2048 to 2**20 panels, and sigma 1e-4 and 1e-6 raised
    # NumericError at the cap; a window that leaves out the line (sigma 100 at detuning 3)
    # stays uniform, and so does the re-run of a depth whose -ln P_T passes 88 (sigma 1
    # at od0 1e5). From its 64-panel start a mapped pass stops at 512 panels at most, at
    # sigma 1e-6; at 256 from sigma 1e-4, and at its first doubling, 128, from sigma 10
    most = 512 if sigma < 1e-4 else 128 if sigma >= 10.0 else 256
    for detuning in (0.0, 0.7, 3.0, -40.0):
        pulse = GaussianPulse(sigma, detuning)
        if spectral._start(pulse) != spectral.N_START_MAPPED:
            continue
        for od0 in (1e-3, 0.1, 2.0, 20.0, 1e3, 1e5):
            panels.clear()
            try:
                [(report, n)] = spectral._core_pass(pulse, [od0])
            except InvalidParameterError:  # P_T below float range at sigma 10 and 100
                assert sigma >= 10.0 and od0 >= 1e3
                continue
            [first] = panels[0].tolist()
            assert first <= most, (detuning, od0)
            assert n == first or report.od_eff > 88.0, (detuning, od0)


# float.hex of delay_report's fields and of scattered_delay (None: not pinned) on the
# uniform grid: windows that leave out the line, and a depth re-run on a widened window.
# far_detuned's tau_S reads 0 where it is about 3e-28: the open cancellation of the
# outcome sum rule at large detuning, whose mend would re-pin it. dense sizes its re-run's
# window by the P_T of its mapped first pass, whose per-row rule stops it at 128 panels, not
# 512; that moved P_T by 3 ulp, to 31 below the long-double value (test_reference) from 28,
# and tau_T by 1, to 0.33 ulp below it from 0.67 above
UNIFORM_HEX = {
    "far_detuned": ((1.0, 5e13, 2.0), ["0x1.0000000000000p+0", "0x1.fb0f6be506019p-93",
                                       "0x1.fb0f6be506019p-93", "0x1.fb0f6be506019p-93",
                                       "0x0.0p+0", "-0x0.0p+0"],
                    "0x1.7c4b90ebc4813p-92"),
    "line_outside": ((0.05, 200.0, 2.0), ["0x1.fffe5963a42bap-1", "0x1.a69c5bd47c03ap-17",
                                          "0x1.a69c5bd47c03ap-17", "0x1.a69ba809eb03cp-17",
                                          "0x1.4036cdee10000p-16", "0x1.a69d0a3eb78a0p-17"],
                     "0x1.4036cdee15848p-16"),
    "dense": ((1.0, 0.3, 1e4), ["0x1.ba9f73d63c1d7p-195", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
                                "0x1.0fe19c891774cp+6", "0x1.0000000000000p+0", "0x1.0d3b794490c34p+7"], None),
}


@pytest.mark.parametrize("name", sorted(UNIFORM_HEX))
def test_uniform_grid_keeps_its_bits(panels, name):
    # the bits of the uniform trapezoid before the sinh grid came in, on the pass that
    # gives the report (after the dense case's first, mapped pass), but dense's P_T and tau_T
    (sigma, detuning, od0), fields, delay = UNIFORM_HEX[name]
    pulse, medium = GaussianPulse(sigma, detuning), make_uniform_medium(od0)
    assert [float.hex(getattr(spectral.delay_report(pulse, medium), f)) for f in REPORT_FIELDS] == fields
    assert panels[-1].tolist() == [2048]
    if delay is not None:
        assert float.hex(spectral.scattered_delay(pulse, medium)) == delay


@pytest.fixture
def sampled(monkeypatch):
    """Every array of frequency nodes at which a GaussianPulse's density is sampled in the test."""
    density, nodes = GaussianPulse.spectral_density, []

    def recorded(self, w):
        nodes.append(np.array(w, dtype=float))
        return density(self, w)

    monkeypatch.setattr(GaussianPulse, "spectral_density", recorded)
    return nodes


# each id names the panels its case took on the uniform grid; the mapped passes stop at
# 128 or 256, their 64-panel start and one or two doublings
@pytest.mark.parametrize("pulse,integrate,n", [
    (GaussianPulse(1.0, 0.3), lambda p: spectral.delay_report(p, make_uniform_medium(2.0)), 128),
    (GaussianPulse(0.05, 0.7), lambda p: spectral.delay_report(p, make_uniform_medium(2.0)), 128),
    (GaussianPulse(0.02, 0.7), lambda p: spectral.delay_report(p, make_uniform_medium(2.0)), 256),
    (GaussianPulse(0.02, 0.7), lambda p: spectral.scattered_delay(p, make_uniform_medium(2.0)), 128),
    (GaussianPulse(0.05, 0.4), lambda p: cavity.tau_B_direct(cavity.CavityParams(0.5, 1.2), p), 128),
    (GaussianPulse(0.05, 200.0), lambda p: spectral.delay_report(p, make_uniform_medium(2.0)), 2048),
], ids=["report_2048", "report_4096", "report_16384", "scattered_delay", "cavity_tau_B", "line_outside_2048"])
def test_gaussian_pass_samples_each_node_once(sampled, panels, pulse, integrate, n):
    # a doubling samples only its new midpoints: a pass that stops at n panels samples the
    # n + 1 nodes of its final level, each once, where whole levels sampled about 2 n
    integrate(pulse)
    assert [int(k[0]) for k in panels] == [n]
    assert np.sort(np.concatenate(sampled)).tolist() == np.sort(whole_grid(pulse, n)[0]).tolist()


def test_quadrature_cap_raises():
    # oscillation far below any affordable panel size never stabilizes
    def rows(w, dens):
        return np.stack([np.cos(1e8 * w).astype(complex)])

    with pytest.raises(NumericError):
        spectral._spectral_integrals(make_gaussian_pulse(1.0), rows)


def test_table_past_the_cap_raises(monkeypatch):
    # the corner stops at 2048 panels, whose nodes a cap of 2048 does not admit
    monkeypatch.setattr(spectral, "N_CAP", 2048)
    with pytest.raises(NumericError, match="quadrature not converged at 2048 panels"):
        spectral.delay_report(corner_table(), CORNER_MEDIUM)


# --- property-based invariants --------------------------------------------

sigmas = st.floats(0.05, 20.0)
detunings = st.floats(-3.0, 3.0)
depths = st.floats(1e-3, 20.0)


@given(sigmas, detunings, depths)
@settings(max_examples=40, deadline=None)
def test_probabilities_partition_unity(sigma, detuning, od0):
    p_t, p_s = spectral.transmission_probability(GaussianPulse(sigma, detuning),
                                                 make_uniform_medium(od0))
    assert 0.0 < p_t <= 1.0
    assert abs(p_t + p_s - 1.0) < 1e-12


@given(sigmas, detunings, depths)
@settings(max_examples=40, deadline=None)
def test_outcome_times_recombine(sigma, detuning, od0):
    p, m = GaussianPulse(sigma, detuning), make_uniform_medium(od0)
    p_t, p_s = spectral.transmission_probability(p, m)
    lhs = p_s * spectral.tau_S(p, m) + p_t * spectral.tau_T(p, m)
    assert lhs == pytest.approx(p_s, rel=1e-9, abs=1e-12)


@given(sigmas, detunings, depths)
@settings(max_examples=30, deadline=None)
def test_detuning_sign_symmetry(sigma, detuning, od0):
    m = make_uniform_medium(od0)
    a = spectral.tau_T(GaussianPulse(sigma, detuning), m)
    b = spectral.tau_T(GaussianPulse(sigma, -detuning), m)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


@given(sigmas, detunings, depths, depths)
@settings(max_examples=30, deadline=None)
def test_transmission_decreases_with_depth(sigma, detuning, od_a, od_b):
    lo, hi = sorted((od_a, od_b))
    p = GaussianPulse(sigma, detuning)
    pt_lo, _ = spectral.transmission_probability(p, make_uniform_medium(lo))
    pt_hi, _ = spectral.transmission_probability(p, make_uniform_medium(hi))
    assert pt_hi <= pt_lo + 1e-12


@given(sigmas, detunings, depths)
@settings(max_examples=30, deadline=None)
def test_conditional_times_bounded(sigma, detuning, od0):
    """tau_S lives in (0, 2/Gamma]; |tau_T| never exceeds the resonant depth."""
    p, m = GaussianPulse(sigma, detuning), make_uniform_medium(od0)
    tau_s = spectral.tau_S(p, m)
    assert 0.0 < tau_s <= 2.0 + 1e-9
    assert abs(spectral.tau_T(p, m)) <= od0 + 1e-9
