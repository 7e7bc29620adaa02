"""Printed digits and pinned bits of the spectral pass against the long-double
reference (reference.py): a pin that moves must move toward it, or stay within a
few ulp of it, and a printed digit must be the reference's own rounding."""

import numpy as np
import pytest

import reference
from dwelltime import cli, spectral
from dwelltime.domain import GaussianPulse, make_uniform_medium

from test_cavity import CAVITY_HEX, pinned_case
from test_spectral import REPORT_FIELDS, REPORT_HEX, report_pulse

pytestmark = pytest.mark.skipif(not reference.PRECISE, reason=reference.WHY_NOT)
LONG = reference.LONG


def _asymptotic_rows(name):
    """figF1's or figG1's rows, each with the reference report at its od0."""
    _, _, rows = cli.FIGURES[name]()
    return [(row, reference.report(0.05, 0.0, row[1])) for row in rows]


@pytest.mark.parametrize("name", ["figF1", "figG1"])
def test_asymptotic_figure_prints_the_reference_digits(name):
    # each column that a quadrature sets, from the exact time or from od_eff by the
    # limiting form; figG1's tau_T_dense printed ...839 at od_eff 5.687e-3, where the
    # reference 2.8437385783950099e-03 (3.5e-15 from the boundary) rounds to ...840
    sqrt_2_pi = np.sqrt(LONG(2) / np.arccos(LONG(-1)))
    for row, ref in _asymptotic_rows(name):
        od_eff = ref["od_eff"]
        if name == "figF1":
            columns = {2: ref["tau_S"], 3: 1 - sqrt_2_pi * od_eff / (4 * LONG(0.05)),
                       4: 1 - od_eff / (2 * np.expm1(od_eff))}
        else:
            columns = {2: ref["tau_T"], 4: od_eff / 2}
        for col, want in columns.items():
            if not reference.near_boundary(want):
                assert cli._fmt(row[col]) == reference.printed(want), (row[0], col)


@pytest.mark.parametrize("sigma", [1e-4, 1e-6])
def test_long_pulse_report_matches_the_reference(sigma):
    # the uniform trapezoid ran these to its 2**20-panel cap and raised NumericError.
    # od_eff = -ln P_T takes P_T's rounding, about 1e-16, as an absolute error, which
    # is 1e-10 relative at sigma 1e-6 and od0 0.1, where od_eff is 1.3e-7
    for od0 in (0.1, 2.0, 1e3):
        got = spectral.delay_report(GaussianPulse(sigma), make_uniform_medium(od0))
        ref = reference.report(sigma, 0.0, od0)
        for field in ("P_T", "P_S", "tau_T", "tau_S"):
            assert getattr(got, field) == pytest.approx(float(ref[field]), rel=1e-12), (od0, field)
        assert got.od_eff == pytest.approx(float(ref["od_eff"]), rel=1e-12, abs=1e-15), od0


def _cavity_reference(params, pulse):
    """(P_ref, P_tr, dwell_avg, tau_B_direct) of a Gaussian pulse, each a long double."""
    g1, g2 = LONG(params.gamma1), LONG(params.gamma2)

    def rows(w, dens):
        b2 = 4 * w * w
        den2 = (g1 + g2) ** 2 + b2
        # Re[(g1 - g2 + 2 i w) / (g1 + g2 + 2 i w)] / den2 of tau_B's numerator
        re_num = dens * ((g1 - g2) * (g1 + g2) + b2) / den2**2
        return dens * ((g2 - g1) ** 2 + b2) / den2, dens * 4 * g1 / den2, re_num

    norm, ref, dwell, num = reference.integrals(pulse.sigma, pulse.detuning, rows)
    return ref / norm, 1 - ref / norm, dwell / norm, 4 * g1 * num / ref


@pytest.mark.parametrize("name", ["gaussian", "widened"])
def test_gaussian_cavity_pins_match_the_reference(name):
    probabilities, dwell, tau_b = CAVITY_HEX[name]
    pins = [float.fromhex(h) for h in (*probabilities, dwell, tau_b)]
    assert pins == pytest.approx([float(v) for v in _cavity_reference(*pinned_case(name))], rel=1e-14)


def test_gaussian_report_pin_matches_the_reference():
    od0, fields, _ = REPORT_HEX["sigma100_detuned"]
    pulse = report_pulse("sigma100_detuned")
    ref = reference.report(pulse.sigma, pulse.detuning, od0)
    ref["tau_0"] = ref["P_S"]
    assert [float.fromhex(h) for h in fields] == pytest.approx([float(ref[f]) for f in REPORT_FIELDS], rel=1e-14)
