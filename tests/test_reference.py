"""Printed digits and pinned bits of the spectral pass against the long-double
reference (reference.py): a pin that moves must move toward it, or stay within a
few ulp of it, and a printed digit must be the reference's own rounding."""

import numpy as np
import pytest

import reference
from dwelltime import cli, spectral
from dwelltime.domain import GaussianPulse, make_uniform_medium
from dwelltime.errors import InvalidParameterError

from test_cavity import CAVITY_HEX, pinned_case
from test_spectral import REPORT_FIELDS, REPORT_HEX, UNIFORM_HEX, report_pulse

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


def test_dense_uniform_pin_matches_the_reference():
    # the window of the dense re-run leaves out P_T's mass beyond e^-40 of it, so the
    # reference takes the widest window, sqrt((OD_EFF_MAX + 40) / 2) / sigma = 19.3 / sigma
    (sigma, detuning, od0), fields, _ = UNIFORM_HEX["dense"]
    ref = reference.report(sigma, detuning, od0, half=np.sqrt(0.5 * (spectral.OD_EFF_MAX + 40.0)))
    assert float.fromhex(fields[0]) == pytest.approx(float(ref["P_T"]), rel=1e-14)
    assert float.fromhex(fields[3]) == pytest.approx(float(ref["tau_T"]), rel=1e-15)


# each field's relative error bound for a report from one mapped pass
MAPPED_ERRORS = {"P_T": 5e-15, "P_S": 1e-15, "tau_T": 2e-13, "tau_S": 2e-14}
MAPPED_ODS = (1e-3, 0.1, 2.0, 20.0, 1e3, 1e4, 1e5)


def _mapped_reports(sigmas, detunings, ods):
    """(pulse, od0, report) of each case whose report comes from one mapped pass: the
    pulse's own window holds the line, and od_eff <= 88 keeps that window."""
    for sigma in sigmas:
        for detuning in detunings:
            pulse = GaussianPulse(sigma, detuning)
            if spectral._start(pulse) != spectral.N_START_MAPPED:
                continue
            for od0 in ods:
                try:
                    report = spectral.delay_report(pulse, make_uniform_medium(od0))
                except InvalidParameterError:  # P_T below float range at sigma 10 and 100
                    continue
                if report.od_eff <= 88.0:
                    yield pulse, od0, report


def _errors(pulse, od0, report):
    ref = reference.report(pulse.sigma, pulse.detuning, od0)
    return {f: abs(float((LONG(getattr(report, f)) - ref[f]) / ref[f])) for f in MAPPED_ERRORS}


def test_mapped_reports_match_the_reference():
    # from a 64-panel start, each row judged on its own scale (spectral._row_scale); the
    # worst cases read P_T 2.0e-15, P_S 7.0e-16, tau_T 8.7e-14 (sigma 1e-6) and tau_S 6.2e-15
    cases = list(_mapped_reports([1e-6, 1e-4, 1e-3, 0.02, 0.05, 0.3, 1.0, 10.0, 100.0],
                                 [0.0, 0.7, 3.0, -40.0], MAPPED_ODS))
    assert len(cases) > 150
    for pulse, od0, report in cases:
        for field, err in _errors(pulse, od0, report).items():
            assert err <= MAPPED_ERRORS[field], (pulse, od0, field, err)


def test_absolute_rule_stops_a_mapped_pass_short(monkeypatch):
    # max(|v|, 1) judges a P_T of e^-83 in absolute terms, so the pass stops at its first
    # doubling, 128 panels, with P_T and tau_T 4.7e-7 and 5.7e-7 off
    monkeypatch.setattr(spectral, "_row_scale", lambda vals, signed, start: np.maximum(
        np.abs(vals[:len(vals) - len(signed)]), 1.0))
    [(pulse, od0, report)] = _mapped_reports([1.0], [3.0], [1e4])
    errors = _errors(pulse, od0, report)
    assert errors["P_T"] > 1e-9 and errors["tau_T"] > 1e-9
