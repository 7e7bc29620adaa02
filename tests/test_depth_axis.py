"""The depth axis of the spectral pass and of the od_eff inversion: an array call
gives each depth or target the bits of its own one-value call, or the error of the
first failing value, and a figure's blocks stay small in memory."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dwelltime import cli, spectral
from dwelltime.domain import (
    REPORT_FIELDS,
    GaussianPulse,
    NarrowBandPulse,
    TabulatedSpectrumPulse,
    make_uniform_medium,
)
from dwelltime.errors import DwellTimeError, InvalidParameterError

from test_spectral import inversion_pulse, report_pulse


def test_group_delay_broadcasts_a_depth_column():
    # the overflow mask has the shape of the detunings, not of the broadcast result
    w = np.array([0.0, 0.5, 1.0, 1e200])
    od0 = np.array([[1.0], [2.0]])
    got = spectral.group_delay(w, od0)
    assert got.shape == (2, 4)
    for row, depth in zip(got, od0[:, 0]):
        assert [float.hex(v) for v in row] == [float.hex(v) for v in spectral.group_delay(w, depth)]
    assert np.all(got[:, -1] == 0.0)


def _hex(report):
    return [float.hex(getattr(report, f)) if f != "method" else report.method for f in REPORT_FIELDS]


# pulse -> depths: od0 = 0 (NaN tau_S), moderate depths, and for the Gaussians depths
# whose -ln P_T exceeds 88 and so re-run on a wider window (DENSE); sigma 0.02 takes
# 2048-16384 panels, so its levels span one to four blocks
DEPTHS = {
    "sigma0.02": (lambda: GaussianPulse(0.02), [0.0, 0.1, 2.0, 20.0, 300.0, 1e6]),
    "sigma0.05": (lambda: GaussianPulse(0.05), [0.0, 0.1, 3.0, 640.0, 1e7, 1e8]),
    "sigma1": (lambda: GaussianPulse(1.0, 0.3), [0.0, 0.5, 2.0, 30.0, 1e4, 1e5]),
    "sigma100": (lambda: GaussianPulse(100.0), [0.0, 1.0, 4.0, 15.0, 640.0]),
    "chirped_table": (lambda: report_pulse("chirped_table"), [0.0, 0.5, 3.0, 10.0]),
    "narrowband": (lambda: NarrowBandPulse(0.7), [0.0, 0.5, 3.0, 30.0, 700.0]),
}
DENSE = {"sigma0.05": [1e7, 1e8], "sigma1": [1e4, 1e5], "sigma100": [640.0]}


@pytest.mark.parametrize("name", sorted(DEPTHS))
def test_core_pass_depth_axis_has_each_depths_bits(name):
    make, depths = DEPTHS[name]
    pulse = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # od0 = 0 gives NaN without a RuntimeWarning
        pairs = spectral._core_pass(pulse, np.array(depths))
        singles = [spectral._core_pass(pulse, [od0])[0] for od0 in depths]
        reports = [spectral.delay_report(pulse, make_uniform_medium(od0)) for od0 in depths]
    assert len(pairs) == len(depths)
    assert [(_hex(r), n) for r, n in pairs] == [(_hex(r), n) for r, n in singles]
    assert [_hex(r) for r, _ in pairs] == [_hex(r) for r in reports]
    assert math.isnan(pairs[0][0].tau_S)
    for (report, _), od0 in zip(pairs, depths):
        wide = spectral._spectral_window(pulse, report.od_eff) != spectral._spectral_window(pulse) \
            if isinstance(pulse, GaussianPulse) else False
        assert wide == (od0 in DENSE.get(name, []))


def _first_error(call, values):
    for value in values:
        try:
            call(value)
        except DwellTimeError as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("pulse,depths", [
    (GaussianPulse(1.0), [1.0, 1e6, 2.0, 1e7]),  # P_T underflows at 1e6 and 1e7
    (GaussianPulse(100.0), [0.0, 15.0, 1e3]),
    (NarrowBandPulse(0.0), [1.0, 800.0, 1e4]),  # math.exp(-od_eff) underflows from 745 on
])
def test_core_pass_raises_the_first_failing_depths_error(pulse, depths):
    want = _first_error(lambda od0: spectral.delay_report(pulse, make_uniform_medium(od0)), depths)
    assert want is not None and want[0] is InvalidParameterError
    with pytest.raises(want[0]) as info:
        spectral._core_pass(pulse, np.array(depths))
    assert str(info.value) == want[1]


@pytest.mark.parametrize("pulse", [GaussianPulse(1.0), report_pulse("chirped_table"), NarrowBandPulse(0.7)],
                         ids=["gaussian", "table", "narrowband"])
def test_core_pass_refuses_a_non_finite_depth(monkeypatch, pulse):
    # the Gaussian and table passes warned "invalid value encountered in multiply" and the
    # narrow-band one refused P_T = 0; no pass samples the spectrum before the check
    monkeypatch.setattr(spectral, "_level", lambda *args, **kwargs: pytest.fail("sampled"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="^od0 = inf is not a finite depth$"):
            spectral._core_pass(pulse, np.array([np.inf, 1.0]))


# 0, targets of the shared window (od_eff up to 88) and of their own windows (100-700)
TARGETS = np.array([0.0, 0.01, 0.05, 0.3, 1.0, 3.0, 10.0, 100.0, 300.0, 700.0])
INVERSION_PULSES = {
    "sigma1": lambda: GaussianPulse(1.0),
    "sigma0.05": lambda: GaussianPulse(0.05),
    "sigma0.3_detuned": lambda: GaussianPulse(0.3, 0.7),
    "chirped_table": lambda: inversion_pulse("chirped_table"),
    "narrowband": lambda: NarrowBandPulse(0.7),
}


@pytest.mark.parametrize("name", sorted(INVERSION_PULSES))
def test_inversion_of_an_array_has_each_targets_bits(name):
    pulse = INVERSION_PULSES[name]()
    got = spectral.invert_od_eff(pulse, TARGETS)
    assert isinstance(got, np.ndarray) and got.shape == TARGETS.shape
    want = [spectral.invert_od_eff(pulse, float(t)) for t in TARGETS]
    assert [float.hex(float(v)) for v in got] == [float.hex(v) for v in want]


def test_scalar_inversion_returns_a_float():
    for target in (1.0, np.float64(1.0), np.array(1.0), 0.0):
        assert type(spectral.invert_od_eff(GaussianPulse(1.0), target)) is float
    assert type(spectral.invert_od_eff(NarrowBandPulse(0.3), 2.0)) is float


@pytest.mark.parametrize("pulse,targets", [
    # the 2nd and 4th targets fail. 5 is out of the flat table's reach (NumericError in
    # Newton); 800 is out of range (InvalidParameterError before any pass), which a
    # plain batch would raise first
    (TabulatedSpectrumPulse(np.array([-2e4, 2e4]), np.ones(2)), [1.0, 5.0, 2.0, 800.0]),
    (GaussianPulse(1.0), [1.0, 800.0, 2.0, -1.0]),
    (NarrowBandPulse(1e160), [0.0, 1.0, 0.0, 800.0]),
])
def test_inversion_raises_the_first_failing_targets_error(pulse, targets):
    want = _first_error(lambda t: spectral.invert_od_eff(pulse, t), targets)
    assert want is not None
    with pytest.raises(want[0]) as info:
        spectral.invert_od_eff(pulse, np.array(targets))
    assert str(info.value) == want[1]


def _traced_peak(call):
    """The traced peak memory of call(), in bytes, after one untraced call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["fig2", "fig4", "figF1"])
def test_figure_blocks_stay_small(name):
    # one unblocked pass over a figure column holds 10-32 MB of samples at once
    assert _traced_peak(cli.FIGURES[name]) <= 2e6


@pytest.mark.parametrize("call", [spectral.delay_report, spectral.scattered_delay],
                         ids=["delay_report", "scattered_delay"])
def test_long_pulse_blocks_stay_small(monkeypatch, call):
    # a 16384-panel level sampled whole holds 1.32 MB (delay_report) and 1.46 MB at once.
    # The sinh grid stops at 256 panels; started on 16384 it samples 16384 and 32768
    pulse, medium = GaussianPulse(0.02, 0.7), make_uniform_medium(2.0)
    assert spectral._core_pass(pulse, medium)[0][1] == 256
    monkeypatch.setattr(spectral, "N_START_MAPPED", 16384)
    assert spectral._core_pass(pulse, medium)[0][1] == 32768
    assert _traced_peak(lambda: call(pulse, medium)) <= 0.6e6
