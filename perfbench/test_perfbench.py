"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, counting, covered, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _inputs(wl, n_rounds=3):
    """Everything a workload feeds the package in its first rounds, as plain data."""
    out = []
    for rnd in itertools.islice(wl.rounds(), n_rounds):
        for case in rnd:
            pulse = case.pulse
            arrays = ()
            if hasattr(pulse, "omegas"):
                arrays = (pulse.omegas.tobytes(), pulse.amplitudes.tobytes())
            out.append((case.id, case.kind, repr(sorted(case.params.items())), repr(pulse)
                        if not arrays else arrays, repr(case.medium)))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    cls = WORKLOADS[name]
    a = _inputs(cls(7, str(tmp_path)))
    b = _inputs(cls(7, str(tmp_path)))
    c = _inputs(cls(8, str(tmp_path)))
    assert a == b
    assert a != c


def test_spectral_mix_seed_orders_a_fixed_design(tmp_path):
    a, b = WORKLOADS["spectral_mix"](7, str(tmp_path)), WORKLOADS["spectral_mix"](8, str(tmp_path))
    design = [(c.id, c.kind, repr(sorted(c.params.items()))) for c in a.design()]
    assert design == [(c.id, c.kind, repr(sorted(c.params.items()))) for c in b.design()]
    first = next(a.rounds())
    assert sorted(c.id for c in first) == sorted(c.id for c in a.blocks[a.block_order[0]])


def test_repeated_case_counts_once(tmp_path):
    wl = WORKLOADS["spectral_mix"](7, str(tmp_path))
    case, other = wl.blocks[0][0], wl.blocks[0][1]
    timed = [worker.Record("0", case, 0.1, {}, None), worker.Record("1", other, 0.2, {}, None),
             worker.Record("2", case, 0.3, None, "OverflowError")]
    got = worker.summarize(wl, timed, [], {"2": "OverflowError"}, 1.0)
    assert (got["attempted"], got["failed"], got["failures_by_type"]) == (2, 1, {"OverflowError": 1})
    assert got["metrics"]["cases_per_s"] == 3.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span(0, None, "case", "c", 0.0, 10.0),
        Span(1, 0, "a", "c", 1.0, 4.0),
        Span(2, 0, "b", "c", 3.0, 6.0),  # overlaps a: together they cover 1..6
        Span(3, 1, "leaf", "c", 1.5, 2.0),
        Span(4, None, "other", "d", 20.0, 21.0),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0)
    assert got[1] == pytest.approx(3.0 - 0.5)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(0.5)
    assert got[4] == pytest.approx(1.0)
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_tracer_nests_and_disabled_tracer_records_nothing():
    tr = Tracer()
    with tr.span("case", case="x"):
        with tr.span("inner"):
            pass
    assert [(s.name, s.parent, s.case) for s in tr.spans] == [("case", None, "x"), ("inner", 0, "x")]
    off = Tracer(enabled=False)
    with off.span("case", case="x"):
        pass
    assert off.spans == []


def test_counting_pulse_gives_identical_density_and_records_samples():
    from dwelltime.domain import GaussianPulse, TabulatedSpectrumPulse

    tr = Tracer()
    w = np.linspace(-3.0, 3.0, 101)
    table = TabulatedSpectrumPulse(w, np.exp(-w**2) * np.exp(0.3j * w**2))
    for pulse in (GaussianPulse(0.7, 0.2), table):
        twin = counting(pulse, tr)
        assert np.array_equal(twin.spectral_density(w), pulse.spectral_density(w))
    assert [s.n for s in tr.spans] == [101, 101]


def test_tail_levels_keep_ten_samples_beyond():
    value, beyond = worker.tail(list(range(1, 1001)), WORKLOADS["spectral_mix"].tail_level)
    assert value == pytest.approx(990.01) and beyond == 10
    assert worker.tail([1.0, 3.0, 2.0], 1.0) == (3.0, 0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
