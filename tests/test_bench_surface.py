"""The package surface that the benchmark in perfbench/ reads.

The benchmark changes only on its own, so a change to the package that drops a
name or attribute it calls would otherwise show up only as failed cases in a
benchmark run. These tests drive the benchmark's own code, read-only, on a few
cases of each workload.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 8101


def test_machine_record():
    assert worker.machine()["nproc"] >= 1


def test_spectral_mix_cases_run_and_check(tmp_path):
    wl = WORKLOADS["spectral_mix"](SEED, str(tmp_path))
    cases = [case for case in wl.blocks[1] if not case.dense][:30]
    assert {case.kind for case in cases} == {"gaussian", "narrowband", "tabulated"}
    assert any("cavity" in case.params for case in cases)
    for case in cases:
        label = wl.check(case, wl.run(case, Tracer(enabled=False)))
        assert label is None or wl.known_defect(case, label), (case.id, label)


def test_cli_figures_cases_run_and_check(tmp_path):
    wl = WORKLOADS["cli_figures"](SEED, str(tmp_path))
    first = next(wl.rounds())
    cases = [case for case in first if case.kind == "sweep" or case.params["name"] == "fig3b"]
    assert len(cases) == 2
    records = [worker.run_one(wl, case, Tracer(enabled=False), k) for k, case in enumerate(cases)]
    assert worker.check_all(wl, records) == {}


def test_timedomain_warm_up_runs_every_slot(tmp_path):
    WORKLOADS["timedomain"](SEED, str(tmp_path)).warm_up(Tracer(enabled=False))
