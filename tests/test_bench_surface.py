"""The package surface that the benchmark in perfbench/ reads.

The benchmark changes only on its own, so a change to the package that drops a
name or attribute it calls would otherwise show up only as failed cases in a
benchmark run. These tests drive the benchmark's own code, read-only, on a few
cases of each workload, and scan its source for every package name it uses,
including those on paths the few cases do not reach.
"""

import ast
import importlib
import sys
import types
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


def _package_names_used(path):
    """'module.name' for each package name a perfbench file imports from
    dwelltime or reads off a dwelltime module, with whether it resolves."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, used = {}, {}
    for node in ast.walk(tree):  # imports first: a function may import what another reads
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dwelltime":  # binds the top package unless aliased
                    bound = alias.asname or "dwelltime"
                    modules[bound] = importlib.import_module(alias.name if alias.asname else bound)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dwelltime":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                used[f"{node.module}.{alias.name}"] = value is not None
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            module = modules[node.value.id]
            used[f"{module.__name__}.{node.attr}"] = hasattr(module, node.attr)
    return used


def test_every_package_name_the_benchmark_uses_resolves():
    used = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(_package_names_used(path))
    # the scan reaches calls that the run-time tests above do not
    assert "dwelltime.spectral.transmission_probability" in used
    assert [name for name, ok in used.items() if not ok] == []
