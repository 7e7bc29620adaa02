"""One benchmark process: set up one workload, signal readiness, then run it.

Started by run.py. It writes "ready" on its protocol stream once dwelltime is
imported, the inputs are generated and the warm-up cases have run, and at the end
one JSON line with its measurements. Everything the library prints goes to
stderr, so the protocol stream carries nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Record:
    eid: str  # one execution of one case; a case can run in several rounds
    case: object
    wall: float
    out: dict | None
    error: str | None


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import dwelltime

    if Path(dwelltime.__file__).resolve().parent != ROOT / "src" / "dwelltime":
        raise ImportError(f"dwelltime imported from {dwelltime.__file__}, not from this checkout")


def run_one(wl, case, tracer, k):
    eid = f"{case.id}#{k}"
    start = time.perf_counter()
    try:
        with tracer.span("case", case=eid):
            out, error = wl.run(case, tracer), None
    except Exception as exc:  # a failed case is counted, and the loop goes on
        out, error = None, type(exc).__name__
    wall = time.perf_counter() - start
    wl.after_case()
    return Record(eid, case, wall, out, error)


def tail(walls, level):
    """(value, samples beyond it) of the workload's fixed tail percentile."""
    import numpy as np

    value = float(np.quantile(walls, level))
    return value, sum(1 for w in walls if w > value)


def check_all(wl, records):
    """eid -> failure label: the exception type, or the reference the output missed."""
    failures = {}
    for rec in records:
        if rec.error is not None:
            failures[rec.eid] = rec.error
            continue
        try:
            label = wl.check(rec.case, rec.out)
        except Exception as exc:  # the reference itself failed; count it, keep checking
            label = f"check:{type(exc).__name__}"
        if label is not None:
            failures[rec.eid] = label
    failures.update(wl.finish_checks([r for r in records if r.eid not in failures]))
    return failures


def machine():
    import numpy as np

    from dwelltime import cli

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cli_workers": cli._worker_count(),
    }


def summarize(wl, timed, rest, failures, phase_wall):
    """Metrics over the timed executions; attempted and failed over distinct cases.

    A case that a later round repeats counts once, failed if any execution of it
    failed, so a finite design gives the same counts in every run."""
    import numpy as np

    walls = [r.wall for r in timed]
    tail_value, beyond = tail(walls, wl.tail_level)
    outcome = {}  # case id -> (case, first failure label or None)
    for r in timed + rest:
        case, label = outcome.get(r.case.id, (r.case, None))
        outcome[r.case.id] = (case, label or failures.get(r.eid))
    failed = [(case, label) for case, label in outcome.values() if label is not None]
    by_type = {}
    for _, label in failed:
        by_type[label] = by_type.get(label, 0) + 1
    attempted = len(outcome)
    return {
        "metrics": {
            "cases_per_s": len(timed) / phase_wall,
            "case_s_p50": float(np.median(walls)),
            "case_s_tail": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failed) / attempted,
        },
        "attempted": attempted,
        "failed": len(failed),
        "correct": all(wl.known_defect(case, label) for case, label in failed),
        "failures_by_type": by_type,
        "tail": {"level": wl.tail_level, "samples": len(walls), "beyond": beyond},
        "phase_wall_s": phase_wall,
        "executions": {"timed": len(timed), "untimed": len(rest)},
        "kinds": {k: sum(1 for r in timed if r.case.kind == k) for k in {r.case.kind for r in timed}},
        "cases": [[r.eid, r.case.kind, r.wall, failures.get(r.eid)] for r in timed + rest],
    }


def timed_rounds(wl, seconds):
    """Whole rounds, up to the round boundary nearest to `seconds`: a round starts
    only if half a mean round still fits."""
    t0 = time.perf_counter()
    for n, rnd in enumerate(wl.rounds()):
        elapsed = time.perf_counter() - t0
        if n and elapsed + 0.5 * elapsed / n >= seconds:
            return
        yield rnd


def measure(wl, seconds, tracer):
    records = []
    t0 = time.perf_counter()
    for rnd in timed_rounds(wl, seconds):
        for case in rnd:
            records.append(run_one(wl, case, tracer, len(records)))
    return records, time.perf_counter() - t0


def run_rest(wl, records):
    """Untimed runs of the design's cases that the timed phase did not reach."""
    from spans import Tracer

    seen = {r.case.id for r in records}
    rest = [case for case in wl.design() if case.id not in seen]
    return [run_one(wl, case, Tracer(enabled=False), f"rest{k}") for k, case in enumerate(rest)]


def measure_traced(wl, seconds, workloads):
    """Each case once to warm it (a repeat of a time-domain case runs up to 25%
    faster than its first run), then untraced and traced back to back; then the
    probes that give the layer metrics of the other workloads."""
    from spans import Tracer

    plain, traced = Tracer(enabled=False), Tracer()
    untraced_recs, traced_recs = [], []
    t0 = time.perf_counter()
    for rnd in timed_rounds(wl, seconds):
        for case in rnd:
            k = len(traced_recs)
            run_one(wl, case, plain, "warm")
            untraced_recs.append(run_one(wl, case, plain, k))
            traced_recs.append(run_one(wl, case, traced, f"t{k}"))
    phase_wall = time.perf_counter() - t0
    wl.extra_traced(traced)
    untraced_s = sum(r.wall for r in untraced_recs)
    traced_s = sum(r.wall for r in traced_recs)
    layers = dict(wl.layer_metrics(traced.spans, traced_recs))
    sources = {name: wl.name for name in layers}
    probe_recs = []
    for name, cls in workloads.items():
        if name == wl.name:
            continue
        other = cls(wl.seed, wl.out_dir)
        recs = [run_one(other, case, traced, f"{name}.probe{k}") for k, case in enumerate(other.probe())]
        other.extra_traced(traced)
        got = other.layer_metrics(traced.spans, recs)
        layers.update(got)
        sources.update({m: f"probe:{name}" for m in got})
        probe_recs.append((other, recs))
    layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
    layers["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "1")
    sources["trace.overhead_s"] = sources["trace.overhead_frac"] = wl.name
    return untraced_recs + traced_recs, phase_wall, traced, layers, sources, probe_recs


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # library output cannot reach the protocol stream

    import_package()
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, os.path.join(args.out_dir, args.workload))
    wl.warm_up(Tracer(enabled=False))
    proto.write("ready\n")
    proto.flush()
    if args.setup_only:
        return 0

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    if args.trace:
        records, phase_wall, tracer, layers, sources, probe_recs = measure_traced(
            wl, args.seconds, WORKLOADS)
        rest = run_rest(wl, records)
        result.update(summarize(wl, records, rest, check_all(wl, records + rest), phase_wall))
        for other, recs in probe_recs:
            probe = summarize(other, recs, [], check_all(other, recs), 1.0)
            result["correct"] = result["correct"] and probe["correct"]
            result["attempted"] += probe["attempted"]
            result["failed"] += probe["failed"]
            for label, k in probe["failures_by_type"].items():
                result["failures_by_type"][label] = result["failures_by_type"].get(label, 0) + k
        result["layers"] = {k: {"value": v, "unit": u, "source": sources[k]}
                            for k, (v, u) in layers.items()}
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        records, phase_wall = measure(wl, args.seconds, Tracer(enabled=False))
        rest = run_rest(wl, records)
        result.update(summarize(wl, records, rest, check_all(wl, records + rest), phase_wall))
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
