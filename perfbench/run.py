"""dwelltime benchmark: one workload, one seed, measured from outside the package.

    python3 perfbench/run.py --workload spectral_mix --seed 1 --seconds 20 --trace 0

Run from the repository root. Each run starts fresh worker processes
(worker.py), one closed-loop caller each. setup_s is the median, over
SETUP_SAMPLES fresh processes, of the time from process start until dwelltime
is imported, the inputs are generated and the warm-up cases have run. The last
of those processes then measures the workload for --seconds. With --trace 0
the last stdout line reports the end-to-end metrics; with --trace 1 it reports
the per-layer metrics of a separate traced run. Details (failures by type, the
tail percentile and its sample count, the machine, and with --trace 1 every
span) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("spectral_mix", "cli_figures", "timedomain")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, set-up processes included

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_s_p50": "s",
    "case_s_tail": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}

PER_LAYER = {
    "spectral.delay_report.self_s": "s",
    "spectral.scattered_delay.self_s": "s",
    "domain.spectral_density.self_s": "s",
    "domain.spectral_density.samples_per_case": "count",
    "domain.spectral_density.calls_per_case": "count",
    "cavity.self_s": "s",
    "spectral.invert_od_eff.s": "s",
    "spectral.invert_od_eff.passes": "count",
    **{f"cli.figure.{name}.s": "s" for name in ("fig2", "fig3a", "fig3b", "fig4", "figF1", "figG1")},
    "cli.sweep.s": "s",
    "cli.thread_pool.speedup": "x",
    **{f"timedomain.{metric}.cells{cells}": unit for cells in (200, 400) for metric, unit in (
        ("integrate_forward.s", "s"),
        ("integrate_forward.steps_per_s", "1/s"),
        ("integrate_forward.cells_per_step", "count"),
        ("integrate_backward.s", "s"),
        ("integrate_backward.steps_per_s", "1/s"),
        ("tau_T_td.s", "s"),
        ("history_mb", "MB"),
    )},
    "timedomain.GridSpec.build.s": "s",
    "timedomain.tau_S_oracle.s": "s",
    "timedomain.tau_S_oracle.gmacs": "GMAC",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
}


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc  # BLAS threads capped at the CPUs this process may use
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def read_line(proc, deadline):
    """One line from the worker's protocol stream, or WorkerError at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise WorkerError("worker timed out")
    line = proc.stdout.readline().decode()
    if not line:
        raise WorkerError(f"worker exited early with code {proc.wait()}")
    return line


def run_worker(args, deadline, setup_only):
    """(seconds from spawn to ready, final JSON or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    # unbuffered, so select() sees every line the worker has written
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT, env=worker_env())
    try:
        if read_line(proc, deadline).strip() != "ready":
            raise WorkerError("worker did not report ready")
        setup = time.monotonic() - start
        result = None if setup_only else json.loads(read_line(proc, deadline))
        if proc.wait(timeout=max(deadline - time.monotonic(), 1.0)) != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
        return setup, result
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setups = [run_worker(args, deadline, True)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, result = run_worker(args, deadline, False)
    except (WorkerError, json.JSONDecodeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    result["setup_samples_s"] = setups
    if args.trace:
        got = {k: v["unit"] for k, v in result["layers"].items()}
        if got != PER_LAYER:
            print(f"benchmark failed: layer metrics {sorted(set(got) ^ set(PER_LAYER))} "
                  "differ from PER_LAYER", file=sys.stderr)
            return 1
        metrics = {k: {"value": result["layers"][k]["value"], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    details = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
