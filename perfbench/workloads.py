"""The three benchmark workloads: seeded inputs, one timed case, its reference check,
and the per-layer metrics read off its spans.

Every workload feeds its cases in rounds of fixed composition, and the timed phase
stops only at a round boundary, so two seeds spend their time on the same mix of
work. spectral_mix draws its cases once, from a fixed stratified design, and the
seed orders them: some of its cases fail on known defects, and a fixed design
makes that count the same in every run. In the time-domain workload a run holds
only a few dozen cases, each costing about a second, so a round is a fixed design
that spreads its slots over the parameter envelope, and the seed moves every
continuous parameter of a slot by SIZE_JITTER (grid and table sizes stay fixed):
redrawing them over the whole envelope made the run's cost follow the seed
rather than the code.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from dwelltime import cavity, cli, spectral, timedomain
from dwelltime.domain import (
    GaussianPulse,
    NarrowBandPulse,
    TabulatedSpectrumPulse,
    make_uniform_medium,
)

from spans import counting, self_times

SIZE_JITTER = 0.02
FIGURES = ("fig2", "fig3a", "fig3b", "fig4", "figF1", "figG1")
FIG4_SIGMAS = (1.0, 0.05)
PASS_SAMPLES = spectral.N_START + 1  # every quadrature pass starts on this grid
WARM_UP_ROUND = 10**9  # draws warm-up cases from a round no run reaches
DESIGN_SEED = 20231002  # spectral_mix's case design; the run seed only orders it


@dataclass
class Case:
    id: str
    kind: str
    params: dict
    pulse: object = None
    medium: object = None
    dense: bool = False  # inside the dense-medium tail, where known defects raise
    _traced_pulse: object = field(default=None, repr=False)

    def pulse_for(self, tracer):
        if not tracer.enabled:
            return self.pulse
        if self._traced_pulse is None:
            self._traced_pulse = counting(self.pulse, tracer)
        return self._traced_pulse


def rng_for(seed, workload):
    return np.random.default_rng([int(seed), WORKLOADS_INDEX[workload]])


def jittered(rng, nominal, envelope):
    """A slot's parameters moved by up to SIZE_JITTER: scales by that factor,
    signed quantities (detuning, chirp) by that share of their envelope; kept
    inside the envelope."""
    out = {}
    for key, value in nominal.items():
        lo, hi = envelope[key]
        if lo > 0:
            v = value * math.exp(rng.uniform(-SIZE_JITTER, SIZE_JITTER))
        else:
            v = value + rng.uniform(-SIZE_JITTER, SIZE_JITTER) * (hi - lo)
        out[key] = min(max(v, lo), hi)
    return out


def _span(u, lo, hi, log=False):
    if log:
        return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    return float(lo + u * (hi - lo))


def rel_gap(got, ref):
    return abs(got - ref) / abs(ref) if ref != 0 else abs(got)


def _gaussian_table(sigma, detuning, chirp, n, half_width):
    """Chirped Gaussian spectrum sampled at n points; |amplitude| is the Gaussian's."""
    ref = GaussianPulse(sigma, detuning)
    w = np.linspace(detuning - half_width, detuning + half_width, n)
    phase = np.exp(1j * chirp * (sigma * (w - detuning)) ** 2)
    return TabulatedSpectrumPulse(w, ref.spectral_amplitude(w) * phase)


def _mean(values):
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _median(values):
    values = list(values)
    return float(np.median(values)) if values else 0.0


class Workload:
    """Base: rounds of cases, a timed run per case, a check and layer metrics."""

    name = ""
    # The tail percentile, fixed per workload so that it does not move with
    # throughput: the highest level that keeps at least ten samples beyond it in
    # any run. A run of a few dozen cases has no such level above its median; there
    # it is p90, which falls inside the executions of the costliest slot of a round.
    tail_level = 0.9

    def __init__(self, seed, out_dir):
        self.seed = int(seed)
        self.out_dir = out_dir
        self.rng = rng_for(seed, self.name)

    def rounds(self):
        """Endless rounds of cases."""
        raise NotImplementedError

    def design(self):
        """Every distinct case the rounds repeat, when that set is finite; the
        worker runs any the timed phase missed, so that each is checked."""
        return ()

    def warm_up(self, tracer):
        raise NotImplementedError

    def run(self, case, tracer):
        """The timed unit: public calls only, returning the scalars the check needs."""
        raise NotImplementedError

    def check(self, case, out):
        """None when the case meets its reference, else a short failure label."""
        raise NotImplementedError

    def known_defect(self, case, label):
        """Whether a failure falls in a class of defects the ROADMAP already lists."""
        return False

    def probe(self):
        """Cases enough to produce every layer metric this workload owns, for the
        traced runs of the other workloads."""
        return next(iter(self.rounds()))

    def extra_traced(self, tracer):
        """Traced calls outside the case loop that some layer metrics need."""

    def after_case(self):
        """Called between cases, outside their timing."""

    def finish_checks(self, records):
        """Checks that need the whole run (outputs written to files)."""
        return {}

    def layer_metrics(self, spans, records):
        raise NotImplementedError


# --- spectral_mix ------------------------------------------------------------

DENSE_SHARE = 0.07  # share of each kind drawn from the dense tail 20 < od0 <= 1e6
CAVITY_SHARE = 0.15
KIND_SHARES = (("narrowband", 0.2), ("tabulated", 0.1), ("gaussian", 0.7))


def strata(rng, n):
    """n uniforms on [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


class SpectralMix(Workload):
    """Cases come in blocks that each hold every kind in its exact share, with every
    parameter stratified over its range, so each block reaches the costly corners
    (sigma = 100, narrow tables in a wide window, the dense tail) in the same
    measure. The blocks are one fixed design; the seed orders the blocks and the
    cases inside each, so the cases that fail on known defects are the same in
    every run."""

    name = "spectral_mix"
    tail_level = 0.99  # a run is whole 500-case blocks and holds thousands of cases
    n_blocks = 12
    block_size = 500
    # The corner that sets the peak memory: a narrow, chirped, far-detuned table
    # that drives every quadrature pass to its 2**20-panel cap (a seeded draw found
    # it). Block 0 holds it, so every run meets it once.
    corner = {"sigma": 6.4676, "samples": 1331, "chirp": 1.5324, "detuning": -2.6112,
              "od0": 6.3989, "cavity": (0.4397, 1.4779)}

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        design_rng = rng_for(DESIGN_SEED, self.name)
        self.blocks = [self._block(design_rng, b) for b in range(self.n_blocks)]
        self.block_order = [int(b) for b in self.rng.permutation(self.n_blocks)]
        self.ordered = [[block[j] for j in self.rng.permutation(len(block))] for block in self.blocks]

    def _block(self, rng, b):
        cases = []
        for kind, share in KIND_SHARES:
            n = int(round(share * self.block_size))
            detuning, dense_u, od_u, cav_u = (strata(rng, n) for _ in range(4))
            sigma_u, samples_u, chirp_u = (strata(rng, n) for _ in range(3))
            for i in range(n):
                d = _span(detuning[i], -3.0, 3.0)
                dense = bool(dense_u[i] < DENSE_SHARE)
                od0 = _span(od_u[i], 20.0, 1e6, log=True) if dense else _span(od_u[i], 1e-3, 20.0)
                params = {"detuning": d, "od0": od0}
                if kind == "narrowband":
                    pulse = NarrowBandPulse(d)
                elif kind == "tabulated":
                    sigma = _span(sigma_u[i], 0.1, 10.0, log=True)
                    params.update(sigma=sigma, samples=int(round(_span(samples_u[i], 1000, 4000))),
                                  chirp=_span(chirp_u[i], 0.0, 2.0))
                    pulse = _gaussian_table(sigma, d, params["chirp"], params["samples"], 6.0 / sigma)
                else:
                    params["sigma"] = _span(sigma_u[i], 0.02, 100.0, log=True)
                    pulse = GaussianPulse(params["sigma"], d)
                if cav_u[i] < CAVITY_SHARE:
                    g1 = float(rng.uniform(0.05, 5.0))
                    params["cavity"] = (g1, g1 * float(rng.uniform(1.05, 8.0)))
                cases.append(Case("", kind, params, pulse, make_uniform_medium(od0), dense))
        if b == 0:
            c = self.corner
            pulse = _gaussian_table(c["sigma"], c["detuning"], c["chirp"], c["samples"], 6.0 / c["sigma"])
            cases[-1] = Case("", "tabulated", dict(c), pulse, make_uniform_medium(c["od0"]))
        block = [cases[j] for j in rng.permutation(len(cases))]
        for i, case in enumerate(block):
            case.id = f"b{b}.{i}"
        return block

    def rounds(self):
        for r in count():
            yield self.ordered[self.block_order[r % self.n_blocks]]

    def design(self):
        return [case for block in self.blocks for case in block]

    def warm_up(self, tracer):
        for case in self.blocks[-1][:20]:  # block 0 holds the costly corner
            try:
                self.run(case, tracer)
            except Exception:  # dense-tail defects are the run's to count, not set-up's
                pass

    def run(self, case, tracer):
        pulse, medium = case.pulse_for(tracer), case.medium
        with tracer.span("spectral.delay_report"):
            rep = spectral.delay_report(pulse, medium)
        with tracer.span("spectral.scattered_delay"):
            delay = spectral.scattered_delay(pulse, medium)
        out = {"P_T": rep.P_T, "P_S": rep.P_S, "tau_S": rep.tau_S, "delay": delay}
        if "cavity" in case.params:
            params = cavity.CavityParams(*case.params["cavity"])
            with tracer.span("cavity.scatter_probabilities"):
                _, p_tr = cavity.scatter_probabilities(params, pulse)
            with tracer.span("cavity.dwell_avg"):
                out["dwell"] = cavity.dwell_avg(params, pulse)
            out["dwell_ref"] = p_tr / params.gamma2
        return out

    def check(self, case, out):
        if not rel_gap(out["tau_S"], out["delay"]) <= 1e-9:
            return "tolerance:tau_S_vs_scattered_delay"
        if not abs(out["P_T"] + out["P_S"] - 1.0) <= 1e-12:
            return "tolerance:P_T+P_S"
        if "dwell" in out and not rel_gap(out["dwell"], out["dwell_ref"]) <= 1e-8:
            return "tolerance:cavity_dwell"
        return None

    def known_defect(self, case, label):
        # Dense media overflow or underflow P_T. Quadrature convergence is judged
        # against max(|row|, 1), so rows well below 1 (a small P_S, a small cavity
        # dwell) stop short of the reference tolerance; both routes agree at a
        # tighter tol. The piecewise-linear tabulated integrand converges only
        # algebraically, so it shows this most, and a narrow table in a wide
        # cavity window runs out of panels instead.
        return (case.dense
                or label in ("tolerance:tau_S_vs_scattered_delay", "tolerance:cavity_dwell")
                or (case.kind == "tabulated" and label == "NumericError"))

    def probe(self):
        return self.blocks[0][:200]

    def layer_metrics(self, spans, records):
        eids = {r.eid for r in records}
        spans = [s for s in spans if s.case in eids]
        selft = self_times(spans)
        cases = len(records) or 1
        dens = [s for s in spans if s.name == "domain.spectral_density"]
        cav = {}
        for s in spans:
            if s.name.startswith("cavity."):
                cav[s.case] = cav.get(s.case, 0.0) + selft[s.sid]
        return {
            "spectral.delay_report.self_s": (
                _mean(selft[s.sid] for s in spans if s.name == "spectral.delay_report"), "s"),
            "spectral.scattered_delay.self_s": (
                _mean(selft[s.sid] for s in spans if s.name == "spectral.scattered_delay"), "s"),
            "domain.spectral_density.self_s": (_mean(selft[s.sid] for s in dens), "s"),
            "domain.spectral_density.samples_per_case": (sum(s.n for s in dens) / cases, "count"),
            "domain.spectral_density.calls_per_case": (len(dens) / cases, "count"),
            "cavity.self_s": (_mean(cav.values()), "s"),
        }


# --- cli_figures -------------------------------------------------------------


def read_csv(path):
    """(header, rows) of a CSV written by dwelltime.cli.write_csv."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [[float(v) for v in ln.split(",") if v != "analytic"] for ln in lines[1:]]


# the x grids of dwelltime.cli's figure datasets, so each sampled row is
# recomputed from the exact input the CLI used rather than its printed value
FIGURE_GRIDS = {
    "fig2": np.linspace(0.0, 30.0, 121),
    "fig3a": np.linspace(-3.0, 3.0, 241),
    "fig3b": np.linspace(-3.0, 3.0, 241),
    "fig4": np.geomspace(0.05, 10.0, 80),
    "figF1": np.geomspace(0.005, 10.0, 60),
    "figG1": np.geomspace(0.005, 10.0, 60),
}


def _expected_figure_row(name, header, i):
    """Direct serial spectral calls for row i of a figure, keyed like the CSV columns."""
    x = float(FIGURE_GRIDS[name][i])
    if name == "fig2":
        m = make_uniform_medium(x)
        pulses = [NarrowBandPulse(0.0)] + [GaussianPulse(s, 0.0) for s in cli.FIG2_SIGMAS]
        return dict(zip(header[1:], [spectral.tau_T(p, m) for p in pulses]))
    if name in ("fig3a", "fig3b"):
        fn = spectral.tau_T if name == "fig3a" else spectral.tau_S
        nb = NarrowBandPulse(x)
        return dict(zip(header[1:], [fn(nb, make_uniform_medium(od)) for od in cli.FIG3_ODS]))
    if name == "fig4":
        m_nb = make_uniform_medium(x)
        out = {"tau_T_narrowband": spectral.tau_T(NarrowBandPulse(0.0), m_nb),
               "tau_S_narrowband": spectral.tau_S(NarrowBandPulse(0.0), m_nb)}
        for s in FIG4_SIGMAS:
            p = GaussianPulse(s, 0.0)
            m = make_uniform_medium(spectral.invert_od_eff(p, x))
            out[f"tau_T_sigma_{s:g}"] = spectral.tau_T(p, m)
            out[f"tau_S_sigma_{s:g}"] = spectral.tau_S(p, m)
        return out
    p = GaussianPulse(0.05, 0.0)
    m = make_uniform_medium(spectral.invert_od_eff(p, x))
    if name == "figF1":
        return {"tau_S_exact": spectral.tau_S(p, m)}
    return {"tau_T_exact": spectral.tau_T(p, m)}


def _expected_sweep_row(params, header, i):
    x = float(np.geomspace(params["start"], params["stop"], params["count"])[i])
    p = GaussianPulse(params["sigma"], params["detuning"])
    m = make_uniform_medium(spectral.invert_od_eff(p, x))
    return {"tau_T": spectral.tau_T(p, m), "tau_S": spectral.tau_S(p, m)}


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliFigures(Workload):
    name = "cli_figures"
    n_sweeps = 64

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        os.makedirs(out_dir, exist_ok=True)
        self.sweeps = [self._sweep(k) for k in range(self.n_sweeps)]

    def _sweep(self, k):
        rng = self.rng
        params = {"sigma": _span(rng.uniform(), 0.1, 3.0, log=True),
                  "detuning": float(rng.uniform(-1.0, 1.0)),
                  "start": float(rng.uniform(0.05, 0.5)), "stop": float(rng.uniform(3.0, 10.0)),
                  "count": int(rng.integers(6, 13))}
        cfg = os.path.join(self.out_dir, f"sweep{k}.ini")
        params["csv"] = os.path.join(self.out_dir, f"sweep{k}.csv")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(
                f"[pulse]\nkind = gaussian\nsigma = {params['sigma']!r}\n"
                f"detuning = {params['detuning']!r}\n"
                "[medium]\nod0 = 1.0\nlength = 1.0\n[engine]\nkind = spectral\n"
                f"[sweep]\naxis = od_eff\nstart = {params['start']!r}\nstop = {params['stop']!r}\n"
                f"count = {params['count']}\nspacing = log\n[output]\npath = {params['csv']}\n")
        return Case(f"w{k}", "sweep", params, medium=cfg)

    def _figure(self, r, name):
        path = os.path.join(self.out_dir, f"{name}.csv")
        return Case(f"r{r}.{name}", "figure", {"name": name, "csv": path})

    def rounds(self):
        for r in count():
            sweep = self.sweeps[r % self.n_sweeps]
            yield [self._figure(r, name) for name in FIGURES] + [
                Case(f"r{r}.{sweep.id}", "sweep", sweep.params, medium=sweep.medium)]

    def warm_up(self, tracer):
        self.run(self._figure(WARM_UP_ROUND, "fig2"), tracer)

    def run(self, case, tracer):
        if case.kind == "figure":
            name = case.params["name"]
            with tracer.span(f"cli.figure.{name}"):
                rc = cli.main(["figure", name, case.params["csv"]])
        else:
            with tracer.span("cli.sweep"):
                rc = cli.main(["sweep", case.medium])
        if rc != 0:
            raise RuntimeError(f"cli exit code {rc}")
        return {"digest": _digest(case.params["csv"])}

    def check(self, case, out):
        return None  # outputs are checked per file once the run is over

    def after_case(self):
        """Called between cases, outside their timing."""

    def finish_checks(self, records):
        """Repeated outputs are byte-identical; sampled rows of the last output of
        each file match direct serial calls to spectral.tau_T and spectral.tau_S."""
        failures = {}
        last = {}
        for rec in records:
            if rec.out is None:
                continue
            key = rec.case.params["csv"]
            if key in last and last[key].out["digest"] != rec.out["digest"]:
                failures[rec.eid] = "tolerance:output_not_reproducible"
            last[key] = rec
        rng = np.random.default_rng([self.seed, 99])
        for rec in last.values():
            case = rec.case
            header, rows = read_csv(case.params["csv"])
            for i in rng.choice(len(rows), size=min(3, len(rows)), replace=False):
                row = rows[int(i)]
                if case.kind == "figure":
                    want = _expected_figure_row(case.params["name"], header, int(i))
                else:
                    want = _expected_sweep_row(case.params, header, int(i))
                for col, ref in want.items():
                    got = row[header.index(col)]
                    if not abs(got - ref) <= 1e-9 * abs(ref) + 1e-15:
                        failures[rec.eid] = f"tolerance:{col}"
        return failures

    def extra_traced(self, tracer):
        """The figure set once more on one thread, and invert_od_eff on the fig4 targets."""
        previous = os.environ.get("DWELLTIME_THREADS")
        os.environ["DWELLTIME_THREADS"] = "1"
        try:
            for name in FIGURES:
                path = os.path.join(self.out_dir, f"serial-{name}.csv")
                with tracer.span(f"cli.serial.{name}", case="serial"):
                    cli.main(["figure", name, path])
        finally:
            if previous is None:
                del os.environ["DWELLTIME_THREADS"]
            else:
                os.environ["DWELLTIME_THREADS"] = previous
        for s in FIG4_SIGMAS:
            for k, target in enumerate(FIGURE_GRIDS["fig4"]):
                pulse = counting(GaussianPulse(s, 0.0), tracer)
                with tracer.span("spectral.invert_od_eff", case=f"inv{s:g}.{k}"):
                    spectral.invert_od_eff(pulse, float(target))

    def layer_metrics(self, spans, records):
        inv = [s for s in spans if s.name == "spectral.invert_od_eff"]
        passes = {}
        for s in spans:
            if s.name == "domain.spectral_density" and s.case.startswith("inv") and s.n == PASS_SAMPLES:
                passes[s.case] = passes.get(s.case, 0) + 1
        out = {"spectral.invert_od_eff.s": (_mean(s.duration for s in inv), "s"),
               "spectral.invert_od_eff.passes": (_mean(passes.values()), "count")}
        pooled = 0.0
        for name in FIGURES:
            t = _median(s.duration for s in spans if s.name == f"cli.figure.{name}")
            out[f"cli.figure.{name}.s"] = (t, "s")
            pooled += t
        out["cli.sweep.s"] = (_median(s.duration for s in spans if s.name == "cli.sweep"), "s")
        serial = sum(s.duration for s in spans if s.name.startswith("cli.serial."))
        out["cli.thread_pool.speedup"] = (serial / pooled if pooled > 0 else 0.0, "x")
        return out


# --- timedomain ---------------------------------------------------------------

ENVELOPES = {
    "gaussian": {"sigma": (0.3, 3.0), "od0": (0.2, 8.0), "detuning": (-1.0, 1.0)},
    "tabulated": {"sigma": (0.8, 1.25), "od0": (0.3, 3.0), "detuning": (-0.5, 0.5),
                  "chirp": (0.0, 0.3)},
    "oracle": {"sigma": (0.8, 1.25), "od0": (0.3, 3.0), "detuning": (-0.5, 0.5)},
}
ORACLE_CELLS = TABULATED_CELLS = 60
WARM_UP_CELLS, WARM_UP_SAMPLES = 50, 200  # the smallest grid GridSpec.build accepts
ORACLE_TAIL = 1e-10  # tau_S_oracle's default kernel_tail
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only


class Timedomain(Workload):
    """Gaussian pulses at 200 and 400 cells per medium (forward, backward and the weak
    trace), a chirped tabulated spectrum on a 60-cell grid (dense DFT synthesis) and
    tau_S_oracle on a 60-cell Gaussian run. A round holds one case of each slot, and
    the slots' costs are well apart, so the median and the tail percentile each fall
    inside one slot's executions."""

    name = "timedomain"
    slots = (
        ("gaussian", {"cells": 200, "sigma": 0.3, "od0": 8.0, "detuning": 0.8}),
        ("gaussian", {"cells": 400, "sigma": 1.0, "od0": 2.0, "detuning": -0.6}),
        ("gaussian", {"cells": 200, "sigma": 2.0, "od0": 0.5, "detuning": 0.2}),
        # 1000 samples: the synthesis holds about 0.4 GB per 1000 samples
        ("tabulated", {"samples": 1000, "sigma": 1.0, "od0": 1.0, "detuning": -0.2, "chirp": 0.3}),
        ("oracle", {"sigma": 1.0, "od0": 2.0, "detuning": 0.3}),
    )

    def _case(self, r, k, cells=None, samples=None):
        kind, nominal = self.slots[k]
        rng = np.random.default_rng([self.seed, WORKLOADS_INDEX[self.name], r, k])
        p = jittered(rng, {key: v for key, v in nominal.items() if key in ENVELOPES[kind]},
                     ENVELOPES[kind])
        if kind == "gaussian":
            p["cells"] = cells or nominal["cells"]
            pulse = GaussianPulse(p["sigma"], p["detuning"])
        elif kind == "tabulated":
            p["samples"] = samples or nominal["samples"]
            p["cells"] = cells or TABULATED_CELLS
            pulse = _gaussian_table(p["sigma"], p["detuning"], p["chirp"], p["samples"], 9.0 / p["sigma"])
        else:
            p["cells"] = cells or ORACLE_CELLS
            pulse = GaussianPulse(p["sigma"], p["detuning"])
        return Case(f"r{r}.{k}", kind, p, pulse, make_uniform_medium(p["od0"]))

    def rounds(self):
        for r in count():
            yield [self._case(r, k) for k in range(len(self.slots))]

    def warm_up(self, tracer):
        """Every slot's code path once, on a small grid: the first time-domain run in
        a process pays a one-off second that later runs do not."""
        for k in range(len(self.slots)):
            self.run(self._case(WARM_UP_ROUND, k, WARM_UP_CELLS, WARM_UP_SAMPLES), tracer)

    def after_case(self):
        """Hand the freed heap back to the system. Without this the heap that one
        case leaves behind moved the tabulated slot's peak memory by 8% from run to
        run; with it the peak is the case's own."""
        if _malloc_trim is not None:
            _malloc_trim(0)

    def run(self, case, tracer):
        pulse, medium = case.pulse, case.medium
        with tracer.span("timedomain.GridSpec.build"):
            grid = timedomain.GridSpec.build(pulse, medium, cells_per_medium=case.params["cells"])
        with tracer.span("timedomain.integrate_forward"):
            fwd = timedomain.integrate_forward(pulse, medium, grid)
        out = {"P_T": fwd.p_t, "steps": fwd.n_rec - 1,
               "cells_per_step": grid.n_cells}  # computed: every step touches the whole array
        if case.kind == "gaussian":
            with tracer.span("timedomain.integrate_backward"):
                bwd = timedomain.integrate_backward(fwd, medium)
            with tracer.span("timedomain.tau_T_td"):
                out["tau_T"] = timedomain.tau_T_td(fwd, bwd)
            with tracer.span("timedomain.tau_avg_td"):
                out["tau_0"] = timedomain.tau_avg_td(fwd)
            ov = bwd.overlap
            out.update(bookkeeping=fwd.bookkeeping_dev,
                       overlap_spread=float(np.max(np.abs(ov - ov[-1]))),
                       history_mb=(fwd.beta.nbytes + bwd.beta.nbytes + fwd.snap_alpha.nbytes) / 1e6)
        elif case.kind == "oracle":
            with tracer.span("timedomain.tau_S_oracle"):
                out["tau_S"] = timedomain.tau_S_oracle(fwd, medium)
            # computed, as tau_S_oracle bounds its work: lags x steps x cells^2
            lags = min(fwd.n_rec - 1, int(math.ceil(2.0 * math.log(1.0 / ORACLE_TAIL) / grid.dt)))
            out["gmacs"] = lags * fwd.n_rec * grid.n_med ** 2 / 1e9
        return out

    def check(self, case, out):
        """Gaussian runs: the acceptance-gate tolerances of
        validation.check_crossval_timedomain, plus its bookkeeping and overlap bounds.
        Tabulated: P_T against the Gaussian it tabulates. Oracle: against spectral tau_S."""
        if case.kind == "tabulated":
            ref = GaussianPulse(case.params["sigma"], case.params["detuning"])
            p_ref, _ = spectral.transmission_probability(ref, case.medium)
            return None if rel_gap(out["P_T"], p_ref) <= 1e-3 else "tolerance:P_T"
        if case.kind == "oracle":
            t_ref = spectral.tau_S(case.pulse, case.medium)
            return None if rel_gap(out["tau_S"], t_ref) <= 0.05 else "tolerance:tau_S_oracle"
        ref = spectral.delay_report(case.pulse, case.medium)
        if not rel_gap(out["P_T"], ref.P_T) < 0.01:
            return "tolerance:P_T"
        if not rel_gap(out["tau_0"], ref.tau_0) < 0.01:
            return "tolerance:tau_0"
        if not rel_gap(out["tau_T"], ref.tau_T) < 0.02:
            return "tolerance:tau_T"
        if not out["bookkeeping"] < 1e-4:
            return "tolerance:bookkeeping"
        if not out["overlap_spread"] < 1e-6:
            return "tolerance:overlap_spread"
        return None

    def layer_metrics(self, spans, records):
        outs = {r.eid: (r.case, r.out) for r in records if r.out is not None}
        kinds = {eid: case.kind for eid, (case, _) in outs.items()}
        metrics = {}
        for cells in (200, 400):
            ids = {eid for eid, (case, _) in outs.items()
                   if case.kind == "gaussian" and case.params["cells"] == cells}
            sp = [s for s in spans if s.case in ids]
            tag = f"cells{cells}"
            fwd = [s for s in sp if s.name == "timedomain.integrate_forward"]
            bwd = [s for s in sp if s.name == "timedomain.integrate_backward"]
            metrics[f"timedomain.integrate_forward.s.{tag}"] = (_median(s.duration for s in fwd), "s")
            metrics[f"timedomain.integrate_forward.steps_per_s.{tag}"] = (
                sum(outs[s.case][1]["steps"] for s in fwd) / sum(s.duration for s in fwd)
                if fwd else 0.0, "1/s")
            metrics[f"timedomain.integrate_forward.cells_per_step.{tag}"] = (
                _mean(outs[eid][1]["cells_per_step"] for eid in ids), "count")
            metrics[f"timedomain.integrate_backward.s.{tag}"] = (_median(s.duration for s in bwd), "s")
            metrics[f"timedomain.integrate_backward.steps_per_s.{tag}"] = (
                sum(outs[s.case][1]["steps"] for s in bwd) / sum(s.duration for s in bwd)
                if bwd else 0.0, "1/s")
            metrics[f"timedomain.tau_T_td.s.{tag}"] = (
                _median(s.duration for s in sp if s.name == "timedomain.tau_T_td"), "s")
            metrics[f"timedomain.history_mb.{tag}"] = (
                max((outs[eid][1]["history_mb"] for eid in ids), default=0.0), "MB")
        sp = [s for s in spans if s.case in kinds]
        metrics["timedomain.GridSpec.build.s"] = (_median(
            s.duration for s in sp
            if s.name == "timedomain.GridSpec.build" and kinds[s.case] == "tabulated"), "s")
        metrics["timedomain.tau_S_oracle.s"] = (
            _median(s.duration for s in sp if s.name == "timedomain.tau_S_oracle"), "s")
        metrics["timedomain.tau_S_oracle.gmacs"] = (
            _mean(o["gmacs"] for _, o in outs.values() if "gmacs" in o), "GMAC")
        return metrics


WORKLOADS = {cls.name: cls for cls in (SpectralMix, CliFigures, Timedomain)}
WORKLOADS_INDEX = {name: i for i, name in enumerate(WORKLOADS)}
