"""Command-line front end: scenario runs, figure datasets, sweeps, validation.

Config files are INI-style text (configparser) with a documented schema; the
parser rejects unknown sections and keys so typos fail loudly. All quantities
cross the boundary in physical units of the supplied linewidth gamma and are
nondimensionalized internally (c = gamma = 1); reported times are in 1/gamma.

Exit codes: 0 success, 1 validation failure, 2 config error (ConfigError) or
io error (OSError), 3 numeric error (NumericError, or any other DwellTimeError),
4 precondition violation (InvalidParameterError, or an unknown figure name).
Each is printed to stderr after the prefix "config error: ", "io error: ",
"numeric error: ", "error: " or "precondition violation: ".
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import spectral, timedomain, validation
from .domain import (
    AtomParams,
    GaussianPulse,
    MediumProfile,
    NarrowBandPulse,
    PulseSpec,
    REPORT_FIELDS,
    TabulatedSpectrumPulse,
    make_tabulated_medium,
    make_uniform_medium,
)
from .errors import ConfigError, DwellTimeError, InvalidParameterError, NumericError

# section -> allowed keys; anything else in a config file is rejected
SCHEMA = {
    "pulse": {"kind", "sigma", "detuning", "spectrum_file"},
    "medium": {"od0", "length", "profile_file"},
    "atom": {"gamma"},
    "engine": {"kind"},
    "grid": {"cells_per_medium"},
    "output": {"path"},
    "sweep": {"axis", "start", "stop", "count", "spacing"},
}

ENGINES = ("spectral", "timedomain", "both")
SWEEP_AXES = ("od0", "od_eff", "detuning", "sigma")


@dataclass(frozen=True)
class Scenario:
    """One fully resolved (pulse, medium, engine) case in internal units."""

    pulse: PulseSpec
    medium: MediumProfile
    atom: AtomParams
    engine: str
    cells_per_medium: int | None  # time-domain grid; None takes GridSpec.build's default
    out_path: str | None


@dataclass(frozen=True)
class SweepSpec:
    """Swept axis over a Scenario template; values are in config (physical) units."""

    axis: str
    start: float
    stop: float
    count: int
    spacing: str

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not self.start < self.stop:
            raise ConfigError(f"sweep range must be ordered, got [{self.start}, {self.stop}]")
        if not math.isfinite(self.stop - self.start):  # linspace would fill it with NaN
            raise ConfigError(f"sweep range must have a finite width, got [{self.start}, {self.stop}]")
        if self.count < 2:
            raise ConfigError(f"sweep count must be >= 2, got {self.count}")
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"sweep spacing must be linear or log, got {self.spacing!r}")
        if self.spacing == "log" and self.start <= 0.0:
            raise ConfigError("log spacing needs a positive range start")

    def values(self):
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


def load_config(path):
    # values are read literally: "%" is an ordinary character, not interpolation
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return cp


def _get(cp, section, key, conv, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc


def _load_columns(path, what):
    """Two or three numeric columns from a whitespace- or comma-separated file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    text = text.replace(",", " ")
    if not any(line.split("#", 1)[0].split() for line in text.splitlines()):
        raise ConfigError(f"{what} file {path} holds no data")
    try:
        return np.loadtxt(io.StringIO(text), ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"malformed {what} file {path}: {exc}") from exc


def _build_pulse(cp, gamma):
    kind = _get(cp, "pulse", "kind", str, default="gaussian").lower()
    detuning = _get(cp, "pulse", "detuning", float, default=0.0)
    if kind == "gaussian":
        sigma = _get(cp, "pulse", "sigma", float, required=True)
        return GaussianPulse(sigma=sigma * gamma, detuning=detuning / gamma)
    if kind == "narrowband":
        return NarrowBandPulse(detuning / gamma)
    if kind == "tabulated":
        path = _get(cp, "pulse", "spectrum_file", str, required=True)
        data = _load_columns(path, "spectrum")
        if data.shape[1] not in (2, 3):
            raise ConfigError(f"spectrum file {path} must have 2 or 3 columns, got {data.shape[1]}")
        amps = data[:, 1] + (1j * data[:, 2] if data.shape[1] == 3 else 0.0)
        with np.errstate(over="ignore"):  # TabulatedSpectrumPulse refuses an inf span
            omegas = data[:, 0] / gamma
        return TabulatedSpectrumPulse(omegas=omegas, amplitudes=amps)
    raise ConfigError(f"unknown pulse kind {kind!r}")


def _build_medium(cp):
    profile_file = _get(cp, "medium", "profile_file", str)
    length = _get(cp, "medium", "length", float, default=1.0)
    if profile_file is not None:
        if cp.has_option("medium", "od0"):
            raise ConfigError("give either [medium] od0 or profile_file, not both")
        data = _load_columns(profile_file, "medium profile")
        if data.shape[1] != 2:
            raise ConfigError(f"profile file {profile_file} must have 2 columns (z, g)")
        return make_tabulated_medium(data[:, 0], data[:, 1])
    od0 = _get(cp, "medium", "od0", float, required=True)
    return make_uniform_medium(od0, length)


def scenario_from_config(cp):
    gamma = _get(cp, "atom", "gamma", float, default=1.0)
    atom = AtomParams(gamma)
    engine = _get(cp, "engine", "kind", str, default="spectral").lower()
    if engine not in ENGINES:
        raise ConfigError(f"engine kind must be one of {ENGINES}, got {engine!r}")
    return Scenario(
        pulse=_build_pulse(cp, gamma),
        medium=_build_medium(cp),
        atom=atom,
        engine=engine,
        cells_per_medium=_get(cp, "grid", "cells_per_medium", int),
        out_path=_get(cp, "output", "path", str),
    )


def sweep_from_config(cp):
    if not cp.has_section("sweep"):
        raise ConfigError("sweep config needs a [sweep] section")
    return SweepSpec(
        axis=_get(cp, "sweep", "axis", str, required=True).lower(),
        start=_get(cp, "sweep", "start", float, required=True),
        stop=_get(cp, "sweep", "stop", float, required=True),
        count=_get(cp, "sweep", "count", int, required=True),
        spacing=_get(cp, "sweep", "spacing", str, default="linear").lower(),
    )


def run_scenario(scenario: Scenario):
    """Delay reports for one scenario, one per requested engine."""
    reports = []
    if scenario.engine in ("spectral", "both"):
        reports.append(spectral.delay_report(scenario.pulse, scenario.medium))
    if scenario.engine in ("timedomain", "both"):
        grid = None if scenario.cells_per_medium is None else timedomain.GridSpec.build(
            scenario.pulse, scenario.medium, cells_per_medium=scenario.cells_per_medium)
        reports.append(timedomain.delay_report_td(scenario.pulse, scenario.medium, grid))
    return reports


# --- CSV output ------------------------------------------------------------

def write_csv(out_path, comments, header, rows):
    """Deterministic CSV: '#' comments, one header row, then each row with every number as "%.11e" and every
    string as is, the kinds taken from the first row."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    buf.write(",".join(header) + "\n")
    fmt = ",".join("%s" if isinstance(v, str) else "%.11e" for v in (rows[0] if rows else ())) + "\n"
    buf.writelines(fmt % tuple(row) for row in rows)
    text = buf.getvalue()
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


REPORT_COMMENTS = (
    "single-photon excitation dwell times for a 1D two-level medium; times in units of 1/gamma",
    "P_T, P_S: transmission and scattering probabilities of the pulse",
    "tau_0: unconditioned dwell time of the excited state, equals P_S/gamma",
    "tau_T: transmitted-post-selected dwell time, weak value of the excited-state"
    " occupation between forward and backward no-jump solutions",
    "tau_S: scattered-post-selected dwell time from the outcome decomposition"
    " P_T tau_T + P_S tau_S = tau_0",
    "t_g, t_W, t_S: narrow-band group delay, single-atom Wigner delay, and"
    " scattered-arrival delay; NaN for finite-bandwidth pulses",
    "od_eff: effective optical depth, -ln P_T",
    "method: analytic (frequency-domain closed forms) or timedomain (split-step integrator)",
)


def _scenario_comment(scenario: Scenario):
    p = scenario.pulse
    if isinstance(p, NarrowBandPulse):
        pdesc = f"narrowband detuning={p.detuning:.6g}"
    elif isinstance(p, GaussianPulse):
        pdesc = f"gaussian sigma={p.sigma:.6g} detuning={p.detuning:.6g}"
    else:
        pdesc = f"tabulated ({p.omegas.size} samples)"
    m = scenario.medium
    mdesc = (f"uniform od0={m.od0:.6g} length={m.length:.6g}" if m.g0 is not None
             else f"tabulated od0={m.od0:.6g} length={m.length:.6g}")
    return (f"scenario: pulse[{pdesc}] medium[{mdesc}] engine={scenario.engine}"
            f" gamma={scenario.atom.gamma:.6g} (internal units)")


def cmd_run(args):
    cp = load_config(args.config)
    if cp.has_section("sweep"):
        raise ConfigError("run config must not contain a [sweep] section; use the sweep command")
    scenario = scenario_from_config(cp)
    reports = run_scenario(scenario)
    comments = list(REPORT_COMMENTS) + [_scenario_comment(scenario)]
    rows = [[rep.as_dict()[k] for k in REPORT_FIELDS] for rep in reports]
    write_csv(scenario.out_path, comments, list(REPORT_FIELDS), rows)
    return 0


# --- sweeps ----------------------------------------------------------------

def _worker_count():
    """Points run one after another, so one worker. Read only by the benchmark's
    machine record (perfbench/worker.py)."""
    return 1


def _sweep_scenario(scenario: Scenario, sweep: SweepSpec, value):
    """Scenario at one sweep point; value is in config units."""
    gamma = scenario.atom.gamma
    if sweep.axis in ("od0", "od_eff"):
        if scenario.medium.g0 is None:
            raise ConfigError(f"{sweep.axis} sweep needs a uniform medium, not a profile file")
        od0 = value if sweep.axis == "od0" else spectral.invert_od_eff(scenario.pulse, value)
        return replace(scenario, medium=make_uniform_medium(od0, scenario.medium.length))
    if sweep.axis == "detuning":
        p = scenario.pulse
        if isinstance(p, TabulatedSpectrumPulse):
            raise ConfigError("detuning sweep is not defined for a tabulated spectrum")
        return replace(scenario, pulse=replace(p, detuning=value / gamma))
    # sigma
    if not isinstance(scenario.pulse, GaussianPulse):
        raise ConfigError("sigma sweep needs a gaussian pulse")
    return replace(scenario, pulse=replace(scenario.pulse, sigma=value * gamma))


def _sweep_reports(scenario: Scenario, sweep: SweepSpec, values):
    """Each point's run_scenario reports. An od0 or od_eff sweep over a uniform medium takes
    its depths from one array inversion and its spectral reports from one pass
    (spectral._core_pass), each with the point's bits, and a time-domain run per point; where
    the array calls raise, the points run one by one, so the error is the first failing point's."""
    if sweep.axis in ("od0", "od_eff") and scenario.medium.g0 is not None and scenario.engine != "timedomain":
        try:
            od0 = values if sweep.axis == "od0" else spectral.invert_od_eff(scenario.pulse, np.array(values)).tolist()
            points = [replace(scenario, medium=make_uniform_medium(d, scenario.medium.length)) for d in od0]
            reports = spectral._core_pass(scenario.pulse, np.array([p.medium.od0 for p in points]))
        except DwellTimeError:
            pass
        else:
            return [[rep] + (run_scenario(replace(p, engine="timedomain")) if p.engine == "both" else [])
                    for p, (rep, _) in zip(points, reports)]
    return [run_scenario(_sweep_scenario(scenario, sweep, v)) for v in values]


def cmd_sweep(args):
    cp = load_config(args.config)
    scenario = scenario_from_config(cp)
    sweep = sweep_from_config(cp)
    values = sweep.values().tolist()
    rows = [[value] + [rep.as_dict()[k] for k in REPORT_FIELDS]
            for value, reports in zip(values, _sweep_reports(scenario, sweep, values)) for rep in reports]
    comments = list(REPORT_COMMENTS) + [
        _scenario_comment(scenario),
        f"sweep: axis={sweep.axis} range=[{sweep.start:.6g}, {sweep.stop:.6g}]"
        f" count={sweep.count} spacing={sweep.spacing} (axis values in config units)",
    ]
    # axis column is prefixed so an od_eff sweep does not shadow the report field
    write_csv(scenario.out_path, comments, [f"sweep_{sweep.axis}"] + list(REPORT_FIELDS), rows)
    return 0


# --- figure datasets -------------------------------------------------------

FIG2_SIGMAS = (3.0, 1.0, 0.3, 0.05)  # legend durations in 1/gamma, plus narrow-band
FIG3_ODS = (0.1, 1.0, 3.0, 10.0, 30.0)


def _fig2_dataset():
    od_grid = np.linspace(0.0, 30.0, 121)
    header = ["od0", "tau_T_narrowband"] + [f"tau_T_sigma_{s:g}" for s in FIG2_SIGMAS]
    columns = [spectral.group_delay(0.0, od_grid)] + [
        [r.tau_T for r, _ in spectral._core_pass(GaussianPulse(s, 0.0), od_grid)] for s in FIG2_SIGMAS]
    rows = [[float(od0), *taus] for od0, *taus in zip(od_grid, *columns)]
    comments = [
        "transmitted dwell time tau_T vs resonant optical depth at zero detuning",
        "tau_T: weak value of the excited-state occupation conditioned on transmission;"
        " narrow-band column is the resonant group delay -OD0/gamma",
        f"pulse durations sigma*gamma: narrowband (infinite) and {FIG2_SIGMAS}",
        "times in units of 1/gamma",
    ]
    return comments, header, rows


def _fig3_dataset(which):
    d_grid, ods = np.linspace(-3.0, 3.0, 241), np.array(FIG3_ODS)
    if which == "a":  # one elementwise evaluation over the (detuning, od0) grid
        column, values = "t_g", spectral.group_delay(d_grid[:, None], ods)
        comments = [
            "narrow-band group delay t_g vs detuning, one column per resonant depth",
            "t_g = d(phase)/d(omega) of the medium transmission at the pulse detuning",
        ]
    else:
        column, values = "tau_S", spectral._scattered_delay_point(d_grid[:, None], ods)  # _core_pass's tau_S
        comments = [
            "scattered-post-selected dwell time tau_S vs detuning, narrow-band limit",
            "tau_S = (1 - t_g/(exp(x) - 1))/gamma with x the absorbed depth OD0/(1+4 detuning^2)",
            "begins at the Wigner delay 2/gamma as OD0 -> 0",
        ]
    comments += [f"resonant depths OD0: {FIG3_ODS}", "times in units of 1/gamma, detuning in units of gamma"]
    header = ["detuning"] + [f"{column}_od0_{od:g}" for od in FIG3_ODS]
    return comments, header, [[d, *row] for d, row in zip(d_grid.tolist(), values.tolist())]


def _fig4_dataset():
    od_eff = np.geomspace(0.05, 10.0, 80)
    sigmas = (1.0, 0.05)
    header = ["od_eff", "tau_T_narrowband", "tau_S_narrowband"]
    for s in sigmas:
        header += [f"tau_T_sigma_{s:g}", f"tau_S_sigma_{s:g}"]

    pulses = [NarrowBandPulse(0.0)] + [GaussianPulse(s, 0.0) for s in sigmas]
    columns = [spectral._core_pass(p, spectral.invert_od_eff(p, od_eff)) for p in pulses]
    rows = [[float(target)] + [t for r, _ in reports for t in (r.tau_T, r.tau_S)]
            for target, *reports in zip(od_eff, *columns)]
    comments = [
        "conditional dwell times vs effective optical depth od_eff = -ln P_T, zero detuning",
        "per pulse bandwidth: resonant od0 solved from od_eff by bisection on monotone P_T(od0)",
        f"pulse durations sigma*gamma: narrowband (infinite) and {sigmas}",
        "times in units of 1/gamma",
    ]
    return comments, header, rows


def _fig_asym_dataset(which):
    """Exact conditional dwell time vs its dilute/dense approximants, sigma*gamma = 0.05."""
    sigma = 0.05
    pulse = GaussianPulse(sigma, 0.0)
    od_eff = np.geomspace(0.005, 10.0, 60)

    media = [make_uniform_medium(od0) for od0 in spectral.invert_od_eff(pulse, od_eff)]
    rows = []
    for target, m, (rep, _) in zip(od_eff, media, spectral._core_pass(pulse, [m.od0 for m in media])):
        asym = spectral.asymptotics(pulse, m, rep.od_eff)
        if which == "F":
            rows.append([float(target), m.od0, rep.tau_S, asym.tau_s_low_od, asym.tau_s_high_od])
        else:
            rows.append([float(target), m.od0, rep.tau_T, asym.tau_t_low_od, asym.tau_t_high_od])
    if which == "F":
        header = ["od_eff", "od0", "tau_S_exact", "tau_S_dilute", "tau_S_dense"]
        comments = [
            "scattered-post-selected dwell time: exact vs limiting forms, sigma*gamma = 0.05",
            "dilute: tau_S ~ (1 - sqrt(2/pi) od_eff/(4 sigma))/gamma, valid for od_eff << sigma",
            "dense: tau_S ~ (1 - od_eff/(2 (exp(od_eff) - 1)))/gamma, valid for od_eff >~ 1",
        ]
    else:
        header = ["od_eff", "od0", "tau_T_exact", "tau_T_dilute", "tau_T_dense"]
        comments = [
            "transmitted-post-selected dwell time: exact vs limiting forms, sigma*gamma = 0.05",
            "dilute: tau_T ~ sqrt(pi/2) (sigma/4) OD0^2 / gamma, valid for OD0 << 1 and sigma"
            " small enough that the quadratic depth term dominates the bandwidth correction",
            "dense: tau_T ~ od_eff/(2 gamma), the saturated-absorption growth rate",
        ]
    comments.append("times in units of 1/gamma")
    return comments, header, rows


FIGURES = {
    "fig2": _fig2_dataset,
    "fig3a": lambda: _fig3_dataset("a"),
    "fig3b": lambda: _fig3_dataset("b"),
    "fig4": _fig4_dataset,
    "figF1": lambda: _fig_asym_dataset("F"),
    "figG1": lambda: _fig_asym_dataset("G"),
}


def cmd_figure(args):
    builder = FIGURES.get(args.name)
    if builder is None:
        print(f"unknown figure {args.name!r}; choose from {sorted(FIGURES)}", file=sys.stderr)
        return 4
    comments, header, rows = builder()
    write_csv(args.out, comments, header, rows)
    return 0


def cmd_validate(args):
    results = validation.run_validation(args.profile)
    for r in results:
        print(r.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="dwelltime",
        description="Excitation dwell times of a single photon in a two-level medium.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one scenario from a config file, CSV report")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser("figure", help="emit a named figure dataset as CSV")
    p_fig.add_argument("name")
    p_fig.add_argument("out")
    p_fig.set_defaults(func=cmd_figure)

    p_sweep = sub.add_parser("sweep", help="parameter sweep from a config file, CSV table")
    p_sweep.add_argument("config")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the named cross-validation checks")
    p_val.add_argument("--profile", choices=tuple(validation.PROFILES), default="fast")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        kind = "config" if isinstance(exc, ConfigError) else "io"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2
    except InvalidParameterError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 4
    except DwellTimeError as exc:  # NumericError, or any other library failure
        kind = "numeric error" if isinstance(exc, NumericError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
