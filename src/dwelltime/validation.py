"""Named cross-validation checks over the analytic and numerical engines.

Each check is registered, in definition order, by @check with its name, bound,
profile and any wall-time limit, and returns a CheckResult with a single
measured number against its bound, so the CLI can print one pass/fail line per
check. A profile runs its own checks and those of every profile registered
before it. The fast profile covers the closed-form engine and the cavity
analog. Two of its checks resolve the closed forms' own integrands in depth z:
the forward and backward no-jump fields enter only through |beta_fwd|^2 and
conj(beta_back) beta_fwd, where the propagation phase cancels exactly, so the
integrands are real (z, w) arrays. Those checks verify the z and w quadratures,
not an independent physical route. The full profile adds the independent
routes: the time-domain integrator, the event-by-event scattered-time oracle,
and norm bookkeeping.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import cavity, spectral, timedomain
from .domain import GaussianPulse, NarrowBandPulse, make_gaussian_pulse, make_uniform_medium, od_integral

CASE_SEED = 20250811
Z_POINTS = 129  # 2**7 + 1 depth samples, so Romberg can halve the step seven times


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""
    elapsed: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{self.name}: measured={self.measured:.3e} bound={self.bound:.3e} "
                f"({self.elapsed:.1f}s) {status}{extra}")


def random_cases():
    """200 deterministic random parameter sets spanning the supported envelope."""
    rng = np.random.default_rng(CASE_SEED)
    cases = []
    for _ in range(200):
        od0 = float(rng.uniform(1e-3, 20.0))
        detuning = float(rng.uniform(-3.0, 3.0))
        if rng.uniform() < 0.2:
            pulse = NarrowBandPulse(detuning)
        else:
            sigma = float(10.0 ** rng.uniform(math.log10(0.02), math.log10(100.0)))
            pulse = GaussianPulse(sigma=sigma, detuning=detuning)
        cases.append((pulse, make_uniform_medium(od0)))
    return cases


CHECKS = []  # the registered checks, in definition order


def check(name, bound, profile="fast", time_limit=math.inf):
    """Register a check. Its body returns (measured, detail), or (measured, detail, ok)
    for a compound comparison, and is given the bound if it takes an argument. The
    check passes on measured < bound (or ok) within time_limit seconds of wall time."""
    def register(body):
        @functools.wraps(body)
        def run():
            t0 = time.perf_counter()
            measured, detail, *ok = body(bound) if body.__code__.co_argcount else body()
            elapsed = time.perf_counter() - t0
            passed = (ok[0] if ok else measured < bound) and elapsed < time_limit
            return CheckResult(name, passed, measured, bound, detail, elapsed)

        run.name, run.profile = name, profile
        CHECKS.append(run)
        return run
    return register


def _romberg(y, z):
    """Integral of samples y over uniform z (2**k + 1 points) along axis 0, by
    Richardson extrapolation of the trapezoid sums over successive halvings."""
    n = z.size - 1
    table = [np.trapezoid(y[:: n >> k], z[:: n >> k], axis=0) for k in range(n.bit_length())]
    for j in range(1, len(table)):
        table = [fine + (fine - coarse) / (4**j - 1) for coarse, fine in zip(table, table[1:])]
    return table[-1]


def _depth_samples(medium):
    """The Z_POINTS uniform depth samples z, and g(z)^2 and od(z) on them."""
    z = np.linspace(0.0, medium.length, Z_POINTS)
    return z, medium.g_of(z) ** 2, np.array([od_integral(medium, zi) for zi in z])


def _field_excitation(pulse, medium, panels):
    """Time-integrated excited population, integral over z and w of
    |beta_fwd|^2 = g(z)^2 |amp(w)|^2 exp(-od(z) l(w)) / (w^2 + 1/4).

    The propagation phase of the forward field cancels in the modulus, so the
    integrand is real. Each depth sample is one row of the w integral, taken on
    the given panel count (at the carrier for a narrow-band pulse).
    """
    z, g2, od_z = _depth_samples(medium)

    def rows(w, dens):  # dens |alpha_fwd|^2 / |amp|^2 / (w^2 + 1/4)
        return dens * np.exp(-np.multiply.outer(od_z, spectral.lorentzian(w))) / (w * w + 0.25)

    return float(_romberg(g2 * spectral._level(pulse, rows, panels), z))


def _field_weak_value(pulse, medium, panels, p_t):
    """Transmitted weak value of the excitation: integral over z and w of
    Re[conj(beta_back) beta_fwd], divided by the final forward/backward overlap.

    The backward field is the forward one grown by exp(od(z) l - od0 l) / sqrt(P_T)
    with the adjoint pole, so the phases cancel and the real part of the product
    carries the pole factor -Re[(i w + 1/2)^-2]. Each depth sample is one row of
    the w integral on the given panel count, and the final overlap one more.
    """
    z, g2, od_z = _depth_samples(medium)

    def rows(w, dens):
        line = spectral.lorentzian(w)
        od_line = np.multiply.outer(od_z, line)
        # conj(alpha_back) alpha_fwd / |amp|^2: forward decay times backward growth
        overlap = np.exp(-od_line) * np.exp(od_line - medium.od0 * line) / math.sqrt(p_t)
        poles = (w * w - 0.25) / (w * w + 0.25) ** 2
        return np.concatenate([overlap * (dens * poles), (overlap[-1] * dens)[None]])

    vals = spectral._level(pulse, rows, panels)
    return float(_romberg(g2 * vals[:-1], z) / vals[-1])


@check("avg_dwell_identity", 1e-9, time_limit=10.0)
def check_avg_dwell_identity():
    """tau_0 * Gamma = P_S: the closed-form scattering probability equals the
    time-integrated excited population, integral over z and w of |beta_fwd|^2,
    on every random case.

    The integrand is P_S's own integrand resolved in z, with the phase
    cancelled exactly, on the closed-form pass's converged panel count; the
    check verifies the z (Romberg) and w (trapezoid) quadratures.
    """
    cases = random_cases()
    worst = 0.0
    for pulse, medium in cases:
        [(report, panels)] = spectral._core_pass(pulse, medium)
        worst = max(worst, abs(_field_excitation(pulse, medium, panels) - report.P_S))
    return worst, f"{len(cases)} cases, P_S vs its z-resolved integrand"


@check("outcome_sum_rule", 1e-9, time_limit=10.0)
def check_outcome_sum_rule():
    """P_S tau_S + P_T tau_T reproduces tau_0 on every random case.

    A consistency check: the finite-bandwidth tau_S is defined from this sum
    rule in the same quadrature pass, so it holds by construction up to
    rounding; the narrow-band tau_S is an algebraic rewrite of it.
    """
    cases = random_cases()
    worst = 0.0
    for pulse, medium in cases:
        r = spectral.delay_report(pulse, medium)
        worst = max(worst, abs(r.P_S * r.tau_S + r.P_T * r.tau_T - r.P_S) / r.P_S)
    return worst, f"{len(cases)} cases"


@check("transmitted_closed_form", 1e-10)
def check_transmitted_closed_form(bound):
    """Resonant narrow-band tau_T is exactly -od0, and the closed-form tau_T
    matches the weak value integral over z and w of conj(beta_back) beta_fwd
    over the final overlap, on twice its converged panel count.

    The weak-value integrand is tau_T's own integrand resolved in z, with the
    phase cancelled exactly; the check verifies the z and w quadratures.
    """
    worst_nb = 0.0
    for od0 in (0.25, 1.0, 2.5, 7.0, 15.0):
        got = spectral.delay_report(NarrowBandPulse(0.0), make_uniform_medium(od0)).tau_T
        worst_nb = max(worst_nb, abs(got - (-od0)))
    worst_gap = 0.0
    rng = np.random.default_rng(CASE_SEED + 1)
    for _ in range(25):
        pulse = GaussianPulse(float(10.0 ** rng.uniform(-1.5, 1.5)), float(rng.uniform(-2, 2)))
        medium = make_uniform_medium(float(rng.uniform(0.05, 15.0)))
        [(report, panels)] = spectral._core_pass(pulse, medium)
        weak = _field_weak_value(pulse, medium, 2 * panels, report.P_T)
        worst_gap = max(worst_gap, abs(weak - report.tau_T))
    return (max(worst_nb, worst_gap), "narrow-band exact + z-resolved weak-value gap",
            worst_nb == 0.0 and worst_gap < bound)  # the printed max hides a NaN gap


@check("scattered_delay_equality", 1e-9)
def check_scattered_delay_equality():
    """Scattered-spectrum-weighted arrival delay equals the conditional dwell time.

    A consistency check: weight times scattered delay equals the sum-rule
    integrand at every frequency, so the finite-bandwidth cases compare two
    quadratures of algebraically equal integrands, and the narrow-band cases
    evaluate one formula twice.
    """
    cases = random_cases()
    worst = 0.0
    for pulse, medium in cases:
        t_s = spectral.delay_report(pulse, medium).tau_S
        delay = spectral.scattered_delay(pulse, medium)
        worst = max(worst, abs(delay - t_s) / abs(t_s))
    return worst, f"{len(cases)} cases"


@check("narrowband_landmarks", 1.0)
def check_narrowband_landmarks():
    """Pinned values of the resonant narrow-band delay formulas."""
    devs = [(abs(spectral.wigner_delay(0.0) - 2.0), 1e-15)]
    ln2 = math.log(2.0)
    for od0, want, bound in ((1e-4, 2.0, 1e-3), (30.0, 1.0, 1e-3), (ln2, 1.0 + ln2, 1e-9)):
        got = spectral.delay_report(NarrowBandPulse(0.0), make_uniform_medium(od0)).tau_S
        devs.append((abs(got - want), bound))
    return max(d / b for d, b in devs), "worst deviation / its bound"


@check("figure_landmarks", 2.3)
def check_figure_landmarks():
    """Shape of the conditional dwell times against effective depth.

    sigma=1: tau_T crosses zero near od_eff = 2. sigma=0.05: tau_T grows with
    slope ~ 1/2 at od_eff = 5, and tau_S dips well below 1 before recovering.
    """
    p1 = make_gaussian_pulse(1.0)
    lo, hi = 2.0, 6.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if spectral.delay_report(p1, make_uniform_medium(mid)).tau_T < 0.0:
            lo = mid
        else:
            hi = mid
    crossing = spectral.delay_report(p1, make_uniform_medium(0.5 * (lo + hi))).od_eff

    p005, targets = make_gaussian_pulse(0.05), np.array([4.9, 5.1, 8.0])
    (a, _), (b, _), (m8, _) = spectral._core_pass(p005, spectral.invert_od_eff(p005, targets))
    slope = (b.tau_T - a.tau_T) / 0.2
    dip = min(r.tau_S for r, _ in spectral._core_pass(p005, np.geomspace(2.0, 640.0, 25)))
    ok = (abs(crossing - 2.0) <= 0.3
          and abs(slope - 0.5) <= 0.05
          and 0.45 <= dip <= 0.7
          and m8.tau_S > 0.9)
    detail = f"crossing={crossing:.3f} slope={slope:.4f} dip={dip:.3f} recovery={m8.tau_S:.3f}"
    return crossing, detail, ok


@check("asymptotic_windows", 0.10)
def check_asymptotic_windows():
    """Limiting forms track the exact results inside their validity windows.

    The dilute-medium tau_T form needs sigma small enough that the quadratic
    depth term dominates its finite-bandwidth correction, so it is probed at
    sigma = 5e-4; the others at sigma = 0.05, up to od_eff 300 (the pass's wide window).
    """
    worst = 0.0
    report = []
    p_tiny = make_gaussian_pulse(5e-4)
    for od0, (exact, _) in zip((0.03, 0.06, 0.1), spectral._core_pass(p_tiny, [0.03, 0.06, 0.1])):
        m = make_uniform_medium(od0)
        approx = spectral.asymptotics(p_tiny, m, exact.od_eff).tau_t_low_od
        rel = abs(approx - exact.tau_T) / abs(exact.tau_T)
        worst = max(worst, rel)
        report.append(f"tauT_low({od0})={rel:.3f}")
    p, targets = make_gaussian_pulse(0.05), np.array([0.01, 0.03, 0.049, 3.0, 5.0, 8.0, 300.0])
    media = [make_uniform_medium(od0) for od0 in spectral.invert_od_eff(p, targets)]
    cases = list(zip(targets, media, (r for r, _ in spectral._core_pass(p, [m.od0 for m in media]))))
    for od_eff, m, exact in cases[:3]:
        approx = spectral.asymptotics(p, m, exact.od_eff).tau_s_low_od
        rel = abs(approx - exact.tau_S) / abs(exact.tau_S)
        worst = max(worst, rel)
        report.append(f"tauS_low({od_eff})={rel:.3f}")
    for od_eff, m, exact in cases[3:]:
        asym = spectral.asymptotics(p, m, exact.od_eff)
        rel_s = abs(asym.tau_s_high_od - exact.tau_S) / abs(exact.tau_S)
        rel_t = abs(asym.tau_t_high_od - exact.tau_T) / abs(exact.tau_T)
        worst = max(worst, rel_s, rel_t)
        report.append(f"high({od_eff})={max(rel_s, rel_t):.4f}")
    return worst, "; ".join(report)


@check("cavity_identities", 1e-12)
def check_cavity_identities(bound):
    """Closed-form, rate-form and bounce-sum routes to tau_B agree; signs differ
    from the unconditioned dwell time. Measured is the closed-vs-rate gap."""
    rng = np.random.default_rng(CASE_SEED + 2)
    worst_closed = 0.0
    for _ in range(50):
        g1 = float(rng.uniform(0.05, 5.0))
        g2 = g1 * float(rng.uniform(1.05, 8.0))
        cp = cavity.CavityParams(g1, g2)
        direct = 4.0 * g1 / (g1 * g1 - g2 * g2)
        worst_closed = max(worst_closed, abs(cavity.tau_B_closed(cp) - direct))
    cp = cavity.CavityParams(1.0, 3.0)
    nb = NarrowBandPulse(0.0)
    tb = cavity.tau_B_direct(cp, nb)
    value_dev = abs(tb - (-0.5))
    # first-order: tau_B ~ -eta0 / gamma2 for small effective depth
    worst_first = 0.0
    for eta0 in (0.05, 0.02, 0.005):
        ratio = math.exp(-eta0 / 2.0)  # (g2-g1)/(g1+g2) with g1+g2 = 2
        cpx = cavity.CavityParams(1.0 - ratio, 1.0 + ratio)
        tbx = cavity.tau_B_closed(cpx)
        worst_first = max(worst_first, abs(tbx + eta0 / cpx.gamma2) / (eta0 / cpx.gamma2))
    mir = cavity.mirror_map(cp, tau_rt=0.1 / cp.gamma2)
    _, closed = cavity.feynman_tau_B(mir, 1)
    gaps = [abs(cavity.feynman_tau_B(mir, n)[0] - closed) for n in (40, 80, 160, 320)]
    geometric = all(gaps[i + 1] < 0.75 * gaps[i] for i in range(len(gaps) - 1))
    dwell = cavity.dwell_avg(cp, nb)
    _, p_tr = cavity.scatter_probabilities(cp, nb)
    dwell_dev = abs(dwell - p_tr / cp.gamma2)
    signs = tb < 0.0 < dwell
    ok = (worst_closed < bound and value_dev < 1e-12 and worst_first < 0.02
          and geometric and dwell_dev < 1e-10 and signs)
    detail = (f"closed-vs-rate={worst_closed:.1e} first-order={worst_first:.1e} "
              f"dwell-id={dwell_dev:.1e} geometric={geometric} signs={signs}")
    return worst_closed, detail, ok


@check("grid_convergence", 1e-9)
def check_grid_convergence():
    """The quadrature pass's own stopping rule: doubling the panel count _core_pass
    stops at changes no row of the pass (norm, P_T, P_S, tau_T numerator) on that
    count's level by more than 1e-9 of that row, over the finite-bandwidth random cases."""
    gaps = []
    for pulse, medium in random_cases():
        if isinstance(pulse, GaussianPulse):
            [(_, n)] = spectral._core_pass(pulse, medium)
            rows = spectral._core_rows(medium.od0)
            vals, fine = spectral._level(pulse, rows, n), spectral._level(pulse, rows, 2 * n)
            gaps.append((float(np.max(np.abs(fine - vals) / np.abs(fine))), pulse, medium.od0, n))
    worst, pulse, od0, n = max(gaps, key=lambda gap: gap[0])
    return worst, f"sigma={pulse.sigma:.3g} detuning={pulse.detuning:.3g} od0={od0:.3g} panels {n} vs {2 * n}"


@check("group_delay_phase_consistency", 1e-6)
def check_group_delay_phase_consistency():
    """Closed-form group delay matches a numerical derivative of the medium phase."""
    def phase(od0, w):  # of the transmission amplitude through resonant depth od0
        return float(-w * (od0 * spectral.lorentzian(w)))

    h = 3e-4
    worst = 0.0
    for od0 in (0.5, 4.0):
        for d in (0.0, 0.3, 1.0, 2.2):
            numeric = (phase(od0, d + h) - phase(od0, d - h)) / (2.0 * h)
            exact = spectral.group_delay(d, od0)
            worst = max(worst, abs(numeric - exact) / max(abs(exact), 0.05 * od0))
    return worst, ""


@check("spectral_symmetry", 1e-11)
def check_spectral_symmetry():
    """Detuning-sign symmetry of every reported quantity."""
    worst = 0.0
    for sigma, od0, d in ((0.5, 3.0, 1.3), (2.0, 8.0, 0.7), (0.05, 40.0, 2.1)):
        m = make_uniform_medium(od0)
        a = spectral.delay_report(GaussianPulse(sigma, d), m)
        b = spectral.delay_report(GaussianPulse(sigma, -d), m)
        for k in ("P_T", "tau_0", "tau_T", "tau_S"):
            va, vb = getattr(a, k), getattr(b, k)
            worst = max(worst, abs(va - vb) / max(abs(va), 1e-12))
    return worst, ""


@functools.cache
def _crossval_data():
    """Time-domain vs spectral discrepancies at base and halved step, plus
    bookkeeping and overlap diagnostics, for the three reference cases."""
    pulse = make_gaussian_pulse(1.0)
    out = []
    for od0 in (0.5, 2.0, 5.0):
        medium = make_uniform_medium(od0)
        ref = spectral.delay_report(pulse, medium)
        p_ref, tt_ref, t0_ref = ref.P_T, ref.tau_T, ref.tau_0
        rows = {}
        t_start = time.perf_counter()
        for label, cells in (("base", 200), ("half", 400)):
            grid = timedomain.GridSpec.build(pulse, medium, cells_per_medium=cells)
            fwd = timedomain.integrate_forward(pulse, medium, grid)
            bwd = timedomain.integrate_backward(fwd, medium)
            ov = bwd.overlap
            rows[label] = {
                "dp": abs(fwd.p_t - p_ref) / p_ref,
                "dt": abs(timedomain.tau_T_td(fwd, bwd) - tt_ref) / abs(tt_ref),
                "d0": abs(timedomain.tau_avg_td(fwd) - t0_ref) / t0_ref,
                "book": fwd.bookkeeping_dev,
                "overlap_spread": float(np.max(np.abs(ov - ov[-1]))),
            }
            del fwd, bwd
        rows["elapsed"] = time.perf_counter() - t_start
        out.append(rows)
    return out


@check("crossval_timedomain", 0.02, profile="full")
def check_crossval_timedomain(bound):
    """Independent integrator reproduces the closed forms and converges at
    second order in the step size."""
    data = _crossval_data()
    worst_p = max(r["base"]["dp"] for r in data)
    worst_t = max(r["base"]["dt"] for r in data)
    worst_0 = max(r["base"]["d0"] for r in data)
    ratios = []
    for r in data:
        for key in ("dp", "dt", "d0"):
            if r["half"][key] > 0:
                ratios.append(r["base"][key] / r["half"][key])
    ratio_ok = all(2.0 <= x <= 10.0 for x in ratios)
    slow = max(r["elapsed"] for r in data)
    ok = worst_p < 0.01 and worst_t < bound and worst_0 < 0.01 and ratio_ok and slow < 120.0
    detail = (f"dP={worst_p:.2e} dtauT={worst_t:.2e} dtau0={worst_0:.2e} "
              f"step-halving ratios={[f'{x:.1f}' for x in ratios]} max_case={slow:.0f}s")
    return worst_t, detail, ok


@check("scattered_oracle", 0.05, profile="full", time_limit=600.0)
def check_scattered_oracle():
    """Event-by-event weak-value average reproduces the sum-rule tau_S."""
    pulse = make_gaussian_pulse(1.0)
    medium = make_uniform_medium(1.0)
    grid = timedomain.GridSpec.build(pulse, medium, cells_per_medium=60)
    fwd = timedomain.integrate_forward(pulse, medium, grid)
    got = timedomain.tau_S_oracle(fwd, medium)
    ref = spectral.delay_report(pulse, medium).tau_S
    return abs(got - ref) / ref, ""


@check("bookkeeping", 1e-4, profile="full")
def check_bookkeeping():
    """Norm plus integrated scattering loss stays 1 at every step of every run."""
    return max(max(r["base"]["book"], r["half"]["book"]) for r in _crossval_data()), ""


@check("overlap_constancy", 1e-6, profile="full")
def check_overlap_constancy():
    """Forward/backward overlap is constant along the run (exact adjoint stepping)."""
    return max(max(r["base"]["overlap_spread"], r["half"]["overlap_spread"]) for r in _crossval_data()), ""


_ORDER = tuple(dict.fromkeys(fn.profile for fn in CHECKS))  # ("fast", "full")
# each profile's checks: its own and those of every profile registered before it
PROFILES = {p: tuple(fn for fn in CHECKS if _ORDER.index(fn.profile) <= i) for i, p in enumerate(_ORDER)}
FAST_CHECKS, FULL_CHECKS = PROFILES["fast"], PROFILES["full"]


def run_validation(profile="fast"):
    """Run the named checks for a profile; returns the list of CheckResults."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    return [fn() for fn in PROFILES[profile]]
