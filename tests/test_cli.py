"""Config intake, CSV output, sweep machinery, exit codes."""

import hashlib
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwelltime import cli, spectral, timedomain
from dwelltime.domain import GaussianPulse, NarrowBandPulse, make_uniform_medium
from dwelltime.errors import ConfigError, DwellTimeError, InvalidParameterError, NumericError

BASE = """
[pulse]
kind = gaussian
sigma = 1.0

[medium]
od0 = 2.0
"""


def write(tmp_path, text, name="case.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_rows(path):
    with open(path) as fh:
        lines = [l.rstrip("\n") for l in fh if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            cli.load_config(write(tmp_path, BASE + "\n[typo]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            cli.load_config(write(tmp_path, BASE + "\n[engine]\nknd = spectral\n"))

    def test_missing_required_key(self, tmp_path):
        cp = cli.load_config(write(tmp_path, "[pulse]\nkind = gaussian\n[medium]\nod0 = 1\n"))
        with pytest.raises(ConfigError, match="sigma"):
            cli.scenario_from_config(cp)

    def test_bad_float_rejected(self, tmp_path):
        cp = cli.load_config(write(tmp_path, BASE.replace("od0 = 2.0", "od0 = two")))
        with pytest.raises(ConfigError, match="bad value"):
            cli.scenario_from_config(cp)

    def test_gamma_nondimensionalization(self, tmp_path):
        text = """
[pulse]
kind = gaussian
sigma = 0.5
detuning = 1.0

[medium]
od0 = 2.0

[atom]
gamma = 2.0
"""
        sc = cli.scenario_from_config(cli.load_config(write(tmp_path, text)))
        # sigma in time units scales up by gamma, detuning in rate units scales down
        assert sc.pulse == GaussianPulse(sigma=1.0, detuning=0.5)
        assert sc.atom.gamma == 2.0

    def test_defaults(self, tmp_path):
        sc = cli.scenario_from_config(cli.load_config(write(tmp_path, BASE)))
        assert sc.engine == "spectral"
        assert sc.cells_per_medium is None
        assert sc.out_path is None

    def test_tabulated_pulse_from_file(self, tmp_path):
        w = np.linspace(-6, 6, 801)
        amp = np.exp(-(w**2))
        spec = tmp_path / "spec.csv"
        np.savetxt(spec, np.column_stack([w, amp]), delimiter=",")
        text = f"[pulse]\nkind = tabulated\nspectrum_file = {spec}\n[medium]\nod0 = 1.0\n"
        sc = cli.scenario_from_config(cli.load_config(write(tmp_path, text)))
        assert sc.pulse.omegas.size == 801

    def test_tabulated_third_column_is_the_imaginary_part(self, tmp_path):
        w = np.linspace(-6, 6, 801)
        re, im = np.exp(-(w**2)), 0.5 * w * np.exp(-(w**2))
        spec = tmp_path / "spec.csv"
        np.savetxt(spec, np.column_stack([w, re, im]), delimiter=",")
        text = f"[pulse]\nkind = tabulated\nspectrum_file = {spec}\n[medium]\nod0 = 1.0\n"
        amps = cli.scenario_from_config(cli.load_config(write(tmp_path, text))).pulse.amplitudes
        scale = math.sqrt(np.trapezoid(re**2 + im**2, w))  # normalized to unit frequency integral
        np.testing.assert_allclose(amps.real * scale, re, rtol=1e-12)
        np.testing.assert_allclose(amps.imag * scale, im, rtol=1e-12)

    def test_medium_profile_file(self, tmp_path):
        z = np.linspace(0, 1, 51)
        prof = tmp_path / "prof.txt"
        np.savetxt(prof, np.column_stack([z, np.full(51, 0.7)]))
        text = f"[pulse]\nkind = gaussian\nsigma = 1\n[medium]\nprofile_file = {prof}\n"
        sc = cli.scenario_from_config(cli.load_config(write(tmp_path, text)))
        assert sc.medium.od0 == pytest.approx(4 * 0.49, rel=1e-12)

    def test_profile_and_od0_conflict(self, tmp_path):
        z = np.linspace(0, 1, 51)
        prof = tmp_path / "prof.txt"
        np.savetxt(prof, np.column_stack([z, np.ones(51)]))
        text = f"[pulse]\nkind = gaussian\nsigma = 1\n[medium]\nod0 = 1\nprofile_file = {prof}\n"
        with pytest.raises(ConfigError, match="not both"):
            cli.scenario_from_config(cli.load_config(write(tmp_path, text)))


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            cli.SweepSpec("bogus", 0.0, 1.0, 5, "linear")
        with pytest.raises(ConfigError):
            cli.SweepSpec("od0", 2.0, 1.0, 5, "linear")
        with pytest.raises(ConfigError):
            cli.SweepSpec("od0", 1.0, 2.0, 1, "linear")
        with pytest.raises(ConfigError):
            cli.SweepSpec("od0", 0.0, 2.0, 5, "log")
        for start, stop in ((1.0, math.inf), (-math.inf, 1.0), (-1e308, 1e308)):
            with pytest.raises(ConfigError, match="finite width"):
                cli.SweepSpec("od_eff", start, stop, 2, "linear")

    def test_values_spacing(self):
        lin = cli.SweepSpec("od0", 1.0, 3.0, 3, "linear").values()
        np.testing.assert_allclose(lin, [1.0, 2.0, 3.0])
        log = cli.SweepSpec("od0", 1.0, 4.0, 3, "log").values()
        np.testing.assert_allclose(log, [1.0, 2.0, 4.0])

    def test_sigma_axis_needs_gaussian(self, tmp_path):
        text = BASE.replace("kind = gaussian\nsigma = 1.0", "kind = narrowband")
        sc = cli.scenario_from_config(cli.load_config(write(tmp_path, text)))
        sweep = cli.SweepSpec("sigma", 0.5, 2.0, 3, "linear")
        with pytest.raises(ConfigError, match="gaussian"):
            cli._sweep_scenario(sc, sweep, 1.0)

    def test_detuning_axis_converts_units(self, tmp_path):
        text = BASE + "\n[atom]\ngamma = 4.0\n"
        sc = cli.scenario_from_config(cli.load_config(write(tmp_path, text)))
        out = cli._sweep_scenario(sc, cli.SweepSpec("detuning", -1.0, 1.0, 3, "linear"), 1.0)
        assert out.pulse.detuning == pytest.approx(0.25)


class TestCsvWriter:
    def test_deterministic_bytes(self, tmp_path):
        rows = [[1.0 / 3.0, "analytic"], [math.nan, "timedomain"]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.write_csv(str(a), ["note"], ["x", "method"], rows)
        cli.write_csv(str(b), ["note"], ["x", "method"], rows)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("# note\nx,method\n")
        assert "3.33333333333e-01" in text and "nan" in text


class TestExitCodes:
    def test_run_writes_report(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = write(tmp_path, BASE + f"\n[output]\npath = {out}\n")
        assert cli.main(["run", cfg]) == 0
        header, rows = read_rows(out)
        assert header == list(cli.REPORT_FIELDS)
        assert len(rows) == 1 and rows[0][-1] == "analytic"
        p_t = float(rows[0][0])
        assert p_t == pytest.approx(0.3110950959672883, rel=1e-9)

    def test_run_both_engines_two_rows(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = write(tmp_path, BASE + f"\n[engine]\nkind = both\n[output]\npath = {out}\n")
        assert cli.main(["run", cfg]) == 0
        _, rows = read_rows(out)
        assert [r[-1] for r in rows] == ["analytic", "timedomain"]
        # engines agree on the transmitted dwell time within their tolerance
        assert float(rows[1][3]) == pytest.approx(float(rows[0][3]), rel=0.02)

    def test_cells_per_medium_reaches_the_grid(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = write(tmp_path, BASE + "\n[engine]\nkind = timedomain\n[grid]\ncells_per_medium = 60\n"
                                     f"[output]\npath = {out}\n")
        assert cli.main(["run", cfg]) == 0
        _, rows = read_rows(out)
        pulse, medium = GaussianPulse(1.0, 0.0), make_uniform_medium(2.0)
        grid = timedomain.GridSpec.build(pulse, medium, cells_per_medium=60)
        p_t = timedomain.delay_report_td(pulse, medium, grid).P_T
        assert float(rows[0][0]) == pytest.approx(p_t, rel=1e-11)

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE + "\nbroken line without section\n")
        assert cli.main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("kind", ["spectrum", "medium profile"])
    @pytest.mark.parametrize("content", ["", "\n  \n", "# z g\n, ,\n"], ids=["empty", "blank", "comments"])
    def test_file_without_data_exits_2(self, tmp_path, capsys, kind, content):
        # refused before np.loadtxt parses it, which would warn "input contained no data"
        (tmp_path / "data.txt").write_text(content)
        entry = ("[pulse]\nkind = tabulated\nspectrum_file = {}\n[medium]\nod0 = 1.0\n"
                 if kind == "spectrum" else "[pulse]\nsigma = 1.0\n[medium]\nprofile_file = {}\n")
        cfg = write(tmp_path, entry.format(tmp_path / "data.txt"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", cfg]) == 2
        assert f"config error: {kind} file {tmp_path / 'data.txt'} holds no data" in capsys.readouterr().err

    def test_precondition_exits_4(self, tmp_path, capsys):
        cfg = write(tmp_path, """
[pulse]
kind = narrowband

[medium]
od0 = 2.0

[engine]
kind = timedomain
""")
        assert cli.main(["run", cfg]) == 4
        assert "precondition" in capsys.readouterr().err

    @pytest.mark.parametrize("od0,detuning,code", [(1000.0, 0.3, 0), (800.0, 0.0, 4)])
    def test_dense_narrowband(self, tmp_path, od0, detuning, code):
        # exp(x) overflows past x ~ 710; tau_S then takes its dense limit 1.
        # On resonance at od0 = 800, P_T underflows to 0 and the report is refused.
        out = tmp_path / "report.csv"
        cfg = write(tmp_path, f"[pulse]\nkind = narrowband\ndetuning = {detuning}\n"
                              f"[medium]\nod0 = {od0}\n[output]\npath = {out}\n")
        assert cli.main(["run", cfg]) == code
        if code == 0:
            header, rows = read_rows(out)
            assert float(rows[0][header.index("tau_S")]) == 1.0

    @pytest.mark.parametrize("detuning,od0", [(1e200, 2.0), (1e10, 1e-310)])
    def test_unabsorbed_narrowband_exits_0(self, tmp_path, detuning, od0):
        # the absorbed depth od0 / (1 + 4 detuning^2) underflows to 0: nothing
        # scatters, so tau_S is NaN as at od0 = 0
        out = tmp_path / "report.csv"
        cfg = write(tmp_path, f"[pulse]\nkind = narrowband\ndetuning = {detuning}\n"
                              f"[medium]\nod0 = {od0}\n[output]\npath = {out}\n")
        assert cli.main(["run", cfg]) == 0
        header, rows = read_rows(out)
        assert float(rows[0][header.index("P_T")]) == 1.0
        assert math.isnan(float(rows[0][header.index("tau_S")]))
        # the group delay takes its limit 0 where (2 detuning)^2 overflows
        assert math.isfinite(float(rows[0][header.index("tau_T")]))
        assert math.isfinite(float(rows[0][header.index("t_g")]))

    @pytest.mark.parametrize("od0", ["nan", "inf"])
    def test_nonfinite_od0_exits_4(self, tmp_path, capsys, od0):
        cfg = write(tmp_path, BASE.replace("od0 = 2.0", f"od0 = {od0}"))
        assert cli.main(["run", cfg]) == 4
        assert "od0 must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["1e200", "inf", "nan"])
    def test_unrepresentable_sigma_exits_4(self, tmp_path, capsys, sigma):
        cfg = write(tmp_path, BASE.replace("sigma = 1.0", f"sigma = {sigma}"))
        assert cli.main(["run", cfg]) == 4
        assert "sigma must be positive and below" in capsys.readouterr().err

    def test_quadrature_section_exits_2(self, tmp_path, capsys):
        # the quadrature's panel count and tolerance are not settable
        cfg = write(tmp_path, BASE + "\n[quadrature]\ntol = 1e-6\n")
        assert cli.main(["run", cfg]) == 2
        assert "unknown config section [quadrature]" in capsys.readouterr().err

    def test_validate_grid_n_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--grid-n", "256"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid-n 256" in capsys.readouterr().err

    def test_timedomain_grid_too_large_exits_4(self, tmp_path, capsys):
        # refused by GridSpec before any field or history is allocated
        cfg = write(tmp_path, "[pulse]\nkind = gaussian\nsigma = 0.01\n"
                              "[medium]\nod0 = 2.0\n[engine]\nkind = timedomain\n")
        assert cli.main(["run", cfg]) == 4
        assert "beta history" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["sigma = 1e-200", "sigma = 1.0\n[atom]\ngamma = 1e-300"],
                             ids=["sigma_1e-200", "gamma_1e-300"])
    def test_very_short_pulse_timedomain_exits_4(self, tmp_path, capsys, entry):
        # the history's byte count is past float range, and is refused as such
        cfg = write(tmp_path, f"[pulse]\nkind = gaussian\n{entry}\n"
                              "[medium]\nod0 = 2.0\n[engine]\nkind = timedomain\n")
        assert cli.main(["run", cfg]) == 4
        assert "beta history" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma,medium,grid", [
        ("5e-324", "", ""),
        ("1.0", "length = 1e-310", ""),
        ("1.0", "", "[grid]\ncells_per_medium = 1" + "0" * 400),
    ], ids=["sigma_5e-324", "length_1e-310", "cells_1e400"])
    def test_grid_past_float_range_exits_4(self, tmp_path, capsys, sigma, medium, grid):
        # a cell or step count past float range is refused as an over-budget grid
        cfg = write(tmp_path, f"[pulse]\nkind = gaussian\nsigma = {sigma}\n[medium]\nod0 = 2.0\n{medium}\n"
                              f"[engine]\nkind = timedomain\n{grid}\n")
        assert cli.main(["run", cfg]) == 4
        assert "beta history" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["gaussian", "tabulated"])
    def test_dense_finite_bandwidth_exits_4(self, tmp_path, capsys, kind):
        # P_T underflows to 0 over the whole spectrum; refused before the
        # transmitted rows are divided by it (a RuntimeWarning fails this test)
        w = np.linspace(-6.0, 6.0, 201)
        np.savetxt(tmp_path / "spec.txt", np.column_stack([w, np.exp(-(w**2))]))
        pulse = "sigma = 1.0" if kind == "gaussian" else f"spectrum_file = {tmp_path / 'spec.txt'}"
        cfg = write(tmp_path, f"[pulse]\nkind = {kind}\n{pulse}\n[medium]\nod0 = 1e6\n")
        assert cli.main(["run", cfg]) == 4
        assert "P_T underflows to 0 at od0 = 1e+06" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["gaussian", "narrowband"])
    def test_depth_past_float_range_exits_4(self, tmp_path, capsys, kind):
        # od0 = 1 over a subnormal length needs g0^2 past float range, so od0 reads inf;
        # refused before the rows multiply 0 by inf (a RuntimeWarning fails this test)
        cfg = write(tmp_path, f"[pulse]\nkind = {kind}\nsigma = 1.0\n[medium]\nod0 = 1.0\nlength = 5e-324\n")
        assert cli.main(["run", cfg]) == 4
        assert "od0 = inf over length 4.94066e-324 is past float range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("gamma", ["5e-324", "4e-308"])
    def test_spectrum_past_float_range_exits_4(self, tmp_path, capsys, command, gamma):
        # the table's frequencies / gamma reach inf (5e-324) or span past float range (4e-308)
        w = np.linspace(-6.0, 6.0, 201)
        np.savetxt(tmp_path / "spec.txt", np.column_stack([w, np.exp(-(w**2))]))
        sweep = "[sweep]\naxis = od_eff\nstart = 1\nstop = 2\ncount = 2\n" if command == "sweep" else ""
        cfg = write(tmp_path, f"[pulse]\nkind = tabulated\nspectrum_file = {tmp_path / 'spec.txt'}\n"
                              f"[atom]\ngamma = {gamma}\n[medium]\nod0 = 1.0\n{sweep}")
        assert cli.main([command, cfg]) == 4
        assert "omegas must span a finite range" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["settle_time = 45", "samples_per_sigma = 50"])
    def test_fixed_grid_settings_exit_2(self, tmp_path, capsys, entry):
        # only cells_per_medium of the time-domain grid is settable
        cfg = write(tmp_path, BASE + f"\n[engine]\nkind = timedomain\n[grid]\n{entry}\n")
        assert cli.main(["run", cfg]) == 2
        assert f"unknown key {entry.split()[0]!r} in section [grid]" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # a flat table over +-1e6 linewidths needs panels about a linewidth wide to
        # resolve the line, more than the 2**20-panel cap admits (a Gaussian of sigma
        # 1e-4 failed so on the uniform grid, and converges on the sinh grid)
        np.savetxt(tmp_path / "flat.txt", np.column_stack([[-1e6, 1e6], [1.0, 1.0]]))
        cfg = write(tmp_path, f"[pulse]\nkind = tabulated\nspectrum_file = {tmp_path / 'flat.txt'}\n"
                              "[medium]\nod0 = 2.0\n")
        assert cli.main(["run", cfg]) == 3
        assert "quadrature not converged at 1048576 panels" in capsys.readouterr().err

    @pytest.mark.parametrize("detuning", [5e13, 1.8e14, 1e16, 1e20, 5e76])
    def test_far_detuned_window_matches_the_carrier(self, tmp_path, detuning):
        # past 7e13 to 8e13 the nodes of a uniform +-8 window rounded onto each other, and
        # the run was refused (exit 4). The map anchored at the window's near end takes its
        # u-span and the density from exact offsets, also where the window's ends round to
        # one float (1e20, 5e76). The line varies by at most 3e-13 of itself over the window,
        # and the symmetric spectrum averages its first order away, so P_S and tau_T are the
        # narrow-band closed forms at the carrier
        cfg = write(tmp_path, BASE.replace("sigma = 1.0", f"sigma = 1.0\ndetuning = {detuning}"))
        assert cli.main(["run", cfg]) == 0
        medium = make_uniform_medium(2.0)
        got = spectral.delay_report(GaussianPulse(1.0, detuning), medium)
        carrier = spectral.delay_report(NarrowBandPulse(detuning), medium)
        assert got.P_S == pytest.approx(carrier.P_S, rel=1e-12)
        assert got.tau_T == pytest.approx(carrier.tau_T, rel=1e-12)

    @pytest.mark.parametrize("detuning", [7e76, -1e77, 1e100])
    def test_window_past_the_group_delay_exits_4(self, tmp_path, capsys, detuning):
        # past |w| = 5.8e76 (1 + 4 w^2)^2 overflows and the group delay reads 0 over the
        # whole window, so tau_T's numerator is 0 and tau_S would print 1.0
        cfg = write(tmp_path, BASE.replace("sigma = 1.0", f"sigma = 1.0\ndetuning = {detuning}"))
        assert cli.main(["run", cfg]) == 4
        err = capsys.readouterr().err
        assert "precondition violation" in err and f"detuning = {detuning:.6g}" in err

    # the exit code and stderr prefix documented for each error class
    DOCUMENTED = {
        DwellTimeError: (3, "error: "),
        ConfigError: (2, "config error: "),
        NumericError: (3, "numeric error: "),
        InvalidParameterError: (4, "precondition violation: "),
    }

    @pytest.mark.parametrize("cls", [DwellTimeError, *DwellTimeError.__subclasses__()],
                             ids=lambda cls: cls.__name__)
    def test_each_error_class_has_its_exit_code(self, tmp_path, capsys, monkeypatch, cls):
        def builder():
            raise cls("boom")

        monkeypatch.setitem(cli.FIGURES, "fig2", builder)
        code, prefix = self.DOCUMENTED[cls]
        assert cli.main(["figure", "fig2", str(tmp_path / "x.csv")]) == code
        assert capsys.readouterr().err == f"{prefix}boom\n"

    def test_unknown_figure_exits_4(self, tmp_path, capsys):
        assert cli.main(["figure", "fig9", str(tmp_path / "x.csv")]) == 4
        assert "unknown figure" in capsys.readouterr().err

    def test_sweep_without_section_exits_2(self, tmp_path):
        assert cli.main(["sweep", write(tmp_path, BASE)]) == 2


# SHA-256 of the od_eff sweep CSV in test_od_eff_sweep_hits_targets
OD_EFF_SWEEP_SHA256 = "ca72926220c28a155800c70617b47f2aa4b5964e47a47826644b4533bb132efe"


class TestSweepCommand:
    def test_od0_sweep_rows_ordered(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write(tmp_path, BASE + f"""
[output]
path = {out}

[sweep]
axis = od0
start = 0.5
stop = 2.5
count = 5
spacing = linear
""")
        assert cli.main(["sweep", cfg]) == 0
        header, rows = read_rows(out)
        assert header[0] == "sweep_od0"
        axis = [float(r[0]) for r in rows]
        assert axis == sorted(axis) and len(axis) == 5
        # each row satisfies the average-dwell identity independently
        for r in rows:
            assert float(r[3]) == pytest.approx(float(r[2]), abs=1e-9)

    def test_od_eff_sweep_hits_targets(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write(tmp_path, BASE + f"""
[output]
path = {out}

[sweep]
axis = od_eff
start = 0.5
stop = 2.0
count = 3
spacing = linear
""")
        assert cli.main(["sweep", cfg]) == 0
        _, rows = read_rows(out)
        for r in rows:
            assert float(r[9]) == pytest.approx(float(r[0]), abs=1e-8)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == OD_EFF_SWEEP_SHA256

    def test_od_eff_sweep_past_float_range_exits_4(self, tmp_path, capsys):
        # od_eff 700 inverts; 800 is past the float range of P_T, refused without a warning
        cfg = write(tmp_path, BASE + f"""
[output]
path = {tmp_path / "sweep.csv"}

[sweep]
axis = od_eff
start = 700
stop = 800
count = 2
spacing = linear
""")
        assert cli.main(["sweep", cfg]) == 4
        err = capsys.readouterr().err
        assert "od_eff must lie in [0, 708.396], past which P_T underflows the normal float64 range; got 800" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("detuning", ["1e160", "1e300"])
    def test_od_eff_sweep_off_a_zero_line_exits_4(self, tmp_path, capsys, detuning):
        # the narrow-band line is 0 there, so no finite od0 reaches any od_eff
        cfg = write(tmp_path, f"""
[pulse]
kind = narrowband
detuning = {detuning}

[medium]
od0 = 2.0

[output]
path = {tmp_path / "sweep.csv"}

[sweep]
axis = od_eff
start = 0.5
stop = 2.0
count = 2
""")
        assert cli.main(["sweep", cfg]) == 4
        err = capsys.readouterr().err
        assert f"at detuning {float(detuning):.6g}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("engine", ["spectral", "both"])
    @pytest.mark.parametrize("axis, start, stop", [("od0", 0.0, 6.0), ("od_eff", 0.0, 4.0)])
    def test_depth_sweep_takes_one_pass(self, tmp_path, monkeypatch, axis, start, stop, engine):
        """An od0 or od_eff sweep takes one array inversion (od_eff only) and one quadrature
        pass for its spectral reports, and each row holds the bits of the per-point route: a
        scalar invert_od_eff, then delay_report; time-domain rows follow their point's."""
        pulse, length, cells = GaussianPulse(0.8, 0.3), 1.3, 50
        count = 5 if engine == "spectral" else 2
        calls = {"invert_od_eff": 0, "_core_pass": 0}
        for name in calls:
            def counted(*args, _fn=getattr(spectral, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectral, name, counted)
        rows = []  # as cmd_sweep hands them to write_csv
        monkeypatch.setattr(cli, "write_csv", lambda out_path, comments, header, r: rows.extend(r))
        cfg = write(tmp_path, f"""
[pulse]
kind = gaussian
sigma = {pulse.sigma}
detuning = {pulse.detuning}

[medium]
od0 = 1.0
length = {length}

[engine]
kind = {engine}

[grid]
cells_per_medium = {cells}

[sweep]
axis = {axis}
start = {start}
stop = {stop}
count = {count}
""")
        assert cli.main(["sweep", cfg]) == 0
        assert calls == {"invert_od_eff": int(axis == "od_eff"), "_core_pass": 1}
        monkeypatch.undo()
        expected = []
        for value in np.linspace(start, stop, count).tolist():
            m = make_uniform_medium(value if axis == "od0" else spectral.invert_od_eff(pulse, value), length)
            reports = [spectral.delay_report(pulse, m)]
            if engine == "both":
                grid = timedomain.GridSpec.build(pulse, m, cells_per_medium=cells)
                reports.append(timedomain.delay_report_td(pulse, m, grid))
            expected += [[value] + [rep.as_dict()[k] for k in cli.REPORT_FIELDS] for rep in reports]
        hexed = lambda rows: [[v if isinstance(v, str) else float.hex(float(v)) for v in r] for r in rows]
        assert hexed(rows) == hexed(expected)
        methods = ["analytic", "timedomain"] if engine == "both" else ["analytic"]
        assert [r[-1] for r in rows] == methods * count

    @pytest.mark.parametrize("axis, start, stop, count, length, failing", [
        ("od0", 1.0, 1e6, 7, 1.0, 1e5),  # P_T underflows from the sixth point on
        # the first depth is past float range, and the array inversion fails first on the last target
        ("od_eff", 0.5, 800.0, 2, 1e-310, 0.5),
        ("od0", 0.5, 2.0, 2, 1e-310, 0.5),  # every depth is past float range
    ])
    def test_failing_depth_sweep_gives_the_loops_error(self, tmp_path, capsys, axis, start, stop, count, length,
                                                       failing):
        """A sweep whose array pass raises exits as the point-by-point loop does, with the
        first failing point's message, and writes no CSV."""
        out = tmp_path / "sweep.csv"
        cfg = write(tmp_path, f"""
[pulse]
kind = gaussian
sigma = 3.0

[medium]
od0 = 1.0
length = {length!r}

[output]
path = {out}

[sweep]
axis = {axis}
start = {start!r}
stop = {stop!r}
count = {count}
spacing = log
""")
        pulse = GaussianPulse(3.0, 0.0)
        for value in np.geomspace(start, stop, count).tolist():
            try:
                od0 = value if axis == "od0" else spectral.invert_od_eff(pulse, value)
                spectral.delay_report(pulse, make_uniform_medium(od0, length))
            except InvalidParameterError as exc:
                expected = f"precondition violation: {exc}\n"
                break
        assert value == pytest.approx(failing)
        assert cli.main(["sweep", cfg]) == 4
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_od0_axis_over_profile_writes_nothing(self, tmp_path, capsys):
        z = np.linspace(0, 1, 51)
        prof = tmp_path / "prof.txt"
        np.savetxt(prof, np.column_stack([z, np.full(51, 0.7)]))
        out = tmp_path / "sweep.csv"
        cfg = write(tmp_path, f"""
[pulse]
kind = gaussian
sigma = 1.0

[medium]
profile_file = {prof}

[output]
path = {out}

[sweep]
axis = od0
start = 0.5
stop = 2.5
count = 3
""")
        assert cli.main(["sweep", cfg]) == 2
        assert "uniform medium" in capsys.readouterr().err
        assert not out.exists()


# SHA-256 of each canned figure CSV; the README promises byte-identical output. figG1's
# moved on the sinh grid in one digit, to the long-double reference's (test_reference)
FIGURE_SHA256 = {
    "fig2": "091dfbdb643048c2bdff1ed7dc99893593d4fb36ae142d518d8b7fbc3071dc58",
    "fig3a": "5d729d72c366c9c22d10962f230a2e3b6f75666b8a630b83e2d10b46daf8e534",
    "fig3b": "eb48e240443e95c4216482958c8db25f7afe9c9391db99cdd9b981fef011b8ba",
    "fig4": "2ce97a82ae1280e509ff159d36fe3673bfcd814554cd5fde6f46a9551cf77271",
    "figF1": "bbb84173c821ebc962bf850a0c3699d2e7c66003b906ab633f0512911e550ddd",
    "figG1": "af12723a4ce872461eabd07caa6b0af08a9239cfe6d61bb150888700c43d3cca",
}


class TestFigureCommand:
    @pytest.mark.parametrize("name", sorted(FIGURE_SHA256))
    def test_figure_bytes_pinned(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["figure", name, str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_SHA256[name]

    def test_fig3a_dataset(self, tmp_path):
        out = tmp_path / "fig3a.csv"
        assert cli.main(["figure", "fig3a", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[0] == "detuning"
        assert len(rows) == 241
        mid = rows[120]  # detuning = 0 row: t_g = -od0 per column
        for col, od0 in zip(mid[1:], cli.FIG3_ODS):
            assert float(col) == pytest.approx(-od0, rel=1e-12)

    @pytest.mark.parametrize("name", ["fig3a", "fig3b"])
    def test_fig3_rows_keep_the_per_detuning_bits(self, name):
        """One array evaluation over the detuning grid gives each row the bits of the calls
        per detuning: group_delay, or the narrow-band tau_S of _core_pass."""
        _, _, rows = cli.FIGURES[name]()
        ods = np.array(cli.FIG3_ODS)
        for row in rows:
            d = row[0]
            expected = (spectral.group_delay(d, ods).tolist() if name == "fig3a" else
                        [r.tau_S for r, _ in spectral._core_pass(NarrowBandPulse(d), cli.FIG3_ODS)])
            assert [float.hex(v) for v in row] == [float.hex(v) for v in [d, *expected]]
        assert [row[0] for row in rows] == np.linspace(-3.0, 3.0, 241).tolist()

    @pytest.mark.parametrize("name", ["figF1", "figG1"])
    def test_asymptotic_figure_takes_one_core_pass(self, monkeypatch, name):
        """Outside the od_eff inversion, the 60 rows take one quadrature pass over
        their depth axis, and each row holds the bits of the per-row route: a scalar
        invert_od_eff, then delay_report, from which asymptotics reads od_eff. Every
        pass, the inversion's Newton steps and replayed evaluations included, runs the
        one doubling loop; the inversion takes at most 10 of them per row."""
        converge, invert = spectral._converge, spectral.invert_od_eff
        passes = {"inversion": 0, "other": 0}
        inverting = []

        def counted_converge(*args, **kwargs):
            passes["inversion" if inverting else "other"] += 1
            return converge(*args, **kwargs)

        def counted_invert(*args, **kwargs):
            inverting.append(True)
            try:
                return invert(*args, **kwargs)
            finally:
                inverting.pop()

        monkeypatch.setattr(spectral, "_converge", counted_converge)
        monkeypatch.setattr(spectral, "invert_od_eff", counted_invert)
        _, _, rows = cli.FIGURES[name]()
        assert len(rows) == 60
        assert passes["other"] == 1
        assert 0 < passes["inversion"] <= 10 * 60
        monkeypatch.undo()
        pulse = GaussianPulse(0.05, 0.0)
        for row in rows:
            m = make_uniform_medium(spectral.invert_od_eff(pulse, row[0]))
            rep = spectral.delay_report(pulse, m)
            asym = spectral.asymptotics(pulse, m, rep.od_eff)
            exact = [rep.tau_S, asym.tau_s_low_od, asym.tau_s_high_od] if name == "figF1" else \
                [rep.tau_T, asym.tau_t_low_od, asym.tau_t_high_od]
            assert [float.hex(float(v)) for v in row] == [float.hex(float(v)) for v in [row[0], m.od0] + exact]

    def test_validate_underresolved_grid_fails(self, capsys, monkeypatch):
        # a loose stopping rule from an under-resolved start of the sinh grid stops at 32
        # panels, whose doubling changes a row by 8.1e-7
        monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-3)
        monkeypatch.setattr(spectral, "N_START_MAPPED", 16)
        assert cli.main(["validate"]) == 1
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("grid_convergence"))
        assert line.split("  [")[0].endswith("FAIL")


# --- generated configs ------------------------------------------------------

JUNK = st.sampled_from(["", "abc", "1e", "--1", "1,5", "5%", "%(x)s", "0x10", "None", "1 2", "[x]"])
EXTREME = st.one_of(
    st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([1.0, -1.0]), st.integers(-300, 300)),
    st.sampled_from([0.0, 5e-324, 1e200, -1e200, math.inf, -math.inf, math.nan]),
).map(repr)
BAD_FILES = st.sampled_from(["one_col.txt", "empty.txt", "junk.txt", "backwards.txt", "absent.txt"])

# (section, key) -> (in-range values, out-of-range or malformed values)
FUZZ_KEYS = {
    ("pulse", "sigma"): (st.floats(0.05, 20.0).map(repr), EXTREME | JUNK),
    ("pulse", "detuning"): (st.floats(-3.0, 3.0).map(repr), EXTREME | JUNK),
    ("pulse", "spectrum_file"): (st.sampled_from(["spec2.txt", "spec3.txt"]), BAD_FILES),
    ("medium", "od0"): (st.floats(0.0, 20.0).map(repr), EXTREME | JUNK),
    ("medium", "length"): (st.floats(0.5, 2.0).map(repr), EXTREME | JUNK),
    ("medium", "profile_file"): (st.just("ramp.txt"), BAD_FILES),
    ("atom", "gamma"): (st.floats(0.5, 2.0).map(repr), EXTREME | JUNK),
    ("output", "path"): (st.just("out.csv"), st.sampled_from([".", "absent/out.csv"])),
}
FILE_KEYS = ("spectrum_file", "profile_file", "path")


@st.composite
def fuzz_configs(draw):
    """Entries of a config: a valid case with up to two keys missing or replaced
    by extreme floats or junk tokens. The pulse kind is junk one draw in ten: a junk
    kind exits 2 before any other key is read."""
    kind = draw(JUNK if draw(st.integers(0, 9)) == 0 else st.sampled_from(["gaussian", "narrowband", "tabulated"]))
    keys = [k for k in FUZZ_KEYS if k[1] not in ("spectrum_file", "profile_file", "od0")]
    keys.append(("pulse", "spectrum_file") if kind == "tabulated" else ("pulse", "sigma"))
    keys.append(draw(st.sampled_from([("medium", "od0"), ("medium", "profile_file")])))
    broken = draw(st.sets(st.sampled_from(keys), max_size=2))
    entries = {("pulse", "kind"): kind}
    for key in keys:
        good, bad = FUZZ_KEYS[key]
        entries[key] = draw(st.none() | bad) if key in broken else draw(good)
    return entries


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    w = np.linspace(-6, 6, 201)
    np.savetxt(d / "spec2.txt", np.column_stack([w, np.exp(-(w**2))]))
    np.savetxt(d / "spec3.txt", np.column_stack([w, np.exp(-(w**2)), 0.3 * w]))
    z = np.linspace(0, 1, 21)
    np.savetxt(d / "ramp.txt", np.column_stack([z, 1.5 * z]))
    np.savetxt(d / "one_col.txt", w)
    (d / "empty.txt").write_text("")
    (d / "junk.txt").write_text("a b\nc d\n")
    np.savetxt(d / "backwards.txt", np.column_stack([w[::-1], np.ones_like(w)]))
    return d


@given(fuzz_configs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_generated_configs_exit_with_a_code(fuzz_dir, entries):
    """Any config over the pulse/medium/atom/output keys, with keys
    missing, junk tokens, non-finite floats and floats from 1e-300 to 1e300,
    gives a report or a typed error: exit 0, 2, 3 or 4, never a traceback.
    The engine is the default spectral one, since a single time-domain config
    may legitimately reserve up to 2 GB."""
    sections = {}
    for (section, key), value in entries.items():
        if value is not None:
            if key in FILE_KEYS:
                value = os.path.join(fuzz_dir, value)
            sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
    cfg = fuzz_dir / "case.ini"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg)]) in (0, 2, 3, 4)


SWEEP_BOUNDS = st.floats(1e-3, 20.0) | EXTREME.map(float)


@st.composite
def sweep_configs(draw):
    """Entries of a sweep config: a fuzz_configs case of a known pulse kind over a
    uniform medium, and an od_eff axis of 2 or 3 points whose ends are in range or
    extreme floats. Junk kinds and profile files are left to the run test, so that
    most cases reach the inversion."""
    kinds = ("gaussian", "narrowband", "tabulated")
    entries = draw(fuzz_configs().filter(lambda e: e[("pulse", "kind")] in kinds and ("medium", "od0") in e))
    start, stop = sorted(draw(st.lists(SWEEP_BOUNDS, min_size=2, max_size=2, unique=True)))
    sweep = {"axis": "od_eff", "start": repr(start), "stop": repr(stop),
             "count": draw(st.sampled_from(["2", "3"])), "spacing": draw(st.sampled_from(["linear", "log"]))}
    return entries | {("sweep", key): value for key, value in sweep.items()}


@given(sweep_configs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_generated_sweep_configs_exit_with_a_code(fuzz_dir, entries):
    """As test_generated_configs_exit_with_a_code, through `sweep`."""
    sections = {}
    for (section, key), value in entries.items():
        if value is not None:
            if key in FILE_KEYS:
                value = os.path.join(fuzz_dir, value)
            sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
    cfg = fuzz_dir / "sweep.ini"
    cfg.write_text(text)
    assert cli.main(["sweep", str(cfg)]) in (0, 2, 3, 4)
