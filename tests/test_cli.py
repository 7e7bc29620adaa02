"""Config intake, CSV output, sweep machinery, exit codes."""

import hashlib
import math

import numpy as np
import pytest

from dwelltime import cli
from dwelltime.domain import GaussianPulse, NarrowBandPulse
from dwelltime.errors import ConfigError

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
        assert sc.grid_n is None
        assert sc.out_path is None

    def test_tabulated_pulse_from_file(self, tmp_path):
        w = np.linspace(-6, 6, 801)
        amp = np.exp(-(w**2))
        spec = tmp_path / "spec.csv"
        np.savetxt(spec, np.column_stack([w, amp]), delimiter=",")
        text = f"[pulse]\nkind = tabulated\nspectrum_file = {spec}\n[medium]\nod0 = 1.0\n"
        sc = cli.scenario_from_config(cli.load_config(write(tmp_path, text)))
        assert sc.pulse.omegas.size == 801

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

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE + "\nbroken line without section\n")
        assert cli.main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.ini")]) == 2

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

    def test_timedomain_grid_too_large_exits_4(self, tmp_path, capsys):
        # refused by GridSpec before any field or history is allocated
        cfg = write(tmp_path, "[pulse]\nkind = gaussian\nsigma = 0.01\n"
                              "[medium]\nod0 = 2.0\n[engine]\nkind = timedomain\n")
        assert cli.main(["run", cfg]) == 4
        assert "beta history" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, tmp_path):
        # a tolerance below machine epsilon is refused by converge_trapezoid
        cfg = write(tmp_path, BASE + "\n[quadrature]\ntol = 1e-30\n")
        assert cli.main(["run", cfg]) == 3

    def test_unknown_figure_exits_4(self, tmp_path, capsys):
        assert cli.main(["figure", "fig9", str(tmp_path / "x.csv")]) == 4
        assert "unknown figure" in capsys.readouterr().err

    def test_sweep_without_section_exits_2(self, tmp_path):
        assert cli.main(["sweep", write(tmp_path, BASE)]) == 2


class TestSweepCommand:
    def test_od0_sweep_rows_ordered(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DWELLTIME_THREADS", "2")
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

    def test_thread_env_validated(self, monkeypatch):
        monkeypatch.setenv("DWELLTIME_THREADS", "zero")
        with pytest.raises(ConfigError):
            cli._worker_count()
        monkeypatch.setenv("DWELLTIME_THREADS", "0")
        with pytest.raises(ConfigError):
            cli._worker_count()


# SHA-256 of each canned figure CSV; the README promises byte-identical output
FIGURE_SHA256 = {
    "fig2": "091dfbdb643048c2bdff1ed7dc99893593d4fb36ae142d518d8b7fbc3071dc58",
    "fig3a": "5d729d72c366c9c22d10962f230a2e3b6f75666b8a630b83e2d10b46daf8e534",
    "fig3b": "eb48e240443e95c4216482958c8db25f7afe9c9391db99cdd9b981fef011b8ba",
    "fig4": "2ce97a82ae1280e509ff159d36fe3673bfcd814554cd5fde6f46a9551cf77271",
    "figF1": "bbb84173c821ebc962bf850a0c3699d2e7c66003b906ab633f0512911e550ddd",
    "figG1": "db9dbf8decb797b73492bc929a312cf563096dd9db039a6fce9310a6f186addd",
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

    def test_validate_underresolved_grid_fails(self, capsys):
        assert cli.main(["validate", "--grid-n", "256"]) == 1
        out = capsys.readouterr().out
        assert "grid_convergence" in out and "FAIL" in out
