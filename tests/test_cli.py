import csv
import dataclasses
import inspect
import itertools
import json
import warnings

import numpy as np
import pytest

from qbrach import brach, catalog, cli, matcore


def run_cli(args):
    return cli.main(args)


class TestListScenarios:
    def test_lists_all(self, capsys):
        assert run_cli(["list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        for name in ("su2", "so3", "su3-elliptic", "su3-geodesic", "frenet",
                     "su4-heisenberg", "dirac", "sun-family",
                     "su3-partitions"):
            assert name in out


class TestExitCodes:
    def test_unknown_scenario(self, capsys):
        assert run_cli(["run", "--scenario", "nope"]) == 64

    def test_bad_params(self, capsys):
        assert run_cli(["run", "--scenario", "su2",
                        "--param", "bogus=1"]) == 65

    def test_bad_grid(self, capsys):
        for argv in (["su2", "--t-max", "0.0001", "--dt", "0.1"],
                     ["su3-partitions", "--dt", "0"],
                     # shorter than one step of the census's default dt
                     ["su3-partitions", "--t-max", "4e-4"]):
            assert run_cli(["run", "--scenario", *argv]) == 65, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert err.startswith("bad parameters: "), argv
            assert err.count("\n") == 1, argv

    def test_malformed_param(self, capsys):
        assert run_cli(["run", "--scenario", "su2", "--param", "k"]) == 65

    def test_repeated_param_key_rejected(self, monkeypatch, capsys):
        # the last value once won silently: n=4 then n=5 ran n=5
        monkeypatch.setattr(catalog, "family_sun", _must_not_run)
        assert run_cli(["run", "--scenario", "sun-family", "--param", "n=4",
                        "--param", "n=5", "--t-max", "0.01"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert "bad parameters: --param n is given twice" in err

    @pytest.mark.parametrize("scenario, param", [
        ("sun-family", "n=abc"), ("sun-family", "n=4.7"),
        ("su2", "eps0=abc"), ("so3", "eps=x"), ("su3-elliptic", "Delta0=1"),
        ("su2", "Omega=1j")])
    def test_malformed_param_value(self, scenario, param, capsys):
        assert run_cli(["run", "--scenario", scenario, "--param", param,
                        "--t-max", "0.01"]) == 65
        assert "bad parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, param", [
        ("so3", "eps=nan"), ("so3", "eps=inf"), ("so3", "n_z=-inf"),
        ("so3", "eps=1e200"), ("su2", "eps0=1e200"), ("su2", "Omega=1e200"),
        ("frenet", "C=1e300"), ("frenet", "A=1e200"), ("frenet", "N=1e200"),
        ("dirac", "xi1=nan"), ("su4-heisenberg", "lambda_x=1e200"),
        ("su3-geodesic", "eps1_0=1e300")])
    def test_out_of_range_param_rejected_before_any_row(self, scenario,
                                                        param, capsys):
        # each of these once wrote NaN or inf rows, or died with an
        # OverflowError traceback
        assert run_cli(["run", "--scenario", scenario, "--param", param,
                        "--t-max", "0.1", "--dt", "1e-2"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert "bad parameters" in err

    @pytest.mark.parametrize("param", ["R=1", "theta=0.5"])
    def test_geodesic_derived_params_rejected(self, param, capsys):
        # R was an alias that once overrode eps1_0 silently, and theta is
        # derived from eps1_0 and kappa: neither is a parameter
        assert run_cli(["run", "--scenario", "su3-geodesic", "--param",
                        param, "--t-max", "0.1"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert "bad parameters" in err

    def test_frenet_mirrored_branch_rejected(self, capsys):
        # K^2 + T^2 is constant here too, but the closed form is not: this
        # run once exited 0 and wrote wrong states
        assert run_cli(["run", "--scenario", "frenet", "--param", "A=-1",
                        "--param", "C=0.5", "--t-max", "0.1"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert "bad parameters" in err

    @pytest.mark.parametrize("scenario", sorted(catalog.SCENARIO_BUILDERS))
    def test_extreme_params_rejected_or_finite(self, scenario, capsys):
        # every numeric parameter at a non-finite value exits 65 before its
        # builder computes; at an overflowing value it either exits 65 with
        # no row or writes finite rows only.  No exit 65 comes after a
        # numpy warning
        builder = catalog.SCENARIO_BUILDERS[scenario]
        names = [p for p in inspect.signature(builder).parameters
                 if p != "seed"]
        for name, value in itertools.product(
                names, ("nan", "inf", "-inf", "1e200", "-1e300")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli(["run", "--scenario", scenario, "--param",
                                f"{name}={value}", "--t-max", "0.1",
                                "--dt", "1e-2"])
            out = capsys.readouterr().out
            if value in ("nan", "inf", "-inf"):
                assert code == 65, (name, value)
            assert code in (0, 65), (name, value)
            if code == 65:
                assert (out, caught) == ("", []), (name, value)
            else:
                rows = np.array([line.split(",")
                                 for line in out.splitlines()[1:]],
                                dtype=float)
                assert rows.size and np.all(np.isfinite(rows)), (name, value)

    @pytest.mark.parametrize("value", ["nan", "-inf", "nanj", "1+infj",
                                       "inf-1j"])
    def test_non_finite_param_rejected_before_builder(self, value,
                                                      monkeypatch, capsys):
        # a NaN or infinite real or imaginary part is named and rejected
        # before any builder runs
        monkeypatch.setitem(catalog.SCENARIO_BUILDERS, "su3-geodesic",
                            _must_not_run)
        assert run_cli(["run", "--scenario", "su3-geodesic", "--param",
                        f"kappa={value}", "--t-max", "0.1"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert "bad parameters: kappa is not finite" in err

    def test_overflow_names_the_param(self, capsys):
        assert run_cli(["run", "--scenario", "so3", "--param", "n_z=0.5",
                        "--param", "eps=1e200", "--t-max", "0.1"]) == 65
        err = capsys.readouterr().err
        assert "bad parameters: float overflow with n_z=0.5, eps=1e200" in err


class TestUsageErrors:
    """A command line argparse rejects exits 65 with its usage line, never
    2, the status of a drift abort."""

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["run"], ["run", "--scenario"],
        ["run", "--scenario", "su2", "--t-max", "abc"],
        ["run", "--scenario", "su3-partitions", "--dt", "abc"],
        ["run", "--scenario", "su2", "--format", "xml"],
        ["run", "--scenario", "su2", "--bogus"],
        ["verify", "--seed", "x"], ["verify", "--suite", "nope"],
        ["verify", "--format", "csv"]])
    def test_rejection_exits_65(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == cli.EXIT_BAD_PARAMS == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: qbrach")
        assert err.splitlines()[-1].startswith("qbrach")
        assert ": error: " in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["--help"], ["--version"], ["run", "--help"], ["verify", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


def _must_not_run(*args, **kwargs):
    raise AssertionError("run started work on a rejected grid")


class TestRunGrid:
    @pytest.mark.parametrize("flag", ["--t-max", "--dt"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_rejected(self, flag, value, capsys):
        assert run_cli(["run", "--scenario", "su2", flag, value]) == 65
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, attr", [
        ("su2", None), ("sun-family", "family_sun"),
        ("su3-partitions", "su3_partitions")])
    def test_step_cap_checked_before_work(self, scenario, attr, monkeypatch,
                                          capsys):
        if attr is None:
            monkeypatch.setitem(catalog.SCENARIO_BUILDERS, scenario,
                                _must_not_run)
        else:
            monkeypatch.setattr(catalog, attr, _must_not_run)
        t_max = 2 * matcore.MAX_STEPS * 1e-3
        assert run_cli(["run", "--scenario", scenario,
                        "--t-max", repr(t_max), "--dt", "1e-3"]) == 65
        assert str(matcore.MAX_STEPS) in capsys.readouterr().err


    def test_taylor_step_cap_exits_65(self, monkeypatch, capsys):
        # H0 and F0 scaled by 1e7 take steps 1e7 times shorter: over the
        # step cap to t = 1, rejected before the first row
        family_sun = catalog.family_sun

        def scaled(*args, **kwargs):
            fam = family_sun(*args, **kwargs)
            return dataclasses.replace(fam, H0=1e7 * fam.H0, F0=1e7 * fam.F0)

        monkeypatch.setattr(catalog, "family_sun", scaled)
        assert run_cli(["run", "--scenario", "sun-family", "--param", "n=4",
                        "--param", "kind=tridiagonal"]) == 65
        out, err = capsys.readouterr()
        assert out == "" and str(matcore.MAX_STEPS) in err


def _no_work_before_the_out_check(*args, **kwargs):
    raise AssertionError("started work before checking --out")


class TestOutPath:
    ARGV = {"su2": ["run", "--scenario", "su2"],
            "su3-partitions": ["run", "--scenario", "su3-partitions"],
            "verify": ["verify", "--suite", "gates"]}

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["su2", "su3-partitions", "verify"])
    def test_unwritable_out_rejected_before_work(self, command, where,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        # once a traceback and exit 1, for su3-partitions and verify only
        # after all the work was done
        if command == "su2":
            monkeypatch.setitem(catalog.SCENARIO_BUILDERS, "su2",
                                _no_work_before_the_out_check)
        elif command == "su3-partitions":
            monkeypatch.setattr(catalog, "su3_partitions",
                                _no_work_before_the_out_check)
        else:
            monkeypatch.setattr(cli.report, "run_suite",
                                _no_work_before_the_out_check)
        out = (tmp_path / "missing" / "out" if where == "missing-directory"
               else tmp_path)
        assert run_cli([*self.ARGV[command], "--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert "bad parameters" in err and str(out) in err
        assert list(tmp_path.iterdir()) == []


class TestCensusContract:
    def test_default_grid_is_the_census_grid(self, monkeypatch, tmp_path):
        seen = {}

        def record(**kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr(catalog, "su3_partitions", record)
        assert run_cli(["run", "--scenario", "su3-partitions",
                        "--out", str(tmp_path / "c.csv")]) == 0
        assert seen == {"t_max": 50.0, "dt": 1e-3, "seed": 42}

    def test_param_rejected(self, monkeypatch):
        monkeypatch.setattr(catalog, "su3_partitions", _must_not_run)
        assert run_cli(["run", "--scenario", "su3-partitions",
                        "--param", "bogus=1", "--t-max", "0.01"]) == 65

    def test_csv_rows_equal_json_rows(self, tmp_path):
        # on this grid pair 2 is periodic and pair 3 is not, so the period
        # field is written both as a number and empty
        argv = ["run", "--scenario", "su3-partitions", "--t-max", "12",
                "--dt", "2e-3"]
        assert run_cli([*argv, "--out", str(tmp_path / "c.csv")]) == 0
        assert run_cli([*argv, "--format", "json",
                        "--out", str(tmp_path / "c.json")]) == 0
        header, *lines = (tmp_path / "c.csv").read_text().splitlines()
        data = json.loads((tmp_path / "c.json").read_text())
        assert header == "pair,description,classification,period," \
            "max_excursion"
        assert len(lines) == len(data) == 4
        assert [d["classification"] for d in data] == \
            ["constant", "periodic", "neither", "constant"]
        for line, d, row in zip(lines, data, csv.reader(lines)):
            assert line.startswith(f'{d["pair"]},"{d["description"]}",')
            pair, desc, cls, period, excursion = row
            assert (int(pair), desc, cls) == \
                (d["pair"], d["description"], d["classification"])
            if d["period"] is None:
                assert period == ""
            else:
                assert float(period) == d["period"]
            assert float(excursion) == d["max_excursion"]


class TestRunCsv:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run_cli(["run", "--scenario", "su2", "--param", "k=1",
                        "--param", "Omega=0.5", "--t-max", "1.0",
                        "--dt", "1e-2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        scn = catalog.scenario_su2(1.0, 0.5)
        assert len(rows) == 101
        for row in rows[::17]:
            t = float(row["t"])
            psi = scn.state_at(t)
            for j in range(2):
                assert float(row[f"Re c_{j+1}"]) == pytest.approx(
                    psi[j].real, abs=1e-12)
                assert float(row[f"Im c_{j+1}"]) == pytest.approx(
                    psi[j].imag, abs=1e-12)
            assert float(row["norm"]) == pytest.approx(1.0, abs=1e-12)

    def test_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(["run", "--scenario", "su2", "--t-max", "0.1",
                 "--dt", "0.05", "--out", str(out)])
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["t", "Re c_1", "Im c_1", "Re c_2", "Im c_2",
                          "trH2", "trHF", "norm", "fidelity_to_target"]

    def test_geodesic_final_fidelity(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli(["run", "--scenario", "su3-geodesic",
                        "--param", "eps1_0=1", "--param", "kappa=0.57735",
                        "--t-max", "2.7207", "--dt", "1e-3",
                        "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[-1]) >= 1 - 1e-6

    def test_frenet_off_its_default_B(self, tmp_path):
        # A and C once stayed fixed at 1 and -0.5, so B alone broke the
        # circle constraint A = N, C = -B and exited 65
        out = tmp_path / "f.csv"
        assert run_cli(["run", "--scenario", "frenet", "--param", "B=0.3",
                        "--t-max", "0.1", "--dt", "0.05",
                        "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        want = scalar_rows(catalog.scenario_frenet(A=1.0, B=0.3, C=-0.3),
                           0.1, 0.05)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_family_run(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli(["run", "--scenario", "sun-family",
                        "--param", "n=3", "--param", "kind=tridiagonal",
                        "--t-max", "0.2", "--dt", "1e-3",
                        "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[-1] == "norm"


def scalar_rows(scn, t_max, dt):
    """The rows of a closed-form run, one scalar call per time function
    and row."""
    rows = []
    for i in range(max(int(round(t_max / dt)), 1) + 1):
        t = min(i * dt, t_max)
        H, psi = scn.hamiltonian_at(t), scn.state_at(t)
        row = [t, *psi.view(float), np.trace(H @ H).real,
               np.trace(H @ scn.constraint_at(t)).real, np.linalg.norm(psi)]
        if scn.target is not None:
            row.append(abs(np.vdot(scn.target, psi)) ** 2)
        rows.append(row)
    return np.array(rows)


class TestClosedFormBlocks:
    """run samples a closed form SAMPLE_BLOCK grid times per call."""

    # 601 rows: two full blocks and a part of one; 6,001 rows: 24 blocks
    @pytest.mark.parametrize("name,t_max", [
        *((name, 0.06) for name in sorted(catalog.SCENARIO_BUILDERS)),
        ("su3-geodesic", 0.6)])
    def test_run_longer_than_one_block(self, name, t_max, tmp_path):
        dt = 1e-4
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--scenario", name, "--t-max", str(t_max),
                        "--dt", str(dt), "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        assert len(got) == round(t_max / dt) + 1 > cli.SAMPLE_BLOCK
        want = scalar_rows(catalog.SCENARIO_BUILDERS[name](), t_max, dt)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("t_max", [0.1234, 0.1236])
    def test_last_row_at_t_max_off_the_grid(self, t_max, tmp_path):
        # round(t_max / dt) steps: 123 stop short of t_max, 124 clip to it
        dt = 1e-3
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--scenario", "su3-geodesic", "--t-max",
                        str(t_max), "--dt", str(dt), "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        n = int(round(t_max / dt))
        assert len(got) == n + 1
        assert got[-1, 0] == min(n * dt, t_max)
        want = scalar_rows(catalog.scenario_su3_geodesic(), t_max, dt)
        assert np.max(np.abs(got - want)) <= 1e-15


class TestDriftAbort:
    ARGS = ["run", "--scenario", "sun-family", "--param", "n=4",
            "--param", "kind=tridiagonal", "--t-max", "10000", "--dt", "10"]

    @pytest.fixture(autouse=True)
    def overflowing_steps(self, monkeypatch):
        # Taylor steps of dt whose state grows 1e100-fold a step: the run
        # drifts at step 1 and overflows after it
        def step(terms, z):
            c = np.zeros((brach.TAYLOR_ORDER + 1, len(z)))
            c[0] = 1e100 * z
            return c, 10.0

        monkeypatch.setattr(brach, "_taylor_step", step)

    def test_out_file_not_left_behind(self, tmp_path, capsys):
        out = tmp_path / "X"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli(self.ARGS + ["--out", str(out)]) == 2
        assert "drift abort" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_an_existing_out_file(self, tmp_path, capsys):
        out = tmp_path / "X"
        out.write_text("old\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli(self.ARGS + ["--out", str(out)]) == 2
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_stdout_keeps_rows_before_the_abort(self, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli(self.ARGS) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("t,Re c_1")
        assert len(lines) >= 2 and lines[1].startswith("0,")


class TestCensusDriftAbort:
    @pytest.mark.parametrize("dt", ["1", "10"])
    def test_diverging_census_exits_2(self, dt, tmp_path, capsys):
        # on the default 50-unit grid these once classified diverged paths
        # and exited 0: at dt 10 pair 2 reported an excursion of 9.85e7,
        # although |H - H0| <= 2 |h0| while Tr H^2 = |h|^2 is conserved
        out = tmp_path / "census.json"
        assert run_cli(["run", "--scenario", "su3-partitions", "--dt", dt,
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("drift abort: census pair 2: Tr H^2 drift")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestRunJson:
    def test_json_format(self, tmp_path):
        out = tmp_path / "t.json"
        run_cli(["run", "--scenario", "so3", "--t-max", "0.2",
                 "--dt", "0.1", "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["columns"][0] == "t"
        assert len(data["rows"]) == 3

    def test_json_rows_equal_csv_rows(self, tmp_path):
        argv = ["run", "--scenario", "su3-elliptic", "--t-max", "0.5",
                "--dt", "0.01"]
        assert run_cli([*argv, "--out", str(tmp_path / "t.csv")]) == 0
        assert run_cli([*argv, "--format", "json",
                        "--out", str(tmp_path / "t.json")]) == 0
        header, *lines = (tmp_path / "t.csv").read_text().splitlines()
        data = json.loads((tmp_path / "t.json").read_text())
        assert data["columns"] == header.split(",")
        assert data["rows"] == [[float(v) for v in line.split(",")]
                                for line in lines]

    def test_json_bytes_equal_one_dump(self, tmp_path):
        # rows are streamed; the file must read as one json.dumps of them
        out = tmp_path / "t.json"
        assert run_cli(["run", "--scenario", "su2", "--t-max", "0.03",
                        "--dt", "0.01", "--format", "json",
                        "--out", str(out)]) == 0
        header, rows = cli._scenario_rows(catalog.scenario_su2(), 0.03, 0.01)
        expected = json.dumps({"columns": header, "rows": list(rows)},
                              indent=2) + "\n"
        assert out.read_text() == expected

    def test_partitions_json(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli(["run", "--scenario", "su3-partitions",
                        "--t-max", "2", "--dt", "5e-3",
                        "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert [d["pair"] for d in data] == [1, 2, 3, 4]
        # two time units are shorter than every recurrence period
        assert {d["classification"] for d in data} <= {"constant", "neither"}


class TestVerify:
    def test_gates_suite_json(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["verify", "--suite", "gates", "--format", "json",
                        "--out", str(out)]) == 0
        env = json.loads(out.read_text())
        assert env["suite"] == "gates"
        assert {r["status"] for r in env["records"]} <= {
            "pass", "fail", "reported-only"}
        assert not any(r["status"] == "fail" for r in env["records"])

    def test_text_format(self, capsys):
        assert run_cli(["verify", "--suite", "gates"]) == 0
        out = capsys.readouterr().out
        assert "reported-only" in out and "0 failures" in out

    def test_seed_reaches_the_suites(self, tmp_path):
        residual = {}
        for seed in (42, 7):
            out = tmp_path / f"r{seed}.json"
            assert run_cli(["verify", "--suite", "special", "--seed",
                            str(seed), "--format", "json",
                            "--out", str(out)]) == 0
            (residual[seed],) = [
                r["residual"] for r in json.loads(out.read_text())["records"]
                if r["id"] == "chebyshev-trig-definition"]
        assert residual[42] == pytest.approx(1.22e-14, rel=1e-2)
        assert residual[7] == pytest.approx(2.00e-14, rel=1e-2)
        assert residual[42] != residual[7]

    @pytest.mark.parametrize("suite", ["all", "gates"])
    def test_negative_seed_rejected_before_any_suite(self, suite,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(cli.report, "SUITES", {})
        assert run_cli(["verify", "--suite", suite, "--seed", "-1"]) == 65
        assert "bad parameters" in capsys.readouterr().err

    def test_run_rejects_a_negative_seed(self, capsys):
        # a closed form ignores --seed, but -1 is still not a seed
        for scenario in ("su2", "sun-family", "su3-partitions"):
            assert run_cli(["run", "--scenario", scenario, "--seed", "-1",
                            "--t-max", "0.01"]) == 65, scenario
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("bad parameters: seed must be non-negative, "
                           "got -1\n")
