"""Command-line front end: flag parsing, plan mapping, exit codes."""

import json

import pytest

from opfkit import cli, errors
from opfkit.matpower import parse_case

NET = "tests/data/case9.m"
CTG = "tests/data/ctgc.cont"
SCEN = "tests/data/scenarios.csv"
PLOAD = "tests/data/load_p.csv"
QLOAD = "tests/data/load_q.csv"


class TestParseArgs:
    """Flag-to-CliConfig mapping for each subcommand."""

    def test_opflow_defaults(self):
        config = cli.parse_args(["opflow", "--netfile", NET])
        assert config.subcommand == "opflow"
        assert config.netfile == NET
        assert config.tol == 1e-6
        assert config.maxiter == 200
        assert config.mode == "corrective"
        assert config.structure == "monolithic"
        assert config.outdir is None
        assert config.nc is None and config.ns is None and config.nt is None

    def test_scopflow_full_flag_set(self):
        config = cli.parse_args([
            "scopflow", "--netfile", NET, "--ctgcfile", CTG,
            "--nc", "3", "--mode", "preventive", "--structure", "empar",
            "--workers", "2", "--empar-anchor", "--nt", "2", "--dt", "10",
            "--tol", "1e-8", "--maxiter", "50", "--outdir", "sout"])
        assert config.ctgcfile == CTG
        assert config.nc == 3
        assert config.mode == "preventive"
        assert config.structure == "empar"
        assert config.workers == 2
        assert config.empar_anchor is True
        assert config.nt == 2
        assert config.dt == 10.0
        assert config.tol == 1e-8
        assert config.maxiter == 50
        assert config.outdir == "sout"

    def test_sopflow_scenario_flags(self):
        config = cli.parse_args([
            "sopflow", "--netfile", NET, "--ctgcfile", CTG,
            "--scenfile", SCEN, "--ns", "1", "--structure", "flat"])
        assert config.scenfile == SCEN
        assert config.ns == 1
        assert config.structure == "flat"

    def test_tcopflow_profile_flags(self):
        config = cli.parse_args([
            "tcopflow", "--netfile", NET,
            "--pload", PLOAD, "--qload", QLOAD])
        assert config.pload == PLOAD
        assert config.qload == QLOAD

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["dcopflow", "--netfile", NET])
        assert exc.value.code == 2

    def test_netfile_is_required(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["opflow"])
        assert exc.value.code == 2

    def test_scopflow_requires_ctgcfile(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["scopflow", "--netfile", NET])
        assert exc.value.code == 2

    def test_mode_choices_enforced(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["scopflow", "--netfile", NET,
                            "--ctgcfile", CTG, "--mode", "reactive"])
        assert exc.value.code == 2

    def test_missing_netfile_path(self):
        with pytest.raises(errors.IoError, match="--netfile"):
            cli.parse_args(["opflow", "--netfile", "no_such_case.m"])

    def test_missing_ctgcfile_path(self):
        with pytest.raises(errors.IoError, match="--ctgcfile"):
            cli.parse_args(["scopflow", "--netfile", NET,
                            "--ctgcfile", "no_such.cont"])


class TestToPlan:
    """CliConfig.to_plan produces a valid RunPlan with mapped fields."""

    def test_opflow_plan(self):
        plan = cli.parse_args(["opflow", "--netfile", NET,
                               "--tol", "1e-8", "--maxiter", "30"]).to_plan()
        plan.validate()
        assert plan.application == "Opf"
        assert plan.structure == "Monolithic"
        assert plan.netfile == NET
        assert plan.tol == 1e-8
        assert plan.max_iter == 30

    def test_scopflow_plan(self):
        plan = cli.parse_args([
            "scopflow", "--netfile", NET, "--ctgcfile", CTG,
            "--mode", "preventive", "--structure", "empar",
            "--nc", "2", "--workers", "4", "--empar-anchor"]).to_plan()
        plan.validate()
        assert plan.application == "Scopf"
        assert plan.structure == "Empar"
        assert plan.mode.kind == "preventive"
        assert plan.nc == 2
        assert plan.workers == 4
        assert plan.empar_anchor is True

    def test_sopflow_plan(self):
        plan = cli.parse_args([
            "sopflow", "--netfile", NET, "--ctgcfile", CTG,
            "--scenfile", SCEN, "--ns", "1", "--nt", "2", "--dt", "15",
            "--structure", "full"]).to_plan()
        plan.validate()
        assert plan.application == "Sopf"
        assert plan.structure == "Monolithic"
        assert plan.scenfile == SCEN
        assert plan.ns == 1
        assert plan.nt == 2
        assert plan.dt_minutes == 15.0


class TestEntry:
    """End-to-end exit codes and console output."""

    def test_opflow_success(self, tmp_path, capsys):
        out = tmp_path / "opfout"
        code = cli.entry(["opflow", "--netfile", NET,
                          "--outdir", str(out)])
        assert code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert "scen" in captured.out and "status" in captured.out
        assert "total weighted objective" in captured.out
        assert "Optimal" in captured.out
        assert f"outputs written to {out}" in captured.out
        assert (out / "t_0.m").is_file()
        assert (out / "summary.json").is_file()

    def test_missing_input_file_exits_2(self, capsys):
        code = cli.entry(["opflow", "--netfile", "no_such_case.m"])
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unparseable_netfile_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.m"
        bad.write_text("function mpc = bad\nnot a case at all\n")
        code = cli.entry(["opflow", "--netfile", str(bad),
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_non_finite_cost_code_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.m"
        with open(NET, encoding="utf-8") as fh:
            bad.write_text(fh.read().replace("2\t0\t0\t3\t0\t0\t0;",
                                             "2\t0\t0\tinf\t0\t0\t0;"))
        code = cli.entry(["opflow", "--netfile", str(bad),
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "gencost row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("pcell,qcell", [("nan", "30"), ("30", "inf")])
    def test_non_finite_load_exits_2(self, tmp_path, capsys, pcell, qcell):
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        p.write_text(f"time_min,5\n0,{pcell}\n")
        q.write_text(f"time_min,5\n0,{qcell}\n")
        code = cli.entry(["tcopflow", "--netfile", NET, "--pload", str(p),
                          "--qload", str(q), "--outdir", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_usage_error_propagates_argparse_exit(self):
        with pytest.raises(SystemExit) as exc:
            cli.entry(["opflow"])
        assert exc.value.code == 2

    def test_starved_solve_exits_4(self, tmp_path, capsys):
        code = cli.entry(["opflow", "--netfile", NET, "--maxiter", "2",
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_SOLVER
        captured = capsys.readouterr()
        assert "MaxIter" in captured.out
        assert "warning:" in captured.err

    def test_degraded_empar_exits_3(self, tmp_path, capsys):
        code = cli.entry(["scopflow", "--netfile", NET, "--ctgcfile", CTG,
                          "--structure", "empar", "--workers", "1",
                          "--maxiter", "2",
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_DEGRADED
        captured = capsys.readouterr()
        assert "Degraded" in captured.out
        assert "warning:" in captured.err

    def test_empar_zero_dt_over_profile_exits_2(self, tmp_path, capsys):
        code = cli.entry(["scopflow", "--netfile", NET, "--ctgcfile", CTG,
                          "--structure", "empar", "--workers", "1",
                          "--pload", PLOAD, "--qload", QLOAD, "--dt", "0",
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "dt_minutes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["scopflow", "--structure", "empar", "--workers", "-3"],
        ["scopflow", "--structure", "empar", "--workers", "0"],
        ["scopflow", "--nc", "-2"],
        ["sopflow", "--scenfile", SCEN, "--ns", "-1"]])
    def test_negative_counts_exit_2(self, tmp_path, capsys, flags):
        code = cli.entry([flags[0], "--netfile", NET, "--ctgcfile", CTG,
                          *flags[1:], "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_truncation_flags_shape_the_run(self, tmp_path):
        """--ns/--nc limit the lattice: 1 scenario with base plus one
        contingency gives exactly two stages and two case files."""
        out = tmp_path / "sopfout"
        code = cli.entry(["sopflow", "--netfile", NET, "--ctgcfile", CTG,
                          "--scenfile", SCEN, "--ns", "1", "--nc", "1",
                          "--outdir", str(out)])
        assert code == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["stages"]) == 2
        assert (out / "scen_0" / "cont_0" / "t_0.m").is_file()
        assert (out / "scen_0" / "cont_1" / "t_0.m").is_file()

    def test_written_stage_file_is_a_case(self, tmp_path):
        out = tmp_path / "opfout"
        cli.entry(["opflow", "--netfile", NET, "--outdir", str(out)])
        raw = parse_case((out / "t_0.m").read_text())
        assert len(raw.bus) == 9 and len(raw.gen) == 3
