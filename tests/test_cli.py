"""Command-line front end: flag parsing, plan mapping, exit codes."""

import json

import numpy as np
import pytest

from dataclasses import replace

from opfkit import cli, errors
from opfkit.matpower import format_case, parse_case, parse_case_file

NET = "tests/data/case9.m"
CTG = "tests/data/ctgc.cont"
SCEN = "tests/data/scenarios.csv"
PLOAD = "tests/data/load_p.csv"
QLOAD = "tests/data/load_q.csv"


class TestParseArgs:
    """Flag-to-RunPlan mapping for each subcommand."""

    def test_opflow_defaults(self):
        plan = cli.parse_args(["opflow", "--netfile", NET])
        assert plan.application == "Opf"
        assert plan.netfile == NET
        assert plan.tol == 1e-6
        assert plan.max_iter == 200
        assert plan.mode.kind == "corrective"
        assert plan.structure == "Monolithic"
        assert plan.outdir is None
        assert plan.nc is None and plan.ns is None and plan.nt is None

    def test_scopflow_full_flag_set(self):
        plan = cli.parse_args([
            "scopflow", "--netfile", NET, "--ctgcfile", CTG,
            "--nc", "3", "--mode", "preventive", "--structure", "empar",
            "--workers", "2", "--empar-anchor", "--nt", "2", "--dt", "10",
            "--tol", "1e-8", "--maxiter", "50", "--outdir", "sout"])
        assert plan.ctgcfile == CTG
        assert plan.nc == 3
        assert plan.mode.kind == "preventive"
        assert plan.structure == "Empar"
        assert plan.workers == 2
        assert plan.empar_anchor is True
        assert plan.nt == 2
        assert plan.dt_minutes == 10.0
        assert plan.tol == 1e-8
        assert plan.max_iter == 50
        assert plan.outdir == "sout"

    def test_sopflow_scenario_flags(self):
        plan = cli.parse_args([
            "sopflow", "--netfile", NET, "--ctgcfile", CTG,
            "--scenfile", SCEN, "--ns", "1", "--structure", "flat"])
        assert plan.scenfile == SCEN
        assert plan.ns == 1
        assert plan.structure == "Flat"

    def test_tcopflow_profile_flags(self):
        plan = cli.parse_args([
            "tcopflow", "--netfile", NET,
            "--pload", PLOAD, "--qload", QLOAD])
        assert plan.pload == PLOAD
        assert plan.qload == QLOAD

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
    """parse_args produces a valid RunPlan with mapped fields."""

    def test_opflow_plan(self):
        plan = cli.parse_args(["opflow", "--netfile", NET,
                               "--tol", "1e-8", "--maxiter", "30"])
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
            "--nc", "2", "--workers", "4", "--empar-anchor"])
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
            "--structure", "full"])
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

    def test_nan_load_in_case_exits_2(self, tmp_path, capsys):
        """NaN is never a valid case cell: bus 6's Pd of nan is rejected
        by the parser, not handed to the solver."""
        bad = tmp_path / "bad.m"
        with open(NET, encoding="utf-8") as fh:
            bad.write_text(fh.read().replace("\t6\t1\t90\t30\t",
                                             "\t6\t1\tnan\t30\t"))
        code = cli.entry(["opflow", "--netfile", str(bad),
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "mpc.bus row 6 near line 11" in err and "column 3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("limits", ["300\t-300\t1.04\t100\t1\tInf",
                                        "Inf\t-Inf\t1.04\t100\t1\t350"],
                             ids=["pmax", "qmin-qmax"])
    def test_infinite_generator_limits_solve(self, tmp_path, capsys, limits):
        """Inf is a legal MATPOWER limit.  Gen 1 started at the midpoint
        of its limits: Pmax = Inf ended in a ZeroDivisionError, Qmin =
        -Inf with Qmax = Inf in NumericFailure at iteration 0.  It now
        starts at 0 clipped into its limits and reaches case9's optimum."""
        net = tmp_path / "case9_inf.m"
        with open(NET, encoding="utf-8") as fh:
            text = fh.read()
        row = "300\t-300\t1.04\t100\t1\t350"
        assert text.count(row) == 1
        net.write_text(text.replace(row, limits))
        out = tmp_path / "out"
        code = cli.entry(["opflow", "--netfile", str(net),
                          "--outdir", str(out)])
        assert code == cli.EXIT_OK
        assert "Optimal" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_objective"] == pytest.approx(3049.24617,
                                                           rel=1e-8)

    @pytest.mark.parametrize("base_mva", ["0", "nan", "-100", "inf"])
    def test_unusable_base_mva_exits_2(self, tmp_path, capsys, base_mva):
        bad = tmp_path / "bad.m"
        with open(NET, encoding="utf-8") as fh:
            bad.write_text(fh.read().replace("mpc.baseMVA = 100;",
                                             f"mpc.baseMVA = {base_mva};"))
        code = cli.entry(["opflow", "--netfile", str(bad),
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "mpc.baseMVA on line 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pcell,qcell", [("nan", "30"), ("30", "inf")])
    def test_non_finite_load_exits_2(self, tmp_path, capsys, pcell, qcell):
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        p.write_text(f"time_min,5\n0,{pcell}\n")
        q.write_text(f"time_min,5\n0,{qcell}\n")
        code = cli.entry(["tcopflow", "--netfile", NET, "--pload", str(p),
                          "--qload", str(q), "--outdir", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--netfile", "--ctgcfile"])
    def test_undecodable_input_exits_2(self, tmp_path, capsys, flag):
        """200 random bytes ended in a UnicodeDecodeError traceback."""
        junk = tmp_path / "junk"
        junk.write_bytes(np.random.default_rng(0).bytes(200))
        files = {"--netfile": NET, "--ctgcfile": CTG, flag: str(junk)}
        code = cli.entry(["scopflow", "--netfile", files["--netfile"],
                          "--ctgcfile", files["--ctgcfile"],
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert f"error: cannot read {junk}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edits,error", [
        # branch 3-9 out of service islands bus 3
        pytest.param({"\t3\t9\t": (11, "0")}, "has 2 islands", id="11-0"),
        # bus 3 isolated under the live branch 3-9
        pytest.param({"\t3\t2\t": (2, "4")},
                     "branch 3-9 touches an isolated bus", id="2-4"),
        # both: bus 3 isolated with its generator still in service
        pytest.param({"\t3\t9\t": (11, "0"), "\t3\t2\t": (2, "4")},
                     "generator at bus 3 sits on an isolated bus",
                     id="2-4-11-0")])
    @pytest.mark.parametrize("command,structure", [
        ("opflow", None), ("scopflow", "empar"), ("sopflow", "monolithic"),
        ("sopflow", "flat"), ("sopflow", "empar")])
    def test_disconnected_network_exits_2(self, tmp_path, capsys, command,
                                          structure, edits, error):
        """Every structure rejects the network before any solve; Empar
        used to exit 3 with every chain an Error stage, and a live unit
        on an isolated bus ended in a KeyError traceback."""
        lines = []
        with open(NET, encoding="utf-8") as fh:
            for line in fh:
                cells = line.split("\t")
                for prefix, (column, value) in edits.items():
                    if line.startswith(prefix):
                        cells[column] = value
                lines.append("\t".join(cells))
        net = tmp_path / "case9.m"
        net.write_text("".join(lines))
        ctg = tmp_path / "gen.cont"
        ctg.write_text("ctgc_id,kind,bus_or_fbus,tbus_or_dash,ordinal\n"
                       "1,GEN,2,-,1\n")
        flags = [] if structure is None else [
            "--ctgcfile", str(ctg), "--structure", structure,
            "--workers", "1"]
        if command == "sopflow":
            flags += ["--scenfile", SCEN]
        code = cli.entry([command, "--netfile", str(net), *flags,
                          "--outdir", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE
        assert error in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("dt", ["inf", "1e400"])
    def test_infinite_dt_exits_2(self, tmp_path, capsys, dt):
        """An infinite step made every ramp bound infinite, and a zero
        ramp times it NaN, which the solver read as no bound."""
        code = cli.entry(["tcopflow", "--netfile", NET, "--nt", "3",
                          "--dt", dt, "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "dt_minutes must be finite and positive" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_ramp_exits_2(self, tmp_path, capsys):
        """Ramps of -5 MW gave a two-period horizon ramp rows with
        gl > gu, and the solve ended Infeasible (exit 4)."""
        raw = parse_case_file(NET)
        gens = tuple(row[:17] + (-5.0,) + row[18:] for row in raw.gen)
        net = tmp_path / "case9.m"
        net.write_text(format_case(replace(raw, gen=gens)))
        code = cli.entry(["tcopflow", "--netfile", str(net), "--nt", "2",
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "mpc.gen row 1: column 18" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,row,col,value,message", [
        ("gen", 1, 9, 310.0, "mpc.gen row 2: column 10 (Pmin) is 310.0, "
                             "above column 9 (Pmax) 300.0"),
        ("gen", 0, 4, 400.0, "mpc.gen row 1: column 5 (Qmin) is 400.0, "
                             "above column 4 (Qmax) 300.0"),
        ("bus", 4, 12, 1.2, "mpc.bus row 5: column 13 (Vmin) is 1.2, "
                            "above column 12 (Vmax) 1.1")])
    def test_crossed_limits_exit_2(self, tmp_path, capsys, section, row, col,
                                   value, message):
        """A lower limit above its upper one gave the NLP crossed bounds,
        and the solve ended Infeasible at iteration 0 (exit 4)."""
        raw = parse_case_file(NET)
        rows = list(getattr(raw, section))
        rows[row] = rows[row][:col] + (value,) + rows[row][col + 1:]
        net = tmp_path / "case9.m"
        net.write_text(format_case(replace(raw, **{section: tuple(rows)})))
        code = cli.entry(["opflow", "--netfile", str(net),
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flat_over_periods_exits_2(self, tmp_path, capsys):
        code = cli.entry(["sopflow", "--netfile", NET, "--ctgcfile", CTG,
                          "--scenfile", SCEN, "--structure", "flat",
                          "--nt", "2", "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "single-period" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_scenario_weights_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "scen.csv"
        scen.write_text("scenario,weight,wind_3_1\n1,0,75\n2,0,85\n")
        code = cli.entry(["sopflow", "--netfile", NET, "--ctgcfile", CTG,
                          "--scenfile", str(scen),
                          "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "scenario weights sum to zero" in capsys.readouterr().err
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

    @pytest.mark.parametrize("flags", [
        ["--tol", "nan"], ["--tol", "-1"], ["--tol", "0"], ["--tol", "inf"],
        ["--maxiter", "0"]])
    def test_unusable_solver_limits_exit_2(self, tmp_path, capsys, flags):
        code = cli.entry(["opflow", "--netfile", NET, *flags,
                          "--outdir", str(tmp_path / "out")])
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
