"""Typed network model: unit conversion, topology checks, case surgery."""

import math
from dataclasses import replace

import pytest

from opfkit import (
    Contingency,
    Outage,
    Scenario,
    apply_contingency,
    apply_load_step,
    apply_scenario,
    branch_admittance,
    check_connectivity,
    declare_wind,
    errors,
    from_raw,
)
from opfkit.matpower import parse_case, parse_case_file
from opfkit.network import Branch


class TestFromRaw:

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("section,col", [
        ("bus", 0), ("bus", 1), ("bus", 6), ("bus", 10), ("gen", 0),
        ("gen", 7), ("branch", 0), ("branch", 1), ("branch", 10),
        ("gencost", 3)])
    def test_non_finite_integer_code(self, case9_path, section, col, value):
        """Ids, types, areas, zones, statuses and ncost are integer codes;
        a value that is not finite names its section and row."""
        raw = parse_case_file(case9_path)
        rows = list(getattr(raw, section))
        rows[1] = rows[1][:col] + (value,) + rows[1][col + 1:]
        with pytest.raises(errors.MalformedRow, match=f"{section} row 2"):
            from_raw(replace(raw, **{section: tuple(rows)}))

    def test_negative_ramp_rejected(self, case9_path):
        """A negative ramp gave ramp rows with gl > gu, solved to
        Infeasible; it is an input error naming its row."""
        raw = parse_case_file(case9_path)
        gens = list(raw.gen)
        gens[1] = gens[1][:17] + (-5.0,) + gens[1][18:]
        with pytest.raises(errors.MalformedRow, match="gen row 2: column 18"):
            from_raw(replace(raw, gen=tuple(gens)))

    def test_degrees_become_radians(self, case9):
        # source file stores Va in degrees; bus 1 pins 0 either way
        for b in case9.buses:
            assert abs(b.va) < 2.0 * math.pi

    def test_ramp_30_is_gen_column_18(self, case9):
        assert [g.ramp_30 for g in case9.gens] == [30.0, 30.0, 450.0]

    def test_cost_mapping(self, case9):
        g2 = case9.gens[1]
        assert (g2.cost.c2, g2.cost.c1, g2.cost.c0) == (0.085, 1.2, 600.0)
        assert g2.cost.at(100.0) == pytest.approx(0.085 * 1e4 + 120.0 + 600.0)

    def test_wind_inferred_from_zero_cost_and_pmin(self, case9):
        # gen 3 has an all-zero cost row and pmin 0; the thermals do not
        assert [g.is_wind for g in case9.gens] == [False, False, True]

    def test_loads(self, case9):
        by_id = {b.id: b for b in case9.buses}
        assert (by_id[5].pd, by_id[5].qd) == (75.0, 30.0)
        assert (by_id[6].pd, by_id[6].qd) == (90.0, 30.0)
        assert (by_id[8].pd, by_id[8].qd) == (100.0, 35.0)

    def test_no_reference_bus(self, case9_path):
        text = case9_path.read_text(encoding="utf-8")
        raw = parse_case(text.replace("\t1\t3\t", "\t1\t2\t"))
        with pytest.raises(errors.NoReferenceBus):
            from_raw(raw)

    def test_dangling_gen_bus(self, case9_path):
        raw = parse_case(case9_path.read_text(encoding="utf-8"))
        bad = replace(raw, gen=((99.0,) + raw.gen[0][1:],) + raw.gen[1:])
        with pytest.raises(errors.DanglingReference):
            from_raw(bad)

    def test_zero_impedance_branch(self, case9_path):
        raw = parse_case(case9_path.read_text(encoding="utf-8"))
        row = list(raw.branch[0])
        row[2] = row[3] = 0.0
        with pytest.raises(errors.ZeroImpedance):
            from_raw(replace(raw, branch=(tuple(row),) + raw.branch[1:]))


class TestBranchAdmittance:

    def _branch(self, **kw):
        base = dict(fbus=1, tbus=2, r=0.01, x=0.1, b=0.2, rate_a=0.0,
                    rate_b=0.0, rate_c=0.0, ratio=0.0, angle=0.0,
                    status=1, angmin=-360.0, angmax=360.0)
        base.update(kw)
        return Branch(**base)

    def test_plain_line(self):
        br = self._branch()
        y = 1.0 / complex(0.01, 0.1)
        yff, yft, ytf, ytt = branch_admittance(br)
        assert yff == pytest.approx(y + 0.1j)
        assert yft == pytest.approx(-y)
        assert ytf == pytest.approx(-y)
        assert ytt == pytest.approx(y + 0.1j)

    def test_tap_scales_from_side_only(self):
        br = self._branch(ratio=0.95)
        y = 1.0 / complex(0.01, 0.1)
        yff, yft, ytf, ytt = branch_admittance(br)
        assert yff == pytest.approx((y + 0.1j) / 0.95**2)
        assert yft == pytest.approx(-y / 0.95)
        assert ytt == pytest.approx(y + 0.1j)

    def test_phase_shift_breaks_reciprocity(self):
        br = self._branch(ratio=1.0, angle=math.radians(10.0))
        yff, yft, ytf, ytt = branch_admittance(br)
        assert abs(yff - (1.0 / complex(0.01, 0.1) + 0.1j)) < 1e-12
        assert yft != ytf
        t = complex(math.cos(math.radians(10.0)), math.sin(math.radians(10.0)))
        y = 1.0 / complex(0.01, 0.1)
        assert yft == pytest.approx(-y / t.conjugate())
        assert ytf == pytest.approx(-y / t)


class TestConnectivity:

    def test_single_island(self, case9):
        n, labels = check_connectivity(case9)
        assert n == 1
        assert set(labels) == {0}

    def test_out_of_service_branch_breaks_graph(self, case9):
        # branch 1-4 is the only path from bus 1
        branches = tuple(replace(br, status=0) if (br.fbus, br.tbus) == (1, 4)
                         else br for br in case9.branches)
        n, labels = check_connectivity(replace(case9, branches=branches))
        assert n == 2
        assert labels[case9.bus_pos[1]] != labels[case9.bus_pos[5]]


class TestApplyContingency:

    def test_gen_outage_switches_status(self, case9):
        ctg = Contingency(id=1, outages=(
            Outage(kind="GEN", bus=2, tbus=None, ordinal=1),))
        out = apply_contingency(case9, ctg)
        assert out.gens[1].status == 0
        assert case9.gens[1].status == 1  # input untouched

    def test_branch_outage_switches_status(self, case9):
        ctg = Contingency(id=2, outages=(
            Outage(kind="BRANCH", bus=8, tbus=9, ordinal=1),))
        out = apply_contingency(case9, ctg)
        pos = case9.branches_between(8, 9)[0]
        assert out.branches[pos].status == 0

    def test_double_outage(self, case9):
        ctg = Contingency(id=3, outages=(
            Outage(kind="GEN", bus=3, tbus=None, ordinal=1),
            Outage(kind="BRANCH", bus=8, tbus=9, ordinal=1)))
        out = apply_contingency(case9, ctg)
        assert out.gens[2].status == 0
        assert sum(br.status for br in out.branches) == 8

    def test_unknown_gen(self, case9):
        ctg = Contingency(id=1, outages=(
            Outage(kind="GEN", bus=5, tbus=None, ordinal=1),))
        with pytest.raises(errors.UnknownOutage):
            apply_contingency(case9, ctg)

    def test_unknown_branch_ordinal(self, case9):
        ctg = Contingency(id=1, outages=(
            Outage(kind="BRANCH", bus=8, tbus=9, ordinal=2),))
        with pytest.raises(errors.UnknownOutage):
            apply_contingency(case9, ctg)

    def test_islanding_rejected(self, case9):
        # 1-4 is a bridge: dropping it strands the reference machine
        ctg = Contingency(id=1, outages=(
            Outage(kind="BRANCH", bus=1, tbus=4, ordinal=1),))
        with pytest.raises(errors.IslandingDetected):
            apply_contingency(case9, ctg)

    def test_already_off_element(self, case9):
        ctg = Contingency(id=1, outages=(
            Outage(kind="GEN", bus=2, tbus=None, ordinal=1),))
        once = apply_contingency(case9, ctg)
        with pytest.raises(errors.UnknownOutage):
            apply_contingency(once, ctg)


class TestScenarios:

    def test_declare_wind_converts_a_thermal(self, case9):
        wind = declare_wind(case9, [(2, 1)])
        g = wind.gens[1]
        assert g.is_wind and g.pmin == 0.0 and g.cost.is_zero()
        assert not case9.gens[1].is_wind  # input untouched

    def test_apply_scenario_caps_pmax(self, case9):
        scen = Scenario(id=1, weight=1.0, wind_targets=(((3, 1), 85.0),))
        out = apply_scenario(case9, scen)
        assert out.gens[2].pmax == 85.0
        assert out.gens[2].pmin == 0.0

    def test_target_on_non_wind(self, case9):
        scen = Scenario(id=1, weight=1.0, wind_targets=(((2, 1), 50.0),))
        with pytest.raises(errors.TargetOnNonWind):
            apply_scenario(case9, scen)


class TestLoadStep:

    def test_step_replaces_loads(self, case9, profile):
        out = apply_load_step(case9, profile, 0)
        by_id = {b.id: b for b in out.buses}
        assert (by_id[5].pd, by_id[6].pd, by_id[8].pd) == (75.0, 90.0, 100.0)

    def test_step_out_of_range(self, case9, profile):
        with pytest.raises(errors.IndexOutOfRange):
            apply_load_step(case9, profile, len(profile.times))

    def test_unknown_bus(self, case9, profile):
        bad = replace(profile, buses=(5, 6, 99))
        with pytest.raises(errors.UnknownBus):
            apply_load_step(case9, bad, 0)
