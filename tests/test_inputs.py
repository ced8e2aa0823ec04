"""Contingency list, scenario table, and load profile parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfkit import (
    Contingency,
    ContingencySet,
    LoadProfile,
    Outage,
    Scenario,
    ScenarioSet,
    errors,
    parse_contingencies,
    parse_load_profile,
    parse_scenarios,
)

CTG_OK = """\
ctgc_id,kind,bus_or_fbus,tbus_or_dash,ordinal
1,GEN,2,-,1
2,BRANCH,8,9,1
3,GEN,3,-,1
3,BRANCH,8,9,1
"""

SCEN_OK = """\
scenario,weight,wind_3_1
1,0.6,75
2,0.4,85
"""

P_OK = "time_min,5,6\n0,75,90\n5,80,95\n"
Q_OK = "time_min,5,6\n0,30,30\n5,32,31\n"


class TestContingencies:

    def test_parse_counts(self):
        ctgs = parse_contingencies(CTG_OK)
        assert len(ctgs) == 3
        assert [c.id for c in ctgs] == [1, 2, 3]

    def test_rows_merge_by_id(self):
        """Two lines sharing an id form one multi-element contingency."""
        ctgs = parse_contingencies(CTG_OK)
        last = ctgs.by_id()[-1]
        assert len(last.outages) == 2
        kinds = {o.kind for o in last.outages}
        assert kinds == {"GEN", "BRANCH"}

    def test_comments_and_blanks_ignored(self):
        ctgs = parse_contingencies("# note\n\n" + CTG_OK + "\n# tail\n")
        assert len(ctgs) == 3

    def test_truncated(self):
        ctgs = parse_contingencies(CTG_OK).truncated(2)
        assert [c.id for c in ctgs] == [1, 2]

    def test_fixture_file(self, ctgs):
        assert len(ctgs) == 9
        assert len(ctgs.by_id()[-1].outages) == 2

    def test_wrong_field_count(self):
        with pytest.raises(errors.MalformedLine):
            parse_contingencies("1,GEN,2,-\n")

    def test_bad_kind(self):
        with pytest.raises(errors.BadKind):
            parse_contingencies("1,LOAD,5,-,1\n")

    def test_gen_needs_dash_tbus(self):
        with pytest.raises(errors.MalformedLine):
            parse_contingencies("1,GEN,2,7,1\n")

    def test_non_integer_field(self):
        with pytest.raises(errors.MalformedLine):
            parse_contingencies("one,GEN,2,-,1\n")

    def test_duplicate_outage_in_contingency(self):
        with pytest.raises(errors.DuplicateOutage):
            parse_contingencies("1,GEN,2,-,1\n1,GEN,2,-,1\n")

    def test_id_gap(self):
        with pytest.raises(errors.ContingencyIdGap):
            parse_contingencies("1,GEN,2,-,1\n3,GEN,3,-,1\n")


class TestScenarios:

    def test_parse(self):
        scens = parse_scenarios(SCEN_OK)
        assert len(scens) == 2
        assert scens.total_weight == pytest.approx(1.0)
        assert scens.wind_keys() == ((3, 1),)

    def test_weights_stay_raw(self):
        scens = parse_scenarios(SCEN_OK.replace("0.6", "6").replace("0.4", "4"))
        assert scens.total_weight == pytest.approx(10.0)

    def test_base_index_is_heaviest(self):
        scens = parse_scenarios(SCEN_OK)
        assert scens.base_index() == 0
        flipped = parse_scenarios(SCEN_OK.replace("0.6", "0.3"))
        assert flipped.base_index() == 1

    def test_truncated(self):
        assert len(parse_scenarios(SCEN_OK).truncated(1)) == 1

    def test_header_must_lead_with_scenario_weight(self):
        with pytest.raises(errors.MalformedHeader):
            parse_scenarios("id,weight,wind_3_1\n1,1,75\n")

    def test_bad_wind_column(self):
        with pytest.raises(errors.MalformedHeader):
            parse_scenarios("scenario,weight,gusts\n1,1,75\n")

    def test_non_numeric_cell(self):
        with pytest.raises(errors.NonNumericCell):
            parse_scenarios("scenario,weight,wind_3_1\n1,heavy,75\n")

    def test_negative_weight(self):
        with pytest.raises(errors.NegativeWeight):
            parse_scenarios("scenario,weight,wind_3_1\n1,-0.5,75\n")

    def test_nan_weight(self):
        with pytest.raises(errors.NegativeWeight):
            parse_scenarios("scenario,weight,wind_3_1\n1,nan,75\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_wind_target(self, cell):
        with pytest.raises(errors.NonNumericCell, match="scenario row 2"):
            parse_scenarios(f"scenario,weight,wind_3_1\n1,1,{cell}\n")

    def test_negative_wind_target(self):
        with pytest.raises(errors.MalformedLine, match="wind target"):
            parse_scenarios("scenario,weight,wind_3_1\n1,1,-5\n")

    def test_duplicate_id(self):
        with pytest.raises(errors.MalformedLine):
            parse_scenarios("scenario,weight,wind_3_1\n1,1,75\n1,2,80\n")

    def test_ragged_row(self):
        with pytest.raises(errors.MalformedLine):
            parse_scenarios("scenario,weight,wind_3_1\n1,1\n")

    def test_empty(self):
        with pytest.raises(errors.EmptyScenarioSet):
            parse_scenarios("")
        with pytest.raises(errors.EmptyScenarioSet):
            parse_scenarios("scenario,weight,wind_3_1\n")


class TestLoadProfile:

    def test_parse(self):
        prof = parse_load_profile(P_OK, Q_OK)
        assert prof.times == (0.0, 5.0)
        assert prof.buses == (5, 6)
        assert prof.pd[1] == (80.0, 95.0)
        assert prof.qd[0] == (30.0, 30.0)

    def test_fixture_horizon(self, profile):
        assert len(profile.times) == 3
        assert profile.buses == (5, 6, 8)

    def test_time_mismatch(self):
        with pytest.raises(errors.TimeMismatch):
            parse_load_profile(P_OK, Q_OK + "10,33,30\n")

    def test_bus_mismatch(self):
        with pytest.raises(errors.UnknownHeader):
            parse_load_profile(P_OK, Q_OK.replace("time_min,5,6",
                                                  "time_min,5,7"))

    def test_header_must_lead_with_time(self):
        with pytest.raises(errors.UnknownHeader):
            parse_load_profile(P_OK.replace("time_min", "minute"), Q_OK)

    def test_non_integer_bus_column(self):
        with pytest.raises(errors.UnknownHeader):
            parse_load_profile(P_OK.replace("time_min,5,6", "time_min,5,b6"),
                               Q_OK)

    def test_empty_profile(self):
        with pytest.raises(errors.EmptyProfile):
            parse_load_profile("", Q_OK)
        with pytest.raises(errors.EmptyProfile):
            parse_load_profile("time_min,5,6\n", Q_OK)

    def test_time_must_increase(self):
        with pytest.raises(errors.MalformedLine):
            parse_load_profile("time_min,5,6\n0,75,90\n0,75,90\n", Q_OK)

    def test_ragged_row(self):
        with pytest.raises(errors.MalformedLine):
            parse_load_profile("time_min,5,6\n0,75\n", Q_OK)

    def test_non_numeric_cell(self):
        with pytest.raises(errors.NonNumericCell):
            parse_load_profile("time_min,5,6\n0,75,ninety\n", Q_OK)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, cell):
        """Load and time cells alike; a NaN time in both files used to
        end in a TimeMismatch of two equal lengths."""
        with pytest.raises(errors.NonNumericCell, match="P row 3"):
            parse_load_profile(f"time_min,5,6\n0,75,90\n5,{cell},95\n",
                               Q_OK)
        with pytest.raises(errors.NonNumericCell, match="P row 3"):
            parse_load_profile(f"time_min,5,6\n0,75,90\n{cell},80,95\n",
                               f"time_min,5,6\n0,30,30\n{cell},32,31\n")

    def test_negative_load_is_legal(self):
        prof = parse_load_profile("time_min,5,6\n0,-75,90\n5,80,95\n", Q_OK)
        assert prof.pd[0] == (-75.0, 90.0)


# --- properties: render -> parse round trips, and no foreign exceptions ----

IDS = st.integers(0, 999)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEG = st.floats(min_value=0.0, allow_infinity=False)
OUTAGES = st.one_of(
    st.builds(Outage, kind=st.just("GEN"), bus=IDS, tbus=st.none(),
              ordinal=IDS),
    st.builds(Outage, kind=st.just("BRANCH"), bus=IDS, tbus=IDS,
              ordinal=IDS))


@st.composite
def contingency_sets(draw):
    groups = draw(st.lists(st.lists(OUTAGES, min_size=1, max_size=3,
                                    unique=True), max_size=5))
    return ContingencySet(tuple(Contingency(id=i, outages=tuple(g))
                                for i, g in enumerate(groups, 1)))


def render_contingencies(ctgs):
    lines = ["ctgc_id,kind,bus_or_fbus,tbus_or_dash,ordinal"]
    for c in ctgs:
        for o in c.outages:
            tbus = "-" if o.tbus is None else o.tbus
            lines.append(f"{c.id},{o.kind},{o.bus},{tbus},{o.ordinal}")
    return "\n".join(lines) + "\n"


@st.composite
def scenario_sets(draw):
    keys = draw(st.lists(st.tuples(IDS, IDS), max_size=3, unique=True))
    ids = draw(st.lists(st.integers(-99, 999), min_size=1, max_size=4,
                        unique=True))
    return ScenarioSet(tuple(
        Scenario(id=i, weight=draw(NONNEG), wind_targets=tuple(
            (k, draw(NONNEG)) for k in keys)) for i in ids))


def render_scenarios(scens):
    keys = [k for k, _ in scens.scenarios[0].wind_targets]
    lines = [",".join(["scenario", "weight"]
                      + [f"wind_{b}_{o}" for b, o in keys])]
    for sc in scens:
        lines.append(",".join([str(sc.id), repr(sc.weight)]
                              + [repr(mw) for _, mw in sc.wind_targets]))
    return "\n".join(lines) + "\n"


@st.composite
def load_profiles(draw):
    times = sorted(draw(st.lists(FINITE, min_size=1, max_size=4,
                                 unique=True)))
    buses = tuple(draw(st.lists(IDS, max_size=3, unique=True)))
    table = st.lists(FINITE, min_size=len(buses), max_size=len(buses)).map(
        tuple)
    return LoadProfile(times=tuple(times), buses=buses,
                       pd=tuple(draw(table) for _ in times),
                       qd=tuple(draw(table) for _ in times))


def render_table(times, buses, rows):
    lines = [",".join(["time_min"] + [str(b) for b in buses])]
    for t, row in zip(times, rows):
        lines.append(",".join(repr(v) for v in (t,) + row))
    return "\n".join(lines) + "\n"


class TestRoundTripProperties:

    @settings(max_examples=50, deadline=None)
    @given(ctgs=contingency_sets())
    def test_contingencies(self, ctgs):
        assert parse_contingencies(render_contingencies(ctgs)) == ctgs

    @settings(max_examples=50, deadline=None)
    @given(scens=scenario_sets())
    def test_scenarios(self, scens):
        assert parse_scenarios(render_scenarios(scens)) == scens

    @settings(max_examples=50, deadline=None)
    @given(prof=load_profiles())
    def test_load_profiles(self, prof):
        assert parse_load_profile(
            render_table(prof.times, prof.buses, prof.pd),
            render_table(prof.times, prof.buses, prof.qd)) == prof


def _text(header, cells):
    """A header and up to four lines of cells from a small alphabet."""
    line = st.lists(st.sampled_from(cells), max_size=6).map(",".join)
    return st.lists(line, max_size=4).map(
        lambda rows: "\n".join([header] + rows) + "\n")


NUMBERS = ["0", "1", "2", "5", "-1", "0.5", "nan", "inf", "-inf", "x", ""]


class TestAlphabetProperties:
    """Text drawn from a small alphabet parses or raises an OpfkitError,
    never another exception."""

    @settings(max_examples=100, deadline=None)
    @given(text=st.one_of(
        _text("ctgc_id,kind,bus_or_fbus,tbus_or_dash,ordinal",
              NUMBERS + ["GEN", "BRANCH", "-", "#"]),
        st.lists(st.sampled_from(["1", "GEN", "BRANCH", "-", ",", "#",
                                  "\n", " ", "x"])).map("".join)))
    def test_contingencies(self, text):
        try:
            parse_contingencies(text)
        except errors.OpfkitError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(text=st.one_of(
        _text("scenario,weight,wind_3_1,wind_2_1", NUMBERS),
        _text("scenario,weight", NUMBERS),
        st.lists(st.sampled_from(["scenario", "weight", "wind_3_1", ",",
                                  "\n", "1", "nan", '"'])).map("".join)))
    def test_scenarios(self, text):
        try:
            parse_scenarios(text)
        except errors.OpfkitError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(ptext=_text("time_min,5,6", NUMBERS),
           qtext=st.one_of(_text("time_min,5,6", NUMBERS),
                           _text("time_min,5,x", NUMBERS)))
    def test_load_profiles(self, ptext, qtext):
        try:
            parse_load_profile(ptext, qtext)
        except errors.OpfkitError:
            pass
