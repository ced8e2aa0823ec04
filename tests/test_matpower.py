"""Case file parsing, formatting, and round-trip fidelity."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfkit import errors, from_raw
from opfkit.matpower import RawCase, format_case, parse_case, parse_case_file

MINIMAL = """\
function mpc = tiny
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0  0 0 0 1 1.0 0 345 1 1.1 0.9;
    2 1 50 20 0 0 1 1.0 0 345 1 1.1 0.9;
];
mpc.gen = [
    1 60 0 300 -300 1.0 100 1 200 10;
];
mpc.branch = [
    1 2 0.01 0.1 0.02 250 250 250 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 3 0.1 5 100;
];
"""


@pytest.fixture(scope="module")
def raw9(case9_path):
    return parse_case_file(case9_path)


class TestParse:

    def test_sections_and_counts(self, raw9):
        assert raw9.base_mva == 100.0
        assert len(raw9.bus) == 9
        assert len(raw9.gen) == 3
        assert len(raw9.branch) == 9
        assert len(raw9.gencost) == 3

    def test_name_from_function_line(self, raw9):
        assert raw9.name == "t0"

    def test_spot_values(self, raw9):
        """Loads on buses 5, 6, 8 and gen limits as in the source file."""
        by_id = {row[0]: row for row in raw9.bus}
        assert by_id[5.0][2] == 75.0
        assert by_id[6.0][2] == 90.0
        assert by_id[8.0][3] == 35.0
        assert raw9.gen[1][8] == 300.0

    def test_comments_stripped(self):
        raw = parse_case(MINIMAL.replace(
            "mpc.baseMVA = 100;", "% header chatter\nmpc.baseMVA = 100; % x"))
        assert raw.base_mva == 100.0

    def test_comma_separated_columns(self):
        raw = parse_case(MINIMAL.replace(
            "    1 60 0 300 -300 1.0 100 1 200 10;",
            "    1, 60, 0, 300, -300, 1.0, 100, 1, 200, 10;"))
        assert raw.gen[0][1] == 60.0

    def test_extra_columns_survive(self, raw9):
        """The source listing carries flow and ramp tail columns."""
        assert len(raw9.branch[0]) == 17
        assert len(raw9.gen[0]) == 21


class TestParseErrors:

    def test_missing_base_mva(self):
        with pytest.raises(errors.MissingSection):
            parse_case(MINIMAL.replace("mpc.baseMVA = 100;", ""))

    @pytest.mark.parametrize("section", ["bus", "gen", "branch", "gencost"])
    def test_missing_matrix(self, section):
        with pytest.raises(errors.MissingSection):
            parse_case(MINIMAL.replace(f"mpc.{section}", "mpc.other"))

    def test_non_numeric_cell(self):
        with pytest.raises(errors.MalformedRow):
            parse_case(MINIMAL.replace("1 60 0", "1 sixty 0"))

    def test_short_row(self):
        with pytest.raises(errors.ShortRow):
            parse_case(MINIMAL.replace(
                "    1 60 0 300 -300 1.0 100 1 200 10;", "    1 60 0;"))

    def test_piecewise_cost_rejected(self):
        with pytest.raises(errors.UnsupportedCostModel):
            parse_case(MINIMAL.replace("2 0 0 3 0.1 5 100;",
                                       "1 0 0 2 0 0 100 200;"))

    def test_ncost_out_of_range(self):
        with pytest.raises(errors.UnsupportedCostModel):
            parse_case(MINIMAL.replace("2 0 0 3 0.1 5 100;",
                                       "2 0 0 4 1 0.1 5 100;"))

    def test_gencost_row_shorter_than_ncost(self):
        with pytest.raises(errors.ShortRow):
            parse_case(MINIMAL.replace("2 0 0 3 0.1 5 100;",
                                       "2 0 0 3 0.1 5;"))

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("col", [0, 3])
    def test_non_finite_cost_code(self, col, cell):
        """The model and ncost cells are integer codes: a value that is
        not finite is a malformed row, not an OverflowError."""
        row = "2 0 0 3 0.1 5 100".split()
        row[col] = cell
        with pytest.raises(errors.MalformedRow, match="gencost row 1"):
            parse_case(MINIMAL.replace("2 0 0 3 0.1 5 100;",
                                       " ".join(row) + ";"))

    def test_malformed_base_mva(self):
        with pytest.raises(errors.MalformedRow):
            parse_case(MINIMAL.replace("= 100;", "= hundred;"))


def _assert_rows_close(a, b, rel):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra) == len(rb)
        for va, vb in zip(ra, rb):
            assert va == pytest.approx(vb, rel=rel, abs=1e-12)


class TestRoundTrip:

    def test_parse_format_parse(self, case9_path):
        """Every numeric field survives a write/read cycle to 1e-9."""
        first = parse_case_file(case9_path)
        second = parse_case(format_case(first))
        assert second.name == first.name
        assert second.base_mva == pytest.approx(first.base_mva, rel=1e-9)
        for section in ("bus", "gen", "branch", "gencost"):
            _assert_rows_close(getattr(first, section),
                               getattr(second, section), rel=1e-9)

    def test_written_text_is_reparseable(self, tmp_path, case9_path):
        raw = parse_case_file(case9_path)
        out = tmp_path / "copy.m"
        out.write_text(format_case(raw), encoding="utf-8")
        again = parse_case_file(out)
        assert again.bus == parse_case(format_case(raw)).bus


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _rows(min_cols):
    """Rows of at least min_cols finite numbers; extra columns allowed."""
    return st.lists(st.lists(FINITE, min_size=min_cols,
                             max_size=min_cols + 4).map(tuple),
                    max_size=4).map(tuple)


@st.composite
def _cost_row(draw):
    ncost = draw(st.integers(1, 3))
    rest = draw(st.lists(FINITE, min_size=2 + ncost, max_size=ncost + 5))
    return (2.0, rest[0], rest[1], float(ncost)) + tuple(rest[2:])


RAW_CASES = st.builds(
    RawCase, name=st.from_regex(r"[A-Za-z]\w{0,8}", fullmatch=True),
    base_mva=FINITE, bus=_rows(13), gen=_rows(10), branch=_rows(13),
    gencost=st.lists(_cost_row(), max_size=4).map(tuple))


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


class TestRoundTripProperties:

    @settings(max_examples=60, deadline=None)
    @given(raw=RAW_CASES)
    def test_format_parse_fixed_point(self, raw):
        """One pass through the 10-digit text is a fixed point, and every
        cell, extra columns included, survives to 1e-9 relative."""
        once = parse_case(format_case(raw))
        assert parse_case(format_case(once)) == once
        assert once.name == raw.name and _close(once.base_mva, raw.base_mva)
        for section in ("bus", "gen", "branch", "gencost"):
            got, want = getattr(once, section), getattr(raw, section)
            assert [len(r) for r in got] == [len(r) for r in want]
            assert all(_close(a, b) for ra, rb in zip(got, want)
                       for a, b in zip(ra, rb))

    @settings(max_examples=200, deadline=None)
    @given(section=st.sampled_from(["bus", "gen", "branch", "gencost"]),
           rows=st.lists(st.lists(st.sampled_from(
               ["0", "1", "2", "3", "-1", "0.5", "inf", "-inf", "nan",
                "1e999", "x"]), max_size=16), max_size=3))
    def test_any_section_parses_or_raises(self, section, rows):
        """A case whose section rows are drawn from a small alphabet loads
        or raises an OpfkitError, never another exception."""
        body = re.search(rf"mpc\.{section} = \[(.*?)\];", MINIMAL,
                         re.DOTALL).group(1)
        text = MINIMAL.replace(
            body, "".join(f"\n{' '.join(r)};" for r in rows) + "\n")
        try:
            from_raw(parse_case(text))
        except errors.OpfkitError:
            pass
