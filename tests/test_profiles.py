"""Profile CSV parsing and result serialization tests."""

import csv
import datetime as dt
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpowersim.config import default_scenario
from dcpowersim.engine import SimulationResult, simulate
from dcpowersim.errors import (EmptyProfile, EmptyResult, GapInSeries,
                               InvariantViolation, MalformedRow,
                               NonMonotonicTime, OutOfRange)
from dcpowersim import profiles
from dcpowersim.profiles import (RESULT_COLUMNS, AmbientProfile,
                                 UtilisationProfile, parse_temperature_csv,
                                 parse_utilisation_csv, write_results_csv)
from strategies import BOMS, INDEX, LAST_HOUR, outcome, spelled, stamps


def hourly_csv(header: str, values) -> str:
    lines = [header]
    lines.extend(f"{stamp},{value}"
                 for stamp, value in zip(stamps(len(values)), values))
    return "\n".join(lines) + "\n"


# --- utilisation parser ---

@pytest.mark.parametrize("profile", [UtilisationProfile, AmbientProfile])
def test_profile_columns_of_unequal_length_rejected(profile):
    with pytest.raises(InvariantViolation, match="2 timestamps but 1 values"):
        profile(("2016-06-01T00:00", "2016-06-01T01:00"), (0.5,))


def test_single_row_echo():
    profile = parse_utilisation_csv(
        "timestamp,utilisation\n2016-06-01T00:00,0.5")
    assert profile.timestamps == ("2016-06-01T00:00",)
    assert profile.values == (0.5,)


def test_utilisation_out_of_range():
    with pytest.raises(OutOfRange) as excinfo:
        parse_utilisation_csv(hourly_csv("timestamp,utilisation",
                                         [0.5, 1.2]))
    assert "row 2" in str(excinfo.value)


def test_gap_in_series():
    text = ("timestamp,utilisation\n"
            "2016-06-01T00:00,0.5\n"
            "2016-06-01T03:00,0.5\n")
    with pytest.raises(GapInSeries):
        parse_utilisation_csv(text)


def test_sub_hour_spacing_rejected():
    text = ("timestamp,utilisation\n"
            "2016-06-01T00:00,0.5\n"
            "2016-06-01T00:30,0.5\n")
    with pytest.raises(GapInSeries):
        parse_utilisation_csv(text)


def test_non_monotonic_time():
    text = ("timestamp,utilisation\n"
            "2016-06-01T01:00,0.5\n"
            "2016-06-01T01:00,0.6\n")
    with pytest.raises(NonMonotonicTime):
        parse_utilisation_csv(text)


def test_bad_header():
    with pytest.raises(MalformedRow):
        parse_utilisation_csv("time,util\n2016-06-01T00:00,0.5")


def test_bad_timestamp_names_row():
    with pytest.raises(MalformedRow) as excinfo:
        parse_utilisation_csv("timestamp,utilisation\n01/06/2016 00:00,0.5")
    assert "row 1" in str(excinfo.value)


def test_bad_number_names_row():
    text = ("timestamp,utilisation\n"
            "2016-06-01T00:00,0.5\n"
            "2016-06-01T01:00,half\n")
    with pytest.raises(MalformedRow) as excinfo:
        parse_utilisation_csv(text)
    assert "row 2" in str(excinfo.value)


@pytest.mark.parametrize("row, fields", [("2016-06-01T01:00,0.5,0.6", 3),
                                         ("2016-06-01T01:00", 1)])
def test_wrong_field_count_names_row(row, fields):
    text = f"timestamp,utilisation\n2016-06-01T00:00,0.5\n{row}\n"
    with pytest.raises(MalformedRow,
                       match=f"^row 2: expected 2 fields, got {fields}$"):
        parse_utilisation_csv(text)


def test_empty_body():
    with pytest.raises(EmptyProfile):
        parse_utilisation_csv("timestamp,utilisation\n")


def test_long_clean_series():
    profile = parse_utilisation_csv(
        hourly_csv("timestamp,utilisation", [0.5] * 48))
    assert len(profile) == 48


def test_bom_prefixed_utilisation_accepted():
    text = hourly_csv("timestamp,utilisation", [0.25, 0.5])
    assert parse_utilisation_csv("\ufeff" + text) == \
        parse_utilisation_csv(text)


def test_only_one_bom_accepted():
    text = hourly_csv("timestamp,utilisation", [0.25])
    with pytest.raises(MalformedRow):
        parse_utilisation_csv("\ufeff\ufeff" + text)


# --- timestamps without strptime, against the strptime-only parser ---

def strptime_parse_utilisation(text):
    """The utilisation parser as it was before canonical stamps skipped
    strptime: every stamp parsed, every spacing checked as a timedelta."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ("timestamp", "utilisation")
    if not rows or tuple(cell.strip() for cell in rows[0]) != header:
        raise MalformedRow(
            f"expected header {','.join(header)!r}, got "
            f"{','.join(rows[0]) if rows else ''!r}"
        )
    timestamps, values, previous = [], [], None
    for row_no, row in enumerate(rows[1:], start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise MalformedRow(
                f"row {row_no}: expected 2 fields, got {len(row)}")
        stamp_text = row[0].strip()
        try:
            parsed = dt.datetime.strptime(stamp_text, "%Y-%m-%dT%H:%M")
        except ValueError:
            raise MalformedRow(
                f"row {row_no}: bad timestamp {stamp_text!r}, expected "
                f"YYYY-MM-DDTHH:MM") from None
        try:
            value = float(row[1])
        except ValueError:
            raise MalformedRow(
                f"row {row_no}: bad number {row[1]!r}") from None
        if not 0.0 <= value <= 1.0:
            raise OutOfRange(
                f"row {row_no}: utilisation {value} outside [0, 1]")
        if previous is not None:
            delta = parsed - previous
            if delta <= dt.timedelta(0):
                raise NonMonotonicTime(
                    f"row {row_no}: timestamp {stamp_text!r} does not advance")
            if delta != dt.timedelta(hours=1):
                raise GapInSeries(
                    f"row {row_no}: spacing {delta} is not exactly one hour")
        previous = parsed
        timestamps.append(stamp_text)
        values.append(value)
    if not timestamps:
        raise EmptyProfile("profile has a header but no data rows")
    return UtilisationProfile(tuple(timestamps), tuple(values))


STARTS = (st.sampled_from([
    dt.datetime(2016, 2, 28, 21), dt.datetime(2016, 2, 29, 22),
    dt.datetime(2100, 2, 28, 22), dt.datetime(2016, 12, 31, 21),
    dt.datetime(2016, 1, 31, 23), dt.datetime(999, 12, 31, 22),
    dt.datetime(1, 1, 1), dt.datetime(9999, 12, 31, 20)])
    | st.datetimes(dt.datetime(1, 1, 1), LAST_HOUR).map(
        lambda d: d.replace(second=0, microsecond=0)))
MINUTES = st.sampled_from([0, 0, 30, 59])
SERIES_LENGTHS = st.integers(1, 40)
# Rows of each kind; "keep" is canonical and most common, "jump" moves
# the clock by anything but one hour: a duplicate, a backward step, a
# minute off, a 2 h gap, a day and an hour.
KINDS = st.sampled_from(["keep"] * 6 + ["unpadded", "spaces", "jump", "jump",
                                        "blank", "bad_value"])
JUMPS_MIN = st.sampled_from([0, -60, -1, 30, 59, 61, 90, 120, 24 * 60,
                             25 * 60])
# Past 9999-12-31 a series goes on from the last hour or from its start.
RESTARTS = st.sampled_from([True, False])


@st.composite
def perturbed_series(draw):
    start = draw(STARTS)
    when = start.replace(minute=draw(MINUTES))
    lines = ["timestamp,utilisation"]
    for _ in range(draw(SERIES_LENGTHS)):
        kind = draw(KINDS)
        if kind == "blank":
            lines.append("")
            continue
        shift = draw(JUMPS_MIN) if kind == "jump" else 60
        if len(lines) == 1:
            shift = 0
        try:
            when += dt.timedelta(minutes=shift)
        except OverflowError:   # past 9999-12-31: any row may follow
            when = LAST_HOUR if draw(RESTARTS) else start
        value = "1.5" if kind == "bad_value" else "0.5"
        lines.append(f"{spelled(when, kind)},{value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=600, deadline=None)
@given(text=perturbed_series())
def test_parse_matches_strptime_parser(text):
    assert outcome(parse_utilisation_csv, text) == \
        outcome(strptime_parse_utilisation, text)


@pytest.mark.parametrize("rows, error", [
    (["9999-12-31T23:00", "9999-12-31T23:00"], NonMonotonicTime),
    (["9999-12-31T23:00", "2016-06-01T00:00"], NonMonotonicTime),
    (["9999-12-31T22:00", "9999-12-31T23:00", "9999-12-31T23:59"],
     GapInSeries),
    (["2100-02-28T23:00", "2100-02-29T00:00"], MalformedRow),
    (["2016-02-28T23:00", "2016-02-29T00:00", "2016-02-29T02:00"],
     GapInSeries),
    (["2016-02-28T23:00", "2016-03-01T00:00"], GapInSeries),
    (["2016-12-31T23:00", "2017-01-02T00:00"], GapInSeries),
    (["2016-06-01T10:30", "2016-06-01T11:00"], GapInSeries),
    (["2016-06-01T10:30", "2016-06-01T11:30", "2016-06-01T11:30"],
     NonMonotonicTime),
])
def test_edge_series_match_strptime_parser(rows, error):
    text = "timestamp,utilisation\n" + "".join(f"{r},0.5\n" for r in rows)
    got = outcome(parse_utilisation_csv, text)
    assert got == outcome(strptime_parse_utilisation, text)
    assert got[0] is error


def test_canonical_rollovers_accepted():
    rows = ["2016-02-28T23:00", "2016-02-29T00:00", "2016-12-31T23:30",
            "2100-02-28T23:00", "9999-12-31T22:00"]
    for first in rows:
        when = dt.datetime.fromisoformat(first)
        text = "timestamp,utilisation\n" + "".join(
            f"{(when + dt.timedelta(hours=h)).isoformat(timespec='minutes')}"
            f",0.5\n" for h in range(2))
        assert parse_utilisation_csv(text) == strptime_parse_utilisation(text)


def test_row_loop_parses_each_stamp_once():
    # Unpadded stamps fail the column pass, so every row takes the loop.
    first = dt.datetime(2016, 1, 1)
    text = "timestamp,utilisation\n" + "".join(
        f"{spelled(first + dt.timedelta(hours=h), 'unpadded')},0.5\n"
        for h in range(8760))
    with mock.patch.object(profiles, "_parse_timestamp",
                           wraps=profiles._parse_timestamp) as parse:
        assert len(parse_utilisation_csv(text)) == 8760
    assert parse.call_count == 8760


# --- whole-column parse against the row loop ---

FIELD_LIMIT = csv.field_size_limit()
VALUES = {   # per parser: in-range values, then values of other kinds
    "utilisation": (st.floats(0.0, 1.0), st.sampled_from(
        ["nan", "inf", "-inf", "1.5", "1.0000000000000002", "-1e-300",
         "-0.0", "1e-400", "abc", "", " 0.5 ", "0.5,1", "1_0",
         "0.5" + " " * FIELD_LIMIT])),
    "temperature": (st.floats(-60.0, 60.0), st.sampled_from(
        ["nan", "-inf", "61", "-60.00000000000001", "-60.0", "60", "x", "",
         "\t12.5", "20,1", "20" + " " * (FIELD_LIMIT - 2)])),
}
PARSERS = st.sampled_from(sorted(VALUES))
HEADERS = {kind: st.sampled_from([f"timestamp,{column}"] * 12 + [
    f" timestamp , {column}", f"timestamp,{column},", "timestamp",
    f'"timestamp",{column}', ""]) for kind, column in (
        ("utilisation", "utilisation"), ("temperature", "temperature_c"))}
ROW_COUNTS = st.integers(0, 30)
# Each text is clean or clean but untidy, with up to two odd rows.
ROW_KINDS = {row_kinds: st.sampled_from(row_kinds) for row_kinds in (
    ("keep",), ("keep",) * 2 + ("spaces", "blank", "whitespace"))}
ROW_KIND_SETS = st.sampled_from(list(ROW_KINDS))
ODD_ROWS = st.integers(0, 2)
ODD_KINDS = st.sampled_from(["unpadded", "spaces", "jump", "blank",
                             "whitespace", "other_value", "quoted",
                             "one_field"])
NEWLINES = st.sampled_from(["\n"] * 3 + ["\r\n"])
ENDINGS = {newline: st.sampled_from(["", newline, "\n\n"])
           for newline in ("\n", "\r\n")}


@st.composite
def profile_texts(draw):
    """A profile CSV with defects of every kind the row loop names."""
    kind = draw(PARSERS)
    good, others = VALUES[kind]
    header = draw(HEADERS[kind])
    when = draw(STARTS)
    n, kinds = draw(ROW_COUNTS), ROW_KINDS[draw(ROW_KIND_SETS)]
    row_kinds = [draw(kinds) for _ in range(n)]
    for _ in range(draw(ODD_ROWS) if n else 0):
        row_kinds[draw(INDEX[n])] = draw(ODD_KINDS)
    lines = [header]
    for row, row_kind in enumerate(row_kinds):
        if row_kind in ("blank", "whitespace"):
            lines.append("" if row_kind == "blank" else " \t ")
            continue
        shift = draw(JUMPS_MIN) if row_kind == "jump" else 60
        try:
            when += dt.timedelta(minutes=shift if row else 0)
        except OverflowError:   # past 9999-12-31: any row may follow
            when = LAST_HOUR
        stamp = spelled(when, row_kind)
        value = draw(others) if row_kind == "other_value" else repr(draw(good))
        if row_kind == "quoted":
            stamp = f'"{stamp}"'
        lines.append(stamp if row_kind == "one_field" else f"{stamp},{value}")
    newline = draw(NEWLINES)
    text = newline.join(lines) + draw(ENDINGS[newline])
    return kind, draw(BOMS) + text


PARSE = {"utilisation": parse_utilisation_csv,
         "temperature": parse_temperature_csv}


def by_rows(kind, text):
    """The public parser with its whole-column pass turned off."""
    with mock.patch.object(profiles, "_parse_columns", return_value=None):
        return outcome(PARSE[kind], text)


@settings(max_examples=1000, deadline=None)
@given(case=profile_texts())
def test_column_parse_agrees_with_the_row_loop(case):
    kind, text = case
    assert outcome(PARSE[kind], text) == by_rows(kind, text)


def stamps_from(first, n):
    return [(first + dt.timedelta(hours=h)).isoformat(timespec="minutes")
            for h in range(n)]


@pytest.mark.parametrize("text", [
    "timestamp,utilisation\n" + "".join(
        f"{stamp},0.5\n" for stamp in stamps_from(dt.datetime(2016, 1, 1), 48)),
    # Feb 29, padded cells, blank lines, no final newline
    " timestamp ,utilisation\n\n 2016-02-28T23:30 , 1 \n   \n"
    "2016-02-29T00:30,0\n2016-02-29T01:30,1e-3",
    # the last hour there is
    "timestamp,utilisation\n9999-12-31T22:00,0.5\n9999-12-31T23:00,0.5\n",
    "timestamp,utilisation\n0001-01-01T00:00,0.5\n0001-01-01T01:00,0.5\n",
    "timestamp,utilisation\r\n2016-01-01T00:00,0.5\r\n",
], ids=["two-days", "untidy", "last-hours", "first-hours", "crlf"])
def test_clean_series_are_parsed_as_columns(text):
    columns = profiles._parse_columns(text, profiles.UTILISATION_HEADER,
                                      0.0, 1.0)
    assert columns is not None
    assert UtilisationProfile(*columns) == by_rows("utilisation", text)


@pytest.mark.parametrize("text", [
    'timestamp,utilisation\n"2016-01-01T00:00",0.5\n',
    "timestamp,utilisation\n2016-1-1T0:0,0.5\n",   # strptime reads it
    # one field, then three: right as cells, wrong as rows
    "timestamp,utilisation\n2016-01-01T00:00\n0.5,2016-01-01T01:00,0.5\n",
    "timestamp,utilisation\n2016-01-01T00:00,0.5\n2016-01-01T01:30,0.5\n",
    "timestamp,utilisation\n2016-01-01T00:00,0.5" + " " * FIELD_LIMIT + "\n",
], ids=["quoted", "one-digit", "one-then-three-fields", "gap",
        "long-line"])
def test_other_series_are_left_to_the_row_loop(text):
    assert profiles._parse_columns(text, profiles.UTILISATION_HEADER,
                                   0.0, 1.0) is None


@pytest.mark.parametrize("padding, accepted", [
    (FIELD_LIMIT - 3, True), (FIELD_LIMIT - 2, False)],
    ids=["at-limit", "past-limit"])
def test_field_longer_than_the_csv_limit_is_a_malformed_row(padding,
                                                            accepted):
    text = ("timestamp,utilisation\n2016-01-01T00:00,0.5\n"
            "2016-01-01T01:00,0.5" + " " * padding + "\n")
    if accepted:
        assert parse_utilisation_csv(text).values == (0.5, 0.5)
    else:
        with pytest.raises(MalformedRow, match=(
                f"^row 2: field larger than field limit \\({FIELD_LIMIT}\\)$")):
            parse_utilisation_csv(text)


def test_over_long_header_field_is_a_malformed_row():
    with pytest.raises(MalformedRow, match="^header: field larger"):
        parse_utilisation_csv("t" * (FIELD_LIMIT + 1) + ",utilisation\n")


# --- temperature parser ---

def test_temperature_echo():
    profile = parse_temperature_csv(
        "timestamp,temperature_c\n2016-06-01T00:00,30")
    assert profile.values == (30.0,)


def test_temperature_out_of_range():
    with pytest.raises(OutOfRange):
        parse_temperature_csv("timestamp,temperature_c\n2016-06-01T00:00,99")
    with pytest.raises(OutOfRange):
        parse_temperature_csv("timestamp,temperature_c\n2016-06-01T00:00,-75")


def test_temperature_bounds_are_inclusive():
    profile = parse_temperature_csv(
        "timestamp,temperature_c\n2016-06-01T00:00,-60\n2016-06-01T01:00,60")
    assert profile.values == (-60.0, 60.0)
    for value in ("-60.5", "60.5"):
        with pytest.raises(OutOfRange):
            parse_temperature_csv(
                f"timestamp,temperature_c\n2016-06-01T00:00,{value}")


def test_temperature_empty_body():
    with pytest.raises(EmptyProfile):
        parse_temperature_csv("timestamp,temperature_c\n")


def test_negative_temperatures_accepted():
    profile = parse_temperature_csv(
        "timestamp,temperature_c\n2016-06-01T00:00,-12.5")
    assert profile.values == (-12.5,)


def test_bom_prefixed_temperatures_accepted():
    text = hourly_csv("timestamp,temperature_c", [-3.5, 12.0])
    assert parse_temperature_csv("\ufeff" + text) == \
        parse_temperature_csv(text)


# --- results CSV ---

def run_constant(hours: int, utilisation: float = 0.5, ambient: float = 30.0):
    scenario = default_scenario()
    u = parse_utilisation_csv(
        hourly_csv("timestamp,utilisation", [utilisation] * hours))
    t = parse_temperature_csv(
        hourly_csv("timestamp,temperature_c", [ambient] * hours))
    return simulate(u, t, scenario)


def test_single_step_csv_total_field():
    result = run_constant(1)
    lines = write_results_csv(result).strip().split("\n")
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 2
    total_field = float(lines[1].split(",")[-1])
    assert total_field == pytest.approx(result.steps[0].power.total_w,
                                        rel=1e-9)


def test_weekly_run_row_count():
    result = run_constant(168)
    lines = write_results_csv(result).strip().split("\n")
    assert len(lines) == 1 + 168


def test_component_columns_sum_to_total():
    result = run_constant(24, utilisation=0.8, ambient=35.0)
    for line in write_results_csv(result).strip().split("\n")[1:]:
        fields = [float(x) for x in line.split(",")[3:]]
        components, total = fields[:-1], fields[-1]
        assert sum(components) == pytest.approx(total, rel=1e-9)


def test_empty_result_rejected():
    # write_results_csv never sees an empty result: none can be built.
    result = run_constant(1)
    with pytest.raises(EmptyResult, match="^a simulation result needs at "
                       "least one hour$"):
        type(result)(timestamps=(), utilisation=(), ambient_c=(),
                     components=((),) * 8)


def test_round_trip_preserves_profile_columns():
    result = run_constant(24, utilisation=1 / 3, ambient=31.7)
    lines = write_results_csv(result).strip().split("\n")[1:]
    util_csv = "timestamp,utilisation\n" + "\n".join(
        ",".join(line.split(",")[:2]) for line in lines)
    temp_csv = "timestamp,temperature_c\n" + "\n".join(
        ",".join([line.split(",")[0], line.split(",")[2]]) for line in lines)
    util = parse_utilisation_csv(util_csv)
    temp = parse_temperature_csv(temp_csv)
    for i in range(24):
        assert util.timestamps[i] == result.steps[i].timestamp
        assert util.values[i] == pytest.approx(
            result.steps[i].utilisation, rel=1e-6)
        assert temp.values[i] == pytest.approx(
            result.steps[i].ambient_c, rel=1e-6)


def csv_writer_text(result):
    """The results CSV as csv.writer with .10g numbers used to write it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for step in result.steps:
        writer.writerow([step.timestamp,
                         *(format(x, ".10g") for x in (
                             step.utilisation, step.ambient_c,
                             *step.power.components, step.power.total_w))])
    return out.getvalue()


def hand_built(stamps):
    n = len(stamps)
    return SimulationResult(
        stamps, (0.5,) * n, (30.0,) * n,
        tuple((float(10 ** k) / 3,) * n for k in range(8)))


def test_csv_quotes_timestamps_as_csv_writer_does():
    result = hand_built(("2016-06-01T00:00", 'say "hi"', "a,b",
                         "two\nlines", " padded ", ""))
    assert write_results_csv(result) == csv_writer_text(result)


def test_csv_quotes_a_carriage_return():
    # csv.writer quotes a lone CR only from Python 3.13 on; the results CSV
    # always does, so a reader gets the stamp back on every version.
    stamps = ("a\rb", "c\r\nd", "e\r")
    text = write_results_csv(hand_built(stamps))
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert tuple(row[0] for row in rows[1:]) == stamps


# Text without a CR, whose quoting by csv.writer depends on the version.
STAMP_TEXT = st.text(st.characters(blacklist_characters="\r"), max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    STAMP_TEXT, st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=8,
             max_size=8)), min_size=1, max_size=20))
def test_csv_matches_csv_writer(rows):
    result = SimulationResult(
        tuple(r[0] for r in rows), tuple(r[1] for r in rows),
        tuple(r[2] for r in rows), tuple(zip(*(r[3] for r in rows))))
    assert write_results_csv(result) == csv_writer_text(result)
