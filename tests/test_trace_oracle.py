"""Differential tests: the byte-level trace codec against the line-at-a-time oracle.

``vrburst.generator.load_trace`` checks and converts a whole trace at once, on
its bytes; ``trace_oracle.load_trace`` walks it line by line. On any text both
must give the same int64 ``records`` and ``metadata`` (keys in the same order),
or the same :class:`TraceParseError` message. The texts mix data rows, comments
and blank lines in any order; every line end ``str.splitlines`` knows (LF,
CRLF, CR, VT, FF, FS, GS, RS, NEL, U+2028, U+2029); ASCII and Unicode
whitespace around fields; comments with non-ASCII text, or with a line end
inside; malformed rows, zero sizes and periods, sizes around 2**63 and period
totals on both sides of int64. They are UTF-8 and hold no byte-order mark and
no non-ASCII digit, the places where the parsers differ on purpose:
``TestLoadTrace`` covers the other bytes and the mark, and
``test_non_ascii_digits_are_rejected`` the digits.

``vrburst.generator.save_trace`` formats the digits as arrays; it must write
the bytes of ``trace_oracle.save_trace``, which formats one ``%d`` string.
"""

import numpy as np
import pytest
import trace_oracle as oracle
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vrburst.generator import BurstDescriptor, TraceParseError, load_trace, save_trace

# the last four end a line in str.splitlines(); the three before them are Unicode spaces
WS = st.sampled_from(["", " ", "\t", "  ", " \t ", "\x1f", "\xa0", "\u2009", "\u3000 ",
                      "\x0b", "\x0c", "\x1c", "\x85"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                             "\u2028", "\u2029"])
SIZES = st.integers(1, 100_000)
PERIODS = st.integers(1, 100_000)  # us
EDGE_SIZES = st.one_of(st.sampled_from([0, 2**63 - 1, 2**63, 2**64, 10**30]), SIZES)
# two of 4_611_686_018_427_387 us leave the total 1807 ns below 2**63, so one
# more period of 1 us fits and one of 2 us does not
EDGE_PERIODS = st.one_of(
    st.sampled_from([0, 4_611_686_018_427_387, 4_611_686_018_427_388, 9_223_372_036_854_775,
                     9_223_372_036_854_776, 2**63]),
    st.sampled_from([1, 2]),
    PERIODS,
)
MALFORMED_ROWS = st.sampled_from([
    "1000", "1000,16667,5", "1000,", ",16667", "1000 16667", "abc,5", "10,x1", "1000,1²",
    "-5,10", "+5,10", "1.5,2", "1_000,5", "0x10,5", "1000,16667 # tail", "1,2,", " ,1",
    "1000\xa016667,5", "10,5é", "7#8", "1000,16667#",
])


@st.composite
def data_rows(draw, sizes=SIZES, periods=PERIODS):
    pad = [draw(WS) for _ in range(4)]
    zeros = draw(st.sampled_from(["", "", "0", "000"]))
    return f"{pad[0]}{zeros}{draw(sizes)}{pad[1]},{pad[2]}{draw(periods)}{pad[3]}"


@st.composite
def comment_lines(draw):
    body = draw(st.sampled_from([" fps: 60", "fps:30", " seed : 7 ", " note", "", "# model: vr",
                                 " : no key", " rate: 5: 6", " fps: 90", " 1000,16667", " größe: 5 ",
                                 " 名前: テスト", " note:\u2009café\xa0", "\u3000fps: 24",
                                 " a: 1\u2028 2,3", " b: 4\x855,6", " c\x0c7,8"]))
    return f"{draw(WS)}#{body}"


@st.composite
def trace_texts(draw):
    """Well-formed lines, then up to three malformed or edge-valued rows
    anywhere among them, each line ended by any line end (the last maybe not)."""
    body = draw(st.lists(st.one_of(data_rows(), data_rows(), comment_lines(), WS), max_size=10))
    hazards = st.one_of(MALFORMED_ROWS, data_rows(EDGE_SIZES, EDGE_PERIODS))
    for hazard in draw(st.lists(hazards, max_size=3)):
        body.insert(draw(st.integers(0, len(body))), hazard)
    ends = draw(st.lists(LINE_ENDS, min_size=len(body), max_size=len(body)))
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(body, ends))


def parse(load, path):
    try:
        trace = load(path)
    except TraceParseError as error:
        return str(error)
    assert trace.records.dtype == np.int64
    return trace.records.tolist(), list(trace.metadata.items())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=trace_texts())
@example(text="# fps: 60\r\n\r\n  7 ,\t16667 \r\n# fps: 30\n8,16667")
@example(text=f"1,{4_611_686_018_427_387}\n2,{4_611_686_018_427_387}\n3,1\n4,1\n")
@example(text=f"{2**63 - 1},1\n{2**63},1\n")
@example(text="1,1\n0,1\nabc,1\n")
@example(text="1,1\n\n# no rows after\n1,0")
@example(text="# a: 1\r# b: 2\r# a: 3\r5,\xa06\r")
@example(text="# note\u2028 1,2\n3,4\r\r\n5,\x1f6\x0c# x: y\x85")
@example(text="\xa0# größe: 5\n1,2\n")
@example(text="# note\u2028 1,2\n3,4\n")  # a comment that str.splitlines() ends early
@example(text="12#3\n4,5\n")
@example(text=f"{'0' * 17}1,{'0' * 30}5\n{'9' * 16},{'9' * 17}\n")
def test_bulk_parser_matches_oracle(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    assert parse(load_trace, path) == parse(oracle.load_trace, path)


@pytest.mark.parametrize("row, what, token, oracle_row", [
    ("١٢٣,16667", "burst size", "١٢٣", [123, 16_667_000]),
    ("1000,１２", "next period", "１２", [1000, 12_000]),
])
def test_non_ascii_digits_are_rejected(tmp_path, row, what, token, oracle_row):
    # str.isdecimal and int() take Arabic-Indic and full-width digits; the
    # grammar takes ASCII 0-9 only
    path = tmp_path / "trace.csv"
    path.write_bytes(f"# fps: 60\n1000,16667\n{row}\n".encode())
    assert oracle.load_trace(path).records.tolist()[1] == oracle_row
    with pytest.raises(TraceParseError, match=f"line 3: {what} must be an unsigned integer, got '{token}'"):
        load_trace(path)


HEADER = [f"# {key}: {value}" for key, value in [
    ("source", "vrburst generate"), ("model", "vr"), ("seed", "97"), ("duration_s", "50.0"),
    ("period_unit", "us"), ("target_rate_mbps", "50.0"), ("fps", "60.0"), ("constants", "{}"),
]]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("bad", [
    "1000,16667,5",  # two fields
    "10x,16667",  # an unsigned size
    "1000,-5",  # an unsigned period
    "0,16667",  # a size of at least 1
    "1000,0",  # a positive period
    f"{2**63},16667",  # the size within int64
    "1000,9223372036854775",  # the total of the periods within int64
])
def test_error_line_in_a_full_size_file(tmp_path, bad, end):
    # a bad row 2500 lines in: the byte offsets of the row and its line end are far from the start
    rows = [f"{100_000 + 37 * i},{16_000 + i % 1000}" for i in range(3000)]
    rows[2500 - len(HEADER) - 1] = bad
    path = tmp_path / "trace.csv"
    path.write_bytes(end.join(HEADER + rows + [""]).encode())
    message = parse(oracle.load_trace, path)
    assert message.startswith("line 2500: ")
    assert parse(load_trace, path) == message


ROW_SIZES = st.one_of(
    st.sampled_from([0, -1, 1, 9, 10, 99_999_999, 100_000_000, 10**16 - 1, 10**16, 2**63 - 1, -2**63]),
    st.integers(-2**63, 2**63 - 1),
    st.integers(1, 10**7),
)
ROW_PERIODS = st.one_of(
    st.sampled_from([-2**63, -1_000_000, -1, 0, 1, 499, 500, 501, 999, 1000, 1500, 2500, 3500,
                     2**53 - 1, 2**53, 2**53 + 1, 2**53 + 500, 2**53 + 1500, 2**63 - 1]),
    st.integers(-2**63, 2**63 - 1),
    st.integers(2**53 - 10**6, 2**53 + 10**6),
    st.integers(1_000_000, 100_000_000),
)
METADATA = st.dictionaries(
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8),
    st.one_of(st.text(st.characters(exclude_categories=("Cs",)), max_size=12), st.integers(), st.floats()),
    max_size=4,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(ROW_SIZES, ROW_PERIODS), max_size=20),
       form=st.sampled_from(["array", "list", "descriptors"]), metadata=st.one_of(st.none(), METADATA))
@example(rows=[], form="array", metadata=None)
@example(rows=[(-2**63, 2**63 - 1), (2**63 - 1, 2**53 + 500), (0, 500), (-1, 1500)], form="array",
         metadata={"note": "größe\u2009名前", "fps": 60.0})
def test_writer_matches_oracle(tmp_path, rows, form, metadata):
    if form == "descriptors":
        records = [BurstDescriptor(max(size, 1), max(period, 0)) for size, period in rows]
    else:
        records = np.array(rows, np.int64).reshape(-1, 2) if form == "array" else rows
    save_trace(tmp_path / "new.csv", records, metadata)
    oracle.save_trace(tmp_path / "old.csv", records, metadata)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
