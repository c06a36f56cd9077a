"""Differential test: the bulk trace parser against the line-at-a-time oracle.

``vrburst.generator.load_trace`` checks and converts a whole trace at once;
``trace_oracle.load_trace`` walks it line by line. On any text both must give
the same int64 ``records`` and ``metadata``, or the same
:class:`TraceParseError` message. The texts mix data rows, comments and blank
lines in any order, LF and CRLF endings, whitespace around fields, malformed
rows, zero sizes and periods, sizes around 2**63 and period totals on both
sides of int64. They hold no byte-order mark and no non-ASCII digit, the two
places where the parsers differ on purpose: ``TestLoadTrace`` covers the mark
and ``test_non_ascii_digits_are_rejected`` the digits.
"""

import numpy as np
import pytest
import trace_oracle as oracle
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vrburst.generator import TraceParseError, load_trace

WS = st.sampled_from(["", " ", "\t", "  ", " \t "])
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
    "1000", "1000,16667,5", "1000,", ",16667", "1000 16667", "abc,5", "10,x1", "1000,1\u00b2",
    "-5,10", "+5,10", "1.5,2", "1_000,5", "0x10,5", "1000,16667 # tail", "1,2,", " ,1",
])


@st.composite
def data_rows(draw, sizes=SIZES, periods=PERIODS):
    pad = [draw(WS) for _ in range(4)]
    zeros = draw(st.sampled_from(["", "", "0", "000"]))
    return f"{pad[0]}{zeros}{draw(sizes)}{pad[1]},{pad[2]}{draw(periods)}{pad[3]}"


@st.composite
def comment_lines(draw):
    body = draw(st.sampled_from([" fps: 60", "fps:30", " seed : 7 ", " note", "", "# model: vr",
                                 " : no key", " rate: 5: 6", " fps: 90", " 1000,16667"]))
    return f"{draw(WS)}#{body}"


@st.composite
def trace_texts(draw):
    """Well-formed lines, then up to three malformed or edge-valued rows
    anywhere among them, each line ended by LF or CRLF (the last maybe not)."""
    body = draw(st.lists(st.one_of(data_rows(), data_rows(), comment_lines(), WS), max_size=10))
    hazards = st.one_of(MALFORMED_ROWS, data_rows(EDGE_SIZES, EDGE_PERIODS))
    for hazard in draw(st.lists(hazards, max_size=3)):
        body.insert(draw(st.integers(0, len(body))), hazard)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(body), max_size=len(body)))
    text = "".join(line + end for line, end in zip(body, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def parse(load, path):
    try:
        trace = load(path)
    except TraceParseError as error:
        return str(error)
    assert trace.records.dtype == np.int64
    return trace.records.tolist(), trace.metadata


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=trace_texts())
@example(text="# fps: 60\r\n\r\n  7 ,\t16667 \r\n# fps: 30\n8,16667")
@example(text=f"1,{4_611_686_018_427_387}\n2,{4_611_686_018_427_387}\n3,1\n4,1\n")
@example(text=f"{2**63 - 1},1\n{2**63},1\n")
@example(text="1,1\n0,1\nabc,1\n")
@example(text="1,1\n\n# no rows after\n1,0")
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
