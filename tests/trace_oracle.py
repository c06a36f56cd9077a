"""Reference trace parser and writer for differential tests; not used by the package.

``load_trace`` is the line-at-a-time parser that ``vrburst.generator.load_trace``
replaced with bulk checks over the file's bytes: it strips and splits every
line, tests each field with ``str.isdecimal`` and converts it with ``int``, and
keeps the running total of the periods as a Python int. It differs from the
package parser in three ways, each tested on its own: it reads the file as
``utf-8``, so a leading byte-order mark is part of line 1 and a file that is
not UTF-8 raises ``UnicodeDecodeError``, and it accepts any Unicode decimal
digit (``int`` parses them), where the package accepts ASCII ``0-9`` only.

``save_trace`` is the writer that ``vrburst.generator.save_trace`` replaced
with digits formatted as arrays: one ``%d,%d`` string over all the rows.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from vrburst.generator import _INT64_MAX, NS_PER_US, TraceFile, TraceParseError


def _parse_metadata_line(line: str) -> tuple[str, str] | None:
    body = line.lstrip("#").strip()
    if ":" not in body:
        return None
    key, _, value = body.partition(":")
    key = key.strip()
    if not key:
        return None
    return key, value.strip()


def _parse_uint(token: str, what: str, lineno: int) -> int:
    token = token.strip()
    if not token.isdecimal():  # isdigit() also takes superscripts, which int() rejects
        raise TraceParseError(f"line {lineno}: {what} must be an unsigned integer, got {token!r}")
    return int(token)


def load_trace(path) -> TraceFile:
    """Parse a trace CSV; raises :class:`TraceParseError` with line numbers."""
    values: list[int] = []  # size, period (ns), size, period, ...
    total_ns = 0  # burst times are int64 running totals of the periods
    metadata: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parsed = _parse_metadata_line(line)
            if parsed:
                metadata[parsed[0]] = parsed[1]
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise TraceParseError(f"line {lineno}: expected 'burst_size,next_period', got {line!r}")
        size = _parse_uint(fields[0], "burst size", lineno)
        period_ns = _parse_uint(fields[1], "next period", lineno) * NS_PER_US
        if size < 1:
            raise TraceParseError(f"line {lineno}: burst size must be at least 1 byte")
        if period_ns <= 0:
            # burst times must be strictly increasing along the trace
            raise TraceParseError(f"line {lineno}: next period must be positive")
        total_ns += period_ns
        if size > _INT64_MAX or total_ns > _INT64_MAX:
            raise TraceParseError(
                f"line {lineno}: burst size and the total of the next periods so far (in ns) must fit in int64"
            )
        values += size, period_ns
    if not values:
        raise TraceParseError(f"{path}: no data rows")
    return TraceFile(records=np.array(values, np.int64).reshape(-1, 2), metadata=metadata)


def save_trace(path, records, metadata: dict | None = None) -> None:
    """Write a trace CSV with a ``# key: value`` metadata header; periods are
    rounded to whole microseconds, at least 1."""
    sizes, periods_ns = np.asarray(records, np.int64).reshape(-1, 2).T
    # np.rint of the float quotient is round(period_ns / NS_PER_US) while the
    # int64 -> float64 conversion is exact; Python's int division stays exact beyond
    periods_us = np.maximum(np.rint(periods_ns / NS_PER_US), 1).astype(np.int64)
    beyond = np.flatnonzero(periods_ns >= 2**53)
    periods_us[beyond] = [max(1, round(period_ns / NS_PER_US)) for period_ns in periods_ns[beyond].tolist()]
    header = "".join(f"# {key}: {value}\n" for key, value in (metadata or {}).items())
    rows = ("%d,%d\n" * len(sizes)) % tuple(np.column_stack((sizes, periods_us)).ravel().tolist())
    Path(path).write_text(header + rows, encoding="utf-8")
