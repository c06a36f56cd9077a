"""Burst generators: sources of (burst size, next period) pairs.

A burst is an application-layer unit (one encoded video frame for the VR
model) that the sender will fragment; ``next_period`` is the gap until the
following burst. Three generators are provided: arbitrary random variates
(:class:`SimpleBurstGenerator`), the fitted VR model
(:class:`VrBurstGenerator`), and CSV trace replay
(:class:`TraceFileBurstGenerator`). :func:`build_generators` builds one per
station from a :class:`GeneratorConfig`. :func:`schedule_stations` is the
generation horizon every caller applies and the one loop that computes bursts
up to it: it returns each station's burst times, sizes and periods as int64
arrays, drawing the blocks of the VR stations of one model together, and
:meth:`BurstGenerator.schedule` is its one-station case. After an error, a
single generator keeps the bursts computed before it next in line; generators
scheduled together are not to be used.

The two random generators compute up to ``BLOCK_BURSTS`` bursts at a time
from one flat array of uniforms, read burst after burst in this word layout:

* VR: 2 words (component pick, normal) for the frame-size mixture; while the
  draw is non-positive, 2 more for a redraw, at most 100 draws in all (else
  :class:`vrburst.model.DegenerateModelError`); then 1 word for the logistic
  inter-frame interval;
* simple: ``size_dist.words`` words for the size, then ``period_dist.words``
  for the period (1 each, 0 for a constant).

Words a block leaves unread are the first words of the next block, so the
bursts do not depend on the block size and equal those of a walk that draws
each word when it needs it.

Trace CSV grammar: one ``burst_size_bytes,next_period_us`` row per burst
(unsigned integers in ASCII digits, whitespace allowed around each field),
with blank lines and ``#`` comment lines anywhere (``# key: value`` ones are
metadata), LF or CRLF line endings and an optional UTF-8 byte-order mark.
Periods are stored as integer microseconds to keep files round-trip exact. A parsed :class:`TraceFile` holds the rows as ``records``,
one ``(n, 2)`` int64 array with the columns ``burst_size`` (bytes) and
``next_period_ns``, so sizes and the total of the periods (in ns) must fit
in int64.
"""

from __future__ import annotations

import itertools
import re
from abc import ABC, abstractmethod
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .model import DEFAULT_CONSTANTS, DegenerateModelError, VrModelConstants, VrStreamParams
from .model import derive_frame_size_model, derive_ifi_model
from .rv import ParameterError, RngStream, dist_from_spec, gmm2_quantile, logistic_quantile

NS_PER_US = 1_000
NS_PER_S = 1_000_000_000
_INT64_MAX = 2**63 - 1

# Bursts computed per block by the random generators.
BLOCK_BURSTS = 256
# A drawn period is below this, so a block's periods sum within int64.
_MAX_PERIOD_NS = 2**63 // BLOCK_BURSTS
# A VR frame gives up after this many consecutive non-positive size draws.
_MAX_FRAME_DRAW_ATTEMPTS = 100


class GeneratorExhaustedError(RuntimeError):
    """generate_burst() was called after has_next_burst() turned false."""


class TraceParseError(ValueError):
    """A trace file failed to parse; the message names the offending line."""


class BurstDescriptor(namedtuple("BurstDescriptor", "burst_size next_period_ns")):
    """One burst: size in bytes (>= 1) and the gap to the next burst in ns.

    Construction checks both fields, and so do ``_make`` and ``_replace``;
    ``tuple.__new__(BurstDescriptor, (size, period))`` skips the checks, for
    values that already satisfy them.

    A descriptor is a tuple: it equals the plain tuple ``(size, period)``,
    unpacks, indexes and orders as one, and the ``dataclasses`` helpers
    (``asdict``, ``replace``) do not accept it.
    """

    __slots__ = ()

    def __new__(cls, burst_size: int, next_period_ns: int):
        if burst_size < 1:
            raise ValueError(f"burst size must be at least 1 byte, got {burst_size}")
        if next_period_ns < 0:
            raise ValueError(f"next period must be non-negative, got {next_period_ns}")
        return tuple.__new__(cls, (burst_size, next_period_ns))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


@dataclass(eq=False)
class TraceFile:
    """Parsed trace: ``records``, an ``(n, 2)`` int64 array of (burst_size,
    next_period_ns) rows in file order, plus the commented-header metadata.
    Any ``(n, 2)`` integer sequence given, such as a list of descriptors,
    becomes one."""

    records: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.records = np.asarray(self.records, np.int64).reshape(-1, 2)


class BurstGenerator(ABC):
    """Hands out burst descriptors until exhausted (stochastic ones never are).

    A generator keeps the bursts it has computed but not handed out yet;
    :meth:`_next_bursts` computes more when they run out.
    """

    def __init__(self):
        self._sizes = self._periods = np.empty(0, dtype=np.int64)
        self._next = 0  # index of the next burst to hand out

    @abstractmethod
    def _next_bursts(self):
        """Sizes (bytes) and periods (ns) of the next bursts, as int64 arrays,
        or None when the generator is exhausted."""

    def has_next_burst(self) -> bool:
        """True iff generate_burst() may be called."""
        if self._next == len(self._sizes):
            more = self._next_bursts()
            if more is None:
                return False
            (self._sizes, self._periods), self._next = more, 0
        return True

    def generate_burst(self) -> BurstDescriptor:
        """Return the next burst descriptor and advance the generator."""
        if not self.has_next_burst():
            raise GeneratorExhaustedError("generator has handed out its last burst")
        i = self._next
        self._next = i + 1
        return tuple.__new__(BurstDescriptor, (int(self._sizes[i]), int(self._periods[i])))

    def schedule(self, duration_ns, offset_ns: int = 0):
        """Generation times, sizes and periods of every burst generated before
        ``duration_ns``, the first at ``offset_ns``: the one-station case of
        :func:`schedule_stations`."""
        return schedule_stations([self], duration_ns, [offset_ns])[0]


class SimpleBurstGenerator(BurstGenerator):
    """Independent draws from arbitrary size/period distributions.

    ``size_dist`` samples are bytes (rounded, floored at 1); ``period_dist``
    samples are seconds (negative draws clamp to 0). Size is drawn before
    period, with no correlation between them or across bursts. The
    distributions are those of :func:`vrburst.rv.dist_from_spec`.
    """

    def __init__(self, size_dist, period_dist, rng: RngStream):
        super().__init__()
        self.rng = rng
        self.size_dist = size_dist
        self.period_dist = period_dist

    def _next_bursts(self):
        split, width = self.size_dist.words, self.size_dist.words + self.period_dist.words
        u = self.rng.uniform(BLOCK_BURSTS * width).reshape(BLOCK_BURSTS, width)
        with np.errstate(over="ignore", invalid="ignore"):  # _whole rejects the draws that overflow
            sizes, periods = self.size_dist.quantile(u[:, :split]), self.period_dist.quantile(u[:, split:])
        return _whole(sizes, periods)


class VrBurstGenerator(BurstGenerator):
    """Bursts following the fitted VR model for a (rate, fps) stream."""

    def __init__(
        self,
        params: VrStreamParams,
        rng: RngStream,
        constants: VrModelConstants = DEFAULT_CONSTANTS,
    ):
        super().__init__()
        self.rng = rng
        self.params = params
        self.constants = constants
        self._gmm = derive_frame_size_model(params, constants)
        self._ifi = derive_ifi_model(params, constants)
        self._carry = np.empty(0)  # words the last block left unread

    # defined on this class, not inherited: perfbench/tracer.py patches it here
    generate_burst = BurstGenerator.generate_burst

    def _next_bursts(self):
        return self._draw_blocks([self])[0]

    @staticmethod
    def _draw_blocks(generators):
        """The next block of each of several generators of one model, as each
        computes it alone, from at most two mixture evaluations for all.

        A block with no rejected draw is ``BLOCK_BURSTS`` 3-word rows, which
        needs the mixture at the row starts only. The blocks whose rows hold a
        rejected draw are read from the draws at every word offset, which one
        more evaluation gives for all of them.
        """
        gmm, rows = generators[0]._gmm, 3 * BLOCK_BURSTS
        words = [np.concatenate((g._carry, g.rng.uniform(rows))) for g in generators]
        starts = gmm2_quantile(gmm, np.concatenate([w[0:rows:3] for w in words]),
                               np.concatenate([w[1:rows:3] for w in words]))
        starts = np.split(starts, len(words))
        rejected = [bool((d <= 0.0).any()) for d in starts]
        redo = [w for w, r in zip(words, rejected) if r]
        if redo:
            every = gmm2_quantile(gmm, np.concatenate([w[:-1] for w in redo]), np.concatenate([w[1:] for w in redo]))
            every = iter(np.split(every, np.cumsum([len(w) - 1 for w in redo[:-1]])))
        blocks = []
        for g, w, d, r in zip(generators, words, starts, rejected):
            if r:
                blocks.append(g._read_block(w, next(every)))
            else:
                g._carry = w[rows:]
                blocks.append((d, w[2:rows:3]))
        sizes, periods = _whole(np.concatenate([raw for raw, _ in blocks]),
                                logistic_quantile(np.concatenate([ifi for _, ifi in blocks]), generators[0]._ifi))
        bounds = np.cumsum([0, *(len(raw) for raw, _ in blocks)]).tolist()
        return [(sizes[a:b], periods[a:b]) for a, b in zip(bounds, bounds[1:])]

    def _read_block(self, words, draws):
        """The block's raw sizes and inter-frame-interval words, from its words
        and ``draws[j]``, the mixture draw from words j and j+1."""
        # a burst starting at word p reads the draws at p, p+2, ... until one
        # is positive
        sizes, ifi_words = [], []
        pos = n = 0
        while n < BLOCK_BURSTS:
            # the bursts before the next rejected draw are 3-word rows
            m = min(BLOCK_BURSTS - n, (len(words) - pos) // 3)
            rejected = np.flatnonzero(draws[pos:pos + 3 * m:3] <= 0.0)
            ok = int(rejected[0]) if rejected.size else m
            sizes.append(draws[pos:pos + 3 * ok:3])
            ifi_words.append(words[pos + 2:pos + 3 * ok:3])
            n += ok
            pos += 3 * ok
            if ok == m or len(words) - pos <= 2 * _MAX_FRAME_DRAW_ATTEMPTS:
                break  # block full, or the words left may not hold the rejected burst
            tries = draws[pos:pos + 2 * _MAX_FRAME_DRAW_ATTEMPTS:2]
            used = next((i for i, value in enumerate(tries, 1) if value > 0.0), 0)  # stops at the first positive
            if not used:
                if n:
                    break  # hand out the bursts before it; the next block raises
                raise DegenerateModelError(
                    f"frame-size mixture produced {_MAX_FRAME_DRAW_ATTEMPTS} consecutive "
                    "non-positive draws; model parameters are degenerate"
                )
            sizes.append(tries[used - 1:used])
            ifi_words.append(words[pos + 2 * used:pos + 2 * used + 1])
            n += 1
            pos += 2 * used + 1
        self._carry = words[pos:]
        return np.concatenate(sizes), np.concatenate(ifi_words)


def sample_vr_frame(params: VrStreamParams, constants: VrModelConstants, rng: RngStream, size: int):
    """Sizes in bytes, as int64, of the first ``size`` bursts a
    :class:`VrBurstGenerator` on ``rng`` draws."""
    return _first_vr_bursts(params, constants, rng, size)[0]


def sample_vr_ifi(params: VrStreamParams, constants: VrModelConstants, rng: RngStream, size: int):
    """Periods in seconds (whole ns) of the first ``size`` bursts a
    :class:`VrBurstGenerator` on ``rng`` draws."""
    return _first_vr_bursts(params, constants, rng, size)[1] / NS_PER_S


def _first_vr_bursts(params, constants, rng, size):
    generator = VrBurstGenerator(params, rng, constants)
    blocks, n = [np.empty((2, 0), np.int64)], 0
    while n < size:
        blocks.append(np.stack(generator._next_bursts()))
        n += blocks[-1].shape[1]
    return np.concatenate(blocks, axis=1)[:, :size]


class TraceFileBurstGenerator(BurstGenerator):
    """Replays a trace record-by-record, exhausting after the last row.

    ``start_time_s`` skips the leading records whose burst times, as
    :meth:`schedule` counts them from 0, fall before it, so several generators
    over one file with disjoint start times replay disjoint parts of the
    trace. Records are skipped whole; bursts are atomic.
    """

    def __init__(self, trace: TraceFile, start_time_s: float = 0.0):
        if start_time_s < 0:
            raise ValueError(f"start time must be non-negative, got {start_time_s}")
        super().__init__()
        self._sizes, self._periods = trace.records.T
        self.schedule(round(start_time_s * NS_PER_S))  # skip the bursts before t0

    def _next_bursts(self):
        return None


def _whole(sizes, periods_s):
    """Sizes rounded to whole bytes (at least 1) and periods (s) to whole ns (at least 0), as
    int64; a NaN, a size of 2**63 or more or a period of ``_MAX_PERIOD_NS`` or more raises."""
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below reject what overflows
        sizes = np.maximum(np.rint(sizes), 1.0)
        periods = np.rint(np.maximum(0.0, periods_s) * NS_PER_S)
    if not sizes.max() < 2**63:  # NaN-safe: a NaN max compares False
        raise ParameterError(f"burst size draws must be finite and below 2**63 bytes, got {sizes.max()}")
    if not periods.max() < _MAX_PERIOD_NS:
        raise ParameterError(f"period draws must be finite and below {_MAX_PERIOD_NS} ns, got {periods.max()} ns")
    return sizes.astype(np.int64), periods.astype(np.int64)


def schedule_stations(generators: list[BurstGenerator], duration_ns, offsets_ns: list[int]) -> list:
    """Generation times, sizes and periods, as int64 arrays, of every burst each
    generator generates before ``duration_ns``; the generators advance past them.

    A generator's first burst is generated at its offset and each later one a
    period after the previous; periods are clamped to at least 1 ns so time
    always advances. The generators compute bursts in rounds until each has
    passed the horizon or is exhausted, and keep the ones after it for the next
    call, so ``duration_ns`` must be finite for a random generator, and the
    bursts computed, those past it included, must end before 2**63 ns (else
    :class:`ParameterError`). Each round
    evaluates the frame-size mixture for the VR stations of one model together
    (:meth:`VrBurstGenerator._draw_blocks`); every other generator computes its
    bursts alone. A generator's bursts do not depend on its block boundaries,
    so each schedule is the one its generator gives alone.

    On an error, each generator keeps the bursts it computed in the rounds
    before it next in line, so a single generator goes on from where it
    raised. Several generators scheduled together are not to be used after an
    error: the round that raised may have drawn some of them further.
    """
    vr = [g for g in generators if isinstance(g, VrBurstGenerator)]
    bank = {g for g in vr if (g._gmm, g._ifi) == (vr[0]._gmm, vr[0]._ifi)}
    blocks = {g: [(g._sizes[g._next:], g._periods[g._next:])] for g in generators}
    reach = {g: offset + int(np.maximum(blocks[g][0][1], 1).sum()) for g, offset in zip(generators, offsets_ns)}
    short = [g for g in generators if reach[g] < duration_ns]
    try:
        while short:
            banked = [g for g in short if g in bank]
            drawn = dict(zip(banked, VrBurstGenerator._draw_blocks(banked) if banked else ()))
            more = {g: drawn[g] if g in drawn else g._next_bursts() for g in short}
            for g, block in more.items():
                if block is not None:
                    blocks[g].append(block)
                    reach[g] += int(np.maximum(block[1], 1).sum())
            short = [g for g in short if more[g] is not None and reach[g] < duration_ns]
    finally:
        for g, queued in blocks.items():
            g._sizes, g._periods = map(np.concatenate, zip(*queued)) if len(queued) > 1 else queued[0]
            g._next = 0
    schedules = []
    for g, offset in zip(generators, offsets_ns):
        if reach[g] >= 2**63:  # the cumulative sum below would wrap
            raise ParameterError(f"burst times reach {reach[g]} ns, beyond int64")
        steps = np.maximum(g._periods, 1)
        times = np.cumsum(steps) - steps + offset
        g._next = n = int(np.searchsorted(times, duration_ns))
        schedules.append((times[:n], g._sizes[:n], g._periods[:n]))
    return schedules


@dataclass
class GeneratorConfig:
    """Which burst generator each station runs.

    ``model`` is one of ``vr`` (rate_mbps/fps), ``simple`` (size_dist/
    period_dist specs, see :func:`vrburst.rv.dist_from_spec`; sizes in bytes,
    periods in seconds) or ``trace`` (trace_path/start_time_s).
    """

    model: str = "vr"
    rate_mbps: float = 50.0
    fps: float = 60.0
    size_dist: str | None = None
    period_dist: str | None = None
    trace_path: str | None = None
    start_time_s: float = 0.0

    def __post_init__(self):
        if self.model not in ("vr", "simple", "trace"):
            raise ParameterError(f"unknown generator model {self.model!r}")
        if self.model == "simple" and not (self.size_dist and self.period_dist):
            raise ParameterError("simple model needs both size_dist and period_dist")
        if self.model == "trace" and not self.trace_path:
            raise ParameterError("trace model needs trace_path")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_generators(
    config: GeneratorConfig,
    n_stations: int,
    seed: int,
    duration_s: float,
    constants: VrModelConstants = DEFAULT_CONSTANTS,
) -> tuple[list[BurstGenerator], dict | None]:
    """One generator per station, and the trace metadata for the trace model.

    Station i draws from ``RngStream(seed, i + 1)``. With a trace, station i
    starts ``start_time_s + i * duration_s`` into the file, so stations
    running for ``duration_s`` replay disjoint parts of it.
    """
    if config.model == "vr":
        params = VrStreamParams(config.rate_mbps * 1e6, config.fps)
        return [VrBurstGenerator(params, RngStream(seed, i + 1), constants) for i in range(n_stations)], None
    if config.model == "simple":
        size_dist = dist_from_spec(config.size_dist)
        period_dist = dist_from_spec(config.period_dist)
        return [
            SimpleBurstGenerator(size_dist, period_dist, RngStream(seed, i + 1)) for i in range(n_stations)
        ], None
    trace = load_trace(config.trace_path)
    return [
        TraceFileBurstGenerator(trace, start_time_s=config.start_time_s + i * duration_s)
        for i in range(n_stations)
    ], dict(trace.metadata)


def _parse_metadata_line(line: str) -> tuple[str, str] | None:
    body = line.lstrip("#").strip()
    if ":" not in body:
        return None
    key, _, value = body.partition(":")
    key = key.strip()
    if not key:
        return None
    return key, value.strip()


# The trace grammar over a text whose lines each follow a "\n". A line is a data
# row, a comment or blank; whitespace is what str.strip() removes ([^\S\n] on
# one line) and digits are ASCII. _MALFORMED finds the "\n" before the first
# line that is none of these; the first alternative is the row save_trace writes.
_WS = r"[^\S\n]*"
_MALFORMED = re.compile(
    rf"\n(?![0-9]+,[0-9]+(?:\n|\Z)|{_WS}(?:#[^\n]*|[0-9]+{_WS},{_WS}[0-9]+{_WS})?(?:\n|\Z))"
)
# In well-formed lines, "#" starts a comment and a digit a data row.
_COMMENT = re.compile(r"#[^\n]*")
_DATA_ROW = re.compile(rf"\n{_WS}[0-9]")
# Every byte of a data row but its digits is a separator (UTF-8 whitespace
# included), as np.fromstring(sep=" ") reads one.
_DIGITS_ONLY = bytes(c if 0x30 <= c <= 0x39 else 0x20 for c in range(256))
_VALUE_RULES = (
    "burst size must be at least 1 byte",
    "next period must be positive",  # burst times must be strictly increasing along the trace
    "burst size and the total of the next periods so far (in ns) must fit in int64",
)
# uint64 scalars: numpy 1.x compares a uint64 array with a Python int in float64
_U64_INT64_MAX = np.uint64(_INT64_MAX)
_U64_PERIOD_US_MAX = np.uint64(_INT64_MAX // NS_PER_US)


def _malformed_line_error(lineno: int, line: str) -> TraceParseError:
    """The first rule a line that is no data row, comment or blank breaks."""
    line = line.strip()
    fields = line.split(",")
    if len(fields) != 2:
        return TraceParseError(f"line {lineno}: expected 'burst_size,next_period', got {line!r}")
    size, period = (token.strip() for token in fields)
    what, token = ("next period", period) if size.isascii() and size.isdecimal() else ("burst size", size)
    return TraceParseError(f"line {lineno}: {what} must be an unsigned integer, got {token!r}")


def load_trace(path) -> TraceFile:
    """Parse a trace CSV; raises :class:`TraceParseError` with line numbers.

    The whole text is checked and converted at once; an error names the first
    line that breaks a rule, and the first rule it breaks, in this order: two
    fields, an unsigned size, an unsigned period, size >= 1, period > 0, and
    the size and the running total of the periods (in ns) within int64.
    """
    # line k starts after the k-th "\n"; splitlines() draws the line boundaries
    text = "\n" + "\n".join(Path(path).read_text(encoding="utf-8-sig").splitlines())
    malformed = _MALFORMED.search(text)
    head = text[: malformed.start()] if malformed else text  # the well-formed lines before it
    digits = _COMMENT.sub("", head).encode().translate(_DIGITS_ONLY).strip()  # fromstring reads " " as [0]
    values = np.fromstring(digits, np.uint64, sep=" ")
    sizes, periods_us = values.reshape(-1, 2).T  # a value past uint64 reads as its maximum
    period_ns = np.where(periods_us > _U64_PERIOD_US_MAX, 0, periods_us * np.uint64(NS_PER_US))
    # the uint64 total is exact up to the first row that takes it past int64
    total_ns = np.cumsum(period_ns)
    too_big = (sizes > _U64_INT64_MAX) | (periods_us > _U64_PERIOD_US_MAX) | (total_ns > _U64_INT64_MAX)
    broken = np.stack((sizes == 0, periods_us == 0, too_big))
    row_broken = broken.any(axis=0)
    if row_broken.any():
        row = int(row_broken.argmax())
        start = next(itertools.islice(_DATA_ROW.finditer(head), row, None)).start()
        lineno = head.count("\n", 0, start + 1)
        raise TraceParseError(f"line {lineno}: {_VALUE_RULES[int(broken[:, row].argmax())]}")
    if malformed:
        raise _malformed_line_error(head.count("\n") + 1, text[malformed.start() + 1 :].partition("\n")[0])
    if not len(sizes):
        raise TraceParseError(f"{path}: no data rows")
    metadata = dict(filter(None, map(_parse_metadata_line, _COMMENT.findall(text))))
    return TraceFile(records=np.column_stack((sizes, period_ns)), metadata=metadata)


def save_trace(path, records, metadata: dict | None = None) -> None:
    """Write a trace CSV with a ``# key: value`` metadata header.

    ``records`` is any ``(n, 2)`` integer sequence of (size, period in ns)
    rows, such as an array or a list of descriptors. Periods are rounded to
    integer microseconds and floored at 1 us so the written file always
    satisfies the strictly-increasing-time invariant.
    """
    sizes, periods_ns = np.asarray(records, np.int64).reshape(-1, 2).T
    # np.rint of the float quotient is round(period_ns / NS_PER_US) while the
    # int64 -> float64 conversion is exact; Python's int division stays exact beyond
    periods_us = np.maximum(np.rint(periods_ns / NS_PER_US), 1).astype(np.int64)
    beyond = np.flatnonzero(periods_ns >= 2**53)
    periods_us[beyond] = [max(1, round(period_ns / NS_PER_US)) for period_ns in periods_ns[beyond].tolist()]
    header = "".join(f"# {key}: {value}\n" for key, value in (metadata or {}).items())
    rows = ("%d,%d\n" * len(sizes)) % tuple(np.column_stack((sizes, periods_us)).ravel().tolist())
    Path(path).write_text(header + rows, encoding="utf-8")

