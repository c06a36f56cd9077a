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
arrays, drawing the blocks of the generators of one bank together, and
:meth:`BurstGenerator.schedule` is its one-station case. After an error, a
single generator keeps the bursts computed before it next in line; generators
scheduled together are not to be used.

The two random generators compute their bursts a block at a time from one
flat array of uniforms, read burst after burst in this word layout:

* VR: 2 words (component pick, normal) for the frame-size mixture; while the
  draw is non-positive, 2 more for a redraw, at most 100 draws in all (else
  :class:`vrburst.model.DegenerateModelError`); then 1 word for the logistic
  inter-frame interval;
* simple: ``size_dist.words`` words for the size, then ``period_dist.words``
  for the period (1 each, 0 for a constant).

Words a block leaves unread are the first words of the next block, so the
bursts do not depend on the block size and equal those of a walk that draws
each word when it needs it. A schedule round sizes each block to the bursts
its generator needs to pass the horizon, from the model's mean period; the
per-burst API takes ``BLOCK_BURSTS`` at a time.

Trace CSV grammar: one ``burst_size_bytes,next_period_us`` row per burst
(unsigned integers in ASCII digits, whitespace allowed around each field),
with blank lines and ``#`` comment lines anywhere (``# key: value`` ones are
metadata), in UTF-8 with an optional byte-order mark; a line ends wherever
``str.splitlines`` ends one (LF, CRLF, CR, VT, FF, FS, GS, RS, NEL, U+2028,
U+2029). Periods are stored as integer microseconds to keep files round-trip
exact. :func:`load_trace` and :func:`save_trace` work on the file's bytes as
arrays. A parsed :class:`TraceFile` holds the rows as ``records``,
one ``(n, 2)`` int64 array with the columns ``burst_size`` (bytes) and
``next_period_ns``, so sizes and the total of the periods (in ns) must fit
in int64.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .model import DEFAULT_CONSTANTS, DegenerateModelError, VrModelConstants, VrStreamParams
from .model import derive_frame_size_model, derive_ifi_model
from .rv import Gmm2Params, LogisticParams
from .rv import ParameterError, RngStream, dist_from_spec, gmm2_nonpositive, gmm2_quantile, logistic_quantile

NS_PER_US = 1_000
NS_PER_S = 1_000_000_000
_INT64_MAX = 2**63 - 1

# Bursts per block of generate_burst, and of a schedule round at an unknown mean period.
BLOCK_BURSTS = 256
# The most bursts of a bank's schedule round over all its rows: a memory bound.
_ROUND_BURSTS_MAX = 4096
# A drawn period is below this (about 417 days).
_MAX_PERIOD_NS = 2**55
# A VR frame gives up after this many consecutive non-positive size draws.
_MAX_FRAME_DRAW_ATTEMPTS = 100
_NO_WORDS = np.empty(0)


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


class BurstGenerator:
    """Hands out burst descriptors until exhausted (stochastic ones never are).

    A generator keeps the bursts it has computed but not handed out yet;
    :meth:`_draw_blocks` computes more, together for the generators of a bank.
    """

    _period_ns = None  # the mean period (ns), which sizes a schedule round; None where unknown

    def __init__(self):
        self._sizes = self._periods = np.empty(0, dtype=np.int64)
        self._next = 0  # index of the next burst to hand out
        self._bank = self  # generators with equal banks draw their blocks together

    @staticmethod
    def _draw_blocks(generators, bursts):
        """The next block of about ``bursts`` bursts of each of ``generators`` (one ``_bank``) as a
        row of two int64 arrays, sizes (bytes) and periods (ns), and the bursts in each row, past
        which it is padding; None when the generators are exhausted, as a trace is after its rows."""

    def has_next_burst(self) -> bool:
        """True iff generate_burst() may be called."""
        if self._next == len(self._sizes):
            rows = self._draw_blocks([self], BLOCK_BURSTS)
            if rows is None:
                return False
            (sizes,), (periods,), (n,) = rows
            self._sizes, self._periods, self._next = sizes[:n], periods[:n], 0
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
        self._bank = (size_dist, period_dist)
        # every spec distribution is symmetric, so its median is its mean
        self._period_ns = max(1.0, NS_PER_S * float(period_dist.quantile(np.full((1, 1), 0.5))[0]))

    @staticmethod
    def _draw_blocks(generators, bursts):
        g, n = generators[0], len(generators)
        split, width = g.size_dist.words, g.size_dist.words + g.period_dist.words
        u = np.concatenate([g.rng.uniform(bursts * width) for g in generators]).reshape(n * bursts, width)
        with np.errstate(over="ignore", invalid="ignore"):  # _whole rejects the draws that overflow
            sizes, periods = g.size_dist.quantile(u[:, :split]), g.period_dist.quantile(u[:, split:])
        return *(a.reshape(n, bursts) for a in _whole(sizes, periods)), [bursts] * n


class VrBurstGenerator(BurstGenerator):
    """Bursts following the fitted VR model for a (rate, fps) stream.

    ``model``, the stream's ``(gmm, ifi)`` pair, is derived from ``params`` and
    ``constants`` where not given. Generators of value-equal models make one
    bank.
    """

    def __init__(self, params: VrStreamParams, rng: RngStream, constants: VrModelConstants = DEFAULT_CONSTANTS,
                 model: tuple[Gmm2Params, LogisticParams] | None = None):
        super().__init__()
        self.rng = rng
        self._gmm, self._ifi = model or _vr_model(params, constants)
        self._carry = _NO_WORDS  # words the last block left unread
        self._bank = (*vars(self._gmm).values(), *vars(self._ifi).values())  # floats, hashed and compared in C
        self._period_ns = max(1.0, NS_PER_S * self._ifi.mu)

    # defined on this class, not inherited: perfbench/tracer.py patches it here
    generate_burst = BurstGenerator.generate_burst

    @staticmethod
    def _draw_blocks(generators, bursts):
        """The next block of each of several generators of one model, as each computes it alone.

        Row i is generator i's carry and then fresh words, 3 per burst, and at least the carry and
        a whole frame (2 words a draw, and the interval word), so it completes a burst or raises.
        A row whose starts all draw a positive size is 3-word bursts; :meth:`_read_row` reads others.
        """
        gmm = generators[0]._gmm
        bursts = max(bursts, (max(len(g._carry) for g in generators) + 2 * _MAX_FRAME_DRAW_ATTEMPTS + 3) // 3)
        words = np.empty((len(generators), 3 * bursts))
        for row, g in zip(words, generators):
            row[:len(g._carry)] = g._carry
            row[len(g._carry):] = g.rng.uniform(len(row) - len(g._carry))
            g._carry = _NO_WORDS
        lengths = [bursts] * len(generators)
        rejected = gmm2_nonpositive(gmm, words[:, 0::3], words[:, 1::3]).any(axis=1)
        raw, ifi = np.empty((len(generators), bursts)), words[:, 2::3].copy()  # a carry is a view of words
        raw[~rejected] = gmm2_quantile(gmm, words[~rejected, 0::3], words[~rejected, 1::3])
        for r in np.flatnonzero(rejected).tolist():
            draws, taken = generators[r]._read_row(words[r])
            n = lengths[r] = len(taken)
            raw[r, :n], ifi[r, :n] = draws, words[r, taken + 2]
            # pad the row with its first burst, which the schedule drops
            raw[r, n:], ifi[r, n:] = draws[0], ifi[r, 0]
        sizes, periods = _whole(raw, logistic_quantile(ifi, generators[0]._ifi))
        return sizes, periods, lengths

    def _read_row(self, words):
        """The size draws of a row's bursts and the words they are drawn at; the
        words after the last burst become the carry. A burst starting at word s
        takes the first positive draw at words s, s + 2, ... (at most
        ``_MAX_FRAME_DRAW_ATTEMPTS``), say at q, and ends at q + 3. ``take[s]`` is
        q for every s, from the signs alone; doubling the map from a burst's q to
        the next one's chains the bursts, and only their draws are computed."""
        n, index = len(words), np.arange(len(words) - 1)
        take = np.where(gmm2_nonpositive(self._gmm, words[:-1], words[1:]), n, index)
        for k in (0, 1):
            take[k::2] = np.minimum.accumulate(take[k::2][::-1])[::-1]
        # n where the burst does not end in the row or its frame is degenerate
        take[(take - index >= 2 * _MAX_FRAME_DRAW_ATTEMPTS) | (take > n - 3)] = n
        after = np.concatenate((take[3:], np.full(5, n)))  # the next burst's q, n past the last
        taken = take[:1]
        while (taken := np.concatenate((taken, after[taken])))[-1] < n:
            after = after[after]
        taken = taken[:np.searchsorted(taken, n)]
        if not len(taken):  # with a whole frame's words in the row
            raise DegenerateModelError(f"frame-size mixture produced {_MAX_FRAME_DRAW_ATTEMPTS} consecutive "
                                       "non-positive draws; model parameters are degenerate")
        self._carry = words[taken[-1] + 3:]
        return gmm2_quantile(self._gmm, words[taken], words[taken + 1]), taken


def _vr_model(params: VrStreamParams, constants: VrModelConstants) -> tuple[Gmm2Params, LogisticParams]:
    """The frame-size mixture and the inter-frame-interval model of a VR stream."""
    return derive_frame_size_model(params, constants), derive_ifi_model(params, constants)


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
        sizes, periods, (k,) = generator._draw_blocks([generator], BLOCK_BURSTS)
        blocks.append(np.stack((sizes[0, :k], periods[0, :k])))
        n += k
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
    :class:`ParameterError`). The first round is the bursts the generators
    kept; each later one is a block per generator, drawn as the rows of one
    array per bank (:meth:`BurstGenerator._draw_blocks`), of about 10% more
    bursts than the bank's mean period (``_period_ns``) fits before the
    horizon (``BLOCK_BURSTS`` where it is unknown), at most
    ``_ROUND_BURSTS_MAX`` in all. Burst times and the horizon cut run along
    the rows. A generator's bursts do not depend on its block boundaries, so
    each schedule is the one its generator gives alone.

    On an error, each generator keeps the bursts it computed in the rounds
    before it next in line, so a single generator goes on from where it
    raised. Several generators scheduled together are not to be used after an
    error: the round that raised may have drawn some of them further.
    """
    horizon = min(duration_ns, _INT64_MAX)  # so every burst time compares in int64
    if max(offsets_ns, default=0) > _INT64_MAX:
        raise ParameterError(f"burst times reach {max(offsets_ns)} ns, beyond int64")
    reach = np.array(offsets_ns, dtype=np.int64)  # each station's next burst time
    todo = [([i], g._sizes[None, g._next:], g._periods[None, g._next:], [len(g._sizes) - g._next])
            for i, g in enumerate(generators) if g._next < len(g._sizes)]
    blocks, live, done = [], range(len(generators)), False
    try:
        while True:
            for members, sizes, periods, lengths in todo:
                blocks.append([members, sizes, periods, lengths])
                steps = np.maximum(periods, 1)
                if min(lengths) < steps.shape[1]:  # padding takes no time
                    steps[np.arange(steps.shape[1]) >= np.array(lengths)[:, None]] = 0
                times = steps.cumsum(axis=1)
                # every step is below 2**63, so a sum that wraps turns negative there
                start, end = reach[members], reach[members] + times[:, -1]
                if times.min() < 0 or (end < start).any():
                    raise ParameterError("burst times reach 2**63 ns, beyond int64")
                times += start[:, None] - steps
                cut = np.minimum((times < horizon).sum(axis=1), lengths).tolist()
                reach[members] = end
                blocks[-1] += [times, cut]
            short, banks = (reach < horizon).tolist(), {}
            for i in filter(short.__getitem__, live):
                banks.setdefault(generators[i]._bank, []).append(i)
            todo = []
            for members in banks.values():
                g, gap = generators[members[0]], horizon - reach[members].min()
                bursts = int(1.1 * gap / g._period_ns) + 16 if g._period_ns else BLOCK_BURSTS
                bursts = min(bursts, max(1, _ROUND_BURSTS_MAX // len(members)))
                if (rows := g._draw_blocks([generators[i] for i in members], bursts)) is not None:
                    todo.append((members, *rows))
            if not todo:
                break
            live = [i for members, *_ in todo for i in members]
        done = True
    finally:  # each generator keeps the bursts past its schedule, or after an error every one computed
        parts = [[(np.empty(0, np.int64),) * 5] for _ in generators]
        for members, sizes, periods, lengths, *timed in blocks:
            times, cut = timed if done else (sizes, [0] * len(members))
            for r, (i, c, n) in enumerate(zip(members, cut, lengths)):
                parts[i].append((times[r, :c], sizes[r, :c], periods[r, :c], sizes[r, c:n], periods[r, c:n]))
        schedules = []
        for g, mine in zip(generators, parts):
            *schedule, g._sizes, g._periods = mine[-1] if len(mine) < 3 else map(np.concatenate, zip(*mine))
            g._next = 0
            schedules.append(tuple(schedule))
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
    if config.model == "vr":  # one model for every station, which makes them one bank
        params = VrStreamParams(config.rate_mbps * 1e6, config.fps)
        model = _vr_model(params, constants)
        return [VrBurstGenerator(params, RngStream(seed, i + 1), constants, model) for i in range(n_stations)], None
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


# The trace grammar on bytes: the class of each byte that is no ASCII digit,
# from a 256-entry table. A line is a row, digits "," digits, a comment, "#"
# first, or empty; other bytes, whitespace and non-ASCII included, may only
# stand in a comment.
_OTHER, _COMMA, _LF, _HASH, _SPACE, _BREAK = range(6)
_BYTE_CLASS = np.full(256, _OTHER, np.uint8)
_BYTE_CLASS[list(b",\n# \t\x1f")] = _COMMA, _LF, _HASH, _SPACE, _SPACE, _SPACE  # in-line whitespace of str.strip()
_BYTE_CLASS[list(b"\r\x0b\x0c\x1c\x1d\x1e")] = _BREAK  # line ends of str.splitlines() besides LF (and CRLF)
_ZERO = np.uint8(ord("0"))
_UTF8_BOM = "\ufeff".encode()
_UNICODE_BREAKS = "\x85\u2028\u2029"  # the non-ASCII line ends of str.splitlines()
_WHITESPACE = re.compile(r"[^\S\n]")
_VALUE_RULES = (
    "burst size must be at least 1 byte",
    "next period must be positive",  # burst times must be strictly increasing along the trace
    "burst size and the total of the next periods so far (in ns) must fit in int64",
)
# uint64 scalars: numpy 1.x compares a uint64 array with a Python int in float64
_U64_INT64_MAX = np.uint64(_INT64_MAX)
_U64_PERIOD_US_MAX = np.uint64(_INT64_MAX // NS_PER_US)
_U64_MAX = 2**64 - 1
# Decimal digits in a little-endian uint64, the first in its lowest byte: a run
# of up to 16 is read as two words of 8, _KEEP_HIGH[k] keeping a word's k highest
# bytes; a value is written as 7-digit chunks, "0000" to "9999" from a table.
_U64_1E8, _U64_1E7 = np.uint64(10**8), np.uint64(10**7)
_KEEP_HIGH = np.array([(_U64_MAX >> 8 * (8 - k)) << 8 * (8 - k) for k in range(9)], np.uint64)
_LOW_NIBBLES, _HIGH_BITS, _BELOW_HIGH_BIT, _ASCII_ZEROS = (
    np.uint64(byte * 0x0101010101010101) for byte in (0x0F, 0x80, 0x7F, 0x30))
_DIGIT_CHARS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
_FOUR_DIGITS = (_DIGIT_CHARS[:, None, None, None] | _DIGIT_CHARS[:, None, None] << np.uint64(8)
                | _DIGIT_CHARS[:, None] << np.uint64(16) | _DIGIT_CHARS << np.uint64(24)).ravel()
_SEPARATORS = np.array([[ord(",")], [ord("\n")]], np.uint64) << np.uint64(56)


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

    The whole file is checked and converted at once, as bytes; an error names
    the first line that breaks a rule, and the first rule it breaks, in this
    order: two fields, an unsigned size, an unsigned period, size >= 1,
    period > 0, and the size and the running total of the periods (in ns)
    within int64. A file that is not UTF-8 fails at the line of its first
    undecodable byte. The bytes are read as they are where every line ends in
    LF or CRLF and is a ``size,period`` row, a comment starting with ``#`` or
    empty. Any other text, a malformed one included, is first split into lines
    by ``str.splitlines``, its whitespace made spaces and stripped from around
    its fields, and then checked the same way.
    """
    raw = Path(path).read_bytes().removeprefix(_UTF8_BOM)
    text = None if raw.isascii() else _decode(raw)
    trace = None
    if text is None or not any(c in text for c in _UNICODE_BREAKS):
        trace = _parse(raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw, path)
    if trace is None:
        lines = (text or raw.decode()).splitlines()
        joined = "\n".join(lines) if text is None else _WHITESPACE.sub(" ", "\n".join(lines))
        trace = _parse(_strip_fields(joined.encode()), path, lines)
    return trace


def _strip_fields(body: bytes) -> bytes:
    """``body`` without the whitespace at either end of a line and on either
    side of a comma; whitespace within a field stays."""
    a = np.frombuffer(b"\n" + body + b"\n", np.uint8)
    kind = _BYTE_CLASS.take(a)
    space = (kind == _SPACE).nonzero()[0]
    if not len(space):
        return body
    run = np.diff(space, prepend=-2) > 1  # where each run of whitespace starts
    first, last = space[run], space[np.append(run[1:], True)]
    edge = np.isin(kind[first - 1], (_COMMA, _LF)) | np.isin(kind[last + 1], (_COMMA, _LF))
    keep = np.ones(len(a), bool)
    keep[space[np.repeat(edge, last - first + 1)]] = False
    return a[keep][1:-1].tobytes()


def _decode(raw: bytes) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as error:
        lineno = len((raw[: error.start].decode() + "x").splitlines())  # the undecodable byte's line
        raise TraceParseError(f"line {lineno}: byte 0x{raw[error.start]:02x} is not UTF-8 ({error.reason})") from None


def _parse(body: bytes, path, lines: list[str] | None = None) -> TraceFile | None:
    """The trace in ``body``, whose lines end in LF, each a ``size,period`` row
    of ASCII digits, a comment whose first byte is ``#``, or empty. Without
    ``lines`` (the lines of the text ``body`` was made from, which messages and
    metadata quote), None where any line is none of these or holds a line end
    of ``str.splitlines``, so the text is to be split first."""
    text = b"\n" + body + b"\n"  # line k ends at the (k + 1)-th LF
    a = np.frombuffer(text, np.uint8)
    at = (a - _ZERO > 9).nonzero()[0]  # every byte but the digits
    kind = _BYTE_CLASS.take(a[at])
    if lines is None and (kind == _BREAK).any():
        return None
    lf = (kind == _LF).nonzero()[0]  # in ``at``: the LF put before line 1, then each line's end
    start, stop = at[lf[:-1]] + 1, at[lf[1:]]  # line k is text[start[k - 1]:stop[k - 1]]
    first = lf[:-1] + 1  # each line's first byte that is no digit, its LF when none is
    first_kind, first_at = kind[first], at[first]
    comment = (first_kind == _HASH) & (first_at == start)
    row = (np.diff(lf) == 2) & (first_kind == _COMMA) & (start < first_at) & (first_at + 1 < stop)
    bad = (~(row | comment | (start == stop))).nonzero()[0]
    if lines is None and len(bad):
        return None
    rows = row[: bad[0] if len(bad) else None].nonzero()[0]  # the data rows before the first malformed line
    comma = first_at[rows]
    values = _read_uints(text, np.column_stack((start[rows], comma + 1)), np.column_stack((comma, stop[rows])))
    sizes, periods_us = values.T  # a value past uint64 reads as its maximum
    # a period past _U64_PERIOD_US_MAX wraps, but its row breaks a rule, and the total
    # is exact up to the first row that takes it past int64
    period_ns = periods_us * np.uint64(NS_PER_US)
    total_ns = np.cumsum(period_ns)
    if (min(sizes.min(initial=1), periods_us.min(initial=1)) == 0 or periods_us.max(initial=0) > _U64_PERIOD_US_MAX
            or max(sizes.max(initial=0), total_ns.max(initial=0)) > _U64_INT64_MAX):
        too_big = (sizes > _U64_INT64_MAX) | (periods_us > _U64_PERIOD_US_MAX) | (total_ns > _U64_INT64_MAX)
        broken = np.stack((sizes == 0, periods_us == 0, too_big))
        r = int(broken.any(axis=0).argmax())
        raise TraceParseError(f"line {rows[r] + 1}: {_VALUE_RULES[int(broken[:, r].argmax())]}")
    if len(bad):
        raise _malformed_line_error(int(bad[0]) + 1, lines[bad[0]])
    if not len(rows):
        raise TraceParseError(f"{path}: no data rows")
    k = comment.nonzero()[0]
    if lines is None:
        comments = [text[i:j].decode() for i, j in zip(start[k].tolist(), stop[k].tolist())]
    else:
        comments = [lines[i].lstrip() for i in k.tolist()]
    metadata = dict(filter(None, map(_parse_metadata_line, comments)))
    return TraceFile(records=np.column_stack((sizes, period_ns)).view(np.int64), metadata=metadata)


def _read_uints(text: bytes, starts, stops):
    """The value of each run ``text[start:stop]`` of ASCII digits, as uint64;
    a value past 2**64 - 1 reads as 2**64 - 1. A run of up to 16 digits is
    read from the 16 bytes before its stop, as two 8-digit words."""
    width = stops - starts
    padded = bytes(16) + text  # text byte i is padded byte i + 16
    words = np.ndarray(len(padded) - 7, "<u8", padded, strides=(1,))  # the 8 bytes from each offset
    values = _eight_digits(words.take(stops + 8) & _KEEP_HIGH.take(np.minimum(width, 8)))
    longest = width.max(initial=0)
    if longest > 8:
        high = words.take(stops) & _KEEP_HIGH.take(np.clip(width - 8, 0, 8))
        values += _eight_digits(high) * _U64_1E8
    if longest > 16:
        for i in zip(*(width > 16).nonzero()):
            values[i] = min(int(text[starts[i] : stops[i]]), _U64_MAX)
    return values


def _eight_digits(words):
    """The value of eight ASCII digits in each word, the first in its lowest byte."""
    words = (words & _LOW_NIBBLES) * np.uint64(10 << 8 | 1) >> np.uint64(8)
    words = (words & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 << 16 | 1) >> np.uint64(16)
    return (words & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10_000 << 32 | 1) >> np.uint64(32)


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
    Path(path).write_bytes(header.encode() + _format_rows(sizes, periods_us))


def _format_rows(sizes, periods_us) -> bytes:
    """The rows ``b"%d,%d\\n" % (size, period)``, formatted as arrays.

    A value is 7-digit chunks, each a little-endian word of ASCII digits with
    the first in its lowest byte and one more byte: NUL, or the separator after
    the last chunk. A leading zero digit is NUL too, and so is the byte before
    a negative size's digits but for its sign, so the bytes without their NULs
    are the rows.
    """
    values = np.column_stack((np.abs(sizes), periods_us)).astype(np.uint64)  # |-2**63| wraps to 2**63
    negative = sizes < 0
    top = int(values.max(initial=0)) * (10 if negative.any() else 1)  # a sign needs a leading zero
    n, k = len(values), (len(str(top)) + 6) // 7
    chunks = np.empty((n, 2, k), np.uint64)  # most significant first
    for j in range(k - 1, 0, -1):
        values, rest = values // _U64_1E7, values
        chunks[..., j] = rest - values * _U64_1E7
    chunks[..., 0] = values
    high = chunks // np.uint64(10_000)
    low = chunks - high * np.uint64(10_000)
    # "0" and the chunk's 7 digits; take reads int64 indices faster than uint64 ones
    words = _FOUR_DIGITS.take(high.view(np.int64)) | _FOUR_DIGITS.take(low.view(np.int64)) << np.uint64(32)
    # bit 7 of each byte from a value's first nonzero digit on, and of its last digit
    seen = ((words ^ _ASCII_ZEROS) + _BELOW_HIGH_BIT) & _HIGH_BITS
    for shift in (8, 16, 32):
        seen |= seen << np.uint64(shift)
    for j in range(1, k):
        seen[..., j] |= (seen[..., j - 1] >> np.uint64(63)) * _HIGH_BITS
    seen[..., -1] |= _HIGH_BITS << np.uint64(56)
    words = (words & (seen >> np.uint64(7)) * np.uint64(0xFF)) >> np.uint64(8)
    words[..., -1:] |= _SEPARATORS
    words[negative, 0, 0] |= np.uint64(ord("-"))
    return words.astype("<u8").tobytes().translate(None, b"\0")
