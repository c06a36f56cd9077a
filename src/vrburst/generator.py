"""Burst generators: sources of (burst size, next period) pairs.

A burst is an application-layer unit (one encoded video frame for the VR
model) that the sender will fragment; ``next_period`` is the gap until the
following burst. Three generators are provided: arbitrary random variates
(:class:`SimpleBurstGenerator`), the fitted VR model
(:class:`VrBurstGenerator`), and CSV trace replay
(:class:`TraceFileBurstGenerator`). :func:`build_generators` builds one per
station from a :class:`GeneratorConfig`, and :meth:`BurstGenerator.schedule`
is the generation horizon every caller applies.

The two random generators compute up to ``BLOCK_BURSTS`` bursts at a time
from one flat array of uniforms, read burst after burst in this word layout:

* VR: 2 words (component pick, normal) for the frame-size mixture; while the
  draw is non-positive, 2 more for a redraw, at most 100 draws in all
  (:func:`vrburst.model.draw_positive_frame`); then 1 word for the logistic
  inter-frame interval;
* simple: ``size_dist.words`` words for the size, then ``period_dist.words``
  for the period (1 each, 0 for a constant).

Words a block leaves unread are the first words of the next block, so the
bursts do not depend on the block size and equal those of a walk that draws
each word when it needs it.

Trace CSV grammar: optional ``# key: value`` metadata lines, then one
``burst_size_bytes,next_period_us`` row per burst (unsigned integers, LF or
CRLF line endings). Periods are stored as integer microseconds to keep files
round-trip exact.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque, namedtuple
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .model import _MAX_FRAME_DRAW_ATTEMPTS, DEFAULT_CONSTANTS, DegenerateModelError, VrModelConstants, VrStreamParams
from .model import derive_frame_size_model, derive_ifi_model, draw_positive_frame
from .model import sample_vr_frame, sample_vr_ifi  # noqa: F401  (perfbench/tracer.py patches them under these names)
from .rv import ParameterError, RngStream, dist_from_spec, gmm2_quantile, logistic_quantile

NS_PER_US = 1_000
NS_PER_S = 1_000_000_000

# Bursts computed per block by the random generators.
BLOCK_BURSTS = 256


class GeneratorExhaustedError(RuntimeError):
    """generate_burst() was called after has_next_burst() turned false."""


class TraceParseError(ValueError):
    """A trace file failed to parse; the message names the offending line."""


class BurstDescriptor(namedtuple("BurstDescriptor", "burst_size next_period_ns")):
    """One burst: size in bytes (>= 1) and the gap to the next burst in ns.

    Construction checks both fields; ``tuple.__new__(BurstDescriptor, (size,
    period))`` skips the checks, for values that already satisfy them.

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


@dataclass
class TraceFile:
    """Parsed trace: ordered burst records plus the commented-header metadata."""

    records: list[BurstDescriptor]
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return sum(r.next_period_ns for r in self.records)


class BurstGenerator(ABC):
    """Yields burst descriptors until exhausted (stochastic ones never are)."""

    @abstractmethod
    def has_next_burst(self) -> bool:
        """True iff generate_burst() may be called."""

    @abstractmethod
    def generate_burst(self) -> BurstDescriptor:
        """Return the next burst descriptor and advance the generator."""

    def schedule(self, duration_ns, offset_ns: int = 0):
        """Lazily yield ``(generation time ns, burst)`` for every burst
        generated before ``duration_ns``.

        The first burst is generated at ``offset_ns`` and each later one a
        period after the previous; periods are clamped to at least 1 ns so
        time always advances.
        """
        time_ns = offset_ns
        while time_ns < duration_ns and self.has_next_burst():
            burst = self.generate_burst()
            yield time_ns, burst
            time_ns += max(1, burst.next_period_ns)


class _BlockBurstGenerator(BurstGenerator):
    """A random generator that computes its bursts ``BLOCK_BURSTS`` at a time."""

    def __init__(self, rng: RngStream):
        self.rng = rng
        self._block = iter(())

    def has_next_burst(self) -> bool:
        return True

    def generate_burst(self) -> BurstDescriptor:
        burst = next(self._block, None)
        if burst is None:
            sizes, periods_s = self._draw_block()
            # sizes round to whole bytes (at least 1), periods to whole ns (at
            # least 0), so the descriptors need no checks
            sizes = map(int, np.maximum(np.rint(sizes), 1.0).tolist())
            periods_ns = map(int, np.rint(np.maximum(0.0, periods_s) * NS_PER_S).tolist())
            self._block = map(tuple.__new__, repeat(BurstDescriptor), zip(sizes, periods_ns))
            burst = next(self._block)
        return burst

    @abstractmethod
    def _draw_block(self):
        """Raw sizes (bytes) and periods (seconds) of the next block of bursts."""


class SimpleBurstGenerator(_BlockBurstGenerator):
    """Independent draws from arbitrary size/period distributions.

    ``size_dist`` samples are bytes (rounded, floored at 1); ``period_dist``
    samples are seconds (negative draws clamp to 0). Size is drawn before
    period, with no correlation between them or across bursts. The
    distributions are those of :func:`vrburst.rv.dist_from_spec`.
    """

    def __init__(self, size_dist, period_dist, rng: RngStream):
        super().__init__(rng)
        self.size_dist = size_dist
        self.period_dist = period_dist

    def _draw_block(self):
        split, width = self.size_dist.words, self.size_dist.words + self.period_dist.words
        u = self.rng.uniform(BLOCK_BURSTS * width).reshape(BLOCK_BURSTS, width)
        return self.size_dist.quantile(u[:, :split]), self.period_dist.quantile(u[:, split:])


class VrBurstGenerator(_BlockBurstGenerator):
    """Bursts following the fitted VR model for a (rate, fps) stream."""

    def __init__(
        self,
        params: VrStreamParams,
        rng: RngStream,
        constants: VrModelConstants = DEFAULT_CONSTANTS,
    ):
        super().__init__(rng)
        self.params = params
        self.constants = constants
        self._gmm = derive_frame_size_model(params, constants)
        self._ifi = derive_ifi_model(params, constants)
        self._carry = np.empty(0)  # words the last block left unread

    # defined on this class, not inherited: perfbench/tracer.py patches it here
    generate_burst = _BlockBurstGenerator.generate_burst

    def _draw_block(self):
        words = np.concatenate((self._carry, self.rng.uniform(3 * BLOCK_BURSTS)))
        # draws[j] is the mixture draw from words j and j+1; a burst starting
        # at word p reads the draws at p, p+2, ... until one is positive
        draws = gmm2_quantile(self._gmm, words[:-1], words[1:])
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
            try:
                value, used = draw_positive_frame(draws[pos:pos + 2 * _MAX_FRAME_DRAW_ATTEMPTS:2])
            except DegenerateModelError:
                if n:
                    break  # hand out the bursts before it; the next block raises
                raise
            sizes.append([value])
            ifi_words.append(words[pos + 2 * used:pos + 2 * used + 1])
            n += 1
            pos += 2 * used + 1
        self._carry = words[pos:]
        return np.concatenate(sizes), logistic_quantile(np.concatenate(ifi_words), self._ifi)


class TraceFileBurstGenerator(BurstGenerator):
    """Replays a trace record-by-record, exhausting after the last row.

    ``start_time_s`` skips the leading records whose burst times, as
    :meth:`schedule` counts them from 0, fall before it, so several generators
    over one file with disjoint start times replay disjoint parts of the
    trace. Records are skipped whole; bursts are atomic.
    """

    def __init__(self, trace: TraceFile | str | Path, start_time_s: float = 0.0):
        if start_time_s < 0:
            raise ValueError(f"start time must be non-negative, got {start_time_s}")
        self.trace = load_trace(trace) if isinstance(trace, (str, Path)) else trace
        self._cursor = 0
        deque(self.schedule(round(start_time_s * NS_PER_S)), maxlen=0)  # skip the bursts before t0

    def has_next_burst(self) -> bool:
        return self._cursor < len(self.trace.records)

    def generate_burst(self) -> BurstDescriptor:
        if not self.has_next_burst():
            raise GeneratorExhaustedError("trace generator has yielded its last record")
        record = self.trace.records[self._cursor]
        self._cursor += 1
        return record


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
        return asdict(self)


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


def _parse_uint(token: str, what: str, lineno: int) -> int:
    token = token.strip()
    if not token.isdigit():
        raise TraceParseError(f"line {lineno}: {what} must be an unsigned integer, got {token!r}")
    return int(token)


def load_trace(path) -> TraceFile:
    """Parse a trace CSV; raises :class:`TraceParseError` with line numbers."""
    records: list[BurstDescriptor] = []
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
        records.append(tuple.__new__(BurstDescriptor, (size, period_ns)))
    if not records:
        raise TraceParseError(f"{path}: no data rows")
    return TraceFile(records=records, metadata=metadata)


def save_trace(path, records, metadata: dict | None = None) -> None:
    """Write a trace CSV with a ``# key: value`` metadata header.

    Periods are rounded to integer microseconds and floored at 1 us so the
    written file always satisfies the strictly-increasing-time invariant.
    """
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}: {value}")
    for record in records:
        period_us = max(1, round(record.next_period_ns / NS_PER_US))
        lines.append(f"{record.burst_size},{period_us}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


__all__ = [
    "BurstDescriptor",
    "BLOCK_BURSTS",
    "BurstGenerator",
    "GeneratorConfig",
    "GeneratorExhaustedError",
    "SimpleBurstGenerator",
    "TraceFile",
    "TraceFileBurstGenerator",
    "TraceParseError",
    "VrBurstGenerator",
    "build_generators",
    "load_trace",
    "save_trace",
]
