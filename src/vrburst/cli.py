"""Command-line entry point.

Subcommands: generate (synthetic trace CSV), replay (window a trace into a
new trace), simulate (bottleneck-link scenario -> metrics JSON), fit (traces
-> model constants JSON), stats (trace summary JSON), send/recv (live UDP
using the 24-byte fragment header).

`main` builds its argument parser once per process, on first use, and reuses
it for every later call; `build_parser` still returns a fresh parser.

Exit codes, all set in `main`: 0 success; 2 usage error or ParameterError (a
flag value out of range, such as `fit --em-restarts 0`); 3 any other ValueError
(a bad trace, degenerate model constants, a failed fit, a fragment size with no
room for payload); 4 OSError.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import socket
import sys
import time

import numpy as np

from . import __version__
from .fit import fit_vr_model, group_traces
from .generator import NS_PER_S, GeneratorConfig, build_generators, load_trace, save_trace
from .model import DEFAULT_CONSTANTS, VrModelConstants
from .rv import ParameterError
from .sim import ScenarioConfig, exact_sums, mean_std, percentile, run_scenario
from .wire import (
    DEFAULT_FRAGMENT_SIZE,
    BurstReassembler,
    BurstReceived,
    decode_header,  # noqa: F401  (perfbench/tracer.py patches it here)
    encode_header,  # noqa: F401  (perfbench/tracer.py patches it here)
    fragment_burst,  # noqa: F401  (perfbench/tracer.py patches it here)
    fragment_layout,
    pack_burst,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

# receive buffer requested by the socket `recv` binds itself; the kernel caps
# the request at net.core.rmem_max
_RECV_BUFFER_BYTES = 4 * 2**20

# Linux UDP offloads, socket options at IPPROTO_UDP (udp(7)). UDP_SEGMENT sets
# the segment size a send is cut into (GSO); UDP_GRO lets one read return
# several datagrams of a flow, with their segment size in a control message.
_UDP_SEGMENT = 103
_UDP_GRO = 104
# A GSO send holds at most 64 segments (older kernels refuse more) and at most
# the 65507 payload bytes of one IPv4 UDP datagram; a read, coalesced or not,
# returns no more than 65535 bytes.
_GSO_MAX_SEGMENTS = 64
_UDP_MAX_PAYLOAD = 65507
_MAX_READ = 65535
# a read the kernel truncated, as a plain int: the MsgFlag operators run in Python
_TRUNCATED = int(socket.MSG_TRUNC | socket.MSG_CTRUNC)
# `recv` reassembles at most this many sources; datagrams from any further
# source are dropped, so a sender cycling source ports cannot grow the table
_MAX_FLOWS = 4096


def _load_constants(args) -> VrModelConstants:
    if getattr(args, "params", None):
        return VrModelConstants.load_json(args.params)
    return DEFAULT_CONSTANTS


def _write_json(payload, path=None) -> None:
    """Write ``payload`` as JSON indented by 2, with a final newline, to ``path`` or stdout."""
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _generator_config(args) -> GeneratorConfig:
    return GeneratorConfig(
        model=args.model,
        rate_mbps=args.rate_mbps,
        fps=args.fps,
        size_dist=args.size_dist,
        period_dist=args.period_dist,
        trace_path=args.trace,
        start_time_s=args.start_time,
    )


def cmd_generate(args) -> int:
    if args.model == "trace":
        raise ParameterError("--model trace is not a synthetic generator here; "
                             "use the replay command for traces")
    constants = _load_constants(args)
    (generator,), _ = build_generators(_generator_config(args), 1, args.seed, args.duration_s, constants)
    _, sizes, periods = generator.schedule(round(args.duration_s * NS_PER_S))
    if not len(sizes):
        raise ValueError(f"no bursts generated in {args.duration_s} s; trace would be empty")
    metadata = {
        "source": "vrburst generate",
        "model": args.model,
        "seed": args.seed,
        "duration_s": args.duration_s,
        "period_unit": "us",
    }
    if args.model == "vr":
        metadata["target_rate_mbps"] = args.rate_mbps
        metadata["fps"] = args.fps
        metadata["constants"] = json.dumps(constants.to_dict())
    else:
        metadata["size_dist"] = args.size_dist
        metadata["period_dist"] = args.period_dist
    save_trace(args.out, np.column_stack((sizes, periods)), metadata)
    [[total]] = exact_sums(int(sizes.max()), lambda *c: c, sizes)
    print(f"wrote {len(sizes)} bursts to {args.out} (mean size {total / len(sizes):.0f} B)")
    return EXIT_OK


def cmd_replay(args) -> int:
    config = GeneratorConfig(model="trace", trace_path=args.trace, start_time_s=args.start_time)
    (generator,), metadata = build_generators(config, 1, seed=0, duration_s=0.0)
    duration_ns = math.inf if args.duration_s is None else round(args.duration_s * NS_PER_S)
    _, sizes, periods = generator.schedule(duration_ns)
    if not len(sizes):
        raise ValueError("replay window contains no bursts")
    metadata.update(
        {
            "source": "vrburst replay",
            "replayed_from": str(args.trace),
            "start_time_s": args.start_time,
        }
    )
    if args.duration_s is not None:
        metadata["duration_s"] = args.duration_s
    save_trace(args.out, np.column_stack((sizes, periods)), metadata)
    print(f"wrote {len(sizes)} bursts to {args.out}")
    return EXIT_OK


def _parse_stations(spec: str) -> list[int]:
    lo, sep, hi = spec.partition("..")
    try:
        counts = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        counts = []
    if not counts or counts[0] < 1:
        raise ParameterError(f"bad --stations spec {spec!r}")
    return counts


def cmd_simulate(args) -> int:
    constants = _load_constants(args)
    generator = _generator_config(args)
    reports = []
    for n_stations in _parse_stations(args.stations):
        cfg = ScenarioConfig(
            generator=generator,
            n_stations=n_stations,
            link_rate_bps=args.link_mbps * 1e6,
            propagation_delay_ns=args.prop_delay_us * 1_000,
            overhead_bytes=args.overhead_bytes,
            loss_prob=args.loss,
            queue_limit=args.queue_limit,
            duration_s=args.duration_s,
            seed=args.seed,
            fragment_size=args.fragment_size,
            constants=constants,
        )
        reports.append(run_scenario(cfg))
    _write_json(reports[0] if len(reports) == 1 else reports, args.out)
    return EXIT_OK


def _summary(column) -> dict:
    """Mean, sample std and nearest-rank p95 of an int64 column, with the
    bytes of Python 3.11's ``statistics.fmean`` and ``statistics.stdev``, by
    the rules of the ``simulate`` reports, :func:`~vrburst.sim.exact_sums` and
    :func:`~vrburst.sim.mean_std`. ``fmean`` rounds each value to a float
    before it sums them, which differs from rounding the exact sum only for
    values past 2**53; there the mean is ``fsum``'s."""
    n, big = len(column), max(-int(column.min()), int(column.max()))  # Python ints: np.abs wraps at -2**63
    [total], [total_sq] = exact_sums(big * big, lambda x: (x, x * x), column)
    mean, std = mean_std(n, total, total_sq)
    return {"mean": math.fsum(column.tolist()) / n if big >= 2**53 else mean, "std": std, "p95": percentile(column, 95)}


def cmd_stats(args) -> int:
    trace = load_trace(args.trace)
    sizes, periods = trace.records.T
    [total_size], [total_period] = exact_sums(int(trace.records.max()), lambda *c: c, sizes, periods)
    out = {
        "source": str(args.trace),
        "metadata": trace.metadata,
        "bursts": len(sizes),
        "size_bytes": _summary(sizes),
        "period_ns": _summary(periods),
        "data_rate_mbps": total_size * 8 / (total_period / NS_PER_S) / 1e6,  # load_trace takes no period under 1 us
    }
    _write_json(out)
    return EXIT_OK


def cmd_fit(args) -> int:
    groups = group_traces(load_trace(path) for path in args.traces)
    report = fit_vr_model(
        groups,
        em_restarts=args.em_restarts,
        seed=args.seed,
        weighting="uniform" if args.uniform_weights else "rank",
    )
    if args.report:
        _write_json(report, args.report)
    for group in report["groups"]:
        if not group["gmm"]["converged"]:
            print(
                f"warning: mixture fit of the {group['rate_mbps']:g} Mbit/s, "
                f"{group['fps']:g} FPS group did not converge: its best restart stopped "
                f"after {group['gmm']['n_iterations']} E steps",
                file=sys.stderr,
            )
    if not report["slopes_valid"]:
        print(
            "fitted mean slopes do not straddle 1 "
            f"(lo={report['pooled']['pframe_mean_slope']:.4f}, hi={report['pooled']['iframe_mean_slope']:.4f}); "
            "no constants emitted",
            file=sys.stderr,
        )
        return EXIT_DATA
    _write_json(report["constants"], args.out)
    if args.out:
        print(f"wrote model constants to {args.out}")
    return EXIT_OK


def _parse_addr(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ParameterError(f"expected HOST:PORT with a port in 0-65535, got {spec!r}")
    return host, int(port)


def _gso_segments(sock: socket.socket, fragment_size: int) -> int:
    """Segments per send: the GSO cap when ``sock`` accepts ``UDP_SEGMENT``, else 1."""
    cap = min(_GSO_MAX_SEGMENTS, _UDP_MAX_PAYLOAD // fragment_size)
    if cap < 2:
        return 1
    try:
        sock.setsockopt(socket.IPPROTO_UDP, _UDP_SEGMENT, fragment_size)
    except OSError:
        return 1
    return cap


def _gso_off(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.IPPROTO_UDP, _UDP_SEGMENT, 0)
    except OSError:
        pass


def send_bursts(
    dest: tuple[str, int],
    generator,
    fragment_size: int,
    pacing: bool = True,
    max_bursts: int | None = None,
    duration_s: float | None = None,
    sock: socket.socket | None = None,
) -> dict:
    """Send generator bursts as UDP fragments; returns send counters.

    Bursts are scheduled by wall clock from the generator periods; fragments
    within a burst go out back-to-back. Timestamps are the sender's
    monotonic clock, so receiver-side delays are only meaningful when both
    ends share a clock (e.g. loopback).

    Each burst is packed once into one buffer (:func:`pack_burst`). Where the
    socket accepts ``UDP_SEGMENT``, one ``sendto`` hands the kernel up to
    ``min(64, 65507 // fragment_size)`` of its datagrams (``gso`` in the
    counters); otherwise each datagram takes a ``sendto`` of its own. A GSO
    send that fails turns GSO off for the rest of the run and goes out again
    one datagram per call, so a burst is neither lost nor sent twice.
    ``send_calls`` counts the ``sendto`` calls that succeeded. A passed-in
    ``sock`` keeps the segment size it was left with.
    """
    fragment_layout(1, fragment_size)  # raises for a fragment size with no room for payload
    own_sock = sock is None
    if own_sock:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    bursts = fragments = payload_bytes = calls = 0
    deadline = None if duration_s is None else time.monotonic() + duration_s
    try:
        per_call = _gso_segments(sock, fragment_size)
        burst_seq = 0
        next_send_ns = time.monotonic_ns()  # absolute schedule avoids sleep drift
        while generator.has_next_burst():
            if max_bursts is not None and bursts >= max_bursts:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            desc = generator.generate_burst()
            stamp = time.monotonic_ns()
            buf = memoryview(pack_burst(burst_seq % 2**32, desc.burst_size, stamp, fragment_size))
            start = 0
            while start < len(buf):
                step = per_call * fragment_size
                try:
                    sock.sendto(buf[start:start + step], dest)
                except OSError:
                    if per_call == 1:
                        raise
                    # nothing of a failed send went out: send it again one datagram per call
                    per_call = 1
                    _gso_off(sock)
                    continue
                start += step
                calls += 1
            fragments += -(-len(buf) // fragment_size)
            payload_bytes += desc.burst_size
            bursts += 1
            burst_seq += 1
            if pacing:
                next_send_ns += desc.next_period_ns
                wait_ns = next_send_ns - time.monotonic_ns()
                if wait_ns > 0:
                    time.sleep(wait_ns / NS_PER_S)
    finally:
        if own_sock:
            sock.close()
    return {
        "bursts_sent": bursts,
        "fragments_sent": fragments,
        "payload_bytes": payload_bytes,
        "send_calls": calls,
        "gso": per_call > 1,
    }


def _open_receive_socket(listen: tuple[str, int]) -> socket.socket:
    """A UDP socket bound to ``listen`` with a ``_RECV_BUFFER_BYTES`` buffer.

    The default buffer (212992 B on Linux) holds about 90 full-size
    datagrams, so a stall of the receiving process would make the kernel drop
    the overflow and ``recv`` report whole bursts as discarded.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RECV_BUFFER_BYTES)
        sock.bind(listen)
    except OSError:
        sock.close()
        raise
    return sock


def receive_bursts(
    listen: tuple[str, int],
    out_path,
    duration_s: float,
    sock: socket.socket | None = None,
) -> dict:
    """Collect fragments for ``duration_s``, reassembling one flow per source.

    Writes one CSV row per burst outcome: ``burst_seq,outcome,delay_ns,size``
    (outcome is ``received`` or ``discarded``; discarded rows leave delay
    empty). Returns receive counters; ``malformed`` counts datagrams whose
    header fails to decode or disagrees with its burst's first header, and
    reads the kernel truncated. ``bursts_in_flight`` counts the bursts still
    incomplete when the run ends (at most one a flow), which get no row.

    ``UDP_GRO`` is turned on for the socket, a passed-in one too, where the
    kernel accepts it (``gro`` in the counters). One read (``reads``) may then
    return several datagrams of a flow, cut at the segment size its control
    message gives, the last datagram being the shorter one; any other read is
    one datagram (``datagrams``). Each read is reassembled in one pass
    (:meth:`~vrburst.wire.BurstReassembler.on_datagrams`), and a read the
    kernel truncated is one malformed datagram, its cut points unknown.
    ``late`` counts fragments of a burst older than the flow's current one,
    and ``duplicates`` fragments that arrived twice. A source gets a flow with
    its first valid datagram; once ``_MAX_FLOWS`` sources have one, the
    datagrams of any other source are not reassembled but counted in
    ``datagrams_dropped``.
    """
    owned = _open_receive_socket(listen) if sock is None else contextlib.nullcontext(sock)
    with owned as sock, open(out_path, "w", encoding="utf-8") as fh:  # closes a socket it opened on every path
        sock.settimeout(0.2)
        try:
            sock.setsockopt(socket.IPPROTO_UDP, _UDP_GRO, 1)
            gro = True
        except OSError:
            gro = False
        cmsg_size = socket.CMSG_SPACE(4)
        flows: dict = {}
        malformed = dropped = datagrams = reads = late = 0
        deadline = time.monotonic() + duration_s
        fh.write("# source: vrburst recv\n")
        fh.write(f"# listen: {listen[0]}:{listen[1]}\n")
        fh.write("# clock: sender monotonic_ns; delays are only meaningful when "
                 "sender and receiver share a clock\n")
        fh.write("# columns: burst_seq,outcome,delay_ns,size\n")
        while time.monotonic() < deadline:
            try:
                data, ancdata, flags, addr = sock.recvmsg(_MAX_READ, cmsg_size)
            except socket.timeout:
                continue
            arrival = time.monotonic_ns()
            reads += 1
            if flags & _TRUNCATED:  # its cut points are unknown
                datagrams += 1
                malformed += 1
                continue
            step = len(data) or 1
            for level, kind, cdata in ancdata:
                if level == socket.IPPROTO_UDP and kind == _UDP_GRO:
                    step = int.from_bytes(cdata, sys.byteorder)
            count = -(-len(data) // step) or 1
            datagrams += count
            flow = flows.get(addr)
            if flow is None:
                if len(flows) >= _MAX_FLOWS:
                    dropped += count
                    continue
                flow = BurstReassembler()
            events, bad, old = flow.on_datagrams(data, step, arrival)
            if bad < count:  # a source's flow starts with its first valid datagram
                flows[addr] = flow
            malformed += bad
            late += old
            if events:
                fh.write("".join(
                    f"{e.burst_seq},received,{e.delay_ns},{e.burst_size}\n" if type(e) is BurstReceived
                    else f"{e.burst_seq},discarded,,{e.burst_size}\n"
                    for e in events
                ))
    counters = [flow.counters for flow in flows.values()]
    return {
        "datagrams": datagrams,
        "malformed": malformed,
        "datagrams_dropped": dropped,
        "late": late,
        "duplicates": sum(c.fragments_duplicate for c in counters),
        "bursts_received": sum(c.bursts_received for c in counters),
        "bursts_discarded": sum(c.bursts_failed for c in counters),
        "bursts_in_flight": sum(c.bursts_started - c.bursts_received - c.bursts_failed for c in counters),
        "flows": len(flows),
        "reads": reads,
        "gro": gro,
    }


def cmd_send(args) -> int:
    if args.max_bursts is not None and args.max_bursts < 0:
        raise ParameterError(f"--max-bursts must be >= 0, got {args.max_bursts}")
    (generator,), _ = build_generators(_generator_config(args), 1, args.seed, 0.0, _load_constants(args))
    counters = send_bursts(
        _parse_addr(args.dest),
        generator,
        fragment_size=args.fragment_size,
        pacing=not args.no_pacing,
        max_bursts=args.max_bursts,
        duration_s=args.duration_s,
    )
    print(json.dumps(counters))
    return EXIT_OK


def cmd_recv(args) -> int:
    counters = receive_bursts(_parse_addr(args.listen), args.out, args.duration_s)
    print(json.dumps(counters))
    return EXIT_OK


def _seconds(text: str) -> float:
    """The argparse type of ``--start-time``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value * NS_PER_S < math.inf:
        raise argparse.ArgumentTypeError(f"expected seconds >= 0, finite in nanoseconds, got {text!r}")
    return value


def _duration(text: str) -> float:
    """The argparse type of ``--duration-s``: seconds as for ``_seconds``, but not 0."""
    value = _seconds(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"expected seconds > 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, without the usage text."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=("vr", "simple", "trace"), default="vr",
                        help="burst source (default: vr)")
    parser.add_argument("--rate-mbps", type=float, default=50.0,
                        help="VR target data rate in Mbit/s (default: 50)")
    parser.add_argument("--fps", type=float, default=60.0,
                        help="VR frame rate (default: 60)")
    parser.add_argument("--size-dist", help="simple model: burst size spec, e.g. constant:10000")
    parser.add_argument("--period-dist", help="simple model: period spec in seconds, e.g. constant:0.01")
    parser.add_argument("--trace", help="trace CSV path (model=trace)")
    parser.add_argument("--start-time", type=_seconds, default=0.0,
                        help="trace replay start offset in seconds (default: 0)")
    parser.add_argument("--params", help="model constants JSON overriding the built-in fit")
    parser.add_argument("--seed", type=int, default=1, help="RNG seed (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vrburst",
        description="Bursty VR traffic toolkit: generate, replay, simulate, fit, measure.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic trace CSV")
    _add_model_flags(p)
    p.add_argument("--duration-s", type=_duration, required=True, help="trace duration in seconds")
    p.add_argument("--out", required=True, help="output trace CSV path")

    p = sub.add_parser("replay", help="re-window an existing trace into a new trace CSV")
    p.add_argument("--trace", required=True, help="input trace CSV")
    p.add_argument("--start-time", type=_seconds, default=0.0,
                   help="skip bursts before this offset in seconds (default: 0)")
    p.add_argument("--duration-s", type=_duration, default=None,
                   help="cap the replay window in seconds (default: rest of the trace)")
    p.add_argument("--out", required=True, help="output trace CSV path")

    p = sub.add_parser("simulate", help="run a bottleneck-link scenario, emit metrics JSON")
    _add_model_flags(p)
    p.add_argument("--stations", default="1", help="station count N or sweep A..B (default: 1)")
    p.add_argument("--link-mbps", type=float, default=866.0,
                   help="bottleneck link rate in Mbit/s (default: 866)")
    p.add_argument("--prop-delay-us", type=int, default=0,
                   help="one-way propagation delay in microseconds (default: 0)")
    p.add_argument("--overhead-bytes", type=int, default=0,
                   help="per-fragment lower-layer overhead in bytes (default: 0)")
    p.add_argument("--loss", type=float, default=0.0,
                   help="independent per-fragment loss probability (default: 0)")
    p.add_argument("--queue-limit", type=int, default=0,
                   help="link queue limit in fragments, 0 = unbounded (default: 0)")
    p.add_argument("--duration-s", type=_duration, default=10.0,
                   help="traffic generation horizon in seconds (default: 10)")
    p.add_argument("--fragment-size", type=int, default=DEFAULT_FRAGMENT_SIZE,
                   help=f"fragment size in bytes incl. header (default: {DEFAULT_FRAGMENT_SIZE})")
    p.add_argument("--out", help="write the metrics JSON here instead of stdout")

    p = sub.add_parser("stats", help="summarize a trace CSV as JSON on stdout")
    p.add_argument("trace", help="trace CSV path")

    p = sub.add_parser("fit", help="fit model constants from grouped trace CSVs")
    p.add_argument("traces", nargs="+", help="trace CSVs carrying target_rate_mbps/fps metadata")
    p.add_argument("--out", help="write the fitted constants JSON here (default: stdout)")
    p.add_argument("--report", help="also write the full per-group fit report JSON")
    p.add_argument("--em-restarts", type=int, default=50,
                   help="random restarts per mixture fit (default: 50)")
    p.add_argument("--uniform-weights", action="store_true",
                   help="weight groups uniformly instead of by fit goodness")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for EM restarts (default: 0)")

    p = sub.add_parser("send", help="send bursts over UDP")
    _add_model_flags(p)
    p.add_argument("--dest", required=True, help="destination HOST:PORT")
    p.add_argument("--fragment-size", type=int, default=DEFAULT_FRAGMENT_SIZE,
                   help=f"fragment size in bytes incl. header (default: {DEFAULT_FRAGMENT_SIZE})")
    p.add_argument("--max-bursts", type=int, default=None, help="stop after this many bursts")
    p.add_argument("--duration-s", type=_duration, default=None, help="stop after this many seconds")
    p.add_argument("--no-pacing", action="store_true",
                   help="ignore generator periods and send as fast as possible")

    p = sub.add_parser("recv", help="receive bursts over UDP, log outcomes to CSV")
    p.add_argument("--listen", required=True, help="bind address HOST:PORT")
    p.add_argument("--out", required=True, help="per-burst event CSV path")
    p.add_argument("--duration-s", type=_duration, default=10.0,
                   help="how long to listen in seconds (default: 10)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so a cmd_* patched after the first call is the one run
        return globals()[f"cmd_{args.command}"](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
