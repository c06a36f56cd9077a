"""Receiver child process of the udp-loopback workload.

It imports vrburst from ``--src``, binds a UDP socket on ``--listen`` port 0
with a ``--rcvbuf`` receive buffer request and prints ``port <port>``. Then,
for each input line ``<events.csv>\t<seconds>``, it prints ``receiving``, runs
``vrburst.cli.receive_bursts`` (the loop of ``vrburst recv``) on that socket
for that many seconds and prints one JSON line: the receive counters plus the
CPU and wall seconds of the call. At end of input it prints one JSON line
with its peak RSS and, with ``--trace 1``, its spans, and exits.

Usage: python3 recv_child.py --src SRC --listen HOST --rcvbuf BYTES --trace 0|1
"""

import argparse
import json
import resource
import socket
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--listen", required=True)
    parser.add_argument("--rcvbuf", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import vrburst.cli
    from tracer import RECEIVER_PATCHES, Tracer

    tracer = None
    if args.trace == "1":
        tracer = Tracer()
        tracer.install(RECEIVER_PATCHES)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, args.rcvbuf)
        sock.bind((args.listen, 0))
        port = sock.getsockname()[1]
        print(f"port {port}", flush=True)
        for line in sys.stdin:
            events, seconds = line.rstrip("\n").split("\t")
            print("receiving", flush=True)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            counters = vrburst.cli.receive_bursts((args.listen, port), events, float(seconds), sock=sock)
            counters["cpu_s"] = time.process_time() - cpu0
            counters["wall_s"] = time.perf_counter() - wall0
            print(json.dumps(counters), flush=True)
    final = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.to_json() if tracer else [],
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
