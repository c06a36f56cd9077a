"""In-memory span tracer wrapped around vrburst's public functions.

A span is one call of a wrapped function. Spans are not kept one by one:
they are aggregated per (name, parent name) into call count, total time,
time covered by child spans and a work count (fragments, words, bursts...),
so a run over hundreds of thousands of fragments stays small. Self time is
total minus child time; summed over every (name, parent) pair it equals the
time of the root spans, which is how the traced wall time is accounted for.

Span names are ``<layer>.<function>``, where the layer is the vrburst module
the function belongs to (rv, model, generator, wire, sim, fit, cli) or
``bench`` for the benchmark's own root span.
"""

from __future__ import annotations

import contextlib
import importlib
import time

LAYERS = ("rv", "model", "generator", "wire", "sim", "fit", "cli", "bench")


def _words(result, args, kwargs):
    return getattr(result, "size", 1)


def _length(result, args, kwargs):
    return len(result)


def _one(result, args, kwargs):
    return 1


def _records_arg(result, args, kwargs):
    return len(args[1])


def _records_result(result, args, kwargs):
    return len(result.records)


def _sim_fragments(result, args, kwargs):
    return result.fragments_sent


def _summarized_fragments(result, args, kwargs):
    return args[0].fragments_sent


def _samples_restarts(result, args, kwargs):
    return len(args[0]) * kwargs.get("restarts", 50)


# (module, owner attribute or None, function attribute, span name, work count).
# Functions are patched where their callers look them up: a name imported
# with ``from x import f`` is patched in the importing module.
SENDER_PATCHES = (
    ("vrburst.rv", "RngStream", "uniform", "rv.uniform", _words),
    ("vrburst.generator", None, "sample_vr_frame", "model.sample_vr_frame", _one),
    ("vrburst.generator", None, "sample_vr_ifi", "model.sample_vr_ifi", _one),
    ("vrburst.generator", "VrBurstGenerator", "generate_burst", "generator.generate_burst", _one),
    ("vrburst.cli", None, "save_trace", "generator.save_trace", _records_arg),
    ("vrburst.cli", None, "load_trace", "generator.load_trace", _records_result),
    ("vrburst.sim", None, "fragment_burst", "wire.fragment_burst", _length),
    ("vrburst.cli", None, "fragment_burst", "wire.fragment_burst", _length),
    ("vrburst.wire", "BurstReassembler", "on_fragment", "wire.on_fragment", _one),
    ("vrburst.cli", None, "encode_header", "wire.encode_header", _one),
    ("vrburst.sim", None, "simulate", "sim.simulate", _sim_fragments),
    ("vrburst.sim", None, "summarize", "sim.summarize", _summarized_fragments),
    ("vrburst.cli", None, "group_traces", "fit.group_traces", _length),
    ("vrburst.cli", None, "fit_vr_model", "fit.fit_vr_model", _one),
    ("vrburst.fit", None, "fit_gmm2_em", "fit.fit_gmm2_em", _samples_restarts),
    ("vrburst.cli", None, "main", "cli.main", _one),
    ("vrburst.cli", None, "cmd_generate", "cli.generate", _one),
    ("vrburst.cli", None, "cmd_stats", "cli.stats", _one),
    ("vrburst.cli", None, "cmd_replay", "cli.replay", _one),
    ("vrburst.cli", None, "cmd_simulate", "cli.simulate", _one),
    ("vrburst.cli", None, "cmd_fit", "cli.fit", _one),
    ("vrburst.cli", None, "send_bursts", "cli.send", _one),
)

RECEIVER_PATCHES = (
    ("vrburst.cli", None, "decode_header", "wire.decode_header", _one),
    ("vrburst.wire", "BurstReassembler", "on_fragment", "wire.on_fragment", _one),
    ("vrburst.cli", None, "receive_bursts", "cli.recv", _one),
)


class Tracer:
    """Aggregating span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self._stack: list = []  # open spans: [name, child_ns]
        # (name, parent) -> [calls, total_ns, child_ns, work]
        self.spans: dict = {}
        self._patched: list = []

    def wrap(self, name, fn, count):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = (name, parent[0] if parent is not None else None)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
            rec[3] += count(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of benchmark code, such as one traced pass."""
        stack, clock = self._stack, time.perf_counter_ns
        parent = stack[-1] if stack else None
        frame = [name, 0]
        stack.append(frame)
        start = clock()
        try:
            yield
        finally:
            elapsed = clock() - start
            stack.pop()
            if parent is not None:
                parent[1] += elapsed
            rec = self.spans.setdefault((name, parent[0] if parent else None), [0, 0, 0, 0])
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += frame[1]
            rec[3] += 1

    def install(self, patches):
        for module_name, owner_name, attr, name, count in patches:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            setattr(owner, attr, self.wrap(name, original, count))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- aggregation ----------------------------------------------------------

    def totals(self, name):
        """(calls, total_ns, self_ns, work) summed over every parent of ``name``."""
        calls = total = self_ns = work = 0
        for (span_name, _), (c, t, child, w) in self.spans.items():
            if span_name == name:
                calls += c
                total += t
                self_ns += t - child
                work += w
        return calls, total, self_ns, work

    def work_under(self, name, parent):
        rec = self.spans.get((name, parent))
        return rec[3] if rec else 0

    def layer_self_ns(self) -> dict:
        out = {layer: 0 for layer in LAYERS}
        for (name, _), (_, total, child, _) in self.spans.items():
            out[name.split(".", 1)[0]] += total - child
        return out

    def root_ns(self) -> int:
        return sum(rec[1] for (name, parent), rec in self.spans.items() if parent is None)

    def to_json(self) -> list:
        return [
            {"name": name, "parent": parent, "calls": c, "total_ns": t, "self_ns": t - child, "work": w}
            for (name, parent), (c, t, child, w) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]

    @classmethod
    def from_json(cls, rows) -> "Tracer":
        """Sum aggregates other processes wrote with ``to_json``."""
        tracer = cls()
        for row in rows:
            rec = tracer.spans.setdefault((row["name"], row["parent"]), [0, 0, 0, 0])
            rec[0] += row["calls"]
            rec[1] += row["total_ns"]
            rec[2] += row["total_ns"] - row["self_ns"]
            rec[3] += row["work"]
        return tracer
