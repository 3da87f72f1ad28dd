"""Host-clock spans recorded from outside, and the arithmetic on them.

The traced repeat wraps the repo's layer entry points with recorders
that live in this file, keeps every span in memory, and writes a Chrome
``trace_event`` file when the repeat ends.  A layer's self time is its
spans' duration minus the part their child spans cover; shares are self
times over the total of the top-level spans, so they sum to one.
Nothing here imports :mod:`repro` at module level -- the span-tree
arithmetic is unit-tested without it.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "layer_of", "install_wrappers", "LAYERS"]

#: Layers shares are published for (the repo's packages).
LAYERS = ("traffic", "net.crypto", "net.fields", "net.copy", "nfs",
          "dataplane", "sim", "telemetry")

#: Most spans written to the Chrome trace file (all are counted).
TRACE_FILE_SPANS = 20000


def layer_of(name: str) -> str:
    """``nfs.firewall`` -> ``nfs``; ``net.copy.header`` -> ``net.copy``."""
    for layer in sorted(LAYERS, key=len, reverse=True):
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class SpanRecorder:
    """In-memory span store: ``[name_id, start, end, parent, packet]``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # ---------------------------------------------------------- recording
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, func: Callable,
             packet_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """Wrap ``func`` so each call records one span.

        ``name`` is a string or a callable over the call's arguments;
        ``packet_of`` extracts a packet id, which otherwise is inherited
        from the enclosing span; ``on_result`` sees the return value
        after the span has closed (counts taken where the work happens).
        """
        spans, stack, clock = self.spans, self._stack, self.clock
        fixed = self.name_id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if packet_of is not None:
                packet = packet_of(*args)
            else:
                packet = spans[parent][4] if parent >= 0 else -1
            nid = fixed if fixed is not None else self.name_id(name(*args))
            span = [nid, 0.0, 0.0, parent, packet]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = func
        return traced

    def add(self, name: str, start: float, end: float, parent: int = -1,
            packet: int = -1) -> int:
        """Append a finished span directly (tests, synthetic roots)."""
        self.spans.append([self.name_id(name), start, end, parent, packet])
        return len(self.spans) - 1

    # ------------------------------------------------------- installation
    def patch_method(self, cls, attr: str, name, packet_of=None,
                     on_result=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, packet_of, on_result))
        self._undo.append(lambda: setattr(cls, attr, original))

    def patch_function(self, func: Callable, name) -> None:
        """Replace every ``repro.*`` module attribute bound to ``func``."""
        wrapped = self.wrap(name, func)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, func))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ---------------------------------------------------------- arithmetic
    def self_times(self) -> List[float]:
        """Per span: duration minus what its direct children cover."""
        cover = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        return [(span[2] - span[1]) - cover[i]
                for i, span in enumerate(self.spans)]

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def by_name(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        selfs = self.self_times()
        table: Dict[str, List[float]] = {}
        for (nid, start, end, _, _), own in zip(self.spans, selfs):
            row = table.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return {name: (int(r[0]), r[1], r[2]) for name, r in table.items()}

    def layer_shares(self) -> Dict[str, float]:
        """Self-time share of each layer; sums to one over :data:`LAYERS`."""
        total = self.root_time()
        shares = {layer: 0.0 for layer in LAYERS}
        if total <= 0.0:
            return shares
        for name, (_, _, own) in self.by_name().items():
            shares[layer_of(name)] += own / total
        return shares

    def top(self, count: int = 8) -> List[Tuple[str, int, float, float]]:
        """The ``count`` span names with the most self time."""
        rows = sorted(self.by_name().items(), key=lambda kv: kv[1][2],
                      reverse=True)
        return [(name, calls, total, own)
                for name, (calls, total, own) in rows[:count]]

    # --------------------------------------------------------------- output
    def write_chrome_trace(self, path: str, process: str) -> int:
        """Write the first spans as Chrome ``trace_event`` complete events."""
        if not self.spans:
            origin = 0.0
        else:
            origin = self.spans[0][1]
        events = [{"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
                   "args": {"name": process}}]
        for index, (nid, start, end, parent, packet) in enumerate(
                self.spans[:TRACE_FILE_SPANS]):
            name = self.names[nid]
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": name,
                "cat": layer_of(name),
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent, "packet": packet},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"spans_total": len(self.spans)}}, handle)
        return len(events) - 1


def _packet_uid(*args) -> int:
    """Packet id of ``Packet.method(self)``."""
    return args[0].uid


def _second_uid(*args) -> int:
    """Packet id of ``owner.method(self, pkt)``."""
    return args[1].uid


def install_wrappers(rec: SpanRecorder, copy_bytes: List[int]) -> None:
    """Wrap the layer entry points of :mod:`repro` (call after set-up).

    ``copy_bytes[0]`` accumulates the size of every copy made.
    """
    from repro.dataplane.chaining import ChainingManager
    from repro.dataplane.flowsplit import assign_instances
    from repro.dataplane.functional import FunctionalDataplane
    from repro.dataplane.merging import apply_merge_ops
    from repro.dataplane.server import NFPServer
    from repro.net.crypto import aes_ctr_transform, compute_icv
    from repro.net.packet import Packet
    from repro.nfs.base import NetworkFunction
    from repro.sim.engine import Environment
    from repro.telemetry.hooks import TelemetryHub
    from repro.traffic.generator import FlowGenerator

    rec.patch_method(NetworkFunction, "handle",
                     lambda nf, pkt: "nfs." + nf.KIND, _second_uid)
    def copied(copy) -> None:
        copy_bytes[0] += len(copy.buf)

    rec.patch_method(Packet, "header_copy", "net.copy.header", _packet_uid, copied)
    rec.patch_method(Packet, "full_copy", "net.copy.full", _packet_uid, copied)
    rec.patch_method(Packet, "five_tuple", "net.fields.five_tuple", _packet_uid)
    rec.patch_method(ChainingManager, "classify", "dataplane.classify")
    rec.patch_method(FunctionalDataplane, "process_many", "dataplane.walk")
    rec.patch_method(NFPServer, "inject", "dataplane.inject", _second_uid)
    rec.patch_method(FlowGenerator, "next_packet", "traffic.next_packet")
    rec.patch_method(Environment, "run", "sim.run")
    rec.patch_method(TelemetryHub, "inc", "telemetry.inc")
    rec.patch_method(TelemetryHub, "observe", "telemetry.observe")
    rec.patch_function(apply_merge_ops, "dataplane.merge")
    rec.patch_function(assign_instances, "dataplane.assign")
    rec.patch_function(aes_ctr_transform, "net.crypto.aes_ctr")
    rec.patch_function(compute_icv, "net.crypto.icv")


def count_calls(func: Callable[[], object]) -> int:
    """Exact number of Python and C function calls ``func()`` makes."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profiler)
    try:
        func()
    finally:
        sys.setprofile(None)
    # The profiler sees its own removal (one c_call to sys.setprofile).
    return calls - 1
