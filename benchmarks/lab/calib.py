"""The lab's fixed calibration kernel (host-speed reference).

This sandbox's speed drifts by tens of percent over tens of seconds, so
a raw stopwatch read says more about the neighbours than about the code.
Every timed region in the lab is therefore interleaved, slice by slice,
with this kernel, and host-clock numbers are reported on the *reference
host*: ``raw_time * CALIB_REF_S / kernel_time``.

The kernel is a miniature of the repo's own instruction mix (property
views over a ``bytearray``, ``struct`` field reads, tuple keys into
dicts, per-packet object churn) because a plain integer loop does not
slow down in step with it.  It imports nothing from ``repro`` and must
never change: it is the unit the ruler is marked in.
"""

from __future__ import annotations

import gc
import struct
import time
from typing import List

__all__ = ["CALIB_REF_S", "CALIB_PACKETS", "kernel", "Calibrator"]

#: Kernel time on the reference host (this sandbox in a quiet spell).
CALIB_REF_S = 0.0100
#: Frames per kernel call.
CALIB_PACKETS = 1500


class _View:
    __slots__ = ("buf", "off")

    def __init__(self, buf: bytearray, off: int):
        self.buf = buf
        self.off = off

    @property
    def src(self) -> int:
        return struct.unpack_from("!I", self.buf, self.off + 12)[0]

    @property
    def dst(self) -> int:
        return struct.unpack_from("!I", self.buf, self.off + 16)[0]

    @property
    def ttl(self) -> int:
        return self.buf[self.off + 8]

    @ttl.setter
    def ttl(self, value: int) -> None:
        self.buf[self.off + 8] = value & 255


class _Frame:
    __slots__ = ("buf", "meta")

    def __init__(self, buf: bytearray):
        self.buf = buf
        self.meta = None

    @property
    def ip(self) -> _View:
        return _View(self.buf, 14)

    def key(self) -> tuple:
        ip = self.ip
        return (ip.src, ip.dst, struct.unpack_from("!HH", self.buf, 34))

    def copy(self) -> "_Frame":
        return _Frame(bytearray(self.buf))


class _Stage:
    def __init__(self) -> None:
        self.table: dict = {}
        self.seen = 0

    def handle(self, frame: _Frame) -> bool:
        key = frame.key()
        self.seen += 1
        self.table[key] = self.table.get(key, 0) + 1
        ip = frame.ip
        ip.ttl = ip.ttl - 1
        return ip.ttl > 0


def _frames() -> List[_Frame]:
    frames = []
    for i in range(CALIB_PACKETS):
        buf = bytearray(64)
        struct.pack_into("!II", buf, 26, 0x0A000000 | (i * 2654435761) & 0xFFFFFF,
                         0x0AC80000 | (i * 40503) & 0xFFFF)
        struct.pack_into("!HH", buf, 34, 10000 + i % 251, 80)
        buf[22] = 200
        frames.append(_Frame(buf))
    return frames


_FRAMES = _frames()


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    stages = [_Stage(), _Stage(), _Stage()]
    out = []
    for frame in _FRAMES:
        frame.buf[22] = 200
        versions = {1: frame, 2: frame.copy()}
        alive = True
        for stage in stages:
            if not stage.handle(versions[1]):
                alive = False
        stages[0].handle(versions[2])
        if alive:
            out.append(versions[1])
    return time.perf_counter() - start


class Calibrator:
    """Collects kernel samples interleaved with the work they calibrate."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> None:
        # The kernel churns objects, and a collection that fell due inside
        # it would walk the workload's live heap on the kernel's stopwatch:
        # which side pays is fixed by the seed, and read as a speed
        # difference between seeds of up to 14% on flash_crowd_des.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(kernel())
        finally:
            if enabled:
                gc.enable()

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)
