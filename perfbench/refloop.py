"""Stdlib-only reference loop and the calibrated-seconds arithmetic.

Host time on a shared machine drifts by tens of percent within a
minute, while the *ratio* of a simulation's host time to a fixed
reference workload run beside it stays within a few percent.  Every
host timing the benchmark reports is therefore in calibrated seconds::

    calibrated = measured * NOMINAL_REF_S / measured_reference

The reference loop is a miniature discrete-event simulation (a heap of
timestamped bound-method callbacks, a slotted message allocated per
event, tuple-keyed dict counters and lognormal draws) so that it leans
on the same interpreter paths as the simulator; a plain arithmetic loop
tracked the simulator's host time about half as well.  It must stay
independent of the program under test: this module imports nothing
from ``repro`` (a test enforces it), it runs with the garbage collector
off, so no collection scans the program's heap inside it, and it leaves
no reference cycles, so no collection it causes runs later inside a
timed slice.  A change to the program can therefore never change the
yardstick.
"""

from __future__ import annotations

import gc
import random
import time
from heapq import heappop, heappush

#: Events one reference run dispatches.
REF_EVENTS = 1000

#: Host seconds one reference run took on the machine the benchmark was
#: calibrated on (2-core x86-64 container, CPython 3.11).  Calibrated
#: seconds therefore read close to raw seconds there.
NOMINAL_REF_S = 0.004

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


class _Message:
    __slots__ = ("src", "dst", "size")

    def __init__(self, src: int, dst: int, size: float) -> None:
        self.src = src
        self.dst = dst
        self.size = size


class _Node:
    __slots__ = ("ident", "load", "seen", "peers", "store")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.load = 0.0
        self.seen = 0
        self.peers: list[int] = []
        self.store: dict[tuple[int, int], int] = {}

    def on_message(self, now: float, message: _Message) -> float:
        self.load += message.size
        self.seen += 1
        key = (message.src, self.seen & 255)
        self.store[key] = self.store.get(key, 0) + 1
        return now + message.size * 1e-4


def reference_loop() -> float:
    """One fixed, deterministic unit of interpreter work; returns a checksum."""
    rng = random.Random(20240607)
    nodes = [_Node(i) for i in range(64)]
    for node in nodes:
        node.peers = [i for i in range(64) if i != node.ident][:8]
    heap: list = []
    seq = 0
    for k in range(300):
        message = _Message(k % 64, (k + 1) % 64, 1.0)
        heappush(heap, (rng.random(), seq, nodes[k % 64].on_message, message))
        seq += 1
    checksum = 0.0
    for _ in range(REF_EVENTS):
        now, _, callback, message = heappop(heap)
        done = callback(now, message)
        checksum += done
        node = nodes[message.dst]
        peer = nodes[node.peers[int(rng.random() * 8)]]
        forward = _Message(node.ident, peer.ident, message.size * 0.5 + 0.5)
        heappush(heap, (done + rng.lognormvariate(-7.0, 0.3), seq, peer.on_message, forward))
        seq += 1
    return checksum


def time_reference() -> float:
    """Host seconds of one reference run, with the garbage collector off.

    The collector is restored to the state the program left it in.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def calibrate(measured: float, reference: float) -> float:
    """Convert ``measured`` host seconds to calibrated seconds."""
    if reference <= 0:
        raise ValueError(f"reference time must be positive, got {reference}")
    return measured * NOMINAL_REF_S / reference


def calibrate_slices(raw: list[float], refs: list[float]) -> list[float]:
    """Calibrate per-slice host times by the reference runs around them.

    ``refs[i]`` and ``refs[i + 1]`` are the reference runs made right
    before and right after slice ``i``, so ``refs`` has one entry more
    than ``raw``.  Bracketing each slice tracked the simulator's speed
    better than any wider median of neighbouring references.
    """
    if len(refs) != len(raw) + 1:
        raise ValueError("one reference run before each slice and one after the last")
    return [calibrate(r, (refs[i] + refs[i + 1]) / 2) for i, r in enumerate(raw)]


def supports_tail(n: int, q: float) -> bool:
    """Whether ``n`` samples leave :data:`MIN_BEYOND` beyond the ``q`` quantile."""
    return n * (1.0 - q) >= MIN_BEYOND - 1e-9


def tail_percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile that refuses an unsupported tail.

    Raises :class:`ValueError` unless at least :data:`MIN_BEYOND`
    samples lie beyond the ``q`` quantile, i.e. ``len * (1 - q) >= 10``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    n = len(values)
    if not supports_tail(n, q):
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves fewer than {MIN_BEYOND} beyond it"
        )
    ordered = sorted(values)
    position = q * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])
