"""The deterministic event loop at the heart of the simulator.

The loop maintains a priority queue of scheduled callbacks keyed by
``(time, sequence_number)``.  The sequence number breaks ties between
events scheduled for the same instant, which makes every simulation run
bit-for-bit reproducible for a given seed: two events scheduled for the
same simulated time always fire in the order they were scheduled.

Heap entries are plain ``(time, seq, callback, args, event)`` tuples, so
every sift inside ``heappush``/``heappop`` compares tuples in C (the
unique ``seq`` settles every tie before the callback is reached).  The
``event`` slot holds the cancellable :class:`Event` handle that
:meth:`EventLoop.call_at`/:meth:`EventLoop.call_after` return, or
``None`` for :meth:`EventLoop.post_after` — fire-and-forget scheduling
that allocates no handle.  Most events (network deliveries, CPU
completions) are never cancelled, so only timers pay for one (see
``docs/SIMULATOR.md``, Performance).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.sim.errors import SchedulingError, StoppedError

#: Default for :attr:`EventLoop.auto_drain`; module-level so tests can
#: flip it for loops built deep inside an experiment (the equivalence
#: suite runs fig2 with auto-drain off and demands identical output).
AUTO_DRAIN_DEFAULT = True

#: Auto-drain only considers acting above this many tombstones — below
#: it, the cancelled entries cost less than the heapify would.
DRAIN_MIN_TOMBSTONES = 512


class Event:
    """The cancellable handle of a scheduled callback.

    Events are returned by :meth:`EventLoop.call_at` and
    :meth:`EventLoop.call_after` and can be cancelled before they fire.
    Cancelled events stay in the heap but are skipped on dispatch, which
    is much cheaper than removing them eagerly; the loop tracks the
    tombstone count and compacts the heap when they pile up.  The
    callback and its arguments live in the heap entry, not here.
    """

    __slots__ = ("time", "seq", "cancelled", "_loop")

    def __init__(self, time: float, seq: int, loop: "EventLoop | None" = None):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._loop is not None:
                self._loop._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class EventLoop:
    """A single-threaded discrete-event scheduler with a simulated clock.

    Typical use::

        loop = EventLoop()
        loop.call_after(1.0, print, "one second of simulated time")
        loop.run_until(10.0)

    The clock only advances when events are dispatched; a run with no
    events takes no wall-clock time regardless of the simulated horizon.

    **Stop/resume contract.**  :meth:`stop` halts dispatch at the next
    event boundary and leaves the clock wherever the last event fired —
    deliberately short of the requested horizon.  A stopped loop rejects
    both scheduling *and* running (:class:`StoppedError`), so a caller
    cannot accidentally "resume" into a clock that silently lags its
    horizon.  :meth:`resume` re-arms the loop explicitly; the clock then
    continues monotonically from where dispatch halted (no time travel
    in either direction).
    """

    def __init__(self, start_time: float = 0.0, auto_drain: bool | None = None):
        self._now = start_time
        self._heap: list[
            tuple[float, int, Callable[..., Any], tuple, Event | None]
        ] = []
        self._seq = 0
        self._stopped = False
        self._dispatched = 0
        # Tombstone bookkeeping: cancelled events still sitting in the
        # heap, and how many drains have removed so far.
        self._cancelled_pending = 0
        self._drained = 0
        self._peak_heap = 0
        #: Compact the heap automatically when cancelled tombstones
        #: exceed half of it (and :data:`DRAIN_MIN_TOMBSTONES`).  Purely
        #: a space/speed knob — dispatch order is unaffected either way.
        self.auto_drain = AUTO_DRAIN_DEFAULT if auto_drain is None else auto_drain

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def dispatched_events(self) -> int:
        """Total number of events dispatched so far."""
        return self._dispatched

    @property
    def cancelled_pending(self) -> int:
        """Cancelled tombstones currently sitting in the heap."""
        return self._cancelled_pending

    @property
    def drained_tombstones(self) -> int:
        """Total tombstones removed by (auto or explicit) drains."""
        return self._drained

    @property
    def peak_heap(self) -> int:
        """Largest heap size observed so far (capacity planning metric)."""
        return self._peak_heap

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` was called (and not yet :meth:`resume`\\ d)."""
        return self._stopped

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if self._stopped:
            raise StoppedError("cannot schedule events on a stopped loop")
        if when < self._now:
            raise SchedulingError(
                f"cannot schedule event in the past: {when:.6f} < now {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, self)
        heap = self._heap
        heappush(heap, (when, seq, callback, args, event))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)
        return event

    def call_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds of simulated time.

        The :meth:`call_at` body is inlined rather than delegated — a
        non-negative delay can never land in the past, which removes
        that check too.  Callers that never cancel should use
        :meth:`post_after`, which skips the handle.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        if self._stopped:
            raise StoppedError("cannot schedule events on a stopped loop")
        when = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, self)
        heap = self._heap
        heappush(heap, (when, seq, callback, args, event))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)
        return event

    def post_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds; no handle.

        The hottest scheduling entry point: every network delivery and
        CPU completion lands here.  Same checks, clock arithmetic and
        sequence numbering as :meth:`call_after` — so the two interleave
        exactly as two ``call_after`` calls would — but no :class:`Event`
        is allocated and the dispatch loop skips the tombstone check.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        if self._stopped:
            raise StoppedError("cannot schedule events on a stopped loop")
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heappush(heap, (self._now + delay, seq, callback, args, None))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def stop(self) -> None:
        """Stop the loop; :meth:`run_until` returns at the next dispatch point."""
        self._stopped = True

    def resume(self) -> None:
        """Re-arm a stopped loop.  The clock stays where dispatch halted."""
        self._stopped = False

    def run_until(self, horizon: float) -> None:
        """Dispatch events in order until the clock would pass ``horizon``.

        On return the clock reads exactly ``horizon``, so back-to-back
        calls with increasing horizons behave like one long run.  The
        exception is a :meth:`stop` during the run: dispatch halts at
        the next event boundary and the clock stays at the last
        dispatched event — strictly before ``horizon``.  Running (or
        scheduling on) the loop again without an explicit
        :meth:`resume` raises :class:`StoppedError`.
        """
        if self._stopped:
            raise StoppedError(
                "cannot run a stopped loop; call resume() to continue dispatch"
            )
        heap = self._heap
        pop = heappop
        while heap and not self._stopped:
            when, _, callback, args, event = heap[0]
            if when > horizon:
                break
            pop(heap)
            if event is not None and event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = when
            self._dispatched += 1
            callback(*args)
        if not self._stopped and self._now < horizon:
            self._now = horizon

    def run(self) -> None:
        """Dispatch events until the heap is exhausted or the loop stops.

        Like :meth:`run_until`, raises :class:`StoppedError` when called
        on an already-stopped loop.
        """
        if self._stopped:
            raise StoppedError(
                "cannot run a stopped loop; call resume() to continue dispatch"
            )
        heap = self._heap
        pop = heappop
        while heap and not self._stopped:
            when, _, callback, args, event = pop(heap)
            if event is not None and event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = when
            self._dispatched += 1
            callback(*args)

    def _note_cancelled(self) -> None:
        """One more tombstone; compact the heap when they dominate it."""
        count = self._cancelled_pending + 1
        self._cancelled_pending = count
        if (
            self.auto_drain
            and count >= DRAIN_MIN_TOMBSTONES
            and count * 2 >= len(self._heap)
        ):
            self.drain_cancelled()

    def drain_cancelled(self) -> int:
        """Remove cancelled events from the heap; returns how many were dropped.

        Compacts **in place** (the list object is reused), so a
        ``run_until`` currently iterating the heap — auto-drain can
        trigger from a callback's ``cancel()`` — keeps operating on the
        live heap.  Dispatch order is unchanged: the heap invariant is
        re-established over exactly the surviving entries.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [
            entry for entry in heap if entry[4] is None or not entry[4].cancelled
        ]
        heapify(heap)
        dropped = before - len(heap)
        self._cancelled_pending = 0
        self._drained += dropped
        return dropped
