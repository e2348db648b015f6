"""Serial CPU service stations.

A :class:`Processor` models one replica's CPU as a FIFO queue of jobs,
each with a simulated service time.  When more work arrives than the
station can serve, jobs queue up and their completion is delayed — this
queueing is the *only* source of overload behaviour in the simulator,
which is exactly the phenomenon the paper's evaluation measures
(Figures 2, 6 and 9: latency explodes once the offered load exceeds the
saturation point).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Optional

from repro.sim.loop import EventLoop
from repro.sim.rng import lognormal


class Processor:
    """A serial FIFO service station bound to an event loop.

    Jobs submitted via :meth:`submit` are served one at a time; each job
    occupies the processor for its service ``cost`` (simulated seconds)
    and its callback runs at completion time.  The station keeps
    utilisation and queueing statistics for experiment reporting.

    ``jitter_sigma`` adds log-normal noise to every job's service time,
    modelling OS scheduling and processing-time variation — the source
    of the cross-replica divergence the paper's acceptance tests have to
    cope with (Section 5.1).  ``jitter_rng`` must be provided when the
    sigma is non-zero so runs stay reproducible.
    """

    def __init__(
        self,
        loop: EventLoop,
        name: str = "cpu",
        speed: float = 1.0,
        jitter_sigma: float = 0.0,
        jitter_rng: Optional[random.Random] = None,
    ):
        if speed <= 0:
            raise ValueError(f"processor speed must be positive, got {speed}")
        if jitter_sigma < 0:
            raise ValueError(f"jitter sigma must be non-negative, got {jitter_sigma}")
        if jitter_sigma > 0 and jitter_rng is None:
            raise ValueError("jitter requires an explicit RNG for reproducibility")
        self._loop = loop
        self.name = name
        self.speed = speed
        self.jitter_sigma = jitter_sigma
        self._jitter_rng = jitter_rng
        self._queue: deque[tuple[float, Callable[..., Any], tuple]] = deque()
        self._busy_until: float = 0.0
        self._running = False
        self._halted = False
        # Statistics.
        self.jobs_completed = 0
        self.busy_time = 0.0
        self.max_queue_length = 0

    @property
    def queue_length(self) -> int:
        """Number of jobs waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """Whether a job is currently in service."""
        return self._running

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the station spent serving jobs."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def halt(self) -> None:
        """Stop serving jobs permanently (models a crashed replica).

        Queued jobs are dropped and future submissions are ignored.
        """
        self._halted = True
        self._queue.clear()

    def set_speed(self, speed: float) -> None:
        """Change the station's service speed (gray-failure injection).

        Only jobs submitted from now on are affected: already-queued
        jobs had their service time fixed at submission, matching a CPU
        whose frequency changes between, not within, scheduled slices.
        """
        if speed <= 0:
            raise ValueError(f"processor speed must be positive, got {speed}")
        self.speed = speed

    def submit(self, cost: float, callback: Callable[..., Any], *args: Any) -> None:
        """Enqueue a job with service time ``cost / speed``.

        The callback runs when the job *completes* service; queueing
        delay is implicit in when that happens.
        """
        if self._halted:
            return
        if cost < 0:
            raise ValueError(f"negative job cost: {cost}")
        if self.jitter_sigma > 0.0 and cost > 0.0:
            cost *= lognormal(self._jitter_rng.random, 0.0, self.jitter_sigma)
        self._queue.append((cost / self.speed, callback, args))
        if len(self._queue) > self.max_queue_length:
            self.max_queue_length = len(self._queue)
        if not self._running:
            self._start_next()

    def _start_next(self) -> None:
        if self._halted or not self._queue:
            self._running = False
            return
        cost, callback, args = self._queue.popleft()
        self._running = True
        self.busy_time += cost
        self._loop.post_after(cost, self._complete, callback, args)

    def _complete(self, callback: Callable[..., Any], args: tuple) -> None:
        if self._halted:
            self._running = False
            return
        self.jobs_completed += 1
        # Run the job body before starting the next one so that any work
        # it submits lands behind jobs that were already queued.
        callback(*args)
        self._start_next()
