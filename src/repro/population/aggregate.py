"""One network node standing in for N closed-loop clients.

The :class:`AggregateClientNode` reproduces the *externally observable*
behaviour of ``clients`` per-object closed-loop clients — the request
stream the replicas see, the per-cid at-most-once bookkeeping they rely
on, and the latency/outcome statistics the experiment layer collects —
while keeping all internal state O(active requests) instead of O(N).

Three operating modes, selected by the effective think time Z and the
optional open-loop arrival plan:

* **exact closed loop** (``Z == 0``, no arrivals): each completion
  re-issues the next operation immediately (inline, zero extra events);
  rejection backoffs and retry delays get one precisely timed event
  each.  This mode is behaviourally equivalent to the per-object
  clients and is what the validation harness compares against.
* **analytic closed loop** (``Z > 0``): virtual clients in their think
  phase are a counter, not objects.  Arrivals are an inhomogeneous
  Poisson process at ``lambda_eff(t) = m(t) * thinkers(t) / Z`` (``m``
  is the MMPP/schedule modulation), integrated with the standard
  unit-exponential residual so rate changes need no re-draws; the rate
  is re-derived on a periodic *feedback tick* from the think-pool
  population — the analytic stand-in for N per-client think timers.
* **open loop** (an :class:`~repro.workload.open_loop.ArrivalSpec` is
  attached): arrivals follow the plan's piecewise rate; arrivals that
  find all N virtual clients busy are counted as shed, mirroring
  :class:`~repro.workload.open_loop.OpenLoopDriver`'s finite pool.

Request identities are fabricated deterministically: cids are drawn
from a seeded ``population.cids`` stream out of the currently-free id
space (so at most one in-flight operation per virtual client, exactly
like the object clients), and onrs come from one monotone counter —
per-cid onrs are then strictly increasing, which is all the replicas'
at-most-once window needs.  Client-side reactive behaviour (request
timeouts, retransmissions, Paxos leader failover, hedges) uses lazy
deadline queues drained on the feedback tick instead of one timer per
request.

Everything here is ordinary simulation state; the node is observer-pure
in the same sense as the object clients (``obs``/``reply_log`` hooks
never feed back into timing).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Optional

from repro.net.addresses import Address, client_address, replica_address
from repro.net.message import Message
from repro.protocols.clients import (
    BroadcastClient,
    LbrClient,
    SingleTargetClient,
)
from repro.protocols.messages import Reject, Reply, Request, Rid
from repro.resilience import ABANDON, make_hedge_policy, make_retry_policy
from repro.sim.timers import Timer

# Dissemination strategies (mirror the client class hierarchy).
IDEM = "idem"
LEADER = "leader"
LBR = "lbr"
BROADCAST = "broadcast"


def dissemination_mode(client_class: type) -> str:
    """Map a registry client class onto an aggregate dissemination mode."""
    # Imported here to keep repro.population importable without pulling
    # the whole core package at module-import time.
    from repro.core.client import IdemClient

    if issubclass(client_class, IdemClient):
        return IDEM
    if issubclass(client_class, LbrClient):
        return LBR
    if issubclass(client_class, SingleTargetClient):
        return LEADER
    if issubclass(client_class, BroadcastClient):
        return BROADCAST
    raise ValueError(
        f"no aggregate dissemination strategy for {client_class.__name__}"
    )


class _ActiveOp:
    """Per-in-flight-operation record (the only per-request state)."""

    __slots__ = (
        "cid",
        "onr",
        "command",
        "first_send",
        "send_time",
        "attempt",
        "rejecting",
        "grace_armed",
        "hedges_attempt",
    )

    def __init__(self, cid: int, command) -> None:
        self.cid = cid
        self.onr = 0
        self.command = command
        self.first_send = 0.0
        self.send_time = 0.0
        self.attempt = 0
        self.rejecting = 0  # bitmask of rejecting replica indices
        self.grace_armed = False
        self.hedges_attempt = 0


class AggregateClientNode:
    """N virtual closed-loop clients folded into one network node."""

    is_aggregate = True

    def __init__(
        self,
        population,
        client_class: type,
        loop,
        network,
        config,
        metrics,
        workload,
        rng,
        n_clients: int,
        stop_time: float = math.inf,
        schedule=None,
        arrivals=None,
        ramp: float = 0.1,
    ) -> None:
        if n_clients < 1:
            raise ValueError(f"need at least one virtual client, got {n_clients}")
        self.population = population
        self.mode = dissemination_mode(client_class)
        self.loop = loop
        self.network = network
        self.config = config
        self.metrics = metrics
        self.workload = workload
        self.n_clients = n_clients
        self.stop_time = stop_time
        self.schedule = schedule
        self.arrivals = arrivals
        self.ramp = ramp
        # Nominal address (the node is routed, not attached; every
        # message carries a fabricated per-virtual-client source).
        self.address = client_address(0)
        self.cid = "population"
        self.replicas = [replica_address(i) for i in range(config.n)]
        self.think_time = population.effective_think_time(config)

        self._ops_rng = rng.stream("population.ops")
        self._timing_rng = rng.stream("population.timing")
        self._cid_rng = rng.stream("population.cids")
        self._arrival_rng = rng.stream("population.arrivals")
        self._mmpp_rng = rng.stream("population.mmpp")
        self.retry_policy = make_retry_policy(
            _scale_retry_budget(config, n_clients), self.cid, rng, self._timing_rng
        )
        self.hedge_policy = make_hedge_policy(config)

        # Identity fabrication: free virtual-client ids (swap-pop draw)
        # and one monotone operation-number counter shared by all cids.
        self._free_cids = list(range(n_clients))
        self._onr = 0
        self._active: dict[Rid, _ActiveOp] = {}

        # Lazy deadline queues, drained on the feedback tick.  Each is
        # monotone by construction (deadline = push-time + a per-queue
        # constant); hedges may use observed-percentile delays, so they
        # get a heap instead.
        self._timeout_q: deque = deque()
        self._retransmit_q: deque = deque()
        self._failover_q: deque = deque()
        self._hedge_q: list = []
        self._hedge_seq = 0

        # Closed-loop / analytic / open-loop pool state.
        self._running = 0  # virtual clients cycling in exact closed loop
        self._think = 0  # think-pool population (analytic mode)
        self._available = 0  # idle virtual clients (open-loop mode)
        self._lambda = 0.0
        self._exp_remaining = 0.0  # residual of the unit-exponential draw
        self._int_anchor = 0.0  # time the residual was last consumed to
        self._arrival_timer = Timer(loop, self._on_arrival)
        self._mmpp_burst = False
        self._mmpp_timer = Timer(loop, self._on_mmpp_flip)
        self._presumed_leader = 0
        self._optimistic = getattr(config, "optimistic_client", True)
        self._grace = getattr(config, "optimistic_grace", 0.005)
        self._reject_to_think = population.reject_reentry == "think"

        self.stopped = False
        self.driver = None

        # BaseClient-compatible counters (Cluster.client_stats and the
        # probe layer read these attribute names directly).
        self.commands_started = 0
        self.sends = 0
        self.retries = 0
        self.hedges = 0
        self.give_ups = 0
        self.successes = 0
        self.rejections = 0
        self.timeouts = 0
        # IDEM outcome-state statistics (match IdemClient's).
        self.ambivalent_aborts = 0
        self.failure_aborts = 0
        self.early_warnings = 0
        # Aggregate-specific accounting.
        self.arrivals_generated = 0
        self.shed_arrivals = 0
        self.lost_arrivals = 0  # analytic arrivals that found no thinker
        self.feedback_ticks = 0
        self.reply_log: Optional[list[Rid]] = None
        self.obs = None

    # -- compatibility surface ------------------------------------------

    def probe_state(self) -> dict[str, float]:
        """BaseClient's probe counters plus aggregate-pool gauges."""
        return {
            "commands": float(self.commands_started),
            "sends": float(self.sends),
            "retries": float(self.retries),
            "hedges": float(self.hedges),
            "give_ups": float(self.give_ups),
            "successes": float(self.successes),
            "rejections": float(self.rejections),
            "timeouts": float(self.timeouts),
            "virtual_clients": float(self.n_clients),
            "active_requests": float(len(self._active)),
            "think_pool": float(self._think),
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Begin generating load (mirrors the builder's client ramp)."""
        if self._uses_rate_process():
            if self.arrivals is None:
                self._think = self.n_clients
            else:
                self._available = self.n_clients
            self._exp_remaining = self._arrival_rng.expovariate(1.0)
            self._int_anchor = self.loop.now
            self._refresh_rate()
            if self.population.process == "mmpp":
                self._mmpp_timer.start(
                    self._mmpp_rng.expovariate(1.0 / self.population.dwell_normal)
                )
        else:
            # Exact closed loop: stagger the N virtual clients over the
            # same ramp window the per-object builder uses.
            self._running = self.n_clients
            n = self.n_clients
            for i in range(n):
                self.loop.call_at(self.ramp * (i + 1) / n, self._ramp_start)
        self._schedule_tick()

    def stop(self) -> None:
        """Stop issuing new operations (pending ones are abandoned)."""
        self.stopped = True
        self._arrival_timer.cancel()
        self._mmpp_timer.cancel()

    def _uses_rate_process(self) -> bool:
        return self.arrivals is not None or self.think_time > 0.0

    # -- identity fabrication -------------------------------------------

    def _draw_cid(self) -> int:
        """Draw a currently-idle virtual client id, uniformly."""
        free = self._free_cids
        i = self._cid_rng.randrange(len(free))
        last = len(free) - 1
        if i != last:
            free[i], free[last] = free[last], free[i]
        return free.pop()

    def _release_cid(self, cid: int) -> None:
        self._free_cids.append(cid)

    # -- the aggregate loop ---------------------------------------------

    def _ramp_start(self) -> None:
        if self.stopped or self.loop.now >= self.stop_time:
            self._running -= 1
            return
        if self._running > self._closed_cap(self.loop.now):
            # Schedule keeps this virtual client inactive for now; the
            # feedback tick re-spawns it when the schedule opens up.
            self._running -= 1
            return
        self._issue_fresh()

    def _closed_cap(self, now: float) -> int:
        if self.schedule is None:
            return self.n_clients
        return min(self.n_clients, self.schedule.active_clients(now))

    def _issue_fresh(self, cid: Optional[int] = None) -> None:
        """Begin a fresh operation for one virtual client.

        ``cid`` is set in exact closed-loop mode, where a virtual client
        keeps one identity for the whole run (like an object client —
        the AQM's per-cid group priority correlates with issue rate, so
        identities must persist across a client's operations).  The
        rate-process modes draw a uniformly random free cid per
        operation instead; there the think pool is a counter and the
        identity assignment is part of the analytic approximation.
        """
        if self.stopped or self.loop.now >= self.stop_time:
            if not self._uses_rate_process():
                if cid is not None:
                    self._release_cid(cid)
                self._running -= 1
            return
        if cid is None:
            if not self._free_cids:
                self.shed_arrivals += 1
                return
            cid = self._draw_cid()
        command = self.workload.next_command(self._ops_rng)
        self.commands_started += 1
        op = _ActiveOp(cid, command)
        op.first_send = self.loop.now
        self.retry_policy.on_operation_start(self.loop.now)
        self._issue_attempt(op)

    def _issue_attempt(self, op: _ActiveOp) -> None:
        """Send one attempt of ``op``'s command under a fresh rid."""
        if self.stopped:
            self._release_cid(op.cid)
            return
        now = self.loop.now
        self._onr += 1
        op.onr = self._onr
        op.attempt += 1
        op.send_time = now
        op.rejecting = 0
        op.grace_armed = False
        op.hedges_attempt = 0
        rid = (op.cid, op.onr)
        self._active[rid] = op
        if self.obs is not None:
            self.obs.on_send(rid)
        self.sends += 1
        self._send(rid, op)
        config = self.config
        self._timeout_q.append((now + config.request_timeout, rid, op.attempt))
        if self.mode in (IDEM, BROADCAST):
            self._retransmit_q.append(
                (now + config.retransmit_interval, rid, op.attempt)
            )
        if self.hedge_policy is not None:
            self._hedge_seq += 1
            heapq.heappush(
                self._hedge_q,
                (now + self.hedge_policy.delay(), self._hedge_seq, rid, op.attempt),
            )

    def _send(self, rid: Rid, op: _ActiveOp) -> None:
        request = Request(rid, op.command)
        src = client_address(op.cid)
        if self.mode in (IDEM, BROADCAST):
            self.network.multicast(src, self.replicas, request)
        else:
            self.network.send(
                src, replica_address(self._presumed_leader), request
            )
            self._failover_q.append(
                (
                    self.loop.now + self.config.client_failover_timeout,
                    rid,
                    op.attempt,
                )
            )

    def _send_hedge(self, rid: Rid, op: _ActiveOp) -> None:
        request = Request(rid, op.command)
        src = client_address(op.cid)
        if self.mode in (IDEM, BROADCAST):
            self.network.multicast(src, self.replicas, request)
        else:
            # Hedge to a replica other than the presumed leader, like
            # SingleTargetClient._send_hedge (it relays to the leader).
            target = (self._presumed_leader + op.hedges_attempt) % self.config.n
            self.network.send(src, replica_address(target), request)

    # -- responses -------------------------------------------------------

    def deliver(self, src: Address, message: Message) -> None:
        if isinstance(message, Reply):
            self._on_reply(src, message)
        elif isinstance(message, Reject):
            self._on_reject(src, message)

    def _on_reply(self, src: Address, message: Reply) -> None:
        if self.mode in (LEADER, LBR):
            # Learn the current leader from the reply's view.
            self._presumed_leader = self.config.leader_of(message.view)
        op = self._active.pop(message.rid, None)
        if op is None:
            return  # late reply for an operation already finished
        now = self.loop.now
        latency = now - op.first_send
        self.metrics.record_success(now, latency)
        self.successes += 1
        if self.hedge_policy is not None:
            self.hedge_policy.observe(latency)
        if self.reply_log is not None:
            self.reply_log.append(message.rid)
        if self.obs is not None:
            self.obs.on_outcome(message.rid, "success", latency)
        if self._uses_rate_process():
            self._release_cid(op.cid)
            self._virtual_done(self.config.think_time, to_think=True)
        else:
            self._virtual_done(self.config.think_time, to_think=True, cid=op.cid)

    def _on_reject(self, src: Address, message: Reject) -> None:
        mode = self.mode
        if mode in (IDEM, LBR):
            self.metrics.note_reject_message(self.loop.now)
        if mode in (LEADER, BROADCAST):
            return  # these protocols' clients ignore REJECTs
        op = self._active.get(message.rid)
        if op is None:
            return
        if mode == LBR:
            # A single REJECT from the leader aborts the operation.
            self._attempt_failed(message.rid, op, "reject")
            return
        if self.obs is not None:
            self.obs.on_reject_recv(message.rid, src.index)
        op.rejecting |= 1 << src.index
        count = op.rejecting.bit_count()
        config = self.config
        if count >= config.n:
            # Failure state: certain the request will never execute.
            self.failure_aborts += 1
            self._attempt_failed(message.rid, op, "reject")
        elif count >= config.n - config.f:
            # Ambivalence state (paper Section 5.3).
            if not self._optimistic:
                self.ambivalent_aborts += 1
                self._attempt_failed(message.rid, op, "reject")
            elif not op.grace_armed:
                op.grace_armed = True
                # Grace deadlines are short and timing-sensitive, so
                # they get a precise per-request event.
                self.loop.post_after(
                    self._grace, self._on_grace, message.rid, op.attempt
                )

    def _on_grace(self, rid: Rid, attempt: int) -> None:
        op = self._active.get(rid)
        if op is None or op.attempt != attempt or not op.grace_armed:
            return
        self.ambivalent_aborts += 1
        self._attempt_failed(rid, op, "reject")

    # -- outcomes --------------------------------------------------------

    def _attempt_failed(self, rid: Rid, op: _ActiveOp, outcome: str) -> None:
        """A rejection or timeout ended the attempt: ask the policy."""
        now = self.loop.now
        elapsed = now - op.first_send
        decision = self.retry_policy.next_action(outcome, op.attempt, elapsed, now)
        if decision.kind != ABANDON:
            self.retries += 1
            if self.obs is not None:
                self.obs.on_retry(rid, outcome, op.attempt, decision.delay)
            del self._active[rid]
            # The virtual client keeps its cid through the retry delay
            # (it is still mid-operation), then re-attempts.
            self.loop.post_after(decision.delay, self._issue_attempt, op)
            return
        del self._active[rid]
        if outcome == "reject":
            self.metrics.record_reject(now, elapsed)
            self.rejections += 1
            if self.obs is not None:
                self.obs.on_outcome(rid, "rejected", elapsed)
        else:
            self.metrics.record_timeout(now, elapsed)
            self.timeouts += 1
            if self.obs is not None:
                self.obs.on_outcome(rid, "timeout", elapsed)
        if decision.reason != "no-retry":
            self.give_ups += 1
            if self.obs is not None:
                self.obs.on_give_up(rid, decision.reason)
        # Timeout abandonment backs off for the think time (the policy's
        # decision.delay) — in analytic mode that is exactly a return to
        # the think pool.  Rejection backoffs are short (50-100 ms) and
        # get a precise re-issue event — unless the population opts into
        # "think" re-entry, where the rejected virtual client (served by
        # its fallback) rejoins the think pool and rejection sheds load.
        if self._uses_rate_process():
            self._release_cid(op.cid)
            self._virtual_done(
                decision.delay,
                to_think=(outcome == "timeout" or self._reject_to_think),
            )
        else:
            self._virtual_done(decision.delay, to_think=False, cid=op.cid)

    def _virtual_done(
        self, delay: float, to_think: bool, cid: Optional[int] = None
    ) -> None:
        """One virtual client finished an operation; recycle it.

        ``cid`` is only passed in exact closed-loop mode: the virtual
        client keeps its identity through backoffs and into its next
        operation, and only releases it when it retires.
        """
        now = self.loop.now
        if self.arrivals is not None:
            # Open loop: the client rejoins the idle pool after ``delay``.
            if delay > 0.0:
                self.loop.post_after(delay, self._return_to_pool)
            else:
                self._available += 1
            return
        if self.think_time > 0.0:
            if to_think:
                # Think phases are a counter; the feedback tick folds it
                # into lambda_eff.  (Deterministic think is approximated
                # as exponential with the same mean — see WORKLOADS.md.)
                self._think += 1
            else:
                self.loop.post_after(delay, self._issue_fresh)
            return
        # Exact closed loop.
        if self.stopped or now >= self.stop_time:
            if cid is not None:
                self._release_cid(cid)
            self._running -= 1
            return
        if self._running > self._closed_cap(now):
            # Schedule shrank; retire until it reopens.
            if cid is not None:
                self._release_cid(cid)
            self._running -= 1
            return
        if delay > 0.0:
            self.loop.post_after(delay, self._issue_fresh, cid)
        else:
            self._issue_fresh(cid)

    def _return_to_pool(self) -> None:
        self._available += 1

    # -- aggregate arrival process ---------------------------------------

    def _current_rate(self, now: float) -> float:
        if self.arrivals is not None:
            rate = self.arrivals.rate_at(now)
        else:
            rate = self._think / self.think_time
            if self.schedule is not None:
                # Proportional thinning: only the scheduled fraction of
                # the population participates.
                frac = self.schedule.active_clients(now) / self.n_clients
                rate *= min(1.0, max(0.0, frac))
        if self._mmpp_burst:
            rate *= self.population.burst_multiplier
        return rate

    def _refresh_rate(self) -> None:
        """Re-derive lambda_eff and re-arm the next-arrival timer.

        Uses the unit-exponential integral: an arrival fires once the
        integral of lambda(t) dt reaches the pending Exp(1) draw, so a
        rate change only rescales the residual wait — no re-draws, and
        the process stays exact for piecewise-constant rates.
        """
        now = self.loop.now
        lam = self._lambda
        if lam > 0.0:
            consumed = lam * (now - self._int_anchor)
            self._exp_remaining = max(0.0, self._exp_remaining - consumed)
        self._int_anchor = now
        self._lambda = self._current_rate(now)
        if self._lambda <= 0.0 or now >= self.stop_time:
            self._arrival_timer.cancel()
            return
        self._arrival_timer.start(self._exp_remaining / self._lambda)

    def _on_arrival(self) -> None:
        now = self.loop.now
        if self.stopped or now >= self.stop_time:
            return
        self._int_anchor = now
        self._exp_remaining = self._arrival_rng.expovariate(1.0)
        self.arrivals_generated += 1
        if self.arrivals is not None:
            if self._available > 0 and self._free_cids:
                self._available -= 1
                self._issue_fresh()
            else:
                self.shed_arrivals += 1
        else:
            if self._think > 0 and self._free_cids:
                self._think -= 1
                self._issue_fresh()
            else:
                # lambda_eff is re-derived on the tick; until then a
                # drained think pool can still fire — drop silently,
                # like a Poisson thinning step.
                self.lost_arrivals += 1
        if self._lambda > 0.0:
            self._arrival_timer.start(self._exp_remaining / self._lambda)

    def _on_mmpp_flip(self) -> None:
        if self.stopped or self.loop.now >= self.stop_time:
            return
        self._mmpp_burst = not self._mmpp_burst
        dwell = (
            self.population.dwell_burst
            if self._mmpp_burst
            else self.population.dwell_normal
        )
        self._mmpp_timer.start(self._mmpp_rng.expovariate(1.0 / dwell))
        self._refresh_rate()

    # -- feedback tick ----------------------------------------------------

    def _schedule_tick(self) -> None:
        interval = self.population.feedback_interval
        if self.loop.now + interval <= self.stop_time:
            self.loop.post_after(interval, self._tick)

    def _tick(self) -> None:
        if self.stopped:
            return
        now = self.loop.now
        self.feedback_ticks += 1
        self._expire_deadlines(now)
        if self._uses_rate_process():
            self._refresh_rate()
        else:
            # Exact closed loop under a schedule: spawn virtual clients
            # the schedule has (re)activated.
            cap = self._closed_cap(now)
            while self._running < cap:
                self._running += 1
                self._issue_fresh()
        self._schedule_tick()

    def _expire_deadlines(self, now: float) -> None:
        """Drain every lazy deadline queue up to ``now``.

        Entries whose rid is no longer active (or whose attempt was
        superseded by a retry) are tombstones and are skipped — the lazy
        analogue of BaseClient's per-request Timer.cancel().
        """
        active = self._active
        config = self.config
        tq = self._timeout_q
        while tq and tq[0][0] <= now:
            _, rid, attempt = tq.popleft()
            op = active.get(rid)
            if op is not None and op.attempt == attempt:
                self._attempt_failed(rid, op, "timeout")
        rq = self._retransmit_q
        while rq and rq[0][0] <= now:
            _, rid, attempt = rq.popleft()
            op = active.get(rid)
            if op is not None and op.attempt == attempt:
                if self.obs is not None:
                    self.obs.on_send(rid, retransmit=True)
                self.sends += 1
                self.network.multicast(
                    client_address(op.cid), self.replicas, Request(rid, op.command)
                )
                rq.append((now + config.retransmit_interval, rid, attempt))
        fq = self._failover_q
        while fq and fq[0][0] <= now:
            _, rid, attempt = fq.popleft()
            op = active.get(rid)
            if op is not None and op.attempt == attempt:
                # Presumed-leader failover: resend to the next replica
                # (SingleTargetClient._on_failover_timeout).
                self._presumed_leader = (self._presumed_leader + 1) % config.n
                if self.obs is not None:
                    self.obs.on_send(rid, retransmit=True)
                self.sends += 1
                # _send re-arms the next failover deadline.
                self._send(rid, op)
        hq = self._hedge_q
        policy = self.hedge_policy
        while hq and hq[0][0] <= now:
            _, _, rid, attempt = heapq.heappop(hq)
            op = active.get(rid)
            if (
                policy is not None
                and op is not None
                and op.attempt == attempt
                and op.hedges_attempt < policy.max_hedges
            ):
                op.hedges_attempt += 1
                self.hedges += 1
                self.sends += 1
                if self.obs is not None:
                    self.obs.on_hedge(rid)
                self._send_hedge(rid, op)
                if op.hedges_attempt < policy.max_hedges:
                    self._hedge_seq += 1
                    heapq.heappush(
                        hq, (now + policy.delay(), self._hedge_seq, rid, attempt)
                    )


def _scale_retry_budget(config, n_clients: int):
    """Scale per-client token-bucket retry budgets to the population.

    Object clients each own a budget of ``retry_budget_rate`` tokens/s;
    the aggregate holds one shared bucket, so rate and cap scale by N to
    keep the population-wide budget identical.
    """
    import dataclasses

    if getattr(config, "retry_budget_rate", 0.0) <= 0.0:
        return config
    return dataclasses.replace(
        config,
        retry_budget_rate=config.retry_budget_rate * n_clients,
        retry_budget_cap=max(1.0, config.retry_budget_cap * n_clients),
    )
