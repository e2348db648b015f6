"""Fault injection for experiments: a small fault-plan DSL.

The paper's crash experiments (Figures 3 and 10) deliberately crash the
leader or a follower mid-run.  Targets are resolved *at fire time*
against the current view, so "leader" means whoever leads when the
fault fires — even if earlier faults already moved the leadership.

Beyond crash-stop, the DSL covers the failure modes a replicated system
meets in production:

* :class:`RecoverFault` — a crashed replica rejoins with fresh volatile
  state and catches up through the checkpoint/state-transfer path.
* :class:`PartitionFault` / :class:`HealFault` — scheduled partitions
  between replica pairs (delivery suppressed both ways).
* :class:`LossWindow` — a time-bounded window of elevated message loss.
* :class:`SlowReplica` — a gray failure: one replica's CPU serves jobs
  slower for a while (it is alive, just degraded).
* :class:`LatencySpike` — a gray failure on the wire: all traffic
  to/from one replica takes a multiple of its normal latency.

A :class:`FaultSchedule` is an ordered plan of such faults; installing
it on a cluster schedules each fault on the simulation's event loop.
All faults resolve their targets lazily and ignore targets that no
longer make sense (already crashed, out of range), so randomized plans
never abort a run half-way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.net.addresses import replica_address

LEADER = "leader"
FOLLOWER = "follower"


@dataclass(frozen=True)
class Fault:
    """A single scheduled fault; subclasses define what firing does."""

    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time}")

    def fire(self, cluster) -> None:
        """Apply the fault to ``cluster`` (called at ``self.time``)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Deterministic one-line rendering for chaos-plan summaries."""
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in vars(self).items()
            if name != "time"
        )
        return f"t={self.time:.3f} {type(self).__name__}({fields})"


def _check_duration(duration: float) -> None:
    if duration <= 0:
        raise ValueError(f"fault duration must be positive, got {duration}")


@dataclass(frozen=True)
class CrashFault(Fault):
    """Crash one replica at an absolute simulated time.

    ``target`` is a replica index, ``"leader"`` or ``"follower"``.
    """

    target: Union[int, str]

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.target, str) and self.target not in (LEADER, FOLLOWER):
            raise ValueError(f"unknown crash target: {self.target!r}")

    def fire(self, cluster) -> None:
        index = resolve_target(cluster, self.target)
        if index is not None:
            cluster.crash_replica(index)


@dataclass(frozen=True)
class RecoverFault(Fault):
    """Rejoin a crashed replica with fresh volatile state.

    ``target`` is a replica index, or ``None`` to recover every replica
    that is currently crashed.  Recovering a live replica is a no-op.
    """

    target: Union[int, None] = None

    def fire(self, cluster) -> None:
        if self.target is None:
            targets = [r.index for r in cluster.replicas if r.halted]
        elif 0 <= self.target < len(cluster.replicas):
            targets = [self.target]
        else:
            targets = []
        for index in targets:
            cluster.recover_replica(index)


@dataclass(frozen=True)
class PartitionFault(Fault):
    """Block delivery between replicas ``a`` and ``b`` in both directions."""

    a: int
    b: int

    def fire(self, cluster) -> None:
        n = len(cluster.replicas)
        if 0 <= self.a < n and 0 <= self.b < n and self.a != self.b:
            cluster.network.partition(replica_address(self.a), replica_address(self.b))


@dataclass(frozen=True)
class HealFault(Fault):
    """Remove the partition between replicas ``a`` and ``b``."""

    a: int
    b: int

    def fire(self, cluster) -> None:
        cluster.network.heal(replica_address(self.a), replica_address(self.b))


@dataclass(frozen=True)
class LossWindow(Fault):
    """Elevate the network's message-loss probability for a time window."""

    duration: float
    probability: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_duration(self.duration)
        if not 0.0 <= self.probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {self.probability}"
            )

    def fire(self, cluster) -> None:
        network = cluster.network
        base = network.loss_probability
        network.loss_probability = self.probability
        cluster.loop.post_after(self.duration, self._restore, network, base)

    @staticmethod
    def _restore(network, base: float) -> None:
        network.loss_probability = base


@dataclass(frozen=True)
class SlowReplica(Fault):
    """Gray failure: serve one replica's CPU ``factor`` times slower."""

    target: int
    factor: float
    duration: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_duration(self.duration)
        if self.factor <= 1.0:
            raise ValueError(f"slowdown factor must exceed 1, got {self.factor}")

    def fire(self, cluster) -> None:
        if not 0 <= self.target < len(cluster.replicas):
            return
        replica = cluster.replicas[self.target]
        if replica.halted:
            return
        base = replica.processor.speed
        replica.processor.set_speed(base / self.factor)
        cluster.loop.post_after(self.duration, self._restore, cluster, base)

    def _restore(self, cluster, base: float) -> None:
        # Look the replica up again: it may have crashed and been
        # replaced by a fresh (full-speed) incarnation in the meantime.
        replica = cluster.replicas[self.target]
        if replica.processor.speed < base:
            replica.processor.set_speed(base)


@dataclass(frozen=True)
class LatencySpike(Fault):
    """Gray failure: inflate all link latency to/from one replica."""

    target: int
    factor: float
    duration: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_duration(self.duration)
        if self.factor <= 1.0:
            raise ValueError(f"latency factor must exceed 1, got {self.factor}")

    def fire(self, cluster) -> None:
        if not 0 <= self.target < len(cluster.replicas):
            return
        address = replica_address(self.target)
        cluster.network.set_latency_scale(address, self.factor)
        cluster.loop.post_after(
            self.duration, cluster.network.clear_latency_scale, address
        )


@dataclass
class FaultSchedule:
    """An ordered collection of faults applied to a cluster."""

    faults: list[Fault] = field(default_factory=list)

    def crash_leader(self, at: float) -> "FaultSchedule":
        """Add a leader crash at time ``at`` (chainable)."""
        self.faults.append(CrashFault(at, LEADER))
        return self

    def crash_follower(self, at: float) -> "FaultSchedule":
        """Add a follower crash at time ``at`` (chainable)."""
        self.faults.append(CrashFault(at, FOLLOWER))
        return self

    def crash_replica(self, at: float, index: int) -> "FaultSchedule":
        """Add a crash of a specific replica at time ``at`` (chainable)."""
        self.faults.append(CrashFault(at, index))
        return self

    def recover_replica(self, at: float, index: Union[int, None] = None) -> "FaultSchedule":
        """Recover replica ``index`` (or all crashed replicas) at ``at``."""
        self.faults.append(RecoverFault(at, index))
        return self

    def partition_replicas(self, at: float, a: int, b: int) -> "FaultSchedule":
        """Partition replicas ``a`` and ``b`` at time ``at``."""
        self.faults.append(PartitionFault(at, a, b))
        return self

    def heal_replicas(self, at: float, a: int, b: int) -> "FaultSchedule":
        """Heal the partition between ``a`` and ``b`` at time ``at``."""
        self.faults.append(HealFault(at, a, b))
        return self

    def loss_window(
        self, at: float, duration: float, probability: float
    ) -> "FaultSchedule":
        """Raise message loss to ``probability`` for ``duration`` seconds."""
        self.faults.append(LossWindow(at, duration, probability))
        return self

    def slow_replica(
        self, at: float, index: int, factor: float, duration: float
    ) -> "FaultSchedule":
        """Slow replica ``index`` down by ``factor`` for ``duration`` seconds."""
        self.faults.append(SlowReplica(at, index, factor, duration))
        return self

    def latency_spike(
        self, at: float, index: int, factor: float, duration: float
    ) -> "FaultSchedule":
        """Inflate replica ``index``'s link latency for ``duration`` seconds."""
        self.faults.append(LatencySpike(at, index, factor, duration))
        return self

    def install(self, cluster) -> None:
        """Schedule all faults on the cluster's event loop."""
        for fault in self.faults:
            cluster.loop.call_at(fault.time, fault.fire, cluster)

    def describe(self) -> list[str]:
        """Deterministic rendering of the plan, in schedule order."""
        return [fault.describe() for fault in sorted(self.faults, key=lambda f: f.time)]


def resolve_target(cluster, target: Union[int, str]) -> Union[int, None]:
    """Resolve a crash target to a replica index against the live view.

    Returns ``None`` when the target cannot be crashed right now: the
    index is out of range or already halted, or no replica matches the
    role.  Fault firing treats ``None`` as "skip" so schedules survive
    racing against earlier faults.
    """
    alive = [replica for replica in cluster.replicas if not replica.halted]
    if not alive:
        return None
    if isinstance(target, int):
        if not 0 <= target < len(cluster.replicas):
            return None
        return target if not cluster.replicas[target].halted else None
    current_view = max(replica.view for replica in alive)
    leader_index = cluster.config.leader_of(current_view)
    if target == LEADER:
        candidate = cluster.replicas[leader_index]
        return leader_index if not candidate.halted else None
    for replica in alive:
        if replica.index != leader_index:
            return replica.index
    return None
