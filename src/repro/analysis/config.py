"""Per-module rule configuration.

Which rules apply where is a property of the architecture, not of the
individual finding, so it lives here rather than in suppressions:

* The DET family guards the *simulation core* — everything that runs
  inside (or feeds) the event loop.  ``repro.cli`` and
  ``repro.campaign`` legitimately read the wall clock (progress
  timings on stderr) and are excluded from DET001.
* The OBS purity rules apply to ``repro.obs`` itself; the
  inverse-dependency rule OBS003 applies to the simulation core.
  ``repro.cluster`` is the sanctioned composition layer (it *builds*
  hubs for observed runs), so it is exempt from OBS003.
* The CAMP family applies to ``repro.campaign`` only.

A rule applies to a module when the module matches one of the rule's
include prefixes and none of its exclude prefixes.  Prefixes match
whole dotted segments (``repro.net`` matches ``repro.net.network`` but
not ``repro.network``).
"""

from __future__ import annotations

#: Everything that runs under the event loop and must be seeded-replayable.
SIM_SCOPE = (
    "repro.sim",
    "repro.net",
    "repro.protocols",
    "repro.cluster",
    "repro.core",
    "repro.app",
    "repro.workload",
    "repro.resilience",
    "repro.population",
)

#: Modules allowed to read os.environ (DET004): the CLI boundary and the
#: single experiment-settings accessor.
ENV_READ_ALLOWED = (
    "repro.cli",
    "repro.experiments.settings",
)

#: Composition/configuration layers where topology must stay abstract
#: (the PROTO family); protocol-owned policy lives outside this scope.
TOPOLOGY_SCOPE = (
    "repro.cluster",
    "repro.experiments",
    "repro.population",
    "repro.workload",
    "repro.campaign",
    "repro.app",
    "tools",
)

#: rule id -> (include prefixes, exclude prefixes).
RULE_SCOPES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    # Wall clock: the sim core plus repro.obs (observers must timestamp
    # with sim time only).  The CLI and campaign engine measure wall
    # time on purpose (stderr-only content).
    "DET001": (SIM_SCOPE + ("repro.obs", "repro.experiments"), ()),
    "DET002": (("repro", "tools"), ()),
    "DET003": (("repro", "tools"), ()),
    "DET004": (("repro", "tools"), ENV_READ_ALLOWED),
    # Hash-order-sensitive iteration matters where messages are
    # dispatched, ties broken and quorums counted.
    "DET005": (
        (
            "repro.sim",
            "repro.net",
            "repro.protocols",
            "repro.cluster",
            "repro.core",
            "repro.resilience",
            "repro.population",
            "repro.workload",
            "tools",
        ),
        (),
    ),
    "DET006": (("repro", "tools"), ()),
    "OBS001": (("repro.obs",), ()),
    "OBS002": (("repro.obs",), ()),
    "OBS003": (SIM_SCOPE, ("repro.cluster",)),
    "OBS004": (("repro.obs",), ()),
    "OBS005": (("repro.obs",), ()),
    "CAMP001": (("repro.campaign",), ()),
    "CAMP002": (("repro.campaign",), ()),
    "CAMP003": (("repro.campaign",), ()),
    # Topology assumptions: the composition/configuration layers must
    # not bake in the 3-replica topology.  Protocol-owned policy
    # (repro.protocols, repro.core) legitimately implements quorum and
    # leader arithmetic — except that quorum sizes inside protocols
    # still route through ProtocolConfig (PROTO002 includes them, with
    # repro.protocols.config itself as the single sanctioned owner).
    "PROTO001": (TOPOLOGY_SCOPE, ()),
    "PROTO002": (
        TOPOLOGY_SCOPE + ("repro.protocols", "repro.core"),
        ("repro.protocols.config",),
    ),
    "PROTO003": (TOPOLOGY_SCOPE, ()),
    "PROTO004": (TOPOLOGY_SCOPE, ()),
    "PROTO005": (TOPOLOGY_SCOPE, ()),
    # Hot-path hygiene: only where the dispatch/send loops live.  The
    # rest of the tree is free to prefer clarity over loop-hoisting.
    "PERF001": (("repro.sim", "repro.net"), ()),
    # Allocation-free dispatch is a repro.sim-only contract (the
    # run/run_until loops of repro.sim.loop); elsewhere a constructor in
    # a loop is fine.
    "PERF002": (("repro.sim",), ()),
}

#: Attributes the observability layer is allowed to assign on simulation
#: objects — the hook API (see repro.obs.hub.ObservabilityHub.attach).
OBS_HOOK_ATTRS = frozenset({"obs", "observability"})

#: Self-attributes of observer classes that hold simulation objects
#: (set in their constructors); anything reached through them is
#: treated as simulation state by OBS001/OBS002.
OBS_SIM_SELF_ATTRS = frozenset(
    {"replica", "client", "cluster", "node_obj", "loop", "network", "processor"}
)

#: Method names that mutate their receiver.  Deliberately conservative:
#: generic read-ish verbs observers use on their *own* objects (emit,
#: inc, observe, record) are not listed.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "attach",
        "call_after",
        "call_at",
        "cancel",
        "charge",
        "clear",
        "crash",
        "deliver",
        "detach",
        "discard",
        "extend",
        "halt",
        "insert",
        "multicast",
        "multicast_peers",
        "pop",
        "popleft",
        "push",
        "recover",
        "remove",
        "restart",
        "reverse",
        "run_until",
        "schedule",
        "send",
        "setdefault",
        "sort",
        "start",
        "step",
        "stop",
        "update",
    }
)

#: Aggregations whose result does not depend on iteration order; a set
#: consumed directly by one of these is not a DET005 hazard.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset", "bool"}
)

#: Function-name patterns that mark campaign payload builders (CAMP001).
PAYLOAD_BUILDER_PREFIXES = ("plan_",)
PAYLOAD_BUILDER_SUFFIXES = ("_to_payload",)
PAYLOAD_BUILDER_NAMES = frozenset({"settings", "sim_job", "cell_job", "job_key"})


def _matches_prefix(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def rule_applies(rule_id: str, module: str) -> bool:
    """Whether ``rule_id`` is in force for dotted ``module``."""
    include, exclude = RULE_SCOPES[rule_id]
    if not any(_matches_prefix(module, prefix) for prefix in include):
        return False
    return not any(_matches_prefix(module, prefix) for prefix in exclude)


def rules_for_module(module: str) -> set[str]:
    """All rule ids in force for dotted ``module``."""
    return {rule_id for rule_id in RULE_SCOPES if rule_applies(rule_id, module)}
