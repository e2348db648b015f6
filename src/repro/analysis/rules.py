"""The detlint rule catalog.

A rule is metadata only — the matching logic lives in the per-family
checker modules (:mod:`repro.analysis.det`, :mod:`repro.analysis.purity`,
:mod:`repro.analysis.camp`).  Which modules a rule applies to is decided
by :mod:`repro.analysis.config`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One detlint rule: identifier, family, and rationale."""

    id: str
    family: str  # "DET", "OBS" or "CAMP"
    title: str
    rationale: str


_RULE_LIST = [
    Rule(
        "DET001",
        "DET",
        "wall-clock read in simulation code",
        "Simulation code must use the event loop's virtual time "
        "(`loop.now`); a wall-clock read makes results depend on host "
        "speed and breaks seeded replay.",
    ),
    Rule(
        "DET002",
        "DET",
        "ambient entropy source",
        "os.urandom / uuid.uuid4 / secrets draw from the OS entropy "
        "pool, which no seed controls; every random byte must come "
        "from a seeded stream.",
    ),
    Rule(
        "DET003",
        "DET",
        "global random module call",
        "The module-level random functions share one hidden global "
        "state; use the named per-component streams of "
        "repro.sim.rng.RngRegistry (instantiating random.Random with "
        "an explicit seed is fine).",
    ),
    Rule(
        "DET004",
        "DET",
        "environment read outside config/CLI",
        "os.environ reads scattered through library code make behaviour "
        "depend on ambient process state; route them through the "
        "accessors in repro.experiments.settings (or the CLI).",
    ),
    Rule(
        "DET005",
        "DET",
        "unsorted iteration over a set",
        "Set iteration order depends on PYTHONHASHSEED for any element "
        "containing a str; feeding it into dispatch, tie-breaking or "
        "bookkeeping makes runs irreproducible.  Iterate "
        "sorted(the_set) instead.",
    ),
    Rule(
        "DET006",
        "DET",
        "process environment mutation",
        "Writing os.environ leaks state between runs and across "
        "campaign workers; thread settings explicitly (the campaign "
        "engine removed exactly this pattern in PR 3).",
    ),
    Rule(
        "OBS001",
        "OBS",
        "observer assigns attribute on a simulation object",
        "repro.obs must stay observer-only: writing attributes on "
        "replicas/clients/clusters (beyond the sanctioned hook "
        "attributes) would let tracing change simulation behaviour.",
    ),
    Rule(
        "OBS002",
        "OBS",
        "observer calls mutating method on a simulation object",
        "Calling a state-changing method on a simulation object from "
        "repro.obs breaks the byte-identical-on/off contract the "
        "overhead guard verifies.",
    ),
    Rule(
        "OBS003",
        "OBS",
        "simulation module imports repro.obs",
        "Protocol/sim code may only reach observability through its "
        "`self.obs` hook; importing repro.obs from the simulation core "
        "would invert the dependency and invite accidental coupling.",
    ),
    Rule(
        "OBS004",
        "OBS",
        "observer touches an RNG",
        "Observers must not consume randomness: drawing from any "
        "stream (or the random module) from observer code shifts the "
        "sequence seen by the simulation.",
    ),
    Rule(
        "OBS005",
        "OBS",
        "observer mutates simulation state through a call chain",
        "The interprocedural taint pass: an observer that passes a "
        "simulation object to a helper (in any module, any number of "
        "calls deep) which mutates it breaks the byte-identical-on/off "
        "contract just as surely as a direct write — v1's per-function "
        "walk could not see this.",
    ),
    Rule(
        "CAMP001",
        "CAMP",
        "non-JSON-safe construct in a payload builder",
        "Campaign job payloads are canonicalised to JSON to form cache "
        "keys; sets, bytes and friends either fail or serialise "
        "unstably, so payload builders must stick to JSON-safe types.",
    ),
    Rule(
        "CAMP002",
        "CAMP",
        "hash()/id() in campaign code",
        "The builtin hash() is salted by PYTHONHASHSEED and id() is an "
        "address; neither may leak into cache keys or fingerprints — "
        "use hashlib over canonical JSON.",
    ),
    Rule(
        "CAMP003",
        "CAMP",
        "json.dumps without sort_keys in campaign code",
        "Unordered JSON renderings of the same payload hash "
        "differently; every json.dumps in repro.campaign must pass "
        "sort_keys=True.",
    ),
    Rule(
        "PROTO001",
        "PROTO",
        "integer literal as replica count / fault threshold",
        "A literal n/f/quorum outside repro.protocols.config freezes "
        "the 3-replica topology; counts flow from the explicit knob "
        "(ClusterProfile.n / ProtocolConfig.n) and derived quantities "
        "from fault_tolerance()/quorum_size().",
    ),
    Rule(
        "PROTO002",
        "PROTO",
        "hand-rolled quorum arithmetic",
        "f+1 / 2f+1 / len(...)//2+1 spelled out inline duplicates the "
        "quorum policy; route it through ProtocolConfig.quorum (or the "
        "quorum_size/fault_tolerance helpers) so n-replica sweeps "
        "change one place.",
    ),
    Rule(
        "PROTO003",
        "PROTO",
        "hard-coded leader-index pattern",
        "view % n arithmetic, replicas[0] and leader == 0 comparisons "
        "outside the protocol layer each re-implement leader policy; "
        "ProtocolConfig.leader_of(view) is the single owner, which a "
        "leaderless baseline can override.",
    ),
    Rule(
        "PROTO004",
        "PROTO",
        "fixed-length replica-list literal",
        "A literal [0, 1, 2]-style replica list in cluster/experiment/"
        "campaign configuration silently breaks at n != 3; build such "
        "lists from range(config.n).",
    ),
    Rule(
        "PROTO005",
        "PROTO",
        "crash/partition target bounded by a literal",
        "Fault targets drawn from randrange(3) or passed as literal "
        "indices stop covering the cluster the moment n grows; derive "
        "bounds from len(cluster.replicas) or use role targets.",
    ),
    Rule(
        "PERF001",
        "PERF",
        "hot callable reached through an attribute chain inside a loop",
        "Dispatch loops in the simulation core run millions of "
        "iterations; re-resolving a multi-hop attribute chain (or a "
        "heapq module attribute) to a known-hot callable on every "
        "iteration costs measurable wall time — bind it to a local "
        "before the loop.",
    ),
    Rule(
        "PERF002",
        "PERF",
        "per-event object construction inside a dispatch loop",
        "The event-dispatch loops (repro.sim.loop's run()/run_until()) "
        "are the hottest code in the tree and allocate nothing per "
        "dispatched event; a constructor call per loop iteration inside "
        "run()/run_until()/dispatch-style functions adds that cost to "
        "every event — preallocate or carry plain tuples instead.",
    ),
]

RULES: dict[str, Rule] = {rule.id: rule for rule in _RULE_LIST}

FAMILIES = ("DET", "OBS", "CAMP", "PROTO", "PERF")


def rule_ids() -> list[str]:
    """All rule ids, in catalog order."""
    return [rule.id for rule in _RULE_LIST]
