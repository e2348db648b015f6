"""Per-layer ledger of a traced pass: self time and exact call counts.

The traced pass runs with :mod:`cProfile` switched on around each
``run_until`` slice.  Every profiled function is charged to a layer by
the ``repro`` module that defines it (:data:`LAYERS`, first match
wins).  Stdlib ``random`` — its Python functions and the C draws of
``_random.Random`` — is charged to ``sim.rng``.  Any other function
(builtins, the rest of the stdlib) folds into the layer of whoever
called it, split by cProfile's per-caller breakdown, so the self shares
of the layers sum to one.

Call counts are Python-level calls (builtins are not counted), so they
repeat exactly for a given workload and seed.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import random

#: (layer, module prefixes), matched in order against a function's module.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim.timers", ("repro.sim.timers",)),
    ("sim.processor", ("repro.sim.processor",)),
    ("sim.rng", ("repro.sim.rng",)),
    ("cluster", ("repro.cluster",)),
    ("sim.loop", ("repro.sim",)),
    ("net", ("repro.net",)),
    ("clients", ("repro.protocols.clients", "repro.core.client", "repro.resilience")),
    ("protocols", ("repro.protocols",)),
    ("core", ("repro.core",)),
    ("population", ("repro.population",)),
    ("app", ("repro.app",)),
    ("workload", ("repro.workload",)),
)

#: Everything that is neither a listed layer nor folded into a caller.
OTHER = "other"

LAYER_NAMES: tuple[str, ...] = tuple(name for name, _ in LAYERS) + (OTHER,)

_RANDOM_FILE = os.path.abspath(random.__file__)
_DRAW_MARK = "of '_random.Random' objects>"
_PROFILER_MARK = "of '_lsprof.Profiler' objects>"


def module_of(filename: str, src: str) -> str | None:
    """Dotted module name of a file under ``src``, else None."""
    path = os.path.abspath(filename)
    if not path.startswith(src + os.sep) or not path.endswith(".py"):
        return None
    parts = os.path.relpath(path, src)[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_module(module: str) -> str:
    for name, prefixes in LAYERS:
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return name
    return OTHER


def layer_of(func: tuple, src: str) -> str | None:
    """The layer a profiled function is charged to; None folds into callers."""
    filename, _, name = func
    if filename == "~":
        return "sim.rng" if name.endswith(_DRAW_MARK) else None
    if os.path.abspath(filename) == _RANDOM_FILE:
        return "sim.rng"
    module = module_of(filename, src)
    if module is None:
        return None
    return layer_of_module(module) if module.startswith("repro") else None


def is_draw(func: tuple) -> bool:
    """A C-level Mersenne-Twister draw (``random()``/``getrandbits()``)."""
    filename, _, name = func
    return filename == "~" and name.endswith(_DRAW_MARK) and (
        "'random'" in name or "'getrandbits'" in name
    )


class Ledger:
    """Attributes a finished profile to layers."""

    def __init__(self, profile: cProfile.Profile, src: str):
        # The profiler's own switch-off is recorded; it is not program work.
        self.stats = {
            func: values
            for func, values in pstats.Stats(profile).stats.items()
            if _PROFILER_MARK not in func[2]
        }
        self.src = os.path.abspath(src)
        self._shares: dict[tuple, dict[str, float]] = {}

    def _layer_shares(self, func: tuple, by: int, visiting: frozenset = frozenset()) -> dict:
        """How ``func``'s cost splits over layers (fractions summing to 1).

        An unattributed function takes its callers' shares, weighted by
        the per-caller entry ``by`` of the profile: index 2 (own time)
        for time, index 1 (call count) for calls, so counts stay exact.
        """
        cached = self._shares.get((func, by))
        if cached is not None:
            return cached
        layer = layer_of(func, self.src)
        if layer is not None:
            return {layer: 1.0}
        callers = self.stats[func][4] if func in self.stats else {}
        shares = self._fold(callers, by, visiting | {func})
        if not visiting:
            self._shares[(func, by)] = shares
        return shares

    def _fold(self, callers: dict, by: int, visiting: frozenset) -> dict[str, float]:
        """Mix the callers' layer shares, weighted by entry ``by``."""
        weights = {c: v[by] for c, v in callers.items() if c not in visiting}
        total = sum(weights.values())
        if total <= 0:
            return {OTHER: 1.0}
        mixed: dict[str, float] = {}
        for caller in sorted(weights):
            for layer, share in self._layer_shares(caller, by, visiting).items():
                mixed[layer] = mixed.get(layer, 0.0) + share * weights[caller] / total
        return mixed

    def _attribute(self, by: int, python_only: bool) -> dict[str, float]:
        """Sum profile entry ``by`` per layer; unattributed entries fold into callers."""
        totals = dict.fromkeys(LAYER_NAMES, 0.0)
        for func in sorted(self.stats):
            if python_only and func[0] == "~":
                continue
            values = self.stats[func]
            layer = layer_of(func, self.src)
            if layer is not None:
                totals[layer] += values[by]
            elif not values[4]:
                totals[OTHER] += values[by]
            else:
                for caller, entry in sorted(values[4].items()):
                    for name, share in self._layer_shares(caller, by).items():
                        totals[name] += entry[by] * share
        return totals

    def self_shares(self) -> dict[str, float]:
        """Share of profiled self time per layer, builtins and stdlib folded in."""
        seconds = self._attribute(2, python_only=False)
        total = sum(seconds.values())
        return {name: value / total if total else 0.0 for name, value in seconds.items()}

    def calls(self) -> dict[str, float]:
        """Python calls per layer; stdlib Python functions fold into callers."""
        return self._attribute(1, python_only=True)

    def draws(self) -> int:
        """Mersenne-Twister draws made while profiling."""
        return sum(values[1] for func, values in self.stats.items() if is_draw(func))
