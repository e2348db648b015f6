"""Record the reference output digests in ``references.json``.

Usage, from the repository root::

    python3 perfbench/record.py

It records every workload on seeds 0-20, the default seed and the
held-out seed.

Digests come from the one-shot :func:`repro.cluster.runner.run_experiment`
on each workload's spec, not from the stepped driver, so a benchmark
run that matches them also shows that stepping changed nothing.
Re-record only when a change is meant to alter the model's outputs.
"""

from __future__ import annotations

import json
import os

import workloads
from repro.cluster.runner import run_experiment

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

#: The seed a run uses by default.
DEFAULT_SEED = 1
#: Kept out of day-to-day tuning, so a claim can be re-checked on it.
HELD_OUT_SEED = 2027
#: Also recorded, so most seeds a caller is likely to pick are checked.
CHECKED_SEEDS = tuple(range(21))


def main() -> None:
    seeds = sorted({DEFAULT_SEED, HELD_OUT_SEED, *CHECKED_SEEDS})
    with open(REFERENCES) as handle:
        references = json.load(handle)
    references["default_seed"] = DEFAULT_SEED
    references["held_out_seed"] = HELD_OUT_SEED
    digests = references.setdefault("digests", {})
    for name in workloads.WORKLOADS:
        for seed in seeds:
            spec = workloads.run_spec(workloads.WORKLOADS[name], seed)
            digest = workloads.digest(run_experiment(spec))
            digests.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
            with open(REFERENCES, "w") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")


if __name__ == "__main__":
    main()
