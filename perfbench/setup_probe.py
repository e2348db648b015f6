"""Time one fresh-process set-up: import ``repro`` and build a workload.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>`` from the
repository root.  Prints one JSON line: the raw set-up seconds and the
median reference-loop time around it, from which the caller computes
calibrated seconds.  Only stdlib and :mod:`refloop` are loaded before
the clock starts, so the import of ``repro`` is inside the timing.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import refloop

REF_RUNS = 5


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    refs = [refloop.time_reference() for _ in range(REF_RUNS)]
    started = time.perf_counter()
    import workloads

    workloads.build(workloads.run_spec(workloads.WORKLOADS[name], seed))
    raw = time.perf_counter() - started
    refs += [refloop.time_reference() for _ in range(REF_RUNS)]
    print(json.dumps({"raw_s": raw, "ref_s": statistics.median(refs)}))


if __name__ == "__main__":
    main()
