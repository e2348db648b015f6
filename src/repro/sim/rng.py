"""Named, independently seeded random-number streams.

Every stochastic component of the simulator (network latency, workload
key choice, acceptance-test coin flips, client backoff, ...) draws from
its own named stream so that changing how often one component consumes
randomness never perturbs another.  This is what makes experiments with
and without a feature (e.g. IDEM vs IDEM_noPR) comparable under the same
root seed.
"""

from __future__ import annotations

import hashlib
import random
from math import exp, log
from random import NV_MAGICCONST
from typing import Callable


class RngRegistry:
    """A factory of deterministic :class:`random.Random` streams.

    Streams are keyed by name; the per-stream seed is derived from the
    root seed and the name via SHA-256, so stream identities are stable
    across processes and Python versions.
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.root_seed}:{name}".encode()).digest()
        stream = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry whose streams are independent of ours."""
        digest = hashlib.sha256(f"{self.root_seed}:spawn:{name}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams


def lognormal(draw: Callable[[], float], mu: float, sigma: float) -> float:
    """``Random.lognormvariate(mu, sigma)`` in one frame instead of two.

    ``draw`` is a stream's bound ``random`` method.  This is the
    stdlib's Kinderman–Monahan loop from ``normalvariate`` with the
    final ``exp`` folded in: it consumes the same uniforms in the same
    order and does the same float arithmetic, so the stream state and
    the result are bit-identical to ``rng.lognormvariate(mu, sigma)``.
    Network latency and CPU jitter draw through it on every message and
    job, where the two stdlib frames were a measurable share of wall.
    """
    while True:
        u1 = draw()
        u2 = 1.0 - draw()
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -log(u2):
            return exp(mu + z * sigma)


def request_hash_unit(cid: int, onr: int, salt: int = 0) -> float:
    """Map a request id to a pseudo-random point in [0, 1).

    This is the "pseudo-random function with the same seed for each
    request" from the paper's acceptance test (Section 5.1): because the
    value depends only on the request id (and a shared salt), replicas
    evaluating it independently obtain the same number, nudging them
    toward unanimous accept/reject decisions.
    """
    digest = hashlib.blake2b(
        f"{salt}:{cid}:{onr}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64
