"""Deterministic randomness management for reproducible simulations.

Every run of the simulator is fully determined by a single integer seed plus
the protocol/adversary configuration.  The :class:`RandomnessSource` derives
independent, stable streams for

* each node (honest protocol randomness),
* the adversary (tie-breaking inside attack strategies), and
* the environment (input assignment, shuffling).

Streams are built with :class:`numpy.random.Philox`, a counter-based generator
whose keyed construction gives statistically independent streams for different
keys derived from the same seed — exactly what is needed so that, for example,
adding one more node does not perturb the randomness of existing nodes.
"""

from __future__ import annotations

import numpy as np

#: Stream domain tags.  Keeping them well separated guarantees that node
#: streams never collide with adversary, environment or network streams.
_NODE_DOMAIN = 0x01
_ADVERSARY_DOMAIN = 0x02
_ENVIRONMENT_DOMAIN = 0x03
_NETWORK_DOMAIN = 0x04


class RandomnessSource:
    """Factory of independent pseudo-random streams derived from one seed.

    Args:
        seed: Master seed of the run.  Two runs constructed with the same seed
            and the same configuration are bit-for-bit identical.

    Example:
        >>> source = RandomnessSource(seed=7)
        >>> rng = source.node_stream(3)
        >>> int(rng.integers(0, 2)) in (0, 1)
        True
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The master seed this source was created with."""
        return self._seed

    def _stream(self, domain: int, index: int) -> np.random.Generator:
        # Philox takes a 128-bit key as two 64-bit words: the first mixes the
        # run seed with the stream domain, the second carries the stream index.
        mask = (1 << 64) - 1
        high = (self._seed ^ (domain << 56)) & mask
        low = index & mask
        key = np.array([high, low], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def node_stream(self, node_id: int) -> np.random.Generator:
        """Return the private random stream of node ``node_id``.

        Honest protocol nodes draw all of their randomness (coin shares,
        Ben-Or style local coins, sampling choices) from this stream.
        """
        if node_id < 0:
            raise ValueError(f"node_id must be non-negative, got {node_id}")
        return self._stream(_NODE_DOMAIN, node_id)

    def adversary_stream(self) -> np.random.Generator:
        """Return the stream used by adversary strategies for their own choices."""
        return self._stream(_ADVERSARY_DOMAIN, 0)

    def environment_stream(self) -> np.random.Generator:
        """Return the stream used for workload generation (inputs, shuffles)."""
        return self._stream(_ENVIRONMENT_DOMAIN, 0)

    def network_stream(self) -> np.random.Generator:
        """Return the stream used by the message-loss model.

        The scheduler draws one ``(n, n)`` Bernoulli plane per round from
        this stream when a positive per-edge ``loss`` is configured
        (:func:`repro.topology.loss.sample_drops`); a dedicated domain keeps
        node and adversary streams unchanged when loss is switched on.
        """
        return self._stream(_NETWORK_DOMAIN, 0)


def fair_sign(rng: np.random.Generator) -> int:
    """Draw a uniform value from ``{-1, +1}`` (one fair coin flip).

    This is the only randomness primitive the paper's protocol needs per node
    per phase — the "amount of randomness used per node is constant" claim in
    Section 1.2.
    """
    return 1 if rng.integers(0, 2) == 1 else -1


def fair_bit(rng: np.random.Generator) -> int:
    """Draw a uniform bit from ``{0, 1}``."""
    return int(rng.integers(0, 2))


def random_inputs(n: int, rng: np.random.Generator) -> list[int]:
    """Generate ``n`` i.i.d. uniform input bits from the environment stream ``rng``."""
    return [int(rng.random() < 0.5) for _ in range(n)]


def split_inputs(n: int) -> list[int]:
    """Deterministic worst-case input split: first half 0, second half 1.

    A maximally split input prevents any value from initially holding the
    ``n - t`` majority required to decide in the first phase, so it is the
    hardest honest-input pattern for every protocol in this repository.
    """
    half = n // 2
    return [0] * half + [1] * (n - half)


def unanimous_inputs(n: int, value: int) -> list[int]:
    """All-``value`` input assignment (used to exercise the validity property)."""
    if value not in (0, 1):
        raise ValueError(f"value must be 0 or 1, got {value}")
    return [value] * n
