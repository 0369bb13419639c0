"""Deterministic randomness.

Reproducibility is a hard requirement for a security simulation: a reported
bitflip must be reproducible from the seed printed next to it.  We never use
the global ``random`` / ``numpy.random`` state.  Instead each component draws
its own :class:`RngStream` from a root seed via :func:`derive_seed`, so
adding randomness to one component cannot perturb another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from ``root_seed`` and a label path.

    The derivation hashes the textual label path, so

    >>> derive_seed(1, "dram", "bank", 3) != derive_seed(1, "dram", "bank", 4)
    True

    and the result is stable across Python runs and platforms.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode("ascii"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "little")


class SeedPrefix:
    """A pre-hashed ``(root_seed, *labels)`` prefix for bulk seed derivation.

    Deriving thousands of sibling seeds (one per sweep trial) re-hashes the
    shared ``root_seed/label/...`` prefix every time.  ``SeedPrefix`` hashes
    the prefix once and clones the digest state per call, so

    >>> SeedPrefix(7, "sweep", "mc").derive(3, 1) == \\
    ...     derive_seed(7, "sweep", "mc", 3, 1)
    True

    holds bit-for-bit for every label path — the cache is purely a speedup.
    """

    def __init__(self, root_seed: int, *labels: object):
        hasher = hashlib.sha256()
        hasher.update(str(int(root_seed)).encode("ascii"))
        for label in labels:
            hasher.update(b"/")
            hasher.update(str(label).encode("utf-8"))
        self._hasher = hasher

    def derive(self, *labels: object) -> int:
        hasher = self._hasher.copy()
        for label in labels:
            hasher.update(b"/")
            hasher.update(str(label).encode("utf-8"))
        return int.from_bytes(hasher.digest()[:8], "little")


class RngStream:
    """A named, seeded random stream backed by ``numpy.random.Generator``."""

    def __init__(self, seed: int, *labels: object):
        self.seed = derive_seed(seed, *labels) if labels else int(seed)
        self.labels = labels
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, for vectorized draws."""
        return self._gen

    def child(self, *labels: object) -> "RngStream":
        """Derive an independent child stream."""
        return RngStream(self.seed, *labels)

    # -- convenience wrappers -------------------------------------------

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return float(self._gen.random())

    def chance(self, probability: float) -> bool:
        """Bernoulli draw."""
        return bool(self._gen.random() < probability)

    def choice(self, seq):
        """Pick one element of a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self._gen.integers(0, len(seq)))]

    def sample_indices(self, population: int, count: int) -> np.ndarray:
        """``count`` distinct indices drawn from ``range(population)``."""
        if count > population:
            raise ValueError(
                "cannot sample %d from population of %d" % (count, population)
            )
        return self._gen.choice(population, size=count, replace=False)

    def shuffled(self, seq):
        """Return a shuffled copy of ``seq`` as a list."""
        order = self._gen.permutation(len(seq))
        return [seq[i] for i in order]

    def __repr__(self) -> str:
        return "RngStream(seed=%d, labels=%r)" % (self.seed, self.labels)
