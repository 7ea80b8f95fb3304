"""Deterministic named random streams.

Each subsystem (arrival process, per-component service time, tracer noise,
BE progress jitter, ...) draws from its own named stream. Streams are
seeded by hashing ``(root_seed, name)`` so:

- the whole experiment is reproducible from a single seed, and
- adding draws in one subsystem does not perturb any other subsystem.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A registry of independent, reproducibly seeded RNG streams.

    Parameters
    ----------
    seed:
        Root seed for the entire experiment.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(_derive_seed(self._seed, name))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child registry rooted at a seed derived from ``name``.

        Useful when an experiment fans out into repeated trials that must
        each be reproducible yet mutually independent.
        """
        return RandomStreams(_derive_seed(self._seed, f"spawn:{name}"))

    def snapshot(self) -> "RandomStreams":
        """An independent copy: every stream continues from its current state.

        Each copied generator gets a fresh bit generator of the same
        type, built from the source's (shared) seed sequence — cheap,
        and no OS entropy — and then set to the source's exact state.
        """
        clone = RandomStreams(self._seed)
        streams = clone._streams
        for name, gen in self._streams.items():
            bits = gen.bit_generator
            copied = type(bits)(bits.seed_seq)
            copied.state = bits.state
            streams[name] = np.random.Generator(copied)
        return clone

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"
