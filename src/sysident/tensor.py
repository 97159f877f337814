"""A counter-based, splittable random stream and stable seed derivation.

``Rng`` wraps numpy's Philox bit generator (counter-based), so a given seed
produces the same stream on every platform and ``split()`` yields
statistically independent child streams that are themselves reproducible.
"""

import hashlib

import numpy as np

from .errors import ParameterError


def _derive_key(label):
    """128-bit Philox key from an arbitrary string label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def derive_seed(*parts):
    """Stable 63-bit seed from a tuple of values (run-to-run reproducible)."""
    label = ":".join(repr(p) for p in parts)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Rng:
    """Deterministic random stream backed by the Philox counter generator."""

    def __init__(self, seed, _key=None):
        self.seed = int(seed)
        self._key = _key if _key is not None else _derive_key(f"seed:{self.seed}")
        self._gen = np.random.Generator(np.random.Philox(key=self._key))
        self._splits = 0

    def split(self):
        """Child stream; independent of the parent and of earlier children."""
        self._splits += 1
        key = _derive_key(f"{self._key:x}:{self._splits}")
        return Rng(self.seed, _key=key)

    def gaussian(self, shape, mean=0.0, std=1.0):
        if std < 0:
            raise ParameterError(f"gaussian std must be >= 0, got {std}")
        return self._gen.normal(loc=mean, scale=std, size=shape)

    def uniform(self, low, high, shape):
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape):
        return self._gen.random(size=shape)

    def permutation(self, n):
        return self._gen.permutation(n)

    def get_state(self):
        return self._gen.bit_generator.state

    def set_state(self, state):
        self._gen.bit_generator.state = state

