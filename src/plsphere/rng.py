"""Portable deterministic pseudo-random number generator.

All randomized procedures in this package draw from :class:`Rng`, a
splitmix64-seeded xorshift128+ generator.  The generator is specified
exactly (64-bit wrapping arithmetic), so identical seeds give identical
streams on every platform and Python version.  Known-answer vectors live
in ``tests/test_rng.py`` and in the README.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (output, new_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64, state


class Rng:
    """xorshift128+ generator seeded from a 64-bit integer via splitmix64."""

    __slots__ = ("s0", "s1")

    def __init__(self, seed: int):
        seed &= _MASK64
        s0, state = splitmix64_next(seed)
        s1, _ = splitmix64_next(state)
        if s0 == 0 and s1 == 0:  # all-zero state is a fixed point
            s1 = 1
        self.s0 = s0
        self.s1 = s1

    def next_u64(self) -> int:
        x = self.s0
        y = self.s1
        self.s0 = y
        x ^= (x << 23) & _MASK64
        x = x ^ y ^ (x >> 17) ^ (y >> 26)
        self.s1 = x
        return (x + y) & _MASK64

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via the multiply-high reduction."""
        if n <= 0:
            raise ValueError("randbelow() needs n >= 1")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = (self.next_u64() * (i + 1)) >> 64
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        self.shuffle(perm)
        return perm
