"""Seeded pseudorandom generator with a fixed cross-platform algorithm.

SplitMix64: state advances by the constant 0x9E3779B97F4A7C15 and the
output is mixed with two xor-shift-multiply rounds. All arithmetic is
64-bit modular integer math, so identical seeds produce identical
streams on every platform. No platform default generators are used
anywhere in the simulator.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Integer in [0, n). Modulo reduction; bias is immaterial here
        because determinism, not statistical quality, is the contract."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n

    def uniform_int(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.randrange(hi - lo + 1)
