"""Permutations of {0..k-1}: the public bit permutation of the OR/AND platform."""

from __future__ import annotations

import math

from .errors import ParameterError, _is_integer


class Permutation:
    """A bijection on {0..k-1}, stored in one-line notation: ``p[i]`` is the image of ``i``.

    A float, bool or text entry is refused, never truncated or read as digits.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping):
        m = tuple(mapping)
        if not all(_is_integer(i) for i in m) or sorted(m) != list(range(len(m))):
            raise ParameterError(f"not a permutation of 0..{len(m) - 1}: {m}")
        self._map = tuple(int(i) for i in m)

    @staticmethod
    def identity(k: int) -> Permutation:
        return Permutation(range(k))

    @staticmethod
    def from_cycles(cycles, k: int) -> Permutation:
        """Build a permutation of size ``k`` from disjoint cycles.

        Each cycle ``(c0, c1, ..., cl)`` maps c0 -> c1 -> ... -> cl -> c0;
        points not mentioned are fixed.
        """
        mapping = list(range(k))
        seen = set()
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in seen:
                    raise ParameterError(f"cycles are not disjoint at point {a}")
                seen.add(a)
                mapping[a] = b
        return Permutation(mapping)

    def __getitem__(self, i: int) -> int:
        return self._map[i]

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self):
        return iter(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._map == other._map

    def __hash__(self) -> int:
        return hash(self._map)

    def __repr__(self) -> str:
        return f"Permutation({list(self._map)})"

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, fixed points included as 1-cycles."""
        out, seen = [], [False] * len(self)
        for start in range(len(self)):
            if seen[start]:
                continue
            cyc, i = [], start
            while not seen[i]:
                seen[i] = True
                cyc.append(i)
                i = self._map[i]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))
