"""Slow scalar references for the packed kernels of ``sdpke.semirings``.

Each class is one entry of one of the four semirings, as a small immutable
value with operator overloading: ``+`` is the semiring addition (min for
tropical, OR for bitstrings) and ``*`` the semiring multiplication (integer
+ for tropical, AND for bitstrings).  They share no code with the kernels,
so a test that computes a product both ways checks the kernels against an
independent statement of the arithmetic.

``entry`` reads one entry of a ``Matrix`` as a scalar, and ``from_scalars``
builds a ``Matrix`` from nested scalars through the library's one parser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import sdpke.matrices as mx
from sdpke.errors import ParameterError
from sdpke.groups import FiniteGroupTable
from sdpke.permutations import Permutation
from sdpke.semirings import TROP_INF, BitStrings, GroupRingScalars, IntegersMod, TropicalIntegers


@dataclass(frozen=True)
class ZMod:
    """An integer mod m, always stored reduced."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ParameterError("modulus must be >= 2")
        object.__setattr__(self, "value", int(self.value) % self.modulus)

    def _coerce(self, other) -> int | None:
        if isinstance(other, ZMod):
            if other.modulus != self.modulus:
                raise ParameterError("mixed moduli")
            return other.value
        if isinstance(other, (int, np.integer)):
            return int(other)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ZMod(self.value + v, self.modulus)

    __radd__ = __add__

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ZMod(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{self.value} (mod {self.modulus})"


class GroupRingElement:
    """Formal Z_m-linear combination of the elements of a finite group.

    Multiplication is convolution through the group's Cayley table:
    ``(a*b)_h = sum over f*g = h of a_f b_g``.
    """

    __slots__ = ("group", "modulus", "coeffs")

    def __init__(self, group: FiniteGroupTable, modulus: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.int64) % modulus
        if coeffs.shape != (group.order,):
            raise ParameterError(
                f"need {group.order} coefficients, got shape {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        self.group = group
        self.modulus = modulus
        self.coeffs = coeffs

    @staticmethod
    def basis(group: FiniteGroupTable, modulus: int, index: int) -> GroupRingElement:
        c = np.zeros(group.order, dtype=np.int64)
        c[index] = 1
        return GroupRingElement(group, modulus, c)

    @staticmethod
    def one(group: FiniteGroupTable, modulus: int) -> GroupRingElement:
        return GroupRingElement.basis(group, modulus, group.identity)

    def _check(self, other: GroupRingElement):
        if self.group != other.group or self.modulus != other.modulus:
            raise ParameterError("group ring elements live in different rings")

    def __add__(self, other: GroupRingElement) -> GroupRingElement:
        self._check(other)
        return GroupRingElement(self.group, self.modulus, self.coeffs + other.coeffs)

    def __mul__(self, other: GroupRingElement) -> GroupRingElement:
        self._check(other)
        table, m = self.group.product, self.modulus
        out = np.zeros(self.group.order, dtype=np.int64)
        for f in range(self.group.order):
            af = int(self.coeffs[f])
            if af:  # reduced at each term: a partial sum is at most m(m-1), below 2^63 for every Z_m[G] modulus
                out[table[f]] = (out[table[f]] + af * other.coeffs) % m
        return GroupRingElement(self.group, self.modulus, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.modulus == other.modulus
            and self.group == other.group
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        terms = [f"{int(c)}.g{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class TropicalScalar:
    """An integer under (min, +), or the formal minimum identity +inf."""

    value: object  # int, or TROP_INF

    def __post_init__(self):
        v = self.value
        if v != TROP_INF and not isinstance(v, (int, np.integer)):
            raise ParameterError(f"tropical values are ints or +inf, got {v!r}")
        if isinstance(v, np.integer):
            object.__setattr__(self, "value", int(v))

    def __add__(self, other: TropicalScalar) -> TropicalScalar:
        return TropicalScalar(min(self.value, other.value))

    def __mul__(self, other: TropicalScalar) -> TropicalScalar:
        if self.value == TROP_INF or other.value == TROP_INF:
            return TropicalScalar(TROP_INF)
        return TropicalScalar(self.value + other.value)

    def star(self, other: TropicalScalar) -> TropicalScalar:
        """min(a, b, a+b): addition, plus the correction of their product."""
        return self + other + self * other

    def __repr__(self):
        return "+inf" if self.value == TROP_INF else str(self.value)


@dataclass(frozen=True)
class BitString:
    """A fixed-length bit vector; ``+`` is bitwise OR, ``*`` bitwise AND.  Bit i is ``(mask >> i) & 1``."""

    mask: int
    length: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.length):
            raise ParameterError("bit mask out of range for declared length")

    @staticmethod
    def from_string(s: str) -> BitString:
        """Bit i is character i of 0/1 text."""
        if set(s) - {"0", "1"}:
            raise ParameterError(f"bitstring must be 0/1 text, got {s!r}")
        return BitString(sum(1 << i for i, ch in enumerate(s) if ch == "1"), len(s))

    def to_string(self) -> str:
        return "".join("1" if (self.mask >> i) & 1 else "0" for i in range(self.length))

    def _check(self, other: BitString):
        if self.length != other.length:
            raise ParameterError("bitstrings of different lengths")

    def __add__(self, other: BitString) -> BitString:
        self._check(other)
        return BitString(self.mask | other.mask, self.length)

    def __mul__(self, other: BitString) -> BitString:
        self._check(other)
        return BitString(self.mask & other.mask, self.length)

    def permuted(self, perm: Permutation) -> BitString:
        """Reindex bits: result bit i is the source bit perm[i]."""
        if len(perm) != self.length:
            raise ParameterError("permutation length differs from bit length")
        mask = 0
        for i in range(self.length):
            mask |= ((self.mask >> perm[i]) & 1) << i
        return BitString(mask, self.length)

    def __repr__(self):
        return f'bits"{self.to_string()}"'


def entry(m: mx.Matrix, i: int, j: int):
    """Entry (i, j) of a matrix as the scalar of its ring."""
    ring, e = m.ring, m.data[i, j]
    if isinstance(ring, IntegersMod):
        return ZMod(int(e), ring.modulus)
    if isinstance(ring, GroupRingScalars):
        return GroupRingElement(ring.group, ring.modulus, e)
    if isinstance(ring, TropicalIntegers):
        return TropicalScalar(e)
    assert isinstance(ring, BitStrings)
    return BitString(sum(1 << k for k, bit in enumerate(e) if bit), ring.length)


def _raw(e):
    """A scalar as the raw entry the library's parser reads."""
    if isinstance(e, (ZMod, TropicalScalar)):
        return e.value
    if isinstance(e, GroupRingElement):
        return e.coeffs.tolist()
    return e.mask


def from_scalars(ring, rows) -> mx.Matrix:
    """The matrix over ``ring`` of nested rows of scalars, parsed by ``from_rows``."""
    return mx.from_rows(ring, [[_raw(e) for e in row] for row in rows])
