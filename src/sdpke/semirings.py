"""Scalar types and semiring descriptors for the four matrix entry domains.

Scalar classes (ZMod, GroupRingElement, TropicalScalar, BitString) are small
immutable values with operator overloading; they define the arithmetic.
The ring descriptors (IntegersMod, GroupRingScalars, TropicalIntegers,
BitStrings) carry the parameters of a scalar domain and implement the same
arithmetic as vectorized kernels on packed numpy arrays; the Matrix type in
``matrices`` dispatches to them.  Each descriptor also states its linear
structure: ``linear`` is True when the entries form a Z_m-module (additive
inverses, a Z_m scalar action, coordinates for linear algebra), and
``entry_shape`` is the array shape of one packed entry: ``()`` for Z_m and
tropical scalars, ``(|G|,)`` coefficients for group ring entries and
``(k,)`` bools for k-bit strings.

Packed arrays are canonical: of dtype ``dtype``, Z_m values in [0, m),
tropical entries Python ints or ``TROP_INF``.  Only the kernels and the
parsers (``pack``, ``from_obj``, ``random``) make them, and ``Matrix``
trusts both; the parsers refuse bools, floats and text as integers.

Semiring operator convention on scalars: ``+`` is the semiring addition
(min for tropical, OR for bitstrings) and ``*`` is the semiring
multiplication (integer + for tropical, AND for bitstrings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .groups import FiniteGroupTable
from .permutations import Permutation

#: Formal additive identity of the tropical semiring.  Finite tropical values
#: are always Python ints; the IEEE infinity is used only as this one formal
#: symbol (comparisons and sums against ints are exact).
TROP_INF = float("inf")

# Packed int64 arithmetic is used only while k * (m-1)^2 cannot overflow;
# beyond these bounds the kernels fall back to object arrays of Python ints.
# IntegersMod.matmul also checks the inner dimension k of each product.
_INT64_MOD_LIMIT = 1 << 28
_GROUPRING_MOD_LIMIT = 1 << 20


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)  # bool subclasses int


def _integer_array(obj, allow_inf: bool = False) -> np.ndarray:
    """Nested values as an object array of Python ints (and TROP_INF, also given as "inf")."""
    arr = np.array(obj, dtype=object)
    flat = arr.reshape(-1)
    for i, x in enumerate(flat):
        if _is_integer(x):
            flat[i] = int(x)
        elif allow_inf and (x == "inf" or x == TROP_INF):
            flat[i] = TROP_INF
        else:
            raise ParameterError(f"matrix entries are integers{' or inf' * allow_inf}, got {x!r}")
    return arr


# ---------------------------------------------------------------------------
# scalars


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

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ZMod(self.value - v, self.modulus)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ZMod(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return ZMod(-self.value, self.modulus)

    def inverse(self) -> ZMod:
        return ZMod(pow(self.value, -1, self.modulus), self.modulus)

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
    def zero(group: FiniteGroupTable, modulus: int) -> GroupRingElement:
        return GroupRingElement(group, modulus, np.zeros(group.order, dtype=np.int64))

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

    def __sub__(self, other: GroupRingElement) -> GroupRingElement:
        self._check(other)
        return GroupRingElement(self.group, self.modulus, self.coeffs - other.coeffs)

    def __mul__(self, other: GroupRingElement) -> GroupRingElement:
        self._check(other)
        table = self.group.product
        out = np.zeros(self.group.order, dtype=np.int64)
        for f in range(self.group.order):
            af = int(self.coeffs[f])
            if af:
                out[table[f]] += af * other.coeffs
        return GroupRingElement(self.group, self.modulus, out)

    def __rmul__(self, scalar) -> GroupRingElement:
        c = scalar.value if isinstance(scalar, ZMod) else int(scalar)
        return GroupRingElement(self.group, self.modulus, c * self.coeffs)

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


def axpy(c, a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """c*a + b, the scalar action used to take linear combinations."""
    return c * a + b


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
    """A fixed-length bit vector; ``+`` is bitwise OR, ``*`` bitwise AND."""

    mask: int
    length: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.length):
            raise ParameterError("bit mask out of range for declared length")

    @staticmethod
    def from_string(s: str) -> BitString:
        if set(s) - {"0", "1"}:
            raise ParameterError(f"bitstring must be 0/1 text, got {s!r}")
        mask = sum(1 << i for i, ch in enumerate(s) if ch == "1")
        return BitString(mask, len(s))

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


# ---------------------------------------------------------------------------
# ring descriptors / packed kernels


class IntegersMod:
    """Entries in Z_m packed as a (rows, cols) integer array."""

    linear = True
    entry_shape = ()

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ParameterError("modulus must be >= 2")
        self.modulus = int(modulus)
        self.dtype = object if self.modulus > _INT64_MOD_LIMIT else np.int64
        # a product entry sums k terms below m^2: exact in int64 while k*(m-1)^2 < 2^63
        self._int64_inner_max = ((1 << 63) - 1) // (self.modulus - 1) ** 2

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.modulus == self.modulus

    def __repr__(self):
        return f"IntegersMod({self.modulus})"

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=self.dtype)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.dtype)

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def matmul(self, a, b):
        if a.shape[1] > self._int64_inner_max:
            # exact over Python ints; the reduced product fits self.dtype again
            prod = (a.astype(object, copy=False) @ b.astype(object, copy=False)) % self.modulus
            return prod.astype(self.dtype, copy=False)
        return (a @ b) % self.modulus

    def scale(self, c: int, a):
        return (c * a) % self.modulus

    def entry(self, data, i: int, j: int) -> ZMod:
        return ZMod(int(data[i, j]), self.modulus)

    def pack(self, rows) -> np.ndarray:
        return self.from_obj([[e.value if isinstance(e, ZMod) else e for e in r] for r in rows])

    def random(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        data = rng.integers(0, self.modulus, size=(rows, cols), dtype=np.int64)
        return data.astype(self.dtype, copy=False)

    def to_obj(self, data) -> list:
        return [[int(x) for x in row] for row in data]

    def from_obj(self, obj) -> np.ndarray:
        return (_integer_array(obj) % self.modulus).astype(self.dtype, copy=False)


class GroupRingScalars:
    """Entries in Z_m[G] packed as a (rows, cols, |G|) coefficient array."""

    linear = True

    def __init__(self, group: FiniteGroupTable, modulus: int):
        if modulus < 2:
            raise ParameterError("modulus must be >= 2")
        if modulus > _GROUPRING_MOD_LIMIT:
            raise ParameterError("group ring modulus too large for packed arithmetic")
        self.group = group
        self.modulus = int(modulus)
        self.dtype = np.int64
        self.entry_shape = (group.order,)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingScalars)
            and other.modulus == self.modulus
            and other.group == self.group
        )

    def __repr__(self):
        return f"GroupRingScalars({self.group.name}, mod {self.modulus})"

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols, self.group.order), dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        out = self.zeros(n, n)
        out[np.arange(n), np.arange(n), self.group.identity] = 1 % self.modulus
        return out

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def matmul(self, a, b):
        # C_ij = sum_k A_ik * B_kj with * the group ring convolution
        n = self.group.order
        pair = np.einsum("ikf,kjg->ijfg", a, b) % self.modulus
        flat = pair.reshape(a.shape[0], b.shape[1], n * n)
        return (flat @ self.group.convolution_scatter()) % self.modulus

    def scale(self, c: int, a):
        return (c * a) % self.modulus

    def entry(self, data, i: int, j: int) -> GroupRingElement:
        return GroupRingElement(self.group, self.modulus, data[i, j])

    def pack(self, rows) -> np.ndarray:
        return self.from_obj([[e.coeffs for e in r] for r in rows])

    def random(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        return rng.integers(0, self.modulus, size=(rows, cols, self.group.order), dtype=np.int64)

    def to_obj(self, data) -> list:
        return [[list(map(int, entry)) for entry in row] for row in data]

    def from_obj(self, obj) -> np.ndarray:
        return (_integer_array(obj) % self.modulus).astype(self.dtype)


class TropicalIntegers:
    """Integer (min, +) entries, packed as an object array of Python ints.

    Object dtype keeps the arithmetic exact for arbitrarily large values and
    lets the formal +inf ride along as the IEEE infinity.
    """

    linear = False
    entry_shape = ()

    def __init__(self):
        self.dtype = object

    def __eq__(self, other):
        return isinstance(other, TropicalIntegers)

    def __repr__(self):
        return "TropicalIntegers()"

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        # additive identity of (min, +) is +inf
        return np.full((rows, cols), TROP_INF, dtype=object)

    def identity(self, n: int) -> np.ndarray:
        out = self.zeros(n, n)
        np.fill_diagonal(out, 0)
        return out

    def add(self, a, b):
        return np.minimum(a, b)

    def matmul(self, a, b):
        return (a[:, :, None] + b[None, :, :]).min(axis=1)

    def entry(self, data, i: int, j: int) -> TropicalScalar:
        return TropicalScalar(data[i, j])

    def pack(self, rows) -> np.ndarray:
        return self.from_obj([[e.value if isinstance(e, TropicalScalar) else e for e in r] for r in rows])

    def random(self, rng: np.random.Generator, rows: int, cols: int, lo: int, hi: int) -> np.ndarray:
        return rng.integers(lo, hi + 1, size=(rows, cols), dtype=np.int64).astype(object)

    def to_obj(self, data) -> list:
        return [["inf" if x == TROP_INF else int(x) for x in row] for row in data]

    def from_obj(self, obj) -> np.ndarray:
        return _integer_array(obj, allow_inf=True)


class BitStrings:
    """Length-k bitstrings under (OR, AND), packed as a (rows, cols, k) bool array.

    Bit i of entry (r, c) is ``data[r, c, i]``: the bit positions are a
    trailing entry axis, as the coefficients are for group ring entries.
    Text and integer masks are accepted at the boundary (``pack``,
    ``from_obj``); bit i of a mask is ``(mask >> i) & 1``, character i of the
    text.
    """

    linear = False

    def __init__(self, length: int):
        if length < 1:
            raise ParameterError("bit length must be >= 1")
        self.length = int(length)
        self.dtype = np.bool_
        self.entry_shape = (self.length,)

    def __eq__(self, other):
        return isinstance(other, BitStrings) and other.length == self.length

    def __repr__(self):
        return f"BitStrings({self.length})"

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols, self.length), dtype=np.bool_)

    def identity(self, n: int) -> np.ndarray:
        # AND-identity entry is the all-ones string
        out = self.zeros(n, n)
        out[np.arange(n), np.arange(n)] = True
        return out

    def add(self, a, b):
        return a | b

    def matmul(self, a, b):
        return np.any(a[:, :, None, :] & b[None, :, :, :], axis=1)

    def permute_bits(self, data, perm: Permutation):
        if len(perm) != self.length:
            raise ParameterError("permutation length differs from bit length")
        return data[..., list(perm)]

    def entry(self, data, i: int, j: int) -> BitString:
        return BitString.from_string("".join("1" if b else "0" for b in data[i, j]))

    def _bits(self, e) -> list[bool]:
        """Bits of one entry given as 0/1 text, a BitString or an integer mask."""
        if isinstance(e, str):
            e = BitString.from_string(e)
        elif _is_integer(e):
            e = BitString(int(e), self.length)  # range-checks the mask
        elif not isinstance(e, BitString):
            raise ParameterError(f"bit entries are 0/1 text or integer masks, got {e!r}")
        if e.length != self.length:
            raise ParameterError("bitstring length differs from ring length")
        return [ch == "1" for ch in e.to_string()]

    def pack(self, rows) -> np.ndarray:
        return np.array([[self._bits(e) for e in r] for r in rows], dtype=np.bool_)

    def random(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        return rng.integers(0, 2, size=(rows, cols, self.length), dtype=np.int64).astype(np.bool_)

    def to_obj(self, data) -> list:
        return [["".join(entry) for entry in row] for row in np.where(data, "1", "0").tolist()]

    def from_obj(self, obj) -> np.ndarray:
        return self.pack(obj)
