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
``(k,)`` bools for k-bit strings.  Z_m[G] entries are Z_m coefficients on
that axis, so ``GroupRingScalars`` runs ``IntegersMod``'s entrywise code.

The kernels broadcast leading stack axes in front of (rows, cols) +
entry_shape on both sides, as numpy's ``@`` does, so one call multiplies or
adds a stack of matrices and one matrix, or two stacks.

Packed arrays are canonical: of one of the ring's ``dtypes``, Z_m values
in [0, m), tropical entries int64 exactly when every entry is finite with
|x| < 2^62 and otherwise Python ints or ``TROP_INF`` in an object array, so
one value has one dtype.  Only the kernels and the parsers (``pack``,
``from_obj``, ``random``, ``zeros``, ``identity``) make them, and ``Matrix``
trusts both; the parsers refuse bools, floats and text as integers.

Z_m is stored as int64 whenever a product of two residues fits a signed
word, (m-1)^2 < 2^63, and as Python ints above.  A Z_m product sums as
stored while that is exact: at every inner dimension k on Python ints, while
k(m-1)^2 < 2^63 in int64.  An int64 product past that sums on unsigned views
of the same entries, in blocks of the inner dimension whose sums stay below
2^64, each reduced mod m before they are added (``IntegersMod.matmul``).

A tropical sum of two int64 entries below 2^62 in magnitude is exact in
int64, so min-plus products of int64 operands run on words; a result with
an entry past 2^62 converts exactly to Python ints, and any object operand
(+inf, or an entry past 2^62) sends the product down the Python-int path
(``TropicalIntegers``).

Semiring operator convention on scalars: ``+`` is the semiring addition
(min for tropical, OR for bitstrings) and ``*`` is the semiring
multiplication (integer + for tropical, AND for bitstrings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _is_integer
from .groups import FiniteGroupTable
from .permutations import Permutation

#: Formal additive identity of the tropical semiring.  Finite tropical values
#: are int64 words or Python ints; the IEEE infinity is used only as this one
#: formal symbol, in object arrays (comparisons and sums against ints are exact).
TROP_INF = float("inf")

#: tropical entries are stored as int64 exactly when all are finite and below this in magnitude:
#: two of them then sum exactly in int64, |a + b| < 2^63
_TROP_WORD_BOUND = 1 << 62

# Z_m[G] moduli stop here: GroupRingElement's convolution sums up to
# |G| <= MAX_GROUP_ORDER = 120 products of at most (m-1)^2 in int64, and
# 128 (m-1)^2 < 2^63 holds up to this modulus.
_GROUPRING_MOD_LIMIT = 1 << 28


def residue_products_fit_int64(modulus: int) -> bool:
    """Whether a product of two residues mod m, at most (m-1)^2, fits int64: m <= 3037000500.

    Z_m is stored as int64 exactly then, and ``linalg.rref_mod`` eliminates in int64.
    """
    return (modulus - 1) ** 2 < 1 << 63


def _words_fit(words: np.ndarray) -> bool:
    """Whether every entry x of an int64 array has |x| < 2^62; read as uint64, |x| is exact even at -2^63."""
    return np.maximum.reduce(np.abs(words).view(np.uint64), axis=None, initial=0) < _TROP_WORD_BOUND


def check_tropical_bounds(lo: int, hi: int) -> None:
    """Refuse tropical entry bounds unless -2^62 < lo <= hi < 2^62: numpy draws from them, into int64 storage."""
    if not -_TROP_WORD_BOUND < lo <= hi < _TROP_WORD_BOUND:
        raise ParameterError(f"tropical entry bounds need -2^62 < entry_lo <= entry_hi < 2^62, got [{lo}, {hi}]")


def _integer_array(obj, allow_inf: bool = False) -> np.ndarray:
    """Nested values as an object array of Python ints (and TROP_INF, also given as "inf")."""
    arr = np.array(obj, dtype=object)
    flat = arr.reshape(-1)
    if set(map(type, flat.tolist())) <= {int}:  # what JSON gives: nothing to refuse or convert
        return arr
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
        table = self.group.product
        out = np.zeros(self.group.order, dtype=np.int64)
        for f in range(self.group.order):
            af = int(self.coeffs[f])
            if af:
                out[table[f]] += af * other.coeffs
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


def _text_bits(s: str) -> list[bool]:
    """Bit i of 0/1 text is character i."""
    if set(s) - {"0", "1"}:
        raise ParameterError(f"bitstring must be 0/1 text, got {s!r}")
    return [ch == "1" for ch in s]


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
        mask = sum(1 << i for i, bit in enumerate(_text_bits(s)) if bit)
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
    """Entries in Z_m packed as a (rows, cols) + ``entry_shape`` integer array; ``entry_shape`` is () here."""

    linear = True
    entry_shape = ()

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ParameterError("modulus must be >= 2")
        self.modulus = int(modulus)
        self.dtype = np.int64 if residue_products_fit_int64(self.modulus) else object
        self.dtypes = (self.dtype,)
        # a product entry sums k terms of at most (m-1)^2.  As stored, the sum is exact at every k on
        # Python ints and while k*(m-1)^2 < 2^63 in int64; past that, int64 entries sum on unsigned
        # views in blocks of at most _uint64_inner_max terms, k*(m-1)^2 < 2^64
        square = (self.modulus - 1) ** 2
        self._int64_inner_max = ((1 << 63) - 1) // square if self.dtype is np.int64 else float("inf")
        self._uint64_inner_max = ((1 << 64) - 1) // square

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.modulus == self.modulus

    def __repr__(self):
        return f"IntegersMod({self.modulus})"

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols) + self.entry_shape, dtype=self.dtype)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.dtype)

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def matmul(self, a, b):
        k = a.shape[-1]
        if k <= self._int64_inner_max:
            return (a @ b) % self.modulus
        # canonical entries lie in [0, m), so the zero-copy unsigned views hold the same values
        a, b = a.view(np.uint64), b.view(np.uint64)
        step = self._uint64_inner_max
        if k <= step:
            return ((a @ b) % self.modulus).view(np.int64)
        # each block of at most `step` terms sums below 2^64 and reduces below m; n blocks sum
        # below n m, under 2^64 for every n < 2^64 / m (over 6 * 10^9 blocks, as m < 3037000500)
        total = (a[..., :step] @ b[..., :step, :]) % self.modulus
        for i in range(step, k, step):
            total += (a[..., i:i + step] @ b[..., i:i + step, :]) % self.modulus
        return (total % self.modulus).view(np.int64)

    def scale(self, c: int, a):
        return (c * a) % self.modulus

    def entry(self, data, i: int, j: int) -> ZMod:
        return ZMod(int(data[i, j]), self.modulus)

    def pack(self, rows) -> np.ndarray:
        return self.from_obj([[e.value if isinstance(e, ZMod) else e for e in r] for r in rows])

    def random(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        data = rng.integers(0, self.modulus, size=(rows, cols) + self.entry_shape, dtype=np.int64)
        return data.astype(self.dtype, copy=False)

    def to_obj(self, data) -> list:
        return data.tolist()

    def from_obj(self, obj) -> np.ndarray:
        return (_integer_array(obj) % self.modulus).astype(self.dtype, copy=False)


class GroupRingScalars:
    """Entries in Z_m[G] packed as a (rows, cols, |G|) coefficient array.

    Z_m[G] is a Z_m-module: an entry is |G| Z_m coefficients on a trailing
    axis, and the entrywise kernels, draws, storage rule and JSON codec are
    ``IntegersMod``'s (no subclass of it: Z_m and Z_m[G] are different rings).
    Products go through a regular representation: a matrix over Z_m[G] acts
    on stacked coefficient vectors as a Z_m matrix |G| times as large, and
    ``IntegersMod.matmul`` multiplies that, broadcasting leading stack axes.
    The product gathers the blocks of the factor with fewer entries, stack
    axes included (left-regular ``regular(a)`` for a @ X, right-regular for
    X @ b), so a tall stack of matrices times one small matrix, on either
    side, gathers the small one.
    """

    linear = True

    def __init__(self, group: FiniteGroupTable, modulus: int):
        if modulus > _GROUPRING_MOD_LIMIT:
            raise ParameterError(f"group ring modulus must be at most 2^28, got {modulus}")
        IntegersMod.__init__(self, modulus)
        self.group = group
        self.entry_shape = (group.order,)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingScalars)
            and other.modulus == self.modulus
            and other.group == self.group
        )

    def __repr__(self):
        return f"GroupRingScalars({self.group.name}, mod {self.modulus})"

    zeros = IntegersMod.zeros
    add = IntegersMod.add
    sub = IntegersMod.sub
    scale = IntegersMod.scale
    random = IntegersMod.random
    to_obj = IntegersMod.to_obj
    from_obj = IntegersMod.from_obj

    def identity(self, n: int) -> np.ndarray:
        out = self.zeros(n, n)
        out[np.arange(n), np.arange(n), self.group.identity] = 1 % self.modulus
        return out

    def regular(self, data):
        """The (rows*n x cols*n) Z_m matrix of X -> data @ X, n = |G|, for each matrix of a stack.

        Block (i, k) is the left-regular matrix of entry (i, k).  It acts on
        X's coefficients stacked by row: row k*n + g of the stack holds
        coefficient g of X's row k.  Leading stack axes stay in front.
        """
        rows, cols, n = data.shape[-3:]
        blocks = data.take(self.group.left_regular, axis=-1)  # [..., i, k, c, g] = data[..., i, k, c * g^-1]
        return blocks.swapaxes(-3, -2).reshape(data.shape[:-3] + (rows * n, cols * n))

    def matmul(self, a, b):
        rows, k, n = a.shape[-3:]
        cols = b.shape[-2]
        if b.size < a.size:
            # blocks[..., k, g, j, c] = b[..., k, j, g^-1 * c]: the matrix of X -> X @ b on X's rows,
            # each of which holds its k entries' coefficients in a row
            blocks = b.take(self.group.right_regular, axis=-1).swapaxes(-1, -3).swapaxes(-1, -2)
            prod = IntegersMod.matmul(self, a.reshape(a.shape[:-2] + (k * n,)),
                                      blocks.reshape(b.shape[:-3] + (k * n, cols * n)))
            return prod.reshape(prod.shape[:-1] + (cols, n))
        prod = IntegersMod.matmul(self, self.regular(a), b.swapaxes(-1, -2).reshape(b.shape[:-3] + (k * n, cols)))
        return prod.reshape(prod.shape[:-2] + (rows, n, cols)).swapaxes(-1, -2)

    def entry(self, data, i: int, j: int) -> GroupRingElement:
        return GroupRingElement(self.group, self.modulus, data[i, j])

    def pack(self, rows) -> np.ndarray:
        return self.from_obj([[e.coeffs for e in r] for r in rows])


class TropicalIntegers:
    """Integer (min, +) entries and the formal +inf, packed as a (rows, cols) array.

    The array is int64 exactly when every entry is finite with |x| < 2^62,
    and otherwise an object array of Python ints and ``TROP_INF``, so one
    value has one dtype.  Two int64 entries then sum exactly in int64, so a
    product of int64 operands runs on words and keeps them while its entries
    stay below 2^62; past that it converts, exactly, to Python ints.  An
    entrywise min never leaves its operands' range.  An object operand sends
    the product down the Python-int path, exact at every size, +inf included.
    """

    linear = False
    entry_shape = ()
    dtype = np.int64  # the word storage; ``dtypes`` adds the exact fallback
    dtypes = (np.int64, object)

    def __eq__(self, other):
        return isinstance(other, TropicalIntegers)

    def __repr__(self):
        return "TropicalIntegers()"

    @staticmethod
    def _from_objects(data: np.ndarray) -> np.ndarray:
        """Python ints and TROP_INF in canonical form: int64 when all are finite and fit, else as they are."""
        try:
            words = data.astype(np.int64)
        except OverflowError:  # +inf, or an int past int64
            return data
        return words if _words_fit(words) else data

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        # additive identity of (min, +) is +inf
        return self._from_objects(np.full((rows, cols), TROP_INF, dtype=object))

    def identity(self, n: int) -> np.ndarray:
        out = np.full((n, n), TROP_INF, dtype=object)
        np.fill_diagonal(out, 0)
        return self._from_objects(out)

    def add(self, a, b):
        out = np.minimum(a, b)
        return self._from_objects(out) if out.dtype == object else out

    def matmul(self, a, b):
        out = np.minimum.reduce(a[..., :, :, None] + b[..., None, :, :], axis=-2)
        if out.dtype == object:  # an object operand: Python ints, exact at every size, +inf included
            return self._from_objects(out)
        # int64 operands below 2^62 sum exactly; a result past that converts, exactly, to Python ints
        return out if _words_fit(out) else out.astype(object)

    def entry(self, data, i: int, j: int) -> TropicalScalar:
        return TropicalScalar(data[i, j])

    def pack(self, rows) -> np.ndarray:
        return self.from_obj([[e.value if isinstance(e, TropicalScalar) else e for e in r] for r in rows])

    def random(self, rng: np.random.Generator, rows: int, cols: int, lo: int, hi: int) -> np.ndarray:
        """Entries drawn uniformly from [lo, hi], after ``check_tropical_bounds``."""
        check_tropical_bounds(lo, hi)
        return rng.integers(lo, hi + 1, size=(rows, cols), dtype=np.int64)

    def to_obj(self, data) -> list:
        if data.dtype == object:
            return [["inf" if x == TROP_INF else x for x in row] for row in data.tolist()]
        return data.tolist()

    def from_obj(self, obj) -> np.ndarray:
        return self._from_objects(_integer_array(obj, allow_inf=True))


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
        self.dtypes = (self.dtype,)
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
        return np.any(a[..., :, :, None, :] & b[..., None, :, :, :], axis=-3)

    def entry(self, data, i: int, j: int) -> BitString:
        return BitString.from_string("".join("1" if b else "0" for b in data[i, j]))

    def _bits(self, e) -> list[bool]:
        """Bits of one entry given as 0/1 text, a BitString or an integer mask."""
        if isinstance(e, str):
            bits = _text_bits(e)
        else:
            if _is_integer(e):
                e = BitString(int(e), self.length)  # range-checks the mask
            elif not isinstance(e, BitString):
                raise ParameterError(f"bit entries are 0/1 text or integer masks, got {e!r}")
            bits = [(e.mask >> i) & 1 == 1 for i in range(e.length)]
        if len(bits) != self.length:
            raise ParameterError("bitstring length differs from ring length")
        return bits

    def pack(self, rows) -> np.ndarray:
        return np.array([[self._bits(e) for e in r] for r in rows], dtype=np.bool_)

    def random(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        return rng.integers(0, 2, size=(rows, cols, self.length), dtype=np.int64).astype(np.bool_)

    def to_obj(self, data) -> list:
        return [["".join(entry) for entry in row] for row in np.where(data, "1", "0").tolist()]

    def from_obj(self, obj) -> np.ndarray:
        return self.pack(obj)
