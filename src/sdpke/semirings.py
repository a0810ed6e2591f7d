"""Semiring descriptors for the four matrix entry domains, and their kernels.

The ring descriptors (IntegersMod, GroupRingScalars, TropicalIntegers,
BitStrings) carry the parameters of an entry domain, and their vectorized
kernels on packed numpy arrays are the arithmetic: the Matrix type in
``matrices`` dispatches to them, and no scalar type exists in the library.
The slow scalar references that the tests check the kernels against live
in ``tests/oracles.py``.  Each descriptor also states its linear
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
one value has one dtype.  Only the kernels and the constructors
(``from_obj``, ``random``, ``zeros``, ``identity``) make them, and ``Matrix``
trusts both.  ``from_obj`` is each ring's one parser.  It reads nested rows
of raw entries and refuses anything else, naming the ring: integers for Z_m,
lists of |G| integer coefficients for Z_m[G], integers or "inf" for
tropical entries, and 0/1 text or integer masks for bitstrings.  It refuses
bools, floats and text as integers.

Z_m is stored as int64 whenever a product of two residues fits a signed
word, (m-1)^2 < 2^63, and as Python ints above.  A Z_m product sums as
stored while that is exact: at every inner dimension k on Python ints, while
k(m-1)^2 < 2^63 in int64.  An int64 product past that sums on unsigned views
of the same entries, in blocks of the inner dimension whose sums stay below
2^64, each reduced mod m before they are added (``IntegersMod.matmul``).
Z_m[G] takes only the moduli Z_m stores as int64, by the same rule, so its
coefficients always live on words and ``linalg.rref_mod`` eliminates its
regular blocks in int64.

A tropical sum of two int64 entries below 2^62 in magnitude is exact in
int64, so min-plus products of int64 operands run on words; a result with
an entry past 2^62 converts exactly to Python ints, and any object operand
(+inf, or an entry past 2^62) sends the product down the Python-int path
(``TropicalIntegers``).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, _is_integer
from .groups import FiniteGroupTable

#: Formal additive identity of the tropical semiring.  Finite tropical values
#: are int64 words or Python ints; the IEEE infinity is used only as this one
#: formal symbol, in object arrays (comparisons and sums against ints are exact).
TROP_INF = float("inf")

#: tropical entries are stored as int64 exactly when all are finite and below this in magnitude:
#: two of them then sum exactly in int64, |a + b| < 2^63
_TROP_WORD_BOUND = 1 << 62

def residue_products_fit_int64(modulus: int) -> bool:
    """Whether a product of two residues mod m, at most (m-1)^2, fits int64: m <= 3037000500.

    Z_m is stored as int64 exactly then, and ``linalg.rref_mod`` eliminates in int64.
    """
    return (modulus - 1) ** 2 < 1 << 63


def _words_fit(words: np.ndarray) -> bool:
    """Whether every entry x of an int64 array has |x| < 2^62; read as uint64, |x| is exact even at -2^63."""
    return np.maximum.reduce(np.abs(words).view(np.uint64), axis=None, initial=0) < _TROP_WORD_BOUND


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (min, +) product of packed tropical entries as stored, leading stack axes broadcast: no bound is
    checked, so on int64 operands it is exact only when every sum is (``TropicalIntegers.matmul`` checks)."""
    return np.minimum.reduce(a[..., :, :, None] + b[..., None, :, :], axis=-2)


def check_tropical_bounds(lo: int, hi: int) -> None:
    """Refuse tropical entry bounds unless -2^62 < lo <= hi < 2^62: numpy draws from them, into int64 storage."""
    if not -_TROP_WORD_BOUND < lo <= hi < _TROP_WORD_BOUND:
        raise ParameterError(f"tropical entry bounds need -2^62 < entry_lo <= entry_hi < 2^62, got [{lo}, {hi}]")


def _nested_rows(obj, ring, entry_shape: tuple = ()) -> np.ndarray:
    """Nested rows of entries as an object array of shape (rows, cols) + ``entry_shape``, any stack axes in front.

    Anything else (text, a mapping, a bare number, ragged rows) is refused, naming the ring.
    """
    arr = np.array(obj, dtype=object)
    if arr.ndim < 2 + len(entry_shape) or arr.shape[arr.ndim - len(entry_shape):] != entry_shape:
        want = ", ".join(["rows", "cols", *map(str, entry_shape)])
        raise ParameterError(f"a matrix over {ring!r} is nested rows of shape ({want}), "
                             f"got {type(obj).__name__} of shape {arr.shape}")
    return arr


def _integer_array(obj, ring, allow_inf: bool = False) -> np.ndarray:
    """Nested rows of ``ring``'s entries as an object array of Python ints (and TROP_INF, also given as "inf")."""
    arr = _nested_rows(obj, ring, ring.entry_shape)
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

    def random(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        data = rng.integers(0, self.modulus, size=(rows, cols) + self.entry_shape, dtype=np.int64)
        return data.astype(self.dtype, copy=False)

    def to_obj(self, data) -> list:
        return data.tolist()

    def from_obj(self, obj) -> np.ndarray:
        return (_integer_array(obj, self) % self.modulus).astype(self.dtype, copy=False)


class GroupRingScalars:
    """Entries in Z_m[G] packed as a (rows, cols, |G|) coefficient array.

    Z_m[G] is a Z_m-module: an entry is |G| Z_m coefficients on a trailing
    axis, and the entrywise kernels, draws, storage rule and JSON codec are
    ``IntegersMod``'s (no subclass of it: Z_m and Z_m[G] are different rings).
    The modulus is one Z_m stores as int64, (m-1)^2 < 2^63, and no other.
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
        IntegersMod.__init__(self, modulus)
        if not residue_products_fit_int64(self.modulus):
            raise ParameterError(f"group ring modulus needs (m-1)^2 < 2^63, m <= 3037000500, got {modulus}")
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
        out[np.arange(n), np.arange(n), self.group.identity] = 1
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
        out = _min_plus(a, b)
        if out.dtype == object:  # an object operand: Python ints, exact at every size, +inf included
            return self._from_objects(out)
        # int64 operands below 2^62 sum exactly; a result past that converts, exactly, to Python ints
        return out if _words_fit(out) else out.astype(object)

    def random(self, rng: np.random.Generator, rows: int, cols: int, lo: int, hi: int) -> np.ndarray:
        """Entries drawn uniformly from [lo, hi], after ``check_tropical_bounds``."""
        check_tropical_bounds(lo, hi)
        return rng.integers(lo, hi + 1, size=(rows, cols), dtype=np.int64)

    def to_obj(self, data) -> list:
        if data.dtype == object:
            return [["inf" if x == TROP_INF else x for x in row] for row in data.tolist()]
        return data.tolist()

    def from_obj(self, obj) -> np.ndarray:
        return self._from_objects(_integer_array(obj, self, allow_inf=True))


class BitStrings:
    """Length-k bitstrings under (OR, AND), packed as a (rows, cols, k) bool array.

    Bit i of entry (r, c) is ``data[r, c, i]``: the bit positions are a
    trailing entry axis, as the coefficients are for group ring entries.
    ``from_obj`` reads an entry as 0/1 text or an integer mask in [0, 2^k);
    bit i is character i of the text, ``(mask >> i) & 1`` of the mask.
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

    def _text(self, e) -> str:
        """One entry as k characters of 0/1 text: text as given, or bit i of an integer mask as character i."""
        if _is_integer(e):
            if not 0 <= int(e) < 1 << self.length:
                raise ParameterError("bit mask out of range for declared length")
            return format(int(e), f"0{self.length}b")[::-1]
        if not isinstance(e, str):
            raise ParameterError(f"bit entries are 0/1 text or integer masks, got {e!r}")
        if set(e) - {"0", "1"}:
            raise ParameterError(f"bitstring must be 0/1 text, got {e!r}")
        if len(e) != self.length:
            raise ParameterError("bitstring length differs from ring length")
        return e

    def random(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        return rng.integers(0, 2, size=(rows, cols, self.length), dtype=np.int64).astype(np.bool_)

    def to_obj(self, data) -> list:
        return [["".join(entry) for entry in row] for row in np.where(data, "1", "0").tolist()]

    def from_obj(self, obj) -> np.ndarray:
        entries = _nested_rows(obj, self)
        text = "".join(map(self._text, entries.reshape(-1).tolist())).encode()
        return (np.frombuffer(text, dtype=np.uint8) == ord("1")).reshape(entries.shape + self.entry_shape)
