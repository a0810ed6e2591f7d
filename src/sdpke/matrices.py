"""Matrices over any of the four entry semirings.

A Matrix wraps a ring descriptor and a read-only numpy array already in the
ring's packed, canonical form (see ``semirings``); the constructor checks
only its dtype and shape.  Build matrices with ``from_rows``, ``from_obj`` or
``random_matrix``; a raw ``Matrix(ring, data)`` needs canonical ``data`` of
dtype ``ring.dtype`` and makes that array read-only.  All operations return
new values; ``A @ B`` is the semiring matrix product (sum-product with the
ring's own plus and times), ``A + B`` the entrywise semiring addition, and
``A.star(B)`` the adjoint product A + B + A@B.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import ParameterError, SingularMatrixError
from .permutations import Permutation
from .semirings import BitStrings, IntegersMod


class Matrix:
    __slots__ = ("ring", "data")

    def __init__(self, ring, data: np.ndarray):
        if getattr(data, "dtype", None) != ring.dtype or data.ndim < 2 or data.shape[2:] != ring.entry_shape:
            raise ParameterError(
                f"expected dtype {np.dtype(ring.dtype)} and shape (rows, cols) + {ring.entry_shape} "
                f"for {ring!r}, got {getattr(data, 'dtype', type(data).__name__)} {np.shape(data)}"
            )
        data.setflags(write=False)
        self.ring = ring
        self.data = data

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[:2]

    def _check_ring(self, other: Matrix):
        if not isinstance(other, Matrix) or other.ring != self.ring:
            raise ParameterError("matrices live over different scalar rings")

    def __add__(self, other: Matrix) -> Matrix:
        self._check_ring(other)
        if self.shape != other.shape:
            raise ParameterError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix(self.ring, self.ring.add(self.data, other.data))

    def __sub__(self, other: Matrix) -> Matrix:
        self._check_ring(other)
        if not self.ring.linear:
            raise ParameterError(f"{self.ring!r} has no additive inverses")
        if self.shape != other.shape:
            raise ParameterError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix(self.ring, self.ring.sub(self.data, other.data))

    def __matmul__(self, other: Matrix) -> Matrix:
        self._check_ring(other)
        if self.cols != other.rows:
            raise ParameterError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return Matrix(self.ring, self.ring.matmul(self.data, other.data))

    def star(self, other: Matrix) -> Matrix:
        """Adjoint product A + B + A@B (square matrices of equal size)."""
        if self.rows != self.cols or self.shape != other.shape:
            raise ParameterError("star requires equal square shapes")
        return self + other + (self @ other)

    def scale(self, c) -> Matrix:
        """Left action of a Z_m scalar; defined for Z_m-linear entries only."""
        if not self.ring.linear:
            raise ParameterError(f"no scalar action on {self.ring!r}")
        c = (c.value if hasattr(c, "value") else int(c)) % self.ring.modulus
        return Matrix(self.ring, self.ring.scale(c, self.data))

    def __getitem__(self, idx):
        i, j = idx
        return self.ring.entry(self.data, i, j)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and self.data.shape == other.data.shape
            and bool(np.all(self.data == other.data))
        )

    def __repr__(self) -> str:
        return f"Matrix({self.ring!r}, {self.data.tolist()!r})"

    def to_obj(self):
        return self.ring.to_obj(self.data)


def from_rows(ring, rows) -> Matrix:
    """Build a matrix from nested scalar values (ring-specific formats ok)."""
    return Matrix(ring, ring.pack(rows))


def from_obj(ring, obj) -> Matrix:
    return Matrix(ring, ring.from_obj(obj))


def zeros(ring, rows: int, cols: int) -> Matrix:
    return Matrix(ring, ring.zeros(rows, cols))


def identity(ring, n: int) -> Matrix:
    return Matrix(ring, ring.identity(n))


def random_matrix(rng: np.random.Generator, ring, rows: int, cols: int, **kw) -> Matrix:
    return Matrix(ring, ring.random(rng, rows, cols, **kw))


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix over Z_p, p prime.

    Raises SingularMatrixError when no inverse exists and ParameterError for
    composite moduli (Gaussian elimination needs a field).
    """
    if not isinstance(m.ring, IntegersMod):
        raise ParameterError("matrix inverse is defined over Z_p entries only")
    if m.rows != m.cols:
        raise ParameterError("only square matrices can be inverted")
    if not linalg.is_prime(m.ring.modulus):
        raise ParameterError(f"modulus {m.ring.modulus} is not prime")
    return Matrix(m.ring, linalg.inverse_mod(m.data, m.ring.modulus))


def try_inverse(m: Matrix) -> Matrix | None:
    try:
        return inverse(m)
    except SingularMatrixError:
        return None


def flatten(m: Matrix) -> np.ndarray:
    """Coordinates of a matrix in the ambient Z_m vector space.

    Row-major entry order; group ring entries contribute |G| coordinates
    each.  The map is linear and injective, which is what lets linear
    algebra over Z_m see the whole matrix algebra.
    """
    if not m.ring.linear:
        raise ParameterError(f"{m.ring!r} entries carry no Z_m-linear structure")
    return m.data.reshape(-1)


def unflatten(ring, v: np.ndarray, rows: int, cols: int) -> Matrix:
    """Inverse of flatten for a rows x cols matrix over ``ring``; parses ``v`` as from_obj does."""
    shape = (rows, cols, *ring.entry_shape)
    if np.size(v) != math.prod(shape):
        raise ParameterError(
            f"a {rows}x{cols} matrix over {ring!r} has {math.prod(shape)} coordinates, got {np.size(v)}"
        )
    return from_obj(ring, np.reshape(v, shape))


def permute_bits(m: Matrix, perm: Permutation) -> Matrix:
    """Apply one bit permutation to every bitstring entry.

    Bitwise OR/AND act per position, so reindexing positions the same way in
    every entry is an automorphism of the matrix semiring.
    """
    if not isinstance(m.ring, BitStrings):
        raise ParameterError("bit permutation applies to bitstring matrices only")
    return Matrix(m.ring, m.ring.permute_bits(m.data, perm))

