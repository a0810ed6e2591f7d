"""Exact linear algebra over Z_p (p prime) on integer numpy arrays.

``rref_mod`` eliminates in int64 whenever a product of two residues fits
int64, (p-1)^2 < 2^63 (p <= 3037000500, the rule by which ``IntegersMod``
stores int64), whatever the input dtype, and on Python ints above.  It delays
reduction mod p (the technique of FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM
TOMS 2008).  Each row operation subtracts a product of two reduced values, at
most (p-1)^2, so an entry n operations past its last reduction lies in
[-n(p-1)^2, p).  Scaling the pivot row by an inverse below p keeps such an
entry below 2^63 in absolute value while
n <= floor((floor(2^63/p) - p) / (p-1)^2), so the array is reduced only when n
would pass that budget: 3.7e16 at p = 7, 9.0e9 at p = 1009, 1 at
p = 2^21 - 9, and 0 (a reduction before every operation, each product then
at most (p-1)^2) from 2^21 + 1 on.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError, SingularMatrixError
from .semirings import residue_products_fit_int64

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
#: psi_12, the least strong pseudoprime to all twelve witnesses
_MR_PROVEN_BOUND = 318665857834031151167461


@functools.lru_cache(maxsize=256)  # every inverse asks again about the same few moduli
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the primes 2..37 as witnesses.

    Exact for n < psi_12 = 318665857834031151167461 (about 3.2e23, past every
    64-bit integer); raises ParameterError above, where no proof covers it.
    """
    if n >= _MR_PROVEN_BOUND:
        raise ParameterError(f"primality of {n} is not decided: moduli must be below {_MR_PROVEN_BOUND}")
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` over Z_p; returns (R, pivot columns), R of a's dtype.

    One Gauss-Jordan pass that reduces mod p only when the bound in the module
    docstring requires it; ``a`` itself is left unchanged.
    """
    a = np.asarray(a)
    # eliminate on a reduced copy of the transpose, so column c of R is the
    # contiguous row w[c] and a row operation is one rank-1 update of w[c+1:]
    w = (a.T % p).astype(np.int64 if residue_products_fit_int64(p) else object, order="C")
    budget = ((1 << 63) // p - p) // max(1, (p - 1) ** 2)
    cols, rows = w.shape
    pivots: list[int] = []
    lead = pending = 0
    for c in range(cols):
        if lead == rows:
            break
        # columns left of c are final and reduced: the earlier non-pivot ones are
        # zero from row lead down, so no later row operation touches them
        col = w[c]
        col %= p
        nz = col[lead:].nonzero()[0]
        if nz.size == 0:
            continue
        if pending > budget:
            w[c + 1 :] %= p
            pending = 0
        pivot = lead + int(nz[0])
        if pivot != lead:
            w[c:, [lead, pivot]] = w[c:, [pivot, lead]]
        row = w[c + 1 :, lead] * pow(int(col[lead]), -1, p) % p
        col[lead] = 0
        w[c + 1 :] -= row[:, None] * col
        w[c + 1 :, lead] = row
        col[:] = 0
        col[lead] = 1
        pivots.append(c)
        lead += 1
        pending += 1
    w %= p
    return w.T.astype(a.dtype, copy=False), pivots


def rank_mod(a: np.ndarray, p: int) -> int:
    return len(rref_mod(a, p)[1])


def solve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a @ x = b over Z_p, or None if inconsistent.

    Free variables are set to zero, so the particular solution is the one
    with support on the pivot columns.
    """
    a = np.asarray(a)
    b = np.asarray(b).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise ParameterError("solve_mod: incompatible shapes")
    aug = np.concatenate([a, b[:, None]], axis=1)
    r, pivots = rref_mod(aug, p)
    ncols = a.shape[1]
    if pivots and pivots[-1] == ncols:
        return None
    x = np.zeros(ncols, dtype=a.dtype)
    for row, c in enumerate(pivots):
        x[c] = r[row, ncols]
    return x


def inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix over Z_p; raises SingularMatrixError.

    [a | I] has rank n, so it always has n pivots; a is invertible exactly
    when they are the first n columns.
    """
    n = a.shape[0]
    if a.shape != (n, n):
        raise ParameterError("only square matrices can be inverted")
    aug = np.concatenate([a, np.eye(n, dtype=a.dtype)], axis=1)  # rref_mod reduces it mod p
    r, pivots = rref_mod(aug, p)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular mod %d" % p)
    return r[:, n:]


class EchelonSpan:
    """Incrementally tracked row space over Z_p.

    Rows are kept in fully reduced echelon form (unit pivots, pivot columns
    zero everywhere else), so reducing a vector against the whole span is a
    single matrix-vector product.  Grows a maximal linearly independent
    prefix of a vector sequence one vector at a time: the tests' reference
    for the dimension attack, which finds that prefix in one ``rref_mod``.
    """

    def __init__(self, p: int):
        self.p = p
        self._pivots: list[int] = []
        self._rows: np.ndarray | None = None  # (rank, dim), reduced
        self._dtype = None  # chosen at first insert: int64 unless sums could overflow

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        if self._dtype is None:
            # the one-pass reduction sums up to dim products of size (p-1)^2
            headroom = (self.p - 1) ** 2 * max(1, len(v))
            self._dtype = object if headroom >= (1 << 63) else np.int64
        v = np.asarray(v, dtype=self._dtype) % self.p
        if self._rows is not None:
            coeffs = v[self._pivots]
            v = (v - coeffs @ self._rows) % self.p
        return v

    def contains(self, v: np.ndarray) -> bool:
        return not np.any(self._reduce(v))

    def add(self, v: np.ndarray) -> bool:
        """Insert ``v``; returns True if it was independent of the span."""
        res = self._reduce(v)
        nz = np.nonzero(res)[0]
        if nz.size == 0:
            return False
        pc = int(nz[0])
        row = (res * pow(int(res[pc]), -1, self.p)) % self.p
        if self._rows is None:
            self._rows = row[None, :]
        else:
            # keep existing rows reduced at the new pivot column
            col = self._rows[:, pc].copy()
            if np.any(col):
                self._rows = (self._rows - np.outer(col, row)) % self.p
            self._rows = np.concatenate([self._rows, row[None, :]], axis=0)
        self._pivots.append(pc)
        return True
