"""Finite groups given by explicit Cayley tables.

A group of order n is a table ``product[i, j]`` of element indices plus an
identity index, an inverse table, and the regular indices
``left_regular[c, g] = c * g^-1`` and ``right_regular[c, g] = g^-1 * c``,
through which group ring products are computed: the left one gathers the
matrix of x -> a * x, the right one that of x -> x * b (see
``semirings.GroupRingScalars.matmul``).  Tables are
validated on construction (full associativity sweep; fine at desk scale).
The small groups the matrix-over-group-ring platform names (c2, s3, a4, a5)
are built from their definitions, once per process.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import ParameterError, _is_integer, refuse_unknown_keys

BUNDLED_GROUPS = ("c2", "s3", "a4", "a5")
#: largest accepted group order; validation builds n^3 products (2 x 14 MB at 120)
MAX_GROUP_ORDER = 120


class FiniteGroupTable:
    """A finite group presented by its Cayley table on indices 0..order-1."""

    __slots__ = ("name", "order", "product", "identity", "inverse", "left_regular", "right_regular")

    def __init__(self, product, name: str = "group"):
        product = np.asarray(product, dtype=np.int64)
        if product.ndim != 2 or product.shape[0] != product.shape[1]:
            raise ParameterError("product table must be square")
        if product.shape[0] > MAX_GROUP_ORDER:
            raise ParameterError(f"group order must be at most {MAX_GROUP_ORDER}, got {product.shape[0]}")
        self.name = name
        self.order = product.shape[0]
        product.setflags(write=False)
        self.product = product
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()
        # coefficient a[c * g^-1] multiplies x_g in (a * x)_c, so a[left_regular] is
        # the matrix of x -> a * x on coefficient vectors
        self.left_regular = product[:, self.inverse]
        self.left_regular.setflags(write=False)
        # and b[g^-1 * c] multiplies x_g in (x * b)_c, so b[right_regular] is the matrix of x -> x * b
        self.right_regular = np.ascontiguousarray(product[self.inverse].T)
        self.right_regular.setflags(write=False)
        self.validate()

    def _find_identity(self) -> int:
        n = self.order
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(self.product[e], idx) and np.array_equal(self.product[:, e], idx):
                return e
        raise ParameterError("table has no identity element")

    def _build_inverses(self) -> np.ndarray:
        inv = np.full(self.order, -1, dtype=np.int64)
        rows, cols = np.nonzero(self.product == self.identity)
        inv[rows] = cols
        if np.any(inv < 0):
            raise ParameterError("some element has no inverse")
        inv.setflags(write=False)
        return inv

    def validate(self) -> None:
        """Check closure and associativity.

        The inverses need no check: ``_build_inverses`` takes each one from a
        position where the product is the identity, and refuses a row with none.
        """
        p = self.product
        if p.min() < 0 or p.max() >= self.order:
            raise ParameterError("product table entries out of range")
        # (i*j)*k == i*(j*k), checked over all n^3 triples at once
        left = p[p, :]            # left[i, j, k] = (i*j)*k
        right = p[:, p]           # right[i, j, k] = i*(j*k)
        if not np.array_equal(left, right):
            raise ParameterError("product table is not associative")

    def mul(self, i: int, j: int) -> int:
        return int(self.product[i, j])

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteGroupTable) and np.array_equal(self.product, other.product)
        )

    def __repr__(self) -> str:
        return f"FiniteGroupTable({self.name!r}, order={self.order})"

    def to_obj(self) -> dict:
        return {
            "order": self.order,
            "product": self.product.tolist(),
            "identity": self.identity,
            "inverse": self.inverse.tolist(),
        }

    @staticmethod
    def from_obj(obj: dict, name: str = "group") -> FiniteGroupTable:
        keys = ("order", "product", "identity", "inverse")
        for field in keys:
            if field not in obj:
                raise ParameterError(f"group table record missing field {field!r}")
        refuse_unknown_keys(obj, keys, "group table")
        for field in keys:
            # a float, bool or text entry is refused, never truncated or read as digits
            for x in np.array(obj[field], dtype=object).reshape(-1):
                if not _is_integer(x):
                    raise ParameterError(f"group table {field} holds {x!r}, not an integer")
        table = FiniteGroupTable(obj["product"], name=name)
        if table.order != obj["order"]:
            raise ParameterError("declared order does not match product table")
        if table.identity != obj["identity"]:
            raise ParameterError("declared identity does not match product table")
        if not np.array_equal(table.inverse, np.asarray(obj["inverse"], dtype=np.int64)):
            raise ParameterError("declared inverse table does not match product table")
        return table


def _perm_group_table(perms: list[tuple[int, ...]], name: str) -> FiniteGroupTable:
    """Cayley table of a set of permutations closed under composition.

    The group product is ``(g*h)(x) = g(h(x))``; element order follows the
    given list.  Its callers pass all of S_n or all of A_n, both closed; a set
    that is not would raise KeyError on the ``index`` lookup.
    """
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=np.int64)
    for i, g in enumerate(perms):
        for j, h in enumerate(perms):
            table[i, j] = index[tuple(g[h[x]] for x in range(len(g)))]
    return FiniteGroupTable(table, name=name)


def cyclic_group(n: int) -> FiniteGroupTable:
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroupTable(table, name=f"c{n}")


def symmetric_group(n: int) -> FiniteGroupTable:
    perms = list(itertools.permutations(range(n)))
    return _perm_group_table(perms, name=f"s{n}")


def _is_even(perm: tuple[int, ...]) -> bool:
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(perm)), 2) if perm[a] > perm[b]
    )
    return inversions % 2 == 0


def alternating_group(n: int) -> FiniteGroupTable:
    perms = [p for p in itertools.permutations(range(n)) if _is_even(p)]
    return _perm_group_table(perms, name=f"a{n}")


@functools.cache
def load_group(name: str) -> FiniteGroupTable:
    """One of the bundled groups by name (c2, s3, a4, a5), built once per process.

    Each name is the one its builder gives the group, so ``"s3"`` is ``symmetric_group(3)``.
    """
    if name not in BUNDLED_GROUPS:
        raise ParameterError(f"unknown bundled group {name!r}; have {BUNDLED_GROUPS}")
    builder = {"c": cyclic_group, "s": symmetric_group, "a": alternating_group}[name[0]]
    return builder(int(name[1:]))
