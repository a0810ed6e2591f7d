"""Constructors, parameter records, and validators for the five platforms.

Each platform kind has a frozen params dataclass (JSON-serializable, the
thing a transcript embeds) and a ``build()`` that validates the parameters
and returns a ready Platform.  ``build()`` runs no sampled law check: for
every input it accepts, the operation is associative and phi respects it by
theorem; the test suite samples both laws with ``validate_platform``.
``random_*_params`` generators draw fresh parameters from an rng at the
desk-scale default sizes.

Defaults here are implementer-chosen working sizes, not security
parameters: group ring Z_7[S_3] with 3x3 matrices, GL(3, 1009), 5x5
tropical with entries in [-1000, 1000], 3x3 additive platform over Z_p, and
3x3 matrices of 28-bit strings permuted by disjoint cycles of lengths 2, 3,
5, 7, 11.
"""

from __future__ import annotations

import inspect
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .errors import ParameterError, SingularMatrixError
from .groups import BUNDLED_GROUPS, FiniteGroupTable, load_group
from .holomorph import (
    ConjugatorPower,
    IdentityEnd,
    Platform,
    PermutationPower,
    TropicalStarPower,
    TwoSidedPower,
)
from .linalg import inverse_mod, is_prime, rank_mod
from .matrices import Matrix
from .permutations import Permutation
from .semirings import BitStrings, GroupRingScalars, IntegersMod, TropicalIntegers, _is_integer


# ---------------------------------------------------------------------------
# matrices over group rings, automorphism = conjugation


def groupring_inverse(h: Matrix) -> Matrix:
    """Two-sided inverse of a square matrix over Z_p[G], p prime.

    The left-regular representation is an injective algebra map, so H is
    invertible exactly when its regular matrix R is, and then R^-1 is the
    regular matrix of H^-1: entry (i, k) of H^-1 is the identity column of
    block (i, k) of R^-1.  The two-sided check runs before returning.
    """
    ring = h.ring
    if not isinstance(ring, GroupRingScalars) or h.rows != h.cols:
        raise ParameterError("group ring inverse needs a square group ring matrix")
    if not is_prime(ring.modulus):
        raise ParameterError("group ring inverse needs a prime modulus")
    r, n = h.rows, ring.group.order
    blocks = inverse_mod(ring.regular(h.data), ring.modulus).reshape(r, n, r, n)
    inv = Matrix(ring, np.ascontiguousarray(blocks[:, :, :, ring.group.identity].transpose(0, 2, 1)))
    ident = mx.identity(ring, r)
    if h @ inv != ident or inv @ h != ident:
        raise SingularMatrixError("inverse verification failed")
    return inv


@dataclass(frozen=True)
class GroupRingParams:
    kind = "groupring"
    modulus: int
    group: FiniteGroupTable
    size: int
    conjugator: Matrix
    base: Matrix

    def ring(self) -> GroupRingScalars:
        return GroupRingScalars(self.group, self.modulus)

    def build(self, allow_commuting: bool = False) -> Platform:
        if not is_prime(self.modulus):
            raise ParameterError("group ring platform needs a prime coefficient modulus")
        h, g = self.conjugator, self.base
        if h.shape != (self.size, self.size) or g.shape != (self.size, self.size):
            raise ParameterError("conjugator/base shape does not match declared size")
        try:
            h_inv = groupring_inverse(h)
        except SingularMatrixError as exc:
            raise ParameterError(f"conjugator is singular: {exc}") from exc
        if not allow_commuting and h @ g == g @ h:
            raise ParameterError("base commutes with the conjugator; degenerate instance")
        ring = self.ring()
        return Platform(
            name="groupring",
            op_kind="mul",
            g=g,
            phi=ConjugatorPower(h, h_inv),
            params=self,
            sampler=lambda rng: mx.random_matrix(rng, ring, self.size, self.size),
        )

    def to_obj(self) -> dict:
        group = self.group.name if self.group.name in BUNDLED_GROUPS else self.group.to_obj()
        return {
            "kind": self.kind,
            "modulus": self.modulus,
            "group": group,
            "size": self.size,
            "H": self.conjugator.to_obj(),
            "g": self.base.to_obj(),
        }

    @staticmethod
    def from_obj(obj: dict) -> GroupRingParams:
        group = obj["group"]
        table = load_group(group) if isinstance(group, str) else FiniteGroupTable.from_obj(group)
        ring = GroupRingScalars(table, obj["modulus"])
        return GroupRingParams(
            modulus=obj["modulus"],
            group=table,
            size=obj["size"],
            conjugator=mx.from_obj(ring, obj["H"]),
            base=mx.from_obj(ring, obj["g"]),
        )


def random_groupring_params(
    rng: np.random.Generator,
    modulus: int = 7,
    group: FiniteGroupTable | str = "s3",
    size: int = 3,
) -> GroupRingParams:
    table = load_group(group) if isinstance(group, str) else group
    if size == 1 and np.array_equal(table.product, table.product.T):
        raise ParameterError(f"{table.name} is abelian, so 1x1 matrices over its group ring all commute")
    ring = GroupRingScalars(table, modulus)
    while True:
        h = mx.random_matrix(rng, ring, size, size)
        try:
            groupring_inverse(h)
        except SingularMatrixError:
            continue
        break
    while True:
        g = mx.random_matrix(rng, ring, size, size)
        if h @ g != g @ h:
            break
    return GroupRingParams(modulus=modulus, group=table, size=size, conjugator=h, base=g)


# ---------------------------------------------------------------------------
# GL(r, p), automorphism = conjugation (the invertible variant used by the
# public-key encryption scheme)


@dataclass(frozen=True)
class GLParams:
    kind = "gl"
    prime: int
    size: int
    conjugator: Matrix
    base: Matrix

    def ring(self) -> IntegersMod:
        return IntegersMod(self.prime)

    def build(self, allow_commuting: bool = False) -> Platform:
        if not is_prime(self.prime):
            raise ParameterError("GL platform needs a prime field")
        h, g = self.conjugator, self.base
        if h.shape != (self.size, self.size) or g.shape != (self.size, self.size):
            raise ParameterError("conjugator/base shape does not match declared size")
        try:
            h_inv = mx.inverse(h)
        except SingularMatrixError as exc:
            raise ParameterError("conjugator is singular") from exc
        if mx.try_inverse(g) is None:
            raise ParameterError("base element must be invertible")
        if not allow_commuting and h @ g == g @ h:
            raise ParameterError("base commutes with the conjugator; degenerate instance")
        ring = self.ring()
        return Platform(
            name="gl",
            op_kind="mul",
            g=g,
            phi=ConjugatorPower(h, h_inv),
            params=self,
            sampler=lambda rng: mx.random_matrix(rng, ring, self.size, self.size),
        )

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "prime": self.prime,
            "size": self.size,
            "H": self.conjugator.to_obj(),
            "g": self.base.to_obj(),
        }

    @staticmethod
    def from_obj(obj: dict) -> GLParams:
        ring = IntegersMod(obj["prime"])
        return GLParams(
            prime=obj["prime"],
            size=obj["size"],
            conjugator=mx.from_obj(ring, obj["H"]),
            base=mx.from_obj(ring, obj["g"]),
        )


def random_gl_params(rng: np.random.Generator, prime: int = 1009, size: int = 3) -> GLParams:
    if size < 2:
        raise ParameterError("gl size must be >= 2: GL(1, p) is commutative")
    ring = IntegersMod(prime)

    def invertible() -> Matrix:
        while True:
            m = mx.random_matrix(rng, ring, size, size)
            if mx.try_inverse(m) is not None:
                return m

    h = invertible()
    while True:
        g = invertible()
        if h @ g != g @ h:
            break
    return GLParams(prime=prime, size=size, conjugator=h, base=g)


# ---------------------------------------------------------------------------
# tropical matrices under entrywise min, action through the star product


@dataclass(frozen=True)
class TropicalParams:
    kind = "tropical"
    size: int
    entry_lo: int
    entry_hi: int
    star_matrix: Matrix
    base: Matrix

    def ring(self) -> TropicalIntegers:
        return TropicalIntegers()

    def build(self) -> Platform:
        h, g = self.star_matrix, self.base
        if h.shape != (self.size, self.size) or g.shape != (self.size, self.size):
            raise ParameterError("matrix shape does not match declared size")
        ring = self.ring()
        return Platform(
            name="tropical",
            op_kind="add",
            g=g,
            phi=TropicalStarPower(h),
            params=self,
            sampler=lambda rng: mx.random_matrix(
                rng, ring, self.size, self.size, lo=self.entry_lo, hi=self.entry_hi
            ),
        )

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "entry_lo": self.entry_lo,
            "entry_hi": self.entry_hi,
            "H": self.star_matrix.to_obj(),
            "g": self.base.to_obj(),
        }

    @staticmethod
    def from_obj(obj: dict) -> TropicalParams:
        ring = TropicalIntegers()
        return TropicalParams(
            size=obj["size"],
            entry_lo=obj["entry_lo"],
            entry_hi=obj["entry_hi"],
            star_matrix=mx.from_obj(ring, obj["H"]),
            base=mx.from_obj(ring, obj["g"]),
        )


def random_tropical_params(
    rng: np.random.Generator, size: int = 5, entry_lo: int = -1000, entry_hi: int = 1000
) -> TropicalParams:
    ring = TropicalIntegers()
    h = mx.random_matrix(rng, ring, size, size, lo=entry_lo, hi=entry_hi)
    g = mx.random_matrix(rng, ring, size, size, lo=entry_lo, hi=entry_hi)
    return TropicalParams(size=size, entry_lo=entry_lo, entry_hi=entry_hi, star_matrix=h, base=g)


# ---------------------------------------------------------------------------
# additive matrix platform: op = +, phi(X) = H1 X H2 with singular factors


@dataclass(frozen=True)
class MakeParams:
    kind = "make"
    prime: int
    size: int
    left_factor: Matrix
    right_factor: Matrix
    base: Matrix

    def ring(self) -> IntegersMod:
        return IntegersMod(self.prime)

    def build(self) -> Platform:
        if not is_prime(self.prime):
            raise ParameterError("additive platform needs a prime field")
        h1, h2, g = self.left_factor, self.right_factor, self.base
        for m in (h1, h2, g):
            if m.shape != (self.size, self.size):
                raise ParameterError("matrix shape does not match declared size")
        for label, m in (("left", h1), ("right", h2)):
            if rank_mod(np.asarray(m.data), self.prime) == self.size:
                raise ParameterError(f"{label} factor must be non-invertible")
        ring = self.ring()
        return Platform(
            name="make",
            op_kind="add",
            g=g,
            phi=TwoSidedPower(h1, h2),
            params=self,
            sampler=lambda rng: mx.random_matrix(rng, ring, self.size, self.size),
        )

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "prime": self.prime,
            "size": self.size,
            "H1": self.left_factor.to_obj(),
            "H2": self.right_factor.to_obj(),
            "g": self.base.to_obj(),
        }

    @staticmethod
    def from_obj(obj: dict) -> MakeParams:
        ring = IntegersMod(obj["prime"])
        return MakeParams(
            prime=obj["prime"],
            size=obj["size"],
            left_factor=mx.from_obj(ring, obj["H1"]),
            right_factor=mx.from_obj(ring, obj["H2"]),
            base=mx.from_obj(ring, obj["g"]),
        )


def _random_singular(rng: np.random.Generator, ring: IntegersMod, n: int) -> Matrix:
    # a rank-deficient product has a zero eigenvalue by construction
    while True:
        u = mx.random_matrix(rng, ring, n, max(n - 1, 1))
        v = mx.random_matrix(rng, ring, max(n - 1, 1), n)
        m = u @ v if n > 1 else mx.from_rows(ring, [[0]])
        if rank_mod(np.asarray(m.data), ring.modulus) < n:
            return m


def random_make_params(
    rng: np.random.Generator, prime: int = 2**31 - 1, size: int = 3
) -> MakeParams:
    ring = IntegersMod(prime)
    h1 = _random_singular(rng, ring, size)
    h2 = _random_singular(rng, ring, size)
    g = mx.random_matrix(rng, ring, size, size)
    return MakeParams(prime=prime, size=size, left_factor=h1, right_factor=h2, base=g)


# ---------------------------------------------------------------------------
# matrices of bitstrings under OR/AND, automorphism = bit permutation


@dataclass(frozen=True)
class MobsParams:
    kind = "mobs"
    size: int
    bits: int
    bit_permutation: Permutation
    base: Matrix

    def ring(self) -> BitStrings:
        return BitStrings(self.bits)

    def build(self) -> Platform:
        if len(self.bit_permutation) != self.bits:
            raise ParameterError("permutation length differs from bit length")
        if self.base.shape != (self.size, self.size):
            raise ParameterError("base shape does not match declared size")
        # fixed points are allowed (the identity permutation is the
        # degenerate DH case); every nontrivial cycle must have prime length
        for cyc in self.bit_permutation.cycles():
            if len(cyc) > 1 and not is_prime(len(cyc)):
                raise ParameterError(f"cycle length {len(cyc)} is not prime")
        ring = self.ring()
        return Platform(
            name="mobs",
            op_kind="mul",
            g=self.base,
            phi=PermutationPower(self.bit_permutation),
            params=self,
            sampler=lambda rng: mx.random_matrix(rng, ring, self.size, self.size),
        )

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "bits": self.bits,
            "permutation": list(self.bit_permutation),
            "g": self.base.to_obj(),
        }

    @staticmethod
    def from_obj(obj: dict) -> MobsParams:
        ring = BitStrings(obj["bits"])
        return MobsParams(
            size=obj["size"],
            bits=obj["bits"],
            bit_permutation=Permutation(obj["permutation"]),
            base=mx.from_obj(ring, obj["g"]),
        )


def cycle_permutation(cycle_lengths: Sequence[int]) -> Permutation:
    """Disjoint consecutive cycles of the given lengths; order = lcm."""
    k = sum(cycle_lengths)
    cycles, start = [], 0
    for l in cycle_lengths:
        cycles.append(tuple(range(start, start + l)))
        start += l
    return Permutation.from_cycles(cycles, k)


def random_mobs_params(
    rng: np.random.Generator, size: int = 3, cycle_lengths: Sequence[int] = (2, 3, 5, 7, 11)
) -> MobsParams:
    bits = sum(cycle_lengths)
    ring = BitStrings(bits)
    g = mx.random_matrix(rng, ring, size, size)
    return MobsParams(size=size, bits=bits, bit_permutation=cycle_permutation(cycle_lengths), base=g)


# ---------------------------------------------------------------------------
# plain DH as the identity-automorphism special case (sanity oracle)


@dataclass(frozen=True)
class DhkeParams:
    kind = "dhke"
    size = 1  # values are 1x1 matrices over Z_p
    prime: int
    generator: int

    def ring(self) -> IntegersMod:
        return IntegersMod(self.prime)

    def build(self) -> Platform:
        if not is_prime(self.prime):
            raise ParameterError("DH platform needs a prime modulus")
        if self.generator % self.prime == 0:
            raise ParameterError("generator must be nonzero mod p")
        ring = self.ring()
        g = mx.from_rows(ring, [[self.generator]])

        def sample(rng: np.random.Generator) -> Matrix:
            return mx.from_rows(ring, [[int(rng.integers(1, self.prime))]])

        return Platform(name="dhke", op_kind="mul", g=g, phi=IdentityEnd(), params=self, sampler=sample)

    def to_obj(self) -> dict:
        return {"kind": self.kind, "prime": self.prime, "generator": self.generator}

    @staticmethod
    def from_obj(obj: dict) -> DhkeParams:
        return DhkeParams(prime=obj["prime"], generator=obj["generator"])


def random_dhke_params(rng: np.random.Generator, prime: int = 2**31 - 1) -> DhkeParams:
    return DhkeParams(prime=prime, generator=int(rng.integers(2, prime)))


# ---------------------------------------------------------------------------
# dispatch


_PARAM_TYPES = {
    "groupring": GroupRingParams,
    "gl": GLParams,
    "tropical": TropicalParams,
    "make": MakeParams,
    "mobs": MobsParams,
    "dhke": DhkeParams,
}

PLATFORM_KINDS = tuple(_PARAM_TYPES)

_GENERATORS = {
    "groupring": random_groupring_params,
    "gl": random_gl_params,
    "tropical": random_tropical_params,
    "make": random_make_params,
    "mobs": random_mobs_params,
    "dhke": random_dhke_params,
}


_INTEGER_FIELDS = ("size", "prime", "modulus", "bits", "entry_lo", "entry_hi", "generator")


def _check_integers(fields: dict) -> None:
    """Refuse an integer field from outside that holds another type, or a size below 1."""
    for name in _INTEGER_FIELDS:
        if name in fields and not _is_integer(fields[name]):
            raise ParameterError(f"{name} must be an integer, got {fields[name]!r}")
    if fields.get("size", 1) < 1:
        raise ParameterError(f"size must be an integer >= 1, got {fields['size']!r}")


def params_from_obj(obj: dict):
    kind = obj.get("kind")
    if kind not in _PARAM_TYPES:
        raise ParameterError(f"unknown platform kind {kind!r}")
    _check_integers(obj)
    return _PARAM_TYPES[kind].from_obj(obj)


def random_params(kind: str, rng: np.random.Generator, **overrides):
    if kind not in _GENERATORS:
        raise ParameterError(f"unknown platform kind {kind!r}")
    generator = _GENERATORS[kind]
    accepted = list(inspect.signature(generator).parameters)[1:]  # all but rng
    unknown = sorted(set(overrides) - set(accepted))
    if unknown:
        raise ParameterError(f"unknown {kind} parameters {unknown}; accepted: {accepted}")
    _check_integers(overrides)
    return generator(rng, **overrides)
