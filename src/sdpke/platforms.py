"""Constructors, parameter records, and validators for the five platforms.

Each platform kind has a frozen params dataclass (the thing a transcript
embeds) and a ``build()`` that validates the parameters and returns a ready
Platform.  All kinds share one JSON form: ``kind``, then each field under
its name, except that the matrices are ``H`` (conjugator or star matrix),
``H1``/``H2`` (the two factors) and ``g`` (base), and the bit permutation is
``permutation``.  A matrix is its nested entries, a permutation its image
list, and a group its bundled name (c2, s3, a4, a5) or its full table.
Every matrix must be size x size.  GL(r, p) and the group ring share one
build: phi is conjugation by an invertible H.  ``build()`` runs no sampled
law check: for every input it accepts, the operation is associative and phi
respects it by theorem; the test suite samples both laws with
``validate_platform``.
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
from dataclasses import dataclass, fields, replace

import numpy as np

from . import matrices as mx
from .errors import ParameterError, _is_integer, refuse_unknown_keys
from .groups import BUNDLED_GROUPS, FiniteGroupTable, load_group
from .holomorph import (
    IdentityEnd,
    Platform,
    PermutationPower,
    TropicalStarPower,
    TwoSidedPower,
)
from .linalg import is_prime
from .matrices import Matrix
from .permutations import Permutation
from .semirings import BitStrings, GroupRingScalars, IntegersMod, TropicalIntegers, check_tropical_bounds

#: Upper caps on the sizes a params file or generator call may ask for, so a
#: few bytes of JSON cannot demand a huge allocation: the matrix size n of
#: every platform, and the bit length of an OR/AND entry.
MAX_SIZE = 32
MAX_BITS = 256
#: largest size * |G| of a group ring record: its n x n matrices act as (n|G|) x (n|G|)
#: Z_m matrices, and a size-8 A_5 record (480) already takes seconds to draw and build
MAX_GROUPRING_SIDE = 480


# ---------------------------------------------------------------------------
# the JSON codec and the size check every params record shares

#: the JSON key of each field not written under its own name
_JSON_KEYS = {"conjugator": "H", "star_matrix": "H", "left_factor": "H1", "right_factor": "H2", "base": "g",
              "bit_permutation": "permutation"}


def _encode(value):
    if isinstance(value, Matrix):
        return value.to_obj()
    if isinstance(value, Permutation):
        return list(value)
    if isinstance(value, FiniteGroupTable):
        # a bundled name stands for that group's own table, not for a relabelling of it
        bundled = value.name in BUNDLED_GROUPS and value == load_group(value.name)
        return value.name if bundled else value.to_obj()
    return value


def _decode_group(obj) -> FiniteGroupTable:
    return load_group(obj) if isinstance(obj, str) else FiniteGroupTable.from_obj(obj)


def _decode_permutation(obj) -> Permutation:
    if not (isinstance(obj, list) and all(_is_integer(i) for i in obj)):
        raise ParameterError(f"permutation must be a list of integers, got {obj!r}")
    return Permutation(obj)


#: decoders of the non-matrix fields that JSON does not hold as they are, by annotation
_DECODERS = {"FiniteGroupTable": _decode_group, "Permutation": _decode_permutation}


class _Params:
    """A params record: ``kind``, then each dataclass field under its JSON key."""

    def to_obj(self) -> dict:
        obj = {"kind": self.kind}
        for f in fields(self):
            obj[_JSON_KEYS.get(f.name, f.name)] = _encode(getattr(self, f.name))
        return obj

    @classmethod
    def from_obj(cls, obj: dict):
        """Decode the other fields, then the matrices in the record's ring, which
        ``ring()`` builds from those fields alone."""
        refuse_unknown_keys(obj, ["kind", *(_JSON_KEYS.get(f.name, f.name) for f in fields(cls))], cls.kind)
        values, matrices = {}, {}
        for f in fields(cls):
            value = obj[_JSON_KEYS.get(f.name, f.name)]
            if f.type == "Matrix":
                matrices[f.name] = value
            else:
                values[f.name] = _DECODERS[f.type](value) if f.type in _DECODERS else value
        record = cls(**values, **matrices)
        ring = record.ring()
        return replace(record, **{name: mx.from_obj(ring, value) for name, value in matrices.items()})

    def _check_sizes(self) -> None:
        """Refuse a matrix field that is not size x size."""
        n = self.size
        for f in fields(self):
            m = getattr(self, f.name)
            if isinstance(m, Matrix) and m.shape != (n, n):
                key = _JSON_KEYS.get(f.name, f.name)
                raise ParameterError(f"{f.name} ({key}) is {m.rows}x{m.cols}, size {n} needs {n}x{n}")


# ---------------------------------------------------------------------------
# matrices over group rings or over Z_p, automorphism = conjugation


def _conjugation_platform(params: GroupRingParams | GLParams) -> Platform:
    """phi(X) = H^-1 X H for an invertible ``conjugator`` H that does not commute with ``base``."""
    params._check_sizes()
    h, g = params.conjugator, params.base
    h_inv = mx.try_inverse(h)
    if h_inv is None:
        raise ParameterError("conjugator is singular")
    if h @ g == g @ h:
        raise ParameterError("base commutes with the conjugator; degenerate instance")
    return Platform(name=params.kind, op_kind="mul", g=g, phi=TwoSidedPower(h_inv, h), params=params)


def _is_central(h: Matrix) -> bool:
    """Whether h commutes with every matrix of its size: exactly when h = c·I for an entry c central
    in the ring, and c in Z_m[G] is central when x -> c*x and x -> x*c have one regular matrix."""
    ring, c = h.ring, h.data[0, 0]
    if not np.array_equal(h.data, np.multiply.outer(np.eye(h.rows, dtype=h.data.dtype), c)):
        return False
    if isinstance(ring, GroupRingScalars):
        return np.array_equal(c[ring.group.left_regular], c[ring.group.right_regular])
    return True


def _random_noncentral_unit(rng: np.random.Generator, ring, size: int) -> Matrix:
    """A random invertible matrix that is not central: no base can be drawn for a central H, and a
    central GL base commutes with H.  ``_is_central`` draws nothing, so other draws are unchanged."""
    while True:
        m = mx.random_matrix(rng, ring, size, size)
        if mx.try_inverse(m) is not None and not _is_central(m):
            return m


def _check_groupring_side(size: int, group: FiniteGroupTable) -> None:
    """Refuse a group ring record past ``MAX_GROUPRING_SIDE``, before any draw or inverse."""
    if size * group.order > MAX_GROUPRING_SIDE:
        raise ParameterError(f"size * |G| = {size} * {group.order} is past the group ring cap {MAX_GROUPRING_SIDE}")


@dataclass(frozen=True)
class GroupRingParams(_Params):
    kind = "groupring"
    modulus: int
    group: FiniteGroupTable
    size: int
    conjugator: Matrix
    base: Matrix

    def ring(self) -> GroupRingScalars:
        return GroupRingScalars(self.group, self.modulus)

    def build(self) -> Platform:
        _check_groupring_side(self.size, self.group)
        return _conjugation_platform(self)


def random_groupring_params(
    rng: np.random.Generator,
    modulus: int = 7,
    group: FiniteGroupTable | str = "s3",
    size: int = 3,
) -> GroupRingParams:
    table = load_group(group) if isinstance(group, str) else group
    _check_groupring_side(size, table)
    if size == 1 and np.array_equal(table.product, table.product.T):
        raise ParameterError(f"{table.name} is abelian, so 1x1 matrices over its group ring all commute")
    ring = GroupRingScalars(table, modulus)
    h = _random_noncentral_unit(rng, ring, size)
    while True:
        g = mx.random_matrix(rng, ring, size, size)
        if h @ g != g @ h:
            return GroupRingParams(modulus=modulus, group=table, size=size, conjugator=h, base=g)


# ---------------------------------------------------------------------------
# GL(r, p), the invertible variant used by the public-key encryption scheme


@dataclass(frozen=True)
class GLParams(_Params):
    kind = "gl"
    prime: int
    size: int
    conjugator: Matrix
    base: Matrix

    def ring(self) -> IntegersMod:
        return IntegersMod(self.prime)

    def build(self) -> Platform:
        platform = _conjugation_platform(self)
        if mx.try_inverse(self.base) is None:
            raise ParameterError("base element must be invertible")
        return platform


def random_gl_params(rng: np.random.Generator, prime: int = 1009, size: int = 3) -> GLParams:
    if size < 2:
        raise ParameterError("gl size must be >= 2: GL(1, p) is commutative")
    ring = IntegersMod(prime)
    h = _random_noncentral_unit(rng, ring, size)
    while True:
        g = _random_noncentral_unit(rng, ring, size)
        if h @ g != g @ h:
            return GLParams(prime=prime, size=size, conjugator=h, base=g)


# ---------------------------------------------------------------------------
# tropical matrices under entrywise min, action through the star product


@dataclass(frozen=True)
class TropicalParams(_Params):
    kind = "tropical"
    size: int
    entry_lo: int
    entry_hi: int
    star_matrix: Matrix
    base: Matrix

    def ring(self) -> TropicalIntegers:
        return TropicalIntegers()

    def build(self) -> Platform:
        self._check_sizes()
        check_tropical_bounds(self.entry_lo, self.entry_hi)  # the sampler draws from them
        ring = self.ring()
        return Platform(
            name="tropical",
            op_kind="add",
            g=self.base,
            phi=TropicalStarPower(self.star_matrix),
            params=self,
            sampler=lambda rng: mx.random_matrix(
                rng, ring, self.size, self.size, lo=self.entry_lo, hi=self.entry_hi
            ),
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
class MakeParams(_Params):
    kind = "make"
    prime: int
    size: int
    left_factor: Matrix
    right_factor: Matrix
    base: Matrix

    def ring(self) -> IntegersMod:
        return IntegersMod(self.prime)

    def build(self) -> Platform:
        self._check_sizes()
        h1, h2 = self.left_factor, self.right_factor
        for label, m in (("left", h1), ("right", h2)):
            if mx.try_inverse(m) is not None:  # raises on a composite modulus
                raise ParameterError(f"{label} factor must be non-invertible")
        return Platform(name="make", op_kind="add", g=self.base, phi=TwoSidedPower(h1, h2), params=self)


def _random_singular(rng: np.random.Generator, ring: IntegersMod, n: int) -> Matrix:
    # an n x (n-1) by (n-1) x n product has rank at most n - 1, so it is singular
    u = mx.random_matrix(rng, ring, n, max(n - 1, 1))
    v = mx.random_matrix(rng, ring, max(n - 1, 1), n)
    return u @ v if n > 1 else mx.from_rows(ring, [[0]])


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
class MobsParams(_Params):
    kind = "mobs"
    size: int
    bits: int
    bit_permutation: Permutation
    base: Matrix

    def ring(self) -> BitStrings:
        return BitStrings(self.bits)

    def build(self) -> Platform:
        self._check_sizes()
        if len(self.bit_permutation) != self.bits:
            raise ParameterError("permutation length differs from bit length")
        # fixed points are allowed (the identity permutation is the
        # degenerate DH case); every nontrivial cycle must have prime length
        for cyc in self.bit_permutation.cycles():
            if len(cyc) > 1 and not is_prime(len(cyc)):
                raise ParameterError(f"cycle length {len(cyc)} is not prime")
        phi = PermutationPower(self.bit_permutation)
        return Platform(name="mobs", op_kind="mul", g=self.base, phi=phi, params=self)


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
    if not all(_is_integer(l) and l >= 1 for l in cycle_lengths) or sum(cycle_lengths) > MAX_BITS:
        raise ParameterError(
            f"cycle lengths must be integers >= 1 summing to at most {MAX_BITS}, got {cycle_lengths!r}"
        )
    bits = sum(cycle_lengths)
    ring = BitStrings(bits)
    g = mx.random_matrix(rng, ring, size, size)
    return MobsParams(size=size, bits=bits, bit_permutation=cycle_permutation(cycle_lengths), base=g)


# ---------------------------------------------------------------------------
# plain DH as the identity-automorphism special case (sanity oracle)


@dataclass(frozen=True)
class DhkeParams(_Params):
    kind = "dhke"
    size = 1  # values are 1x1 matrices over Z_p
    prime: int
    generator: int

    def ring(self) -> IntegersMod:
        return IntegersMod(self.prime)

    def build(self) -> Platform:
        self._check_sizes()
        if not is_prime(self.prime):
            raise ParameterError("DH platform needs a prime modulus")
        if self.generator % self.prime == 0:
            raise ParameterError("generator must be nonzero mod p")
        ring = self.ring()
        g = mx.from_rows(ring, [[self.generator]])

        def sample(rng: np.random.Generator) -> Matrix:
            return mx.from_rows(ring, [[int(rng.integers(1, self.prime))]])

        return Platform(name="dhke", op_kind="mul", g=g, phi=IdentityEnd(), params=self, sampler=sample)


def random_dhke_params(rng: np.random.Generator, prime: int = 2**31 - 1) -> DhkeParams:
    if prime < 3:  # the generator is drawn from [2, prime)
        raise ParameterError(f"a DH prime must be at least 3, got {prime}")
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


def _check_integers(obj: dict) -> None:
    """Refuse an integer field from outside that holds another type, a size outside
    [1, MAX_SIZE] or a bit length past MAX_BITS."""
    for name in _INTEGER_FIELDS:
        if name in obj and not _is_integer(obj[name]):
            raise ParameterError(f"{name} must be an integer, got {obj[name]!r}")
    if not 1 <= obj.get("size", 1) <= MAX_SIZE:
        raise ParameterError(f"size must be an integer in [1, {MAX_SIZE}], got {obj['size']!r}")
    if obj.get("bits", 1) > MAX_BITS:
        raise ParameterError(f"bits must be at most {MAX_BITS}, got {obj['bits']!r}")


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
    refuse_unknown_keys(overrides, accepted, f"{kind} parameter")
    _check_integers(overrides)
    if overrides.get("prime", 0) >= 1 << 63:  # the seeded draws are numpy int64 integers below the prime
        raise ParameterError(f"a seeded prime must be below 2^63, got {overrides['prime']}")
    return generator(rng, **overrides)
