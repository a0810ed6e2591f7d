"""Exponentiation in the holomorph: the engine behind the key exchange.

A platform bundles a carrier semigroup (matrices under one operation), a
public element g, and an endomorphism phi of that operation.  Pairs
(a, phi^n) multiply by (a, phi^m)(b, phi^n) = (phi^n(a) ∘ b, phi^(m+n));
``sdp_exp`` raises (g, phi) to the n-th power by double-and-add, and
``sdp_exp_naive`` is the sequential reference oracle for it.

Endomorphism powers are represented in closed form per platform (cached
two-sided factor powers, of which conjugation is one case; star powers,
exact because the star product is associative; permutation powers), so
applying phi^n costs O(1) matrix operations after an O(log n) setup.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError
from .matrices import Matrix, permute_bits
from .permutations import Permutation


def _square_and_multiply(x, n: int, mul: Callable):
    """x^n for n >= 1 under an associative ``mul``; O(log n) products."""
    acc = None
    sq = x
    while n:
        if n & 1:
            acc = sq if acc is None else mul(acc, sq)
        n >>= 1
        if n:
            sq = mul(sq, sq)
    return acc


class Endomorphism:
    """Base for the per-platform representations of phi^n."""

    def __call__(self, x: Matrix) -> Matrix:
        raise NotImplementedError

    def compose(self, other: Endomorphism) -> Endomorphism:
        """self after other; for powers of one phi this is phi^(m+n)."""
        raise NotImplementedError

    def power(self, n: int) -> Endomorphism:
        """n-fold self-composition by square-and-multiply; power(0) is the identity."""
        if n < 0:
            raise ParameterError("endomorphism powers are nonnegative")
        if n == 0:
            return IdentityEnd()
        return _square_and_multiply(self, n, lambda a, b: a.compose(b))


class IdentityEnd(Endomorphism):
    """The identity automorphism; degenerates the exchange to plain DH."""

    def __call__(self, x: Matrix) -> Matrix:
        return x

    def compose(self, other: Endomorphism) -> Endomorphism:
        return other

    def power(self, n: int) -> Endomorphism:
        return self

    def __eq__(self, other):
        return isinstance(other, IdentityEnd)


class TwoSidedPower(Endomorphism):
    """phi^n(X) = L X R for cached factor powers L = H1^n and R = H2^n."""

    def __init__(self, left_pow: Matrix, right_pow: Matrix):
        self.left_pow = left_pow
        self.right_pow = right_pow

    def __call__(self, x: Matrix) -> Matrix:
        return self.left_pow @ x @ self.right_pow

    def compose(self, other: Endomorphism) -> Endomorphism:
        if isinstance(other, IdentityEnd):
            return self
        if not isinstance(other, TwoSidedPower):
            raise ParameterError("cannot compose endomorphisms of different platforms")
        return TwoSidedPower(self.left_pow @ other.left_pow, self.right_pow @ other.right_pow)

    def __eq__(self, other):
        return (
            isinstance(other, TwoSidedPower)
            and self.left_pow == other.left_pow
            and self.right_pow == other.right_pow
        )


class ConjugatorPower(TwoSidedPower):
    """phi^n(X) = H^-n X H^n: the two-sided power with factors (H^-n, H^n)."""

    def __init__(self, h_pow: Matrix, h_inv_pow: Matrix):
        super().__init__(h_inv_pow, h_pow)


class TropicalStarPower(Endomorphism):
    """phi^n(G) = G ⋆ H^⋆n, where H^⋆n is the n-fold star power of H.

    Collapsing phi^n to a single star needs A ⋆ B = A + B + AB to be
    associative, and it is: by distributivity both (A ⋆ B) ⋆ C and
    A ⋆ (B ⋆ C) equal A + B + C + AB + AC + BC + ABC.
    """

    def __init__(self, star_pow: Matrix):
        self.star_pow = star_pow

    def __call__(self, x: Matrix) -> Matrix:
        return x.star(self.star_pow)

    def compose(self, other: Endomorphism) -> Endomorphism:
        if isinstance(other, IdentityEnd):
            return self
        if not isinstance(other, TropicalStarPower):
            raise ParameterError("cannot compose endomorphisms of different platforms")
        # self after other: (G ⋆ S_other) ⋆ S_self = G ⋆ (S_other ⋆ S_self)
        return TropicalStarPower(other.star_pow.star(self.star_pow))

    def __eq__(self, other):
        return isinstance(other, TropicalStarPower) and self.star_pow == other.star_pow


class IteratedStarPower(Endomorphism):
    """Reference phi^n applying ⋆H one step at a time; O(n), the oracle for TropicalStarPower."""

    def __init__(self, base: Matrix, n: int):
        if n < 1:
            raise ParameterError("iterated star power needs n >= 1")
        self.base = base
        self.n = n

    def __call__(self, x: Matrix) -> Matrix:
        for _ in range(self.n):
            x = x.star(self.base)
        return x

    def compose(self, other: Endomorphism) -> Endomorphism:
        if isinstance(other, IdentityEnd):
            return self
        if not isinstance(other, IteratedStarPower) or other.base != self.base:
            raise ParameterError("cannot compose endomorphisms of different platforms")
        return IteratedStarPower(self.base, self.n + other.n)

    def __eq__(self, other):
        return (
            isinstance(other, IteratedStarPower)
            and self.n == other.n
            and self.base == other.base
        )


class PermutationPower(Endomorphism):
    """phi^n permutes the bit positions of every entry by perm^n."""

    def __init__(self, perm: Permutation):
        self.perm = perm

    def __call__(self, x: Matrix) -> Matrix:
        return permute_bits(x, self.perm)

    def compose(self, other: Endomorphism) -> Endomorphism:
        if isinstance(other, IdentityEnd):
            return self
        if not isinstance(other, PermutationPower):
            raise ParameterError("cannot compose endomorphisms of different platforms")
        # entry action is contravariant: self-after-other reindexes by other*self
        return PermutationPower(other.perm * self.perm)

    def power(self, n: int) -> Endomorphism:
        if n == 0:
            return IdentityEnd()
        return PermutationPower(self.perm**n)

    def __eq__(self, other):
        return isinstance(other, PermutationPower) and self.perm == other.perm


_OPS: dict[str, Callable[[Matrix, Matrix], Matrix]] = {
    "mul": operator.matmul,
    "add": operator.add,
}


@dataclass(frozen=True)
class Platform:
    """Public parameters of one key exchange instance.

    ``op_kind`` selects the carrier semigroup operation ("mul" for matrix
    product, "add" for entrywise semiring addition); ``phi`` is the public
    endomorphism at power one.  ``params`` points back at the serializable
    parameter record that built this platform.
    """

    name: str
    op_kind: str
    g: Matrix
    phi: Endomorphism
    params: object = None
    sampler: Callable[[np.random.Generator], Matrix] | None = field(default=None, repr=False)

    def op(self, a: Matrix, b: Matrix) -> Matrix:
        return _OPS[self.op_kind](a, b)

    def random_element(self, rng: np.random.Generator) -> Matrix:
        if self.sampler is None:
            raise ParameterError(f"platform {self.name} has no element sampler")
        return self.sampler(rng)


@dataclass(frozen=True)
class HolomorphPower:
    """The pair (a_n, phi^n): value transmitted plus the private power."""

    value: Matrix
    end: Endomorphism
    exponent: int


def holo_mul(platform: Platform, x: HolomorphPower, y: HolomorphPower) -> HolomorphPower:
    """(a, phi^m)(b, phi^n) = (phi^n(a) ∘ b, phi^(m+n))."""
    return HolomorphPower(
        platform.op(y.end(x.value), y.value),
        x.end.compose(y.end),
        x.exponent + y.exponent,
    )


def sdp_exp(platform: Platform, n: int) -> HolomorphPower:
    """(g, phi)^n by double-and-add; O(log n) holomorph products.

    n = 0 is rejected: three of the five carriers are proper semigroups with
    no identity to return, and the exchanged sequence starts at a_1 = g.
    """
    if n < 1:
        raise ParameterError("exponent must be >= 1")
    base = HolomorphPower(platform.g, platform.phi, 1)
    # holo_mul is looked up at call time, so a rebinding of the module name reaches it
    return _square_and_multiply(base, n, lambda a, b: holo_mul(platform, a, b))


def sdp_exp_naive(platform: Platform, n: int) -> HolomorphPower:
    """Reference oracle: n-1 sequential holomorph products."""
    if n < 1:
        raise ParameterError("exponent must be >= 1")
    base = HolomorphPower(platform.g, platform.phi, 1)
    cur = base
    for _ in range(n - 1):
        cur = holo_mul(platform, cur, base)
    return cur


def sequence_iter(platform: Platform):
    """Yields (n, a_n) for n = 1, 2, ...; each term is one carrier step a_(n+1) = phi(a_n) ∘ g."""
    n, value = 1, platform.g
    while True:
        yield n, value
        n += 1
        value = telescoping_residual(platform, value)


def telescoping_residual(platform: Platform, a: Matrix) -> Matrix:
    """phi(A) ∘ g for a transmitted value A.

    Splitting a_(x+1) two ways shows this equals phi^x(g) ∘ A for the
    unknown exponent x of A; every telescoping-style attack starts here.
    """
    return platform.op(platform.phi(a), platform.g)


def validate_platform(platform: Platform, rng: np.random.Generator, samples: int = 4) -> None:
    """Sampled semigroup/endomorphism laws; raises ParameterError on failure.

    A test utility: checks op associativity and phi(a ∘ b) = phi(a) ∘ phi(b)
    on random carrier elements.  ``build()`` does not call it, because both
    laws hold by theorem for every platform it accepts.
    """
    for _ in range(samples):
        a = platform.random_element(rng)
        b = platform.random_element(rng)
        c = platform.random_element(rng)
        if platform.op(platform.op(a, b), c) != platform.op(a, platform.op(b, c)):
            raise ParameterError(f"{platform.name}: operation is not associative")
        if platform.phi(platform.op(a, b)) != platform.op(platform.phi(a), platform.phi(b)):
            raise ParameterError(f"{platform.name}: phi does not respect the operation")
