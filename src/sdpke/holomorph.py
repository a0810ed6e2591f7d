"""Exponentiation in the holomorph: the engine behind the key exchange.

A platform bundles a carrier semigroup (matrices under one operation), a
public element g, and an endomorphism phi of that operation.  Pairs
(a, phi^n) multiply by (a, phi^m)(b, phi^n) = (phi^n(a) ∘ b, phi^(m+n)).

The squarings (g, phi)^(2^i) depend on the platform alone, so each
``Platform`` caches them: ``doubling_chain`` squares only past the last
cached level, and every power in the library is taken from that one chain.
One carrier step, ``carrier_step``, extends a value by a chain level on
packed entries: a_n is ``carrier_power``, one step per set bit of n past
the lowest, and ``apply_phi_power`` applies phi^n to a matrix by acting with
the chain endomorphisms at the set bits of n one after another, so neither
builds a ``Matrix`` or an endomorphism per step.  ``phi_power`` composes
phi^n as a map, the second half of ``sdp_exp``, and ``sdp_exp_naive`` is the
sequential reference oracle.  ``sequence_block`` lifts over the chain to
make a whole prefix of the sequence a_(n+1) = phi(a_n) ∘ g, from several
starts at once, in batched carrier steps on every carrier.

Endomorphism powers are represented in closed form per platform (cached
two-sided factor powers, of which conjugation is one case; star powers,
exact because the star product is associative; permutation powers), so
applying phi^n costs O(1) matrix operations after an O(log n) setup.  Each
has one action, ``act``, on packed entries with leading stack axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError
from .matrices import Matrix, random_matrix
from .permutations import Permutation
from .semirings import BitStrings

#: levels a platform's doubling chain may hold: (g, phi)^(2^i) for i < 64
MAX_CHAIN_LEVELS = 64


class Endomorphism:
    """Base for the per-platform representations of phi^n.

    ``ring`` and ``shape`` are the ring and (rows, cols) of the matrices
    phi^n acts on; ``None`` acts on every ring or every shape.
    """

    ring = None
    shape = None

    def act(self, data: np.ndarray) -> np.ndarray:
        """phi^n on the packed entries of one matrix or, along leading axes, a stack of them."""
        raise NotImplementedError

    def __call__(self, x: Matrix) -> Matrix:
        """phi^n(x); a matrix phi^n does not act on is refused here (``act`` checks nothing)."""
        self._check_operand(x)
        return Matrix(x.ring, self.act(x.data))

    def _check_operand(self, x: Matrix) -> None:
        """Raise ParameterError unless phi^n acts on x: x's ring is ``ring`` and its shape ``shape``."""
        ring = x.ring
        if ring is not self.ring and self.ring is not None and ring != self.ring:
            raise ParameterError(f"an endomorphism over {self.ring!r} cannot act on a matrix over {ring!r}")
        if self.shape is not None and x.shape != self.shape:
            rows, cols = self.shape
            raise ParameterError(f"an endomorphism of {rows}x{cols} matrices cannot act on a {x.rows}x{x.cols} matrix")

    def compose(self, other: Endomorphism) -> Endomorphism:
        """self after other; for powers of one phi this is phi^(m+n).  Past the identity,
        each representation composes (``_compose``) only with its own kind."""
        if isinstance(other, IdentityEnd):
            return self
        if type(other) is not type(self):
            raise ParameterError("cannot compose endomorphisms of different platforms")
        return self._compose(other)

    def power(self, n: int) -> Endomorphism:
        """n-fold self-composition by square-and-multiply; power(0) is the identity."""
        if n < 0:
            raise ParameterError("endomorphism powers are nonnegative")
        if n == 0:
            return IdentityEnd()
        acc, sq = None, self
        while True:
            if n & 1:
                acc = sq if acc is None else acc.compose(sq)
            n >>= 1
            if not n:
                return acc
            sq = sq.compose(sq)


class IdentityEnd(Endomorphism):
    """The identity automorphism; degenerates the exchange to plain DH."""

    def act(self, data: np.ndarray) -> np.ndarray:
        return data

    def compose(self, other: Endomorphism) -> Endomorphism:
        return other

    def __eq__(self, other):
        return isinstance(other, IdentityEnd)


class TwoSidedPower(Endomorphism):
    """phi^n(X) = L X R for cached factor powers L = H1^n and R = H2^n."""

    def __init__(self, left_pow: Matrix, right_pow: Matrix):
        self.left_pow = left_pow
        self.right_pow = right_pow
        self.ring = left_pow.ring
        self.shape = (left_pow.cols, right_pow.rows)

    def act(self, data: np.ndarray) -> np.ndarray:
        ring = self.ring
        return ring.matmul(ring.matmul(self.left_pow.data, data), self.right_pow.data)

    def _compose(self, other: TwoSidedPower) -> Endomorphism:
        return TwoSidedPower(self.left_pow @ other.left_pow, self.right_pow @ other.right_pow)

    def __eq__(self, other):
        return (
            isinstance(other, TwoSidedPower)
            and self.left_pow == other.left_pow
            and self.right_pow == other.right_pow
        )


# the conjugation phi^n(X) = H^-n X H^n is TwoSidedPower(H^-n, H^n); the name stays only because
# bench/tracer.py's _ENDOMORPHISMS looks it up
ConjugatorPower = TwoSidedPower


class TropicalStarPower(Endomorphism):
    """phi^n(G) = G ⋆ H^⋆n, where H^⋆n is the n-fold star power of H.

    Collapsing phi^n to a single star needs A ⋆ B = A + B + AB to be
    associative, and it is: by distributivity both (A ⋆ B) ⋆ C and
    A ⋆ (B ⋆ C) equal A + B + C + AB + AC + BC + ABC.
    """

    def __init__(self, star_pow: Matrix):
        self.star_pow = star_pow
        self.ring = star_pow.ring
        self.shape = star_pow.shape

    def act(self, data: np.ndarray) -> np.ndarray:
        """X ⋆ S = X ⊕ S ⊕ X⊗S."""
        ring, s = self.ring, self.star_pow.data
        return ring.add(ring.add(data, s), ring.matmul(data, s))

    def _compose(self, other: TropicalStarPower) -> Endomorphism:
        # self after other: (G ⋆ S_other) ⋆ S_self = G ⋆ (S_other ⋆ S_self)
        return TropicalStarPower(Matrix(self.ring, self.act(other.star_pow.data)))

    def __eq__(self, other):
        return isinstance(other, TropicalStarPower) and self.star_pow == other.star_pow


class IteratedStarPower(Endomorphism):
    """Reference phi^n applying ⋆H one step at a time; O(n), the oracle for TropicalStarPower."""

    def __init__(self, base: Matrix, n: int):
        if n < 1:
            raise ParameterError("iterated star power needs n >= 1")
        self.base = base
        self.n = n
        self.ring = base.ring
        self.shape = base.shape

    def act(self, data: np.ndarray) -> np.ndarray:
        step = TropicalStarPower(self.base)
        for _ in range(self.n):
            data = step.act(data)
        return data

    def _compose(self, other: IteratedStarPower) -> Endomorphism:
        if other.base != self.base:
            raise ParameterError("cannot compose star powers of different matrices")
        return IteratedStarPower(self.base, self.n + other.n)

    def __eq__(self, other):
        return (
            isinstance(other, IteratedStarPower)
            and self.n == other.n
            and self.base == other.base
        )


class PermutationPower(Endomorphism):
    """phi^n permutes the bit positions of every entry: bit i of the image is bit ``index[i]``.

    ``index`` is perm^n in one-line notation, held as one read-only intp array.
    It keeps its own operand rule, on the bit length of any shape, and no
    ``ring``: a ``BitStrings`` per composition would cost a third of the
    composition.
    """

    def __init__(self, perm: Permutation | np.ndarray):
        self.index = np.array(perm, dtype=np.intp)
        self.index.flags.writeable = False

    def act(self, data: np.ndarray) -> np.ndarray:
        return data[..., self.index]

    def _check_operand(self, x: Matrix) -> None:
        if not (isinstance(x.ring, BitStrings) and x.ring.length == len(self.index)):
            raise ParameterError(f"a permutation of {len(self.index)} bit positions cannot act on {x.ring!r}")

    def _compose(self, other: PermutationPower) -> Endomorphism:
        if other.index.shape != self.index.shape:
            raise ParameterError("cannot compose endomorphisms of different platforms")
        # entry action is contravariant: bit i of self-after-other is bit other.index[self.index[i]]
        return PermutationPower(other.index[self.index])

    def __eq__(self, other):
        return isinstance(other, PermutationPower) and np.array_equal(self.index, other.index)


@dataclass(frozen=True)
class Platform:
    """Public parameters of one key exchange instance.

    ``op_kind`` selects the carrier semigroup operation ("mul" for matrix
    product, "add" for entrywise semiring addition); ``phi`` is the public
    endomorphism at power one.  ``params`` points back at the serializable
    parameter record that built this platform.  Without a ``sampler``, a
    random element is a random matrix of g's shape over g's ring.

    ``_chain`` caches the doubling chain (g, phi)^(2^i) that
    ``doubling_chain`` has made so far.  It takes no part in equality or
    hashing, ``dataclasses.replace`` starts it empty, and a longer chain
    replaces the whole tuple, so a prefix already handed out never changes.
    """

    name: str
    op_kind: str
    g: Matrix
    phi: Endomorphism
    params: object = None
    sampler: Callable[[np.random.Generator], Matrix] | None = field(default=None, repr=False)
    _chain: tuple[HolomorphPower, ...] = field(default=(), init=False, compare=False, repr=False)

    def op(self, a: Matrix, b: Matrix) -> Matrix:
        return a @ b if self.op_kind == "mul" else a + b

    def random_element(self, rng: np.random.Generator) -> Matrix:
        if self.sampler is None:
            return random_matrix(rng, self.g.ring, *self.g.shape)
        return self.sampler(rng)


@dataclass(frozen=True)
class HolomorphPower:
    """The pair (a_n, phi^n): value transmitted plus the private power."""

    value: Matrix
    end: Endomorphism
    exponent: int


def carrier_step(platform: Platform, level: HolomorphPower, data: np.ndarray) -> np.ndarray:
    """phi^m(x) ∘ a_m on the packed entries of x (leading stack axes broadcast) for the level (a_m, phi^m).

    The one carrier step of the engine; neither x nor the result is a
    ``Matrix``, so a caller wraps one at the end of a run of steps.
    """
    ring = platform.g.ring
    kernel = ring.matmul if platform.op_kind == "mul" else ring.add
    return kernel(level.end.act(data), level.value.data)


def holo_mul(platform: Platform, x: HolomorphPower, y: HolomorphPower) -> HolomorphPower:
    """(a, phi^m)(b, phi^n) = (phi^n(a) ∘ b, phi^(m+n))."""
    return HolomorphPower(
        Matrix(platform.g.ring, carrier_step(platform, y, x.value.data)),
        x.end.compose(y.end),
        x.exponent + y.exponent,
    )


def _levels_at_bits(platform: Platform, n: int) -> list[HolomorphPower]:
    """The levels of the platform's doubling chain at the set bits of n >= 1, the chain made up to n first."""
    if n < 1:
        raise ParameterError("exponent must be >= 1")
    return [level for level in doubling_chain(platform, n + 1) if n & level.exponent]


def carrier_power(platform: Platform, n: int) -> Matrix:
    """a_n, the carrier half of (g, phi)^n: each set bit of n past the lowest is one ``carrier_step``
    with the chain level (a_m, phi^m) there, and no endomorphism is composed.  n = 0 is rejected:
    three of the five carriers are proper semigroups with no identity to return, and the
    exchanged sequence starts at a_1 = g."""
    first, *rest = _levels_at_bits(platform, n)
    data = first.value.data
    for level in rest:
        data = carrier_step(platform, level, data)
    return Matrix(platform.g.ring, data)


def apply_phi_power(platform: Platform, n: int, x: Matrix) -> Matrix:
    """phi^n(x), by acting on x's packed entries with the chain endomorphisms at the set bits of n.

    Powers of one phi commute, so acting with phi^(2^i) for each set bit
    in turn is phi^n: popcount(n) actions, as many kernel calls as
    ``phi_power`` composing and then acting, with no map built in between.
    The operand is checked once, against phi; phi^0 is the identity and
    returns x.
    """
    if n == 0:
        return x
    platform.phi._check_operand(x)
    data = x.data
    for level in _levels_at_bits(platform, n):
        data = level.end.act(data)
    return Matrix(x.ring, data)


def phi_power(platform: Platform, n: int) -> Endomorphism:
    """phi^n as the composition of the platform's doubling chain endomorphisms at the set bits of n.

    That is popcount(n) - 1 compositions and no squaring of phi: the chain
    is made up to n first if the platform has not cached that far.  phi^0
    is the identity.  The map half of ``sdp_exp``; to apply phi^n to one
    matrix, ``apply_phi_power`` builds no map.
    """
    if n == 0:
        return IdentityEnd()
    acc, *rest = (level.end for level in _levels_at_bits(platform, n))
    for end in rest:
        acc = acc.compose(end)
    return acc


def sdp_exp(platform: Platform, n: int) -> HolomorphPower:
    """(g, phi)^n as its two halves, ``carrier_power`` and ``phi_power``; n = 0 is rejected."""
    return HolomorphPower(carrier_power(platform, n), phi_power(platform, n), n)


def sdp_exp_naive(platform: Platform, n: int) -> HolomorphPower:
    """Reference oracle: n-1 sequential holomorph products."""
    if n < 1:
        raise ParameterError("exponent must be >= 1")
    base = HolomorphPower(platform.g, platform.phi, 1)
    cur = base
    for _ in range(n - 1):
        cur = holo_mul(platform, cur, base)
    return cur


def doubling_chain(platform: Platform, limit: int) -> tuple[HolomorphPower, ...]:
    """The levels (g, phi)^(2^i) for every 2^i < limit, and (g, phi) itself: a prefix of the platform's chain.

    Only the levels past the cached ones are squared, one squaring each, and
    the longer chain then replaces the cached tuple.  A limit past 2^64
    would need more than ``MAX_CHAIN_LEVELS`` levels and is refused.
    """
    levels = max(limit - 1, 1).bit_length()
    if levels > MAX_CHAIN_LEVELS:
        raise ParameterError(f"a doubling chain holds at most {MAX_CHAIN_LEVELS} levels, limit {limit} needs {levels}")
    chain = platform._chain or (HolomorphPower(platform.g, platform.phi, 1),)
    while len(chain) < levels:
        chain += (holo_mul(platform, chain[-1], chain[-1]),)
    object.__setattr__(platform, "_chain", chain)
    return chain[:levels]


def sequence_block(platform: Platform, starts: list[Matrix], count: int) -> np.ndarray:
    """Terms x_1 .. x_count of x_(i+1) = phi(x_i) ∘ g for each start x_1, as one packed array.

    Every such sequence satisfies x_(i+m) = phi^m(x_i) ∘ a_m, so each level
    (a_m, phi^m) of the doubling chain extends all the prefixes from m terms
    to 2m at once, one ``carrier_step`` on the stack of prefixes: O(log
    count) steps instead of one per term.  The result has shape
    (len(starts), count) + the packed shape of g.
    """
    block = np.stack([x.data for x in starts])[:, None]
    for level in doubling_chain(platform, count):
        m = level.exponent
        if m >= count:  # count 1: the chain still holds (g, phi), and nothing is left to make
            break
        new = carrier_step(platform, level, block[:, : min(m, count - m)])
        block = np.concatenate([block, new], axis=1)
    return block


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
