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
builds a ``Matrix`` or an endomorphism per step.  On the tropical carrier
phi(x) = x ⋆ H <= x entrywise and a_k <= g, so a step a_(k+m) = phi^m(a_k) ⊕
a_m is phi^m(a_k) and a_n = phi^(n-1)(g): there both walks only act.
``phi_power`` composes phi^n as a map, the second half of ``sdp_exp``, and
``sdp_exp_naive`` is the sequential reference oracle.  ``sequence_block``
lifts over the chain to make a whole prefix of the sequence a_(n+1) =
phi(a_n) ∘ g, from several starts at once, in batched carrier steps.

With phi^m(x) = L x R two-sided (GL(r, p) and matrices over Z_m[G] under the
matrix product, MAKE under the matrix sum), a step x -> L x (R a_m) is
Z_m-linear in x and a step x -> L x R + a_m Z_m-affine, so a chain level can
hold it as one Z_m matrix S_m, and phi^m as P_m, over the D Z_m coordinates
of x: the level's own step, ``ring.matmul`` with its factors, applied to
the stack of the D coordinate basis matrices.  The affine MAKE step is the
homogeneous (D+1) x (D+1) map [[P_m, 0], [vec(a_m), 1]] on vec(x) with a
coordinate 1 appended, which the walk drops at its end.  A platform builds
the maps level by level from its ``MAP_SWITCH_CALL``-th ``carrier_power``
or ``apply_phi_power`` call on (that constant holds the build costs and
break-evens): a step or action is then one product vec(x) @ S_m or @ P_m.
Every int64-stored carrier with D <= ``MAP_MAX_COORDINATES`` takes maps,
each stored once in the form its ring chooses (``IntegersMod.store``) and
multiplied by the ring's product on that form (``matmul_stored``).

On the tropical carrier phi^m(x) = x ⋆ S_m = x ⊗ P_m ⊕ S_m with P_m = I ⊕
S_m: from the same switch call on, a level holds P_m, S_m and the larger
|entry| of the two, and every move of either walk is one min-plus product
and one min.  When the bounds of the start and of the levels at n's set
bits prove every sum exact in int64 (``semirings.tropical_walk_fits_words``),
the walk runs on words with no check; otherwise it takes the ring's
kernels, exact on Python ints.  The OR/AND carrier, plain DH, Z_m stored
as Python ints (MAKE past 3037000500), and larger conjugation carriers
(3x3 over Z_7[A_5], D = 540) keep the factored step, as do
``sequence_block``, the squarings and the attacks on every carrier.

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
from .semirings import BitStrings, tropical_bound, tropical_walk_fits_words, tropical_word_move

#: levels a platform's doubling chain may hold: (g, phi)^(2^i) for i < 64
MAX_CHAIN_LEVELS = 64
#: the call of ``carrier_power`` or ``apply_phi_power`` on one platform from which it takes the
#: chain levels' maps.  On a 2-core Xeon, at 16-bit exponents, the maps repay their build after about
#: 10 calls on GL(3, 1009) (12 us a level), 11 on the default 5x5 tropical platform (12 us a level),
#: 19 on the default MAKE over Z_(2^31 - 1) (20 us a level, its homogeneous affine step and phi^m on
#: 16-bit limbs) and 26 on the default 3x3 Z_7[S_3] (180 us a level).  16 is below the last two, and
#: stays: no use sits between, as an ``sdpke exchange`` call makes 4 calls a trial (8 at 2 trials)
#: and a long-lived platform thousands
MAP_SWITCH_CALL = 16
#: the most Z_m coordinates D of a carrier whose chain levels take maps: the default 3x3 Z_7[S_3]
#: carrier, whose maps at all 64 levels would take 16 D^2 * 64 bytes = 3 MB as int64 and twice that on
#: 16-bit limbs; past it a level breaks even later
MAP_MAX_COORDINATES = 54


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


class _LevelMaps:
    """The maps of a platform's chain levels, and how many calls could have taken them.

    ``calls`` counts the platform's ``carrier_power`` and ``apply_phi_power``
    calls.  With phi^m(x) = L x R two-sided, ``levels[i]`` holds, for the
    chain level (a_m, phi^m), the map S_m of the carrier step and the D x D
    map P_m of phi^m, both on the D row-major Z_m coordinates of x: row i
    of P_m is vec(L e_i R) for the i-th coordinate basis matrix e_i, so
    vec(L x R) = vec(x) @ P_m.  S_m is D x D for the step x -> L x (R a_m),
    and for the MAKE step x -> L x R + a_m the homogeneous (D+1) x (D+1)
    [[P_m, 0], [vec(a_m), 1]].  Each map is stored in the form its ring
    picks (``IntegersMod.store``).  On the tropical carrier it holds
    (P_m, S_m, bound) for phi^m, which is also the carrier's step there
    (``_tropical_maps``).
    """

    __slots__ = ("calls", "levels")

    def __init__(self):
        self.calls = 0
        self.levels: list[tuple] = []


@dataclass(frozen=True)
class Platform:
    """Public parameters of one key exchange instance.

    ``op_kind`` selects the carrier semigroup operation ("mul" for matrix
    product, "add" for entrywise semiring addition); ``phi`` is the public
    endomorphism at power one.  ``params`` points back at the serializable
    parameter record that built this platform.  Without a ``sampler``, a
    random element is a random matrix of g's shape over g's ring.

    ``_chain`` caches the doubling chain (g, phi)^(2^i) that
    ``doubling_chain`` has made so far, and ``_maps`` the Z_m maps of its
    levels with the count of calls that could take them (``_LevelMaps``).
    Neither takes part in equality or hashing, ``dataclasses.replace``
    starts both empty, and a longer chain replaces the whole tuple, so a
    prefix already handed out never changes.
    """

    name: str
    op_kind: str
    g: Matrix
    phi: Endomorphism
    params: object = None
    sampler: Callable[[np.random.Generator], Matrix] | None = field(default=None, repr=False)
    _chain: tuple[HolomorphPower, ...] = field(default=(), init=False, compare=False, repr=False)
    _maps: _LevelMaps = field(default_factory=_LevelMaps, init=False, compare=False, repr=False)

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


def _map_builder(platform: Platform):
    """How the platform's chain levels take maps, or None while its steps stay factored:
    ``_tropical_maps`` on the tropical carrier, and ``_conjugation_maps`` with phi two-sided on an
    int64-stored Z_m or Z_m[G] carrier of at most ``MAP_MAX_COORDINATES`` coordinates, under the
    matrix product or the matrix sum (MAKE, whose affine step takes a homogeneous map).  Every map
    product is exact there, on the form the ring stores the map in; ``MAP_SWITCH_CALL`` holds the
    build costs and break-evens."""
    ring = platform.g.ring
    if isinstance(platform.phi, TropicalStarPower) and platform.op_kind == "add":
        return _tropical_maps
    if (
        isinstance(platform.phi, TwoSidedPower)
        and ring.linear
        and ring.dtype is np.int64
        and platform.g.data.size <= MAP_MAX_COORDINATES
    ):
        return _conjugation_maps
    return None


def _maps_up_to(platform: Platform, n: int) -> list[tuple] | None:
    """The maps of the platform's chain levels up to n's top bit, or None while it takes the factored
    step.  Counts the call; from the ``MAP_SWITCH_CALL``-th on, on a carrier that takes maps
    (``_map_builder``), builds each level the chain holds and the maps do not yet."""
    maps = platform._maps
    maps.calls += 1
    build = maps.calls >= MAP_SWITCH_CALL and _map_builder(platform)
    if not build:
        return None
    missing = platform._chain[len(maps.levels) : n.bit_length()]
    if missing:
        maps.levels.extend(build(platform, missing))
    return maps.levels


def _conjugation_maps(platform: Platform, levels: tuple[HolomorphPower, ...]):
    """The (S_m, P_m) Z_m maps of each of the given chain levels of a two-sided phi^m(x) = L x R.

    A level's maps are its own factored step on the stack of the D coordinate basis matrices e_i,
    through ``ring.matmul`` and no ``Endomorphism.act``: row i of P_m is vec(L e_i R).  Under the
    matrix product row i of S_m is that times a_m, three stacked products in all.  Under the matrix
    sum the step x -> L x R + a_m is affine, so S_m is the homogeneous (D+1) x (D+1) map
    [[P_m, 0], [vec(a_m), 1]] on vec(x) with a coordinate 1 appended.  Each map is stored in the
    form the ring picks for its row count (``IntegersMod.store``)."""
    ring, g = platform.g.ring, platform.g.data
    affine, size = platform.op_kind == "add", g.size
    basis = np.eye(size, dtype=np.int64).reshape((size,) + g.shape)
    for level in levels:
        images = ring.matmul(ring.matmul(level.end.left_pow.data, basis), level.end.right_pow.data)
        phi_map = images.reshape(size, size)
        if affine:
            step_map = np.eye(size + 1, dtype=np.int64)
            step_map[:size, :size] = phi_map
            step_map[size, :size] = level.value.data.reshape(-1)
        else:
            step_map = ring.matmul(images, level.value.data).reshape(size, size)
        pair = (ring.store(step_map), ring.store(phi_map))
        for m in pair:
            m.flags.writeable = False
        yield pair


def _tropical_maps(platform: Platform, levels: tuple[HolomorphPower, ...]):
    """(P_m, S_m, bound) for each of the given tropical chain levels (a_m, x -> x ⋆ S_m).

    x ⋆ S = x ⊕ S ⊕ x⊗S = x ⊗ (I ⊕ S) ⊕ S by distributivity, so phi^m is x -> x ⊗ P_m ⊕ S_m with
    P_m = I ⊕ S_m.  ``bound`` is the larger |entry| of the two, or None when either is an object array."""
    ring = platform.g.ring
    eye = ring.identity(platform.g.rows)
    for level in levels:
        star = level.end.star_pow.data
        arrays = (ring.add(eye, star), star)
        for m in arrays:
            m.flags.writeable = False
        yield (*arrays, tropical_bound(*arrays))


def _tropical_move(ring, data: np.ndarray, p_m: np.ndarray, s_m: np.ndarray, words: bool) -> np.ndarray:
    """phi^m(data) = data ⊗ p_m ⊕ s_m, on words where the walk's bounds prove that exact, else by ring kernels."""
    if words:
        return tropical_word_move(data, p_m, s_m)
    return ring.add(ring.matmul(data, p_m), s_m)


def _chain_bits(platform: Platform, n: int) -> tuple[tuple[HolomorphPower, ...], list[int]]:
    """The platform's doubling chain, made up to n >= 1 first, and the positions of n's set bits:
    level i of the chain, and of its maps, is (g, phi)^(2^i)."""
    if n < 1:
        raise ParameterError("exponent must be >= 1")
    return doubling_chain(platform, n + 1), [i for i in range(n.bit_length()) if n >> i & 1]


def _walk(platform: Platform, n: int, data: np.ndarray | None) -> np.ndarray:
    """One move per chain level at the set bits of n >= 1, on packed entries.

    With data None the walk is a_n: it starts from the value of the level at
    n's lowest bit and steps with each level past it (``carrier_step``), but
    on the tropical carrier, where a_n = phi^(n-1)(g), acts with it.  With
    data it is phi^n(data): each level's endomorphism acts in turn.  Once the
    platform holds maps (``_maps_up_to``), every move with a two-sided phi
    is one ring ``matmul_stored`` with the level's S_m or P_m, on the
    coordinates in the maps' stored dtype (a MAKE carrier walk appends the
    homogeneous coordinate 1 first and drops it at the end), and on the
    tropical carrier one ``_tropical_move``, on words when the bounds of the
    start and of the levels admit it (``tropical_walk_fits_words``).
    """
    chain, bits = _chain_bits(platform, n)
    maps = _maps_up_to(platform, n)
    tropical = isinstance(platform.phi, TropicalStarPower) and platform.op_kind == "add"
    carrier = data is None and not tropical
    if data is None:
        data = chain[bits.pop(0)].value.data
    if maps is not None and bits and tropical:
        ring, levels = platform.g.ring, [maps[i] for i in bits]
        words = tropical_walk_fits_words([tropical_bound(data), *(level[2] for level in levels)])
        for p_m, s_m, _ in levels:
            data = _tropical_move(ring, data, p_m, s_m, words)
        return data
    if maps is not None and bits:
        which, product = 0 if carrier else 1, platform.g.ring.matmul_stored
        vec = data.reshape(-1)
        if carrier and platform.op_kind == "add":  # the homogeneous coordinate of the affine step
            vec = np.append(vec, 1)
        vec = vec.astype(maps[0][which].dtype)
        for i in bits:
            vec = product(vec, maps[i][which])
        return vec[: data.size].astype(np.int64).reshape(data.shape)
    for i in bits:
        data = carrier_step(platform, chain[i], data) if carrier else chain[i].end.act(data)
    return data


def carrier_power(platform: Platform, n: int) -> Matrix:
    """a_n, the carrier half of (g, phi)^n: each set bit of n past the lowest is one step with the
    chain level (a_m, phi^m) there, on the tropical carrier one action of its phi^m (``_walk``), and
    no endomorphism is composed.
    n = 0 is rejected: three of the five carriers are proper semigroups with no identity to
    return, and the exchanged sequence starts at a_1 = g."""
    return Matrix(platform.g.ring, _walk(platform, n, None))


def apply_phi_power(platform: Platform, n: int, x: Matrix) -> Matrix:
    """phi^n(x), by acting on x's packed entries with the chain endomorphisms at the set bits of n.

    Powers of one phi commute, so acting with phi^(2^i) for each set bit
    in turn is phi^n: popcount(n) actions (``_walk``), as many kernel calls
    as ``phi_power`` composing and then acting, with no composition between.
    The operand is checked once, against phi; phi^0 and a negative n are
    ``Endomorphism.power``'s, the identity and a refusal.
    """
    if n <= 0:
        return platform.phi.power(n)(x)
    platform.phi._check_operand(x)
    return Matrix(x.ring, _walk(platform, n, x.data))


def phi_power(platform: Platform, n: int) -> Endomorphism:
    """phi^n as the composition of the platform's doubling chain endomorphisms at the set bits of n.

    That is popcount(n) - 1 compositions and no squaring of phi: the chain
    is made up to n first if the platform has not cached that far; phi^0 and
    a negative n are ``Endomorphism.power``'s.  The map half of ``sdp_exp``;
    to apply phi^n to one matrix, ``apply_phi_power`` builds no map.
    """
    if n <= 0:
        return platform.phi.power(n)
    chain, bits = _chain_bits(platform, n)
    acc, *rest = (chain[i].end for i in bits)
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
