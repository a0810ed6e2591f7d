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
Z_m-linear in x and a step x -> L x R + a_m Z_m-affine, so a power (a_m,
phi^m) can hold it as one Z_m matrix S_m, and phi^m as P_m, over the D Z_m
coordinates of x: its own step, ``ring.matmul`` with its factors, applied
to the stack of the D coordinate basis matrices.  The affine MAKE step is
the homogeneous (D+1) x (D+1) map [[P_m, 0], [vec(a_m), 1]] on vec(x) with
a coordinate 1 appended, which the walk drops at its end.  Every party
raises the one fixed (g, phi) of its platform, so from its
``MAP_SWITCH_CALL``-th ``carrier_power`` or ``apply_phi_power`` call on
(that constant holds the fill costs and break-evens) a platform walks a
fixed-base window table instead of the chain (Brickell, Gordon, McCurley
and Wilson; Lim and Lee): entry (j, d) holds the value and both maps of
(g, phi)^(d 2^(w j)) for each digit d of window j in base 2^w, w =
``WINDOW_BITS``, built on first use from the chain levels at d's bits.
a_n is then one product vec(x) @ S_e per nonzero digit of n past the
lowest, and phi^n one @ P_e per nonzero digit.  Every int64-stored carrier
with D <= ``MAP_MAX_COORDINATES`` takes the table, each map stored once in
the form its ring chooses (``IntegersMod.store``) and multiplied by the
ring's product on that form (``matmul_stored``).

On the tropical carrier phi^m(x) = x ⋆ S_m = x ⊗ P_m ⊕ S_m with P_m = I ⊕
S_m, and the chain endomorphism ``TropicalStarPower`` holds S_m and P_m
itself, so that carrier takes no maps and never switches: from the first
call on, every move of either walk is one min-plus product and one min.
When the bounds of the start and of the endomorphisms at n's set bits
prove every sum exact in int64 (``semirings.tropical_walk_fits_words``),
the walk runs on words with no check; otherwise it acts, by the ring's
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

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError
from .matrices import Matrix, random_matrix
from .permutations import Permutation
from .semirings import BitStrings, tropical_bound, tropical_walk_fits_words, tropical_word_move

#: levels a platform's doubling chain may hold: (g, phi)^(2^i) for i < 64
MAX_CHAIN_LEVELS = 64
#: the call of ``carrier_power`` or ``apply_phi_power`` on one Z_m platform from which it walks its
#: window table (the tropical carrier never switches: its endomorphisms hold their own maps).  On a
#: 2-core Xeon, one BLAS thread, an entry costs about 50 us to build on GL(3, 1009), 57 us on the
#: default MAKE over Z_(2^31 - 1) and 280-300 us on the default 3x3 Z_7[S_3], and a fresh platform
#: running exchange trials (4 calls each) is ahead of the factored walk for good from about trial 26,
#: 30 and 33 at 16-bit exponents and 25, 21 and 31 at 63 bits: about 100-130 calls.  16 is below
#: all of them, and stays: an ``sdpke exchange`` call of up to 3 trials stays factored, a long-lived
#: platform makes thousands of calls, and a run between pays for the fill: 25 trials on Z_7[S_3] take
#: about 3 ms more than the factored walk at 16 bits and 11 ms more at 63
MAP_SWITCH_CALL = 16
#: the most Z_m coordinates D of a carrier that takes a window table: the default 3x3 Z_7[S_3]
#: carrier, whose maps are stored int16, 2 D^2 bytes each: its table takes 0.73 MB for the 60 entries
#: of 16-bit exponents and 2.8 MB for the 232 of 63-bit ones, values included; past it an entry
#: costs more to build and breaks even later
MAP_MAX_COORDINATES = 54
#: the digit width w of a window table (``_LevelMaps``): entry (j, d) holds (g, phi)^(d 2^(w j)).
#: For uniform 16-bit exponents an exchange trial (two keygens, two derives) then makes about 13 map
#: products from a table of 60 entries; w = 2 would make 22 from 24 entries, w = 8 about 6 from 510
#: (6 MB on the default Z_7[S_3], about 0.2 s to fill), and one product per set bit makes 30.  At 63 bits
#: w = 4 makes about 58 from 232 entries, against 124 per set bit
WINDOW_BITS = 4


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


@functools.lru_cache(maxsize=None)
def _word_identity(n: int) -> np.ndarray:
    """The n x n tropical identity, read-only, on words with +inf as the int64 maximum: np.minimum(S, it) is I ⊕ S."""
    eye = np.full((n, n), np.iinfo(np.int64).max)
    np.fill_diagonal(eye, 0)
    eye.flags.writeable = False
    return eye


class TropicalStarPower(Endomorphism):
    """phi^n(G) = G ⋆ H^⋆n, where H^⋆n is the n-fold star power of H.

    Collapsing phi^n to a single star needs A ⋆ B = A + B + AB to be
    associative, and it is: by distributivity both (A ⋆ B) ⋆ C and
    A ⋆ (B ⋆ C) equal A + B + C + AB + AC + BC + ABC.  By distributivity
    again X ⋆ S = X ⊕ S ⊕ X⊗S = X ⊗ P ⊕ S for P = I ⊕ S, so phi^n holds
    S = H^⋆n as ``star_pow`` and P as ``factor``, and acts by one min-plus
    product and one min.  P equals S off the diagonal and has min(S_ii, 0)
    on it, so S's largest |entry| bounds P's too: ``bound``, by which a walk
    decides whether its moves run on words (``_walk``).
    """

    def __init__(self, star_pow: Matrix):
        self.star_pow = star_pow
        self.ring = ring = star_pow.ring
        self.shape = star_pow.shape
        s, n = star_pow.data, star_pow.rows
        self.factor = np.minimum(s, _word_identity(n)) if s.dtype == np.int64 else ring.add(ring.identity(n), s)

    @property
    def bound(self) -> int | None:
        """S's largest |entry|, or None for an object S; computed on first use, as a chain's squarings never read it."""
        try:
            return self._bound
        except AttributeError:
            self._bound = tropical_bound(self.star_pow.data)
            return self._bound

    def act(self, data: np.ndarray) -> np.ndarray:
        """X ⋆ S = X ⊗ P ⊕ S."""
        ring = self.ring
        return ring.add(ring.matmul(data, self.factor), self.star_pow.data)

    def _compose(self, other: TropicalStarPower) -> Endomorphism:
        # self after other: (G ⋆ S_other) ⋆ S_self = G ⋆ (S_other ⋆ S_self)
        return TropicalStarPower(Matrix(self.ring, self.act(other.star_pow.data)))

    def __eq__(self, other):
        return isinstance(other, TropicalStarPower) and self.star_pow == other.star_pow


class IteratedStarPower(Endomorphism):
    """Reference phi^n applying X ⋆ H = X ⊕ H ⊕ X⊗H by the ring's kernels one step at a time; O(n), the
    oracle for TropicalStarPower, whose X ⊗ (I ⊕ S) ⊕ S form it shares nothing of."""

    def __init__(self, base: Matrix, n: int):
        if n < 1:
            raise ParameterError("iterated star power needs n >= 1")
        self.base = base
        self.n = n
        self.ring = base.ring
        self.shape = base.shape

    def act(self, data: np.ndarray) -> np.ndarray:
        ring, h = self.ring, self.base.data
        for _ in range(self.n):
            data = ring.add(ring.add(data, h), ring.matmul(data, h))
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
    """A Z_m platform's fixed-base window table, and how many calls could have taken it.

    ``calls`` counts the platform's ``carrier_power`` and ``apply_phi_power``
    calls up to ``MAP_SWITCH_CALL``, the one count it decides.  From that
    call on, ``table[(j, d)]``, for a digit d in 1 .. 2^w - 1 of window j
    (w = ``WINDOW_BITS``), holds (a_e, S_e, P_e) for e = d 2^(w j): the
    value a_e of (g, phi)^e, the start of a keygen walk, and the maps of
    its carrier step and of phi^e on the D row-major Z_m coordinates of x.
    With phi^e(x) = L x R two-sided, row i of P_e is vec(L e_i R) for the
    i-th coordinate basis matrix e_i, so vec(L x R) = vec(x) @ P_e.  S_e is
    D x D for the step x -> L x (R a_e), and for the MAKE step x -> L x R +
    a_e the homogeneous (D+1) x (D+1) [[P_e, 0], [vec(a_e), 1]].  Each
    entry is built on the first walk that reads it (``_table_entry``) and
    is read-only; each map is stored in the form its ring picks
    (``IntegersMod.store``).  A platform whose carrier takes no maps holds
    no ``_LevelMaps`` (``_takes_maps``).
    """

    __slots__ = ("calls", "table")

    def __init__(self):
        self.calls = 0
        self.table: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class Platform:
    """Public parameters of one key exchange instance.

    ``op_kind`` selects the carrier semigroup operation ("mul" for matrix
    product, "add" for entrywise semiring addition); ``phi`` is the public
    endomorphism at power one.  ``params`` points back at the serializable
    parameter record that built this platform.  Without a ``sampler``, a
    random element is a random matrix of g's shape over g's ring.

    ``_chain`` caches the doubling chain (g, phi)^(2^i) that
    ``doubling_chain`` has made so far, and ``_maps`` the window table of a
    carrier that takes maps, with the count of calls that could take it
    (``_LevelMaps``), and None on any other carrier: whether it takes maps
    is decided once, here.  Neither takes part in equality or hashing,
    ``dataclasses.replace`` starts both empty, and a longer chain replaces
    the whole tuple, so a prefix already handed out never changes.
    """

    name: str
    op_kind: str
    g: Matrix
    phi: Endomorphism
    params: object = None
    sampler: Callable[[np.random.Generator], Matrix] | None = field(default=None, repr=False)
    _chain: tuple[HolomorphPower, ...] = field(default=(), init=False, compare=False, repr=False)
    _maps: _LevelMaps | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_maps", _LevelMaps() if _takes_maps(self) else None)

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


def _takes_maps(platform: Platform) -> bool:
    """Whether the platform takes a window table (``_LevelMaps``): phi two-sided on an int64-stored
    Z_m or Z_m[G] carrier of at most ``MAP_MAX_COORDINATES`` coordinates, under the matrix product
    or the matrix sum (MAKE, whose affine step takes a homogeneous map).  Every map product is exact
    there, on the form the ring stores the map in; ``MAP_SWITCH_CALL`` holds the build costs and
    break-evens."""
    ring = platform.g.ring
    return (
        isinstance(platform.phi, TwoSidedPower)
        and ring.linear
        and ring.dtype is np.int64
        and platform.g.data.size <= MAP_MAX_COORDINATES
    )


def _table(platform: Platform) -> dict | None:
    """The platform's window table, or None while it takes the factored step: on a carrier that takes
    no maps, and before the ``MAP_SWITCH_CALL``-th ``carrier_power`` or ``apply_phi_power`` call,
    which it counts up to."""
    maps = platform._maps
    if maps is None:
        return None
    if maps.calls < MAP_SWITCH_CALL:
        maps.calls += 1
        if maps.calls < MAP_SWITCH_CALL:
            return None
    return maps.table


def _table_entry(platform: Platform, table: dict, j: int, d: int) -> tuple:
    """The table's entry for the digit d of window j, (a_e, S_e, P_e) for e = d 2^(w j), built on
    first use: the holomorph product of the chain levels at d's bits, then its maps
    (``_conjugation_maps``)."""
    entry = table.get((j, d))
    if entry is None:
        chain = doubling_chain(platform, (d << WINDOW_BITS * j) + 1)
        levels = [chain[WINDOW_BITS * j + b] for b in range(WINDOW_BITS) if d >> b & 1]
        power = functools.reduce(functools.partial(holo_mul, platform), levels)
        value = power.value.data.copy()  # at a one-bit d, power is the chain level itself
        value.flags.writeable = False
        entry = table[j, d] = (value, *_conjugation_maps(platform, power))
    return entry


def _conjugation_maps(platform: Platform, power: HolomorphPower) -> tuple[np.ndarray, np.ndarray]:
    """The (S_m, P_m) Z_m maps of a power (a_m, phi^m) of a two-sided phi^m(x) = L x R, read-only.

    The maps are the power's own factored step on the stack of the D coordinate basis matrices e_i,
    through ``ring.matmul`` and no ``Endomorphism.act``: row i of P_m is vec(L e_i R).  Under the
    matrix product row i of S_m is that times a_m, three stacked products in all.  Under the matrix
    sum the step x -> L x R + a_m is affine, so S_m is the homogeneous (D+1) x (D+1) map
    [[P_m, 0], [vec(a_m), 1]] on vec(x) with a coordinate 1 appended.  Each map is stored in the
    form the ring picks for its row count (``IntegersMod.store``)."""
    ring, g = platform.g.ring, platform.g.data
    size = g.size
    basis = np.eye(size, dtype=np.int64).reshape((size,) + g.shape)
    images = ring.matmul(ring.matmul(power.end.left_pow.data, basis), power.end.right_pow.data)
    phi_map = images.reshape(size, size)
    if platform.op_kind == "add":
        step_map = np.eye(size + 1, dtype=np.int64)
        step_map[:size, :size] = phi_map
        step_map[size, :size] = power.value.data.reshape(-1)
    else:
        step_map = ring.matmul(images, power.value.data).reshape(size, size)
    pair = (ring.store(step_map), ring.store(phi_map))
    for m in pair:
        m.flags.writeable = False
    return pair


def _chain_bits(platform: Platform, n: int) -> tuple[tuple[HolomorphPower, ...], list[int]]:
    """The platform's doubling chain, made up to n >= 1 first, and the positions of n's set bits:
    level i of the chain is (g, phi)^(2^i)."""
    return doubling_chain(platform, n + 1), [i for i in range(n.bit_length()) if n >> i & 1]


def _walk(platform: Platform, n: int, data: np.ndarray | None) -> np.ndarray:
    """One move per chain level at the set bits of n >= 1, or per nonzero digit of n, on packed entries.

    With data None the walk is a_n: it starts from the value of the level at
    n's lowest bit and steps with each level past it (``carrier_step``), but
    on the tropical carrier, where a_n = phi^(n-1)(g), acts with it.  With
    data it is phi^n(data): each level's endomorphism acts in turn.  On the
    tropical carrier every move, from the first call on, is phi^m's x ⊗ P_m
    ⊕ S_m (``TropicalStarPower``): on words with no check when the bounds of
    the start and of the endomorphisms at n's set bits admit it
    (``tropical_walk_fits_words``), else its ``act``.  Once a Z_m platform
    takes its window table (``_table``), the walk reads n in base 2^w (w =
    ``WINDOW_BITS``) instead: a_n starts from the value of the entry at n's
    lowest nonzero digit and moves by one ring ``matmul_stored`` with S_e of
    each further nonzero digit's entry, and phi^n(data) by one with P_e of
    each nonzero digit's entry, on the coordinates in the maps' stored dtype
    (a MAKE carrier walk appends the homogeneous coordinate 1 first and
    drops it at the end).
    """
    if n < 1:
        raise ParameterError("exponent must be >= 1")
    table = _table(platform)
    if table is not None:
        mask = (1 << WINDOW_BITS) - 1
        digits = [(j, n >> WINDOW_BITS * j & mask) for j in range(-(-n.bit_length() // WINDOW_BITS))]
        entries = [_table_entry(platform, table, j, d) for j, d in digits if d]
        which, first = (1 if data is None else 2), entries[0]
        if data is None:
            data, entries = first[0], entries[1:]
        vec = data.reshape(-1)
        if which == 1 and platform.op_kind == "add":  # the homogeneous coordinate of the affine step
            vec = np.append(vec, 1)
        vec, product = vec.astype(first[which].dtype), platform.g.ring.matmul_stored
        for entry in entries:
            vec = product(vec, entry[which])
        return vec[: data.size].astype(np.int64).reshape(data.shape)
    chain, bits = _chain_bits(platform, n)
    tropical = isinstance(platform.phi, TropicalStarPower) and platform.op_kind == "add"
    carrier = data is None and not tropical
    if data is None:
        data = chain[bits.pop(0)].value.data
    if tropical and tropical_walk_fits_words([tropical_bound(data), *(chain[i].end.bound for i in bits)]):
        for i in bits:
            end = chain[i].end
            data = tropical_word_move(data, end.factor, end.star_pow.data)
        return data
    for i in bits:
        data = carrier_step(platform, chain[i], data) if carrier else chain[i].end.act(data)
    return data


def carrier_power(platform: Platform, n: int) -> Matrix:
    """a_n, the carrier half of (g, phi)^n: each set bit of n past the lowest is one step with the
    chain level (a_m, phi^m) there, on the tropical carrier one action of its phi^m, and on a Z_m
    platform's window table each nonzero digit past the lowest one map product (``_walk``); no
    endomorphism is composed.
    n = 0 is rejected: three of the five carriers are proper semigroups with no identity to
    return, and the exchanged sequence starts at a_1 = g."""
    return Matrix(platform.g.ring, _walk(platform, n, None))


def apply_phi_power(platform: Platform, n: int, x: Matrix) -> Matrix:
    """phi^n(x), by acting on x's packed entries with the chain endomorphisms at the set bits of n.

    Powers of one phi commute, so acting with phi^(2^i) for each set bit
    in turn is phi^n: popcount(n) actions (``_walk``), as many kernel calls
    as ``phi_power`` composing and then acting, with no composition between;
    on a Z_m platform's window table, one map product per nonzero digit.
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
