"""Exponentiation engine: oracle equivalence, composition law, telescoping."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import sdpke.holomorph as holomorph
import sdpke.matrices as mx
from sdpke.errors import ParameterError
from sdpke.holomorph import (
    Endomorphism,
    HolomorphPower,
    IdentityEnd,
    IteratedStarPower,
    PermutationPower,
    Platform,
    TropicalStarPower,
    TwoSidedPower,
    apply_phi_power,
    carrier_power,
    doubling_chain,
    holo_mul,
    phi_power,
    sdp_exp,
    sdp_exp_naive,
    sequence_block,
    sequence_iter,
    telescoping_residual,
)
from sdpke.matrices import Matrix
from sdpke.permutations import Permutation
from sdpke.groups import cyclic_group, load_group
from sdpke.platforms import (
    DhkeParams,
    random_gl_params,
    random_groupring_params,
    random_make_params,
    random_mobs_params,
    random_params,
    random_tropical_params,
)
from sdpke.protocol import derive_key, keygen
from sdpke.semirings import BitStrings, IntegersMod, TropicalIntegers

from conftest import PLATFORM_GENERATORS, linear_platform
from test_algebra import assert_canonical_data

ALL_KINDS = list(PLATFORM_GENERATORS)


def make_1x1_additive_platform():
    # p=7, M=3, H1=2, H2=4; the params constructor rightly refuses invertible
    # 1x1 factors, so assemble the platform by hand for arithmetic checks
    ring = IntegersMod(7)
    return Platform(
        name="make",
        op_kind="add",
        g=mx.from_rows(ring, [[3]]),
        phi=TwoSidedPower(mx.from_rows(ring, [[2]]), mx.from_rows(ring, [[4]])),
        sampler=lambda rng: mx.random_matrix(rng, ring, 1, 1),
    )


def test_platform_without_sampler_draws_g_shaped_matrices_over_g_ring(rng):
    ring = IntegersMod(1009)
    g = mx.random_matrix(rng, ring, 2, 3)
    platform = Platform(name="sample", op_kind="add", g=g, phi=IdentityEnd())
    x = platform.random_element(np.random.default_rng(5))
    assert x.ring == ring and x.shape == (2, 3)
    assert x == mx.random_matrix(np.random.default_rng(5), ring, 2, 3)


def test_exp_base_case(rng, fresh_platform):
    for kind in ALL_KINDS:
        p = fresh_platform(kind, rng)
        got = sdp_exp(p, 1)
        assert got.value == p.g
        assert got.end == p.phi
        assert got.exponent == 1


def test_exponent_zero_rejected(rng, fresh_platform):
    p = fresh_platform("gl", rng)
    with pytest.raises(ParameterError):
        sdp_exp(p, 0)
    with pytest.raises(ParameterError):
        sdp_exp_naive(p, 0)


def test_identity_automorphism_is_plain_powering():
    p = DhkeParams(prime=11, generator=2).build()
    assert int(sdp_exp(p, 5).value.data[0, 0]) == 10  # 2^5 = 32 = 10 mod 11
    for n in range(1, 30):
        assert int(sdp_exp(p, n).value.data[0, 0]) == pow(2, n, 11)


def test_1x1_additive_hand_example():
    p = make_1x1_additive_platform()
    # a_2 = M + H1 M H2 = 3 + 24 = 27 = 6 mod 7
    assert int(sdp_exp(p, 2).value.data[0, 0]) == 6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fast_exp_equals_naive(kind, rng, fresh_platform):
    p = fresh_platform(kind, rng)
    base = HolomorphPower(p.g, p.phi, 1)
    cur = base
    for n in range(1, 65):
        fast = sdp_exp(p, n)
        assert fast.value == cur.value
        assert fast.end == cur.end
        cur = holo_mul(p, cur, base)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_chain_power_over_a_longer_chain_equals_naive(kind, rng, fresh_platform):
    # a cached chain made for a larger exponent serves every smaller one
    p = fresh_platform(kind, rng)
    doubling_chain(p, 1 << 10)
    for n in range(1, 65):
        got, want = sdp_exp(p, n), sdp_exp_naive(p, n)
        assert (got.value, got.end, got.exponent) == (want.value, want.end, n)


def test_sdp_exp_holo_mul_count(rng, fresh_platform, monkeypatch):
    # holo_mul only squares the platform's cached chain, one squaring per level it does not hold yet
    # (bit_length - 1 on a fresh platform): sdp_exp makes no holomorph product of its own.  Past the
    # squarings, a_x is popcount - 1 carrier steps and phi^x popcount - 1 compositions; on a warm
    # chain carrier_power and keygen compose no endomorphism, and derive_key composes none either:
    # it acts on the peer's value with popcount(x) chain endomorphisms and makes one operation.
    # A step is a carrier_step until the platform's MAP_SWITCH_CALL-th carrier_power or
    # apply_phi_power call and one product with the level's step map S_m from it on; an action is
    # an Endomorphism.act, then a product with the level's phi map P_m.  The counts are the same.
    p = fresh_platform("gl", rng)
    end_kind = type(p.phi)
    squarings, products, steps, compositions, actions, ops = [], [], [], [], [], []
    factored_steps, mapped = [], []
    step, compose, act, op = holomorph.carrier_step, Endomorphism.compose, end_kind.act, Platform.op
    map_product = holomorph._map_product

    def counted(platform, x, y):
        (squarings if x is y else products).append(x.exponent)
        return holo_mul(platform, x, y)

    def counted_step(platform, level, data):
        steps.append(level.exponent)
        factored_steps.append(level.exponent)
        return step(platform, level, data)

    def counted_compose(end, other):
        compositions.append(other)
        return compose(end, other)

    def counted_act(end, data):
        actions.append(end)
        return act(end, data)

    def counted_map(ring, data, m):
        step_maps = [s for s, _ in p._maps.levels]
        (steps if any(m is s for s in step_maps) else actions).append(m)
        mapped.append(m)
        return map_product(ring, data, m)

    def counted_op(platform, a, b):
        ops.append(a)
        return op(platform, a, b)

    monkeypatch.setattr(holomorph, "holo_mul", counted)
    monkeypatch.setattr(holomorph, "carrier_step", counted_step)
    monkeypatch.setattr(holomorph, "_map_product", counted_map)
    monkeypatch.setattr(Endomorphism, "compose", counted_compose)
    monkeypatch.setattr(end_kind, "act", counted_act)
    monkeypatch.setattr(Platform, "op", counted_op)

    def counted_call(fn, *args):
        """fn(*args), and (squarings, other holo_mul products, carrier steps and compositions past
        the squarings' own, actions past the factored carrier steps' own, operations) made by it."""
        for made in (squarings, products, steps, compositions, actions, ops, factored_steps, mapped):
            made.clear()
        result = fn(*args)
        past_squarings = len(steps) - len(squarings), len(compositions) - len(squarings)
        past_steps = len(actions) - len(factored_steps)
        return result, (len(squarings), len(products), *past_squarings, past_steps, len(ops))

    def ones(m: int) -> int:
        return bin(m).count("1")

    n = 0x5555
    power, made = counted_call(sdp_exp, p, n)
    assert power.exponent == n and made == (n.bit_length() - 1, 0, ones(n) - 1, ones(n) - 1, 0, 0)
    assert not mapped and p._maps.calls == 1
    levels = n.bit_length()
    for m in [*range(1, 130), 1 << 40, (1 << 40) - 1, 0x5555_5555, 3, (1 << 63) - 1, 1 << 62]:
        power, made = counted_call(sdp_exp, p, m)
        assert power.exponent == m and made == (max(0, m.bit_length() - levels), 0, ones(m) - 1, ones(m) - 1, 0, 0), m
        # the squarings keep carrier_step; from the switch on, every step past them takes its level's map
        assert len(mapped) == (ones(m) - 1 if p._maps.calls >= holomorph.MAP_SWITCH_CALL else 0), m
        levels = max(levels, m.bit_length())
    assert levels == 63
    for m in [*range(1, 130), (1 << 40) - 1, 0x5555_5555, (1 << 63) - 1, 1 << 62]:
        assert counted_call(carrier_power, p, m)[1] == (0, 0, ones(m) - 1, 0, 0, 0), m
        assert not factored_steps and len(mapped) == ones(m) - 1
    for _ in range(20):
        alice, made_a = counted_call(keygen, p, rng, 63)
        bob, made_b = counted_call(keygen, p, rng, 63)
        assert (made_a, made_b) == ((0, 0, ones(alice.exponent) - 1, 0, 0, 0), (0, 0, ones(bob.exponent) - 1, 0, 0, 0))
        _, made = counted_call(derive_key, p, alice.exponent, bob.public_value, alice.public_value)
        assert made == (0, 0, 0, 0, ones(alice.exponent), 1) and len(mapped) == ones(alice.exponent)


#: primes for the Z_m map properties.  A map of k rows sums at most k (p-1)^2, stored in the narrowest
#: integer type that holds it, and past int64 on 16-bit limbs: at 679000019 a 3x3 GL carrier (D = 9)
#: stores its maps as int64 and a 3x3 Z_m[S_3] one (D = 54) as limbs, and from 2^31 - 1 on every carrier
#: with D > 2 takes limbs.  Every carrier with D <= MAP_MAX_COORDINATES takes maps at each of them.
_MAP_PRIMES = [2, 3, 7, 101, 1009, 65521, 679000019, 2**31 - 1, 3037000493]
#: exponents for the map properties: the sequential oracle's range, and every exponent below 2^63
_MAP_EXPONENTS = st.lists(st.one_of(st.integers(1, 300), st.integers(1, (1 << 63) - 1)), min_size=1, max_size=4)


def _assert_levels_from_switch_call(p: Platform, rng: np.random.Generator, exponents: list[int]) -> None:
    """p takes no levels before its MAP_SWITCH_CALL-th carrier_power or apply_phi_power call, three at it
    and one per bit of the largest exponent asked after it, and from it on carrier_power equals the
    sequential oracle (x <= 300) or a cold copy's factored steps, and apply_phi_power and derive_key
    phi's own square-and-multiply power, each in the ring's canonical form."""
    for call in range(1, holomorph.MAP_SWITCH_CALL):
        peer = p.random_element(rng)
        assert apply_phi_power(p, call, peer) == p.phi.power(call)(peer)
        assert (p._maps.calls, p._maps.levels) == (call, [])
    assert carrier_power(p, 6) == sdp_exp_naive(p, 6).value
    assert p._maps.calls == holomorph.MAP_SWITCH_CALL and len(p._maps.levels) == 3
    cold = dataclasses.replace(p)
    assert cold == p and (cold._maps.calls, cold._maps.levels, cold._chain) == (0, [], ())
    levels = 3
    for x in exponents:
        peer, own = p.random_element(rng), p.random_element(rng)
        value = sdp_exp_naive(p, x).value if x <= 300 else carrier_power(dataclasses.replace(p), x)
        image = p.phi.power(x)(peer)
        for got, want in (
            (carrier_power(p, x), value),
            (apply_phi_power(p, x, peer), image),
            (derive_key(p, x, peer, own), p.op(image, own)),
        ):
            assert got == want
            assert_canonical_data(p.g.ring, got.data)
        levels = max(levels, x.bit_length())  # the maps are built level by level, as far as asked
        assert len(p._maps.levels) == levels


def _map_entries(level_map: np.ndarray, limbs: bool) -> np.ndarray:
    """A level's k-row map as an object array of Python ints: as stored, or read from its 16-bit limbs."""
    k = level_map.shape[0]
    assert level_map.shape == ((k, 2 * k) if limbs else (k, k))
    entries = level_map.astype(object)
    if not limbs:
        return entries
    assert all(0 <= e < 1 << 16 for e in entries[:, :k].flat)
    return entries[:, :k] + (entries[:, k:] << 16)


def _assert_kronecker_maps(p: Platform) -> None:
    """Each level's maps of a two-sided phi^m(x) = L x R over Z_p, on 16-bit limbs exactly when the k-row
    sum k (p-1)^2 passes int64: P_m is vec(L x R) = vec(x) (L^T ⊗ R) row-major, numpy's Kronecker
    product on Python ints, and S_m is P_m times a_m under the matrix product and the homogeneous
    [[P_m, 0], [vec(a_m), 1]] under the matrix sum."""
    prime, size = p.g.ring.modulus, p.g.data.size
    for level, (step_map, phi_map) in zip(p._chain, p._maps.levels):
        left, right, value = (m.data.astype(object) for m in (level.end.left_pow, level.end.right_pow, level.value))
        phi_want = np.kron(left.T, right) % prime
        if p.op_kind == "mul":
            step_want = np.kron(left.T, right @ value % prime) % prime
        else:
            step_want = np.zeros((size + 1, size + 1), dtype=object)
            step_want[:size, :size], step_want[size, :size], step_want[size, size] = phi_want, value.reshape(-1), 1
        limbs = step_map.shape[0] * (prime - 1) ** 2 > np.iinfo(np.int64).max
        assert np.array_equal(_map_entries(phi_map, limbs), phi_want)
        assert np.array_equal(_map_entries(step_map, limbs), step_want)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["gl", "c2", "c3", "s3"]),
    prime=st.sampled_from(_MAP_PRIMES),
    size=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    exponents=_MAP_EXPONENTS,
)
def test_level_maps_equal_the_factored_steps_from_the_switch_call_on(kind, prime, size, seed, exponents):
    # a conjugation carrier takes the maps S_m and P_m exactly from its MAP_SWITCH_CALL-th carrier_power
    # or apply_phi_power call at every int64 modulus, on 16-bit limbs where a D-term sum passes int64;
    # its values then equal the sequential oracle and phi's own square-and-multiply power, at every
    # exponent below 2^63
    rng = np.random.default_rng(seed)
    if kind == "gl":
        assume(size > 1 and prime > 2)  # GL(1, p) is commutative, and GL(r, 2) draws a central H often
        p = random_gl_params(rng, prime=prime, size=size).build()
    else:
        group = cyclic_group(3) if kind == "c3" else load_group(kind)
        assume(size > 1 or kind == "s3")  # 1x1 matrices over an abelian group ring all commute
        p = random_groupring_params(rng, modulus=prime, group=group, size=size).build()
    coordinates = p.g.data.size
    assert coordinates <= holomorph.MAP_MAX_COORDINATES
    event(f"D = {coordinates}, {'limbs' if coordinates * (prime - 1) ** 2 >= 1 << 63 else 'one array'}")
    _assert_levels_from_switch_call(p, rng, exponents)
    if kind == "gl":
        _assert_kronecker_maps(p)


@settings(max_examples=40, deadline=None)
@given(
    prime=st.sampled_from([2, 7, 1009, 2**31 - 1, 3037000493]),
    size=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    exponents=_MAP_EXPONENTS,
)
def test_make_levels_equal_the_factored_steps_from_the_switch_call_on(prime, size, seed, exponents):
    # MAKE's affine step x -> L x R + a_m takes the homogeneous map [[P_m, 0], [vec(a_m), 1]] on vec(x)
    # with a coordinate 1 appended, and phi^m the map P_m, from the MAP_SWITCH_CALL-th call on, on
    # 16-bit limbs where a (D+1)-term sum passes int64 (2x2 and larger at 2^31 - 1, every size at
    # 3037000493); its values then equal the factored steps'
    rng = np.random.default_rng(seed)
    p = random_make_params(rng, prime=prime, size=size).build()
    event(f"D = {size * size}, {'limbs' if (size * size + 1) * (prime - 1) ** 2 >= 1 << 63 else 'one array'}")
    _assert_levels_from_switch_call(p, rng, exponents)
    _assert_kronecker_maps(p)


@pytest.mark.parametrize("kind", ["make", "mobs", "dhke", "groupring-a5"])
def test_other_carriers_stay_factored_past_the_switch(kind, rng):
    # an OR/AND step is no Z_m-linear map; MAKE at the prime 4294967291 stores Z_m as Python ints, which
    # no int64 map holds; plain DH's phi is the identity; and 1x1 Z_7[A_5] has D = 60 coordinates, past
    # MAP_MAX_COORDINATES
    if kind == "groupring-a5":
        p = random_groupring_params(rng, group="a5", size=1).build()
        assert p.g.data.size == 60 > holomorph.MAP_MAX_COORDINATES
    elif kind == "make":
        p = random_make_params(rng, prime=4294967291).build()
        assert p.g.ring.dtype is object
    else:
        p = random_params(kind, rng).build()
    for call in range(1, holomorph.MAP_SWITCH_CALL + 4):
        x = int(rng.integers(2, 1 << 16))
        peer = p.random_element(rng)
        value = carrier_power(p, x) if call % 2 else apply_phi_power(p, x, peer)
        assert value == (sdp_exp(dataclasses.replace(p), x).value if call % 2 else p.phi.power(x)(peer))
    assert (p._maps.calls, p._maps.levels) == (holomorph.MAP_SWITCH_CALL + 3, [])


#: tropical entry bounds for the level property: at ±50 and ±1000 a 16-bit walk stays on words and a
#: 63-bit one crosses into Python ints; at 2^56 and 2^59 the levels' bounds pass 2^62 within a few levels
_TROPICAL_BOUNDS = [50, 1000, 2**56, 2**59]
#: the lowest int64 tropical entry: a peer pressed against it leaves words at the first negative sum
_TROPICAL_LOWEST = -(2**62) + 1


def _tropical_platform(rng: np.random.Generator, size: int, bound: int, star_inf: bool) -> Platform:
    """A tropical platform of the given size with entries within ±bound; with star_inf, about 40% of the
    star matrix's entries past the first are +inf, so P_m = I ⊕ S_m is an object array."""
    params = random_tropical_params(rng, size=size, entry_lo=-bound, entry_hi=bound)
    if star_inf:
        star = [["inf" if rng.random() < 0.4 else int(e) for e in row] for row in params.star_matrix.data.tolist()]
        star[0][0] = int(params.star_matrix.data[0, 0])
        params = dataclasses.replace(params, star_matrix=mx.from_rows(TropicalIntegers(), star))
    return params.build()


#: the tropical property cases: sizes 1-5, every entry bound, with and without +inf star entries, and
#: exponents in the sequential oracle's range or anywhere below 2^63
_TROPICAL_CASES = dict(
    size=st.integers(1, 5),
    bound=st.sampled_from(_TROPICAL_BOUNDS),
    star_inf=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.one_of(st.integers(1, 300), st.integers(1, (1 << 63) - 1)), min_size=1, max_size=4),
)


@settings(max_examples=40, deadline=None)
@given(**_TROPICAL_CASES)
def test_tropical_levels_equal_the_factored_steps_from_the_switch_call_on(size, bound, star_inf, seed, exponents):
    # the tropical carrier takes the levels (P_m, S_m, bound) from its MAP_SWITCH_CALL-th carrier_power
    # or apply_phi_power call on; its values then equal the sequential oracle, a cold copy's factored
    # walk and phi's own square-and-multiply power at every exponent below 2^63, stored as those are:
    # on words only where the start's and the levels' bounds prove every sum exact
    rng = np.random.default_rng(seed)
    ring = TropicalIntegers()
    p = _tropical_platform(rng, size, bound, star_inf)
    for call in range(1, holomorph.MAP_SWITCH_CALL):
        peer = p.random_element(rng)
        assert apply_phi_power(p, call, peer) == p.phi.power(call)(peer)
        assert (p._maps.calls, p._maps.levels) == (call, [])
    assert carrier_power(p, 6) == sdp_exp_naive(p, 6).value
    assert p._maps.calls == holomorph.MAP_SWITCH_CALL and len(p._maps.levels) == 3
    levels = 3
    for x in exponents:
        want = sdp_exp_naive(p, x).value if x <= 300 else carrier_power(dataclasses.replace(p), x)
        got = carrier_power(p, x)
        assert got == want and got.data.dtype == want.data.dtype
        assert_canonical_data(ring, got.data)
        edge = mx.random_matrix(rng, ring, size, size, lo=_TROPICAL_LOWEST, hi=_TROPICAL_LOWEST + 8)
        for peer in (p.random_element(rng), edge):
            own, image = p.random_element(rng), p.phi.power(x)(peer)
            for got, want in ((apply_phi_power(p, x, peer), image), (derive_key(p, x, peer, own), p.op(image, own))):
                assert got == want and got.data.dtype == want.data.dtype
                assert_canonical_data(ring, got.data)
        levels = max(levels, x.bit_length())
        assert len(p._maps.levels) == levels
    # a level holds its phi^m on every value, the +inf matrix too
    values = (p.random_element(rng).data, ring.zeros(size, size))
    for level, (p_m, s_m, level_bound) in zip(p._chain, p._maps.levels):
        for x in values:
            assert np.array_equal(ring.add(ring.matmul(x, p_m), s_m), level.end.act(x))
        finite = all(a.dtype == np.int64 for a in (p_m, s_m))
        assert level_bound == (max(abs(int(e)) for a in (p_m, s_m) for e in a.flat) if finite else None)
    event(f"levels on words: {sum(b is not None for *_, b in p._maps.levels)} of {levels}")


@settings(max_examples=40, deadline=None)
@given(**_TROPICAL_CASES)
def test_tropical_carrier_power_is_phi_power_of_g(size, bound, star_inf, seed, exponents):
    # phi(x) = x ⋆ H <= x entrywise and a_k <= g, so a_(k+1) = phi(a_k) ⊕ g is phi(a_k) and
    # a_n = phi^(n-1)(g): on a cold copy's factored walk and past MAP_SWITCH_CALL on the levels alike
    rng = np.random.default_rng(seed)
    ring = TropicalIntegers()
    p = _tropical_platform(rng, size, bound, star_inf)
    for _ in range(1, holomorph.MAP_SWITCH_CALL):
        assert carrier_power(p, 1) == p.g
    for x in [1, *exponents, (1 << 63) - 1]:
        cold = dataclasses.replace(p)
        want = apply_phi_power(cold, x - 1, cold.g)
        for got in (carrier_power(cold, x), carrier_power(p, x), apply_phi_power(p, x - 1, p.g)):
            assert got == want and got.data.dtype == want.data.dtype
            assert_canonical_data(ring, got.data)
    assert p._maps.calls > holomorph.MAP_SWITCH_CALL and len(p._maps.levels) == 63


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_negative_phi_powers_are_refused(kind, rng, fresh_platform):
    # phi^0 is the identity; a negative power is refused with Endomorphism.power's wording
    p = fresh_platform(kind, rng)
    x = p.random_element(rng)
    with pytest.raises(ParameterError, match="endomorphism powers are nonnegative"):
        apply_phi_power(p, -1, x)
    with pytest.raises(ParameterError, match="endomorphism powers are nonnegative"):
        phi_power(p, -1)
    assert apply_phi_power(p, 0, x) == x and phi_power(p, 0) == IdentityEnd()


def _count_level_moves(p: Platform, rng, monkeypatch, end_kind: type, move: str) -> list[tuple]:
    """Run 12 exchanges at 16 and 63 bits on p's warm chain and check each keygen and derive_key call:
    popcount - 1 carrier_step (each with its end_kind.act) per keygen, on the tropical carrier popcount - 1
    acts and no carrier_step (a_n = phi^(n-1)(g) there), and popcount acts per derive before the
    platform's MAP_SWITCH_CALL-th carrier_power or apply_phi_power call, and from it on popcount - 1 and
    popcount level moves (``holomorph.<move>``), with no carrier_step and no act.
    Returns the arguments of every level move."""
    doubling_chain(p, 1 << 63)
    steps, actions, moves, all_moves = [], [], [], []
    step, act, level_move = holomorph.carrier_step, end_kind.act, getattr(holomorph, move)
    keygen_steps = 0 if end_kind is TropicalStarPower else 1

    def counted_step(platform, level, data):
        steps.append(level)
        return step(platform, level, data)

    def counted_act(end, data):
        actions.append(end)
        return act(end, data)

    def counted_move(*args):
        moves.append(args)
        return level_move(*args)

    monkeypatch.setattr(holomorph, "carrier_step", counted_step)
    monkeypatch.setattr(end_kind, "act", counted_act)
    monkeypatch.setattr(holomorph, move, counted_move)

    def counted_call(fn, *args):
        """fn(*args), the (carrier steps, actions, level moves) made by it, and whether it ran from the switch on."""
        for made in (steps, actions, moves):
            made.clear()
        result = fn(*args)
        all_moves.extend(moves)
        return result, (len(steps), len(actions), len(moves)), p._maps.calls >= holomorph.MAP_SWITCH_CALL

    def ones(m: int) -> int:
        return bin(m).count("1")

    for bits in [16, 63] * 6:
        pairs = []
        for _ in range(2):
            pair, made, switched = counted_call(keygen, p, rng, bits)
            k = ones(pair.exponent)
            assert made == ((0, 0, k - 1) if switched else (keygen_steps * (k - 1), k - 1, 0))
            pairs.append(pair)
        alice, bob = pairs
        _, made, switched = counted_call(derive_key, p, alice.exponent, bob.public_value, alice.public_value)
        k = ones(alice.exponent)
        assert made == ((0, 0, k) if switched else (0, k, 0))
    assert p._maps.calls == 36
    return all_moves


def test_tropical_level_move_count(rng, fresh_platform, monkeypatch):
    # a tropical level move is x ⊗ P_m ⊕ S_m in a keygen and a derive alike, on words or on Python ints:
    # both occur
    p = fresh_platform("tropical", rng)
    moves = _count_level_moves(p, rng, monkeypatch, TropicalStarPower, "_tropical_move")
    word_moves = [words for *_, words in moves]
    assert True in word_moves and False in word_moves


def test_make_level_move_count(rng, monkeypatch):
    # a MAKE level move on the default platform over Z_(2^31 - 1) is one product with a map held on
    # 16-bit limbs: the homogeneous S_m in a keygen, P_m in a derive
    p = random_make_params(rng).build()
    moves = _count_level_moves(p, rng, monkeypatch, TwoSidedPower, "_map_product")
    size = p.g.data.size
    assert {level_map.shape for _, _, level_map in moves} == {(size + 1, 2 * size + 2), (size, 2 * size)}


def _small_platform(kind: str, seed: int) -> Platform:
    rng = np.random.default_rng(seed)
    if kind == "dhke":
        return DhkeParams(prime=101, generator=int(rng.integers(2, 101))).build()
    return PLATFORM_GENERATORS[kind](rng).build()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([*ALL_KINDS, "dhke"]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(
            st.integers(1, 64),
            st.integers(0, (1 << 63) - 1),
            st.one_of(st.integers(-2, 70), st.integers(1, 1 << 64)),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_cached_chain_serves_every_power(kind, seed, steps):
    # one platform, exponents and limits rising and falling: whatever the cache holds, every
    # power taken from it, packed or not, equals the uncached computation, and a chain is the
    # prefix asked for
    p = _small_platform(kind, seed)
    rng = np.random.default_rng(seed)
    for n, x, limit in steps:
        got, want = sdp_exp(p, n), sdp_exp_naive(p, n)
        assert (got.value, got.end, got.exponent) == (want.value, want.end, n)
        assert carrier_power(p, n) == want.value
        peer, own = p.random_element(rng), p.random_element(rng)
        assert apply_phi_power(p, x, peer) == p.phi.power(x)(peer)
        assert derive_key(p, x, peer, own) == p.op(p.phi.power(x)(peer), own)
        chain = doubling_chain(p, limit)
        assert [level.exponent for level in chain] == ([1 << i for i in range(64) if 1 << i < limit] or [1])
        assert chain == p._chain[: len(chain)]
        assert len(p._chain) <= holomorph.MAX_CHAIN_LEVELS == 64


def test_chain_past_64_levels_is_refused():
    p = DhkeParams(prime=101, generator=3).build()
    assert len(doubling_chain(p, 1 << 64)) == 64
    with pytest.raises(ParameterError, match="at most 64 levels"):
        doubling_chain(p, (1 << 64) + 1)
    assert len(p._chain) == 64


def test_replaced_platform_starts_with_an_empty_chain(rng, fresh_platform):
    p = fresh_platform("gl", rng)
    sdp_exp(p, 1000)
    assert len(p._chain) == 10
    q = dataclasses.replace(p, g=p.random_element(rng))
    assert q._chain == ()
    assert sdp_exp(q, 1000).value == sdp_exp_naive(q, 1000).value != sdp_exp(p, 1000).value
    assert [level.value for level in q._chain] == [sdp_exp_naive(q, 1 << i).value for i in range(10)]
    same = dataclasses.replace(p)  # the cache takes no part in equality
    assert same._chain == () and same == p


@pytest.mark.parametrize("kind", [*ALL_KINDS, "dhke"])
def test_sequence_iter_equals_holomorph_walk(kind, rng, fresh_platform):
    # one carrier step per term gives the values of the (a_n, phi^n) walk
    p = DhkeParams(prime=101, generator=3).build() if kind == "dhke" else fresh_platform(kind, rng)
    base = HolomorphPower(p.g, p.phi, 1)
    cur = base
    for n, value in itertools.islice(sequence_iter(p), 40):
        assert n == cur.exponent
        assert value == cur.value
        cur = holo_mul(p, cur, base)


def block_platform(kind: str, rng: np.random.Generator):
    """A ``linear_platform`` kind, or a small tropical or MOBS platform."""
    size = int(rng.integers(1, 4))
    if kind == "tropical":
        return random_tropical_params(rng, size=size, entry_lo=-50, entry_hi=50).build()
    if kind == "mobs":
        return random_mobs_params(rng, size=size, cycle_lengths=(2, 3)).build()
    return linear_platform(kind, rng)


@settings(deadline=None, max_examples=80)
@given(
    kind=st.sampled_from(["groupring-c2", "groupring-s3", "gl", "make", "dhke", "tropical", "mobs"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sequence_block_equals_sequence_iter(kind, seed, data):
    # term by term, from g and from a second start, for every count up to one past the
    # number of packed coordinates (the dimension, on the linear carriers)
    rng = np.random.default_rng(seed)
    p = block_platform(kind, rng)
    count = data.draw(st.integers(1, p.g.data.size + 1), label="count")
    other = p.random_element(rng)
    block = sequence_block(p, [p.g, other], count)
    assert block.shape == (2, count, *p.g.data.shape)
    for n, value in itertools.islice(sequence_iter(p), count):
        assert Matrix(p.g.ring, block[0, n - 1]) == value
    x = other
    for i in range(count):
        assert Matrix(p.g.ring, block[1, i]) == x
        x = telescoping_residual(p, x)


def _one_of_each_kind():
    ring, trop = IntegersMod(7), TropicalIntegers()
    h = mx.from_rows(ring, [[1, 2], [0, 1]])
    s = mx.from_rows(trop, [[0, 1], [2, 0]])
    return {
        "two-sided": TwoSidedPower(h, h),
        "conjugator": TwoSidedPower(mx.inverse(h), h),
        "star": TropicalStarPower(s),
        "iterated-star": IteratedStarPower(s, 2),
        "permutation": PermutationPower(Permutation([1, 2, 0])),
        "short-permutation": PermutationPower(Permutation([1, 0])),
    }


_END_KINDS = ["two-sided", "star", "iterated-star", "permutation"]


@pytest.mark.parametrize(
    "first,second",
    [(a, b) for a in _END_KINDS for b in _END_KINDS if a != b]
    + [("conjugator", "star"), ("permutation", "short-permutation"), ("short-permutation", "permutation")],
)
def test_compose_refuses_endomorphisms_of_different_kinds(first, second):
    # a 2-bit power after a 3-bit one made the index [0, 2], not a permutation of {0, 1};
    # the other order raised numpy's IndexError
    ends = _one_of_each_kind()
    with pytest.raises(ParameterError, match="different platforms"):
        ends[first].compose(ends[second])


def test_compose_accepts_the_identity_and_two_sided_powers_of_any_factors():
    # a conjugation H^-1 X H is a two-sided power like any L X R, so the two compose either way
    ends = _one_of_each_kind()
    for end in ends.values():
        assert end.compose(IdentityEnd()) is end
        assert IdentityEnd().compose(end) is end
    conj, two_sided = ends["conjugator"], ends["two-sided"]
    assert type(conj) is type(two_sided) is TwoSidedPower
    x = mx.from_rows(IntegersMod(7), [[3, 1], [4, 1]])
    assert conj.compose(two_sided)(x) == conj(two_sided(x))
    assert two_sided.compose(conj)(x) == two_sided(conj(x))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_composition_law(kind, rng, fresh_platform):
    p = fresh_platform(kind, rng)
    for _ in range(10):
        m = int(rng.integers(1, 1 << 10))
        n = int(rng.integers(1, 1 << 10))
        a_m = sdp_exp(p, m)
        a_n = sdp_exp(p, n)
        combined = p.op(a_n.end(a_m.value), a_n.value)
        assert combined == sdp_exp(p, m + n).value


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_key_agreement_kernel(kind, rng, fresh_platform):
    p = fresh_platform(kind, rng)
    for _ in range(10):
        x = int(rng.integers(1, 1 << 20))
        y = int(rng.integers(1, 1 << 20))
        a_x = sdp_exp(p, x)
        a_y = sdp_exp(p, y)
        k_a = p.op(a_x.end(a_y.value), a_x.value)
        k_b = p.op(a_y.end(a_x.value), a_y.value)
        assert k_a == k_b


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_telescoping_residual_matches_phix_of_g(kind, rng, fresh_platform):
    p = fresh_platform(kind, rng)
    for _ in range(20):
        x = int(rng.integers(1, 1 << 16))
        a_x = sdp_exp(p, x)
        lhs = telescoping_residual(p, a_x.value)
        rhs = p.op(a_x.end(p.g), a_x.value)
        assert lhs == rhs


def test_telescoping_residual_x1_is_a2(rng, fresh_platform):
    p = fresh_platform("gl", rng)
    assert telescoping_residual(p, p.g) == sdp_exp(p, 2).value


def test_telescoping_residual_additive_hand_example():
    p = make_1x1_additive_platform()
    a2 = sdp_exp(p, 2).value  # = 6
    # phi(A) + g = 2*6*4 + 3 = 51 = 2 mod 7; phi^2(g) + A = 192 + 6 = 2 mod 7
    res = telescoping_residual(p, a2)
    assert int(res.data[0, 0]) == 2
    assert res == p.op(p.phi.power(2)(p.g), a2)


def test_conjugation_closed_form(rng, fresh_platform):
    # a_m = H^-m (HM)^m on both conjugation platforms
    for kind in ("groupring", "gl"):
        p = fresh_platform(kind, rng)
        params = p.params
        h, m = params.conjugator, params.base
        h_inv = mx.inverse(h)
        hm_pow = h @ m
        h_inv_pow = h_inv
        for n in range(1, 33):
            assert sdp_exp(p, n).value == h_inv_pow @ hm_pow
            hm_pow = hm_pow @ (h @ m)
            h_inv_pow = h_inv_pow @ h_inv


def test_endomorphism_power_matches_repeated_application(rng, fresh_platform):
    for kind in ALL_KINDS:
        p = fresh_platform(kind, rng)
        v = p.random_element(rng)
        expect = v
        for n in range(1, 9):
            expect = p.phi(expect)
            assert p.phi.power(n)(v) == expect
        assert p.phi.power(0)(v) == v


def test_star_power_matches_iterated_star_oracle(rng):
    ring = TropicalIntegers()
    h = mx.random_matrix(rng, ring, 3, 3, lo=-20, hi=20)
    g = mx.random_matrix(rng, ring, 3, 3, lo=-20, hi=20)
    for n in range(1, 12):
        assert TropicalStarPower(h).power(n)(g) == IteratedStarPower(h, n)(g)


def _cycle_power(perm: Permutation, x: int) -> list[int]:
    """perm^x in one-line notation: each point moves x mod its cycle's length steps along its cycle."""
    image = [0] * len(perm)
    for cyc in perm.cycles():
        for pos, i in enumerate(cyc):
            image[i] = cyc[(pos + x) % len(cyc)]
    return image


def test_mobs_phi_power_matches_the_cycle_oracle(rng):
    params = random_mobs_params(rng)
    p = params.build()
    perm = params.bit_permutation
    order = perm.order()
    a, b = p.random_element(rng), p.random_element(rng)
    xs = [1, 2, 3, order, order + 1, (1 << 63) - 1, *(int(v) for v in rng.integers(2, 1 << 62, 8))]
    for x in xs:
        image = _cycle_power(perm, x)
        want = PermutationPower(Permutation(image))
        assert phi_power(p, x) == want
        assert p.phi.power(x) == want
        assert derive_key(p, x, b, a) == mx.permute_bits(b, Permutation(image)) @ a


def test_permutation_power_index_is_read_only(rng):
    index = random_mobs_params(rng).build().phi.index
    with pytest.raises(ValueError):
        index[0] = 1


def _foreign_operands():
    """(endomorphism, its own operand, operands it must refuse) for each kind of phi^n."""
    z7, z11 = IntegersMod(7), IntegersMod(11)
    h = mx.from_rows(z7, [[1, 2], [0, 3]])
    z7_x, z11_x = mx.from_rows(z7, [[1, 0], [4, 6]]), mx.from_rows(z11, [[1, 0], [4, 6]])
    trop = mx.from_rows(TropicalIntegers(), [[1, 0], [4, 6]])
    bits = mx.from_rows(BitStrings(3), [["101", "011"], ["000", "111"]])
    short_bits = mx.from_rows(BitStrings(2), [["10", "01"], ["00", "11"]])
    long_bits = mx.from_rows(BitStrings(4), [["1010", "0110"], ["0001", "1111"]])
    return {
        "two-sided": (TwoSidedPower(h, h), z7_x, [z11_x, trop]),
        "conjugator": (TwoSidedPower(mx.inverse(h), h), z7_x, [z11_x, bits]),
        "star": (TropicalStarPower(trop), trop, [z11_x, bits]),
        "iterated-star": (IteratedStarPower(trop, 2), trop, [z7_x]),
        "permutation": (PermutationPower(Permutation([1, 2, 0])), bits, [short_bits, long_bits, z11_x]),
    }


@pytest.mark.parametrize("kind", list(_foreign_operands()))
def test_endomorphism_refuses_a_matrix_it_does_not_act_on(kind):
    # TwoSidedPower over Z_7 used to reduce a Z_11 matrix mod 7 and label it Z_11, and a
    # permutation longer than the bit length raised numpy's IndexError
    end, own, foreign = _foreign_operands()[kind]
    assert end(own).ring == own.ring
    for x in foreign:
        with pytest.raises(ParameterError):
            end(x)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_phi_power_refuses_a_matrix_of_the_wrong_shape(kind):
    # a peer one size off is a ParameterError, not numpy's reshape, core-dimension or broadcast
    # error: two-sided and star powers refuse it by their factor shape, and a bit permutation acts
    # entrywise on any shape, so on mobs only the operation with the own value refuses it
    p = PLATFORM_GENERATORS[kind](np.random.default_rng(1)).build()
    x = 0x5555
    own = p.random_element(np.random.default_rng(2))
    for size in (p.g.rows - 1, p.g.rows + 1):
        peer = mx.identity(p.g.ring, size)
        with pytest.raises(ParameterError):
            derive_key(p, x, peer, own)
        if isinstance(p.phi, PermutationPower):
            assert p.phi(peer).shape == peer.shape
            assert apply_phi_power(p, x, peer) == p.phi.power(x)(peer)
            continue
        with pytest.raises(ParameterError):
            p.phi(peer)
        with pytest.raises(ParameterError):
            apply_phi_power(p, x, peer)
