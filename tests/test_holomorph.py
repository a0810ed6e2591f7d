"""Exponentiation engine: oracle equivalence, composition law, telescoping."""

import itertools

import pytest

import sdpke.matrices as mx
from sdpke.errors import ParameterError
from sdpke.holomorph import (
    HolomorphPower,
    IteratedStarPower,
    Platform,
    TropicalStarPower,
    TwoSidedPower,
    holo_mul,
    sdp_exp,
    sdp_exp_naive,
    sequence_iter,
    telescoping_residual,
)
from sdpke.platforms import DhkeParams, groupring_inverse
from sdpke.semirings import IntegersMod, TropicalIntegers

from conftest import PLATFORM_GENERATORS

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
        h_inv = mx.inverse(h) if kind == "gl" else groupring_inverse(h)
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
