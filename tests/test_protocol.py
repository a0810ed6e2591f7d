"""Exchange round trips, transcript hygiene, and the encryption scheme."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpke.matrices as mx
from sdpke import protocol
from sdpke.errors import ParameterError
from sdpke.holomorph import MAP_SWITCH_CALL, sdp_exp
from sdpke.platforms import DhkeParams
from sdpke.protocol import (
    Ciphertext,
    Transcript,
    derive_key,
    draw_exponent,
    keygen,
    mr_decrypt,
    mr_encrypt,
    run_exchange,
)
from sdpke.semirings import IntegersMod

from conftest import PLATFORM_GENERATORS, window_digits

ALL_KINDS = list(PLATFORM_GENERATORS)


def test_keygen_invariant_and_determinism(rng, fresh_platform):
    p = fresh_platform("gl", rng)
    kp = keygen(p, np.random.default_rng(5), exponent_bits=12)
    assert 2 <= kp.exponent < 4096
    assert kp.public_value == sdp_exp(p, kp.exponent).value
    again = keygen(p, np.random.default_rng(5), exponent_bits=12)
    assert again.exponent == kp.exponent
    assert again.public_value == kp.public_value


def test_keygen_rejects_tiny_exponent_space(rng, fresh_platform):
    p = fresh_platform("gl", rng)
    with pytest.raises(ParameterError):
        keygen(p, rng, exponent_bits=1)


def test_exponent_bits_bounded_on_both_sides(rng, fresh_platform):
    # 2^63 is the last exclusive bound an int64 draw can take
    p = fresh_platform("gl", rng)
    assert 2 <= keygen(p, rng, exponent_bits=63).exponent < 1 << 63
    public = keygen(p, rng).public_value
    for bits in (1, 64, 16.0):
        with pytest.raises(ParameterError):
            keygen(p, rng, exponent_bits=bits)
        with pytest.raises(ParameterError):
            mr_encrypt(p, public, p.g, rng, exponent_bits=bits)


def test_dh_special_case_hand_numbers():
    p = DhkeParams(prime=11, generator=2).build()
    a = sdp_exp(p, 3).value
    b = sdp_exp(p, 5).value
    assert int(a.data[0, 0]) == 8
    assert int(b.data[0, 0]) == 10
    k = derive_key(p, 3, b, a)
    assert int(k.data[0, 0]) == pow(2, 8, 11) == 3
    assert k == derive_key(p, 5, a, b)


def test_equal_exponents_agree_trivially(rng, fresh_platform):
    p = fresh_platform("tropical", rng)
    a = sdp_exp(p, 77).value
    assert derive_key(p, 77, a, a) == derive_key(p, 77, a, a)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_key_agreement_trials(kind, rng, fresh_platform):
    p = fresh_platform(kind, rng)
    for _ in range(25):
        _, agreed = run_exchange(p, rng, exponent_bits=16)
        assert agreed


@settings(deadline=None, max_examples=40)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1), bits=st.integers(2, 63))
def test_run_exchange_equals_keygen_and_derive_key(kind, seed, bits):
    # the exchange draws as two keygens draw, and each key is derive_key's for its own party
    p = PLATFORM_GENERATORS[kind](np.random.default_rng(seed)).build()
    transcript, agreed = run_exchange(p, np.random.default_rng([seed, 1]), bits, include_key=True)
    again = np.random.default_rng([seed, 1])
    alice, bob = keygen(p, again, bits), keygen(p, again, bits)
    assert transcript.alice_value == alice.public_value == sdp_exp(p, alice.exponent).value
    assert transcript.bob_value == bob.public_value == sdp_exp(p, bob.exponent).value
    k_alice = derive_key(p, alice.exponent, bob.public_value, alice.public_value)
    k_bob = derive_key(p, bob.exponent, alice.public_value, bob.public_value)
    assert transcript.shared_key == k_alice == k_bob
    assert agreed


def test_transcript_contains_no_secrets(rng, fresh_platform):
    p = fresh_platform("gl", rng)
    transcript, _ = run_exchange(p, rng, include_key=False)
    obj = transcript.to_obj()
    assert set(obj) == {"schema", "platform", "A", "B"}
    assert obj["schema"] == 1
    with_key, _ = run_exchange(p, rng, include_key=True)
    assert set(with_key.to_obj()) == {"schema", "platform", "A", "B", "key"}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_transcript_json_round_trip(kind, rng, fresh_platform):
    p = fresh_platform(kind, rng)
    transcript, _ = run_exchange(p, rng, include_key=True)
    again = Transcript.from_json(transcript.to_json())
    assert again.alice_value == transcript.alice_value
    assert again.bob_value == transcript.bob_value
    assert again.shared_key == transcript.shared_key
    assert again.params == transcript.params


def test_build_platform_is_kept_without_a_reference_cycle(rng, fresh_platform):
    # the attacks on one transcript share one build, and dropping the transcript frees it at once
    p = fresh_platform("make", rng)
    transcript = Transcript.from_json(run_exchange(p, rng)[0].to_json())
    platform = transcript.build_platform()
    assert transcript.build_platform() is platform
    assert platform.g == p.g and platform.phi == p.phi
    ref = weakref.ref(platform)
    gc.disable()
    try:
        del transcript, platform
        assert ref() is None
    finally:
        gc.enable()


def test_transcript_schema_version_checked():
    # the schema is the integer 1: a bool, a float or text equal to it is refused too
    for schema in (99, True, 1.0, "1"):
        with pytest.raises(ParameterError, match="schema"):
            Transcript.from_obj({"schema": schema, "platform": {}, "A": [], "B": []})


@pytest.mark.parametrize("field", ["A", "B", "key"])
def test_transcript_value_shape_must_match_platform(field, rng, fresh_platform):
    p = fresh_platform("tropical", rng)
    transcript, _ = run_exchange(p, rng, include_key=True)
    obj = transcript.to_obj()
    obj[field] = [row[:3] for row in obj[field][:3]]
    with pytest.raises(ParameterError, match=f"'{field}' is 3x3, the platform needs 5x5"):
        Transcript.from_obj(obj)
    dh = DhkeParams(prime=11, generator=2)
    with pytest.raises(ParameterError, match=f"'{field}' is 1x2, the platform needs 1x1"):
        Transcript.from_obj({"schema": 1, "platform": dh.to_obj(), "A": [[2]], "B": [[2]], "key": [[2]], field: [[2, 3]]})


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
def test_transcript_json_refuses_the_nonstandard_number_tokens(token):
    # Python's json reads these as floats; a tropical +inf entry is the text "inf", and no record holds a float
    text = '{"schema": 1, "platform": {"kind": "dhke", "prime": 11, "generator": 2}, "A": [[%s]], "B": [[2]]}'
    assert Transcript.from_json(text % "3").alice_value.data.tolist() == [[3]]
    with pytest.raises(ParameterError, match=f"JSON token {token} "):
        Transcript.from_json(text % token)


# ---------------------------------------------------------------------------
# encryption scheme


def test_encrypt_decrypt_identity_message(rng, fresh_platform):
    p = fresh_platform("gl", rng)
    kp = keygen(p, rng)
    eye = mx.identity(p.g.ring, 3)
    ct = mr_encrypt(p, kp.public_value, eye, rng)
    assert mr_decrypt(p, kp.exponent, kp.public_value, ct) == eye


def test_encrypt_decrypt_random_messages(rng, fresh_platform):
    p = fresh_platform("gl", rng)
    kp = keygen(p, rng)
    for _ in range(25):
        msg = p.random_element(rng)
        ct = mr_encrypt(p, kp.public_value, msg, rng)
        assert mr_decrypt(p, kp.exponent, kp.public_value, ct) == msg


def test_encrypt_is_the_holomorph_power_on_cold_and_warm_platforms(rng, fresh_platform, monkeypatch):
    # c1 = a_r and c2 = phi^r(a) c1 m, as sdp_exp would give them, before and past the platform's
    # switch to its window table; mr_encrypt itself calls carrier_power and apply_phi_power, not sdp_exp
    p = fresh_platform("gl", rng)
    kp = keygen(p, rng)
    monkeypatch.setattr(protocol, "sdp_exp", None)
    table_exponents = []
    for seed in range(2 * MAP_SWITCH_CALL):
        msg = p.random_element(rng)
        ct = mr_encrypt(p, kp.public_value, msg, np.random.default_rng(seed))
        r = draw_exponent(np.random.default_rng(seed), 16)
        eph = sdp_exp(dataclasses.replace(p), r)  # a cold copy takes the factored steps
        assert ct.c1 == eph.value and ct.c2 == eph.end(kp.public_value) @ eph.value @ msg
        assert mr_decrypt(p, kp.exponent, kp.public_value, ct) == msg
        # keygen is call 1 and each seed makes three: carrier_power(r) and apply_phi_power(r) to encrypt,
        # apply_phi_power(x) to decrypt, so seed s's calls are 3s + 2 .. 3s + 4
        calls = zip(range(3 * seed + 2, 3 * seed + 5), (r, r, kp.exponent))
        table_exponents += [x for call, x in calls if call >= MAP_SWITCH_CALL]
    # the later half ran on the table: exactly the entries of its exponents' nonzero digits
    assert table_exponents and p._maps.calls == MAP_SWITCH_CALL
    assert set(p._maps.table) == set().union(*map(window_digits, table_exponents))


def test_decrypt_with_wrong_exponent_garbles(rng, fresh_platform):
    p = fresh_platform("gl", rng)
    kp = keygen(p, rng, exponent_bits=16)
    hits = 0
    for _ in range(20):
        msg = p.random_element(rng)
        ct = mr_encrypt(p, kp.public_value, msg, rng)
        wrong = kp.exponent + 1
        if mr_decrypt(p, wrong, kp.public_value, ct) == msg:
            hits += 1
    assert hits == 0


def test_1x1_hand_example_mod_7():
    # conjugation is trivial on 1x1 matrices, so GL(1, 7) is the dhke platform and the
    # scheme is textbook ElGamal:
    # g=3, n=2 -> a = 3^2 = 2;  r=3 -> c1 = 3^3 = 6, blind = a*c1 = 12 = 5
    ring = IntegersMod(7)
    p = DhkeParams(prime=7, generator=3).build()
    a = sdp_exp(p, 2).value
    assert int(a.data[0, 0]) == 2
    c1 = sdp_exp(p, 3).value
    assert int(c1.data[0, 0]) == 6
    msg = mx.from_rows(ring, [[4]])
    eph = sdp_exp(p, 3)
    ct = Ciphertext(c1=c1, c2=eph.end(a) @ c1 @ msg)
    assert int(ct.c2.data[0, 0]) == (5 * 4) % 7
    out = mr_decrypt(p, 2, a, ct)
    assert out == msg


def test_encryption_requires_invertible_carrier(rng, fresh_platform):
    p = fresh_platform("tropical", rng)
    with pytest.raises(ParameterError, match="invertible"):
        mr_encrypt(p, p.g, p.g, rng)
