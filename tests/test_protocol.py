"""Exchange round trips, transcript hygiene, and the encryption scheme."""

import numpy as np
import pytest

import sdpke.matrices as mx
from sdpke.errors import ParameterError
from sdpke.holomorph import sdp_exp
from sdpke.platforms import DhkeParams, GLParams
from sdpke.protocol import (
    Ciphertext,
    Transcript,
    derive_key,
    keygen,
    mr_decrypt,
    mr_encrypt,
    run_exchange,
)
from sdpke.semirings import IntegersMod

from conftest import PLATFORM_GENERATORS

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


def test_transcript_schema_version_checked():
    with pytest.raises(ParameterError, match="schema"):
        Transcript.from_obj({"schema": 99, "platform": {}, "A": [], "B": []})


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
    # conjugation is trivial on 1x1, so the scheme is textbook ElGamal:
    # g=3, n=2 -> a = 3^2 = 2;  r=3 -> c1 = 3^3 = 6, blind = a*c1 = 12 = 5
    ring = IntegersMod(7)
    params = GLParams(
        prime=7, size=1, conjugator=mx.from_rows(ring, [[2]]), base=mx.from_rows(ring, [[3]])
    )
    p = params.build(allow_commuting=True)
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
