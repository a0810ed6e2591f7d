"""The two-party exchange and the derived public-key encryption scheme.

Both parties raise (g, phi) to a private exponent and transmit only the
carrier component; each then applies its private endomorphism power to the
peer's value and composes with its own.  The encryption scheme reuses the
same machinery: the recipient's public value blinds the message, and only
the holder of the private exponent can recompute the blinding factor.

Secrets (exponents, ephemeral keys, endomorphism powers) never appear in a
Transcript; a transcript is exactly the eavesdropper's view, plus an
optional ground-truth key in test mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .errors import ParameterError
from .holomorph import Platform, sdp_exp
from .matrices import Matrix
from .platforms import params_from_obj
from .semirings import _is_integer

TRANSCRIPT_SCHEMA = 1


@dataclass(frozen=True)
class KeyPair:
    """A private exponent with its public carrier value a_x."""

    exponent: int
    public_value: Matrix


@dataclass(frozen=True)
class Ciphertext:
    c1: Matrix
    c2: Matrix


def draw_exponent(rng: np.random.Generator, exponent_bits: int) -> int:
    """x uniform on [2, 2^exponent_bits); the range is empty below 2 bits and past int64 above 63."""
    if not (_is_integer(exponent_bits) and 2 <= exponent_bits <= 63):
        raise ParameterError(f"exponent bits must be an integer in [2, 63], got {exponent_bits!r}")
    return int(rng.integers(2, 1 << exponent_bits))


def keygen(platform: Platform, rng: np.random.Generator, exponent_bits: int = 16) -> KeyPair:
    """Draw x uniformly from [2, 2^exponent_bits) and publish a_x."""
    x = draw_exponent(rng, exponent_bits)
    return KeyPair(x, sdp_exp(platform, x).value)


def derive_key(platform: Platform, exponent: int, peer_value: Matrix, own_value: Matrix) -> Matrix:
    """Shared key phi^x(B) ∘ A from the private exponent x and both publics."""
    phi_x = platform.phi.power(exponent)
    return platform.op(phi_x(peer_value), own_value)


@dataclass(frozen=True)
class Transcript:
    """One observed protocol run: parameters and the two exchanged values."""

    params: object
    alice_value: Matrix
    bob_value: Matrix
    shared_key: Matrix | None = None

    def build_platform(self) -> Platform:
        return self.params.build()

    def to_obj(self) -> dict:
        obj = {
            "schema": TRANSCRIPT_SCHEMA,
            "platform": self.params.to_obj(),
            "A": self.alice_value.to_obj(),
            "B": self.bob_value.to_obj(),
        }
        if self.shared_key is not None:
            obj["key"] = self.shared_key.to_obj()
        return obj

    @staticmethod
    def from_obj(obj: dict) -> Transcript:
        if obj.get("schema") != TRANSCRIPT_SCHEMA:
            raise ParameterError(f"unsupported transcript schema {obj.get('schema')!r}")
        params = params_from_obj(obj["platform"])
        ring = params.ring()

        def value(name: str) -> Matrix:
            m = mx.from_obj(ring, obj[name])
            if m.shape != (params.size, params.size):
                n = params.size
                raise ParameterError(f"transcript {name!r} is {m.rows}x{m.cols}, the platform needs {n}x{n}")
            return m

        return Transcript(
            params=params,
            alice_value=value("A"),
            bob_value=value("B"),
            shared_key=value("key") if "key" in obj else None,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json(text: str) -> Transcript:
        return Transcript.from_obj(json.loads(text))


def run_exchange(
    platform: Platform,
    rng: np.random.Generator,
    exponent_bits: int = 16,
    include_key: bool = False,
) -> tuple[Transcript, bool]:
    """One full exchange; returns the transcript and whether K_A == K_B."""
    alice = keygen(platform, rng, exponent_bits)
    bob = keygen(platform, rng, exponent_bits)
    k_alice = derive_key(platform, alice.exponent, bob.public_value, alice.public_value)
    k_bob = derive_key(platform, bob.exponent, alice.public_value, bob.public_value)
    agreed = k_alice == k_bob
    transcript = Transcript(
        params=platform.params,
        alice_value=alice.public_value,
        bob_value=bob.public_value,
        shared_key=k_alice if include_key else None,
    )
    return transcript, agreed


# ---------------------------------------------------------------------------
# public-key encryption on the invertible-carrier platform


def _require_invertible_carrier(platform: Platform):
    if platform.name not in ("gl", "dhke"):
        raise ParameterError(
            "encryption needs an invertible carrier; use the GL platform"
        )


def mr_encrypt(
    platform: Platform,
    public_key: Matrix,
    message: Matrix,
    rng: np.random.Generator,
    exponent_bits: int = 16,
) -> Ciphertext:
    """Encrypt under the recipient's public value a_n.

    Draws a fresh ephemeral exponent r, transmits c1 = a_r, and blinds the
    message as c2 = phi^r(a) c1 m.  r is consumed here and never stored.
    """
    _require_invertible_carrier(platform)
    r = draw_exponent(rng, exponent_bits)
    eph = sdp_exp(platform, r)
    c1 = eph.value
    c2 = eph.end(public_key) @ c1 @ message
    return Ciphertext(c1=c1, c2=c2)


def mr_decrypt(platform: Platform, exponent: int, public_key: Matrix, ct: Ciphertext) -> Matrix:
    """Recompute the blinding factor K = phi^n(c1) a and return K^-1 c2."""
    _require_invertible_carrier(platform)
    k = platform.op(platform.phi.power(exponent)(ct.c1), public_key)
    return mx.inverse(k) @ ct.c2
