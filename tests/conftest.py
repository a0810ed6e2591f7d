import numpy as np
import pytest

from sdpke.holomorph import WINDOW_BITS, sdp_exp
from sdpke.platforms import (
    DhkeParams,
    random_gl_params,
    random_groupring_params,
    random_make_params,
    random_mobs_params,
    random_tropical_params,
)
from sdpke.protocol import Transcript, derive_key

PLATFORM_GENERATORS = {
    "groupring": random_groupring_params,
    "gl": random_gl_params,
    "tropical": random_tropical_params,
    "make": lambda rng: random_make_params(rng, prime=101),
    "mobs": random_mobs_params,
}


def window_digits(n: int) -> set[tuple[int, int]]:
    """(j, d) for each nonzero digit d of window j of n in base 2^WINDOW_BITS: the window table entries
    a walk to n reads."""
    mask = (1 << WINDOW_BITS) - 1
    return {(j, n >> WINDOW_BITS * j & mask) for j in range(64) if n >> WINDOW_BITS * j & mask}


def linear_platform(kind: str, rng: np.random.Generator):
    """A fresh platform of one of the kinds the dimension attack applies to: "groupring-c2",
    "groupring-s3", "gl", "make" (over Z_101) or "dhke", at a random small size."""
    if kind == "dhke":
        return DhkeParams(prime=101, generator=int(rng.integers(2, 101))).build()
    if kind.startswith("groupring"):
        return random_groupring_params(rng, group=kind.split("-")[1], size=int(rng.integers(2, 4))).build()
    if kind == "gl":
        return random_gl_params(rng, size=int(rng.integers(2, 4))).build()
    return random_make_params(rng, prime=101, size=int(rng.integers(1, 4))).build()


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def fresh_platform():
    """Factory: fresh desk-scale platform of the given kind."""

    def make(kind: str, rng: np.random.Generator):
        return PLATFORM_GENERATORS[kind](rng).build()

    return make


@pytest.fixture
def transcript_with_exponents():
    """Factory: a ground-truth transcript for chosen secret exponents."""

    def make(platform, x: int, y: int) -> Transcript:
        a = sdp_exp(platform, x).value
        b = sdp_exp(platform, y).value
        key = derive_key(platform, x, b, a)
        assert key == derive_key(platform, y, a, b)
        return Transcript(params=platform.params, alice_value=a, bob_value=b, shared_key=key)

    return make
