"""Constructor validation and per-platform structure checks."""

import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpke.matrices as mx
from sdpke.errors import ParameterError
from sdpke.groups import BUNDLED_GROUPS, FiniteGroupTable, cyclic_group, load_group
from sdpke.holomorph import Platform, TwoSidedPower, sdp_exp, validate_platform
from sdpke.matrices import Matrix
from sdpke.permutations import Permutation
from sdpke.platforms import (
    MAX_GROUPRING_SIDE,
    MAX_SIZE,
    PLATFORM_KINDS,
    GLParams,
    GroupRingParams,
    MakeParams,
    MobsParams,
    TropicalParams,
    _is_central,
    cycle_permutation,
    params_from_obj,
    random_gl_params,
    random_groupring_params,
    random_make_params,
    random_mobs_params,
    random_params,
    random_tropical_params,
)
from sdpke.semirings import BitStrings, GroupRingScalars, IntegersMod, TropicalIntegers

S3 = load_group("s3")


# ---------------------------------------------------------------------------
# group ring platform


def test_groupring_phi_fixes_identity(rng):
    p = random_groupring_params(rng).build()
    eye = mx.identity(p.g.ring, 3)
    assert p.phi(eye) == eye


def test_groupring_a5_platform_works(rng):
    # the original proposal's carrier, 3x3 over Z_7[A_5]: a 540-dimensional
    # ambient space that the dimension attack still breaks at desk speed
    from sdpke.attacks import dimension_attack
    from sdpke.protocol import run_exchange

    start = time.perf_counter()
    params = random_groupring_params(rng, group="a5")
    p = params.build()
    assert mx.flatten(p.g).shape == (540,)
    transcript, agreed = run_exchange(p, rng, exponent_bits=16, include_key=True)
    assert agreed
    assert dimension_attack(transcript).success
    assert time.perf_counter() - start < 12


def test_groupring_singular_conjugator_rejected(rng):
    ring = GroupRingScalars(S3, 7)
    params = GroupRingParams(
        modulus=7, group=S3, size=3, conjugator=mx.zeros(ring, 3, 3), base=mx.identity(ring, 3)
    )
    with pytest.raises(ParameterError, match="singular"):
        params.build()


def test_groupring_commuting_base_rejected(rng):
    good = random_groupring_params(rng)
    bad = GroupRingParams(
        modulus=7, group=S3, size=3, conjugator=good.conjugator, base=good.conjugator
    )
    with pytest.raises(ParameterError, match="commutes"):
        bad.build()


def test_groupring_composite_modulus_rejected(rng):
    ring = GroupRingScalars(S3, 6)
    params = GroupRingParams(
        modulus=6, group=S3, size=3, conjugator=mx.identity(ring, 3), base=mx.identity(ring, 3)
    )
    with pytest.raises(ParameterError, match="prime"):
        params.build()


def _zero_groupring_record(group: str, size: int) -> GroupRingParams:
    table = load_group(group)
    zero = mx.zeros(GroupRingScalars(table, 7), size, size)
    return GroupRingParams(modulus=7, group=table, size=size, conjugator=zero, base=zero)


@pytest.mark.parametrize("size", [9, 32])
def test_groupring_record_past_the_side_cap_refused_before_any_work(size):
    # a size-8 A_5 record (side 480) already takes seconds to draw and build
    message = f"size * |G| = {size} * 60 is past the group ring cap {MAX_GROUPRING_SIDE}"
    record = _zero_groupring_record("a5", size)
    start = time.perf_counter()
    with pytest.raises(ParameterError) as generated:
        random_groupring_params(np.random.default_rng(1), group="a5", size=size)
    with pytest.raises(ParameterError) as built:
        record.build()
    assert time.perf_counter() - start < 0.5
    assert str(generated.value) == str(built.value) == message


@pytest.mark.parametrize("group, size", [(g, MAX_SIZE) for g in BUNDLED_GROUPS if g != "a5"] + [("a5", 8)])
def test_groupring_side_cap_admits_every_other_bundled_group_up_to_max_size(group, size):
    # past the cap check, the zero conjugator fails as singular
    with pytest.raises(ParameterError, match="singular"):
        _zero_groupring_record(group, size).build()


# ---------------------------------------------------------------------------
# GL platform


@pytest.mark.parametrize("gen", [random_groupring_params, random_gl_params], ids=["groupring", "gl"])
def test_conjugation_power_rep_matches_explicit_powers(gen, rng):
    params = gen(rng)
    p = params.build()
    h = params.conjugator
    h_inv = mx.inverse(h)
    h_x, h_inv_x = h, h_inv
    for x in range(1, 65):
        assert p.phi.power(x)(p.g) == h_inv_x @ p.g @ h_x
        h_x, h_inv_x = h_x @ h, h_inv_x @ h_inv


def test_gl_default_size_is_3(rng):
    params = random_gl_params(rng)
    assert params.size == 3 and params.prime == 1009
    p = params.build()
    assert p.g.shape == (3, 3)
    assert mx.try_inverse(params.base) is not None


def test_gl_singular_conjugator_rejected():
    ring = IntegersMod(1009)
    params = GLParams(prime=1009, size=3, conjugator=mx.zeros(ring, 3, 3), base=mx.identity(ring, 3))
    with pytest.raises(ParameterError, match="singular"):
        params.build()


def test_gl_composite_modulus_rejected(rng):
    ring = IntegersMod(1000)
    params = GLParams(prime=1000, size=2, conjugator=mx.identity(ring, 2), base=mx.identity(ring, 2))
    with pytest.raises(ParameterError, match="prime"):
        params.build()


# ---------------------------------------------------------------------------
# a central conjugator commutes with every base, so the generators redraw it


@pytest.mark.parametrize(
    "kind,seed,kwargs,ring",
    [
        ("gl", 8, {"prime": 2, "size": 2}, IntegersMod(2)),
        ("groupring", 78, {"modulus": 2, "group": "c2", "size": 2}, GroupRingScalars(load_group("c2"), 2)),
    ],
)
def test_generator_redraws_a_central_conjugator(kind, seed, kwargs, ring):
    # the seed's first invertible draw is central (I over Z_2, a scalar unit over Z_2[C_2]), so no
    # base could be drawn on it: the call runs in a subprocess with a timeout, in case it never ends
    draws = np.random.default_rng(seed)
    candidates = iter(lambda: mx.random_matrix(draws, ring, 2, 2), None)
    assert _is_central(next(m for m in candidates if mx.try_inverse(m) is not None))
    call = f"random_params({kind!r}, np.random.default_rng({seed}), **{kwargs!r})"
    code = f"import numpy as np; from sdpke.platforms import random_params; {call}.build()"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert not _is_central(random_params(kind, np.random.default_rng(seed), **kwargs).conjugator)


def test_is_central_is_the_scalar_matrices_of_central_entries():
    z7 = IntegersMod(7)
    assert _is_central(mx.identity(z7, 3)) and _is_central(mx.from_rows(z7, [[5]]))
    assert not _is_central(mx.from_rows(z7, [[1, 1], [0, 1]]))
    assert not _is_central(mx.from_rows(z7, [[1, 0], [0, 2]]))
    ring = GroupRingScalars(S3, 7)
    central_entry = np.ones(S3.order, dtype=np.int64)  # the sum of all elements
    transposition = next(g for g in range(S3.order) if g != S3.identity and S3.product[g, g] == S3.identity)
    for entry, central in ((central_entry, True), (np.eye(S3.order, dtype=np.int64)[transposition], False)):
        data = np.zeros((2, 2, S3.order), dtype=np.int64)
        data[0, 0] = data[1, 1] = entry
        assert _is_central(Matrix(ring, data)) is central


def _is_central_by_probes(h: Matrix) -> bool:
    """The stacked-probe oracle for ``_is_central``: h commutes with each unit matrix E_ij and, over
    Z_m[G], with each group element times the identity, which generate every matrix as a ring."""
    ring, n = h.ring, h.rows
    probes = np.multiply.outer(np.eye(n * n, dtype=ring.dtype).reshape(-1, n, n), ring.identity(1)[0, 0])
    if isinstance(ring, GroupRingScalars):
        elements = np.multiply.outer(np.eye(ring.group.order, dtype=np.int64), np.eye(n, dtype=np.int64))
        probes = np.concatenate([probes, elements.transpose(0, 2, 3, 1)])
    return np.array_equal(ring.matmul(h.data, probes), ring.matmul(probes, h.data))


def _central_entry(ring, rng: np.random.Generator) -> np.ndarray:
    """A random central entry: any residue of Z_m, and over Z_m[G] a class function of G."""
    if not isinstance(ring, GroupRingScalars):
        return rng.integers(0, ring.modulus, size=())
    group = ring.group
    elements = np.arange(group.order)
    # conjugates[h, g] = h g h^-1, so a conjugacy class is labelled by its least element
    conjugates = group.product[group.product[elements[:, None], elements[None, :]], group.inverse[:, None]]
    return rng.integers(0, ring.modulus, size=group.order)[conjugates.min(axis=0)]


_CENTRALITY_RINGS = [IntegersMod(5), *(GroupRingScalars(load_group(name), 5) for name in ("c2", "s3", "a4"))]


@settings(max_examples=150, deadline=None)
@given(
    ring=st.sampled_from(_CENTRALITY_RINGS),
    size=st.integers(1, 3),
    form=st.sampled_from(["random", "scalar", "central", "perturbed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_is_central_agrees_with_the_probe_oracle(ring, size, form, seed):
    # random matrices, scalar matrices of any entry, c·I for a central c, and c·I with one entry moved
    draws = np.random.default_rng(seed)
    if form == "random":
        h = mx.random_matrix(draws, ring, size, size)
    else:
        c = _central_entry(ring, draws) if form != "scalar" else mx.random_matrix(draws, ring, 1, 1).data[0, 0]
        data = np.multiply.outer(np.eye(size, dtype=np.int64), c)
        if form == "perturbed":
            i, j = draws.integers(0, size, size=2)
            k = (int(draws.integers(0, ring.group.order)),) if isinstance(ring, GroupRingScalars) else ()
            data[(i, j, *k)] = (data[(i, j, *k)] + draws.integers(1, ring.modulus)) % ring.modulus
        h = Matrix(ring, data)
    assert _is_central(h) is _is_central_by_probes(h)
    if form == "central":
        assert _is_central(h)


def test_seeded_a4_size_32_groupring_draw_is_quick():
    # the centrality check of the conjugator draw is O(n^2 |G|), not a stack of n^2 + |G| products
    code = (
        "import time, numpy as np; from sdpke.platforms import random_groupring_params; t = time.perf_counter(); "
        "random_groupring_params(np.random.default_rng(1), group='a4', size=32); print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 10


# ---------------------------------------------------------------------------
# tropical platform


def test_tropical_phi_respects_min(rng):
    p = random_tropical_params(rng, size=4).build()
    for _ in range(20):
        g1 = p.random_element(rng)
        g2 = p.random_element(rng)
        assert p.phi(g1 + g2) == p.phi(g1) + p.phi(g2)


def test_tropical_1x1_sequence():
    ring = TropicalIntegers()
    params = TropicalParams(
        size=1,
        entry_lo=-10,
        entry_hi=10,
        star_matrix=mx.from_rows(ring, [[-1]]),
        base=mx.from_rows(ring, [[5]]),
    )
    p = params.build()
    assert [int(sdp_exp(p, n).value.data[0, 0]) for n in (1, 2, 3)] == [5, -1, -2]


def test_tropical_sequence_entrywise_nonincreasing(rng):
    from sdpke.holomorph import HolomorphPower, holo_mul

    p = random_tropical_params(rng).build()
    base = HolomorphPower(p.g, p.phi, 1)
    cur = base
    for _ in range(500):
        nxt = holo_mul(p, cur, base)
        assert np.all(nxt.value.data <= cur.value.data)
        cur = nxt


# ---------------------------------------------------------------------------
# additive platform


def test_make_exponent_one_is_base(rng):
    params = random_make_params(rng, prime=101)
    p = params.build()
    assert sdp_exp(p, 1).value == params.base


def test_make_matches_summation_oracle(rng):
    params = random_make_params(rng, prime=101)
    p = params.build()
    h1, h2, m = params.left_factor, params.right_factor, params.base
    acc = m
    h1_i, h2_i = h1, h2
    for n in range(1, 21):
        assert sdp_exp(p, n).value == acc
        acc = acc + (h1_i @ m @ h2_i)
        h1_i, h2_i = h1_i @ h1, h2_i @ h2


def test_make_composite_modulus_rejected():
    ring = IntegersMod(6)
    zero = mx.zeros(ring, 3, 3)
    params = MakeParams(prime=6, size=3, left_factor=zero, right_factor=zero, base=zero)
    with pytest.raises(ParameterError, match="not prime"):
        params.build()


def test_make_invertible_factor_rejected(rng):
    ring = IntegersMod(101)
    good = random_make_params(rng, prime=101)
    bad = MakeParams(
        prime=101,
        size=3,
        left_factor=mx.identity(ring, 3),
        right_factor=good.right_factor,
        base=good.base,
    )
    with pytest.raises(ParameterError, match="non-invertible"):
        bad.build()


def test_make_op_commutative_and_linear_in_base(rng):
    params = random_make_params(rng, prime=101)
    p = params.build()
    a, b = p.random_element(rng), p.random_element(rng)
    assert p.op(a, b) == p.op(b, a)
    # a_n is linear in the base element
    ring = params.ring()
    m1 = mx.random_matrix(rng, ring, 3, 3)
    m2 = mx.random_matrix(rng, ring, 3, 3)
    n = 17

    def a_n(base):
        q = MakeParams(
            prime=101, size=3, left_factor=params.left_factor,
            right_factor=params.right_factor, base=base,
        ).build()
        return sdp_exp(q, n).value

    assert a_n(m1 + m2) == a_n(m1) + a_n(m2)


# ---------------------------------------------------------------------------
# OR/AND platform


def test_mobs_identity_permutation_degenerates_to_dh(rng):
    ring = BitStrings(4)
    params = MobsParams(
        size=2, bits=4, bit_permutation=Permutation.identity(4),
        base=mx.random_matrix(rng, ring, 2, 2),
    )
    p = params.build()
    v = p.random_element(rng)
    assert p.phi(v) == v


def test_mobs_automorphism_order_is_product_of_primes(rng):
    params = random_mobs_params(rng)
    assert params.bit_permutation.order() == 2 * 3 * 5 * 7 * 11


def test_mobs_nonprime_cycle_rejected(rng):
    ring = BitStrings(4)
    params = MobsParams(
        size=2, bits=4, bit_permutation=cycle_permutation((4,)),
        base=mx.random_matrix(rng, ring, 2, 2),
    )
    with pytest.raises(ParameterError, match="prime"):
        params.build()


def test_mobs_key_agreement_10bit(rng):
    from sdpke.protocol import run_exchange

    params = random_mobs_params(rng, size=3, cycle_lengths=(2, 3, 5))
    assert params.bits == 10
    p = params.build()
    for _ in range(100):
        _, agreed = run_exchange(p, rng, exponent_bits=16)
        assert agreed


def test_mobs_or_monotonicity(rng):
    # ORing more bits into the base can only add bits to every sequence term
    params = random_mobs_params(rng, size=2, cycle_lengths=(2, 3))
    extra = mx.random_matrix(rng, params.ring(), 2, 2)
    richer = MobsParams(
        size=2, bits=params.bits, bit_permutation=params.bit_permutation,
        base=params.base + extra,
    )
    p0, p1 = params.build(), richer.build()
    for n in (1, 2, 3, 5, 9, 17):
        lo = sdp_exp(p0, n).value
        hi = sdp_exp(p1, n).value
        assert hi + lo == hi


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "gen",
    [
        random_groupring_params,
        random_gl_params,
        random_tropical_params,
        lambda rng: random_make_params(rng, prime=101),
        random_mobs_params,
    ],
    ids=["groupring", "gl", "tropical", "make", "mobs"],
)
def test_params_round_trip(gen, rng):
    params = gen(rng)
    again = params_from_obj(params.to_obj())
    assert again == params
    assert again.build().g == params.build().g


def _relabelled_s3() -> FiniteGroupTable:
    """S_3 with its elements renamed by a rotation of the indices, under the bundled name."""
    new = np.roll(np.arange(S3.order), 1)  # new[i] is the index element i gets
    product = np.empty_like(S3.product)
    product[np.ix_(new, new)] = new[S3.product]
    return FiniteGroupTable(product, name="s3")


def test_groupring_params_with_inline_group_table(rng):
    for table in (cyclic_group(5), _relabelled_s3()):
        params = random_groupring_params(rng, group=table, size=2)
        obj = params.to_obj()
        assert isinstance(obj["group"], dict)  # not a bundled name
        again = params_from_obj(obj)
        assert again.group == table
        assert again == params
        assert again.build().g == params.build().g


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError, match="unknown platform kind"):
        params_from_obj({"kind": "nope"})


def test_unknown_generator_override_rejected(rng):
    with pytest.raises(ParameterError, match="sise"):
        random_params("gl", rng, sise=5)


#: the smallest prime past 2^64: numpy draws no int64 integer below it
_PRIME_PAST_2_64 = 2**64 + 13


@pytest.mark.parametrize("kind", ["make", "gl", "dhke"])
def test_seeded_prime_past_2_63_refused_before_any_draw(kind):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match=rf"^a seeded prime must be below 2\^63, got {_PRIME_PAST_2_64}$"):
        random_params(kind, rng, prime=_PRIME_PAST_2_64)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "make", "size": 2, "H1": [[1, 1], [1, 1]], "H2": [[2, 0], [4, 0]], "g": [[0, 5], [7, 11]]},
        {"kind": "gl", "size": 2, "H": [[1, 1], [0, 1]], "g": [[1, 0], [1, 1]]},
        {"kind": "dhke", "generator": 3},
    ],
    ids=["make", "gl", "dhke"],
)
def test_explicit_record_at_a_prime_past_2_64_exchanges_on_object_storage(record, rng):
    from sdpke.protocol import run_exchange

    params = params_from_obj({**record, "prime": _PRIME_PAST_2_64})
    assert params.ring().dtype == object
    _, agreed = run_exchange(params.build(), rng, exponent_bits=16)
    assert agreed


# ---------------------------------------------------------------------------
# algebra laws (build() does not sample them: each holds by theorem)


@pytest.mark.parametrize("kind", PLATFORM_KINDS)
def test_default_platform_laws_hold_on_samples(kind, rng):
    platform = random_params(kind, rng).build()
    validate_platform(platform, rng, samples=8)


def test_validate_platform_rejects_non_multiplicative_phi(rng):
    # X -> H X H is no endomorphism of the matrix product: H XY H != HXH HYH
    params = random_gl_params(rng)
    h = params.conjugator
    platform = Platform(
        name="gl",
        op_kind="mul",
        g=params.base,
        phi=TwoSidedPower(h, h),
        sampler=lambda r: mx.random_matrix(r, params.ring(), 3, 3),
    )
    with pytest.raises(ParameterError, match="phi does not respect"):
        validate_platform(platform, rng, samples=8)
