"""Key recovery from public data only, checked against ground-truth keys."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpke.matrices as mx
from sdpke.attacks import (
    DIMENSION_ATTACK_CAP,
    AttackOutcome,
    WorkCounters,
    build_span_basis,
    dimension_attack,
    make_telescoping_attack,
    mobs_solution_count,
    mr_message_recovery,
    telescoped_conjugate,
    tropical_binsearch_attack,
    _build_l_matrix,
    _power_list,
)
from sdpke.errors import NotApplicableError, ParameterError, SizeCapError
from sdpke.groups import load_group
from sdpke.holomorph import sdp_exp, sequence_iter, telescoping_residual
from sdpke.linalg import EchelonSpan, rank_mod, solve_mod
from sdpke.permutations import Permutation
from sdpke.platforms import (
    DhkeParams,
    GLParams,
    GroupRingParams,
    MakeParams,
    MobsParams,
    TropicalParams,
    random_gl_params,
    random_groupring_params,
    random_make_params,
    random_mobs_params,
    random_tropical_params,
)
from sdpke.protocol import Transcript, derive_key, keygen, mr_encrypt
from sdpke.semirings import BitStrings, GroupRingScalars, IntegersMod, TropicalIntegers

from conftest import linear_platform


# ---------------------------------------------------------------------------
# dimension attack


def test_dimension_attack_dh_1x1(rng, transcript_with_exponents):
    p = DhkeParams(prime=101, generator=3).build()
    t = transcript_with_exponents(p, 29, 61)
    out = dimension_attack(t)
    assert out.success
    assert out.work.rank == 1  # every a_n is a scalar multiple of (g)


def test_dimension_attack_groupring(rng, transcript_with_exponents):
    for _ in range(15):
        p = random_groupring_params(rng).build()
        x, y = (int(v) for v in rng.integers(2, 1 << 16, 2))
        t = transcript_with_exponents(p, x, y)
        out = dimension_attack(t)
        assert out.success
        assert out.work.rank <= 54
        assert out.work.linear_solves == 1


def test_dimension_attack_gl(rng, transcript_with_exponents):
    for _ in range(15):
        p = random_gl_params(rng).build()
        x, y = (int(v) for v in rng.integers(2, 1 << 16, 2))
        t = transcript_with_exponents(p, x, y)
        out = dimension_attack(t)
        assert out.success
        assert out.work.rank <= 9


def test_dimension_attack_additive_platform(rng, transcript_with_exponents):
    # flatten embeds the additive carrier too; phi and +a_1 are linear maps
    for _ in range(10):
        p = random_make_params(rng, prime=101).build()
        x, y = (int(v) for v in rng.integers(2, 1 << 16, 2))
        t = transcript_with_exponents(p, x, y)
        out = dimension_attack(t)
        assert out.success


def test_dimension_attack_survives_big_primes(rng, transcript_with_exponents):
    # p = 2^31 - 1 exercises the overflow-safe object-dtype span arithmetic
    p = random_make_params(rng).build()
    t = transcript_with_exponents(p, 48611, 13297)
    out = dimension_attack(t)
    assert out.success


def test_dimension_attack_needs_linear_coordinates(rng, transcript_with_exponents):
    p = random_tropical_params(rng).build()
    t = transcript_with_exponents(p, 5, 9)
    with pytest.raises(NotApplicableError):
        dimension_attack(t)
    p = random_mobs_params(rng).build()
    t = transcript_with_exponents(p, 5, 9)
    with pytest.raises(NotApplicableError):
        dimension_attack(t)


def test_dimension_attack_refuses_a_size_32_a5_record_before_building_it():
    # D = 32^2 * 60 = 61440 coordinates: a (2, D+1, D) block of about 7.5e9 int64 entries
    group = load_group("a5")
    zero = mx.zeros(GroupRingScalars(group, 7), 32, 32)
    params = GroupRingParams(modulus=7, group=group, size=32, conjugator=zero, base=zero)
    t = Transcript(params=params, alice_value=zero, bob_value=zero)
    with pytest.raises(SizeCapError) as exc:
        dimension_attack(t)
    assert str(exc.value) == (
        "the dimension attack on 32x32 matrices of 60 coordinates per entry works in D = 61440 "
        f"and needs 2(D+1)D = 7549870080 entries (cap {DIMENSION_ATTACK_CAP})"
    )
    assert "_platform" not in vars(t)  # build_platform never ran


def _incremental_dimension_attack(transcript: Transcript) -> AttackOutcome:
    """The dimension attack one sequence term at a time: an echelon span grown to
    the first dependence, a second elimination for eta, a second walk for the key.
    The reference the block version must match in key, counters and detail."""
    platform = transcript.build_platform()
    modulus = platform.g.ring.modulus
    span, elements, vectors = EchelonSpan(modulus), [], []
    for _n, value in sequence_iter(platform):
        if not span.add(mx.flatten(value)):
            break
        elements.append(value)
        vectors.append(mx.flatten(value))
    work = WorkCounters(sequence_terms_generated=len(elements) + 1, rank=len(elements), linear_solves=1)
    a_obs, b_obs = transcript.alice_value, transcript.bob_value
    dim = mx.flatten(a_obs).size
    coords = np.stack(vectors, axis=1) if vectors else np.zeros((dim, 0), dtype=np.int64)  # rank 0 when g = 0
    eta = solve_mod(coords, mx.flatten(a_obs), modulus)
    if eta is None:
        return AttackOutcome(success=False, work=work, detail="A is outside the span of the sequence")
    additive = platform.op_kind == "add"
    phi_i_of_b, acc = b_obs, mx.zeros(platform.g.ring, *platform.g.shape)
    for pos, element in enumerate(elements):
        phi_i_of_b = platform.phi(phi_i_of_b)
        term = phi_i_of_b if additive else phi_i_of_b @ element
        acc = acc + term.scale(int(eta[pos]))
    if additive:
        acc = acc + a_obs + b_obs.scale((1 - int(np.sum(eta))) % modulus)
    verified = transcript.shared_key is None or acc == transcript.shared_key
    return AttackOutcome(success=verified, recovered_key=acc, work=work)


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["groupring-c2", "groupring-s3", "gl", "make", "dhke"]),
    genuine=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dimension_attack_equals_incremental_reference(kind, genuine, seed):
    # a random A lies outside the span unless the sequence spans everything (gl, dhke),
    # where it yields a key that fails verification
    rng = np.random.default_rng(seed)
    p = linear_platform(kind, rng)
    x, y = (int(v) for v in rng.integers(2, 1 << 16, 2))
    a = sdp_exp(p, x).value if genuine else p.random_element(rng)
    b = sdp_exp(p, y).value
    t = Transcript(params=p.params, alice_value=a, bob_value=b, shared_key=derive_key(p, y, a, b))
    out, ref = dimension_attack(t), _incremental_dimension_attack(t)
    assert (out.success, out.work, out.detail) == (ref.success, ref.work, ref.detail)
    assert out.recovered_key == ref.recovered_key
    assert out.success or not genuine


def test_dimension_attack_on_a_zero_base():
    # g = 0 makes every a_n zero: rank 0, and A = 0 is the one value on the sequence
    ring = IntegersMod(101)
    zero = mx.zeros(ring, 2, 2)
    params = MakeParams(prime=101, size=2, left_factor=zero, right_factor=zero, base=zero)
    b = mx.identity(ring, 2)
    out = dimension_attack(Transcript(params=params, alice_value=zero, bob_value=b))
    assert out.success and out.recovered_key == b and out.work.rank == 0
    out = dimension_attack(Transcript(params=params, alice_value=b, bob_value=b))
    assert not out.success and out.detail == "A is outside the span of the sequence"


def test_span_closes_after_first_dependence(rng):
    # once a term is dependent, every later term stays inside the span
    p = random_gl_params(rng).build()
    basis = build_span_basis(p)
    k = len(basis)
    span = EchelonSpan(1009)
    for v in basis:
        span.add(v)
    for n, value in sequence_iter(p):
        if n > 3 * k:
            break
        assert span.contains(mx.flatten(value))


# ---------------------------------------------------------------------------
# telescoping attack on the additive platform


def test_telescoping_attack_recovers_key(rng, transcript_with_exponents):
    for _ in range(15):
        p = random_make_params(rng, prime=101).build()
        x, y = (int(v) for v in rng.integers(2, 1 << 16, 2))
        t = transcript_with_exponents(p, x, y)
        out = make_telescoping_attack(t)
        assert out.success
        assert out.work.linear_solves >= 1


def test_telescoped_conjugate_equals_ground_truth(rng, transcript_with_exponents):
    for _ in range(10):
        params = random_make_params(rng, prime=101)
        p = params.build()
        x = int(rng.integers(2, 1 << 16))
        t = transcript_with_exponents(p, x, 7)
        d = telescoped_conjugate(t)
        assert d == p.phi.power(x)(params.base)  # = H1^x M H2^x


def test_telescoping_degree_one_case(rng, transcript_with_exponents):
    params = random_make_params(rng, prime=101)
    p = params.build()
    t = transcript_with_exponents(p, 1, 9)
    # x = 1: D = H1 M H2 exactly, solvable by the monomial solution
    assert telescoped_conjugate(t) == params.left_factor @ params.base @ params.right_factor
    assert make_telescoping_attack(t).success


def test_l_operator_is_additive_in_its_argument(rng):
    params = random_make_params(rng, prime=101)
    h1_pows = _power_list(params.left_factor, 3)
    h2_pows = _power_list(params.right_factor, 3)
    ring = params.ring()
    for _ in range(10):
        y = mx.random_matrix(rng, ring, 3, 3)
        z = mx.random_matrix(rng, ring, 3, 3)
        v = rng.integers(0, 101, 9)
        ly = _build_l_matrix(h1_pows, y, h2_pows)
        lz = _build_l_matrix(h1_pows, z, h2_pows)
        lyz = _build_l_matrix(h1_pows, y + z, h2_pows)
        assert np.array_equal((lyz @ v) % 101, ((ly @ v) + (lz @ v)) % 101)


def test_telescoping_off_sequence_value_fails():
    # H1 = H2 = 0 leaves D = M - A = -E, outside span{M} when E is no multiple of M
    ring = IntegersMod(101)
    zero = mx.zeros(ring, 2, 2)
    m = mx.from_rows(ring, [[1, 2], [3, 4]])
    params = MakeParams(prime=101, size=2, left_factor=zero, right_factor=zero, base=m)
    a = m + mx.from_rows(ring, [[1, 0], [0, 0]])
    out = make_telescoping_attack(Transcript(params=params, alice_value=a, bob_value=m))
    assert not out.success
    assert out.recovered_key is None
    assert out.work.linear_solves == 1
    assert "span" in out.detail


@st.composite
def telescoping_instances(draw):
    p = draw(st.sampled_from([101, 1009, 2**31 - 1]))
    n = draw(st.integers(2, 4))
    rows = st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    ring = IntegersMod(p)
    h1, h2, m = (mx.from_rows(ring, draw(rows)) for _ in range(3))
    return p, n, h1, h2, m


@settings(max_examples=30, deadline=None)
@given(telescoping_instances())
def test_telescoping_columns_close_at_degree_n(instance):
    # Cayley-Hamilton: the degree-n columns are a subset of the degree-n^2
    # ones, so equal rank means equal span and one solve decides the system
    p, n, h1, h2, m = instance
    low = _build_l_matrix(_power_list(h1, n), m, _power_list(h2, n))
    high = _build_l_matrix(_power_list(h1, n * n), m, _power_list(h2, n * n))
    assert rank_mod(low, p) == rank_mod(high, p)


def test_telescoping_not_applicable_elsewhere(rng, transcript_with_exponents):
    p = random_gl_params(rng).build()
    t = transcript_with_exponents(p, 5, 9)
    with pytest.raises(NotApplicableError):
        make_telescoping_attack(t)


# ---------------------------------------------------------------------------
# tropical binary search


def test_tropical_hand_example(transcript_with_exponents):
    ring = TropicalIntegers()
    params = TropicalParams(
        size=1, entry_lo=-10, entry_hi=10,
        star_matrix=mx.from_rows(ring, [[-1]]), base=mx.from_rows(ring, [[5]]),
    )
    p = params.build()
    t = transcript_with_exponents(p, 3, 6)
    out = tropical_binsearch_attack(t, x_max=64)
    assert out.success
    assert out.recovered_exponent == 3


def test_tropical_x_equals_one(rng, transcript_with_exponents):
    p = random_tropical_params(rng).build()
    t = transcript_with_exponents(p, 1, 12)
    out = tropical_binsearch_attack(t, x_max=1 << 10)
    assert out.success
    assert out.recovered_exponent == 1


def test_tropical_random_trials(rng, transcript_with_exponents):
    for _ in range(15):
        p = random_tropical_params(rng).build()
        x, y = (int(v) for v in rng.integers(2, 1 << 20, 2))
        t = transcript_with_exponents(p, x, y)
        out = tropical_binsearch_attack(t, x_max=1 << 20)
        assert out.success
        assert out.work.search_steps <= 20
        assert out.recovered_exponent is not None


def test_tropical_bounded_search_failure(rng, transcript_with_exponents):
    p = random_tropical_params(rng).build()
    t = transcript_with_exponents(p, 5000, 9)
    out = tropical_binsearch_attack(t, x_max=100)
    assert not out.success
    assert out.recovered_key is None
    assert "admissible" in out.detail


@pytest.mark.parametrize("x_max", [0, -5, (1 << 63) + 1])
def test_tropical_bound_outside_range_rejected(rng, transcript_with_exponents, x_max):
    p = random_tropical_params(rng).build()
    t = transcript_with_exponents(p, 5000, 9)
    with pytest.raises(ParameterError, match=r"x-max must be in \[1, 2\^63\]"):
        tropical_binsearch_attack(t, x_max=x_max)
    assert tropical_binsearch_attack(t, x_max=1 << 63).success


def test_tropical_incomparable_value_fails_after_one_probe(rng):
    p = random_tropical_params(rng).build()
    data = p.g.data.copy()
    data[0, 0] += 1  # above a_1 = g, hence above every term
    data[0, 1] = -(10**12)  # below every term up to x_max
    tampered = Transcript(params=p.params, alice_value=mx.Matrix(p.g.ring, data), bob_value=p.g)
    out = tropical_binsearch_attack(tampered, x_max=1 << 20)
    assert not out.success
    assert out.work.search_steps == 1
    assert "incomparable" in out.detail


def test_tropical_admissible_exponent_on_plateau(rng, transcript_with_exponents):
    # all-positive entries stabilize the sequence, so a smaller admissible
    # exponent is found; the derived key must still be the true key
    ring = TropicalIntegers()
    params = random_tropical_params(rng, size=3, entry_lo=1, entry_hi=10)
    p = params.build()
    x = 900
    t = transcript_with_exponents(p, x, 700)
    out = tropical_binsearch_attack(t, x_max=1 << 12)
    assert out.success
    assert out.recovered_exponent <= x
    assert sdp_exp(p, out.recovered_exponent).value == t.alice_value


@st.composite
def tropical_searches(draw):
    """A small tropical platform (plateaus included), a bound x_max and exponents x, y."""
    n = draw(st.integers(2, 3))
    rows = st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
    ring = TropicalIntegers()
    params = TropicalParams(
        size=n, entry_lo=-9, entry_hi=9,
        star_matrix=mx.from_rows(ring, draw(rows)), base=mx.from_rows(ring, draw(rows)),
    )
    x_max = draw(st.integers(1, 300))
    x = draw(st.one_of(st.integers(1, 400), st.integers(max(1, x_max - 2), x_max + 2)))
    y = draw(st.integers(1, 50))
    return params.build(), x_max, x, y


@settings(max_examples=60, deadline=None)
@given(tropical_searches())
def test_tropical_lifting_finds_first_matching_term(search):
    # the attack succeeds exactly when A is among a_1..a_x_max, and then
    # recovers the first n with a_n = A and the true key
    p, x_max, x, y = search
    a, b = sdp_exp(p, x).value, sdp_exp(p, y).value
    key = derive_key(p, x, b, a)
    t = Transcript(params=p.params, alice_value=a, bob_value=b, shared_key=key)
    first = next(n for n, value in sequence_iter(p) if n > x_max or value == a)
    out = tropical_binsearch_attack(t, x_max=x_max)
    assert out.work.search_steps <= x_max.bit_length()
    assert out.success == (first <= x_max)
    if out.success:
        assert out.recovered_exponent == first
        assert out.recovered_key == key
    else:
        assert out.recovered_key is None and "admissible" in out.detail


def test_tropical_not_applicable_elsewhere(rng, transcript_with_exponents):
    p = random_gl_params(rng).build()
    t = transcript_with_exponents(p, 5, 9)
    with pytest.raises(NotApplicableError):
        tropical_binsearch_attack(t)


# ---------------------------------------------------------------------------
# solution counting on the OR/AND platform


def test_mobs_worked_example_counts_4():
    ring = BitStrings(2)
    params = MobsParams(
        size=1, bits=2, bit_permutation=Permutation([1, 0]),
        base=mx.from_rows(ring, [["10"]]),
    )
    p = params.build()
    observed = sdp_exp(p, 2).value
    assert observed.to_obj() == [["00"]]
    out = mobs_solution_count(p, observed, true_exponent=2)
    assert out.work.solution_count == 4
    assert out.success


def test_mobs_identity_perm_all_ones_has_solutions(rng):
    ring = BitStrings(3)
    params = MobsParams(
        size=1, bits=3, bit_permutation=Permutation.identity(3),
        base=mx.from_rows(ring, [["111"]]),
    )
    p = params.build()
    observed = sdp_exp(p, 4).value
    out = mobs_solution_count(p, observed, true_exponent=4)
    assert out.success
    assert out.work.solution_count >= 1


def test_mobs_counts_random_instances(rng):
    counts = []
    for _ in range(20):
        params = random_mobs_params(rng, size=2, cycle_lengths=(3,))
        p = params.build()
        x = int(rng.integers(2, 1 << 16))
        observed = sdp_exp(p, x).value
        out = mobs_solution_count(p, observed, true_exponent=x)
        assert out.success  # count >= 1 and the true phi^x(M) solves it
        counts.append(out.work.solution_count)
    assert min(counts) >= 1


def _enumerated_solution_count(platform, observed) -> int:
    """Count every Y with h(A) M = Y A by trying all 2^(n^2 k) candidates, in chunks."""
    n = platform.g.rows
    k = platform.g.ring.length
    residual = telescoping_residual(platform, observed)
    # candidates run on k-bit integer masks: bit i of an entry has weight 2^i
    weights = 1 << np.arange(k, dtype=np.int64)
    target = residual.data @ weights
    a_data = observed.data @ weights
    shifts = (np.arange(n * n) * k).reshape(n, n)
    entry_mask = (1 << k) - 1
    count = 0
    total = 1 << (n * n * k)
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cands = (idx[:, None, None] >> shifts[None, :, :]) & entry_mask
        prods = np.bitwise_or.reduce(cands[:, :, :, None] & a_data[None, None, :, :], axis=2)
        count += int(np.sum(np.all(prods == target[None, :, :], axis=(1, 2))))
    return count


# cycle lists (a 1 is a fixed bit) with n^2 k <= 18, so the enumeration stays cheap
_CENSUS_CYCLES = {
    1: [[2], [3], [5], [1, 2], [2, 3], [2, 2, 5], [3, 5, 5], [1, 2, 3, 5, 5], [2, 3, 5, 5, 3]],
    2: [[2], [3], [1, 2], [2, 2], [1, 3]],
    3: [[1], [2], [1, 1]],
    4: [[1]],
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), x=st.integers(1, 1 << 16), genuine=st.booleans())
def test_mobs_count_equals_enumeration(data, seed, x, genuine):
    n = data.draw(st.sampled_from(sorted(_CENSUS_CYCLES)))
    cycles = data.draw(st.sampled_from(_CENSUS_CYCLES[n]))
    rng = np.random.default_rng(seed)
    p = random_mobs_params(rng, size=n, cycle_lengths=cycles).build()
    observed = sdp_exp(p, x).value if genuine else p.random_element(rng)  # a random A may have no solution
    out = mobs_solution_count(p, observed, true_exponent=x)
    assert out.work.solution_count == _enumerated_solution_count(p, observed)
    if genuine:
        assert out.success and out.work.solution_count >= 1


def test_mobs_count_at_the_cap_is_admitted(rng):
    p = random_mobs_params(rng, size=16, cycle_lengths=(1,)).build()  # 2^16 * 16^2 * 1 = 2^24 entries, the cap
    observed = sdp_exp(p, 40503).value
    start = time.perf_counter()
    out = mobs_solution_count(p, observed, true_exponent=40503)
    assert time.perf_counter() - start < 1.0  # 2^256 candidates: none is visited
    assert out.success and out.work.solution_count >= 1


def test_mobs_cap_refuses_one_past_the_cap(rng):
    p = random_mobs_params(rng, size=16, cycle_lengths=(2,)).build()  # 2^25 census entries
    with pytest.raises(SizeCapError) as exc:
        mobs_solution_count(p, p.g)
    assert str(exc.value) == (
        "the census of 16x16 matrices of 2-bit strings needs 2^16*16^2*2 = 33554432 entries (cap 16777216)"
    )


def test_mobs_cap_refuses_large_instances(rng):
    p = random_mobs_params(rng, size=16).build()  # 16x16 of 28-bit strings: 2^16 * 16^2 * 28 entries
    with pytest.raises(SizeCapError):
        mobs_solution_count(p, p.g)


def test_mobs_count_runs_on_the_default_platform(rng):
    # 3x3 of 28-bit strings: 2^252 candidates, but a census of 2^3 * 3^2 * 28 = 2016 entries
    p = random_mobs_params(rng).build()
    x = 40503
    observed = sdp_exp(p, x).value
    out = mobs_solution_count(p, observed, true_exponent=x)
    assert out.work.solution_count >= 1
    assert out.success  # the true phi^x(g) is one of the solutions
    y_true = p.phi.power(x)(p.g)
    assert y_true @ observed == telescoping_residual(p, observed)


def test_mobs_count_not_applicable_elsewhere(rng):
    p = random_gl_params(rng).build()
    with pytest.raises(NotApplicableError):
        mobs_solution_count(p, p.g)


# ---------------------------------------------------------------------------
# message recovery against the encryption scheme


def test_message_recovery_identity(rng):
    p = random_gl_params(rng).build()
    kp = keygen(p, rng)
    eye = mx.identity(p.g.ring, 3)
    ct = mr_encrypt(p, kp.public_value, eye, rng)
    assert mr_message_recovery(p, kp.public_value, ct) == eye


def test_message_recovery_random_trials(rng):
    for _ in range(15):
        p = random_gl_params(rng).build()
        kp = keygen(p, rng)
        msg = p.random_element(rng)
        ct = mr_encrypt(p, kp.public_value, msg, rng)
        assert mr_message_recovery(p, kp.public_value, ct) == msg


def test_message_recovery_runs_on_the_given_platform(rng, monkeypatch):
    # the attack runs on the caller's platform: no params record is built again during the call
    p = random_gl_params(rng).build()
    kp = keygen(p, rng)
    msg = p.random_element(rng)
    ct = mr_encrypt(p, kp.public_value, msg, rng)
    builds, build = [], GLParams.build
    monkeypatch.setattr(GLParams, "build", lambda params: builds.append(params) or build(params))
    assert mr_message_recovery(p, kp.public_value, ct) == msg
    assert builds == []
