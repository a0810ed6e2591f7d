"""Scalar and matrix arithmetic against independent brute-force oracles."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdpke.matrices as mx
from sdpke.errors import ParameterError, SingularMatrixError
from sdpke.groups import BUNDLED_GROUPS, cyclic_group, load_group
from sdpke.linalg import is_prime, rank_mod, rref_mod
from sdpke.matrices import Matrix
from sdpke.permutations import Permutation
from sdpke.semirings import (
    TROP_INF,
    BitStrings,
    GroupRingScalars,
    IntegersMod,
    TropicalIntegers,
    residue_products_fit_int64,
)

from oracles import BitString, GroupRingElement, TropicalScalar, ZMod, entry, from_scalars

S3 = load_group("s3")
C2 = cyclic_group(2)


# ---------------------------------------------------------------------------
# group ring scalars


def conv_oracle(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Independent double-loop convolution: out[f*g] += a[f] * b[g]."""
    out = [0] * a.group.order
    for f in range(a.group.order):
        for g in range(a.group.order):
            out[a.group.mul(f, g)] += int(a.coeffs[f]) * int(b.coeffs[g])
    return GroupRingElement(a.group, a.modulus, [c % a.modulus for c in out])


def test_delta_e_is_two_sided_identity():
    e = GroupRingElement.one(S3, 7)
    for g in range(S3.order):
        d = GroupRingElement.basis(S3, 7, g)
        assert e * d == d
        assert d * e == d


def test_c2_square_hand_example():
    # (e + g)^2 = 2e + 2g since g^2 = e
    x = GroupRingElement(C2, 7, [1, 1])
    assert list((x * x).coeffs) == [2, 2]


def test_convolution_matches_double_loop_oracle(rng):
    for _ in range(50):
        a = GroupRingElement(S3, 7, rng.integers(0, 7, S3.order))
        b = GroupRingElement(S3, 7, rng.integers(0, 7, S3.order))
        assert a * b == conv_oracle(a, b)


def test_group_ring_associative_exhaustive_z2c2():
    ring = [GroupRingElement(C2, 2, [i, j]) for i in range(2) for j in range(2)]
    e = GroupRingElement.one(C2, 2)
    for a in ring:
        assert e * a == a and a * e == a
        for b, c in itertools.product(ring, ring):
            assert (a * b) * c == a * (b * c)


def test_group_ring_associative_randomized(rng):
    for _ in range(1000):
        a, b, c = (GroupRingElement(S3, 7, rng.integers(0, 7, 6)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_mismatched_rings_rejected():
    a = GroupRingElement(S3, 7, np.zeros(6))
    b = GroupRingElement(S3, 5, np.zeros(6))
    c = GroupRingElement(C2, 7, np.zeros(2))
    with pytest.raises(ParameterError):
        a * b
    with pytest.raises(ParameterError):
        a + c


# ---------------------------------------------------------------------------
# tropical scalars


def test_trop_star_examples():
    assert TropicalScalar(0).star(TropicalScalar(0)) == TropicalScalar(0)
    assert TropicalScalar(3).star(TropicalScalar(-1)) == TropicalScalar(-1)
    assert TropicalScalar(-2).star(TropicalScalar(-3)) == TropicalScalar(-5)


def test_trop_inf_conventions():
    inf = TropicalScalar(TROP_INF)
    x = TropicalScalar(4)
    assert inf + x == x
    assert (inf * x).value == TROP_INF
    assert inf.star(x) == x


def test_trop_star_commutative_associative_distributive(rng):
    for _ in range(500):
        a, b, c = (TropicalScalar(int(v)) for v in rng.integers(-50, 50, 3))
        assert a.star(b) == b.star(a)
        assert a.star(b).star(c) == a.star(b.star(c))
        assert (a + b).star(c) == a.star(c) + b.star(c)


def test_trop_rejects_floats():
    with pytest.raises(ParameterError):
        TropicalScalar(1.5)


# ---------------------------------------------------------------------------
# matrix multiplication over each semiring


def matmul_oracle(a: Matrix, b: Matrix) -> Matrix:
    """Triple loop through scalar objects; independent of the packed kernels."""
    ring = a.ring
    out = [[None] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            acc = None
            for k in range(a.cols):
                term = entry(a, i, k) * entry(b, k, j)
                acc = term if acc is None else acc + term
            out[i][j] = acc
    return from_scalars(ring, out)


RINGS = [
    ("zmod", IntegersMod(7), {}),
    ("groupring", GroupRingScalars(S3, 7), {}),
    ("tropical", TropicalIntegers(), {"lo": -50, "hi": 50}),
    ("bits", BitStrings(5), {}),
]


@pytest.mark.parametrize("name,ring,kw", RINGS, ids=[r[0] for r in RINGS])
def test_matmul_matches_scalar_oracle(name, ring, kw, rng):
    for _ in range(10):
        r, k, c = (int(v) for v in rng.integers(1, 5, 3))
        a = mx.random_matrix(rng, ring, r, k, **kw)
        b = mx.random_matrix(rng, ring, k, c, **kw)
        assert a @ b == matmul_oracle(a, b)


@pytest.mark.parametrize("name,ring,kw", RINGS, ids=[r[0] for r in RINGS])
def test_matmul_associative(name, ring, kw, rng):
    for _ in range(250):
        n = int(rng.integers(1, 5))
        a, b, c = (mx.random_matrix(rng, ring, n, n, **kw) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


@pytest.mark.parametrize("name,ring,kw", RINGS, ids=[r[0] for r in RINGS])
def test_identity_matrix(name, ring, kw, rng):
    a = mx.random_matrix(rng, ring, 4, 4, **kw)
    eye = mx.identity(ring, 4)
    assert a @ eye == a
    assert eye @ a == a


def test_bitstring_matmul_disjoint_and():
    bs = BitStrings(2)
    assert mx.from_rows(bs, [["01"]]) @ mx.from_rows(bs, [["10"]]) == mx.from_rows(bs, [["00"]])


def test_mat_add_idempotent_over_bits(rng):
    bs = BitStrings(6)
    a = mx.random_matrix(rng, bs, 3, 3)
    assert a + a == a


def test_mat_star_scalar_case_and_formula(rng):
    t = TropicalIntegers()
    assert mx.from_rows(t, [[5]]).star(mx.from_rows(t, [[-1]])) == mx.from_rows(t, [[-1]])
    for _ in range(20):
        a = mx.random_matrix(rng, t, 2, 2, lo=-20, hi=20)
        b = mx.random_matrix(rng, t, 2, 2, lo=-20, hi=20)
        assert a.star(b) == (a + b) + (a @ b)


@st.composite
def tropical_triples(draw):
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-(10**6), 10**6), st.just(TROP_INF))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    ring = TropicalIntegers()
    return tuple(mx.from_rows(ring, draw(rows)) for _ in range(3))


@settings(deadline=None)
@given(tropical_triples())
def test_mat_star_associative(abc):
    # both sides expand to A + B + C + AB + AC + BC + ABC by distributivity;
    # TropicalStarPower collapses phi^n to one star on the strength of it
    a, b, c = abc
    assert a.star(b).star(c) == a.star(b.star(c))


#: tropical entries around the int64 storage bound 2^62, one kind per operand: int64 operands
#: (small, or just inside the bound, whose sums pass it) and object ones (across the bound,
#: past int64, or with +inf)
_TROP_BOUNDARY_ENTRIES = {
    "small": st.integers(-50, 50),
    "inside": st.one_of(st.integers(2**62 - 50, 2**62 - 1), st.integers(-(2**62) + 1, -(2**62) + 50)),
    "across": st.one_of(st.integers(2**62 - 3, 2**62 + 3), st.integers(-(2**62) - 3, -(2**62) + 3)),
    "past-int64": st.integers(-(2**70), 2**70),
    "with-inf": st.one_of(st.integers(-50, 50), st.just(TROP_INF)),
}


@settings(deadline=None, max_examples=200)
@given(
    kinds=st.tuples(*[st.sampled_from(sorted(_TROP_BOUNDARY_ENTRIES))] * 3),
    stacks=st.sampled_from([((), ()), ((2,), ()), ((), (2,)), ((2, 1), (1, 3))]),
    dims=st.tuples(*[st.integers(1, 3)] * 3),
    data=st.data(),
)
def test_tropical_kernels_match_the_scalar_oracle_across_the_word_bound(kinds, stacks, dims, data):
    # add, matmul and stacked matmul on int64, object and mixed operands against TropicalScalar
    # arithmetic on Python ints; every operand and result is in its one canonical dtype
    ring = TropicalIntegers()
    rows, k, cols = dims

    def operand(kind, shape, label):
        values = data.draw(st.lists(_TROP_BOUNDARY_ENTRIES[kind], min_size=math.prod(shape),
                                    max_size=math.prod(shape)), label=label)
        packed = ring.from_obj(np.array(values, dtype=object).reshape(shape))
        assert_canonical_data(ring, packed)
        return packed

    a = operand(kinds[0], (*stacks[0], rows, k), "a")
    b = operand(kinds[1], (*stacks[1], k, cols), "b")
    c = operand(kinds[2], a.shape, "c")

    total = ring.add(a, c)
    assert_canonical_data(ring, total)
    assert total.reshape(-1).tolist() == [(TropicalScalar(x) + TropicalScalar(y)).value
                                          for x, y in zip(a.reshape(-1).tolist(), c.reshape(-1).tolist())]

    out = ring.matmul(a, b)
    stack = np.broadcast_shapes(*stacks)
    assert out.shape == (*stack, rows, cols)
    assert_canonical_data(ring, out)
    a, b = np.broadcast_to(a, stack + a.shape[-2:]), np.broadcast_to(b, stack + b.shape[-2:])
    for idx in np.ndindex(*stack):
        assert Matrix(ring, out[idx]) == matmul_oracle(Matrix(ring, a[idx]), Matrix(ring, b[idx]))


@pytest.mark.parametrize(
    "a,b,product",
    [
        # int64 operands whose product passes 2^62: exact, in Python ints
        ([[2**62 - 1]], [[2**62 - 1]], [[2**63 - 2]]),
        ([[-(2**62) + 1, 0]], [[-(2**62) + 1], [5]], [[-(2**63) + 2]]),
        # an object operand, past int64, whose product comes back inside the bound: int64 again
        ([[2**70, 3]], [[-(2**70)], [4]], [[0]]),
        ([[TROP_INF, 3]], [[1], [TROP_INF]], [[TROP_INF]]),
    ],
    ids=["past-the-bound", "negative-past-the-bound", "back-inside", "inf"],
)
def test_tropical_product_storage_follows_its_values(a, b, product):
    ring = TropicalIntegers()
    out = mx.from_rows(ring, a) @ mx.from_rows(ring, b)
    assert out.to_obj() == [["inf" if x == TROP_INF else x for x in row] for row in product]
    assert_canonical(out)


def test_shape_and_ring_mismatches_rejected(rng):
    zm = IntegersMod(7)
    a = mx.random_matrix(rng, zm, 2, 3)
    b = mx.random_matrix(rng, zm, 2, 3)
    with pytest.raises(ParameterError):
        a @ b
    with pytest.raises(ParameterError):
        a + mx.random_matrix(rng, zm, 3, 2)
    with pytest.raises(ParameterError):
        a + mx.random_matrix(rng, IntegersMod(5), 2, 3)
    # Z_7[S_3] borrows Z_7's entry kernels but is another ring: unequal both ways, no subclass,
    # and no sum or product mixes its matrices with Z_7 matrices
    gr = GroupRingScalars(S3, 7)
    assert zm != gr and gr != zm
    assert not isinstance(gr, IntegersMod)
    z, g = mx.random_matrix(rng, zm, 2, 2), mx.random_matrix(rng, gr, 2, 2)
    for x, y in ((z, g), (g, z)):
        with pytest.raises(ParameterError):
            x + y
        with pytest.raises(ParameterError):
            x @ y


def test_object_zmod_round_trips_through_json():
    # m past 2^64: entries past every word are written and read back as Python ints
    ring = IntegersMod(2**64 + 13)
    assert ring.dtype == object
    m = mx.from_obj(ring, [[2**64 + 12, 0], [1, 2**63]])
    obj = m.to_obj()
    assert all(type(x) is int for row in obj for x in row)
    assert mx.from_obj(ring, json.loads(json.dumps(obj))) == m


def test_large_modulus_object_path(rng):
    big = IntegersMod(2**61 - 1)
    assert big.dtype == object
    a = mx.random_matrix(rng, big, 3, 3)
    b = mx.random_matrix(rng, big, 3, 3)
    assert a @ b == matmul_oracle(a, b)
    assert (a @ mx.identity(big, 3)) == a


#: the largest prime below 2^28
_PRIME_BELOW_2_28 = 2**28 - 57
#: the largest prime p with (p-1)^2 < 2^63, the largest prime IntegersMod stores as int64
_LARGEST_INT64_PRIME = 3037000493


def test_long_inner_dimension_does_not_overflow_int64():
    # k * (m-1)^2 exceeds 2^63: summed in int64 the k = 200 entry wraps to 267603855;
    # k = 300 exceeds 2^64 too, so the unsigned sums would wrap as well
    m = _PRIME_BELOW_2_28
    ring = IntegersMod(m)
    for k in (200, 300):
        a = mx.from_rows(ring, [[m - 1] * k])
        b = mx.from_rows(ring, [[m - 1]] * k)
        assert entry(a @ b, 0, 0).value == k


@settings(deadline=None, max_examples=30)
@given(
    shape=st.tuples(st.integers(1, 2), st.integers(1, 300), st.integers(1, 2)),
    modulus=st.integers(2**28 - 1000, 2**28),
    seed=st.integers(0, 2**32 - 1),
)
def test_zmod_matmul_near_int64_limit_matches_oracle(shape, modulus, seed):
    r, k, c = shape
    ring = IntegersMod(modulus)
    gen = np.random.default_rng(seed)
    # entries near m-1 make k * (m-1)^2 cross 2^63 from k = 128 on
    a = Matrix(ring, gen.integers(modulus - 1024, modulus, (r, k)))
    b = Matrix(ring, gen.integers(modulus - 1024, modulus, (k, c)))
    assert a @ b == matmul_oracle(a, b)


GROUPS = {name: load_group(name) for name in BUNDLED_GROUPS}
#: prime moduli from 2 up to the largest Z_m[G] admits, the largest prime Z_m stores as int64
_GROUPRING_MODULI = [2, 7, 1048573, _PRIME_BELOW_2_28, 2**31 - 1, _LARGEST_INT64_PRIME]


def test_groupring_modulus_is_refused_exactly_when_residue_products_overflow_int64():
    assert GroupRingScalars(S3, 3037000500).dtype is np.int64
    with pytest.raises(ParameterError, match="got 3037000501"):
        GroupRingScalars(S3, 3037000501)


def test_convolution_near_the_largest_int64_prime_matches_double_loop_oracle():
    # 60 products near (m-1)^2 ~ 2^63 each: summed unreduced in int64, the convolution wrapped
    m = _LARGEST_INT64_PRIME
    a5 = GROUPS["a5"]
    gen = np.random.default_rng(5)
    for _ in range(5):
        a, b = (GroupRingElement(a5, m, gen.integers(m - 1024, m, a5.order)) for _ in range(2))
        assert a * b == conv_oracle(a, b)


@settings(deadline=None, max_examples=60)
@given(
    group=st.sampled_from(BUNDLED_GROUPS),
    modulus=st.sampled_from(_GROUPRING_MODULI),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    near_top=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# inner dimension 3 * |A_5| = 180 is past _int64_inner_max (128) at 2^28-57: the unsigned path
@example(group="a5", modulus=_PRIME_BELOW_2_28, shape=(2, 3, 1), near_top=True, seed=0)
# inner dimension 5 * |A_5| = 300 is past _uint64_inner_max (256) as well: two unsigned blocks
@example(group="a5", modulus=_PRIME_BELOW_2_28, shape=(1, 5, 1), near_top=True, seed=3)
# inner dimension 2 * |A_5| = 120 is the int64 path with the largest terms it admits
@example(group="a5", modulus=_PRIME_BELOW_2_28, shape=(1, 2, 2), near_top=True, seed=1)
# more rows than columns gathers the right factor's right-regular blocks, at the same bound
@example(group="a5", modulus=_PRIME_BELOW_2_28, shape=(3, 2, 1), near_top=True, seed=2)
# past the old 2^28 cap: inner dimension 120 is the int64 path at 2^28+3 (_int64_inner_max 127) ...
@example(group="a5", modulus=2**28 + 3, shape=(1, 2, 2), near_top=True, seed=4)
# ... 60 is one unsigned product at 2^29-3 (int64 up to 32 terms, unsigned up to 64) ...
@example(group="a5", modulus=2**29 - 3, shape=(2, 1, 2), near_top=True, seed=5)
# ... and at the largest int64 prime a block holds 2 terms: 180 terms gathering the left factor,
# 120 gathering the right
@example(group="a5", modulus=_LARGEST_INT64_PRIME, shape=(1, 3, 2), near_top=True, seed=6)
@example(group="a5", modulus=_LARGEST_INT64_PRIME, shape=(3, 2, 1), near_top=True, seed=7)
def test_groupring_matmul_matches_scalar_oracle(group, modulus, shape, near_top, seed):
    ring = GroupRingScalars(GROUPS[group], modulus)
    r, k, c = shape
    gen = np.random.default_rng(seed)
    lo = max(0, modulus - 1024) if near_top else 0
    a = Matrix(ring, gen.integers(lo, modulus, (r, k, ring.group.order)))
    b = Matrix(ring, gen.integers(lo, modulus, (k, c, ring.group.order)))
    assert a @ b == matmul_oracle(a, b)


@pytest.mark.parametrize("tall_left", [True, False], ids=["tall-times-small", "small-times-tall"])
def test_tall_groupring_product_gathers_the_small_factor(tall_left):
    # a 1536x3 matrix over Z_7[A_5] times one 3x3 matrix, or one 3x3 matrix times
    # a stack of 512 3x3 matrices holding the same entries
    ring = GroupRingScalars(GROUPS["a5"], 7)
    gen = np.random.default_rng(4)
    tall = gen.integers(0, 7, (1536, 3, 60))
    small = gen.integers(0, 7, (3, 3, 60))
    a, b = (tall, small) if tall_left else (small, tall.reshape(512, 3, 3, 60))
    tracemalloc.start()
    try:
        out = ring.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the product and its reduction are two 2.1 MB arrays (with a 2.1 MB copy of the stack
    # when it is the right factor) and the regular blocks of the small factor 0.26 MB;
    # the regular blocks of the tall one would be 133 MB
    assert peak < 3 * out.nbytes + 2**20
    if tall_left:
        assert Matrix(ring, out[:2]) == matmul_oracle(Matrix(ring, tall[:2]), Matrix(ring, small))
    else:
        assert Matrix(ring, out[0]) == matmul_oracle(Matrix(ring, small), Matrix(ring, b[0]))


#: rings of the stacked-product property, each with the largest inner dimension k it draws
_STACKED_RINGS = {
    "zmod-7": (IntegersMod(7), 4),
    # k * (m-1)^2 passes 2^63 from k = 129 on (unsigned views) and 2^64 from k = 257 on
    # (unsigned blocks of at most 256 terms, each reduced mod m)
    "zmod-int64-limit": (IntegersMod(_PRIME_BELOW_2_28), 260),
    # the same three paths at k = 1-2, 3-4 and 5-6
    "zmod-uint64": (IntegersMod(2**31 - 1), 6),
    "zmod-object": (IntegersMod(2**61 - 1), 4),
    "groupring-s3": (GroupRingScalars(S3, 7), 3),
    # inner dimension k * |A_5| passes 128 from k = 3 on (unsigned) and 256 from k = 5 on (unsigned blocks)
    "groupring-a5": (GroupRingScalars(GROUPS["a5"], _PRIME_BELOW_2_28), 5),
    "tropical": (TropicalIntegers(), 4),
    "bits": (BitStrings(5), 4),
}


def _packed(gen, ring, rows: int, cols: int, stack=()) -> np.ndarray:
    """Random packed entries of shape stack + (rows, cols) + entry shape, near the top of Z_m."""
    shape = (*stack, rows, cols, *ring.entry_shape)
    if isinstance(ring, TropicalIntegers):
        return gen.integers(-50, 51, shape)
    if isinstance(ring, BitStrings):
        return gen.integers(0, 2, shape).astype(np.bool_)
    return gen.integers(max(0, ring.modulus - 1024), ring.modulus, shape).astype(ring.dtype)


#: (left, right) stack shapes: a stack on one side, or stacks on both sides that broadcast
_STACK_SHAPES = [
    *(((), stack) for stack in [(2,), (4,), (2, 3), (1, 2)]),
    *((stack, ()) for stack in [(2,), (4,), (2, 3), (1, 2)]),
    ((2,), (2,)), ((2, 1), (1, 3)), ((1,), (4,)), ((3, 1), (2,)),
]


@settings(deadline=None, max_examples=100)
@given(
    name=st.sampled_from(sorted(_STACKED_RINGS)),
    stacks=st.sampled_from(_STACK_SHAPES),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="zmod-int64-limit", stacks=((2,), ()), rows=2, cols=1, data=None, seed=0)
@example(name="zmod-int64-limit", stacks=((), (2, 3)), rows=1, cols=2, data=None, seed=1)
@example(name="groupring-a5", stacks=((2,), ()), rows=3, cols=1, data=None, seed=2)
@example(name="groupring-a5", stacks=((), (2, 3)), rows=1, cols=3, data=None, seed=3)
@example(name="groupring-a5", stacks=((2, 1), (1, 3)), rows=2, cols=1, data=None, seed=4)
@example(name="groupring-s3", stacks=((2,), (2,)), rows=2, cols=2, data=None, seed=5)
def test_stacked_matmul_matches_oracle_per_matrix(name, stacks, rows, cols, data, seed):
    # a stack of matrices times one matrix, one matrix times a stack, or two stacks that
    # broadcast: each matrix of the result is the scalar product of its own factors
    ring, k_max = _STACKED_RINGS[name]
    k = k_max if data is None else data.draw(st.integers(1, k_max), label="k")
    _assert_stacked_product_matches_oracle(ring, rows, k, cols, stacks, seed)


def _assert_stacked_product_matches_oracle(ring, rows: int, k: int, cols: int, stacks, seed: int):
    """Multiply random near-top stacks of the given shapes and check each matrix of the result."""
    gen = np.random.default_rng(seed)
    a, b = _packed(gen, ring, rows, k, stacks[0]), _packed(gen, ring, k, cols, stacks[1])
    out = ring.matmul(a, b)
    stack = np.broadcast_shapes(*stacks)
    assert out.shape == (*stack, rows, cols, *ring.entry_shape)
    assert_canonical_data(ring, out)
    a, b = np.broadcast_to(a, stack + a.shape[len(stacks[0]):]), np.broadcast_to(b, stack + b.shape[len(stacks[1]):])
    for idx in np.ndindex(*stack):
        assert Matrix(ring, out[idx]) == matmul_oracle(Matrix(ring, a[idx]), Matrix(ring, b[idx]))


#: moduli stored as int64 whose products sum in int64, on unsigned views and in unsigned blocks
#: as k grows, with their (int64, unsigned) inner-dimension bounds: the largest k with k (m-1)^2
#: below 2^63 and 2^64, the unsigned one also the block length
_WORD_BOUNDS = {
    _PRIME_BELOW_2_28: (128, 256),
    2**31 - 1: (2, 4),
    _LARGEST_INT64_PRIME: (1, 2),
}


@st.composite
def _word_modulus_and_inner_dimension(draw):
    modulus = draw(st.sampled_from(sorted(_WORD_BOUNDS)))
    return modulus, draw(st.integers(1, 2 * _WORD_BOUNDS[modulus][1] + 1), label="k")


@settings(deadline=None, max_examples=40)
@given(
    case=_word_modulus_and_inner_dimension(),
    stacks=st.sampled_from(_STACK_SHAPES),
    rows=st.integers(1, 2),
    cols=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
# k at the int64 bound, one past it (unsigned views), at the unsigned bound and one past it (two blocks)
@example(case=(_PRIME_BELOW_2_28, 128), stacks=((2,), ()), rows=1, cols=1, seed=0)
@example(case=(_PRIME_BELOW_2_28, 129), stacks=((), (2,)), rows=1, cols=1, seed=1)
@example(case=(_PRIME_BELOW_2_28, 256), stacks=((2,), ()), rows=1, cols=1, seed=2)
@example(case=(_PRIME_BELOW_2_28, 257), stacks=((), (2,)), rows=1, cols=1, seed=3)
@example(case=(2**31 - 1, 2), stacks=((2, 3), ()), rows=2, cols=2, seed=4)
@example(case=(2**31 - 1, 3), stacks=((), (2, 3)), rows=2, cols=2, seed=5)
@example(case=(2**31 - 1, 4), stacks=((4,), ()), rows=2, cols=2, seed=6)
@example(case=(2**31 - 1, 5), stacks=((), (4,)), rows=2, cols=2, seed=7)
@example(case=(_LARGEST_INT64_PRIME, 1), stacks=((2, 3), ()), rows=2, cols=2, seed=8)
@example(case=(_LARGEST_INT64_PRIME, 2), stacks=((), (2, 3)), rows=2, cols=2, seed=9)
@example(case=(_LARGEST_INT64_PRIME, 3), stacks=((1, 2), ()), rows=2, cols=2, seed=10)
# k at twice the unsigned bound (two full blocks) and one past it (a third block of one term),
# and 151 blocks at the largest modulus stored as int64
@example(case=(_PRIME_BELOW_2_28, 512), stacks=((2,), ()), rows=1, cols=1, seed=11)
@example(case=(_PRIME_BELOW_2_28, 513), stacks=((), (2,)), rows=1, cols=1, seed=12)
@example(case=(2**31 - 1, 8), stacks=((2, 3), ()), rows=2, cols=2, seed=13)
@example(case=(2**31 - 1, 9), stacks=((), (2, 3)), rows=2, cols=2, seed=14)
@example(case=(_LARGEST_INT64_PRIME, 4), stacks=((1, 2), ()), rows=2, cols=2, seed=15)
@example(case=(_LARGEST_INT64_PRIME, 5), stacks=((2,), (2,)), rows=2, cols=2, seed=16)
@example(case=(_LARGEST_INT64_PRIME, 301), stacks=((2, 1), (1, 3)), rows=2, cols=2, seed=17)
def test_zmod_products_on_both_sides_of_both_word_bounds_match_oracle(case, stacks, rows, cols, seed):
    # entries near m-1 make every bound tight: one inner dimension past the int64 (unsigned) bound,
    # the signed (unsigned) sums wrap
    modulus, k = case
    ring = IntegersMod(modulus)
    assert ring.dtype == np.int64
    assert (ring._int64_inner_max, ring._uint64_inner_max) == _WORD_BOUNDS[modulus]
    _assert_stacked_product_matches_oracle(ring, rows, k, cols, stacks, seed)


class _RefusesObjectCast(np.ndarray):
    """An int64 array whose ``astype`` refuses object: a product that leaves machine words fails."""

    def astype(self, dtype, *args, **kwargs):
        if np.dtype(dtype) == object:
            raise AssertionError("an int64-stored product cast its operands to object")
        return super().astype(dtype, *args, **kwargs)


@pytest.mark.parametrize(
    "modulus,k", [(_PRIME_BELOW_2_28, 257), (2**31 - 1, 5), (2**31 - 1, 24), (_LARGEST_INT64_PRIME, 301)]
)
def test_int64_product_past_the_unsigned_bound_builds_no_object_array(modulus, k):
    ring = IntegersMod(modulus)
    assert ring.dtype == np.int64 and k > ring._uint64_inner_max
    gen = np.random.default_rng(k)
    a, b = (gen.integers(modulus - 1024, modulus, shape) for shape in [(2, k), (k, 3)])
    out = ring.matmul(a.view(_RefusesObjectCast), b.view(_RefusesObjectCast))
    assert out.dtype == np.int64
    assert Matrix(ring, np.asarray(out)) == matmul_oracle(Matrix(ring, a), Matrix(ring, b))


@pytest.mark.parametrize("k", range(1, 11))
def test_object_stored_zmod_products_match_oracle(k):
    # Python ints are exact at every inner dimension, so object storage multiplies as stored
    ring = IntegersMod(2**61 - 1)
    assert ring.dtype == object
    _assert_stacked_product_matches_oracle(ring, 2, k, 2, ((2,), ()), seed=k)


# ---------------------------------------------------------------------------
# inverse over Z_p and over Z_p[G]


def test_inverse_examples(rng):
    z7 = IntegersMod(7)
    assert mx.inverse(mx.identity(z7, 3)) == mx.identity(z7, 3)
    assert mx.inverse(mx.from_rows(z7, [[3]])) == mx.from_rows(z7, [[5]])
    z1009 = IntegersMod(1009)
    for _ in range(20):
        m = mx.random_matrix(rng, z1009, 3, 3)
        inv = mx.try_inverse(m)
        if inv is not None:
            assert m @ inv == mx.identity(z1009, 3)
            assert inv @ m == mx.identity(z1009, 3)


def test_singular_and_composite_rejected():
    z7 = IntegersMod(7)
    with pytest.raises(SingularMatrixError):
        mx.inverse(mx.zeros(z7, 2, 2))
    z6 = IntegersMod(6)
    with pytest.raises(ParameterError, match="prime"):
        mx.inverse(mx.identity(z6, 2))


@pytest.mark.parametrize(
    "m, message",
    [
        (mx.identity(TropicalIntegers(), 2), "Z_p or Z_p\\[G\\]"),
        (mx.identity(BitStrings(4), 2), "Z_p or Z_p\\[G\\]"),
        (mx.identity(GroupRingScalars(S3, 6), 2), "not prime"),
    ],
    ids=["tropical", "bitstrings", "groupring-mod-6"],
)
def test_inverse_refuses_entries_without_a_prime_field(m, message):
    with pytest.raises(ParameterError, match=message):
        mx.inverse(m)


def test_try_inverse_is_none_on_a_singular_groupring_element():
    # (1 + g)(1 - g) = 0 in Z_7[C_2], so 1 + g is a zero divisor
    ring = GroupRingScalars(C2, 7)
    h = from_scalars(ring, [[GroupRingElement(C2, 7, [1, 1])]])
    assert mx.try_inverse(h) is None


def rref_oracle(a, p: int):
    """Gauss-Jordan over Python ints, every row operation on whole rows."""
    r = [[int(x) % p for x in row] for row in a]
    pivots, lead = [], 0
    for c in range(len(r[0])):
        found = next((i for i in range(lead, len(r)) if r[i][c]), None)
        if found is None:
            continue
        r[lead], r[found] = r[found], r[lead]
        inv = pow(r[lead][c], -1, p)
        r[lead] = [x * inv % p for x in r[lead]]
        for i in range(len(r)):
            if i != lead and r[i][c]:
                f = r[i][c]
                r[i] = [(x - f * y) % p for x, y in zip(r[i], r[lead])]
        pivots.append(c)
        lead += 1
        if lead == len(r):
            break
    return r, pivots


@settings(deadline=None, max_examples=80)
@given(
    p=st.sampled_from([2, 7, 1009, 2**21 - 9, 2**31 - 1, _LARGEST_INT64_PRIME, 2**61 - 1]),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    shift=st.sampled_from([0, -3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=2**21 - 9, shape=(6, 7, 7), shift=0, seed=25)  # overflows if reduced one operation late
def test_rref_matches_whole_row_oracle(p, shape, shift, seed):
    # a product of random factors, so ranks below full occur; a shift leaves entries unreduced;
    # moduli with (p-1)^2 < 2^63 eliminate in int64, 2^61 - 1 on Python ints;
    # 2^21 - 9 allows one unreduced row operation, so from the third pivot on a reduction
    # runs in the middle of the elimination
    rows, inner, cols = shape
    gen = np.random.default_rng(seed)
    a = gen.integers(0, min(p, 1 << 20), (rows, inner)) @ gen.integers(0, 3, (inner, cols)) + shift
    if not residue_products_fit_int64(p):
        a = a.astype(object)  # the dtype IntegersMod(p) stores
    before = a.copy()
    r, pivots = rref_mod(a, p)
    assert np.array_equal(a, before)
    assert r.dtype == a.dtype
    assert (r.tolist(), pivots) == rref_oracle(a.tolist(), p)


def test_is_prime_refuses_past_its_proven_range():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    with pytest.raises(ParameterError, match="primality"):
        is_prime(2**89 - 1)  # prime, but past psi_12 the twelve witnesses prove nothing


@settings(deadline=None, max_examples=40)
@given(
    group=st.sampled_from(BUNDLED_GROUPS),
    modulus=st.sampled_from(_GROUPRING_MODULI),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_groupring_inverse_is_two_sided(group, modulus, n, seed):
    ring = GroupRingScalars(GROUPS[group], modulus)
    h = mx.random_matrix(np.random.default_rng(seed), ring, n, n)
    # H is a unit iff X -> H @ X is injective on n x 1 columns; that map's
    # Z_p matrix is built column by column through the scalar oracle
    dim = n * ring.group.order
    columns = [
        mx.flatten(matmul_oracle(h, mx.unflatten(ring, np.eye(dim, dtype=np.int64)[j], n, 1)))
        for j in range(dim)
    ]
    if rank_mod(np.stack(columns, axis=1), modulus) < dim:
        with pytest.raises(SingularMatrixError):
            mx.inverse(h)
        return
    inv = mx.inverse(h)
    eye = mx.identity(ring, n)
    assert matmul_oracle(h, inv) == eye
    assert matmul_oracle(inv, h) == eye


@st.composite
def c2_elements(draw):
    """(p, a0, a1) with a1 = +-a0 mod p, the singular elements, half the time."""
    p = draw(st.sampled_from([2, 3, 7, 1048573]))
    a0 = draw(st.integers(0, p - 1))
    a1 = draw(st.one_of(st.integers(0, p - 1), st.sampled_from([a0, (p - a0) % p])))
    return p, a0, a1


@settings(deadline=None)
@given(c2_elements())
def test_groupring_inverse_over_c2_singular_exactly_at_zero_norm(element):
    # Z_p[C_2] -> Z_p x Z_p, a0 + a1 g -> (a0 + a1, a0 - a1), is a ring map
    # (an isomorphism for odd p), so a0 + a1 g is a unit iff (a0+a1)(a0-a1) is
    p, a0, a1 = element
    ring = GroupRingScalars(C2, p)
    h = from_scalars(ring, [[GroupRingElement(C2, p, [a0, a1])]])
    if (a0 + a1) * (a0 - a1) % p == 0:
        with pytest.raises(SingularMatrixError):
            mx.inverse(h)
    else:
        inv = mx.inverse(h)
        assert matmul_oracle(h, inv) == matmul_oracle(inv, h) == mx.identity(ring, 1)


# ---------------------------------------------------------------------------
# permutations and the bit action


def test_perm_power_basics():
    p = Permutation.from_cycles([(0, 1), (2, 3, 4)], 5)
    assert p.order() == 6


@pytest.mark.parametrize(
    "mapping", [[0.5, 1.5], ["1", "0"], [True, False], "10"], ids=["float", "text", "bool", "string"]
)
def test_permutation_refuses_entries_that_are_not_integers(mapping):
    # int() used to truncate 0.5 to 0 and read "10" as [1, 0]; the params decoder follows the same rule
    with pytest.raises(ParameterError, match="not a permutation of 0..1"):
        Permutation(mapping)


def test_permutation_accepts_numpy_integers_and_ranges():
    assert list(Permutation(np.array([2, 0, 1], dtype=np.int64))) == [2, 0, 1]
    assert list(Permutation([np.int64(1), np.int64(0)])) == [1, 0]
    assert Permutation(range(4)) == Permutation.identity(4)


def test_bit_action_examples(rng):
    bs = BitStrings(2)
    m = mx.from_rows(bs, [["10"]])
    assert mx.permute_bits(m, Permutation.identity(2)) == m
    assert mx.permute_bits(m, Permutation([1, 0])) == mx.from_rows(bs, [["01"]])


def test_bit_action_is_semiring_automorphism(rng):
    bs = BitStrings(4)
    h = Permutation([2, 3, 1, 0])
    for _ in range(50):
        m = mx.random_matrix(rng, bs, 2, 2)
        n = mx.random_matrix(rng, bs, 2, 2)
        assert mx.permute_bits(m @ n, h) == mx.permute_bits(m, h) @ mx.permute_bits(n, h)
        assert mx.permute_bits(m + n, h) == mx.permute_bits(m, h) + mx.permute_bits(n, h)
    assert mx.permute_bits(mx.zeros(bs, 2, 2), h) == mx.zeros(bs, 2, 2)


def test_bit_length_mismatch_rejected(rng):
    m = mx.random_matrix(rng, BitStrings(4), 2, 2)
    with pytest.raises(ParameterError):
        mx.permute_bits(m, Permutation.identity(5))


def test_wide_bit_masks_are_range_checked():
    # integer masks, numpy integers among them, are accepted at the boundary and range-checked there
    # to [0, 2^k) at every width; packed entries are bool vectors, so a raw array may hold only 0 and 1
    for k in (1, 5, 63, 64, 70):
        ring = BitStrings(k)
        for mask in (-1, -5, 1 << k):
            with pytest.raises(ParameterError, match="^bit mask out of range for declared length$"):
                ring.from_obj([[mask]])
        assert mx.from_obj(ring, [[(1 << k) - 1]]).to_obj() == [["1" * k]]
        assert mx.from_obj(ring, [[np.int64(1)]]).to_obj() == [["1" + "0" * (k - 1)]]
    ring = BitStrings(64)
    assert mx.from_obj(ring, [[np.uint64(2**64 - 1)]]).to_obj() == [["1" * 64]]
    with pytest.raises(ParameterError):
        Matrix(ring, np.full((1, 1, 64), 2))


@st.composite
def bit_operands(draw):
    """(A, B, C, perm): A @ B and A + C are defined; widths cross 63 bits."""
    k = draw(st.integers(1, 70))
    r, m, c = (draw(st.integers(1, 3)) for _ in range(3))
    ring = BitStrings(k)
    mask = st.integers(0, (1 << k) - 1)

    def matrix(rows, cols):
        row = st.lists(mask, min_size=cols, max_size=cols)
        return mx.from_rows(ring, draw(st.lists(row, min_size=rows, max_size=rows)))

    return matrix(r, m), matrix(m, c), matrix(r, m), Permutation(draw(st.permutations(range(k))))


@settings(max_examples=60, deadline=None)
@given(bit_operands())
def test_bit_kernels_match_scalar_oracle_at_every_width(operands):
    a, b, c, perm = operands
    assert a @ b == matmul_oracle(a, b)
    assert a.to_obj() == [[entry(a, i, j).to_string() for j in range(a.cols)] for i in range(a.rows)]
    total, permuted = a + c, mx.permute_bits(a, perm)
    for i, j in itertools.product(range(a.rows), range(a.cols)):
        assert entry(total, i, j) == entry(a, i, j) + entry(c, i, j)
        assert entry(permuted, i, j) == entry(a, i, j).permuted(perm)


def test_bit_text_of_a_row_with_no_entries():
    # the parser reads [[]] as a 1x0 matrix, which is written back as given
    assert mx.from_obj(BitStrings(3), [[]]).to_obj() == [[]]


def test_bitstring_text_round_trip():
    s = "01101"
    assert BitString.from_string(s).to_string() == s
    with pytest.raises(ParameterError):
        BitString.from_string("01x")


# ---------------------------------------------------------------------------
# the one parser: from_rows is from_obj, nested rows of raw entries


@pytest.mark.parametrize(
    "ring,value",
    [
        (BitStrings(3), 5),
        (IntegersMod(7), 5),
        # text and a mapping were iterated as rows: each read as [["1"]]
        (BitStrings(1), "1"),
        (BitStrings(1), {"1": 7}),
        (BitStrings(1), [{"1": 0}]),
        (TropicalIntegers(), "inf"),
        (IntegersMod(7), [[1, 2], [3]]),
        (GroupRingScalars(C2, 7), [[1, 2]]),
    ],
    ids=["bits-int", "zmod-int", "bits-text", "bits-dict", "bits-row-of-dict", "tropical-text", "zmod-ragged",
         "groupring-no-coefficient-axis"],
)
def test_parser_refuses_values_that_are_not_nested_rows(ring, value):
    with pytest.raises(ParameterError, match=re.escape(f"a matrix over {ring!r} is nested rows")):
        mx.from_obj(ring, value)


def test_groupring_entries_are_coefficient_lists():
    assert mx.from_rows is mx.from_obj
    ring = GroupRingScalars(S3, 7)
    m = mx.from_rows(ring, [[[1, 2, 3, 4, 5, 13]]])
    assert m.to_obj() == [[[1, 2, 3, 4, 5, 6]]]
    assert m == from_scalars(ring, [[GroupRingElement(S3, 7, [1, 2, 3, 4, 5, 6])]])
    for coefficients in ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6, 7]):
        with pytest.raises(ParameterError, match=r"shape \(rows, cols, 6\)"):
            mx.from_rows(ring, [[coefficients]])


@pytest.mark.parametrize(
    "ring,scalar,raw",
    [
        (IntegersMod(7), ZMod(3, 7), 3),
        (GroupRingScalars(C2, 7), GroupRingElement(C2, 7, [1, 1]), [1, 1]),
        (TropicalIntegers(), TropicalScalar(3), 3),
        (BitStrings(2), BitString(1, 2), "10"),
    ],
    ids=["zmod", "groupring", "tropical", "bits"],
)
def test_parser_refuses_oracle_scalars(ring, scalar, raw):
    # the library reads raw entries only; from_scalars turns the oracles' scalars into them
    with pytest.raises(ParameterError):
        mx.from_rows(ring, [[scalar]])
    assert from_scalars(ring, [[scalar]]) == mx.from_rows(ring, [[raw]])


# ---------------------------------------------------------------------------
# flatten / unflatten


def test_flatten_dimensions():
    z7 = IntegersMod(7)
    assert mx.flatten(mx.zeros(z7, 3, 3)).tolist() == [0] * 9
    assert mx.flatten(mx.from_rows(z7, [[4]])).shape == (1,)
    gr = GroupRingScalars(S3, 7)
    assert mx.flatten(mx.zeros(gr, 3, 3)).shape == (54,)


def test_flatten_linear_and_injective(rng):
    gr = GroupRingScalars(S3, 7)
    for _ in range(25):
        a = mx.random_matrix(rng, gr, 3, 3)
        b = mx.random_matrix(rng, gr, 3, 3)
        c = int(rng.integers(0, 7))
        lhs = mx.flatten(a.scale(c) + b)
        rhs = (c * mx.flatten(a) + mx.flatten(b)) % 7
        assert np.array_equal(lhs, rhs)
        # injectivity: equal coordinates reconstruct the same matrix
        assert mx.unflatten(gr, mx.flatten(a), 3, 3) == a
        if a != b:
            assert not np.array_equal(mx.flatten(a), mx.flatten(b))


def test_flatten_unsupported_entries(rng):
    with pytest.raises(ParameterError):
        mx.flatten(mx.random_matrix(rng, TropicalIntegers(), 2, 2, lo=0, hi=5))
    with pytest.raises(ParameterError):
        mx.flatten(mx.random_matrix(rng, BitStrings(3), 2, 2))


def test_flatten_unflatten_round_trip_all_sizes(rng):
    z7 = IntegersMod(7)
    # row-major coordinates: [[a, b], [c, d]] -> (a, b, c, d)
    assert mx.flatten(mx.from_rows(z7, [[1, 2], [3, 4]])).tolist() == [1, 2, 3, 4]
    for ring in (IntegersMod(11), GroupRingScalars(S3, 7)):
        for rows, cols in itertools.product(range(1, 5), repeat=2):
            m = mx.random_matrix(rng, ring, rows, cols)
            assert mx.unflatten(ring, mx.flatten(m), rows, cols) == m
    with pytest.raises(ParameterError, match="4 coordinates, got 3"):
        mx.unflatten(z7, np.arange(3), 2, 2)


# ---------------------------------------------------------------------------
# canonical packed form: kernels and parsers make it, Matrix only checks dtype


#: Z_m with 3x3 products in int64, on unsigned views and (stored as objects) on Python ints,
#: and the three other rings
CANONICAL_RINGS = {
    "zmod-int64": IntegersMod(2**28 - 57),
    "zmod-uint64": IntegersMod(2**31 - 1),
    "zmod-object": IntegersMod(2**61 - 1),
    "groupring": GroupRingScalars(S3, 7),
    "tropical": TropicalIntegers(),
    "bits": BitStrings(5),
}


def assert_canonical_data(ring, data: np.ndarray):
    """Packed entries (of one matrix or a stack) in the ring's one canonical form for their values."""
    if isinstance(ring, TropicalIntegers):
        # int64 exactly when every entry is finite with |x| < 2^62
        fits = all(x != TROP_INF and -(2**62) < x < 2**62 for x in data.flat)
        assert data.dtype == (np.int64 if fits else object)
        if data.dtype == object:
            # Python ints (numpy ints in an object array would wrap) or the formal +inf, no other float
            assert all(type(x) is int or (type(x) is float and x == TROP_INF) for x in data.flat)
        return
    assert data.dtype == ring.dtype
    if ring.linear:
        assert all(0 <= x < ring.modulus for x in data.flat)
    if data.dtype == object:
        assert all(type(x) is int for x in data.flat)


def assert_canonical(m: Matrix):
    assert not m.data.flags.writeable
    assert_canonical_data(m.ring, m.data)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(CANONICAL_RINGS)),
    n=st.integers(1, 3),
    c=st.integers(2**63, 2**70),  # a scalar past int64 is reduced mod m first
    seed=st.integers(0, 2**32 - 1),
)
def test_every_matrix_result_is_canonical(name, n, c, seed):
    ring = CANONICAL_RINGS[name]
    rng = np.random.default_rng(seed)
    kw = {"lo": -50, "hi": 50} if name == "tropical" else {}
    a, b = (mx.random_matrix(rng, ring, n, n, **kw) for _ in range(2))
    zero = mx.zeros(ring, n, n)
    results = [a, a + b, a @ b, a.star(b), a @ zero, mx.identity(ring, n), zero]
    if ring.linear:
        results += [a - b, a.scale(c), a.scale(-c)]
        assert a.scale(c) + a.scale(-c) == zero
    if name == "bits":
        results.append(mx.permute_bits(a, Permutation(rng.permutation(ring.length).tolist())))
    if isinstance(ring, IntegersMod) and (inverse := mx.try_inverse(a)) is not None:
        results.append(inverse)
    if isinstance(ring, IntegersMod) and ring.dtype == np.int64:
        # one inner dimension past the unsigned bound: the product of an int64 ring sums two unsigned blocks
        k = ring._uint64_inner_max + 1
        row, col = mx.random_matrix(rng, ring, 1, k), mx.random_matrix(rng, ring, k, 1)
        results += [row, col, row @ col]
    for m in list(results):
        back = [mx.from_obj(ring, m.to_obj())]
        if ring.linear:
            back.append(mx.unflatten(ring, mx.flatten(m), *m.shape))
        assert all(x == m for x in back)
        results += back
    for m in results:
        assert_canonical(m)


@pytest.mark.parametrize(
    "ring,data",
    [
        (IntegersMod(7), np.zeros((2, 2))),
        (IntegersMod(2**61 - 1), np.zeros((2, 2), dtype=np.int64)),
        (GroupRingScalars(S3, 7), np.zeros((2, 2, 6), dtype=np.int32)),
        (TropicalIntegers(), np.zeros((2, 2))),
        (BitStrings(3), np.zeros((2, 2, 3), dtype=np.uint8)),
    ],
    ids=["zmod-float", "zmod-object-given-int64", "groupring-int32", "tropical-float64", "bits-uint8"],
)
def test_raw_matrix_of_wrong_dtype_rejected(ring, data):
    with pytest.raises(ParameterError, match="dtype"):
        Matrix(ring, data)
