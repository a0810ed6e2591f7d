"""Scalar and matrix arithmetic against independent brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpke.matrices as mx
from sdpke.errors import ParameterError, SingularMatrixError
from sdpke.groups import cyclic_group, load_group
from sdpke.matrices import Matrix
from sdpke.permutations import Permutation
from sdpke.semirings import (
    TROP_INF,
    BitString,
    BitStrings,
    GroupRingElement,
    GroupRingScalars,
    IntegersMod,
    TropicalIntegers,
    TropicalScalar,
    ZMod,
    axpy,
)

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


def test_axpy():
    rng = np.random.default_rng(3)
    a = GroupRingElement(S3, 7, rng.integers(0, 7, 6))
    b = GroupRingElement(S3, 7, rng.integers(0, 7, 6))
    zero = GroupRingElement.zero(S3, 7)
    assert axpy(0, a, b) == b
    assert axpy(1, a, zero) == a
    got = axpy(ZMod(3, 7), a, b)
    expect = [(3 * int(x) + int(y)) % 7 for x, y in zip(a.coeffs, b.coeffs)]
    assert list(got.coeffs) == expect


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
                term = a[i, k] * b[k, j]
                acc = term if acc is None else acc + term
            out[i][j] = acc
    return mx.from_rows(ring, out)


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


def test_large_modulus_object_path(rng):
    big = IntegersMod(2**31 - 1)
    a = mx.random_matrix(rng, big, 3, 3)
    b = mx.random_matrix(rng, big, 3, 3)
    assert a @ b == matmul_oracle(a, b)
    assert (a @ mx.identity(big, 3)) == a


#: the largest prime below 2^28, the largest modulus IntegersMod stores as int64
_PRIME_BELOW_INT64_LIMIT = 2**28 - 57


def test_long_inner_dimension_does_not_overflow_int64():
    # 200 * (m-1)^2 exceeds 2^63: summed in int64 the entry wraps to 267603855
    m = _PRIME_BELOW_INT64_LIMIT
    ring = IntegersMod(m)
    a = mx.from_rows(ring, [[m - 1] * 200])
    b = mx.from_rows(ring, [[m - 1]] * 200)
    assert (a @ b)[0, 0].value == 200


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


# ---------------------------------------------------------------------------
# inverse over Z_p


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


# ---------------------------------------------------------------------------
# permutations and the bit action


def test_perm_power_basics():
    assert Permutation([1, 0]) ** 0 == Permutation.identity(2)
    assert Permutation([1, 0]) ** 2 == Permutation.identity(2)
    p = Permutation.from_cycles([(0, 1), (2, 3, 4)], 5)
    assert p.order() == 6
    assert p**6 == Permutation.identity(5)
    assert p**7 == p
    assert p ** (6 * 10**9 + 1) == p


def test_perm_compose_and_inverse():
    p = Permutation([2, 0, 1])
    assert p * p.inverse() == Permutation.identity(3)
    q = Permutation([1, 0, 2])
    r = p * q
    assert [r[i] for i in range(3)] == [p[q[i]] for i in range(3)]


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
    # integer masks are accepted at the boundary and range-checked there;
    # packed entries are bool vectors, so a raw array may hold only 0 and 1
    ring = BitStrings(64)
    for mask in (-5, 2**64):
        with pytest.raises(ParameterError, match="out of range"):
            ring.from_obj([[mask]])
    assert mx.from_obj(ring, [[2**64 - 1]]).to_obj() == [["1" * 64]]
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
    total, permuted = a + c, mx.permute_bits(a, perm)
    for i, j in itertools.product(range(a.rows), range(a.cols)):
        assert total[i, j] == a[i, j] + c[i, j]
        assert permuted[i, j] == a[i, j].permuted(perm)


def test_bitstring_text_round_trip():
    s = "01101"
    assert BitString.from_string(s).to_string() == s
    with pytest.raises(ParameterError):
        BitString.from_string("01x")


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


#: Z_m on both sides of the int64 limit 2^28, and the three other rings
CANONICAL_RINGS = {
    "zmod-int64": IntegersMod(2**28 - 57),
    "zmod-object": IntegersMod(2**31 - 1),
    "groupring": GroupRingScalars(S3, 7),
    "tropical": TropicalIntegers(),
    "bits": BitStrings(5),
}


def assert_canonical(m: Matrix):
    ring = m.ring
    assert not m.data.flags.writeable
    assert m.data.dtype == ring.dtype
    if ring.linear:
        assert all(0 <= x < ring.modulus for x in m.data.flat)
    if ring.dtype == object:
        # Python ints (numpy ints in an object array would wrap) or the formal +inf
        assert all(type(x) is int or x == TROP_INF for x in m.data.flat)


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
    if name == "zmod-int64":
        # one inner dimension past the int64 bound: the product runs on Python ints
        k = ring._int64_inner_max + 1
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
        (IntegersMod(2**31 - 1), np.zeros((2, 2), dtype=np.int64)),
        (GroupRingScalars(S3, 7), np.zeros((2, 2, 6), dtype=np.int32)),
        (TropicalIntegers(), np.zeros((2, 2), dtype=np.int64)),
        (BitStrings(3), np.zeros((2, 2, 3), dtype=np.uint8)),
    ],
    ids=["zmod-float", "zmod-object-given-int64", "groupring-int32", "tropical-int64", "bits-uint8"],
)
def test_raw_matrix_of_wrong_dtype_rejected(ring, data):
    with pytest.raises(ParameterError, match="dtype"):
        Matrix(ring, data)
