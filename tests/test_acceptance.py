"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and trial count is pinned here.
"""

import functools
import json
import time

import numpy as np

import sdpke.matrices as mx
from sdpke.attacks import (
    dimension_attack,
    make_telescoping_attack,
    mobs_solution_count,
    mr_message_recovery,
    telescoped_conjugate,
    tropical_binsearch_attack,
)
from sdpke.cli import main as cli_main
from sdpke.cli import trial_rng
from sdpke.holomorph import HolomorphPower, holo_mul, sdp_exp, sdp_exp_naive
from sdpke.permutations import Permutation
from sdpke.platforms import (
    MobsParams,
    random_gl_params,
    random_groupring_params,
    random_make_params,
    random_mobs_params,
    random_tropical_params,
)
from sdpke.protocol import Transcript, derive_key, keygen, mr_encrypt, run_exchange
from sdpke.semirings import BitStrings

GENERATORS = {
    "groupring": random_groupring_params,
    "gl": random_gl_params,
    "tropical": random_tropical_params,
    "make": random_make_params,  # exchange-scale prime 2^31 - 1
    "mobs": random_mobs_params,
}


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")

        return wrapper

    return deco


def ground_truth_transcript(platform, x, y):
    a = sdp_exp(platform, x).value
    b = sdp_exp(platform, y).value
    key = derive_key(platform, x, b, a)
    return Transcript(params=platform.params, alice_value=a, bob_value=b, shared_key=key)


@criterion("key agreement: 5 platforms x 1000 exchanges, 16-bit exponents, < 60 s")
def test_key_agreement_all_platforms():
    start = time.perf_counter()
    for kind, gen in GENERATORS.items():
        platform = gen(trial_rng(2024, (1 << 64) - 1)).build()
        for trial in range(1000):
            _, agreed = run_exchange(platform, trial_rng(2024, trial), exponent_bits=16)
            assert agreed, f"{kind}: disagreement at trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"run took {elapsed:.1f}s"


@criterion("exponentiation oracle: fast == naive (n <= 64); conjugation closed form (m <= 32)")
def test_exponentiation_oracles():
    rng = np.random.default_rng(7)
    for kind, gen in GENERATORS.items():
        platform = gen(rng).build()
        base = HolomorphPower(platform.g, platform.phi, 1)
        cur = base
        for n in range(1, 65):
            fast = sdp_exp(platform, n)
            assert fast.value == cur.value, f"{kind}: mismatch at n={n}"
            assert fast.end == cur.end, f"{kind}: endomorphism mismatch at n={n}"
            cur = holo_mul(platform, cur, base)
        assert sdp_exp_naive(platform, 17).value == sdp_exp(platform, 17).value

    # a_m = H^-m (HM)^m, exact, on both conjugation platforms
    for kind in ("groupring", "gl"):
        params = GENERATORS[kind](rng)
        platform = params.build()
        h, m = params.conjugator, params.base
        h_inv = mx.inverse(h)
        hm_pow, h_inv_pow = h @ m, h_inv
        for step in range(1, 33):
            assert sdp_exp(platform, step).value == h_inv_pow @ hm_pow, f"{kind}: m={step}"
            hm_pow = hm_pow @ (h @ m)
            h_inv_pow = h_inv_pow @ h_inv


@criterion("telescoping identity phi(A) o g == phi^x(g) o A on 500 random cases")
def test_telescoping_identity():
    rng = np.random.default_rng(11)
    cases = 0
    while cases < 500:
        for kind, gen in GENERATORS.items():
            platform = gen(rng).build()
            for _ in range(5):
                x = int(rng.integers(1, 1 << 16))
                a = sdp_exp(platform, x)
                lhs = platform.op(platform.phi(a.value), platform.g)
                rhs = platform.op(a.end(platform.g), a.value)
                assert lhs == rhs, f"{kind}: telescoping identity failed at x={x}"
                cases += 1


@criterion("dimension attack: 100/100 on Z_7[S_3] r=3 and GL(3,1009), rank bounds, < 5 s/trial")
def test_dimension_attack_acceptance():
    rng = np.random.default_rng(13)
    for kind, rank_bound in (("groupring", 54), ("gl", 9)):
        for trial in range(100):
            platform = GENERATORS[kind](rng).build()
            x, y = (int(v) for v in rng.integers(2, 1 << 16, 2))
            transcript = ground_truth_transcript(platform, x, y)
            t0 = time.perf_counter()
            outcome = dimension_attack(transcript)
            elapsed = time.perf_counter() - t0
            assert outcome.success, f"{kind}: trial {trial} failed"
            assert outcome.work.rank <= rank_bound, f"{kind}: rank {outcome.work.rank}"
            assert elapsed < 5.0, f"{kind}: trial took {elapsed:.2f}s"


@criterion("encryption break: 100/100 exact message recovery on GL(3,1009)")
def test_message_recovery_acceptance():
    rng = np.random.default_rng(17)
    for trial in range(100):
        platform = random_gl_params(rng).build()
        keys = keygen(platform, rng, exponent_bits=16)
        message = platform.random_element(rng)
        ct = mr_encrypt(platform, keys.public_value, message, rng, exponent_bits=16)
        recovered = mr_message_recovery(platform, keys.public_value, ct)
        assert recovered == message, f"trial {trial}: wrong plaintext"


@criterion("telescoping attack: 100/100 on 3x3/p=101; D == H1^x M H2^x every trial")
def test_make_telescoping_acceptance():
    rng = np.random.default_rng(19)
    for trial in range(100):
        params = random_make_params(rng, prime=101)
        platform = params.build()
        x, y = (int(v) for v in rng.integers(2, 1 << 16, 2))
        transcript = ground_truth_transcript(platform, x, y)
        d = telescoped_conjugate(transcript)
        assert d == platform.phi.power(x)(params.base), f"trial {trial}: D mismatch"
        outcome = make_telescoping_attack(transcript)
        assert outcome.success, f"trial {trial} failed"


@criterion("tropical attack: >= 99/100 on 5x5, x <= 2^20, <= 20 probes; monotone to n=1000")
def test_tropical_acceptance():
    rng = np.random.default_rng(23)
    successes = 0
    for _ in range(100):
        platform = random_tropical_params(rng).build()
        x, y = (int(v) for v in rng.integers(2, 1 << 20, 2))
        transcript = ground_truth_transcript(platform, x, y)
        outcome = tropical_binsearch_attack(transcript, x_max=1 << 20)
        if outcome.success:
            assert outcome.work.search_steps <= 20
            successes += 1
    assert successes >= 99, f"only {successes}/100 recoveries"

    platform = random_tropical_params(rng).build()
    base = HolomorphPower(platform.g, platform.phi, 1)
    cur = base
    for n in range(1, 1001):
        nxt = holo_mul(platform, cur, base)
        assert np.all(nxt.value.data <= cur.value.data), f"monotonicity violated at n={n}"
        cur = nxt


@criterion("solution count: worked 1x1/2-bit case == 4; 50x 2x2/3-bit all >= 1, median > 1")
def test_mobs_count_acceptance():
    ring = BitStrings(2)
    params = MobsParams(
        size=1, bits=2, bit_permutation=Permutation([1, 0]),
        base=mx.from_rows(ring, [["10"]]),
    )
    platform = params.build()
    observed = sdp_exp(platform, 2).value
    outcome = mobs_solution_count(platform, observed, true_exponent=2)
    assert outcome.work.solution_count == 4

    rng = np.random.default_rng(29)
    counts = []
    for trial in range(50):
        params = random_mobs_params(rng, size=2, cycle_lengths=(3,))
        platform = params.build()
        x = int(rng.integers(2, 1 << 16))
        observed = sdp_exp(platform, x).value
        outcome = mobs_solution_count(platform, observed, true_exponent=x)
        assert outcome.success, f"trial {trial}: true phi^x(M) not among solutions"
        assert outcome.work.solution_count >= 1
        counts.append(outcome.work.solution_count)
    counts.sort()
    assert counts[len(counts) // 2] > 1, f"median {counts[len(counts) // 2]}"


@criterion("determinism: identical (config, seed) -> identical transcripts and counters")
def test_determinism_acceptance(tmp_path, capsys):
    argv = [
        "exchange", "--platform", "groupring", "--trials", "4", "--seed", "31337",
        "--test-mode", "--out",
    ]
    files = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in files:
        assert cli_main(argv + [str(path)]) == 0
        capsys.readouterr()
    assert files[0].read_bytes() == files[1].read_bytes()

    counter_sets = []
    for _ in range(2):
        assert cli_main(["attack", "--method", "dimension", "--format", "json", str(files[0])]) == 0
        rows = json.loads(capsys.readouterr().out)
        counter_sets.append([r["counters"] for r in rows])
    assert counter_sets[0] == counter_sets[1]
