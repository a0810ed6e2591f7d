#!/usr/bin/env python3
"""Why the telescoping route fails on the OR/AND platform: too many solutions.

On a semigroup nothing forces the telescoping equality h(A) M = Y A to pin
down Y = h^x(M) uniquely.  Counting every Y at toy sizes shows the solution
set is routinely huge, so an attacker cannot tell which solution carries
the key.  The count is exact without listing the Y: OR and AND act bit by
bit and row i of Y A reads only row i of Y, so it is a product of
independent counts, one per (row, bit) slice of Y.
"""

import numpy as np

from sdpke import MobsParams, Permutation, from_rows, mobs_solution_count, random_params, sdp_exp
from sdpke.semirings import BitStrings

print("worked 1x1 example over 2-bit strings: M = '10', h swaps the bits, x = 2")
params = MobsParams(size=1, bits=2, bit_permutation=Permutation([1, 0]),
                    base=from_rows(BitStrings(2), [["10"]]))
platform = params.build()
observed = sdp_exp(platform, 2).value
print(f"  A = a_2 = h(M) AND M = {observed.to_obj()[0][0]!r}")
outcome = mobs_solution_count(platform, observed, true_exponent=2)
print(f"  every Y satisfies Y AND '00' = '00': count = {outcome.work.solution_count} of 4 candidates")

rng = np.random.default_rng(12)
print("\n50 random 2x2 instances over 3-bit strings (4096 candidates each):")
counts = []
for _ in range(50):
    params = random_params("mobs", rng, size=2, cycle_lengths=(3,))
    platform = params.build()
    x = int(rng.integers(2, 1 << 16))
    observed = sdp_exp(platform, x).value
    outcome = mobs_solution_count(platform, observed, true_exponent=x)
    assert outcome.success  # the true h^x(M) is always among the solutions
    counts.append(outcome.work.solution_count)

counts.sort()
print(f"  min = {counts[0]}, median = {counts[len(counts) // 2]}, max = {counts[-1]}")
print("  the true h^x(M) was a solution every time, but so were many impostors")
