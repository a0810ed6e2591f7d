#!/usr/bin/env python3
"""Tropical platform: the exchange sequence only ever decreases.

Each step mins the previous term against more material, so {a_n} is
entrywise non-increasing.  "a_n <= A entrywise" is therefore a monotone
predicate in n, and the private exponent (or an admissible stand-in) falls
to a binary search in 20 probes even for x up to 2^20.  The search lifts
over the doubling chain (g, phi)^(2^i): it grows the longest prefix a_m
with a_m not <= A from the top power of two down.  The same monotonicity
makes a_(m+k) = phi^k(a_m), so each probe costs one action of a chain
endomorphism, and the hit is a_(m+1) = phi(a_m).
"""

import numpy as np

from sdpke import Transcript, derive_key, random_params, sdp_exp, tropical_binsearch_attack

rng = np.random.default_rng(8)

params = random_params("tropical", rng, size=3, entry_lo=-9, entry_hi=9)
platform = params.build()

print("first terms of the exchange sequence (3x3, entries shown per row):")
for n in (1, 2, 3, 4, 5, 8, 13):
    value = sdp_exp(platform, n).value
    flat = [int(v) for row in value.to_obj() for v in row]
    print(f"  a_{n:<3d} {flat}")

x, y = 739181, 52433  # up to 2^20
a = sdp_exp(platform, x).value
b = sdp_exp(platform, y).value
true_key = derive_key(platform, x, b, a)
transcript = Transcript(params=params, alice_value=a, bob_value=b, shared_key=true_key)

outcome = tropical_binsearch_attack(transcript, x_max=1 << 20)
assert outcome.success
print(f"\nsecret exponent x = {x}")
print(f"binary lifting recovered an admissible exponent {outcome.recovered_exponent}"
      f" in {outcome.work.search_steps} probes")
print(f"recovered key == true key: {outcome.recovered_key == true_key}")
