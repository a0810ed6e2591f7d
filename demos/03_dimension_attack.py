#!/usr/bin/env python3
"""Dimension attack walkthrough on 3x3 matrices over Z_7[S_3].

The carrier sits inside a 54-dimensional Z_7 vector space (9 entries, 6
group-ring coordinates each).  The exchange sequence a_1, a_2, ... must go
linearly dependent within 55 terms, so the attack makes a_1 .. a_55 at once,
by doubling, together with the public terms phi^i(B) a_i.  One elimination
finds the independent prefix and writes the observed A in it; linearity of
phi then rebuilds the key from public data.
"""

import numpy as np

from sdpke import Transcript, derive_key, dimension_attack, random_params, sdp_exp
from sdpke.attacks import build_span_basis

rng = np.random.default_rng(5)

params = random_params("groupring", rng)
platform = params.build()
print(f"platform: 3x3 matrices over Z_7[S_3]; ambient dimension 9 * 6 = 54")

rank = len(build_span_basis(platform))
print(f"sequence closes after {rank} terms: a_1 .. a_{rank} are independent,"
      f" a_{rank + 1} is not")

x, y = 48611, 13297  # secrets; used only to stage the transcript and check the answer
a = sdp_exp(platform, x).value
b = sdp_exp(platform, y).value
true_key = derive_key(platform, x, b, a)
transcript = Transcript(params=params, alice_value=a, bob_value=b, shared_key=true_key)

outcome = dimension_attack(transcript)
print(f"attack solved 1 linear system of rank {outcome.work.rank};"
      f" the prefix through the first dependence is {outcome.work.sequence_terms_generated} terms")
assert outcome.success
print(f"recovered key == true key: {outcome.recovered_key == true_key}")
print("note: the attack saw only the platform parameters, A, and B")

print("\nthe same attack at the 540-dimensional Z_7[A_5] size (takes ~2 s):")
params = random_params("groupring", rng, group="a5")
platform = params.build()
a = sdp_exp(platform, 51929).value
b = sdp_exp(platform, 7253).value
true_key = derive_key(platform, 51929, b, a)
transcript = Transcript(params=params, alice_value=a, bob_value=b, shared_key=true_key)
outcome = dimension_attack(transcript)
assert outcome.success
print(f"rank {outcome.work.rank} of 540; recovered key == true key:"
      f" {outcome.recovered_key == true_key}")
print("a low-dimensional matrix algebra is no place to hide")
