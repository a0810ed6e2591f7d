"""Key-recovery procedures: everything an eavesdropper can do with a transcript.

Four procedures, each consuming only public data (platform parameters and
the exchanged values), each returning an AttackOutcome:

* ``dimension_attack`` — works whenever the carrier embeds linearly in a
  Z_p vector space (group ring, GL, and the additive platform).  It builds
  the sequence prefix a_1 .. a_(D+1), D the dimension of that space, by
  doubling, as one block of batched products; one elimination finds the
  independent prefix (it ends at the first linear dependence) and writes
  the observed value A in it, and the shared key is reassembled from
  public terms phi^i(B) ∘ a_i by linearity of phi, made in the same block.
  ``build_span_basis`` returns that independent prefix alone.
* ``make_telescoping_attack`` — specific to the additive platform.  The
  telescoping identity pins down phi^x(g) exactly (additive carriers are
  groups, so the solution is unique), and a Cayley-Hamilton argument turns
  key recovery into one small linear solve, replayed on B by the Z_p kernel.
* ``tropical_binsearch_attack`` — the exchanged sequence is entrywise
  non-increasing, so its terms form a chain and an admissible exponent is
  found by binary lifting over the doubling chain (g, phi)^(2^i), one
  action of a chain endomorphism per probe, as a_(m+k) = phi^k(a_m) there;
  a term incomparable with A proves A is off the sequence, and phi^x is
  applied once, to B, for the key.
* ``mobs_solution_count`` — exact census of how many Y satisfy the
  telescoping equality on the OR/AND platform, counted one (row, bit) slice
  of Y at a time; evidence for why the telescoping route fails there.

``mr_message_recovery`` turns the dimension attack into ciphertext-only
message recovery for the encryption scheme.

``ATTACKS`` maps each ``sdpke attack --method`` name to its runner, so a
new method is one entry there.  A recovered key succeeds when it equals
the transcript's ground-truth key, or when the transcript carries none.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import matrices as mx
from .errors import NotApplicableError, ParameterError, SizeCapError
# sdp_exp is not called here; the benchmark's tracer self-test checks that it is rebound in this module
from .holomorph import (
    Platform,
    apply_phi_power,
    doubling_chain,
    sdp_exp,
    sequence_block,
    telescoping_residual,
)
from .linalg import rref_mod, solve_mod
from .matrices import Matrix
from .protocol import Ciphertext, Transcript
from .semirings import IntegersMod

#: entries of the largest array the OR/AND census allocates, 2^n n^2 k booleans
MOBS_CENSUS_CAP = 1 << 24

#: entries of the largest array the dimension attack allocates, its 2 (D + 1) D term block
DIMENSION_ATTACK_CAP = 1 << 26


def check_x_max(x_max: int) -> None:
    """Refuse a tropical search bound outside [1, 2^63]: exponents are drawn below 2^63."""
    if not 1 <= x_max <= 1 << 63:
        raise ParameterError(f"x-max must be in [1, 2^63], got {x_max}")


@dataclass
class WorkCounters:
    sequence_terms_generated: int = 0
    rank: int = 0
    linear_solves: int = 0
    search_steps: int = 0
    solution_count: int = 0

    def to_obj(self) -> dict:
        return dict(vars(self))


@dataclass
class AttackOutcome:
    success: bool
    recovered_key: Matrix | None = None
    recovered_exponent: int | None = None
    work: WorkCounters = field(default_factory=WorkCounters)
    detail: str = ""


def _recovered(key: Matrix, transcript: Transcript, work: WorkCounters, exponent: int | None = None) -> AttackOutcome:
    """The outcome of a recovered key: success means the exact shared key when ground truth is available."""
    success = transcript.shared_key is None or key == transcript.shared_key
    return AttackOutcome(success=success, recovered_key=key, recovered_exponent=exponent, work=work)


# ---------------------------------------------------------------------------
# dimension attack


def build_span_basis(platform: Platform) -> np.ndarray:
    """The maximal linearly independent prefix a_1 .. a_k of the exchange sequence, as a (k, D) array.

    a_1 .. a_(D+1), D the ambient dimension, are made as one sequence block
    and eliminated once over the platform's modulus.  The rank is at most D,
    so the block reaches the first dependence, and that dependence closes
    the span, because a_(m+1) = phi(a_m) ∘ a_1 and both phi and ∘-by-a_1 act
    linearly on the ambient coordinates: the pivots are the prefix.
    """
    dim = mx.flatten(platform.g).size
    vectors = sequence_block(platform, [platform.g], dim + 1)[0].reshape(dim + 1, dim)
    return vectors[: len(rref_mod(vectors.T, platform.g.ring.modulus)[1])]


def dimension_attack(transcript: Transcript) -> AttackOutcome:
    """Recover the shared key from a transcript via linear algebra over Z_p.

    Writes A = sum eta_i a_i over the independent prefix, then uses that
    phi^y(a_i) ∘ a_y = a_(i+y) = phi^i(a_y) ∘ a_i to re-express the key
    through public quantities only, w_i = phi^i(B) ∘ a_i:

    * multiplicative carriers:  K = sum_i eta_i w_i
    * additive carrier:         K = sum_i eta_i w_i + (1 - sum_i eta_i) B

    The additive form carries the affine correction (1 - sum eta_i) B; it
    vanishes whenever the coefficients happen to sum to one, but the form is
    exact for every solution eta.

    The w_i follow the recurrence of the a_i from w_1 = phi(B) ∘ g, so one
    sequence block yields a_1 .. a_(D+1) and w_1 .. w_(D+1), D the ambient
    dimension.  One elimination of [a_1 .. a_(D+1) | A] then gives the rank
    k (its pivots among the a_i are a_1 .. a_k, the first dependence closing
    the span) and eta in the same pass.  An A outside that span is no a_x.
    ``sequence_terms_generated`` counts a_1 .. a_(k+1), the prefix through
    the first dependence, as a term-by-term walk makes it, so recorded
    counters and report digests stay comparable; the block holds up to
    D + 1 terms.  D = size^2 |entry| comes from the params, and a block of
    2 (D + 1) D entries past ``DIMENSION_ATTACK_CAP`` is refused before the
    platform is built.
    """
    key, work = _span_key(transcript.params, transcript.build_platform, transcript.alice_value, transcript.bob_value)
    if key is None:
        return AttackOutcome(success=False, work=work, detail="A is outside the span of the sequence")
    return _recovered(key, transcript, work)


def _span_key(params, build_platform, a_obs: Matrix, b_obs: Matrix) -> tuple[Matrix | None, WorkCounters]:
    """The key of ``dimension_attack``, None when A is off the span; the platform is built after the cap check."""
    ring = params.ring()
    if not ring.linear:
        raise NotApplicableError(f"platform {params.kind!r} has no Z_p-linear coordinates")
    n, per_entry = params.size, math.prod(ring.entry_shape)
    dim = n * n * per_entry
    entries = 2 * (dim + 1) * dim
    if entries > DIMENSION_ATTACK_CAP:
        raise SizeCapError(
            f"the dimension attack on {n}x{n} matrices of {per_entry} coordinates per entry works in D = {dim} "
            f"and needs 2(D+1)D = {entries} entries (cap {DIMENSION_ATTACK_CAP})"
        )
    platform = build_platform()
    modulus = ring.modulus

    block = sequence_block(platform, [platform.g, telescoping_residual(platform, b_obs)], dim + 1)
    terms, keyed = block.reshape(2, dim + 1, dim)
    reduced, pivots = rref_mod(np.concatenate([terms.T, mx.flatten(a_obs)[:, None]], axis=1), modulus)
    outside = bool(pivots) and pivots[-1] == dim + 1
    rank = len(pivots) - outside
    work = WorkCounters(sequence_terms_generated=rank + 1, rank=rank, linear_solves=1)
    if outside:
        return None, work

    eta = reduced[:rank, dim + 1]
    key = IntegersMod(modulus).matmul(keyed[:rank].T, eta[:, None])
    key = Matrix(ring, key.reshape(platform.g.data.shape))
    if platform.op_kind == "add":
        key = key + b_obs.scale((1 - int(np.sum(eta))) % modulus)
    return key, work


# ---------------------------------------------------------------------------
# telescoping attack on the additive platform


def _power_list(m: Matrix, count: int) -> list[Matrix]:
    """[I, M, M^2, ..., M^(count-1)]."""
    out = [mx.identity(m.ring, m.rows)]
    for _ in range(count - 1):
        out.append(out[-1] @ m)
    return out


def _build_l_matrix(h1_pows: list[Matrix], y: Matrix, h2_pows: list[Matrix]) -> np.ndarray:
    """Columns flatten(H1^i Y H2^j), i major, i and j ranging over the given power lists."""
    ring = y.ring
    left = ring.matmul(np.stack([h.data for h in h1_pows]), y.data)
    prods = ring.matmul(left[:, None], np.stack([h.data for h in h2_pows]))
    return prods.reshape(len(h1_pows) * len(h2_pows), -1).T


def make_telescoping_attack(transcript: Transcript) -> AttackOutcome:
    """Key recovery on the additive platform from one transcript.

    D = H1 A H2 + M - A equals H1^x M H2^x exactly (the telescoping
    identity, and additive carriers leave no ambiguity).  Cayley-Hamilton
    bounds H1^x and H2^x by polynomials of degree < n in H1 and H2, so
    flatten(D) is a combination of the n^2 columns flatten(H1^i M H2^j);
    solving for any coefficient vector t and replaying it on B gives
    H1^x B H2^x, hence the key H1^x B H2^x + A.

    Higher-degree columns add nothing to that span, so an inconsistent
    system proves D is no H1^x M H2^x, and the attack fails.
    """
    d = telescoped_conjugate(transcript)
    params = transcript.params
    p, n = params.prime, params.size
    h1_pows = _power_list(params.left_factor, n)
    h2_pows = _power_list(params.right_factor, n)
    work = WorkCounters(linear_solves=1)
    t = solve_mod(_build_l_matrix(h1_pows, params.base, h2_pows), mx.flatten(d), p)
    if t is None:
        return AttackOutcome(success=False, work=work, detail="H1 A H2 + M - A is outside the H1^i M H2^j span")

    l_b = _build_l_matrix(h1_pows, transcript.bob_value, h2_pows)
    phi_x_of_b = mx.unflatten(d.ring, IntegersMod(p).matmul(l_b, t[:, None]), n, n)
    return _recovered(phi_x_of_b + transcript.alice_value, transcript, work)


def telescoped_conjugate(transcript: Transcript) -> Matrix:
    """The public quantity D = H1 A H2 + M - A, equal to phi^x(g); the telescoping attack solves from it."""
    platform = transcript.build_platform()
    if platform.name != "make":
        raise NotApplicableError("telescoping solve applies to the additive platform only")
    return telescoping_residual(platform, transcript.alice_value) - transcript.alice_value


# ---------------------------------------------------------------------------
# tropical exponent recovery by binary lifting


def tropical_binsearch_attack(transcript: Transcript, x_max: int = 1 << 20) -> AttackOutcome:
    """Recover an admissible exponent for A, then the key, by binary lifting.

    The sequence is entrywise non-increasing (each step mins the previous
    term against more material), so "a_n <= A" is a monotone predicate and
    its first true index n* satisfies a_n* = A whenever A = a_x with
    x <= x_max.  Any admissible exponent works: a_x' = a_x forces
    a_(x'+y) = a_(x+y), so the derived key is the true key.

    The search walks packed carrier values over the platform's doubling
    chain D_i = (a_(2^i), phi^(2^i)): it grows the longest prefix m with a_m
    not <= A from the top level down.  phi(x) <= x entrywise and a_k <= g,
    so the carrier step a_(m+k) = phi^k(a_m) ⊕ a_k is phi^k(a_m): each probe
    is one action a_(m+2^i) = phi^(2^i)(a_m), and the hit a_(m+1) = phi(a_m).
    Only the key needs phi^(m+1), applied once, to B, by ``apply_phi_power``.

    The terms form a chain, so a probe incomparable with A proves that A is
    no a_x, and the search stops there.  ``check_x_max`` runs before any work.
    """
    check_x_max(x_max)
    platform = transcript.build_platform()
    if platform.name != "tropical":
        raise NotApplicableError("binary-search exponent recovery applies to the tropical platform only")
    a_obs, b_obs = transcript.alice_value, transcript.bob_value

    work = WorkCounters()
    chain = doubling_chain(platform, x_max)
    m, a_m = 0, None  # the longest prefix known to have a_m not <= A, packed; a_0 is no term
    for step in reversed(chain):
        if m + step.exponent >= x_max:
            continue
        probe = step.value.data if a_m is None else step.end.act(a_m)
        work.search_steps += 1
        le, ge = bool(np.all(probe <= a_obs.data)), bool(np.all(probe >= a_obs.data))
        if not (le or ge):
            return AttackOutcome(success=False, work=work, detail=f"a_{m + step.exponent} is incomparable with A")
        if not le:
            m, a_m = m + step.exponent, probe

    hit = platform.g.data if a_m is None else platform.phi.act(a_m)
    if not np.array_equal(hit, a_obs.data):
        return AttackOutcome(success=False, work=work, detail=f"no admissible exponent <= {x_max}")

    key = platform.op(apply_phi_power(platform, m + 1, b_obs), a_obs)
    return _recovered(key, transcript, work, exponent=m + 1)


# ---------------------------------------------------------------------------
# solution counting for the OR/AND platform


def mobs_solution_count(
    platform: Platform,
    observed: Matrix,
    true_exponent: int | None = None,
) -> AttackOutcome:
    """Count every Y with h(A) M = Y A over the OR/AND matrix semiring.

    The count is exact over all 2^(n^2 k) candidate matrices, but it visits
    none of them: OR and AND act bit by bit, and row i of Y A reads row i of
    Y only, so the count is the product over the n k slices (row i, bit b) of
    the number of the 2^n bit vectors u with OR_l (u_l AND A_lj) equal to
    bit b of (h(A) M)_ij for every column j.  Its largest arrays hold one
    boolean per (u, row or column, other index, bit), 2^n n^2 k in all, and
    a platform past ``MOBS_CENSUS_CAP`` of them is refused before any work.

    phi^x(M) always satisfies the equation (telescoping identity), so for a
    genuine A the count is at least 1; when ``true_exponent`` is given,
    membership of the true phi^x(M) is checked explicitly and folded into
    ``success``.
    """
    if platform.name != "mobs":
        raise NotApplicableError("solution counting applies to the OR/AND platform only")
    n = platform.g.rows
    k = platform.g.ring.length
    entries = (1 << n) * n * n * k
    if entries > MOBS_CENSUS_CAP:
        raise SizeCapError(
            f"the census of {n}x{n} matrices of {k}-bit strings needs 2^{n}*{n}^2*{k} = {entries} entries "
            f"(cap {MOBS_CENSUS_CAP})"
        )

    residual = telescoping_residual(platform, observed)
    u = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1  # every slice candidate, bit l = u_l
    prods = np.any(u[:, :, None, None] & observed.data[None], axis=1)  # (u, column j, bit b)
    solves = np.all(prods[:, None] == residual.data[None], axis=2)  # (u, row i, bit b)
    count = math.prod(solves.sum(axis=0).ravel().tolist())

    work = WorkCounters(solution_count=count)
    success = count >= 1
    if true_exponent is not None:
        y_true = apply_phi_power(platform, true_exponent, platform.g)
        success = success and y_true @ observed == residual
    return AttackOutcome(success=success, work=work)


# ---------------------------------------------------------------------------
# message recovery against the encryption scheme


def mr_message_recovery(platform: Platform, public_key: Matrix, ct: Ciphertext) -> Matrix:
    """Recover the plaintext from (public key, ciphertext) alone.

    The blinding factor K = phi^n(c1) a is exactly a shared key for the
    pair of public values (a, c1), so the dimension attack recovers it and
    K^-1 c2 is the message.  The attack runs on the given platform, built once by the caller.
    """
    key, _ = _span_key(platform.params, lambda: platform, public_key, ct.c1)
    if key is None:
        raise NotApplicableError("dimension attack did not produce a key")
    return mx.inverse(key) @ ct.c2


# ---------------------------------------------------------------------------
# the method table

#: each ``--method`` name's runner; a runner looks its attack up by the
#: module-level name when it runs, so a tracer that rebinds the name sees the call
ATTACKS: dict[str, Callable[[Transcript, int], AttackOutcome]] = {
    "dimension": lambda transcript, x_max: dimension_attack(transcript),
    "telescope": lambda transcript, x_max: make_telescoping_attack(transcript),
    "tropical-binsearch": lambda transcript, x_max: tropical_binsearch_attack(transcript, x_max=x_max),
    "mobs-count": lambda transcript, x_max: mobs_solution_count(transcript.build_platform(), transcript.alice_value),
}
