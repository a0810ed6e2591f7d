"""Key-recovery procedures: everything an eavesdropper can do with a transcript.

Four procedures, each consuming only public data (platform parameters and
the exchanged values), each returning an AttackOutcome:

* ``dimension_attack`` — works whenever the carrier embeds linearly in a
  Z_p vector space (group ring, GL, and the additive platform).  It grows
  the sequence a_1, a_2, ... until the first linear dependence, writes the
  observed value A as a combination of the independent prefix, and
  reassembles the shared key from public terms by linearity of phi.
* ``make_telescoping_attack`` — specific to the additive platform.  The
  telescoping identity pins down phi^x(g) exactly (additive carriers are
  groups, so the solution is unique), and a Cayley-Hamilton argument turns
  key recovery into one small linear solve.
* ``tropical_binsearch_attack`` — the exchanged sequence is entrywise
  non-increasing, so its terms form a chain and an admissible exponent is
  found by binary lifting over the doubling chain (g, phi)^(2^i); a term
  incomparable with A proves A is off the sequence.
* ``mobs_solution_count`` — exact census of how many Y satisfy the
  telescoping equality on the OR/AND platform, counted one (row, bit) slice
  of Y at a time; evidence for why the telescoping route fails there.

``mr_message_recovery`` turns the dimension attack into ciphertext-only
message recovery for the encryption scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matrices as mx
from .errors import NotApplicableError, SizeCapError
# sdp_exp is not called here; the benchmark's tracer self-test checks that it is rebound in this module
from .holomorph import HolomorphPower, Platform, holo_mul, sdp_exp, sequence_iter, telescoping_residual
from .linalg import EchelonSpan, solve_mod
from .matrices import Matrix
from .protocol import Ciphertext, Transcript

MOBS_ENUMERATION_CAP = 1 << 24


@dataclass
class WorkCounters:
    sequence_terms_generated: int = 0
    rank: int = 0
    linear_solves: int = 0
    search_steps: int = 0
    solution_count: int = 0

    def to_obj(self) -> dict:
        return {
            "sequence_terms_generated": self.sequence_terms_generated,
            "rank": self.rank,
            "linear_solves": self.linear_solves,
            "search_steps": self.search_steps,
            "solution_count": self.solution_count,
        }


@dataclass
class AttackOutcome:
    success: bool
    recovered_key: Matrix | None = None
    recovered_exponent: int | None = None
    work: WorkCounters = field(default_factory=WorkCounters)
    detail: str = ""


def _verify(recovered: Matrix | None, transcript: Transcript) -> bool:
    """Success means the exact shared key when ground truth is available."""
    if recovered is None:
        return False
    if transcript.shared_key is not None:
        return recovered == transcript.shared_key
    return True


# ---------------------------------------------------------------------------
# dimension attack


@dataclass
class SpanBasis:
    """Maximal linearly independent prefix a_1, ..., a_k of the exchange sequence.

    The first dependence closes the span, because a_(m+1) = phi(a_m) ∘ a_1
    and both phi and ∘-by-a_1 act linearly on the ambient coordinates.
    """

    elements: list[Matrix]
    vectors: list[np.ndarray]

    @property
    def rank(self) -> int:
        return len(self.elements)


def build_span_basis(platform: Platform, modulus: int) -> SpanBasis:
    """Generate a_1, a_2, ... and stop at the first linearly dependent term."""
    span = EchelonSpan(modulus)
    basis = SpanBasis(elements=[], vectors=[])
    for _n, value in sequence_iter(platform):
        v = mx.flatten(value)
        if not span.add(v):
            break
        basis.elements.append(value)
        basis.vectors.append(v)
    return basis


def dimension_attack(transcript: Transcript) -> AttackOutcome:
    """Recover the shared key from a transcript via linear algebra over Z_p.

    Writes A = sum eta_i a_i over the independent prefix, then uses that
    phi^y(a_i) ∘ a_y = a_(i+y) = phi^i(a_y) ∘ a_i to re-express the key
    through public quantities only:

    * multiplicative carriers:  K = sum_i eta_i phi^i(B) a_i
    * additive carrier:         K = sum_i eta_i phi^i(B) + A + (1 - sum_i eta_i) B

    The additive form carries the affine correction (1 - sum eta_i) B; it
    reduces to the sum of phi^i(B) + a_i whenever the coefficients happen to
    sum to one, but is exact for every solution eta.
    An A outside the span of the prefix, which spans every term, is no a_x.
    """
    platform = transcript.build_platform()
    if not platform.g.ring.linear:
        raise NotApplicableError(f"platform {platform.name!r} has no Z_p-linear coordinates")
    modulus = platform.g.ring.modulus

    work = WorkCounters()
    basis = build_span_basis(platform, modulus)
    work.sequence_terms_generated = basis.rank + 1
    work.rank = basis.rank

    a_obs = transcript.alice_value
    b_obs = transcript.bob_value
    coords = np.stack(basis.vectors, axis=1)
    eta = solve_mod(coords, mx.flatten(a_obs), modulus)
    work.linear_solves = 1
    if eta is None:
        return AttackOutcome(success=False, work=work, detail="A is outside the span of the sequence")

    additive = platform.op_kind == "add"
    phi_i_of_b = b_obs  # phi^0(B); basis indices run 1..k, one application per step
    acc: Matrix | None = None
    for pos in range(basis.rank):
        phi_i_of_b = platform.phi(phi_i_of_b)
        c = int(eta[pos])
        if c == 0:
            continue
        term = phi_i_of_b if additive else phi_i_of_b @ basis.elements[pos]
        term = term.scale(c)
        acc = term if acc is None else acc + term
    if acc is None:
        acc = mx.zeros(platform.g.ring, *platform.g.shape)
    if additive:
        eta_sum = int(np.sum(eta)) % modulus
        key = acc + a_obs + b_obs.scale((1 - eta_sum) % modulus)
    else:
        key = acc

    return AttackOutcome(
        success=_verify(key, transcript),
        recovered_key=key,
        work=work,
    )


# ---------------------------------------------------------------------------
# telescoping attack on the additive platform


def _power_list(m: Matrix, count: int) -> list[Matrix]:
    """[I, M, M^2, ..., M^(count-1)]."""
    out = [mx.identity(m.ring, m.rows)]
    for _ in range(count - 1):
        out.append(out[-1] @ m)
    return out


def _build_l_matrix(h1_pows: list[Matrix], y: Matrix, h2_pows: list[Matrix]) -> np.ndarray:
    """Columns flatten(H1^i Y H2^j), i and j ranging over the given power lists."""
    cols = []
    for h1i in h1_pows:
        left = h1i @ y
        for h2j in h2_pows:
            cols.append(mx.flatten(left @ h2j))
    return np.stack(cols, axis=1)


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
    platform = transcript.build_platform()
    if platform.name != "make":
        raise NotApplicableError("telescoping solve applies to the additive platform only")
    params = platform.params
    p = params.prime
    n = params.size
    h1, h2, m = params.left_factor, params.right_factor, params.base
    a_obs, b_obs = transcript.alice_value, transcript.bob_value

    work = WorkCounters()
    d = telescoping_residual(platform, a_obs) - a_obs

    h1_pows = _power_list(h1, n)
    h2_pows = _power_list(h2, n)
    work.linear_solves = 1
    t = solve_mod(_build_l_matrix(h1_pows, m, h2_pows), mx.flatten(d), p)
    if t is None:
        return AttackOutcome(success=False, work=work, detail="H1 A H2 + M - A is outside the H1^i M H2^j span")

    l_b = _build_l_matrix(h1_pows, b_obs, h2_pows)
    phi_x_of_b = mx.unflatten(platform.g.ring, (l_b @ t) % p, n, n)
    key = phi_x_of_b + a_obs

    return AttackOutcome(
        success=_verify(key, transcript),
        recovered_key=key,
        work=work,
    )


def telescoped_conjugate(transcript: Transcript) -> Matrix:
    """The public quantity H1 A H2 + M - A (equals phi^x(g); used by tests)."""
    platform = transcript.build_platform()
    if platform.name != "make":
        raise NotApplicableError("defined for the additive platform only")
    return telescoping_residual(platform, transcript.alice_value) - transcript.alice_value


# ---------------------------------------------------------------------------
# tropical exponent recovery by binary lifting


def _compare_entrywise(a: Matrix, b: Matrix) -> tuple[bool, bool]:
    """(a <= b everywhere, a >= b everywhere) under the entrywise order."""
    return bool(np.all(a.data <= b.data)), bool(np.all(a.data >= b.data))


def tropical_binsearch_attack(transcript: Transcript, x_max: int = 1 << 20) -> AttackOutcome:
    """Recover an admissible exponent for A, then the key, by binary lifting.

    The sequence is entrywise non-increasing (each step mins the previous
    term against more material), so "a_n <= A" is a monotone predicate and
    its first true index n* satisfies a_n* = A whenever A = a_x with
    x <= x_max.  Any admissible exponent works: a_x' = a_x forces
    a_(x'+y) = a_(x+y), so the derived key is the true key.

    The search squares (g, phi) into the doubling chain D_i = (g, phi)^(2^i)
    and grows the longest prefix (a_m, phi^m) with a_m not <= A from the top
    level down, so each probe is one holomorph product and n* = m + 1.

    The terms form a chain, so a probe incomparable with A proves that A is
    no a_x, and the search stops there.
    """
    platform = transcript.build_platform()
    if platform.name != "tropical":
        raise NotApplicableError("binary-search exponent recovery applies to the tropical platform only")
    a_obs, b_obs = transcript.alice_value, transcript.bob_value

    work = WorkCounters()
    chain = [HolomorphPower(platform.g, platform.phi, 1)]
    while 2 * chain[-1].exponent < x_max:
        chain.append(holo_mul(platform, chain[-1], chain[-1]))

    above: HolomorphPower | None = None  # the longest prefix known to have a_m not <= A
    for step in reversed(chain):
        if (0 if above is None else above.exponent) + step.exponent >= x_max:
            continue
        probe = step if above is None else holo_mul(platform, above, step)
        work.search_steps += 1
        le, ge = _compare_entrywise(probe.value, a_obs)
        if not (le or ge):
            return AttackOutcome(success=False, work=work, detail=f"a_{probe.exponent} is incomparable with A")
        if not le:
            above = probe

    hit = chain[0] if above is None else holo_mul(platform, above, chain[0])
    if hit.value != a_obs:
        return AttackOutcome(success=False, work=work, detail=f"no admissible exponent <= {x_max}")

    key = platform.op(hit.end(b_obs), a_obs)
    return AttackOutcome(
        success=_verify(key, transcript),
        recovered_key=key,
        recovered_exponent=hit.exponent,
        work=work,
    )


# ---------------------------------------------------------------------------
# solution counting for the OR/AND platform


def mobs_solution_count(
    platform: Platform,
    observed: Matrix,
    true_exponent: int | None = None,
) -> AttackOutcome:
    """Count every Y with h(A) M = Y A over the OR/AND matrix semiring.

    The count is exact over all 2^(n^2 k) candidate matrices, and refused
    when that candidate space exceeds ``MOBS_ENUMERATION_CAP``, but it visits
    none of them: OR and AND act bit by bit, and row i of Y A reads row i of
    Y only, so the count is the product over the n k slices (row i, bit b) of
    the number of the 2^n bit vectors u with OR_l (u_l AND A_lj) equal to
    bit b of (h(A) M)_ij for every column j.

    phi^x(M) always satisfies the equation (telescoping identity), so for a
    genuine A the count is at least 1; when ``true_exponent`` is given,
    membership of the true phi^x(M) is checked explicitly and folded into
    ``success``.
    """
    if platform.name != "mobs":
        raise NotApplicableError("solution counting applies to the OR/AND platform only")
    n = platform.g.rows
    k = platform.g.ring.length
    total_bits = n * n * k
    if (1 << total_bits) > MOBS_ENUMERATION_CAP:
        raise SizeCapError(
            f"{n}x{n} matrices of {k}-bit strings need 2^{total_bits} candidates (cap {MOBS_ENUMERATION_CAP})"
        )

    residual = telescoping_residual(platform, observed)
    u = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1  # every slice candidate, bit l = u_l
    prods = np.any(u[:, :, None, None] & observed.data[None], axis=1)  # (u, column j, bit b)
    solves = np.all(prods[:, None] == residual.data[None], axis=2)  # (u, row i, bit b)
    count = math.prod(solves.sum(axis=0).ravel().tolist())

    work = WorkCounters(solution_count=count)
    success = count >= 1
    if true_exponent is not None:
        y_true = platform.phi.power(true_exponent)(platform.g)
        success = success and y_true @ observed == residual
    return AttackOutcome(success=success, work=work)


# ---------------------------------------------------------------------------
# message recovery against the encryption scheme


def mr_message_recovery(platform: Platform, public_key: Matrix, ct: Ciphertext) -> Matrix:
    """Recover the plaintext from (public key, ciphertext) alone.

    The blinding factor K = phi^n(c1) a is exactly a shared key for the
    pair of public values (a, c1), so the dimension attack recovers it and
    K^-1 c2 is the message.
    """
    synthetic = Transcript(params=platform.params, alice_value=public_key, bob_value=ct.c1)
    outcome = dimension_attack(synthetic)
    if outcome.recovered_key is None:
        raise NotApplicableError("dimension attack did not produce a key")
    return mx.inverse(outcome.recovered_key) @ ct.c2
