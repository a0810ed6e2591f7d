"""The three benchmark workloads: exchange, attack and cli.

Each workload is closed-loop, single-process and single-client: a round is
one trial on each of the five platforms in PLATFORMS order, and the next
trial starts only when the previous one has returned.  Every input is drawn
from the workload seed.  A trial returns whether the benchmark's own check
of its output passed, plus the bytes that feed the determinism digest.

The benchmark calls sdpke through module attributes (``protocol.keygen``,
never a name imported into this file), so the tracer's rebinding of those
attributes reaches every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time

from sdpke import attacks, cli, platforms, protocol

PLATFORMS = ("groupring", "gl", "tropical", "make", "mobs")
EXPONENT_BITS = 16

#: the substream ``sdpke exchange`` draws platform parameters from
PLATFORM_STREAM = (1 << 64) - 1

#: the attack workload cycles through this many rounds of transcripts made in set-up,
#: each round on platforms of its own: an attack's cost depends on the platform
#: (the dimension attack's rank, the tropical entries), so one run averages over many
ATTACK_POOL_ROUNDS = 32
TROPICAL_X_MAX = 1 << 20
#: 2x2 matrices of 4-bit strings: 2^16 census candidates, under the enumeration cap
ATTACK_MOBS_SHAPE = {"size": 2, "cycle_lengths": (2, 2)}

CLI_TRIALS = 2
CLI_ATTACK = {
    "groupring": ["attack", "--method", "dimension"],
    "gl": ["attack", "--method", "dimension"],
    "tropical": ["attack", "--method", "tropical-binsearch", "--x-max", str(TROPICAL_X_MAX)],
    "make": ["attack", "--method", "telescope"],
}


def _same(m, expected: list) -> bool:
    """Matrix entries equal ``expected`` (nested lists), compared without sdpke code."""
    return m is not None and m.data.tolist() == expected


def _timed(times: dict, label: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    times.setdefault(label, []).append(time.perf_counter() - t0)
    return out


def _exchange(platform, rng, times: dict):
    """Two keygens and two derivations; returns (alice, bob, key_a, key_b)."""
    kind = platform.name
    alice = _timed(times, f"keygen.{kind}", protocol.keygen, platform, rng, EXPONENT_BITS)
    bob = _timed(times, f"keygen.{kind}", protocol.keygen, platform, rng, EXPONENT_BITS)
    k_a = _timed(times, f"derive.{kind}", protocol.derive_key, platform, alice.exponent, bob.public_value, alice.public_value)
    k_b = _timed(times, f"derive.{kind}", protocol.derive_key, platform, bob.exponent, alice.public_value, bob.public_value)
    return alice, bob, k_a, k_b


def default_platforms(seed: int, stream: int = PLATFORM_STREAM, mobs_overrides: dict | None = None) -> dict:
    """The five default platforms, each drawn from the substream [seed, stream]."""
    built = {}
    for kind in PLATFORMS:
        overrides = mobs_overrides if kind == "mobs" and mobs_overrides else {}
        params = platforms.random_params(kind, cli.trial_rng(seed, stream), **overrides)
        built[kind] = params.build()
    return built


class ExchangeWorkload:
    """Keygen x2 and derive x2 per trial on platforms built once, then serialize."""

    name = "exchange"

    def __init__(self, seed: int):
        self.seed = seed
        self.direct: dict = {}  # untraced seconds per "keygen.<platform>" / "derive.<platform>"
        self.platforms = default_platforms(seed)

    def trial(self, round_index: int, pos: int) -> tuple[bool, bytes]:
        platform = self.platforms[PLATFORMS[pos]]
        rng = cli.trial_rng(self.seed, round_index * len(PLATFORMS) + pos)
        alice, bob, k_a, k_b = _exchange(platform, rng, self.direct)
        text = protocol.Transcript(
            params=platform.params,
            alice_value=alice.public_value,
            bob_value=bob.public_value,
            shared_key=k_a,
        ).to_json()
        record = json.loads(text)
        ok = (
            _same(k_a, k_b.data.tolist())
            and record.get("schema") == protocol.TRANSCRIPT_SCHEMA
            and record["platform"]["kind"] == platform.name
            and {"A", "B", "key"} <= record.keys()
        )
        return ok, text.encode()

    def close(self):
        pass


class AttackWorkload:
    """Parse a stored transcript and run every applicable attack on it."""

    name = "attack"
    pool_rounds = ATTACK_POOL_ROUNDS

    def __init__(self, seed: int):
        self.seed = seed
        self.direct: dict = {}  # untraced seconds per "keygen.<platform>" / "derive.<platform>"
        # pool[i][pos] = (transcript JSON, ground-truth key entries); made here, never by an attack
        self.pool = []
        for i in range(ATTACK_POOL_ROUNDS):
            built = default_platforms(seed, PLATFORM_STREAM - i, ATTACK_MOBS_SHAPE)
            row = []
            for pos, kind in enumerate(PLATFORMS):
                platform = built[kind]
                rng = cli.trial_rng(seed, i * len(PLATFORMS) + pos)
                alice, bob, k_a, k_b = _exchange(platform, rng, self.direct)
                truth = k_a.data.tolist()
                if not _same(k_b, truth):
                    raise RuntimeError(f"set-up: {kind} keys disagree in transcript {i}")
                text = protocol.Transcript(
                    params=platform.params,
                    alice_value=alice.public_value,
                    bob_value=bob.public_value,
                    shared_key=k_a,
                ).to_json()
                row.append((text, truth))
            self.pool.append(row)
        self.candidates = 1 << (ATTACK_MOBS_SHAPE["size"] ** 2 * sum(ATTACK_MOBS_SHAPE["cycle_lengths"]))

    def trial(self, round_index: int, pos: int) -> tuple[bool, bytes]:
        kind = PLATFORMS[pos]
        text, truth = self.pool[round_index % ATTACK_POOL_ROUNDS][pos]
        transcript = protocol.Transcript.from_json(text)
        if kind == "groupring" or kind == "gl":
            outcomes = [attacks.dimension_attack(transcript)]
        elif kind == "make":
            outcomes = [attacks.dimension_attack(transcript), attacks.make_telescoping_attack(transcript)]
        elif kind == "tropical":
            outcomes = [attacks.tropical_binsearch_attack(transcript, x_max=TROPICAL_X_MAX)]
        else:
            platform = transcript.build_platform()
            outcomes = [attacks.mobs_solution_count(platform, transcript.alice_value)]
        if kind == "mobs":
            # the true phi^x(g) is always a solution, so the census is never empty
            ok = 1 <= outcomes[0].work.solution_count <= self.candidates
        else:
            ok = all(_same(o.recovered_key, truth) for o in outcomes)
        record = [text]
        for o in outcomes:
            key = None if o.recovered_key is None else o.recovered_key.data.tolist()
            record.append(json.dumps([key, o.recovered_exponent, o.work.to_obj()], sort_keys=True))
        return ok, "\n".join(record).encode()

    def close(self):
        pass


class CliWorkload:
    """In-process ``sdpke.cli.main`` invocation pairs on temporary files."""

    name = "cli"

    def __init__(self, seed: int, scratch_dir: str):
        self.seed = seed
        self.direct: dict = {}  # untraced seconds per "keygen.<platform>" / "derive.<platform>"
        self.dir = scratch_dir
        os.makedirs(self.dir, exist_ok=True)
        self.report_bytes = 0
        self.transcript_bytes = 0

    def _call(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        self.report_bytes += len(out.getvalue())
        return code, out.getvalue()

    @staticmethod
    def _rows_ok(report: str, kind: str, operation: str) -> tuple[bool, list]:
        rows = json.loads(report)
        ok = len(rows) == CLI_TRIALS and all(
            row["success"] == 1
            and row["platform"] == kind
            and row["operation"] == operation
            and row["trial"] == i
            for i, row in enumerate(rows)
        )
        for row in rows:
            row.pop("micros")  # wall clock, the only field allowed to vary
        return ok, rows

    def trial(self, round_index: int, pos: int) -> tuple[bool, bytes]:
        kind = PLATFORMS[pos]
        call_seed = int.from_bytes(hashlib.sha256(f"{self.seed}:{round_index}".encode()).digest()[:7], "big")
        common = ["--trials", str(CLI_TRIALS), "--seed", str(call_seed), "--format", "json"]
        path = os.path.join(self.dir, f"{kind}.json")
        code, report = self._call(["exchange", "--platform", kind, "--test-mode", "--out", path, *common])
        ok, rows = self._rows_ok(report, kind, "exchange")
        ok = ok and code == 0
        with open(path, "rb") as fh:
            transcripts = fh.read()
        self.transcript_bytes += len(transcripts)
        ok = ok and len(json.loads(transcripts)) == CLI_TRIALS
        if kind == "mobs":
            code, report = self._call(["count", *common])
            attack_ok, attack_rows = self._rows_ok(report, "mobs", "mobs-count")
        else:
            code, report = self._call([*CLI_ATTACK[kind], path, *common])
            attack_ok, attack_rows = self._rows_ok(report, kind, CLI_ATTACK[kind][2])
        ok = ok and attack_ok and code == 0
        record = transcripts + json.dumps([rows, attack_rows], sort_keys=True).encode()
        return ok, record

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def make(name: str, seed: int, scratch_dir: str):
    if name == "exchange":
        return ExchangeWorkload(seed)
    if name == "attack":
        return AttackWorkload(seed)
    if name == "cli":
        return CliWorkload(seed, scratch_dir)
    raise ValueError(f"unknown workload {name!r}")
