"""Command-line experiment harness.

Subcommands:

* ``exchange`` — run seeded key exchanges on a platform, write the
  transcripts (JSON array) to ``--out``, and report one row per trial.
* ``attack``  — replay an attack against a transcript file.
* ``bench``   — per-operation wall-clock rows in CSV, summary to stderr.
* ``count``   — the telescoping solution-count experiment on the OR/AND
  platform at enumerable sizes.

Determinism: all randomness flows from counter-based per-trial substreams
Philox(key=[seed, trial]), so a (config, seed) pair reproduces identical
transcripts, outcomes, and work counters; only wall-clock fields vary.
Trials run sequentially: their small numpy calls hold the GIL, so threads
only add overhead.

Exit codes: 0 success, 1 trial failure, 2 bad configuration, 3 attack not
applicable to the platform, 4 enumeration size cap exceeded.

Report rows have the fixed shape
``platform,trial,operation,success,micros,counters`` in CSV mode; counters
serialize as ``name=value`` pairs joined by ``;``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import matrices as mx
from .attacks import (
    dimension_attack,
    make_telescoping_attack,
    mobs_solution_count,
    tropical_binsearch_attack,
)
from .errors import NotApplicableError, ParameterError, SizeCapError
from .holomorph import sdp_exp
from .platforms import PLATFORM_KINDS, MobsParams, params_from_obj, random_params
from .protocol import Transcript, derive_key, draw_exponent, keygen, run_exchange

CSV_HEADER = "platform,trial,operation,success,micros,counters"

#: substream index reserved for platform parameter generation (trial
#: substreams use their trial index)
_PLATFORM_STREAM = (1 << 64) - 1


@dataclass
class RunConfig:
    platform: str | None = None
    params_file: str | None = None
    trials: int = 1
    seed: int = 0
    exponent_bits: int = 16
    test_mode: bool = False
    out: str | None = None
    fmt: str = "csv"
    method: str | None = None
    x_max: int = 1 << 20

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if not 0 <= self.seed < (1 << 64):
            raise ParameterError("seed must fit in 64 bits")


@dataclass
class ReportRow:
    platform: str
    trial: int
    operation: str
    success: bool
    micros: int
    counters: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        counters = ";".join(f"{k}={v}" for k, v in self.counters.items())
        return f"{self.platform},{self.trial},{self.operation},{int(self.success)},{self.micros},{counters}"

    def to_obj(self) -> dict:
        return {
            "platform": self.platform,
            "trial": self.trial,
            "operation": self.operation,
            "success": int(self.success),
            "micros": self.micros,
            "counters": self.counters,
        }


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@contextlib.contextmanager
def _reading(what: str):
    """Turn an unreadable file or a malformed record in it (a missing key, a
    value of the wrong type or range) into one ParameterError line."""
    try:
        yield
    except ParameterError:  # a ValueError that already says what is wrong
        raise
    except (OSError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParameterError(f"cannot read {what}: {type(exc).__name__}: {exc}") from exc


def _load_params(config: RunConfig):
    """Platform parameters from --params (explicit or seeded) or defaults.

    A seeded file holds ``kind``, ``seed`` and any keyword arguments of the
    kind's generator; any other key is an error.
    """
    if config.params_file:
        with _reading("params file"):
            with open(config.params_file) as fh:
                obj = json.load(fh)
            if "seed" in obj:
                overrides = {k: v for k, v in obj.items() if k not in ("kind", "seed")}
                rng = trial_rng(int(obj["seed"]), _PLATFORM_STREAM)
                return random_params(obj.get("kind"), rng, **overrides)
            return params_from_obj(obj)
    if config.platform is None:
        raise ParameterError("either --platform or --params is required")
    rng = trial_rng(config.seed, _PLATFORM_STREAM)
    return random_params(config.platform, rng)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_report(rows: list[ReportRow], config: RunConfig, path: str | None):
    if config.fmt == "csv":
        text = CSV_HEADER + "\n" + "".join(r.to_csv() + "\n" for r in rows)
    else:
        text = json.dumps([r.to_obj() for r in rows], indent=2, sort_keys=True) + "\n"
    _write_text(path, text)


def _transcripts_json(transcripts: list[Transcript]) -> str:
    return json.dumps([t.to_obj() for t in transcripts], sort_keys=True, separators=(",", ":")) + "\n"


def _load_transcripts(path: str) -> list[Transcript]:
    with _reading("transcript file"):
        with open(path) as fh:
            obj = json.load(fh)
        records = obj if isinstance(obj, list) else [obj]
        return [Transcript.from_obj(rec) for rec in records]


# ---------------------------------------------------------------------------
# subcommands


def cmd_exchange(config: RunConfig) -> int:
    if config.out is None:
        raise ParameterError("exchange requires --out for the transcript file")
    params = _load_params(config)
    platform = params.build()

    def one(trial: int):
        rng = trial_rng(config.seed, trial)
        t0 = time.perf_counter()
        transcript, agreed = run_exchange(
            platform, rng, config.exponent_bits, include_key=config.test_mode
        )
        micros = int((time.perf_counter() - t0) * 1e6)
        return transcript, ReportRow(platform.name, trial, "exchange", agreed, micros)

    results = [one(t) for t in range(config.trials)]
    transcripts = [t for t, _ in results]
    rows = [r for _, r in results]
    _write_text(config.out, _transcripts_json(transcripts))
    _emit_report(rows, config, None)
    return 0 if all(r.success for r in rows) else 1


_ATTACKS = ("dimension", "telescope", "tropical-binsearch", "mobs-count")


def _run_attack(method: str, transcript: Transcript, config: RunConfig):
    if method == "dimension":
        return dimension_attack(transcript)
    if method == "telescope":
        return make_telescoping_attack(transcript)
    if method == "tropical-binsearch":
        return tropical_binsearch_attack(transcript, x_max=config.x_max)
    if method == "mobs-count":
        platform = transcript.build_platform()
        return mobs_solution_count(platform, transcript.alice_value)
    raise ParameterError(f"unknown attack method {method!r}")


def cmd_attack(config: RunConfig, transcript_path: str) -> int:
    if config.method not in _ATTACKS:
        raise ParameterError(f"--method must be one of {_ATTACKS}")
    transcripts = _load_transcripts(transcript_path)

    rows = []
    for trial, transcript in enumerate(transcripts):
        t0 = time.perf_counter()
        outcome = _run_attack(config.method, transcript, config)
        micros = int((time.perf_counter() - t0) * 1e6)
        rows.append(
            ReportRow(
                transcript.params.kind,
                trial,
                config.method,
                outcome.success,
                micros,
                outcome.work.to_obj(),
            )
        )
    _emit_report(rows, config, config.out)
    return 0 if all(r.success for r in rows) else 1


def cmd_bench(config: RunConfig) -> int:
    params = _load_params(config)
    platform = params.build()

    def one(trial: int):
        rng = trial_rng(config.seed, trial)
        rows = []

        t0 = time.perf_counter()
        alice = keygen(platform, rng, config.exponent_bits)
        rows.append(("keygen", time.perf_counter() - t0))

        bob = keygen(platform, rng, config.exponent_bits)
        t0 = time.perf_counter()
        k_alice = derive_key(platform, alice.exponent, bob.public_value, alice.public_value)
        rows.append(("derive", time.perf_counter() - t0))

        t0 = time.perf_counter()
        _, agreed = run_exchange(platform, rng, config.exponent_bits)
        rows.append(("exchange", time.perf_counter() - t0))

        k_bob = derive_key(platform, bob.exponent, alice.public_value, bob.public_value)
        ok = agreed and k_alice == k_bob
        return [
            ReportRow(platform.name, trial, op, ok, int(dt * 1e6)) for op, dt in rows
        ]

    rows = [row for t in range(config.trials) for row in one(t)]
    _emit_report(rows, config, config.out)

    by_op: dict[str, list[int]] = {}
    for r in rows:
        by_op.setdefault(r.operation, []).append(r.micros)
    for op, times in sorted(by_op.items()):
        qs = np.percentile(times, [50, 90, 100])
        print(
            f"# {platform.name} {op}: p50={qs[0]:.0f}us p90={qs[1]:.0f}us max={qs[2]:.0f}us",
            file=sys.stderr,
        )
    return 0 if all(r.success for r in rows) else 1


def cmd_count(config: RunConfig) -> int:
    if config.params_file:
        base_params = _load_params(config)
        if base_params.kind != "mobs":
            raise NotApplicableError("count experiment needs OR/AND platform parameters")
    else:
        base_params = random_params("mobs", trial_rng(config.seed, _PLATFORM_STREAM), size=2, cycle_lengths=(3,))

    def one(trial: int):
        rng = trial_rng(config.seed, trial)
        ring = base_params.ring()
        fresh = MobsParams(
            size=base_params.size,
            bits=base_params.bits,
            bit_permutation=base_params.bit_permutation,
            base=mx.random_matrix(rng, ring, base_params.size, base_params.size),
        )
        platform = fresh.build()
        x = draw_exponent(rng, config.exponent_bits)
        observed = sdp_exp(platform, x).value
        t0 = time.perf_counter()
        outcome = mobs_solution_count(platform, observed, true_exponent=x)
        micros = int((time.perf_counter() - t0) * 1e6)
        return ReportRow(
            "mobs", trial, "mobs-count", outcome.success, micros, outcome.work.to_obj()
        )

    rows = [one(t) for t in range(config.trials)]
    _emit_report(rows, config, config.out)
    counts = sorted(r.counters["solution_count"] for r in rows)
    print(
        f"# solution counts: min={counts[0]} median={counts[len(counts) // 2]} max={counts[-1]}",
        file=sys.stderr,
    )
    return 0 if all(r.success for r in rows) else 1


# ---------------------------------------------------------------------------
# argument parsing


_FLAGS = {
    "--platform": dict(choices=PLATFORM_KINDS, help="use default parameters for this platform"),
    "--params": dict(dest="params_file", help="JSON platform parameter file"),
    "--trials": dict(type=int, default=1),
    "--seed": dict(type=int, default=0),
    "--exponent-bits": dict(type=int, default=16, help="exponents are drawn from [2, 2^bits), 2 <= bits <= 63"),
    "--test-mode": dict(action="store_true", help="embed the ground-truth key in transcripts"),
    "--out": dict(help="output file (transcripts for exchange, report otherwise)"),
    "--format": dict(dest="fmt", choices=("json", "csv"), default="csv"),
}


def _add_flags(p: argparse.ArgumentParser, *flags: str):
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand registers only the flags it reads."""
    parser = argparse.ArgumentParser(prog="sdpke", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exchange", help="run seeded key exchanges, write transcripts")
    _add_flags(p, "--platform", "--params", "--trials", "--seed", "--exponent-bits", "--test-mode",
               "--out", "--format")

    p = sub.add_parser("attack", help="run an attack against a transcript file")
    # attack reads neither --trials nor --seed; it accepts both because the
    # benchmark's cli workload passes one argument list to every subcommand
    _add_flags(p, "--trials", "--seed", "--out", "--format")
    p.add_argument("transcript", help="transcript JSON file written by exchange")
    p.add_argument("--method", choices=_ATTACKS, required=True)
    p.add_argument("--x-max", type=int, default=1 << 20, help="exponent search bound (tropical)")

    p = sub.add_parser("bench", help="per-operation timing rows")
    _add_flags(p, "--platform", "--params", "--trials", "--seed", "--exponent-bits", "--out", "--format")

    p = sub.add_parser("count", help="telescoping solution-count experiment (OR/AND platform)")
    _add_flags(p, "--params", "--trials", "--seed", "--exponent-bits", "--out", "--format")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig fields the subcommand registered; the rest keep their defaults."""
    names = [f.name for f in fields(RunConfig)]
    return RunConfig(**{name: getattr(args, name) for name in names if hasattr(args, name)})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "exchange":
            return cmd_exchange(config)
        if args.command == "attack":
            return cmd_attack(config, args.transcript)
        if args.command == "bench":
            return cmd_bench(config)
        if args.command == "count":
            return cmd_count(config)
        raise ParameterError(f"unknown command {args.command!r}")
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 3
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
