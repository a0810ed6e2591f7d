"""Command-line experiment harness.

Subcommands:

* ``exchange`` — run seeded key exchanges on a platform, write the
  transcripts (JSON array) to ``--out``, and report one row per trial.
* ``attack``  — replay an attack against a transcript file; ``--method``
  names an entry of ``sdpke.attacks.ATTACKS``.
* ``count``   — the telescoping solution-count experiment on the OR/AND
  platform at enumerable sizes.

Determinism: all randomness flows from counter-based per-trial substreams
Philox(key=[seed, trial]), so a (config, seed) pair reproduces identical
transcripts, outcomes, and work counters; only wall-clock fields vary.
Trials run sequentially: their small numpy calls hold the GIL, so threads
only add overhead.

Work is done once: the parser is built once per process, the exchanges
of one call raise their exponents over the platform's cached doubling
chain, and ``attack`` builds each distinct platform record of a transcript
file once, while it reads the file, so every trial on one record shares
the build.  A record that an attack then refuses has been built all the
same: the dimension attack's block cap, which the library call checks
before any build, comes after it here.  Each subcommand reads its flags
from the argparse namespace, so every default lives in the parser.

Exit codes: 0 success, 1 trial failure, 2 bad configuration (an ``--out``
that cannot be written included, found before the first trial), 3 attack
not applicable to the platform, 4 enumeration size cap exceeded.

Report rows have the fixed shape
``platform,trial,operation,success,micros,counters`` in CSV mode; counters
serialize as ``name=value`` pairs joined by ``;``, then a failed attack's
``detail=<text>`` (a ``detail`` key in JSON).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import matrices as mx
from .attacks import ATTACKS, check_x_max, mobs_solution_count
from .errors import NotApplicableError, ParameterError, SizeCapError, _is_integer, read_json
from .holomorph import sdp_exp
from .platforms import PLATFORM_KINDS, params_from_obj, random_params
from .protocol import Transcript, check_exponent_bits, draw_exponent, run_exchange

CSV_HEADER = "platform,trial,operation,success,micros,counters"

#: substream index reserved for platform parameter generation (trial
#: substreams use their trial index)
_PLATFORM_STREAM = (1 << 64) - 1

#: upper cap on --trials: every trial's transcript and report row stay in memory
MAX_TRIALS = 10_000


@dataclass
class ReportRow:
    platform: str
    trial: int
    operation: str
    success: bool
    micros: int
    counters: dict = field(default_factory=dict)
    detail: str = ""  # a failed attack's reason, written only when set

    def to_csv(self) -> str:
        counters = {**self.counters, "detail": self.detail} if self.detail else self.counters
        counters = ";".join(f"{k}={v}" for k, v in counters.items())
        return f"{self.platform},{self.trial},{self.operation},{int(self.success)},{self.micros},{counters}"

    def to_obj(self) -> dict:
        obj = {**vars(self), "success": int(self.success)}
        return obj if self.detail else {k: v for k, v in obj.items() if k != "detail"}


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@contextlib.contextmanager
def _reading(what: str):
    """Turn an unreadable file or a malformed record in it (a missing key, a
    value of the wrong type or range, JSON nested past the recursion limit)
    into one ParameterError line."""
    try:
        yield
    except ParameterError:  # a ValueError that already says what is wrong
        raise
    except (OSError, KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError) as exc:
        raise ParameterError(f"cannot read {what}: {type(exc).__name__}: {exc}") from exc


@contextlib.contextmanager
def _writing(path: str):
    """Turn a path that cannot be written (a missing directory, a directory) into one ParameterError line."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {type(exc).__name__}: {exc.strerror or exc}") from exc


def _check_run(args: argparse.Namespace):
    """The range checks on the flags, then a probe of ``--out``, before any input is read.

    The probe appends nothing to an existing file and removes a file it made itself."""
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ParameterError(f"trials must be in [1, {MAX_TRIALS}], got {args.trials}")
    if not 0 <= args.seed < (1 << 64):
        raise ParameterError("seed must fit in 64 bits")
    if "exponent_bits" in args:
        check_exponent_bits(args.exponent_bits)
    if "x_max" in args:
        check_x_max(args.x_max)
    if args.out is not None:
        existed = os.path.exists(args.out)
        with _writing(args.out), open(args.out, "a"):
            pass
        if not existed:
            os.remove(args.out)


def _load_params(args: argparse.Namespace):
    """Platform parameters from --params (explicit or seeded) or defaults.

    A seeded file holds ``kind``, ``seed`` and any keyword arguments of the
    kind's generator; any other key is an error.
    """
    if args.params_file:
        with _reading("params file"):
            with open(args.params_file) as fh:
                obj = read_json(fh.read())
            if "seed" in obj:
                seed = obj["seed"]
                if not (_is_integer(seed) and 0 <= seed < (1 << 64)):
                    raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")
                overrides = {k: v for k, v in obj.items() if k not in ("kind", "seed")}
                rng = trial_rng(seed, _PLATFORM_STREAM)
                return random_params(obj.get("kind"), rng, **overrides)
            return params_from_obj(obj)
    if args.platform is None:
        raise ParameterError("either --platform or --params is required")
    rng = trial_rng(args.seed, _PLATFORM_STREAM)
    return random_params(args.platform, rng)


def _write_text(path: str | None, text: str):
    """Write to stdout, or to ``path``."""
    if path is None:
        sys.stdout.write(text)
        return
    with _writing(path), open(path, "w") as fh:
        fh.write(text)


def _emit_report(rows: list[ReportRow], fmt: str, path: str | None) -> int:
    """Write the report; the exit code is 0 if every row succeeded, else 1."""
    if fmt == "csv":
        text = CSV_HEADER + "\n" + "".join(r.to_csv() + "\n" for r in rows)
    else:
        text = json.dumps([r.to_obj() for r in rows], indent=2, sort_keys=True) + "\n"
    _write_text(path, text)
    return 0 if all(r.success for r in rows) else 1


def _transcripts_json(transcripts: list[Transcript]) -> str:
    return json.dumps([t.to_obj() for t in transcripts], sort_keys=True, separators=(",", ":")) + "\n"


def _load_transcripts(path: str) -> list[Transcript]:
    """The file's transcripts; those with equal platform records share one built platform."""
    with _reading("transcript file"):
        with open(path) as fh:
            obj = read_json(fh.read())
        records = obj if isinstance(obj, list) else [obj]
        if not records:
            raise ParameterError("transcript file holds no transcripts")
        built: dict = {}
        return [Transcript.from_obj(rec, built) for rec in records]


# ---------------------------------------------------------------------------
# subcommands


def cmd_exchange(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ParameterError("exchange requires --out for the transcript file")
    platform = _load_params(args).build()

    def one(trial: int):
        rng = trial_rng(args.seed, trial)
        t0 = time.perf_counter()
        transcript, agreed = run_exchange(platform, rng, args.exponent_bits, include_key=args.test_mode)
        micros = int((time.perf_counter() - t0) * 1e6)
        return transcript, ReportRow(platform.name, trial, "exchange", agreed, micros)

    results = [one(t) for t in range(args.trials)]
    _write_text(args.out, _transcripts_json([t for t, _ in results]))
    return _emit_report([r for _, r in results], args.fmt, None)


def cmd_attack(args: argparse.Namespace) -> int:
    rows = []
    for trial, transcript in enumerate(_load_transcripts(args.transcript)):
        t0 = time.perf_counter()
        outcome = ATTACKS[args.method](transcript, args.x_max)
        micros = int((time.perf_counter() - t0) * 1e6)
        work = outcome.work.to_obj()
        rows.append(ReportRow(transcript.params.kind, trial, args.method, outcome.success, micros, work, outcome.detail))
    return _emit_report(rows, args.fmt, args.out)


def cmd_count(args: argparse.Namespace) -> int:
    if args.params_file:
        base_params = _load_params(args)
        if base_params.kind != "mobs":
            raise NotApplicableError("count experiment needs OR/AND platform parameters")
    else:
        base_params = random_params("mobs", trial_rng(args.seed, _PLATFORM_STREAM), size=2, cycle_lengths=(3,))

    ring, n = base_params.ring(), base_params.size

    def one(trial: int):
        rng = trial_rng(args.seed, trial)
        platform = replace(base_params, base=mx.random_matrix(rng, ring, n, n)).build()
        x = draw_exponent(rng, args.exponent_bits)
        observed = sdp_exp(platform, x).value
        t0 = time.perf_counter()
        outcome = mobs_solution_count(platform, observed, true_exponent=x)
        micros = int((time.perf_counter() - t0) * 1e6)
        return ReportRow(
            "mobs", trial, "mobs-count", outcome.success, micros, outcome.work.to_obj()
        )

    rows = [one(t) for t in range(args.trials)]
    code = _emit_report(rows, args.fmt, args.out)
    counts = sorted(r.counters["solution_count"] for r in rows)
    print(
        f"# solution counts: min={counts[0]} median={counts[len(counts) // 2]} max={counts[-1]}",
        file=sys.stderr,
    )
    return code


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand registers only the flags it reads.

    Built once per process and reused by every ``main`` call: parsing fills
    a fresh namespace each time, so no value carries from one call to the next.
    """
    parser = argparse.ArgumentParser(prog="sdpke", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exchange", help="run seeded key exchanges, write transcripts")
    _add_flags(p, "--platform", "--params", "--trials", "--seed", "--exponent-bits", "--test-mode",
               "--out", "--format")
    p.set_defaults(run=cmd_exchange)

    p = sub.add_parser("attack", help="run an attack against a transcript file")
    # attack reads neither --trials nor --seed; it accepts both because the
    # benchmark's cli workload passes one argument list to every subcommand
    _add_flags(p, "--trials", "--seed", "--out", "--format")
    p.add_argument("transcript", help="transcript JSON file written by exchange")
    p.add_argument("--method", choices=tuple(ATTACKS), required=True)
    p.add_argument("--x-max", type=int, default=1 << 20, help="exponent search bound in [1, 2^63] (tropical)")
    p.set_defaults(run=cmd_attack)

    p = sub.add_parser("count", help="telescoping solution-count experiment (OR/AND platform)")
    _add_flags(p, "--params", "--trials", "--seed", "--exponent-bits", "--out", "--format")
    p.set_defaults(run=cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_run(args)
        return args.run(args)
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
