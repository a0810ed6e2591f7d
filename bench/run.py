"""sdpke benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 bench/run.py --workload exchange --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it measures the workload untraced for half the time, then
with every layer wrapped (see tracer.py) for the other half, and prints the
per-layer metrics.  Times are put on a fixed reference speed by a
reference loop run around every trial (see clock.py).  Lines starting with
``#`` describe the environment, the determinism digest and each metric's
sample count or base and wall-clock figure; the last line is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform as pyplatform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import clock
import stats

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("exchange", "attack", "cli")
#: every phase runs at least this many rounds, and the digest covers exactly these
MIN_ROUNDS = 16
#: set-ups per untraced run (one in this process, the rest in fresh interpreters)
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 30


def pin_threads():
    os.environ.pop("SDPKE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def use_checkout_sources():
    """Import sdpke from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sdpke", "__init__.py")):
        raise RuntimeError(f"no sdpke sources under {src}; run from the repository root")
    sys.path.insert(0, src)


def setup(workload: str, seed: int):
    """Import sdpke and build the workload.

    Returns it with the wall seconds taken and the reference time around
    them: the mean of the median reference run before and after (clock.py).
    """
    before = clock.median_reference()
    t0 = time.perf_counter()
    import workloads  # first import of numpy and sdpke in this interpreter

    wl = workloads.make(workload, seed, os.path.join(OUT_DIR, f"cli-{os.getpid()}"))
    elapsed = time.perf_counter() - t0
    reference_s = (before + clock.median_reference()) / 2
    import sdpke

    if not os.path.abspath(sdpke.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"imported sdpke from {sdpke.__file__}, outside this checkout")
    return wl, elapsed, reference_s


def probe_setups(args, count: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of ``count`` fresh interpreters, run one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) < 3 or words[-3] != "setup_s":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append((float(words[-2]), float(words[-1])))
    return times


@dataclass
class Phase:
    rounds: int
    elapsed: float
    attempted: int
    failed: int
    trial_s: dict  # platform -> wall seconds per trial
    trial_ref: dict  # platform -> seconds per trial on the reference speed (clock.py)
    reference_s: list  # wall seconds of the reference run before each trial, and after the last
    round_ref: list  # seconds per round (its trials) on the reference speed
    digest: str

    @property
    def rate(self) -> float:
        """Rounds per second on the reference speed."""
        return self.rounds / sum(self.round_ref)


def run_phase(wl, platforms, seconds: float, tracer=None) -> Phase:
    """Closed loop: whole rounds until ``seconds`` have passed and MIN_ROUNDS are done.

    The reference loop runs before each trial and once after the last; a
    trial's time is put on the reference speed with the mean of the
    reference runs on either side of it.
    """
    import tracer as tracing

    if tracer is None and tracing.installed_wrappers():
        raise RuntimeError("an untraced phase found tracing wrappers installed")
    span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()

    def timed_reference():
        with span(tracing.REFERENCE_SPAN):
            return clock.time_reference()

    pool = getattr(wl, "pool_rounds", None)
    first_records = {}
    trial_s = {k: [] for k in platforms}
    reference_s = []
    attempted = failed = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    deadline = start + seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.round = r
        with span("bench.round"):
            for pos, kind in enumerate(platforms):
                reference_s.append(timed_reference())
                t0 = time.perf_counter()
                try:
                    ok, record = wl.trial(r, pos)
                except Exception:  # a trial that raises is a counted failure
                    traceback.print_exc()
                    ok, record = False, b"raised"
                trial_s[kind].append(time.perf_counter() - t0)
                if pool:
                    # a transcript seen again must give the same results
                    ok = first_records.setdefault((r % pool, pos), record) == record and ok
                if r < MIN_ROUNDS:
                    digest.update(f"{r}:{pos}:{len(record)}:".encode() + record)
                attempted += 1
                if not ok:
                    failed += 1
                    print(f"# FAILED {wl.name} round {r} platform {kind}", file=sys.stderr)
        r += 1
    reference_s.append(timed_reference())
    elapsed = time.perf_counter() - start

    trial_ref = {k: [] for k in platforms}
    round_ref = [0.0] * r
    for i in range(r):
        for pos, kind in enumerate(platforms):
            j = i * len(platforms) + pos
            t = clock.scaled(trial_s[kind][i], (reference_s[j] + reference_s[j + 1]) / 2)
            trial_ref[kind].append(t)
            round_ref[i] += t
    return Phase(r, elapsed, attempted, failed, trial_s, trial_ref, reference_s, round_ref, digest.hexdigest())


def end_to_end(phase: Phase, setups: list[tuple[float, float]]) -> dict:
    """Every time is on the reference speed (clock.py); notes give the wall-clock figures."""

    wins = stats.windows(phase.round_ref)
    tails = [stats.tail(w) for w in wins]
    sizes = "/".join(str(len(w)) for w in wins)
    setup_ref = [clock.scaled(s, ref) for s, ref in setups]
    m = {
        "setup_s": (stats.median(setup_ref), "s",
                    f"median of {len(setups)} set-ups: " + " ".join(f"{s:.3f}" for s in setup_ref)
                    + "; wall clock " + " ".join(f"{s:.3f}" for s, _ in setups)),
        "rounds_per_s": (stats.median([len(w) / sum(w) for w in wins]), "1/s",
                         f"median over windows of {sizes} rounds; {phase.rounds} rounds in {phase.elapsed:.2f} s wall"),
        "round_tail_ms": (stats.median([t for t, _ in tails]) * 1e3, "ms",
                          f"median over windows of {sizes} rounds of p"
                          + "/".join(f"{p:.1f}" for _, p in tails)),
    }
    for kind, samples in phase.trial_ref.items():
        m[f"p50_ms.{kind}"] = (stats.median(samples) * 1e3, "ms",
                               f"{len(samples)} trials; wall clock {stats.median(phase.trial_s[kind]) * 1e3:.4g} ms")
    ok = phase.attempted - phase.failed
    m["success_rate"] = (ok / phase.attempted, "ratio", f"{ok} / {phase.attempted} trials")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of the benchmark process")
    return m


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return pyplatform.processor() or "unknown"


def _source_sha256() -> str:
    src = os.path.join(ROOT, "src", "sdpke")
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith((".py", ".json"))):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": pyplatform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "threads": {v: os.environ.get(v) for v in ("SDPKE_THREADS", "OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def check_spec(metrics: dict, trace: bool):
    """The printed metrics must be exactly those BENCHMARK.json lists, in its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: unit for name, (_, unit, _) in metrics.items()}
    if listed != printed:
        missing = sorted(set(listed) - set(printed))
        extra = sorted(set(printed) - set(listed))
        units = sorted(n for n in set(listed) & set(printed) if listed[n] != printed[n])
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")


def measure(args, wl, setups) -> tuple[dict, int, int, list[str]]:
    """(metrics, trials attempted, trials failed, notes to print)."""
    from workloads import PLATFORMS

    if not args.trace:
        phase = run_phase(wl, PLATFORMS, args.seconds)
        notes = [f"# digest sha256={phase.digest}",
                 f"# reference loop: median {stats.median(phase.reference_s) * 1e3:.4g} ms wall over "
                 f"{len(phase.reference_s)} runs (reported times assume {clock.REFERENCE_S * 1e3:g} ms)"]
        return end_to_end(phase, setups), phase.attempted, phase.failed, notes

    import selftest
    import tracer as tracing

    selftest.run_all()
    # the two phases share the run's measuring time
    untraced = run_phase(wl, PLATFORMS, args.seconds / 2)
    direct = {k: list(v) for k, v in wl.direct.items()}
    bytes_before = (getattr(wl, "report_bytes", 0), getattr(wl, "transcript_bytes", 0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_phase(wl, PLATFORMS, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    cli_bytes = (getattr(wl, "report_bytes", 0) - bytes_before[0],
                 getattr(wl, "transcript_bytes", 0) - bytes_before[1])
    table = tracer.table()
    metrics = tracing.layer_metrics(
        tracer, table, PLATFORMS, untraced.rate, traced.rate, direct, cli_bytes,
        traced_scale=clock.scaled(1.0, stats.median(traced.reference_s)),
        direct_scale=clock.scaled(1.0, stats.median(untraced.reference_s)),
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.npz")
    table.save(spans_path)
    notes = [
        f"# digest sha256={untraced.digest} untraced, {traced.digest} traced",
        f"# spans {os.path.relpath(spans_path, ROOT)}",
    ]
    changed = traced.digest != untraced.digest
    if changed:
        notes.append("# FAILED: tracing changed the results")
    return metrics, untraced.attempted + traced.attempted, untraced.failed + traced.failed + changed, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < (1 << 63):
        p.error("--seed must be in [0, 2^63)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        use_checkout_sources()
        if args.setup_probe:
            wl, seconds, reference_s = setup(args.workload, args.seed)
            wl.close()
            print(f"setup_s {seconds!r} {reference_s!r}")
            return 0
        setups = [] if args.trace else probe_setups(args, SETUP_RUNS - 1)
        wl, seconds, reference_s = setup(args.workload, args.seed)
        setups.append((seconds, reference_s))
        try:
            metrics, attempted, failed, notes = measure(args, wl, setups)
        finally:
            wl.close()
        check_spec(metrics, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1

    print("# env " + json.dumps(environment(args), sort_keys=True))
    for line in notes:
        print(line)
    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}  ({note})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
