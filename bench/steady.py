"""Steadiness check: run the benchmark once per seed and report each metric's spread.

    python3 bench/steady.py --workload attack --seeds 1-5
    python3 bench/steady.py --seeds 101-110 --out bench/baseline.json

Runs are sequential.  For every end-to-end metric it prints the quartiles
of the per-seed values and the quartile spread as a share of the median,
next to the metric's bound in BENCHMARK.json.  The first seed is run a
second time at the end to check that its determinism digest repeats.
With ``--out`` the figures are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import stats

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ENV_KEYS = ("python", "numpy", "nproc", "cpu_model", "git_commit", "source_sha256", "threads")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str, dict]:
    """(result, digest, environment record) of one untraced run."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    digest = next(line.split("sha256=")[1] for line in lines if line.startswith("# digest"))
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return json.loads(lines[-1]), digest, env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", help="repeatable; default: every workload")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        p.error("quartiles need at least two seeds")
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        digests, failed = {}, 0
        for seed in seeds:
            t0 = time.perf_counter()
            result, digests[seed], env = run_once(workload, seed, spec["run_seconds"])
            report.setdefault("environment", {k: env[k] for k in ENV_KEYS})
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        _, again, _ = run_once(workload, seeds[0], spec["run_seconds"])
        entry = {"failed": failed, "digest_repeats": again == digests[seeds[0]], "digests": digests, "metrics": {}}
        print(f"\n{workload}: failed {failed}, digest of seed {seeds[0]} repeats: {entry['digest_repeats']}")
        print(f"  {'metric':22} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            q1, med, q3, spread = stats.quartile_spread(values[m["name"]])
            flag = "" if spread <= m["bound"] / 3 or m["name"] == "setup_s" else "  > bound/3"
            print(f"  {m['name']:22} {q1:11.5g} {med:11.5g} {q3:11.5g} {spread:8.4f} {m['bound']:6.3f}{flag}")
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "q1": q1, "median": med, "q3": q3, "spread": spread,
                "values": values[m["name"]],
            }
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
