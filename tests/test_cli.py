"""Harness contracts: exit codes, determinism, report formats, schema."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sdpke import attacks, cli, holomorph
from sdpke.attacks import ATTACKS, AttackOutcome, make_telescoping_attack
from sdpke.cli import CSV_HEADER, MAX_TRIALS, build_parser, main
from sdpke.errors import NotApplicableError
from sdpke.groups import MAX_GROUP_ORDER, cyclic_group, load_group
from sdpke.holomorph import Endomorphism
from sdpke.platforms import (
    MAX_BITS,
    MAX_GROUPRING_SIDE,
    MAX_SIZE,
    PLATFORM_KINDS,
    GLParams,
    random_groupring_params,
    random_params,
)
from sdpke.protocol import Transcript, run_exchange


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exchange_writes_transcripts_and_reports(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, stdout, _ = run_cli(
        ["exchange", "--platform", "gl", "--trials", "3", "--seed", "9", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert all(",exchange,1," in line for line in lines[1:])
    records = json.loads(out.read_text())
    assert isinstance(records, list) and len(records) == 3
    assert all(rec["schema"] == 1 for rec in records)
    assert all("key" not in rec for rec in records)


def test_exchange_test_mode_embeds_key(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, _ = run_cli(
        ["exchange", "--platform", "make", "--trials", "1", "--seed", "1",
         "--test-mode", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "key" in json.loads(out.read_text())[0]


def test_exchange_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            ["exchange", "--platform", "tropical", "--trials", "5", "--seed", "42",
             "--test-mode", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_exchange_requires_out(capsys):
    code, _, err = run_cli(["exchange", "--platform", "gl"], capsys)
    assert code == 2
    assert "error" in err


def test_exchange_without_platform_or_params_is_config_error(capsys):
    code, _, err = run_cli(["exchange", "--out", "/tmp/x.json"], capsys)
    assert code == 2
    assert "error" in err


def test_malformed_params_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(
        ["exchange", "--platform", "gl", "--params", str(bad), "--out", str(tmp_path / "t.json")],
        capsys,
    )
    assert code == 2
    assert "error" in err


def test_attack_round_trip_telescope(tmp_path, capsys):
    out = tmp_path / "t.json"
    run_cli(
        ["exchange", "--platform", "make", "--trials", "3", "--seed", "4",
         "--test-mode", "--out", str(out)],
        capsys,
    )
    code, stdout, _ = run_cli(["attack", "--method", "telescope", str(out)], capsys)
    assert code == 0
    rows = stdout.strip().splitlines()[1:]
    assert len(rows) == 3
    assert all(",telescope,1," in r for r in rows)


def test_telescope_at_a_28_bit_prime_and_size_24_recovers_the_true_key(tmp_path, capsys):
    # p = 2^28 - 57 with n^2 = 576 columns: replaying the solution on B sums 576 products
    # near 2^56, past int64, so the replay has to go through the ring kernel's overflow guard
    params = tmp_path / "make24.params.json"
    params.write_text(json.dumps({"kind": "make", "seed": 1, "prime": 268435399, "size": 24}))
    keyed, bare = tmp_path / "keyed.json", tmp_path / "bare.json"
    for out, flags in ((keyed, ["--test-mode"]), (bare, [])):
        argv = ["exchange", "--params", str(params), "--seed", "1", *flags, "--out", str(out)]
        assert run_cli(argv, capsys)[0] == 0
    code, stdout, _ = run_cli(["attack", "--method", "telescope", str(keyed)], capsys)
    assert code == 0, stdout
    true_key = Transcript.from_obj(json.loads(keyed.read_text())[0]).shared_key
    outcome = make_telescoping_attack(Transcript.from_obj(json.loads(bare.read_text())[0]))
    assert outcome.success and outcome.recovered_key == true_key


@pytest.mark.parametrize("size", [9, 32])
def test_groupring_params_past_the_side_cap_exit_2_with_one_line(tmp_path, capsys, size):
    params = tmp_path / "a5.params.json"
    params.write_text(json.dumps({"kind": "groupring", "seed": 1, "group": "a5", "size": size}))
    start = time.perf_counter()
    code, _, err = run_cli(["exchange", "--params", str(params), "--out", str(tmp_path / "o.json")], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert err == f"error: size * |G| = {size} * 60 is past the group ring cap {MAX_GROUPRING_SIDE}\n"


@pytest.mark.parametrize("kind", ["make", "gl", "dhke"])
def test_seeded_prime_past_2_63_exits_2_with_one_line(tmp_path, capsys, kind):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"kind": kind, "seed": 1, "prime": 2**64 + 13}))
    code, _, err = run_cli(["exchange", "--params", str(params), "--out", str(tmp_path / "o.json")], capsys)
    assert code == 2
    assert err == f"error: a seeded prime must be below 2^63, got {2**64 + 13}\n"


_TROPICAL_BOUNDS = "tropical entry bounds need -2^62 < entry_lo <= entry_hi < 2^62, got"


def _explicit_tropical(lo: int, hi: int) -> dict:
    return {"kind": "tropical", "size": 1, "entry_lo": lo, "entry_hi": hi, "H": [[0]], "g": [[1]]}


@pytest.mark.parametrize(
    "record,message",
    [
        ({"kind": "tropical", "seed": 1, "entry_lo": 5, "entry_hi": 1}, f"{_TROPICAL_BOUNDS} [5, 1]"),
        ({"kind": "tropical", "seed": 1, "entry_lo": -(2**62)}, f"{_TROPICAL_BOUNDS} [{-(2**62)}, 1000]"),
        ({"kind": "tropical", "seed": 1, "entry_hi": 2**62}, f"{_TROPICAL_BOUNDS} [-1000, {2**62}]"),
        ({"kind": "tropical", "seed": 1, "entry_lo": -(2**63) - 1}, f"{_TROPICAL_BOUNDS} [{-(2**63) - 1}, 1000]"),
        ({"kind": "dhke", "seed": 1, "prime": 2}, "a DH prime must be at least 3, got 2"),
        (_explicit_tropical(5, 1), f"{_TROPICAL_BOUNDS} [5, 1]"),
        (_explicit_tropical(-1000, 2**62), f"{_TROPICAL_BOUNDS} [-1000, {2**62}]"),
        (_explicit_tropical(-(2**70), 2**70), f"{_TROPICAL_BOUNDS} [{-(2**70)}, {2**70}]"),
    ],
    ids=["tropical-lo-past-hi", "tropical-lo-at-bound", "tropical-hi-at-bound", "tropical-lo-past-int64",
         "dhke-prime-2", "explicit-tropical-lo-past-hi", "explicit-tropical-hi-at-bound",
         "explicit-tropical-past-int64"],
)
def test_seeded_record_numpy_cannot_draw_from_exits_2_with_one_line(tmp_path, capsys, record, message):
    # numpy cannot draw from these bounds (low >= high, or low past int64): each is refused before
    # the draw with one line, and every tropical draw accepted is int64-stored.  An explicit tropical
    # record, whose sampler draws from its bounds, is refused by the same rule when it is built
    params = tmp_path / "p.json"
    params.write_text(json.dumps(record))
    code, _, err = run_cli(["exchange", "--params", str(params), "--out", str(tmp_path / "o.json")], capsys)
    assert code == 2
    assert err == f"error: {message}\n"


#: sha256 of the transcript file written by ``exchange <source> --trials 2 --seed 1 --test-mode``,
#: recorded while every tropical entry was a Python int and every Z_m and Z_m[G] entry was
#: written by its own int(); the source is a platform kind and flags, or a seeded params record
#: (written to a file and passed as ``--params``) and flags, ``--trials`` among them where a case
#: runs other than 2 trials
_TRANSCRIPT_SHA256 = {
    "tropical-16": (["--platform", "tropical", "--exponent-bits", "16"],
                    "857a6355857e1761ab170b39018030dedb79dedee1ec3c1792425ea2295913d6"),
    "tropical-63": (["--platform", "tropical", "--exponent-bits", "63"],
                    "52b2750ba367079d366b4681133b6754184bab28cce119cc2e35bacb7c27bfa9"),
    "groupring": (["--platform", "groupring"], "a253287777778d45c32ba8652c57cb3861021aec8f7c3858678ab80c226ba608"),
    "gl": (["--platform", "gl"], "79d8a2b881863fbd88fd3c2cd3c0f9673c783f21c569e206366014f0acbb4701"),
    "make": (["--platform", "make"], "0753677598c315bb374a0c8c7656234f2d911a2db363e3dbd6edd0a754679a73"),
    "dhke": (["--platform", "dhke"], "4b07b05f0494d9f91f058a50d8aae768c3003473830b6400a57ce9ce175c0369"),
    # (p-1)^2 is past 2^63 for this prime, so Z_p is stored as Python ints in object arrays
    "make-object": ([{"kind": "make", "seed": 1, "prime": 4294967291}],
                    "8f2368ca6a912edb3a9c39d6399016ab5cbb0f77169957e917aa8e4f1191c408"),
    # entries in [1, 10] keep every 63-bit walk's bounds below 2^62: the exchange's 8 walks on one
    # platform run on int64 words, below the call at which Z_m platforms switch to level maps
    "tropical-positive-63": ([{"kind": "tropical", "seed": 1, "entry_lo": 1, "entry_hi": 10, "size": 3},
                              "--exponent-bits", "63"],
                             "3c29a52e02eb3f1be1a4b34079816b529df074a56a5b4df740c158b8b0866119"),
    # 6 trials make 24 carrier_power and apply_phi_power calls on one platform: from the
    # MAP_SWITCH_CALL-th on, keygen and derive walk the window table
    "groupring-63-table": (["--platform", "groupring", "--exponent-bits", "63", "--trials", "6"],
                           "cdbaf70c50824a09077519dfb70f4c68d14ab6a5abb8cf728d132bdd71439103"),
    "gl-63-table": (["--platform", "gl", "--exponent-bits", "63", "--trials", "6"],
                    "1c78a2e9c502f6df539081395837457f4a4c6d626fc0401c0cfd3dd2b19af203"),
    "make-63-table": (["--platform", "make", "--exponent-bits", "63", "--trials", "6"],
                      "23a84ab0e29832ad75312b461d0d7c607d41f673de5a25179ba0555431723775"),
    "make-16-table": (["--platform", "make", "--exponent-bits", "16", "--trials", "6"],
                      "a44ff95f71e04fd2c5654b1691465e56bcf730173187034ff03eed4f9559fd4b"),
}


@pytest.mark.parametrize("case", list(_TRANSCRIPT_SHA256))
def test_transcript_bytes_are_pinned(tmp_path, capsys, case):
    source, digest = _TRANSCRIPT_SHA256[case]
    if isinstance(source[0], dict):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(source[0]))
        source = ["--params", str(params), *source[1:]]
    out = tmp_path / "t.json"
    trials = [] if "--trials" in source else ["--trials", "2"]  # a case past the map switch names its own
    argv = ["exchange", *source, *trials, "--seed", "1", "--test-mode", "--out", str(out)]
    assert run_cli(argv, capsys)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if case.startswith("tropical"):
        # at 63 bits the keys reach about -10^22, past the int64 storage bound of 2^62, so the
        # exchange runs the exact Python-int fallback end to end
        smallest = min(x for record in json.loads(out.read_text()) for row in record["key"] for x in row)
        assert (smallest <= -(2**62)) == (case == "tropical-63")


def test_attack_not_applicable_exits_3(tmp_path, capsys):
    out = tmp_path / "t.json"
    run_cli(
        ["exchange", "--platform", "mobs", "--trials", "1", "--seed", "4", "--out", str(out)],
        capsys,
    )
    code, _, err = run_cli(["attack", "--method", "dimension", str(out)], capsys)
    assert code == 3
    assert "not applicable" in err


def test_attack_bounded_tropical_search_reports_failure(tmp_path, capsys):
    out = tmp_path / "t.json"
    # 16-bit exponents are >= 2^8 with overwhelming probability at this seed
    run_cli(
        ["exchange", "--platform", "tropical", "--trials", "2", "--seed", "10",
         "--test-mode", "--out", str(out)],
        capsys,
    )
    code, stdout, _ = run_cli(
        ["attack", "--method", "tropical-binsearch", "--x-max", "3", str(out)], capsys
    )
    assert code == 1
    rows = stdout.strip().splitlines()[1:]
    assert all(",tropical-binsearch,0," in r for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_attack_rows_carry_their_detail(tmp_path, capsys, fmt):
    # a failed row says why it failed; a successful row has no detail at all
    out = tmp_path / "t.json"
    run_cli(
        ["exchange", "--platform", "tropical", "--trials", "2", "--seed", "10",
         "--test-mode", "--out", str(out)],
        capsys,
    )
    code, stdout, _ = run_cli(
        ["attack", "--method", "tropical-binsearch", "--x-max", "3", "--format", fmt, str(out)], capsys
    )
    assert code == 1
    reason = r"no admissible exponent <= 3|a_\d+ is incomparable with A"
    if fmt == "csv":
        rows = stdout.strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(re.fullmatch(f"detail=({reason})", r.split(";")[-1]) for r in rows), rows
    else:
        rows = json.loads(stdout)
        assert len(rows) == 2 and all(re.fullmatch(reason, row["detail"]) for row in rows), rows
    code, stdout, _ = run_cli(["attack", "--method", "tropical-binsearch", "--format", fmt, str(out)], capsys)
    assert code == 0
    assert "detail" not in stdout


def test_attack_counters_are_deterministic(tmp_path, capsys):
    out = tmp_path / "t.json"
    run_cli(
        ["exchange", "--platform", "groupring", "--trials", "2", "--seed", "6",
         "--test-mode", "--out", str(out)],
        capsys,
    )
    reports = []
    for _ in range(2):
        _, stdout, _ = run_cli(["attack", "--method", "dimension", str(out)], capsys)
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        # drop the micros column; timings are exempt from determinism
        reports.append([r[:4] + r[5:] for r in rows])
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["exchange", "--platform", "gl", "--exponent-bits", "64"],
        ["count", "--exponent-bits", "64"],
        ["count", "--exponent-bits", "1"],
    ],
    ids=["exchange-64", "count-64", "count-1"],
)
def test_exponent_bits_outside_2_to_63_exit_2_with_one_line(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "sdpke.cli", *argv, "--out", str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--platform", "gl"],
        ["count", "--test-mode"],
        ["attack", "--method", "dimension", "--platform", "gl", "t.json"],
        ["attack", "--method", "dimension", "--params", "p.json", "t.json"],
        ["attack", "--method", "dimension", "--exponent-bits", "16", "t.json"],
        ["attack", "--method", "dimension", "--test-mode", "t.json"],
        # no bench subcommand: the benchmark harness in bench/ times keygen and derive
        ["bench", "--platform", "gl", "--test-mode"],
    ],
)
def test_subcommands_refuse_flags_they_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    expected = "invalid choice: 'bench'" if argv[0] == "bench" else "unrecognized arguments"
    assert expected in capsys.readouterr().err


def test_count_experiment(tmp_path, capsys):
    code, stdout, err = run_cli(["count", "--trials", "5", "--seed", "3"], capsys)
    assert code == 0
    rows = stdout.strip().splitlines()[1:]
    assert len(rows) == 5
    assert all("solution_count=" in r for r in rows)
    assert "median=" in err


def test_count_composes_no_endomorphism_past_the_squarings(capsys, monkeypatch):
    # a count trial observes a_x alone (carrier_power), so its only compositions are the squarings
    # of its fresh platform's doubling chain, one apiece; the pinned counters are those of the same
    # run with a_x taken from sdp_exp
    squarings, compositions = [], []
    holo_mul, compose = holomorph.holo_mul, Endomorphism.compose

    def counted_holo_mul(platform, x, y):
        if x is y:
            squarings.append(x.exponent)
        return holo_mul(platform, x, y)

    def counted_compose(end, other):
        compositions.append(other)
        return compose(end, other)

    monkeypatch.setattr(holomorph, "holo_mul", counted_holo_mul)
    monkeypatch.setattr(Endomorphism, "compose", counted_compose)
    code, stdout, _ = run_cli(["count", "--trials", "5", "--seed", "3"], capsys)
    assert code == 0
    assert squarings and len(compositions) == len(squarings)
    counters = [row.split(",")[-1] for row in stdout.strip().splitlines()[1:]]
    zero = "sequence_terms_generated=0;rank=0;linear_solves=0;search_steps=0;solution_count="
    assert counters == [zero + count for count in ("4096", "48", "48", "108", "108")]


def test_count_cap_exceeded_exits_4(tmp_path, capsys):
    params = tmp_path / "big.json"
    params.write_text(json.dumps({"kind": "mobs", "seed": 1, "size": 16, "cycle_lengths": [2, 3, 5, 7, 11]}))
    code, _, err = run_cli(["count", "--trials", "1", "--seed", "3", "--params", str(params)], capsys)
    assert code == 4
    assert "size cap" in err


def test_seeded_params_file_generation(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"kind": "tropical", "seed": 77, "size": 3}))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(
            ["exchange", "--params", str(params), "--trials", "2", "--seed", "5", "--out", str(out)],
            capsys,
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "params",
    [
        {"kind": "gl", "seed": 7, "prime": 2, "size": 2},
        {"kind": "groupring", "seed": 173, "modulus": 2, "group": "c2", "size": 2},
    ],
    ids=["gl", "groupring"],
)
def test_seeded_params_with_a_central_first_conjugator_exits_0(tmp_path, params):
    # each seed draws a central conjugator first, which every base commutes with: the generator
    # redraws it, and a subprocess timeout bounds a draw that never ends
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, "-m", "sdpke.cli", "exchange", "--params", str(path), "--trials", "2", "--test-mode",
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert [record["platform"]["kind"] for record in json.loads(out.read_text())] == [params["kind"]] * 2


def test_json_report_format(tmp_path, capsys):
    out = tmp_path / "t.json"
    run_cli(
        ["exchange", "--platform", "gl", "--trials", "2", "--seed", "8",
         "--format", "json", "--out", str(out)],
        capsys,
    )
    code, stdout, _ = run_cli(
        ["attack", "--method", "dimension", "--format", "json", str(out)], capsys
    )
    assert code == 0
    rows = json.loads(stdout)
    assert len(rows) == 2
    assert rows[0]["operation"] == "dimension"
    assert rows[0]["success"] == 1
    assert "rank" in rows[0]["counters"]


@pytest.mark.parametrize(
    "platform,method",
    [("make", "dimension"), ("make", "telescope"), ("tropical", "tropical-binsearch")],
)
def test_attack_on_tampered_transcript_fails_without_traceback(tmp_path, capsys, platform, method):
    # the embedded key makes a wrong recovery count as failure when the
    # tampered A still solves the attack's system (telescope, full span)
    out = tmp_path / "t.json"
    run_cli(
        ["exchange", "--platform", platform, "--trials", "1", "--seed", "5",
         "--test-mode", "--out", str(out)],
        capsys,
    )
    records = json.loads(out.read_text())
    if platform == "make":
        rng = np.random.default_rng(5)
        records[0]["A"] = rng.integers(0, records[0]["platform"]["prime"], (3, 3)).tolist()
    else:
        # above a_1 in one entry and below every term in another: off the chain
        records[0]["A"][0][0] = 10**12
        records[0]["A"][0][1] = -(10**12)
    out.write_text(json.dumps(records))
    proc = subprocess.run(
        [sys.executable, "-m", "sdpke.cli", "attack", "--method", method, str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    rows = proc.stdout.strip().splitlines()[1:]
    assert len(rows) == 1 and f",{method},0," in rows[0]
    assert "Traceback" not in proc.stderr


def _without_micros(report: str) -> str:
    """A report with its wall-clock column blanked, the one field that may differ between runs."""
    if report.startswith("["):
        rows = json.loads(report)
        for row in rows:
            row["micros"] = 0
        return json.dumps(rows)
    return re.sub(r"^((?:[^,\n]*,){4})\d+", r"\g<1>0", report, flags=re.M)


def test_parser_reuse_carries_no_value_between_calls(tmp_path, capsys):
    # one process: a usage error, a json test-mode exchange, then an exchange on every
    # default; each gives what it gives as the first call of a fresh process
    calls = [
        ["exchange", "--platform", "gl", "--format", "xml", "--out", "x.json"],
        ["exchange", "--platform", "gl", "--trials", "2", "--seed", "5", "--format", "json",
         "--test-mode", "--out", "json.json"],
        ["exchange", "--platform", "gl", "--out", "csv.json"],
    ]
    in_process = []
    for argv in calls:
        argv = [a if not a.endswith(".json") else str(tmp_path / f"in-{a}") for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, _without_micros(captured.out), captured.err))
    for argv, (code, out, err) in zip(calls, in_process):
        argv = [a if not a.endswith(".json") else str(tmp_path / f"fresh-{a}") for a in argv]
        proc = subprocess.run([sys.executable, "-m", "sdpke.cli", *argv], capture_output=True, text=True)
        assert (code, out, err) == (proc.returncode, _without_micros(proc.stdout), proc.stderr), argv
    assert [code for code, _, _ in in_process] == [2, 0, 0]
    assert in_process[2][1].startswith(CSV_HEADER)
    for name in ("json.json", "csv.json"):
        assert (tmp_path / f"in-{name}").read_bytes() == (tmp_path / f"fresh-{name}").read_bytes()
    assert all("key" not in rec for rec in json.loads((tmp_path / "in-csv.json").read_text()))


def test_attack_builds_each_distinct_params_once(tmp_path, capsys, monkeypatch):
    builds = []
    original = GLParams.build

    def counted(self, *args, **kwargs):
        builds.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GLParams, "build", counted)
    paths = []
    for seed in (3, 4):
        paths.append(tmp_path / f"seed{seed}.json")
        code, _, _ = run_cli(["exchange", "--platform", "gl", "--trials", "3", "--seed", str(seed),
                              "--test-mode", "--out", str(paths[-1])], capsys)
        assert code == 0
    merged = tmp_path / "merged.json"
    merged.write_text(json.dumps([*json.loads(paths[0].read_text()), *json.loads(paths[1].read_text())]))

    def attack(path):
        builds.clear()
        code, out, _ = run_cli(["attack", "--method", "dimension", "--format", "json", str(path)], capsys)
        assert code == 0
        return [{k: v for k, v in row.items() if k not in ("micros", "trial")} for row in json.loads(out)]

    separate = []
    for path in paths:
        separate += attack(path)
        assert len(builds) == 1
    assert attack(merged) == separate
    assert len(builds) == 2 and builds[0] != builds[1]
    assert all(row["success"] == 1 for row in separate) and len(separate) == 6


def test_exchange_transcripts_feed_every_attack(tmp_path, capsys):
    # schema round trip: whatever exchange writes, attack can read
    pairs = [
        ("groupring", "dimension"),
        ("gl", "dimension"),
        ("make", "telescope"),
        ("tropical", "tropical-binsearch"),
        ("mobs", "mobs-count"),
    ]
    for platform, method in pairs:
        out = tmp_path / f"{platform}.json"
        code, _, _ = run_cli(
            ["exchange", "--platform", platform, "--trials", "1", "--seed", "21",
             "--test-mode", "--out", str(out)],
            capsys,
        )
        assert code == 0
        # the default mobs census needs 2^3 * 3^2 * 28 = 2016 entries, under the cap
        assert run_cli(["attack", "--method", method, str(out)], capsys)[0] == 0


def _malformed_inputs(tmp_path):
    """(argv tail, file content) per malformed input; each must exit 2."""
    def transcript(platform, params_argv):
        out = tmp_path / f"{platform}.json"
        assert main(["exchange", *params_argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def first_a_entry(records, value):
        """The first record with its first value of A (a coefficient on groupring) replaced."""
        rec = copy.deepcopy(records[0])
        row = rec["A"][0][0] if isinstance(rec["A"][0][0], list) else rec["A"][0]
        row[0] = value
        return [rec]

    gl = transcript("gl", ["--platform", "gl"])
    no_b = [dict(gl[0])]
    del no_b[0]["B"]
    string_prime = dict(gl[0]["platform"], prime="1009")
    mobs_params = tmp_path / "mobs64.params.json"
    mobs_params.write_text(json.dumps({"kind": "mobs", "seed": 1, "cycle_lengths": [2, 3, 5, 7, 11, 13, 23]}))
    mobs = transcript("mobs", ["--params", str(mobs_params)])
    assert mobs[0]["platform"]["bits"] == 64
    mobs[0]["A"][0][0] = -5
    tropical = transcript("tropical", ["--platform", "tropical"])
    tropical_string = first_a_entry(tropical, "7")
    make = transcript("make", ["--platform", "make"])
    groupring = transcript("groupring", ["--platform", "groupring"])
    tropical_whole = copy.deepcopy(tropical)
    tropical[0]["A"] = [row[:3] for row in tropical[0]["A"][:3]]
    gl_small_b = [dict(gl[0], B=[row[:2] for row in gl[0]["B"][:2]])]
    mobs28 = transcript("mobs28", ["--platform", "mobs"])
    seeded = ["exchange", "--out", str(tmp_path / "o.json"), "--params"]
    binsearch = ["attack", "--method", "tropical-binsearch", "--x-max"]

    def shrunk(records, key):
        """The platform record of the first transcript with its matrix ``key`` cut to 2x2."""
        platform = records[0]["platform"]
        return dict(platform, **{key: [row[:2] for row in platform[key][:2]]})

    def inf_first(records, key):
        """The platform matrix ``key`` of the first transcript with its first entry made +inf, a float."""
        rows = copy.deepcopy(records[0]["platform"][key])
        rows[0][0] = float("inf")
        return rows

    def mobs_1x1(base):
        """An explicit 1x1 MOBS record over 1-bit strings with the base ``base``."""
        return {"kind": "mobs", "size": 1, "bits": 1, "permutation": [0], "g": base}

    n = MAX_GROUP_ORDER + 1  # the Cayley table of the cyclic group of order n, one past the cap
    big_cyclic = {"order": n, "product": [[(i + j) % n for j in range(n)] for i in range(n)],
                  "identity": 0, "inverse": [-i % n for i in range(n)]}
    return {
        "transcript-without-B": (["attack", "--method", "dimension"], no_b),
        "empty-transcript-file": (["attack", "--method", "dimension"], []),
        "string-prime": (["exchange", "--out", str(tmp_path / "o.json"), "--params"], string_prime),
        "seeded-string-prime": (
            ["exchange", "--out", str(tmp_path / "o.json"), "--params"],
            {"kind": "gl", "seed": 1, "prime": "1009"},
        ),
        "seeded-misspelt-key": (
            ["exchange", "--out", str(tmp_path / "o.json"), "--params"],
            {"kind": "gl", "seed": 1, "sise": 5},
        ),
        "mobs64-negative-mask": (["attack", "--method", "mobs-count"], mobs),
        "tropical-3x3-A-on-5x5": (["attack", "--method", "tropical-binsearch"], tropical),
        "gl-2x2-B-on-3x3": (["attack", "--method", "dimension"], gl_small_b),
        "make-float": (["attack", "--method", "telescope"], first_a_entry(make, 1.5)),
        "gl-bool": (["attack", "--method", "dimension"], first_a_entry(gl, True)),
        "tropical-string": (["attack", "--method", "tropical-binsearch"], tropical_string),
        "groupring-numeric-string-A": (["attack", "--method", "dimension"], first_a_entry(groupring, "7")),
        # seeded files whose sampling loops never ended, or that raised past the parser
        "seeded-gl-size-1": (seeded, {"kind": "gl", "seed": 1, "size": 1}),
        "seeded-gl-size-0": (seeded, {"kind": "gl", "seed": 1, "size": 0}),
        "seeded-gl-prime-2-size-1": (seeded, {"kind": "gl", "seed": 1, "prime": 2, "size": 1}),
        "seeded-groupring-size-0": (seeded, {"kind": "groupring", "seed": 1, "size": 0}),
        "seeded-groupring-c2-size-1": (seeded, {"kind": "groupring", "seed": 1, "group": "c2", "size": 1}),
        "seeded-make-size-0": (seeded, {"kind": "make", "seed": 1, "size": 0}),
        "seeded-tropical-size-0": (seeded, {"kind": "tropical", "seed": 1, "size": 0}),
        "seeded-mobs-size-0": (seeded, {"kind": "mobs", "seed": 1, "size": 0}),
        "seeded-bool-size": (seeded, {"kind": "gl", "seed": 1, "size": True}),
        "seeded-string-size": (seeded, {"kind": "gl", "seed": 1, "size": "3"}),
        "explicit-size-0": (seeded, dict(gl[0]["platform"], size=0)),
        # a Mersenne prime past the proven range of is_prime
        "gl-prime-2^89-1": (seeded, dict(gl[0]["platform"], prime=2**89 - 1)),
        # integer fields of another type, once written back into every transcript
        "tropical-string-entry-lo": (seeded, dict(tropical[0]["platform"], entry_lo="a")),
        "tropical-float-entry-hi": (seeded, dict(tropical[0]["platform"], entry_hi=10.5)),
        "mobs-float-bits": (seeded, dict(mobs28[0]["platform"], bits=28.0)),
        "groupring-float-modulus": (seeded, dict(groupring[0]["platform"], modulus=7.0)),
        "gl-float-prime": (seeded, dict(gl[0]["platform"], prime=1009.0)),
        "dhke-string-prime": (seeded, {"kind": "dhke", "prime": "1009", "generator": 3}),
        # a seed that is not an integer in [0, 2^64)
        "seeded-string-seed": (seeded, {"kind": "gl", "seed": "3"}),
        "seeded-float-seed": (seeded, {"kind": "gl", "seed": 3.7}),
        "seeded-bool-seed": (seeded, {"kind": "gl", "seed": True}),
        "seeded-negative-seed": (seeded, {"kind": "gl", "seed": -1}),
        "seeded-seed-2^64": (seeded, {"kind": "gl", "seed": 2**64}),
        # sizes past the caps, refused before any allocation (size 100000 asked numpy for 74.5 GiB)
        "seeded-gl-size-100000": (seeded, {"kind": "gl", "seed": 1, "size": 100000}),
        "seeded-make-size-past-cap": (seeded, {"kind": "make", "seed": 1, "size": MAX_SIZE + 1}),
        "explicit-gl-size-100000": (seeded, dict(gl[0]["platform"], size=100000)),
        "mobs-bits-past-cap": (seeded, dict(mobs28[0]["platform"], bits=MAX_BITS + 1)),
        "seeded-mobs-cycles-past-cap": (seeded, {"kind": "mobs", "seed": 1, "cycle_lengths": [2, MAX_BITS]}),
        "seeded-mobs-negative-cycle": (seeded, {"kind": "mobs", "seed": 1, "cycle_lengths": [-10**9, 10**9 + 5]}),
        "groupring-group-order-past-cap": (seeded, dict(groupring[0]["platform"], group=big_cyclic)),
        # Z_m[G] takes the moduli Z_m stores as int64, (m-1)^2 < 2^63, that is m <= 3037000500
        "seeded-groupring-modulus-past-int64": (seeded, {"kind": "groupring", "seed": 1, "modulus": 3037000501}),
        "explicit-groupring-modulus-2^64": (seeded, dict(groupring[0]["platform"], modulus=2**64)),
        "trials-past-cap": (["exchange", "--platform", "gl", "--trials", str(MAX_TRIALS + 1), "--out"], {}),
        # an explicit params matrix that is not size x size
        "explicit-gl-2x2-H-on-3x3": (seeded, shrunk(gl, "H")),
        "explicit-make-2x2-H1": (seeded, shrunk(make, "H1")),
        "explicit-tropical-2x2-H": (seeded, shrunk(tropical, "H")),
        "explicit-groupring-2x2-g": (seeded, shrunk(groupring, "g")),
        "explicit-mobs-2x2-g": (seeded, shrunk(mobs28, "g")),
        # a matrix is nested rows: text and mapping keys were iterated as rows, each read as [["1"]]
        "mobs-text-g": (seeded, mobs_1x1("1")),
        "mobs-mapping-g": (seeded, mobs_1x1({"1": 7})),
        "mobs-row-of-mapping-g": (seeded, mobs_1x1([{"1": 0}])),
        # a search bound outside [1, 2^63], refused before the transcript is read
        "x-max-0": ([*binsearch, "0"], tropical_whole),
        "x-max-negative": ([*binsearch, "-5"], tropical_whole),
        "x-max-past-2^63": ([*binsearch, str(2**63 + 1)], tropical_whole),
        # json.dumps writes these floats as the non-standard tokens Infinity, -Infinity and NaN,
        # which Python's reader took as floats: an explicit Infinity star entry ran and was written back as "inf"
        "tropical-Infinity-H": (seeded, dict(tropical_whole[0]["platform"], H=inf_first(tropical_whole, "H"))),
        "tropical-Infinity-A": (["attack", "--method", "tropical-binsearch"],
                                first_a_entry(tropical_whole, float("inf"))),
        "gl-negative-Infinity-A": (["attack", "--method", "dimension"], first_a_entry(gl, float("-inf"))),
        "seeded-NaN-seed": (seeded, {"kind": "gl", "seed": float("nan")}),
        # an all-+inf star matrix makes phi the identity, and tropical-binsearch then "succeeded" with rank 0
        "tropical-all-inf-H": (seeded, dict(tropical_whole[0]["platform"],
                                            H=[["inf"] * len(row) for row in tropical_whole[0]["platform"]["H"]])),
    }


@pytest.mark.parametrize(
    "case",
    [
        "transcript-without-B", "string-prime", "seeded-string-prime", "seeded-misspelt-key",
        "mobs64-negative-mask", "tropical-3x3-A-on-5x5", "gl-2x2-B-on-3x3",
        "make-float", "gl-bool", "tropical-string", "groupring-numeric-string-A",
        "seeded-gl-size-1", "seeded-gl-size-0", "seeded-gl-prime-2-size-1", "seeded-groupring-size-0",
        "seeded-groupring-c2-size-1", "seeded-make-size-0", "seeded-tropical-size-0",
        "seeded-mobs-size-0", "seeded-bool-size", "seeded-string-size", "explicit-size-0",
        "gl-prime-2^89-1", "tropical-string-entry-lo", "tropical-float-entry-hi", "mobs-float-bits",
        "groupring-float-modulus", "gl-float-prime", "dhke-string-prime", "seeded-string-seed",
        "seeded-float-seed", "seeded-bool-seed", "seeded-negative-seed", "seeded-seed-2^64",
        "seeded-gl-size-100000", "seeded-make-size-past-cap", "explicit-gl-size-100000", "mobs-bits-past-cap",
        "seeded-mobs-cycles-past-cap", "seeded-mobs-negative-cycle", "groupring-group-order-past-cap",
        "seeded-groupring-modulus-past-int64", "explicit-groupring-modulus-2^64",
        "trials-past-cap", "empty-transcript-file", "explicit-gl-2x2-H-on-3x3", "explicit-make-2x2-H1",
        "explicit-tropical-2x2-H", "explicit-groupring-2x2-g", "explicit-mobs-2x2-g", "mobs-text-g",
        "mobs-mapping-g", "mobs-row-of-mapping-g", "x-max-0",
        "x-max-negative", "x-max-past-2^63", "tropical-Infinity-H", "tropical-Infinity-A",
        "gl-negative-Infinity-A", "seeded-NaN-seed", "tropical-all-inf-H",
    ],
)
def test_malformed_json_exits_2_with_one_line(tmp_path, capsys, case):
    argv, content = _malformed_inputs(tmp_path)[case]
    capsys.readouterr()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    proc = subprocess.run(
        [sys.executable, "-m", "sdpke.cli", *argv, str(path)],
        capture_output=True,
        text=True,
        timeout=60,  # a sampling loop that never ends fails here instead of stalling the suite
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys):
    # json.load raises RecursionError past the interpreter's recursion limit
    deep = "[" * 100_000 + "]" * 100_000
    params = tmp_path / "deep.params.json"
    params.write_text('{"kind": "gl", "seed": ' + deep + "}")
    code, _, err = run_cli(["exchange", "--params", str(params), "--out", str(tmp_path / "o.json")], capsys)
    assert code == 2 and err.startswith("error: cannot read params file: RecursionError")
    transcript = tmp_path / "deep.json"
    transcript.write_text(deep)
    proc = subprocess.run(
        [sys.executable, "-m", "sdpke.cli", "attack", "--method", "dimension", str(transcript)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("error: cannot read transcript file: RecursionError")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "permutation", [[1.5, 0.5], ["1", "0"], [True, False], "10"], ids=["float", "text", "bool", "string"]
)
def test_permutation_of_non_integers_exits_2(tmp_path, capsys, permutation):
    # int() used to truncate 1.5 to 1 and read "10" as [1, 0], so these ran as the permutation [1, 0]
    def files(perm):
        params = {"kind": "mobs", "size": 1, "bits": 2, "permutation": perm, "g": [["10"]]}
        params_path, transcript_path = tmp_path / "p.json", tmp_path / "t.json"
        params_path.write_text(json.dumps(params))
        transcript_path.write_text(json.dumps([{"schema": 1, "platform": params, "A": [["10"]], "B": [["01"]]}]))
        return (
            ["exchange", "--params", str(params_path), "--out", str(tmp_path / "o.json")],
            ["attack", "--method", "mobs-count", str(transcript_path)],
        )

    for argv in files([1, 0]):
        assert run_cli(argv, capsys)[0] == 0
    for argv in files(permutation):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"error: permutation must be a list of integers, got {permutation!r}\n"


# ---------------------------------------------------------------------------
# edited records: a standing fuzz guard over every outside input

#: the attack each platform's transcripts are replayed with
_ATTACK_OF = {"gl": "dimension", "groupring": "dimension", "dhke": "dimension", "make": "telescope",
              "tropical": "tropical-binsearch", "mobs": "mobs-count"}
#: JSON values an edit puts in place of a node: integers around the word bounds, floats, bools, null,
#: text (digits, bits and "inf" among it), nested lists and mappings
_NODES = [0, 1, -1, 7, 2**31 - 1, 2**31, 2**62 - 1, 2**62, -(2**62), 2**63 - 1, 2**63, 2**64, -(2**64), 1 << 70,
          0.5, 1.0, True, False, None, "", "x", "1", "10", "inf", [], [[]], [0], [[0]], [[[0]]], {}, {"1": 0}]


@functools.cache
def _valid_transcript(kind: str) -> dict:
    """A test-mode transcript of the kind's default platform, or of a size-2 group ring over an inline c5 table."""
    rng = np.random.default_rng(1)
    if kind == "groupring-c5":
        params = random_groupring_params(rng, group=cyclic_group(5), size=2)
    else:
        params = random_params(kind, rng)
    return run_exchange(params.build(), np.random.default_rng(2), include_key=True)[0].to_obj()


def _paths(obj, prefix=()):
    """The path of every value inside a JSON object, the object itself excluded."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


def _at(obj, path):
    """The value at ``path`` inside a JSON object."""
    return functools.reduce(lambda value, key: value[key], path, obj)


def _edit(data, obj):
    """Replace a node (the record itself included), delete a key, add an unknown key, or grow or
    shrink a list; in place where the record survives.  Returns the edited record."""
    paths = [(), *_paths(obj)]
    node = functools.partial(_at, obj)
    dicts = [p for p in paths if isinstance(node(p), dict)]
    lists = [p for p in paths if isinstance(node(p), list)]
    keys = [p for p in paths if p and isinstance(node(p[:-1]), dict)]
    reshapes = [*["add-key"] * bool(dicts), *["grow", "shrink"] * bool(lists), *["delete-key"] * bool(keys)]
    # half the edits replace a value, half change the record's shape
    edit = data.draw(st.sampled_from(["replace"] * len(reshapes) + reshapes or ["replace"]), label="edit")
    value = copy.deepcopy(data.draw(st.sampled_from(_NODES), label="value"))  # a later edit may grow it
    if edit == "replace":
        path = data.draw(st.sampled_from(paths), label="path")
        if not path:
            return value
        node(path[:-1])[path[-1]] = value
    elif edit == "add-key":
        node(data.draw(st.sampled_from(dicts), label="path"))["unknown"] = value
    elif edit == "delete-key":
        path = data.draw(st.sampled_from(keys), label="path")
        del node(path[:-1])[path[-1]]
    else:
        # depth first: a matrix is grown or shrunk as often as one of its rows
        depth = data.draw(st.sampled_from(sorted({len(p) for p in lists})), label="depth")
        target = node(data.draw(st.sampled_from([p for p in lists if len(p) == depth]), label="path"))
        if edit == "shrink":
            del target[-1:]
        else:
            target.append(copy.deepcopy(target[-1]) if target else 0)
    return obj


@settings(max_examples=1000, deadline=None)
@given(kind=st.sampled_from(sorted(_ATTACK_OF)), record=st.sampled_from(["transcript", "params"]),
       edits=st.integers(1, 3), data=st.data())
def test_edited_records_exit_0_to_4_with_one_line_and_output_that_parses_again(kind, record, edits, data):
    # a transcript is attacked, its platform record is run as an explicit params file
    obj = copy.deepcopy(_valid_transcript(kind))
    if record == "params":
        obj = obj["platform"]
    for _ in range(edits):
        obj = _edit(data, obj)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        if record == "transcript":
            argv = ["attack", "--method", _ATTACK_OF[kind], "--format", "json", "--out", out, path]
        else:
            argv = ["exchange", "--params", path, "--test-mode", "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"{record} exit {code}")  # the spread of outcomes, under --hypothesis-show-statistics
        assert 0 <= code <= 4
        assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue(), err.getvalue()
        if code != 2:
            # no field of any record is a bool, a float or null: a run past the reader read none
            values = [_at(obj, path) for path in [(), *_paths(obj)]]
            assert not [x for x in values if x is None or isinstance(x, (bool, float))], (code, obj)
        if code == 0:
            with open(out) as fh:
                written = json.load(fh)
            if record == "params":
                assert [Transcript.from_obj(rec).to_obj() for rec in written] == written
            else:
                assert [row["operation"] for row in written] == [_ATTACK_OF[kind]] * len(written)


def _integer_leaves(obj) -> dict:
    """The first path of each integer leaf of a record per path shape, list indices read as ``*``."""
    shapes = {}
    for path in _paths(obj):
        value = _at(obj, path)
        if isinstance(value, int) and not isinstance(value, bool):
            shapes.setdefault(tuple("*" if isinstance(k, int) else k for k in path), path)
    return shapes


@pytest.mark.parametrize("record", ["transcript", "params"])
@pytest.mark.parametrize("kind", [*sorted(_ATTACK_OF), "groupring-c5"])
def test_every_integer_field_refuses_a_float_a_bool_and_text(tmp_path, kind, record):
    # an inline group table read 0.5 as 0, false as 0 and "0" as 0, and ran the exchange
    valid = _valid_transcript(kind)
    path = tmp_path / "in.json"
    if record == "transcript":
        argv = ["attack", "--method", _ATTACK_OF.get(kind, "dimension"), str(path)]
    else:
        valid = valid["platform"]
        argv = ["exchange", "--params", str(path), "--out", str(tmp_path / "out.json")]
    leaves = _integer_leaves(valid)
    assert leaves
    accepted = []
    for shape, (*parents, last) in leaves.items():
        for bad in (lambda v: v + 0.5, lambda v: True, str):
            obj = copy.deepcopy(valid)
            container = functools.reduce(lambda node, key: node[key], parents, obj)
            container[last] = bad(container[last])
            path.write_text(json.dumps(obj))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            if code != 2 or len(err.getvalue().splitlines()) != 1:
                accepted.append((shape, container[last], code, err.getvalue()))
    assert accepted == []


# ---------------------------------------------------------------------------
# the method table: the CLI's --method list, its dispatch and the applicability matrix


def _default_transcript_file(tmp_path, capsys, kind: str):
    path = tmp_path / f"{kind}.json"
    code, _, _ = run_cli(["exchange", "--platform", kind, "--seed", "5", "--test-mode", "--out", str(path)], capsys)
    assert code == 0
    return path


@pytest.mark.parametrize("command", ["exchange", "attack", "count"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, command, target):
    if command == "attack":
        argv = ["attack", "--method", "dimension", str(_default_transcript_file(tmp_path, capsys, "gl"))]
    else:
        argv = {"exchange": ["exchange", "--platform", "gl"], "count": ["count", "--seed", "1"]}[command]
    out = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
    code, _, err = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


def test_unwritable_out_is_found_before_the_first_trial(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_exchange", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "missing" / "t.json"
    code, _, err = run_cli(["exchange", "--platform", "gl", "--trials", "3", "--out", str(out)], capsys)
    assert code == 2 and err.startswith(f"error: cannot write {out}: ")
    assert calls == []


@pytest.mark.parametrize("existing", [True, False], ids=["existing-file", "new-file"])
def test_a_failed_command_leaves_its_out_path_as_it_was(tmp_path, capsys, existing):
    # one command fails on a flag checked before --out, one on a params file read after it
    out = tmp_path / "t.json"
    if existing:
        out.write_text("earlier transcripts\n")
    bad_params = tmp_path / "bad.params.json"
    bad_params.write_text("{not json")
    for argv in (["--platform", "gl", "--exponent-bits", "1"], ["--params", str(bad_params)]):
        code, _, err = run_cli(["exchange", *argv, "--out", str(out)], capsys)
        assert code == 2 and len(err.splitlines()) == 1
        assert out.read_text() == "earlier transcripts\n" if existing else not out.exists()


@pytest.mark.parametrize("record", ["params", "transcript", "transcript-platform", "group-table"])
def test_unknown_record_key_exits_2_with_one_line_naming_it(tmp_path, capsys, record):
    kind = "groupring" if record == "group-table" else "make"
    records = json.loads(_default_transcript_file(tmp_path, capsys, kind).read_text())
    rec = records[0]
    path = tmp_path / "in.json"
    if record == "transcript":
        # the hazard: a wrong A fails against the ground truth under "key", but with the
        # ground truth spelt "Key" the wrong recovered key would count as a success
        rec["A"] = np.random.default_rng(5).integers(0, rec["platform"]["prime"], (3, 3)).tolist()
        path.write_text(json.dumps(records))
        assert run_cli(["attack", "--method", "dimension", str(path)], capsys)[0] == 1
        rec["Key"] = rec.pop("key")
    elif record == "group-table":
        rec["platform"]["group"] = {**load_group(rec["platform"]["group"]).to_obj(), "Key": 1}
    else:
        rec["platform"]["Key"] = 1
    if record == "params":
        path.write_text(json.dumps(rec["platform"]))
        argv = ["exchange", "--params", str(path), "--out", str(tmp_path / "o.json")]
    else:
        path.write_text(json.dumps(records))
        argv = ["attack", "--method", "dimension", str(path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and len(err.splitlines()) == 1
    assert err.startswith("error: unknown ") and "['Key']" in err


def _method_choices() -> tuple:
    attack = build_parser()._subparsers._group_actions[0].choices["attack"]
    return next(action.choices for action in attack._actions if action.dest == "method")


def test_method_choices_are_the_attack_table_and_runners_reach_the_module_level_attacks(tmp_path, capsys, monkeypatch):
    assert _method_choices() == tuple(ATTACKS)
    calls = []

    def stub(name):
        def record(*args, **kwargs):
            calls.append((name, args, kwargs))
            return AttackOutcome(success=True)

        return record

    monkeypatch.setattr(attacks, "dimension_attack", stub("dimension"))
    monkeypatch.setattr(attacks, "tropical_binsearch_attack", stub("tropical"))
    path = _default_transcript_file(tmp_path, capsys, "gl")
    assert run_cli(["attack", "--method", "dimension", str(path)], capsys)[0] == 0
    assert run_cli(["attack", "--method", "tropical-binsearch", "--x-max", "7", str(path)], capsys)[0] == 0
    assert [(name, kwargs) for name, _, kwargs in calls] == [("dimension", {}), ("tropical", {"x_max": 7})]
    assert all(isinstance(args[0], Transcript) for _, args, _ in calls)


#: the platforms each method applies to; every other default platform exits 3
_APPLIES_TO = {
    "dimension": {"groupring", "gl", "make", "dhke"},
    "telescope": {"make"},
    "tropical-binsearch": {"tropical"},
    "mobs-count": {"mobs"},
}

#: each method's attack function, called without the table
_DIRECT = {
    "dimension": attacks.dimension_attack,
    "telescope": attacks.make_telescoping_attack,
    "tropical-binsearch": attacks.tropical_binsearch_attack,
    "mobs-count": lambda t: attacks.mobs_solution_count(t.build_platform(), t.alice_value),
}


@pytest.mark.parametrize("kind", PLATFORM_KINDS)
def test_attack_applicability_matrix(tmp_path, capsys, kind):
    assert set(_APPLIES_TO) == set(ATTACKS) == set(_DIRECT)
    path = _default_transcript_file(tmp_path, capsys, kind)
    transcript = Transcript.from_obj(json.loads(path.read_text())[0])
    for method, kinds in _APPLIES_TO.items():
        code, _, err = run_cli(["attack", "--method", method, str(path)], capsys)
        assert code == (0 if kind in kinds else 3), (method, err)
        if kind in kinds:
            assert _DIRECT[method](transcript).success
        else:
            with pytest.raises(NotApplicableError):
                _DIRECT[method](transcript)
