"""Harness contracts: exit codes, determinism, report formats, schema."""

import copy
import json
import subprocess
import sys

import numpy as np
import pytest

from sdpke.cli import CSV_HEADER, main


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


def test_bench_csv_header_exact(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, err = run_cli(
        ["bench", "--platform", "gl", "--trials", "4", "--seed", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "platform,trial,operation,success,micros,counters"
    assert len(lines) == 1 + 3 * 4  # keygen, derive, exchange per trial
    assert "p50" in err  # percentile summary on stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["exchange", "--platform", "gl", "--exponent-bits", "64"],
        ["bench", "--platform", "gl", "--exponent-bits", "64"],
        ["count", "--exponent-bits", "64"],
        ["count", "--exponent-bits", "1"],
    ],
    ids=["exchange-64", "bench-64", "count-64", "count-1"],
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
        ["bench", "--platform", "gl", "--test-mode"],
    ],
)
def test_subcommands_refuse_flags_they_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_count_experiment(tmp_path, capsys):
    code, stdout, err = run_cli(["count", "--trials", "5", "--seed", "3"], capsys)
    assert code == 0
    rows = stdout.strip().splitlines()[1:]
    assert len(rows) == 5
    assert all("solution_count=" in r for r in rows)
    assert "median=" in err


def test_count_cap_exceeded_exits_4(tmp_path, capsys):
    params = tmp_path / "big.json"
    params.write_text(json.dumps({"kind": "mobs", "seed": 1, "size": 3, "cycle_lengths": [2, 3, 5, 7, 11]}))
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
        argv = ["attack", "--method", method, str(out)]
        if platform == "mobs":
            # default parameters exceed the enumeration cap by design
            assert run_cli(argv, capsys)[0] == 4
        else:
            assert run_cli(argv, capsys)[0] == 0


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
    tropical[0]["A"] = [row[:3] for row in tropical[0]["A"][:3]]
    gl_small_b = [dict(gl[0], B=[row[:2] for row in gl[0]["B"][:2]])]
    mobs28 = transcript("mobs28", ["--platform", "mobs"])
    seeded = ["exchange", "--out", str(tmp_path / "o.json"), "--params"]
    return {
        "transcript-without-B": (["attack", "--method", "dimension"], no_b),
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
        "groupring-float-modulus", "gl-float-prime", "dhke-string-prime",
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
