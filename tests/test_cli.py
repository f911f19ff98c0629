import csv
import json

import pytest

from burstfec.cli import EXIT_INVALID, EXIT_OPEN_CAPACITY, EXIT_VERIFY_FAIL, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "--b1", "1", "--t1", "2", "--b2", "2", "--t2", "4")
    assert code == 0
    assert "region: b" in out


def test_classify_a_prime(capsys):
    code, out, _ = run(capsys, "classify", "--b1", "1", "--t1", "2", "--b2", "2", "--t2", "6")
    assert code == 0
    assert "region: a'" in out and "interference-avoidance" in out


def test_capacity_point_csv(capsys):
    code, out, _ = run(capsys, "capacity", "--b1", "4", "--t1", "5", "--b2", "7", "--t2", "10")
    assert code == 0
    row = list(csv.DictReader(out.splitlines()))[0]
    assert row["capacity"] == "5/11"
    assert row["pec_bound"] == "6/13"
    assert row["best_bound"] == "5/11"


def test_capacity_open_point_json(capsys):
    code, out, _ = run(
        capsys, "capacity", "--b1", "3", "--t1", "4", "--b2", "5", "--t2", "6",
        "--format", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["capacity"] == "UNKNOWN"
    assert row["region"] == "f"
    assert row["best_bound"] == "3/7"  # the region-f bound, tighter than C^U here


@pytest.mark.parametrize(
    "argv",
    [("--sweep", "-3"), ("--b2", "2", "--t2", "4", "--sweep", "0")],
    ids=["negative", "zero-with-point"],
)
def test_capacity_bad_sweep_exits_invalid(capsys, argv):
    code, out, err = run(capsys, "capacity", "--b1", "1", "--t1", "2", *argv)
    assert code == EXIT_INVALID
    assert err == f"error: sweep must be >= 1, got {argv[-1]}\n"
    assert out == ""


def test_capacity_sweep_refuses_point_flags(capsys):
    code, out, err = run(capsys, "capacity", "--sweep", "1", "--b1", "9", "--t1", "9")
    assert code == EXIT_INVALID
    assert err == "error: --sweep tabulates every point; drop --b1, --t1\n"
    assert out == ""


def test_capacity_sweep_needs_no_point(capsys):
    code, out, err = run(capsys, "capacity", "--sweep", "2")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()))
    assert [(r["b1"], r["t1"], r["b2"], r["t2"]) for r in rows] == [
        ("1", "1", "1", "1"), ("1", "1", "1", "2"), ("1", "1", "2", "2"),
        ("1", "2", "1", "1"), ("1", "2", "1", "2"), ("1", "2", "2", "2"),
        ("2", "2", "2", "2"),
    ]


@pytest.mark.parametrize(
    "argv", [(), ("--b1", "1", "--t1", "2"), ("--b2", "2", "--t2", "4")],
    ids=["nothing", "user1-only", "user2-only"],
)
def test_capacity_without_point_or_sweep_exits_invalid(capsys, argv):
    code, out, err = run(capsys, "capacity", *argv)
    assert code == EXIT_INVALID
    assert err == "error: capacity needs --b1/--t1/--b2/--t2 or --sweep\n"
    assert out == ""


def test_capacity_sweep_bounds_dominate(capsys):
    from fractions import Fraction

    code, out, _ = run(capsys, "capacity", "--sweep", "4")
    assert code == 0

    def frac(s):
        if s == "UNKNOWN":
            return None
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den or 1))

    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) > 30
    for row in rows:
        cap = frac(row["capacity"])
        if cap is None:
            continue
        assert cap <= frac(row["pec_bound"])
        assert cap <= frac(row["cu_bound"])


def test_build_single_user(capsys):
    code, out, _ = run(capsys, "build", "--b1", "2", "--t1", "3")
    assert code == 0
    assert "parity s0[i-3] + s2[i-1]" in out


@pytest.mark.parametrize(
    "command", [("build",), ("verify",), ("pec", "--variant", "multicast_caseB"), ("pec",)],
    ids=["build", "verify", "pec", "pec-auto"],
)
def test_build_open_region_refused(capsys, command):
    code, out, err = run(capsys, *command, "--b1", "3", "--t1", "4", "--b2", "5", "--t2", "6")
    assert code == EXIT_OPEN_CAPACITY
    assert err.startswith("error: capacity open:")
    assert out == ""


def test_build_non_integer_alpha(capsys):
    code, _, err = run(capsys, "build", "--b1", "2", "--t1", "4", "--b2", "3", "--t2", "9")
    assert code == EXIT_INVALID


def test_build_infeasible_params(capsys):
    code, _, err = run(capsys, "build", "--b1", "3", "--t1", "2")
    assert code == EXIT_INVALID


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--b1", "1", "--t1", "2", "--b2", "2", "--t2", "4",
                       "--window", "40")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_over_a_requested_field(capsys):
    code, out, err = run(capsys, "verify", "--b1", "2", "--t1", "6", "--b2", "2", "--t2", "6",
                         "--field", "gf256", "--window", "2")
    assert code == 0 and err == ""
    assert out.count("PASS (4 trials)") == 2


def test_build_over_a_field_without_the_block_code_exits_invalid(capsys):
    # (2, 6) has no binary block code, so --field gf2 cannot be met
    code, out, err = run(capsys, "build", "--b1", "2", "--t1", "6", "--field", "gf2")
    assert code == EXIT_INVALID and out == ""
    assert err == (
        "error: no binary pattern verifies for (B=2, T=6); tried ['window', 'mod-pairing']\n"
    )


def test_verify_fail_exit_code(capsys, monkeypatch):
    # sabotage the built code: the CLI must report FAIL and exit 2
    import burstfec.cli as cli_mod
    from burstfec.code_model import StreamingCodeSpec

    real = cli_mod._build_spec

    def sabotaged(args):
        spec = real(args)
        return StreamingCodeSpec(spec.field, spec.n_source, spec.parity_rows[:-1], "cut")

    monkeypatch.setattr(cli_mod, "_build_spec", sabotaged)
    code, out, _ = run(capsys, "verify", "--b1", "2", "--t1", "3", "--window", "12")
    assert code == EXIT_VERIFY_FAIL
    assert "FAIL at burst start" in out


def test_bad_spec_text_exits_invalid(capsys, monkeypatch):
    # a spec read from text reaches the CLI's commands as a ValueError
    import burstfec.cli as cli_mod
    from burstfec.code_model import spec_from_text

    monkeypatch.setattr(cli_mod, "_build_spec", lambda args: spec_from_text("field gf16\nsources 1\n"))
    code, _, err = run(capsys, "verify", "--b1", "1", "--t1", "2")
    assert code == EXIT_INVALID
    assert "line 1: unknown field 'gf16'" in err


def test_decoder_contradiction_is_not_invalid_input(capsys, monkeypatch):
    # a contradiction while decoding burstfec's own stream is a fault in the
    # program: it must not be reported as invalid parameters (exit 4)
    from burstfec import channel_sim
    from burstfec.algebra import InconsistentSystemError

    real_encode = channel_sim.encode

    def contradiction(spec, src, horizon):
        # flip p1[5], which the first trial reads only in a dependent equation
        channel = real_encode(spec, src, horizon)
        channel[5] = channel[5][:4] + (channel[5][4] ^ 1,)
        return channel

    monkeypatch.setattr(channel_sim, "encode", contradiction)
    with pytest.raises(InconsistentSystemError):
        main(["verify", "--b1", "2", "--t1", "3", "--window", "4"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("window", ["-3", "0"])
def test_verify_empty_window_exits_invalid(capsys, window):
    code, out, err = run(capsys, "verify", "--b1", "2", "--t1", "3", "--window", window)
    assert code == EXIT_INVALID
    assert err.startswith("error: ") and "window" in err
    assert "PASS" not in out


SWEEP_HEADER = "b1,t1,b2,t2,region,rate,verdict,trials"


def test_verify_sweep_rows_agree_with_point_verify(capsys):
    code, out, err = run(capsys, "verify", "--sweep", "3")
    assert code == 0
    assert out.splitlines()[0] == SWEEP_HEADER
    rows = list(csv.DictReader(out.splitlines()))
    assert err == f"{len(rows)} points, 0 failures\n"
    for row in rows:
        point = [arg for key in ("b1", "t1", "b2", "t2") for arg in (f"--{key}", row[key])]
        code, point_out, _ = run(capsys, "verify", *point)
        assert code == 0 and row["verdict"] == "PASS", row
        trials = [int(line.split("(")[-1].split()[0]) for line in point_out.splitlines()]
        assert sum(trials) == int(row["trials"]), row


def test_verify_sweep_parallel_matches_serial(capsys, tmp_path):
    _, serial, _ = run(capsys, "verify", "--sweep", "2")
    out_file = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "verify", "--sweep", "2", "--jobs", "2", "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_bytes() == serial.encode()
    assert err == f"{len(serial.splitlines()) - 1} points, 0 failures\n"


def test_verify_sweep_reports_a_sabotaged_code(capsys, monkeypatch):
    # same rate, one parity row emptied: the deadline sweep must fail it
    import burstfec.cli as cli_mod
    from burstfec.code_model import ParityRow, StreamingCodeSpec

    real = cli_mod.construct

    def sabotaged(p):
        spec = real(p)
        rows = spec.parity_rows[:-1] + (ParityRow(()),)
        return StreamingCodeSpec(spec.field, spec.n_source, rows, "cut")

    monkeypatch.setattr(cli_mod, "construct", sabotaged)
    code, out, err = run(capsys, "verify", "--sweep", "2")
    assert code == EXIT_VERIFY_FAIL
    rows = list(csv.DictReader(out.splitlines()))
    assert rows and all(r["verdict"] == "FAIL" for r in rows)
    assert err == f"{len(rows)} points, {len(rows)} failures\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--sweep", "0"), "sweep must be >= 1, got 0"),
        (("--sweep", "2", "--jobs", "0"), "jobs must be >= 1, got 0"),
        (("--sweep", "2", "--b1", "1", "--window", "4"),
         "--sweep builds each point's own code; drop --b1, --window"),
        (("--b1", "2", "--t1", "3", "--jobs", "2"), "--jobs needs --sweep"),
        ((), "verify needs --b1/--t1 or --sweep"),
    ],
    ids=["sweep-zero", "jobs-zero", "sweep-with-point", "jobs-without-sweep", "nothing"],
)
def test_verify_bad_sweep_input_exits_invalid(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_INVALID
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [("build", "--t1", "3"), ("verify", "--b1", "x", "--t1", "3"),
     ("verify", "--b1", "2", "--t1", "3", "--bogus", "1"), ()],
    ids=["missing-required", "not-an-integer", "unknown-flag", "no-command"],
)
def test_usage_error_exits_invalid(capsys, argv):
    # a usage error is invalid input (4), never a failed verification (2)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_INVALID
    assert err.startswith("usage: burstfec") and "error: " in err
    assert out == ""


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")], ids=["top", "verify"])
def test_help_exits_ok(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: burstfec")


@pytest.mark.parametrize("command", ["verify", "build", "pec"])
def test_t2_without_b2_rejected(capsys, command):
    code, out, err = run(capsys, command, "--b1", "2", "--t1", "3", "--t2", "4")
    assert code == EXIT_INVALID
    assert err == "error: --t2 requires --b2\n"
    assert out == ""


@pytest.mark.parametrize("command", ["verify", "build", "pec", "capacity"])
def test_b2_without_t2_exits_invalid(capsys, command):
    code, out, err = run(capsys, command, "--b1", "2", "--t1", "3", "--b2", "4")
    assert code == EXIT_INVALID
    assert err == "error: --b2 requires --t2\n"
    assert out == ""


@pytest.mark.parametrize("command", ["verify", "build"])
def test_ia_sco_without_multicast_point_exits_invalid(capsys, command):
    code, out, err = run(capsys, command, "--b1", "2", "--t1", "3", "--method", "ia-sco")
    assert code == EXIT_INVALID
    assert err == "error: --method ia-sco needs a multicast point (--b2/--t2)\n"
    assert out == ""


def test_wrong_decoded_value_is_not_invalid_input(capsys, monkeypatch):
    # a wrong value decoded from burstfec's own stream is a fault in the
    # program: it propagates as MisdecodeError, never exit 4
    from burstfec import channel_sim

    real_encode = channel_sim.encode

    def other_source(spec, src, horizon):
        return real_encode(spec, channel_sim.source_fill(spec.n_source, horizon, spec.field.size, 99), horizon)

    monkeypatch.setattr(channel_sim, "encode", other_source)
    with pytest.raises(channel_sim.MisdecodeError):
        main(["verify", "--b1", "2", "--t1", "3", "--window", "4"])
    assert capsys.readouterr().err == ""


def test_pec_counting_single_user(capsys):
    code, out, _ = run(capsys, "pec", "--b1", "2", "--t1", "3")
    assert code == 0
    assert "ratio 3/5" in out


def test_pec_region_f_double_count(capsys):
    code, out, _ = run(capsys, "pec", "--b1", "2", "--t1", "3", "--b2", "4", "--t2", "4")
    assert code == 0
    assert "(+1 double)" in out
    assert "ratio 3/8" in out


@pytest.mark.parametrize("periods", ["0", "-2"])
def test_pec_bad_periods_exits_invalid(capsys, periods):
    code, out, err = run(capsys, "pec", "--b1", "2", "--t1", "3", "--periods", periods)
    assert code == EXIT_INVALID
    assert err == f"error: periods must be >= 1, got {periods}\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--b1", "1", "--t1", "2", "--b2", "2", "--t2", "4", "--variant", "single_user"),
         "variant single_user takes no --b2/--t2"),
        (("--b1", "2", "--t1", "3", "--variant", "region_e"),
         "variant region_e needs a multicast point (--b2/--t2)"),
        (("--b1", "1", "--t1", "2", "--b2", "2", "--t2", "4", "--variant", "region_e"),
         "variant region_e does not fit region b"),
        (("--b1", "1", "--t1", "2", "--b2", "2", "--t2", "4", "--variant", "region_f1"),
         "variant region_f1 does not fit region b"),
    ],
    ids=["single-user-variant-on-multicast", "multicast-variant-on-single-user",
         "region-e-variant-on-region-b", "region-f1-variant-on-region-b"],
)
def test_pec_variant_mismatch_exits_invalid(capsys, argv, message):
    code, out, err = run(capsys, "pec", *argv)
    assert code == EXIT_INVALID
    assert err == f"error: {message}\n"
    assert out == ""


def test_pec_csv_out(tmp_path, capsys):
    out_file = tmp_path / "sched.csv"
    code, _, _ = run(capsys, "pec", "--b1", "1", "--t1", "2", "--b2", "2", "--t2", "4",
                     "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert {"t", "row", "erased", "recovery_time"} == set(rows[0])


@pytest.mark.parametrize(
    "command",
    [
        ("classify", "--b1", "1", "--t1", "2", "--b2", "2", "--t2", "4"),
        ("capacity", "--b1", "1", "--t1", "2", "--b2", "2", "--t2", "4"),
        ("build", "--b1", "2", "--t1", "3"),
        ("verify", "--b1", "2", "--t1", "3", "--window", "3"),
        ("pec", "--b1", "2", "--t1", "3", "--periods", "1"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "target, reason",
    [("missing/x.txt", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_unwritable_out_exits_invalid(tmp_path, capsys, command, target, reason):
    # the target is checked before the command runs: verify and pec print
    # no summary for a run whose output could not be written
    path = tmp_path / target
    code, out, err = run(capsys, *command, "--out", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: cannot write --out {path}: {reason}\n"


def test_unwritable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    import burstfec.cli as cli_mod

    calls = []
    real = cli_mod._sweep_row
    monkeypatch.setattr(cli_mod, "_sweep_row", lambda p: calls.append(p) or real(p))
    path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "verify", "--sweep", "12", "--out", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"error: cannot write --out {path}: No such file or directory\n"
    assert calls == []


def test_checked_out_target_is_neither_created_nor_truncated(tmp_path, capsys):
    # a file that exists is kept as it is until the output replaces it, and
    # a new one appears only with the output
    kept = tmp_path / "kept.txt"
    kept.write_text("old\n")
    code, _, _ = run(capsys, "build", "--b1", "2", "--t1", "3", "--b2", "9", "--t2", "4",
                     "--out", str(kept))
    assert code == EXIT_INVALID and kept.read_text() == "old\n"
    fresh = tmp_path / "fresh.txt"
    code, _, _ = run(capsys, "build", "--b1", "2", "--t1", "3", "--b2", "9", "--t2", "4",
                     "--out", str(fresh))
    assert code == EXIT_INVALID and not fresh.exists()
