"""CLI surface: subcommands, formats, determinism, exit codes."""

import argparse
import json

import pytest

from seqgme.cli import (
    RUN_MODES,
    build_parser,
    cmd_run,
    main,
    run_disagreement,
    sign_disagreements,
)


def test_run_rows_explicit_schedule():
    rows = cmd_run(state="ghz", n_qubits=3, lambdas=(1.0, 1.0))
    assert [row["k"] for row in rows] == [1, 2]
    assert rows[0]["witness_value_analytic"] == pytest.approx(-1.0)
    assert rows[0]["detected"] is True
    assert rows[1]["witness_value_analytic"] == pytest.approx(0.0, abs=1e-15)
    assert rows[1]["detected"] is False
    assert run_disagreement(rows) < 1e-9


def test_run_rows_cluster_single_observer():
    rows = cmd_run(state="cluster", n_qubits=5, lambdas=(0.3,))
    assert rows[0]["witness_value_analytic"] == pytest.approx(-0.3)
    assert rows[0]["witness_value_dense"] == pytest.approx(-0.3, abs=1e-12)
    assert rows[0]["margin"] == pytest.approx(0.3)


def test_run_rows_planned_schedule_all_detected():
    rows = cmd_run(state="ghz", n_qubits=4, plan={"l1": "0.05", "eps": "0.05"}, mode="both")
    assert len(rows) >= 2
    assert all(row["detected"] for row in rows)
    assert run_disagreement(rows) < 1e-9


def test_run_analytic_mode_skips_dense_and_scales_past_limit():
    rows = cmd_run(state="ghz", n_qubits=24, lambdas=(0.4,), mode="analytic")
    assert rows[0]["witness_value_dense"] is None
    assert rows[0]["witness_value_analytic"] == pytest.approx(-0.4)


def test_run_dense_mode_only():
    rows = cmd_run(state="gghz:alpha=0.3", n_qubits=3, lambdas=(0.5,), mode="dense")
    assert rows[0]["witness_value_analytic"] is None
    assert rows[0]["detected"] is True


def test_run_mixed_plan_uses_scaled_schedule():
    rows = cmd_run(
        state="mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4",
        n_qubits=3,
        plan={"l1": "0.05", "eps": "0.05", "max_k": "6"},
    )
    assert all(row["detected"] for row in rows)
    assert run_disagreement(rows) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError, match="exactly one"):
        cmd_run(state="ghz", n_qubits=3)  # no schedule source
    with pytest.raises(ValueError, match="exactly one"):
        cmd_run(state="ghz", n_qubits=3, lambdas=(0.5,), plan={"l1": "0.1"})
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        cmd_run(state="ghz", n_qubits=3, lambdas=(0.5,), mode="fast")
    with pytest.raises(ValueError, match="dense mode limited to 10 qubits"):
        cmd_run(state="ghz", n_qubits=12, lambdas=(0.5,), mode="dense")


def test_run_modes_are_the_parser_choices(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--help"])
    assert "--mode {" + ",".join(RUN_MODES) + "}" in capsys.readouterr().out
    assert RUN_MODES == ("analytic", "dense", "both")


def test_main_exit_codes_for_bad_config(capsys):
    assert main(["run", "--state", "ghz", "--N", "3"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["run", "--state", "nope", "--N", "3", "--lambdas", "0.5"]) == 2
    assert main(["run", "--state", "ghz", "--N", "3", "--plan", "l1=0.1,eps=0.05,bogus=1"]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "everything"])
    assert excinfo.value.code == 2


RUN_GHZ_3 = ["run", "--state", "ghz", "--N", "3"]


@pytest.mark.parametrize(
    "argv, err",
    [
        pytest.param(
            RUN_GHZ_3, "provide exactly one of an explicit schedule or a plan", id="no-schedule"
        ),
        pytest.param(
            RUN_GHZ_3 + ["--lambdas", "0.5", "--plan", "l1=0.1,eps=0.05"],
            "provide exactly one of an explicit schedule or a plan",
            id="lambdas-and-plan",
        ),
        pytest.param(
            ["run", "--state", "nope", "--N", "3", "--lambdas", "0.5"],
            "unknown state family 'nope'",
            id="unknown-state",
        ),
        # The plan text is parsed before the state.
        pytest.param(
            ["run", "--state", "nope", "--N", "3", "--plan", "l1"],
            "malformed plan entry 'l1'",
            id="unknown-state-malformed-plan",
        ),
        pytest.param(
            RUN_GHZ_3 + ["--plan", "l1=0.1,eps=0.05,bogus=1"],
            "unknown plan keys ['bogus']",
            id="unknown-plan-key",
        ),
        pytest.param(RUN_GHZ_3 + ["--plan", "eps=0.05"], "plan needs key 'l1'", id="missing-l1"),
        pytest.param(RUN_GHZ_3 + ["--plan", "l1=0.1"], "plan needs key 'eps'", id="missing-eps"),
        pytest.param(
            RUN_GHZ_3 + ["--plan", "l1=x,eps=0.05"], "plan l1=x is not a valid float", id="l1-x"
        ),
        pytest.param(
            RUN_GHZ_3 + ["--plan", "l1=0.1,eps=y"], "plan eps=y is not a valid float", id="eps-y"
        ),
        pytest.param(
            RUN_GHZ_3 + ["--plan", "l1=0.1,eps=0.05,max_k=1e3"],
            "plan max_k=1e3 is not a valid int",
            id="max-k-1e3",
        ),
        pytest.param(
            RUN_GHZ_3 + ["--plan", "l1=0.1,l1=0.2,eps=0.05"],
            "plan key 'l1' is given more than once",
            id="duplicate-key",
        ),
        pytest.param(
            RUN_GHZ_3 + ["--plan", "l1=0.1,eps=0.05,"],
            "malformed plan entry ''",
            id="trailing-comma",
        ),
        pytest.param(RUN_GHZ_3 + ["--lambdas", ","], "empty sharpness schedule", id="lambdas-comma"),
        # An empty flag is given all the same.
        pytest.param(
            RUN_GHZ_3 + ["--plan=", "--lambdas", "0.5"],
            "provide exactly one of an explicit schedule or a plan",
            id="empty-plan-and-lambdas",
        ),
        pytest.param(RUN_GHZ_3 + ["--lambdas="], "empty sharpness schedule", id="lambdas-empty"),
        pytest.param(RUN_GHZ_3 + ["--plan="], "plan needs key 'l1'", id="plan-empty"),
        pytest.param(
            RUN_GHZ_3 + ["--lambdas", "a"],
            "--lambdas expects comma-separated numbers, got 'a'",
            id="lambdas-a",
        ),
        # A blank entry among numbers is refused, not skipped.
        pytest.param(
            RUN_GHZ_3 + ["--lambdas", "0.5,,0.3"],
            "--lambdas expects comma-separated numbers, got '0.5,,0.3'",
            id="lambdas-empty-entry",
        ),
        pytest.param(
            RUN_GHZ_3 + ["--lambdas", " ,0.5"],
            "--lambdas expects comma-separated numbers, got ' ,0.5'",
            id="lambdas-leading-blank",
        ),
        pytest.param(
            ["sweep", "--lambda1-grid", "0.5,"],
            "--lambda1-grid expects comma-separated numbers, got '0.5,'",
            id="sweep-trailing-comma",
        ),
        pytest.param(
            ["run", "--state", "ghz", "--N", "2", "--lambdas", "0.5"],
            "need at least 3 parties, got 2",
            id="N-2",
        ),
        pytest.param(
            ["run", "--state", "ghz", "--N", "12", "--lambdas", "0.5", "--mode", "both"],
            "dense mode limited to 10 qubits, got 12",
            id="N-12-both",
        ),
        pytest.param(
            ["sweep", "--lambda1-grid", "1.5"], "grid value 1.5 outside (0, 1)", id="sweep-1.5"
        ),
        pytest.param(["sweep", "--lambda1-grid", ""], "empty lambda_1 grid", id="sweep-empty"),
        pytest.param(
            ["sweep", "--lambda1-grid", "0.5", "--cap", "0"],
            "--cap must be at least 1, got 0",
            id="sweep-cap-0",
        ),
        pytest.param(["plan", "--n", "0"], "n 0 must be >= 1", id="plan-n-0"),
        pytest.param(
            ["verify", "psd", "--seed", "-1"],
            "--seed must be non-negative, got -1",
            id="verify-seed-minus-1",
        ),
    ],
)
def test_main_error_paths_exit_2_with_one_exact_message(argv, err, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_main_run_csv_output(capsys):
    code = main(["run", "--state", "ghz", "--N", "3", "--lambdas", "1,1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# seqgme run v1")
    assert lines[1] == "k,lambda_k,witness_value_analytic,witness_value_dense,detected,margin"
    assert lines[2].startswith("1,1,-1,-1,true,1")
    assert lines[3].startswith("2,1,0,0,false,0")


def test_main_run_json_output(capsys):
    code = main(
        ["run", "--state", "ghz", "--N", "3", "--lambdas", "0.5", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["k"] == 1
    assert rows[0]["witness_value_analytic"] == pytest.approx(-0.5)


def test_main_output_is_deterministic(tmp_path):
    args = [
        "run", "--state", "cluster", "--N", "4",
        "--plan", "l1=0.1,eps=0.05", "--seed", "7",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_main_sweep_monotone_counts(capsys):
    code = main(["sweep", "--lambda1-grid", "0.5,0.1,0.01,0.001"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    counts = [int(r[1]) for r in rows]
    assert counts == sorted(counts)
    assert all(c >= 1 for c in counts)
    assert main(["sweep", "--lambda1-grid", "1.5"]) == 2


def test_main_plan_brackets(capsys):
    code = main(["plan", "--n", "3", "--epsilon", "0.1", "--format", "json"])
    assert code == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["n"] == 3
    assert 0.0 < row["lambda_1"] < 1.0
    assert row["bracket_low"] <= row["lambda_1"] <= row["bracket_high"]


def test_main_verify_small_suite(capsys):
    code = main(["verify", "psd", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "psd" in out
    assert "false" not in out


def test_main_verify_biseparable_reduced_samples(capsys):
    code = main(["verify", "biseparable", "--seed", "11"])
    assert code == 0
    assert "true" in capsys.readouterr().out


def test_main_verify_proven_suites_ignore_the_seed(capsys):
    # psd and biseparable draw no random numbers: only the header's seed moves.
    outputs = []
    for seed in ("3", "11"):
        assert main(["verify", "psd", "--seed", seed]) == 0
        assert main(["verify", "biseparable", "--seed", seed]) == 0
        outputs.append([
            line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")
        ])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["run", "--state", "ghz", "--N", "3", "--lambdas", "0.5"], id="run"),
        pytest.param(["sweep", "--lambda1-grid", "0.5"], id="sweep"),
        pytest.param(["plan", "--n", "3"], id="plan"),
        pytest.param(["verify", "biseparable"], id="verify"),
    ],
)
def test_main_unwritable_out_exits_2_naming_the_flag(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write --out {target}" in captured.err
    assert not target.exists()


def test_main_sweep_rejects_cap_below_one_naming_the_flag(capsys):
    for cap in ("0", "-2"):
        assert main(["sweep", "--lambda1-grid", "0.5", "--cap", cap]) == 2
        err = capsys.readouterr().err
        assert f"--cap must be at least 1, got {cap}" in err


def test_run_at_a_subnormal_sharpness_reports_its_exact_value(capsys):
    # The GHZ value is -lambda: the witness's lambda term is -lambda·X..X,
    # nonzero even where 0.5 * lambda underflows to zero.
    assert main(["run", "--state", "ghz", "--N", "3", "--lambdas", "5e-324", "--mode", "dense"]) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert row == "1,4.94065645841e-324,,-4.94065645841e-324,true,4.94065645841e-324"


def _call(argv, capsys):
    """Exit status, stdout and stderr of one `main` call, SystemExit included."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_repeated_main_calls_share_one_parser_and_keep_no_state(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    out_file = tmp_path / "run.json"
    run = ["run", "--state", "ghz", "--N", "3", "--lambdas", "0.5,0.2"]
    sequence = [
        run + ["--seed", "11", "--format", "json", "--out", str(out_file)],
        run,
        ["verify", "psd", "--seed", "3"],
        ["verify", "psd"],
        ["verify", "everything"],
        ["plan", "--n", "6"],
    ]
    alone = []
    for argv in sequence:
        build_parser.cache_clear()
        alone.append(_call(argv, capsys))
    alone_json = out_file.read_text()
    out_file.unlink()

    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "seqgme":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    together = [_call(argv, capsys) for argv in sequence]
    assert len(built) == 1
    assert together == alone
    assert out_file.read_text() == alone_json
    statuses = [status for status, _, _ in together]
    assert statuses == [0, 0, 0, 0, 2, 0]
    assert together[0][1] == "" and json.loads(alone_json)[0]["k"] == 1
    # No --format, --out or --seed value carries over to the next call.
    assert together[1][1].startswith("# seqgme run v1 state=ghz N=3 mode=both seed=7\nk,")
    assert together[3][1].startswith("# seqgme verify v1 suites=psd seed=7\n")
    assert "invalid choice: 'everything'" in together[4][2]


def test_help_follows_the_terminal_width_at_each_call(monkeypatch, capsys):
    shared = build_parser()
    helps = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        helps[columns] = _call(["run", "--help"], capsys)
        with pytest.raises(SystemExit):
            build_parser.__wrapped__().parse_args(["run", "--help"])
        assert helps[columns] == (0, capsys.readouterr().out, "")
    assert build_parser() is shared
    assert helps["60"] != helps["120"]
    assert max(len(line) for line in helps["60"][1].splitlines()) <= 60


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("run", "sweep", "plan", "verify"):
        assert name in text


MIXED_NAN = "mixed:p1=0.8,p2=nan,p3=0.1,alpha=0.4"
MIXED_INF = "mixed:p1=inf,p2=0.1,p3=0.1,alpha=0.4"


@pytest.mark.parametrize(
    "argv, field",
    [
        pytest.param(
            ["sweep", "--lambda1-grid", "0.5,0.1", "--epsilon", "nan"], "epsilon", id="sweep-nan"
        ),
        pytest.param(
            ["sweep", "--lambda1-grid", "0.5,0.1", "--epsilon", "inf"], "epsilon", id="sweep-inf"
        ),
        pytest.param(["plan", "--n", "5", "--epsilon", "nan"], "epsilon", id="plan-nan"),
        pytest.param(["plan", "--n", "5", "--epsilon", "inf"], "epsilon", id="plan-inf"),
        pytest.param(
            ["run", "--state", MIXED_NAN, "--N", "3", "--lambdas", "0.5,0.1", "--mode", "analytic"],
            "p2",
            id="run-mixed-nan",
        ),
        pytest.param(
            ["run", "--state", MIXED_INF, "--N", "3", "--lambdas", "0.5", "--mode", "analytic"],
            "p1",
            id="run-mixed-inf",
        ),
        pytest.param(
            ["run", "--state", "ghz", "--N", "3", "--plan", "l1=0.1,eps=nan"],
            "epsilon",
            id="run-plan-eps-nan",
        ),
        pytest.param(
            ["run", "--state", "ghz", "--N", "3", "--plan", "l1=0.1,eps=0.05,max_k=2.5"],
            "max_k",
            id="run-plan-max-k-float",
        ),
        # A repeated key is refused, not overwritten by its last value.
        pytest.param(
            ["run", "--state", "ghz", "--N", "4", "--plan", "l1=0.05,l1=0.5,eps=0.05"],
            "plan key 'l1' is given more than once",
            id="run-plan-repeated-key",
        ),
        pytest.param(
            ["run", "--state", "gghz:alpha=0.3,alpha=0.6", "--N", "4", "--lambdas", "0.5"],
            "state parameter 'alpha' is given more than once",
            id="run-state-repeated-key",
        ),
        pytest.param(["verify", "all", "--seed", "-1"], "--seed", id="verify-negative-seed"),
        # Refused also by a suite that draws no random numbers.
        pytest.param(["verify", "psd", "--seed", "-1"], "--seed", id="verify-psd-negative-seed"),
    ],
)
def test_main_rejects_non_finite_and_malformed_input_naming_the_field(argv, field, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_both_mode_exits_1_naming_rows_whose_engines_differ_in_sign(capsys):
    # From k = 2 on the analytic values are about -2.5e-24, below the dense
    # engine's rounding, which leaves some dense values positive.
    argv = ["run", "--state", "ghz", "--N", "4", "--plan", "l1=1e-7,eps=1e-9", "--mode", "both"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 2 + 29
    assert all(line.split(",")[4] == "true" for line in lines[2:])
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: analytic and dense values have opposite signs at k = 7,")
    flagged = [int(k) for k in err[0].split("k = ")[1].split(", ")]
    for k in flagged:
        analytic, dense = (float(cell) for cell in lines[1 + k].split(",")[2:4])
        assert analytic * dense < 0.0


def test_sign_disagreements_count_only_strictly_opposite_signs():
    def row(k, analytic, dense):
        return {"k": k, "witness_value_analytic": analytic, "witness_value_dense": dense}

    rows = [
        row(1, -1.0, 2e-17),
        row(2, 0.0, -1e-17),
        row(3, -1e-300, -1e-300),
        row(4, 3e-200, -3e-200),
        row(5, None, 1.0),
        row(6, -1.0, None),
    ]
    assert sign_disagreements(rows) == [1, 4]


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_sweep_reports_each_grid_point_on_its_own(out_format, capsys):
    argv = ["sweep", "--lambda1-grid", "0.5,1e-200", "--format", out_format]
    assert main(argv) == 1
    captured = capsys.readouterr()
    if out_format == "csv":
        assert captured.out.splitlines()[2:] == ["0.5,4", "1e-200,"]
    else:
        assert json.loads(captured.out) == [
            {"lambda_1": 0.5, "max_detections": 4},
            {"lambda_1": 1e-200, "max_detections": None},
        ]
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: lambda_1=1e-200: sharpness underflowed")


def test_sweep_writes_one_error_line_per_failed_point(capsys):
    assert main(["sweep", "--lambda1-grid", "1e-100,1e-200,1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2:] == ["1e-100,64", "1e-200,", "1e-300,"]
    err = captured.err.splitlines()
    assert [line.split(":")[0] for line in err] == ["error"] * 2
    assert [line.split(":")[1] for line in err] == [" lambda_1=1e-200", " lambda_1=1e-300"]


@pytest.mark.parametrize(
    "argv, epsilon",
    [
        pytest.param(["plan", "--n", "5", "--epsilon", "1e-320"], "1e-320", id="plan"),
        pytest.param(
            ["run", "--state", "ghz", "--N", "10", "--plan", "l1=0.999,eps=1e-300"],
            "1e-300",
            id="run",
        ),
    ],
)
def test_a_plan_whose_margin_rounds_away_exits_2(argv, epsilon, capsys):
    # 1 + epsilon == 1, so observer 2's closed-form value would be 0, not negative.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: planned observer 2 would not detect at epsilon={epsilon}\n"


def test_sweep_names_each_point_whose_margin_rounds_away(capsys):
    assert main(["sweep", "--lambda1-grid", "0.5,0.05", "--epsilon", "1e-17"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2:] == ["0.5,", "0.05,"]
    assert captured.err.splitlines() == [
        f"error: lambda_1={value}: planned observer 2 would not detect at epsilon=1e-17"
        for value in ("0.5", "0.05")
    ]
