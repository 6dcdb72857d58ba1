"""Command-line front end: run detection sequences, sweep, plan, verify.

Output is CSV (with a versioned header comment) or JSON mirroring the same
rows. Everything is deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .analytic import full_sequence_report
from .densesim import observer_expectations
from .errors import PrecisionError
from .pauli import DENSE_QUBIT_LIMIT
from .planner import (
    DEFAULT_CAP,
    DEFAULT_EPSILON,
    generate_schedule,
    largest_sharpness_for,
    max_detections,
)
from .states import StateFamily
from .verify import SUITE_NAMES, run_suite
from .witness import build_modified_witness

AGREEMENT_TOL = 1e-9

RUN_COLUMNS = (
    "k",
    "lambda_k",
    "witness_value_analytic",
    "witness_value_dense",
    "detected",
    "margin",
)
SWEEP_COLUMNS = ("lambda_1", "max_detections")
PLAN_COLUMNS = ("n", "epsilon", "lambda_1", "bracket_low", "bracket_high")
VERIFY_COLUMNS = ("suite", "check", "passed", "max_residual", "detail")


@dataclass
class ExperimentConfig:
    """One `run` invocation: which state, which schedule, which engine."""

    state: str
    n_qubits: int
    lambdas: tuple[float, ...] | None = None
    plan: dict | None = None
    mode: str = "both"

    def __post_init__(self) -> None:
        if self.mode not in ("analytic", "dense", "both"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.lambdas is None) == (self.plan is None):
            raise ValueError("provide exactly one of an explicit schedule or a plan")


def _plan_value(text, key: str, kind: type):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"plan {key}={text} is not a valid {kind.__name__}") from None


def _resolve_schedule(config: ExperimentConfig, family: StateFamily) -> tuple[float, ...]:
    if config.lambdas is not None:
        if not config.lambdas:
            raise ValueError("empty sharpness schedule")
        return config.lambdas
    plan = dict(config.plan)
    try:
        lambda_1 = _plan_value(plan.pop("l1"), "l1", float)
        epsilon = _plan_value(plan.pop("eps"), "eps", float)
    except KeyError as missing:
        raise ValueError(f"plan needs key {missing}") from None
    max_k = _plan_value(plan.pop("max_k", DEFAULT_CAP), "max_k", int)
    if plan:
        raise ValueError(f"unknown plan keys {sorted(plan)}")
    return generate_schedule(lambda_1, epsilon, max_k, family.x_string_expectation).values


def cmd_run(config: ExperimentConfig) -> list[dict]:
    """Rows of per-observer witness values for one experiment."""
    family = StateFamily.parse(config.state, config.n_qubits)
    lambdas = _resolve_schedule(config, family)

    analytic_values: list[float] | None = None
    if config.mode in ("analytic", "both"):
        analytic_values = [r.witness_value for r in full_sequence_report(family, lambdas)]

    dense_values: list[float] | None = None
    if config.mode in ("dense", "both"):
        if config.n_qubits > DENSE_QUBIT_LIMIT:
            raise ValueError(
                f"dense mode limited to {DENSE_QUBIT_LIMIT} qubits, got {config.n_qubits}"
            )
        witnesses = (
            build_modified_witness(family.witness_family, config.n_qubits, lam) for lam in lambdas
        )
        dense_values = observer_expectations(family.density_matrix(), lambdas, witnesses)

    rows = []
    for index, lam in enumerate(lambdas):
        analytic = analytic_values[index] if analytic_values is not None else None
        dense = dense_values[index] if dense_values is not None else None
        governing = analytic if analytic is not None else dense
        rows.append(
            {
                "k": index + 1,
                "lambda_k": lam,
                "witness_value_analytic": analytic,
                "witness_value_dense": dense,
                "detected": governing < 0.0,
                "margin": abs(governing),
            }
        )
    return rows


def run_disagreement(rows: list[dict]) -> float:
    gaps = [
        abs(row["witness_value_analytic"] - row["witness_value_dense"])
        for row in rows
        if row["witness_value_analytic"] is not None
        and row["witness_value_dense"] is not None
    ]
    return max(gaps, default=0.0)


def sign_disagreements(rows: list[dict]) -> list[int]:
    """Observers k at which the analytic and dense values have opposite signs."""
    return [
        row["k"]
        for row in rows
        if row["witness_value_analytic"] is not None
        and row["witness_value_dense"] is not None
        and (
            row["witness_value_analytic"] < 0.0 < row["witness_value_dense"]
            or row["witness_value_dense"] < 0.0 < row["witness_value_analytic"]
        )
    ]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    text = str(value)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_rows(rows: list[dict], columns, header: str, out_format: str) -> str:
    if out_format == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [f"# {header}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_plan(text: str) -> dict:
    plan = {}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"malformed plan entry {item!r}")
        key = key.strip()
        if key in plan:
            raise ValueError(f"plan key {key!r} is given more than once")
        plan[key] = value.strip()
    return plan


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        state=args.state,
        n_qubits=args.N,
        lambdas=_parse_float_list(args.lambdas, "--lambdas") if args.lambdas else None,
        plan=_parse_plan(args.plan) if args.plan else None,
        mode=args.mode,
    )
    rows = cmd_run(config)
    header = (
        f"seqgme run v1 state={args.state} N={args.N} mode={args.mode} seed={args.seed}"
    )
    _emit(render_rows(rows, RUN_COLUMNS, header, args.format), args.out)
    if config.mode != "both":
        return 0
    status = 0
    gap = run_disagreement(rows)
    if gap > AGREEMENT_TOL:
        print(f"error: analytic and dense values disagree by {gap:.3e}", file=sys.stderr)
        status = 1
    flipped = sign_disagreements(rows)
    if flipped:
        print(
            "error: analytic and dense values have opposite signs at k = "
            + ", ".join(str(k) for k in flipped),
            file=sys.stderr,
        )
        status = 1
    return status


def _cmd_sweep(args) -> int:
    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    grid = _parse_float_list(args.lambda1_grid, "--lambda1-grid")
    if not grid:
        raise ValueError("empty lambda_1 grid")
    for value in grid:
        if not 0.0 < value < 1.0:
            raise ValueError(f"grid value {value} outside (0, 1)")
    rows, failures = [], []
    for value in grid:
        try:
            count = max_detections(value, args.epsilon, args.cap)
        except PrecisionError as exc:
            # One point that double precision cannot plan leaves the others standing.
            count = None
            failures.append(f"error: lambda_1={value}: {exc}")
        rows.append({"lambda_1": value, "max_detections": count})
    header = f"seqgme sweep v1 epsilon={args.epsilon} cap={args.cap}"
    _emit(render_rows(rows, SWEEP_COLUMNS, header, args.format), args.out)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


def _cmd_plan(args) -> int:
    result = largest_sharpness_for(args.n, args.epsilon)
    rows = [
        {
            "n": args.n,
            "epsilon": args.epsilon,
            "lambda_1": result.lambda_1,
            "bracket_low": result.bracket_low,
            "bracket_high": result.bracket_high,
        }
    ]
    header = f"seqgme plan v1 n={args.n} epsilon={args.epsilon}"
    _emit(render_rows(rows, PLAN_COLUMNS, header, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    rows = []
    for suite in suites:
        for check in run_suite(suite, args.seed):
            rows.append(
                {
                    "suite": check.suite,
                    "check": check.name,
                    "passed": check.passed,
                    "max_residual": check.residual,
                    "detail": check.detail,
                }
            )
    header = f"seqgme verify v1 suites={'+'.join(suites)} seed={args.seed}"
    _emit(render_rows(rows, VERIFY_COLUMNS, header, args.format), args.out)
    failed = [row for row in rows if not row["passed"]]
    if failed:
        print(f"error: {len(failed)} verification check(s) failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqgme",
        description="Sequential detection of genuine multipartite entanglement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="per-observer witness values along a schedule")
    run.add_argument("--state", required=True, help="ghz | cluster | gghz:alpha=A | mixed:p1=..,p2=..,p3=..,alpha=..")
    run.add_argument("--N", type=int, required=True, help="number of parties (>= 3)")
    run.add_argument("--lambdas", help="explicit comma-separated sharpness schedule")
    run.add_argument("--plan", help="planned schedule, e.g. l1=0.05,eps=0.05[,max_k=K]")
    run.add_argument("--mode", choices=("analytic", "dense", "both"), default="both")
    run.add_argument(
        "--seed", type=int, default=7,
        help="recorded in the output header only: run draws no random numbers",
    )
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--out", help="output file (default stdout)")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="detection counts over a lambda_1 grid")
    sweep.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sweep.add_argument("--lambda1-grid", required=True, dest="lambda1_grid")
    sweep.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out")
    sweep.set_defaults(func=_cmd_sweep)

    plan = sub.add_parser("plan", help="about the largest lambda_1 still reaching n detections")
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    plan.add_argument("--format", choices=("csv", "json"), default="csv")
    plan.add_argument("--out")
    plan.set_defaults(func=_cmd_plan)

    verify = sub.add_parser("verify", help="run a numerical verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--format", choices=("csv", "json"), default="csv")
    verify.add_argument("--out")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
