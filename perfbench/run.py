"""Benchmark harness for seqgme.

    python3 perfbench/run.py --workload dense|symbolic|verify --seed N --seconds T --trace 0|1

Run from the repository root. Every measurement runs in a child interpreter
(child.py) that imports seqgme from ./src, with the BLAS/OpenMP pools pinned
to one thread. Children run one at a time and this process blocks on each.
setup_s and pass_s are medians of wall times scaled to a fixed host speed by
a reference kernel timed beside them (reference.py).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; a run manifest is written to
perfbench/out/. NOTES.md explains the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread, here and in every child; NOTES.md says why. This
# process times the reference kernel too, so it is pinned before numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

# Cold starts per untraced run whose median is setup_s; the last one is the
# measuring child itself.
SETUP_STARTS = 11
# Reference kernel samples this process takes after each cold start, to gauge
# the host's speed while the starts ran.
SETUP_REFERENCE_SAMPLES = 5
# Every child must have ended by then, so the run exits within 180 s.
RUN_DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "densesim.expectation.busy_s": "s",
    "densesim.expectation.calls": "count",
    "densesim.luders_update.busy_s": "s",
    "densesim.luders_update.calls": "count",
    "states.stabilizer_expectation.busy_s": "s",
    "states.stabilizer_expectation.calls": "count",
    "states.stabilizer_expectation.terms": "count",
    "states.stabilizer_generators.busy_s": "s",
    "witness.build.busy_s": "s",
    "witness.build.calls": "count",
    "witness.terms": "count",
    "verify.channel.busy_s": "s",
    "verify.recursion.busy_s": "s",
    "verify.psd.busy_s": "s",
    "verify.biseparable.busy_s": "s",
    "verify.oracle.busy_s": "s",
    "verify.checks": "count",
    "states.density_matrix.busy_s": "s",
    "planner.schedule.busy_s": "s",
    "analytic.report.busy_s": "s",
    "cli.render.busy_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.unspanned_s": "s",
}


class BenchmarkError(Exception):
    pass


def check_spec(spec: dict, workload: str) -> None:
    """The metrics this harness prints must be exactly those BENCHMARK.json names."""
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchmarkError(f"unknown workload {workload!r}")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            raise BenchmarkError(
                f"BENCHMARK.json {key} {sorted(declared.items())} does not match "
                f"the harness's {sorted(table.items())}"
            )


# Recorded in the run manifest. NOTES.md says why each is set.
CHILD_SETTINGS = {
    **BLAS_THREADS,
    # seqgme is compiled from source on every start, as in a fresh checkout.
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    return {
        **os.environ,
        **CHILD_SETTINGS,
        "PYTHONPATH": str(ROOT / "src"),
        # verify's state-file round trip writes its temporary file here.
        "TMPDIR": str(OUT / "tmp"),
    }


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run one child to completion and return its JSON result plus setup_s,
    the time from just before the child was started until it was ready."""
    command = [
        sys.executable, str(CHILD),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child {' '.join(extra) or 'run'} overran the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"child exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqgme benchmark harness")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.seed < 0 or args.seconds < 1:
            raise BenchmarkError("--seed must be >= 0 and --seconds >= 1")
        check_spec(json.loads((ROOT / "BENCHMARK.json").read_text()), args.workload)
        if not (ROOT / "src" / "seqgme" / "__init__.py").is_file():
            raise BenchmarkError(f"no seqgme sources under {ROOT / 'src'}")
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            spans = OUT / f"spans-{tag}.jsonl"
            child = spawn(args, ["--trace", "1", "--spans", str(spans)], deadline)
            values, table, setups = child["layers"], PER_LAYER, []
            setup_speed = pass_speed = None
        else:
            reference.kernel()  # the first call pays numpy's lazy set-up
            setups, setup_samples = [], []
            for number in range(SETUP_STARTS):
                extra = ["--setup-only"] if number < SETUP_STARTS - 1 else []
                child = spawn(args, extra, deadline)
                setups.append(child["setup_s"])
                setup_samples += [reference.kernel() for _ in range(SETUP_REFERENCE_SAMPLES)]
            setup_speed = reference.speed(setup_samples)
            pass_speed = reference.speed(child["reference_samples"])
            values = {
                "setup_s": statistics.median(setups) * setup_speed,
                "pass_s": statistics.median(child["passes"]) * pass_speed,
                "peak_rss_mib": child["peak_rss_mib"],
            }
            table = END_TO_END
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "executable": sys.executable,
        "numpy": child["numpy"],
        "blas": child["blas"],
        "child_threads": child["threads"],
        "child_settings": CHILD_SETTINGS,
        "setup_samples_s": setups,
        "setup_speed": setup_speed,
        "pass_samples_s": child["passes"],
        "pass_speed": pass_speed,
        "reference_s": reference.REFERENCE_S,
        "pass_reference_samples": len(child.get("reference_samples", [])),
        "traced_pass_samples_s": child.get("traced_passes"),
        "missing_trace_targets": child.get("missing_targets"),
    }
    (OUT / f"manifest-{tag}.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print("manifest " + json.dumps(manifest))
    if child["failed"]:
        print(f"error: {child['failed']} of {child['attempted']} operations failed", file=sys.stderr)
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
