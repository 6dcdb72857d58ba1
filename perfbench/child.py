"""One benchmark process, started by run.py: set up, run timed passes, and
print one JSON object on standard output.

Set-up ends when the first timed pass can begin: seqgme is imported, the
seeded inputs are made and lazy set-up is paid. With --setup-only the process
stops there. Otherwise it runs passes until the next one would overrun
--seconds (always at least one), timing the reference kernel all through
them (reference.py). With --trace 1 it alternates untraced and traced passes,
so the tracing overhead is measured within one process; it takes no reference
samples.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import reference
import seqgme
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _timed_pass(workload, tracer=None, sampler=None) -> tuple[float, int, int]:
    """One pass's wall time, less the time the reference sampler took in it."""
    gc.collect()
    busy = sampler.busy_s if sampler else 0.0
    start = time.perf_counter()
    attempted, failed = workload.run_pass(tracer)
    seconds_taken = time.perf_counter() - start
    if sampler:
        seconds_taken -= sampler.busy_s - busy
    return seconds_taken, attempted, failed


def _run_untraced(workload, seconds: float) -> dict:
    begin = time.monotonic()
    passes, attempted, failed = [], 0, 0
    with reference.Sampler().running() as sampler:
        while True:
            seconds_taken, tried, bad = _timed_pass(workload, sampler=sampler)
            passes.append(seconds_taken)
            attempted += tried
            failed += bad
            if time.monotonic() - begin + statistics.median(passes) > seconds:
                break
    return {"passes": passes, "reference_samples": sampler.samples,
            "attempted": attempted, "failed": failed}


def _run_traced(workload, seconds: float, spans_path: str) -> dict:
    tracer = tracing.Tracer()
    begin = time.monotonic()
    plain, traced, ranges, summaries = [], [], [], []
    attempted, failed = 0, 0
    while True:
        seconds_taken, tried, bad = _timed_pass(workload)
        plain.append(seconds_taken)
        attempted += tried
        failed += bad
        first = len(tracer.spans)
        with tracer.installed():
            seconds_taken, tried, bad = _timed_pass(workload, tracer)
        traced.append(seconds_taken)
        attempted += tried
        failed += bad
        ranges.append((first, len(tracer.spans)))
        summary = tracer.summarize(first, len(tracer.spans))
        summary["trace.unspanned_s"] = seconds_taken - summary.pop("root_busy_s")
        summaries.append(summary)
        elapsed = time.monotonic() - begin
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    tracer.write(spans_path, ranges)
    layers = {}
    for name in summaries[0]:
        values = [s[name] for s in summaries]
        # Counts repeat exactly from pass to pass; keep them whole numbers.
        median = statistics.median_low if isinstance(values[0], int) else statistics.median
        layers[name] = median(values)
    layers["trace.pass_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"passes": plain, "traced_passes": traced,
            "layers": layers, "missing_targets": tracer.missing,
            "attempted": attempted, "failed": failed}


def _thread_count() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(seqgme.__file__).resolve().parent.parent != SRC:
        print(f"error: imported seqgme from {seqgme.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workloads.warm_up()
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        if args.trace:
            result.update(_run_traced(workload, args.seconds, args.spans))
        else:
            result.update(_run_untraced(workload, args.seconds))
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        result.update(
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            threads=_thread_count(),
            numpy=np.__version__,
            blas=f"{blas.get('name')} {blas.get('version')}",
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
