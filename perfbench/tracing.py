"""In-memory spans around calls into seqgme's public functions.

The traced run installs a wrapper in place of every function named in LAYERS,
in every seqgme module that binds it (``from .densesim import expectation``
binds the same function object in the importing module too), and removes the
wrappers again afterwards. Each call records a span: layer, function, start,
end, parent span and operation id. A layer is busy while its outermost span
is open, so a layer calling itself (``build_ghz_witness`` calling
``build_modified_ghz_witness``) is not counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass

VERIFY_SUITES = ("channel", "recursion", "psd", "biseparable", "oracle")

# Layer name -> the public functions ("module.name" or "module.Class.name")
# whose calls it covers. The layer names are the prefixes of the per-layer
# metrics in BENCHMARK.json.
LAYERS = {
    "densesim.expectation": ("densesim.expectation",),
    "densesim.luders_update": ("densesim.luders_update",),
    "states.stabilizer_expectation": ("states.stabilizer_expectation",),
    "states.stabilizer_generators": ("states.stabilizer_generators",),
    "states.density_matrix": (
        "states.make_ghz",
        "states.make_generalized_ghz",
        "states.make_mixed_ghz",
        "states.make_cluster",
        "states.StateFamily.density_matrix",
    ),
    "witness.build": (
        "witness.build_ghz_witness",
        "witness.build_cluster_witness",
        "witness.build_modified_ghz_witness",
        "witness.build_modified_cluster_witness",
        "witness.difference_operator",
    ),
    "planner.schedule": ("planner.generate_schedule", "planner.scaled_schedule"),
    "analytic.report": ("analytic.full_sequence_report",),
    "cli.render": ("cli.render_rows",),
    **{f"verify.{suite}": (f"verify.verify_{suite}",) for suite in VERIFY_SUITES},
}


def _term_count(expr) -> int:
    return len(getattr(expr, "terms", (expr,)))


# Per-call amounts of work, counted on outermost spans: layer -> (metric,
# function of the call's arguments and result).
COUNTERS = {
    "states.stabilizer_expectation": (
        "states.stabilizer_expectation.terms",
        lambda args, result: _term_count(args[0]),
    ),
    "witness.build": ("witness.terms", lambda args, result: _term_count(result)),
    **{
        f"verify.{suite}": ("verify.checks", lambda args, result: len(result))
        for suite in VERIFY_SUITES
    },
}


@dataclass
class Span:
    layer: str
    function: str
    start: float
    end: float
    parent: int | None
    op: int
    outermost: bool
    count: int | None = None


class Tracer:
    """Records spans while installed. Callers call next_op() before each
    operation, so the spans of one operation share an id."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth = {layer: 0 for layer in LAYERS}

    def next_op(self) -> None:
        self.op += 1

    def _wrap(self, layer: str, target: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        counter = COUNTERS.get(layer, (None, None))[1]

        def traced(*args, **kwargs):
            outermost = depth[layer] == 0
            depth[layer] += 1
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[layer] -= 1
                count = None
                if counter is not None and outermost and result is not None:
                    count = counter(args, result)
                spans[index] = Span(layer, target, start, end, parent, self.op, outermost, count)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every LAYERS function for its traced wrapper, then swap back."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "seqgme"]
        restore = []
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    module_name, _, path = target.partition(".")
                    owner = importlib.import_module(f"seqgme.{module_name}")
                    *owner_path, attr = path.split(".")
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = vars(owner).get(attr) if owner_path else getattr(owner, attr, None)
                    if not callable(original):
                        if target not in self.missing:
                            self.missing.append(target)
                        continue
                    wrapper = self._wrap(layer, target, original)
                    for holder in [owner] if owner_path else modules:
                        for name, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, name, wrapper)
                                restore.append((holder, name, original))
            yield self
        finally:
            for holder, name, original in reversed(restore):
                setattr(holder, name, original)

    def summarize(self, first: int, last: int) -> dict:
        """Per-layer busy time, outermost-call counts and work counters for
        the spans recorded in [first, last), plus the time under root spans."""
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.busy_s"] = 0.0
            metrics[f"{layer}.calls"] = 0
        for name, _ in COUNTERS.values():
            metrics[name] = 0
        root_busy = 0.0
        for span in self.spans[first:last]:
            duration = span.end - span.start
            if span.parent is None:
                root_busy += duration
            if not span.outermost:
                continue
            metrics[f"{span.layer}.busy_s"] += duration
            metrics[f"{span.layer}.calls"] += 1
            if span.count is not None:
                metrics[COUNTERS[span.layer][0]] += span.count
        metrics["root_busy_s"] = root_busy
        return metrics

    def write(self, path, passes: list[tuple[int, int]]) -> None:
        """Spans as JSON lines, each tagged with the traced pass it belongs to."""
        with open(path, "w") as fh:
            for number, (first, last) in enumerate(passes):
                for span in self.spans[first:last]:
                    fh.write(json.dumps({"pass": number, **asdict(span)}) + "\n")
