"""hopfforest benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Paths are taken relative to this file's checkout (./src, ./.bench_tmp).
Everything happens in this one process and thread: the package is imported
from ./src, the workload's input files are written under ./.bench_tmp, and
each command goes through the public entry point `hopfforest.cli.run(argv)`
with stdout captured.  Every call reloads its table from JSON, so each pays
the cold-cache cost a CLI user pays.  Times are normalized to the host's
speed during the call (see speed.py); bench/DESIGN.md explains every
choice.

Passes of the workload repeat until --seconds is used up; each output is
checked, and a wrong exit code, a failed check or an exception counts as a
failed command.  The last stdout line is one JSON object:

* --trace 0: the end-to-end metrics (untraced).
* --trace 1: untraced passes for --seconds, then one traced pass; the
  per-layer metrics, with the tracing overhead as traced/untraced pass time.

Exits 2 without a result when ./src/hopfforest is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from speed import timed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, invoke  # noqa: E402

SETUP_REPEATS = 15

END_TO_END = {
    "workload_s": "s",
    "command_geomean_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

#: Untraced per-command normalized time, median over passes (0 where the
#: workload does not run the command).
COMMAND_METRICS = (
    "antipode_forest", "antipode_dyson_salam", "antipode_bogoliubov", "compare",
    "verify", "corrupt_verify", "prelie_verify", "dualize",
)

#: Per-layer metrics of the traced pass.  `_s` is self time of the span of
#: that name; `_calls` and `_count` are exact counts.
LAYER_METRICS = {
    "algebra.poly_init_calls": "count",
    "algebra.tensor_init_calls": "count",
    "algebra.terms_calls": "count",
    "algebra.poly_add_s": "s",
    "algebra.poly_mul_s": "s",
    "algebra.tensor_add_s": "s",
    "algebra.tensor_mul_s": "s",
    "algebra.multiplied_out_s": "s",
    "hopfspec.load_s": "s",
    "hopfspec.validate_s": "s",
    "coproduct.iterated_reduced_s": "s",
    "coproduct.coproduct_poly_s": "s",
    "coproduct.coproduct_poly_calls": "count",
    "coproduct.coassociativity_s": "s",
    "coproduct.counit_s": "s",
    "coproduct.convolution_s": "s",
    "coproduct.monomials_checked_count": "count",
    "trees.enumerate_s": "s",
    "trees.trees_enumerated_count": "count",
    "trees.tree_multiplicity_s": "s",
    "trees.node_calls": "count",
    "linearize.k_linearizations_s": "s",
    "linearize.k_linearizations_calls": "count",
    "antipode.forest_s": "s",
    "antipode.dyson_salam_s": "s",
    "antipode.bogoliubov_s": "s",
    "antipode.poly_s": "s",
    "antipode.term_stats_s": "s",
    "antipode.terms_out_count": "count",
    "prelie.brace_action_s": "s",
    "prelie.brace_action_calls": "count",
    "prelie.brace_memo_ratio": "ratio",
    "prelie.check_s": "s",
    "prelie.associativity_s": "s",
    "prelie.filtration_s": "s",
    "prelie.guin_oudom_mul_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"cmd.{name}_s": "s" for name in COMMAND_METRICS},
}


class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, argv: list[str], problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)


def import_package():
    """Import hopfforest freshly from ./src (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "hopfforest" or n.startswith("hopfforest.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hopfforest")
    cli = importlib.import_module("hopfforest.cli")
    return pkg, cli


def set_up(workload, workdir: str, seed: int):
    """Import plus input files, SETUP_REPEATS times; returns the median
    normalized seconds and the last imported `hopfforest.cli`."""
    times = []

    def once():
        pkg, cli = import_package()
        workload.write_inputs(pkg, cli, workdir, seed)
        return cli

    for _ in range(SETUP_REPEATS):
        gc.collect()
        cli, seconds = timed(once)
        times.append(seconds)
    return statistics.median(times), cli


def run_pass(cli, commands, tally: Tally, sample: bool = True) -> dict[str, float]:
    """One pass; returns normalized seconds per command metric."""
    spent: dict[str, float] = {}
    for command in commands:
        gc.collect()
        try:
            (rc, out, err), seconds = timed(lambda: invoke(cli, command.argv), sample)
        except Exception:  # a traceback from cli.run is a failed command
            tally.record(command.argv, [traceback.format_exc()])
            continue
        spent[command.metric] = spent.get(command.metric, 0.0) + seconds
        try:
            problems = command.check(rc, out)
        except Exception:  # e.g. output the independent parser rejects
            problems = [traceback.format_exc()]
        if problems and err:
            problems.append(err.strip()[:500])
        tally.record(command.argv, problems)
        if not problems and command.on_output is not None:
            command.on_output(out)
    return spent


def run_passes(cli, commands, seconds: float, tally: Tally) -> list[dict[str, float]]:
    """Whole passes until starting another would overrun `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(cli, commands, tally))
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            return passes


def medians(passes: list[dict[str, float]]) -> dict[str, float]:
    names = {name for p in passes for name in p}
    return {name: statistics.median(p.get(name, 0.0) for p in passes) for name in names}


def end_to_end(passes, gates: set[str], setup_s: float) -> dict[str, float]:
    """Sum and geometric mean of the per-command medians, gates left out."""
    per_command = {k: v for k, v in medians(passes).items() if k not in gates}
    return {
        "workload_s": sum(per_command.values()),
        "command_geomean_s": math.exp(
            statistics.fmean(math.log(v) for v in per_command.values() if v > 0)
        ),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(tracer: Tracer, passes, traced_pass: dict[str, float]) -> dict[str, float]:
    self_times = tracer.self_times()
    span_counts = tracer.span_counts()
    brace_calls = span_counts.get("prelie.brace_action", 0)
    per_command = medians(passes)
    values = {
        "prelie.brace_memo_ratio": len(tracer.brace_keys) / brace_calls if brace_calls else 0.0,
        "trace.overhead_ratio": sum(traced_pass.values()) / sum(per_command.values()),
    }
    for name in COMMAND_METRICS:
        values[f"cmd.{name}_s"] = per_command.get(name, 0.0)
    for metric in LAYER_METRICS:
        if metric in values:
            continue
        if metric.endswith("_s"):
            values[metric] = self_times.get(metric[:-2], 0.0)
        elif metric.endswith("_calls") and metric[: -len("_calls")] in span_counts:
            values[metric] = span_counts[metric[: -len("_calls")]]
        else:
            values[metric] = tracer.counters.get(metric, 0)
    return values


def source_lines() -> dict[str, int]:
    package = os.path.join(SRC, "hopfforest")
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                out[name] = sum(1 for _ in fh)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hopfforest", "__init__.py")):
        print(f"error: no hopfforest package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    tally = Tally()
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        setup_s, cli = set_up(workload, workdir, args.seed)
        commands = workload.plan(workdir, args.seed)
        passes = run_passes(cli, commands, args.seconds, tally)
        if args.trace:
            with Tracer() as tracer:
                traced_pass = run_pass(cli, commands, tally, sample=False)
            metrics = per_layer(tracer, passes, traced_pass)
            units = LAYER_METRICS
        else:
            metrics = end_to_end(passes, {c.metric for c in commands if c.gate}, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "source_lines": source_lines(),
    }
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
