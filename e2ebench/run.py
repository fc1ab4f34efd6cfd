"""The repository's end-to-end benchmark.

::

    python3 e2ebench/run.py --workload paper-analytics --seed 1 \\
        --seconds 20 --trace 0

runs one workload and prints a report, then one JSON line with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of the
traced run (``--trace 1``).  ``--workload all`` runs every workload,
each in its own process, and prints all of their metrics.  See
``e2ebench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import atexit
import json
import pathlib
import signal
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from e2e import common, metrics  # noqa: E402


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process, if shared
    memory started one, and wait for it to end.  Registered before
    ``repro`` is imported: ``atexit`` runs handlers last-in first-out,
    so this runs after ``repro``'s own exit hook has closed the worker
    pool and unlinked its segments, and no process outlives the run."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    # Only the process that started the tracker knows its pid; the
    # spawned workers share it and must not stop it.
    if tracker is not None and tracker._resource_tracker._pid is not None:
        tracker._resource_tracker._stop()


#: workload name -> module; the default seed is recorded with them
WORKLOADS = {
    "paper-analytics": "e2e.paper_analytics",
    "serve-param": "e2e.serve_param",
    "read-update": "e2e.read_update",
    "corpus-scan": "e2e.corpus_scan",
}
DEFAULT_SEED = 20041
DEFAULT_SECONDS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(result: common.RunResult, trace: bool) -> dict:
    """The last line of the output: exactly the declared metrics."""
    if trace:
        declared = list(metrics.PER_LAYER) + [
            (f"code.lines.{m}", "lines") for m in metrics.CODE_MODULES]
        source = result.per_layer
    else:
        declared = metrics.END_TO_END
        source = result.end_to_end
    out = {}
    for name, unit in declared:
        value = source[name][0] if name in source else 0.0
        out[name] = {"value": value, "unit": unit}
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": out}


def run_one(args) -> int:
    import importlib
    common.require_program()
    module = importlib.import_module(WORKLOADS[args.workload])
    trace = bool(args.trace)
    lines = common.code_lines()
    if trace and set(lines) != set(metrics.CODE_MODULES):
        print(f"error: src/repro modules {sorted(lines)} differ from the "
              f"declared code.lines.* metrics "
              f"{sorted(metrics.CODE_MODULES)}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    try:
        result = module.run(args.seed, args.seconds, trace)
    except common.OutputMismatch as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        result = common.RunResult(attempted=1, failed=1, correct=False)
        print(json.dumps(result_line(result, trace)))
        return 1
    if trace:
        for module_name, count in lines.items():
            result.layer(f"code.lines.{module_name}", count, "lines")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={time.perf_counter() - started:.1f}s")
    for line in result.report:
        print(line)
    table = result.per_layer if trace else result.end_to_end
    for name, (value, unit, samples) in table.items():
        print(f"{name:34s} {value:14.4f} {unit:9s} n={samples}")
    print(json.dumps(result_line(result, trace)))
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each workload's
    report and a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


def _exit_on_sigterm(signum, frame):
    """Turn SIGTERM into a normal exit, so ``finally`` blocks and exit
    hooks stop the server, the worker pool and the resource tracker."""
    sys.exit(128 + signum)


if __name__ == "__main__":
    atexit.register(_stop_resource_tracker)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
