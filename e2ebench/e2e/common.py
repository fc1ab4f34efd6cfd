"""Shared pieces of the workloads: locating the program, the result
record, statistics, timing windows, resource and code-size readings."""

from __future__ import annotations

import bisect
import gc
import os
import pathlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: the checkout root: the benchmark lives in ``<root>/e2ebench``
ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: scratch space for generated documents, server logs and traces
WORK = ROOT / ".bench_work"

#: setups per run; ``setup_s`` is their median
SETUP_REPEATS = 7


def require_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources, or
    exit with status 2 when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}; run the "
              f"benchmark from a checkout of the repository",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cpus() -> int:
    """CPUs this process may run on (``nproc``), not the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty
    sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def code_lines() -> dict[str, int]:
    """Non-blank lines of Python per top-level module of
    ``src/repro`` (packages summed over their files), plus ``total``."""
    counts: dict[str, int] = {}
    package = SRC / "repro"
    for entry in sorted(package.iterdir()):
        if entry.is_dir() and (entry / "__init__.py").exists():
            files = [p for p in entry.rglob("*.py")
                     if "__pycache__" not in p.parts]
        elif entry.suffix == ".py":
            files = [entry]
        else:
            continue
        counts[entry.stem] = sum(
            1 for path in files
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip())
    counts["total"] = sum(counts.values())
    return counts


class Zipf:
    """Seeded Zipf-like draw of ranks ``0..n-1`` with exponent ``s``
    (rank 0 the most frequent)."""

    def __init__(self, n: int, s: float):
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        self.cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self.cumulative.append(acc)

    def draw(self, rng) -> int:
        index = bisect.bisect_left(self.cumulative, rng.random())
        return min(index, len(self.cumulative) - 1)


class Window:
    """The timed window of a run: wall time from :meth:`start`, minus
    the correctness checks run inside it (:meth:`paused`)."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._start = 0.0
        self._paused = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()
        self._paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused

    def open(self) -> bool:
        return self.elapsed() < self.seconds

    @contextmanager
    def paused(self):
        """Leave the ``with`` body out of the window's time."""
        begin = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - begin


def timed_setups(build, teardown) -> tuple[object, list[float]]:
    """Run ``build()`` :data:`SETUP_REPEATS` times, tearing down all but
    the last system; returns ``(last system, setup seconds each)``."""
    times: list[float] = []
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            teardown(system)
            system = None
            gc.collect()
        start = time.perf_counter()
        system = build()
        times.append(time.perf_counter() - start)
    return system, times


class OutputMismatch(AssertionError):
    """A reply differed from its expected output: the run fails."""


@dataclass
class RunResult:
    """What one workload run reports.  ``end_to_end`` and
    ``per_layer`` map a metric name to ``(value, unit, samples)``;
    ``report`` holds human-readable lines printed before the result."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    report: list = field(default_factory=list)

    def e2e(self, name: str, value: float, unit: str,
            samples: int) -> None:
        self.end_to_end[name] = (float(value), unit, int(samples))

    def layer(self, name: str, value: float, unit: str,
              samples: int = 1) -> None:
        self.per_layer[name] = (float(value), unit, int(samples))


def end_to_end(result: RunResult, setups, reads, ops: int,
               elapsed: float, rss_mb: float) -> None:
    """The end-to-end metrics of an untraced run: ``setups`` and
    ``reads`` in seconds, ``ops`` operations (reads and updates)
    completed in ``elapsed`` seconds of the window."""
    result.e2e("setup_s", median(setups), "s", len(setups))
    result.e2e("read_p50_ms", median(reads) * 1e3, "ms", len(reads))
    result.e2e("read_p95_ms", percentile(reads, 95) * 1e3, "ms",
               len(reads))
    result.e2e("throughput_qps", ops / elapsed, "1/s", ops)
    result.e2e("error_rate", result.failed / result.attempted,
               "fraction", result.attempted)
    result.e2e("peak_rss_mb", rss_mb, "MiB", 1)


def hit_rates(result: RunResult, before: dict, after: dict) -> None:
    """``session.{plan,result}_cache.hit_rate`` over a window, from
    two snapshots shaped like ``Session.cache_stats()`` (or the
    server's ``/stats``)."""
    for cache in ("plan_cache", "result_cache"):
        hits = after[cache]["hits"] - before[cache]["hits"]
        misses = after[cache]["misses"] - before[cache]["misses"]
        result.layer(f"session.{cache}.hit_rate",
                     hits / max(1, hits + misses), "fraction",
                     hits + misses)


def path_shares(result: RunResult, paths: dict) -> None:
    """``session.path_share.*`` from read counts per path
    (``result_hit``, ``plan_hit``, ``cold``), as metrics and report
    lines."""
    reads = max(1, sum(paths.values()))
    for path, count in paths.items():
        result.layer(f"session.path_share.{path}", count / reads,
                     "fraction", reads)
        result.report.append(f"  session.path_share.{path} "
                             f"{count / reads:.3f}")
