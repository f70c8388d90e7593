"""Shared pieces of the benchmark: program import, inputs, statistics,
the result record and the environment block.

Nothing here times the program; the workload modules do that.  The
rules that keep the figures steady live here so every workload follows
them the same way:

* a timing is reported as its median and its *tail*, the highest
  percentile with at least :data:`TAIL_BEYOND` samples beyond it
  (nearest-rank), and only when that percentile lies above the median.
  The tail is printed but kept out of the result line: it is one order
  statistic with ten samples beyond it, so on a shared machine it
  follows the few slowest stretches of a run rather than the program;
* every failed, refused or wrong operation counts into ``failed``
  against ``attempted``;
* a timing in the result line is given at a fixed reference host
  speed (see :class:`HostSpeed`); the wall-clock figure is printed
  beside it.
"""

from __future__ import annotations

import asyncio
import gc
import importlib.metadata
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space the benchmark may write to (stores, span files).
WORK = ROOT / ".perfbench"
#: This process's own scratch directory, removed when the run ends.
SCRATCH = WORK / f"tmp-{os.getpid()}"

#: Hash seed of every sketch and partition.  It is deployment
#: configuration, not workload input: ``--seed`` varies the update
#: streams, query mixes and windows.  Varying the hash functions too
#: would move per-level occupancy, and with it the cost of every
#: operation, from run to run of the same workload.
SKETCH_SEED = 2012

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TAIL_BEYOND = 10

#: Milliseconds one :func:`reference_pass` takes in the faster periods
#: of a 2-vCPU x86-64 VM; timings are reported at this host speed.
REFERENCE_MS = 2.0
_REFERENCE_LOOPS = 30_000


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def import_program() -> Any:
    """Import ``repro`` from this checkout with the numpy kernels pinned.

    The numba backend is not part of what is measured: it is optional
    and not installed everywhere, so every run uses the reference
    kernels whatever the environment says.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program under {SRC}; nothing to measure")
    os.environ["REPRO_KERNELS"] = "numpy"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    from repro import kernels

    if kernels.use("numpy") != "numpy":  # pragma: no cover - numpy always exists
        raise RuntimeError("the numpy kernel backend is unavailable")
    return repro


# -- inputs --------------------------------------------------------------------


@dataclass
class Churn:
    """A stationary insert/delete edge stream as three int64 columns.

    The first ``live`` tokens insert distinct edges; after that the
    stream strictly alternates between deleting a random live edge and
    inserting a random absent one, so the graph size — and with it the
    cost of every query — stays the same however long a run lasts.
    """

    n: int
    lo: np.ndarray
    hi: np.ndarray
    delta: np.ndarray


def stationary_churn(n: int, live: int, count: int, rng: np.random.Generator) -> Churn:
    if live > n * (n - 1) // 4:
        raise ValueError(f"{live} live edges is too dense for n={n}")
    lo = np.empty(count, dtype=np.int64)
    hi = np.empty(count, dtype=np.int64)
    delta = np.empty(count, dtype=np.int64)
    edges: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()
    picks = rng.random(count)
    for i in range(count):
        if len(edges) >= live and (i - live) % 2 == 0:
            j = int(picks[i] * len(edges))
            edges[j], edges[-1] = edges[-1], edges[j]
            edge = edges.pop()
            present.discard(edge)
            d = -1
        else:
            while True:
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                edge = (min(u, v), max(u, v))
                if u != v and edge not in present:
                    break
            edges.append(edge)
            present.add(edge)
            d = 1
        lo[i], hi[i] = edge
        delta[i] = d
    return Churn(n, lo, hi, delta)


def replay_cycle(churn: Churn, start: int, size: int) -> "list[tuple[np.ndarray, ...]]":
    """``size``-update column slices of the churn after ``start``, then the
    same tokens backwards with negated deltas.

    Played in a loop this is an endless valid stream: the backward half
    returns the graph to its state at ``start``.
    """
    ahead = (churn.lo[start:], churn.hi[start:], churn.delta[start:])
    back = (ahead[0][::-1], ahead[1][::-1], -ahead[2][::-1])
    return [tuple(c[i:i + size] for c in part)
            for part in (ahead, back)
            for i in range(0, len(part[0]) - size + 1, size)]


# -- statistics ----------------------------------------------------------------


def tail_rank(count: int) -> "int | None":
    """1-based nearest rank of the tail, or ``None`` when there is none.

    The tail is the highest rank with at least :data:`TAIL_BEYOND`
    samples above it; it must lie strictly above the median's rank so
    the median is never reported twice.
    """
    rank = count - TAIL_BEYOND
    if rank <= math.ceil(count / 2):
        return None
    return rank


def tail_percentile(count: int) -> "float | None":
    rank = tail_rank(count)
    return None if rank is None else 100.0 * rank / count


def tail_value(values: "list[float]") -> "float | None":
    rank = tail_rank(len(values))
    return None if rank is None else sorted(values)[rank - 1]


# -- host speed ----------------------------------------------------------------


def reference_pass() -> float:
    """Seconds one pass of a fixed pure-Python loop takes right now.

    The loop shares no code with the program, so no change to the
    program can move it; only the speed of the host does.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(_REFERENCE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


@dataclass
class HostSpeed:
    """Reference-loop samples taken between a run's timed operations.

    A shared host runs the same code at speeds that differ by half or
    more, in stretches of tens of seconds to minutes: longer than a run,
    so no sampling inside a run averages them out, and a run's medians
    follow the host rather than the program.  The reference loop slows
    with the program's operations (their ratio moves by about a tenth
    where the raw times move by 1.5-1.8x), so a measured time times
    :meth:`factor` is the time at the reference speed.
    """

    samples: "list[float]" = field(default_factory=list)

    def sample(self, passes: int = 3) -> None:
        self.samples.extend(reference_pass() for _ in range(passes))

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    def factor(self) -> float:
        return REFERENCE_MS / self.median_ms()


# -- the result record ---------------------------------------------------------


@dataclass
class Report:
    """Metrics, operation counts and failures of one run."""

    workload: str
    metrics: "dict[str, dict[str, Any]]" = field(default_factory=dict)
    notes: "dict[str, str]" = field(default_factory=dict)
    #: Figures printed but kept out of the result line.
    extras: "dict[str, tuple[float, str, str]]" = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: "list[str]" = field(default_factory=list)
    #: Set by an untraced run; timings are then scaled to the reference
    #: host speed.  ``None`` reports wall-clock times as measured.
    host: "HostSpeed | None" = None

    def sample_host(self) -> None:
        """Time the reference loop now, if this run normalises."""
        if self.host is not None:
            self.host.sample()

    def _scaled(self, wall: float, unit: str) -> "tuple[float, str]":
        """A wall-clock figure at the reference speed, and a note with
        the figure as measured."""
        if self.host is None:
            return wall, ""
        return wall * self.host.factor(), f" (wall {wall:.6g} {unit})"

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        self.metrics[name] = {"value": value, "unit": unit}
        if note:
            self.notes[name] = note

    def info(self, name: str, value: float, unit: str, note: str = "") -> None:
        """A figure printed with the metrics but kept out of the result
        line, because it does not repeat from run to run (see
        ``peak_rss_mb`` in the run documentation)."""
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.extras[name] = (value, unit, note)

    def timings(self, prefix: str, seconds: "list[float]") -> None:
        """``<prefix>_p50_ms`` and, printed only, where the sample allows,
        ``<prefix>_tail_ms``."""
        if not seconds:
            raise ValueError(f"no {prefix} samples")
        ms = [s * 1e3 for s in seconds]
        value, wall = self._scaled(statistics.median(ms), "ms")
        self.add(f"{prefix}_p50_ms", value, "ms", f"n={len(ms)}{wall}")
        tail = tail_value(ms)
        if tail is not None:
            value, wall = self._scaled(tail, "ms")
            self.info(
                f"{prefix}_tail_ms", value, "ms",
                f"n={len(ms)} p{tail_percentile(len(ms)):.2f}{wall}",
            )

    def median_ms(self, name: str, seconds: "list[float]") -> None:
        """A timing reported by its median only (too few for a tail)."""
        if not seconds:
            raise ValueError(f"no {name} samples")
        value, wall = self._scaled(statistics.median(seconds) * 1e3, "ms")
        self.add(name, value, "ms", f"p50 n={len(seconds)}{wall}")

    def rate(self, name: str, count: float, seconds: float, note: str) -> None:
        """``count`` per second of ``seconds``, at the reference speed."""
        wall = count / seconds
        value = wall if self.host is None else wall / self.host.factor()
        self.add(name, value, "1/s",
                 note if self.host is None else f"{note} (wall {wall:.6g} 1/s)")

    def op(self, ok: bool, what: str) -> None:
        """Count one timed operation (a refusal or error is a failure)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check."""
        self.op(ok, f"check failed: {what}")

    def check_raised(self, what: str, err: Exception) -> None:
        """A check that could not even compare counts as failed."""
        self.check(False, f"{what} raised {type(err).__name__}: {err}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def result(self) -> "dict[str, Any]":
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }

    def lines(self) -> "list[str]":
        out = [f"workload {self.workload}"]
        for name, metric in self.metrics.items():
            note = self.notes.get(name, "")
            out.append(
                f"  {name:<44} {metric['value']:>16.6g} {metric['unit']:<6} {note}"
            )
        for name, (value, unit, note) in self.extras.items():
            out.append(
                f"  {name:<44} {value:>16.6g} {unit:<6} {note} (not in the result line)"
            )
        if self.host is not None:
            out.append(
                f"  {'host_speed':<44} {self.host.factor():>16.6g} {'ratio':<6} "
                f"reference loop {self.host.median_ms():.4g} ms (median of "
                f"{len(self.host.samples)}) vs {REFERENCE_MS} ms; times and rates "
                f"above are at the reference speed (not in the result line)"
            )
        rate = self.failed / self.attempted if self.attempted else 1.0
        out.append(
            f"  {'error_rate':<44} {rate:>16.6g} {'1':<6} "
            f"failed={self.failed} attempted={self.attempted}"
        )
        out.extend(f"  FAILURE {f}" for f in self.failures)
        return out


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def median_setup_async(build: "Callable[[], Awaitable[Any]]", repeats: int,
                             close: "Callable[[Any], Awaitable[None]]") -> "tuple[float, Any]":
    """Run a set-up ``repeats`` times; return the median seconds and the
    last set-up's product (the earlier ones are closed).

    This is the one set-up timing rule: collect garbage, time the whole
    set-up, keep the median.  :func:`median_setup` is its synchronous
    form.
    """
    times = []
    product = None
    for i in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        product = await build()
        times.append(time.perf_counter() - t0)
        if i < repeats - 1:
            await close(product)
    return statistics.median(times), product


def median_setup(build: "Callable[[], Any]", repeats: int,
                 close: "Callable[[Any], None]") -> "tuple[float, Any]":
    """:func:`median_setup_async` for a synchronous set-up."""

    async def build_async() -> Any:
        return build()

    async def close_async(product: Any) -> None:
        close(product)

    return asyncio.run(median_setup_async(build_async, repeats, close_async))


def per_run(seconds: float, per_second: float) -> int:
    """A fixed operation count for a run of ``seconds``.

    Phases run a count, never until a deadline, so the sample count —
    and with it the percentile a tail reports — is a property of the
    configuration, not of how fast the program happened to be.
    """
    return max(1, round(seconds * per_second))


def without_telemetry(payload: "dict[str, Any]") -> "dict[str, Any]":
    """A wire result minus the one field that legitimately differs
    (wall-clock seconds) between two copies of the same sketch."""
    return {k: v for k, v in payload.items() if k != "telemetry"}


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


# -- environment ---------------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment() -> "dict[str, Any]":
    """Experiment info recorded with every result."""
    from repro import kernels

    # Read scipy's version without importing it: the import would change
    # the allocator state, and with it the peak RSS being measured.
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "kernel_backend": kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }
