"""Shared plumbing of the benchmark: paths, the metric contract, a
scratch area with process hygiene, resource counters and sample
summaries.

Everything the benchmark writes lands under ``bench/out/`` (ignored by
git): one ``tempfile.mkdtemp`` per run for stores, spools and generated
campaign files — removed on exit — plus the span files of traced runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = BENCH / "workloads"

#: Seconds before a workload is abandoned and its points counted as
#: failed; below the 180 s the driver allows one run.
HARD_TIMEOUT_S = 150.0


class WorkloadTimeout(Exception):
    """The workload overran :data:`HARD_TIMEOUT_S`."""


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad definition)."""


def require_program() -> None:
    """Put the program under test on ``sys.path`` or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"nothing to measure: {SRC / 'repro'} is missing (run from a "
            "checkout of the whole repository)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_contract() -> dict:
    """``BENCHMARK.json``: the one definition of workload and metric
    names, units, directions and regression bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_workload(name: str) -> dict:
    path = WORKLOADS / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"unknown workload {name!r}: {path} not found")
    return json.loads(path.read_text())


def child_env() -> dict:
    """Environment for ``python -m repro`` children."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def repro_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


# ----------------------------------------------------------------------
# Scratch area + process hygiene
# ----------------------------------------------------------------------

class Scratch:
    """One temp directory and every child process of one run.

    Children start in their own session so that :meth:`close` can take
    down a whole process group (``campaign run --workers 2`` forks
    per-point workers the harness never sees directly).
    """

    def __init__(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self._procs: list[subprocess.Popen] = []

    def path(self, *parts: str) -> Path:
        return self.root.joinpath(*parts)

    def spawn(self, cmd: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            cmd, env=child_env(), cwd=self.root, start_new_session=True,
            text=True, **kwargs,
        )
        self._procs.append(proc)
        return proc

    def run(self, cmd: list[str], timeout: float) -> tuple[int, str]:
        """Run to completion; ``(exit code, stdout)``, stderr dropped."""
        proc = self.spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop(proc)
            raise WorkloadTimeout(f"{' '.join(cmd[1:5])} ... exceeded {timeout:.0f}s")
        return proc.returncode, out

    def stop(self, proc: subprocess.Popen) -> None:
        """Terminate ``proc``'s whole group and reap it."""
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if proc.poll() is not None:
                break
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                continue
        proc.wait()
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()

    def close(self) -> None:
        for proc in self._procs:
            self.stop(proc)
        self._procs.clear()
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class deadline:
    """``with deadline(s):`` raises :class:`WorkloadTimeout` in the main
    thread after ``s`` seconds (SIGALRM), so a wedged phase becomes
    failed points instead of a hung benchmark."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def _fire(self, signum, frame):
        raise WorkloadTimeout(f"workload exceeded {self.seconds:.0f}s")

    def __enter__(self) -> "deadline":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def laps(seconds: float, single: bool):
    """Yield repeat indices while another whole repeat — judged by the
    longest so far — still fits into ``seconds``; at least one."""
    began = time.perf_counter()
    longest, index = 0.0, 0
    while True:
        lap = time.perf_counter()
        yield index
        index += 1
        longest = max(longest, time.perf_counter() - lap)
        if single or time.perf_counter() - began + longest > seconds:
            return


@dataclass
class Outcome:
    """What one run of one workload produced, before summarising."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, points: int, why: str) -> None:
        self.failed += points
        self.problems.append(why)


# ----------------------------------------------------------------------
# Resource counters
# ----------------------------------------------------------------------

def cpu_now() -> float:
    """User+system seconds of this process and its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def live_cpu(pid: int) -> float:
    """User+system seconds so far of a child not yet reaped (the
    coordinator outlives the timed body, so ``cpu_now`` misses it)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Largest resident set (MiB) of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def machine_stanza() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "recorded": time.strftime("%Y-%m-%d"),
    }


# ----------------------------------------------------------------------
# Samples and digests
# ----------------------------------------------------------------------

def summarize(samples: list[float]) -> dict:
    """Median with min, quartiles and sample count beside it; fewer
    than four samples have no quartiles worth the name."""
    values = [float(v) for v in samples]
    out = {"value": statistics.median(values), "n": len(values),
           "min": min(values), "samples": values}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def spread(summary: dict) -> float | None:
    """Inter-quartile distance as a share of the median (None when the
    sample is too small to have quartiles)."""
    if "q1" not in summary or not summary["value"]:
        return None
    return (summary["q3"] - summary["q1"]) / abs(summary["value"])


def stats_digest(parts: list[str]) -> str:
    """sha256 over an ordered list of canonical strings
    (``LoadPoint.to_json()``, ``sim.state_digest()``)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()
