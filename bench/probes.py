"""Fresh-interpreter probes: set-up time, CLI calls, import cost, bare start.

Every probe runs the interpreter that runs the benchmark, with only the
checkout's `src` on PYTHONPATH, and is timed from outside: as wall time from
spawn to exit, and for the set-up also as the CPU time the process used.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from common import HostSpeed, clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 120

# the set-up a library user pays: import everything, then one warm-up call
SETUP_CODE = (
    "import bsbound.cli\n"
    "from bsbound import optimizer\n"
    "optimizer.minimize_absorption(optimizer.MinimizeConfig(x_target=1.0))\n"
)
IMPORT_CODE = (
    "import sys\n"
    "before = len(sys.modules)\n"
    "import bsbound.cli\n"
    "print(len(sys.modules) - before)\n"
)


def _env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def timed(args: list[str], env: dict[str, str] | None = None
          ) -> tuple[float, subprocess.CompletedProcess]:
    """(wall seconds, completed process) of `python <args>`."""
    start = clock()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=env or _env(), timeout=TIMEOUT_S,
    )
    return clock() - start, proc


def cli(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """One `bsbound <args>` call as a fresh process."""
    return timed(["-m", "bsbound", *args])


def process_probe() -> float:
    """Wall seconds of `python -c pass`, the interpreter start floor."""
    return timed(["-c", "pass"])[0]


def process_speed() -> HostSpeed:
    """Speed of fresh-process start, scaled to a 60 ms bare interpreter."""
    return HostSpeed(process_probe, 60e-3)


class SetupProbes:
    """Fresh set-ups spread evenly over a workload's measured window.

    The workload calls `run_due()` between its operations, and a set-up runs
    whenever its slot has come: `count` slots, evenly spaced from the end of
    an untimed set-up that leaves the bytecode caches written.

    A set-up is timed by the CPU time (user + system) its process uses, and
    right after it a host probe, a fresh process that runs HOST_PROBE_CODE
    and no bsbound code, is timed the same way.  `setup_s` is the median of
    the set-up times, each scaled to a host on which the probe takes
    HOST_PROBE_S.  CPU time leaves out the time a neighbour takes the CPU
    away.  The probe imports modules as the set-up does, so it slows down
    with the set-up when the host runs slower per instruction.  Both run
    with one BLAS thread (OMP_NUM_THREADS=1), so that idle BLAS workers do
    not spin and add CPU time that depends on the host's load.  The median
    unscaled wall time of the set-ups is reported too.
    """

    ENV = _env(OMP_NUM_THREADS="1")
    HOST_PROBE_CODE = "import numpy, json, decimal, email.mime.multipart, http.client"
    HOST_PROBE_S = 0.25

    def __init__(self, count: int, seconds: float) -> None:
        _cpu_timed(SETUP_CODE, self.ENV)
        self.scaled: list[float] = []
        self.wall: list[float] = []
        start = clock()
        self.due = [start + seconds * k / count for k in range(count)]

    def _run_one(self) -> None:
        cpu, wall = _cpu_timed(SETUP_CODE, self.ENV)
        probe, _ = _cpu_timed(self.HOST_PROBE_CODE, self.ENV)
        self.scaled.append(cpu * self.HOST_PROBE_S / probe)
        self.wall.append(wall)

    def run_due(self) -> None:
        """Run the set-up whose slot has come, if any."""
        if self.due and clock() >= self.due[0]:
            self.due.pop(0)
            self._run_one()

    def finish(self) -> tuple[float, float]:
        """Run the slots still open; (scaled CPU, wall) median set-up seconds."""
        while self.due:
            self.due.pop(0)
            self._run_one()
        return statistics.median(self.scaled), statistics.median(self.wall)


def _cpu_timed(code: str, env: dict[str, str]) -> tuple[float, float]:
    """(CPU seconds, wall seconds) of `python -c <code>`, which must succeed."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall, proc = timed(["-c", code], env)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr}")
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime, wall


def _outermost_cumulative(stderr: str, name: str) -> float:
    """Seconds of `-X importtime` cumulative time for `name` and its
    submodules, counting only entries not nested in another such entry."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        depth = (len(module) - len(module.lstrip())) // 2
        entries.append((depth, int(cumulative), module.strip()))
    # importtime prints children before their parent; walk parents first
    total = 0
    inside: list[int] = []  # depths of the open matching ancestors
    for depth, cumulative, module in reversed(entries):
        while inside and inside[-1] >= depth:
            inside.pop()
        if module == name or module.startswith(name + "."):
            if not inside:
                total += cumulative
            inside.append(depth)
    return total / 1e6


def import_breakdown(repeats: int) -> dict[str, float]:
    """Median import costs of `import bsbound.cli` and its module count."""
    runs = []
    for _ in range(repeats):
        _, proc = timed(["-X", "importtime", "-c", IMPORT_CODE])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        runs.append({
            "import.bsbound_s": _outermost_cumulative(proc.stderr, "bsbound"),
            "import.scipy_s": _outermost_cumulative(proc.stderr, "scipy"),
            "import.numpy_s": _outermost_cumulative(proc.stderr, "numpy"),
            "import.modules": int(proc.stdout),
        })
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def bare_seconds(repeats: int) -> float:
    """Median wall time of `python -c pass`, the interpreter floor."""
    return statistics.median(process_probe() for _ in range(repeats))
