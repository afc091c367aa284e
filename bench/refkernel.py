"""Reference kernel that turns raw wall time into normalized seconds.

Wall time on a shared host drifts by tens of percent between runs, and the
drift hits the kernel and the measured op alike. The kernel does a fixed
amount of the work qiglab spends its time on: small dense ``eigh`` /
``eigvalsh`` calls, pure-Python loops and unmarshalling of bytecode. It
imports nothing from qiglab, so no change to the program can move it.

An op that took ``wall`` seconds right after a kernel run of ``measured``
seconds is reported as ``wall * NOMINAL / measured`` normalized seconds,
i.e. the time the op would have taken on the host when the kernel took its
nominal duration.

Launches (fresh interpreters) spend most of their time importing numpy and
scipy, whose drift (file reads, unmarshalling, loading shared libraries) the
compute part does not track. They are normalized by a reference launch
instead: a fresh interpreter that imports ``numpy`` and ``scipy.optimize``,
which is the same kind of work as a launch with no qiglab in it.
"""

from __future__ import annotations

import marshal
import statistics
import subprocess
import sys
import time

import numpy as np

# Bound at import so that the tracer's patch of numpy.linalg never sees the
# kernel's own calls.
_EIGH = np.linalg.eigh
_EIGVALSH = np.linalg.eigvalsh

COMPUTE_ROUNDS = 6
LAUNCH_IMPORTS = "numpy, scipy.optimize"

# Nominal durations: medians measured on the reference host, an Intel Xeon
# with 2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31.
NOMINAL_COMPUTE_S = 0.0164
NOMINAL_LAUNCH_S = 0.52

_rng = np.random.default_rng(20021202)
_MATRICES = []
for _n in (2, 3, 4):
    for _ in range(20):
        _z = _rng.standard_normal((_n, _n)) + 1j * _rng.standard_normal((_n, _n))
        _MATRICES.append(_z + _z.conj().T)
_CODE = marshal.dumps(
    compile(
        "\n".join(f"def f{i}(x, y=1):\n    return [x + y * k for k in range({i})]" for i in range(60)),
        "<refkernel>",
        "exec",
    )
)


def _round() -> float:
    acc = 0.0
    for m in _MATRICES:
        w, v = _EIGH(m)
        x = (v * w) @ v.conj().T
        acc += float(_EIGVALSH(m)[0]) + float(np.abs(x - m).max()) + float(np.trace(x).real)
    table = {}
    for i in range(300):
        table[i % 17] = table.get(i % 17, 0.0) + i * 0.5
    marshal.loads(_CODE)
    return acc + table[3]


def compute_seconds() -> float:
    """Duration of the compute part: rounds x the median round.

    The median makes one preempted round count as a typical one.
    """
    times = []
    for _ in range(COMPUTE_ROUNDS):
        t0 = time.perf_counter()
        _round()
        times.append(time.perf_counter() - t0)
    return COMPUTE_ROUNDS * statistics.median(times)


def time_to_import(modules: str, env: dict, cwd: str, flags=()) -> tuple:
    """One fresh interpreter: (seconds from start until ``import modules``
    returns, its stderr).

    The child reports the monotonic clock after the import; the parent reads
    the same system-wide clock just before the start.
    """
    code = f"import time, {modules}; print(time.monotonic_ns())"
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )
    t1 = time.monotonic_ns()
    ready = int(proc.stdout.strip())
    if not t0 < ready <= t1:
        raise RuntimeError("child clock is not comparable with the parent's")
    return (ready - t0) * 1e-9, proc.stderr


def launch_seconds(env: dict, cwd: str) -> float:
    """Duration of the reference launch: start until numpy and scipy.optimize are imported."""
    return time_to_import(LAUNCH_IMPORTS, env, cwd)[0]


class Normalizer:
    """Measures the kernel just before each op and scales the op's wall time.

    The host switches speed within seconds (one run's kernel durations span
    up to 2x), so each op is divided by the one kernel run just before it: a
    median over older runs lags behind a switch. In process the kernel is
    the compute part; a launch is divided by a reference launch, which lasts
    about as long as the launch. ``raw_*`` keep every duration.
    """

    def __init__(self, env: dict, cwd: str):
        self.env = env
        self.cwd = cwd
        self.raw_compute = []
        self.raw_launch = []

    def in_process_factor(self) -> float:
        self.raw_compute.append(compute_seconds())
        return NOMINAL_COMPUTE_S / self.raw_compute[-1]

    def launch_factor(self) -> float:
        self.raw_launch.append(launch_seconds(self.env, self.cwd))
        return NOMINAL_LAUNCH_S / self.raw_launch[-1]
