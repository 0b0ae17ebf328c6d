"""Hermetic run set-up, host record, statistics and result output.

Everything a run creates lives under ``<checkout>/.perfbench_tmp/`` and
is removed when the run ends; spans written by a traced run go to
``<checkout>/.perfbench_out/``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, Iterable, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: Relative tolerance of every floating-point output check.
RTOL = 1e-8


class RunDir:
    """Fresh per-run directory holding caches, crash bundles, sockets and
    temp files, so no host setting or earlier run leaks into a run."""

    def __init__(self, label: str):
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"{label}-", dir=TMP_ROOT)
        self._serial = 0
        self.tmp = self.subdir("tmp")
        self.crashes = self.subdir("crashes")

    def subdir(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def fresh(self, stem: str) -> str:
        """A new directory name under the run dir, unique per call."""
        self._serial += 1
        return self.subdir(f"{stem}{self._serial}")

    def socket_path(self) -> str:
        """A fresh Unix socket path, relative to the checkout so it stays
        under the kernel's 108-byte limit however deep the checkout is."""
        self._serial += 1
        path = os.path.relpath(os.path.join(self.path, f"s{self._serial}.sock"), ROOT)
        if len(path.encode()) > 100:
            raise RuntimeError(f"socket path too long: {path}")
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


def make_hermetic(label: str) -> RunDir:
    """Clear every ``REPRO_*`` knob, pin BLAS to one thread, pin temp and
    crash directories into a fresh run dir, and put the checkout's
    ``src`` first on the path.

    The environment built here is also what the daemon inherits, so the
    generator and the service see the same clean settings."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    os.chdir(ROOT)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # One BLAS thread, set before NumPy loads: the workloads are single
    # threaded, and OpenBLAS's idle threads otherwise spin on the second
    # core that the daemon, its workers or the host need.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[key] = "1"
    run = RunDir(label)
    os.environ["REPRO_CRASH_DIR"] = run.crashes
    os.environ["TMPDIR"] = run.tmp
    tempfile.tempdir = run.tmp
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return run


def host_record() -> Dict[str, Any]:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ------------------------------------------------------------- statistics
def percentile(samples: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    import numpy as np

    data = np.asarray(list(samples), dtype=np.float64)
    if data.size == 0:
        return 0.0
    return float(np.percentile(data, q))


def median(samples: Iterable[float]) -> float:
    return percentile(samples, 50)


def matches(out: Any, expected: Any) -> bool:
    """An output agrees with its NumPy reference: exactly for integer
    outputs, within ``RTOL`` relative tolerance otherwise."""
    import numpy as np

    if not isinstance(out, np.ndarray) or out.shape != expected.shape:
        return False
    if expected.dtype.kind in "iu":
        return bool(np.array_equal(out, expected))
    return bool(np.allclose(out, expected, rtol=RTOL, atol=0.0))


# ---------------------------------------------------------------- memory
def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(pid):
            out.append(int(entry))
    return out


def tree_peak_rss_kb(pid: int) -> int:
    """Sum of the peak resident sizes (``VmHWM``) of ``pid`` and every
    descendant alive now, read from ``/proc`` from outside."""
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        total += _status_kb(p, "VmHWM")
        stack.extend(children(p))
    return total


def cpu_ticks() -> Tuple[int, int]:
    """(all, stolen) CPU ticks so far, from ``/proc/stat``: steal is time
    the hypervisor gave this machine's CPUs to someone else."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def steal_frac(before: Tuple[int, int]) -> float:
    total, stolen = cpu_ticks()
    return (stolen - before[1]) / max(1, total - before[0])


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- output
def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def write_spans(workload: str, seed: int, spans: List[Dict[str, Any]]) -> str:
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(span, separators=(",", ":")))
            f.write("\n")
    return path


def emit(info: Dict[str, Any], attempted: int, failed: int,
         metrics: Dict[str, Dict[str, Any]]) -> None:
    """Print the run record, then the result object as the last line."""
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True))
    sys.stdout.flush()


class Deadline:
    """Wall-clock end of a measurement window."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def passed(self) -> bool:
        return time.monotonic() >= self.end
