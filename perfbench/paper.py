"""The ``paper_kernels`` workload: the five kernels of the paper's §6.1
(Fig. 14) plus the multi-state GEMM chain, in process and single
threaded.

Each kernel is built from ``repro.workloads.kernels``, optimized with
``auto_optimize`` and compiled once with ``cache="off"``.  The kernels
are then called round-robin, one call of each per round: a blocked
per-kernel order drifted between runs, round-robin did not.  Sizes keep
every generated entry at a millisecond or more, so the call wrapper
stays a small share.  Input copies and output checks happen outside the
timed calls.

Run as ``python3 -m perfbench.paper --setup-probe SEED`` (from the
checkout root, with ``src`` and the root on ``PYTHONPATH``) it performs
one set-up in a fresh interpreter and prints its duration.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from perfbench.common import (
    ROOT,
    SRC,
    Deadline,
    cpu_ticks,
    matches,
    median,
    metric,
    percentile,
    self_peak_rss_mb,
    steal_frac,
)

MATMUL_N = 256
JACOBI_N, JACOBI_T = 256, 10
HIST_N, HIST_BINS = 512, 256
QUERY_N = 1 << 16
SPMV_ROWS, SPMV_NNZ = 8192, 16
CHAIN_N, CHAIN_LINKS = 64, 8
SETUP_REPEATS = 3


class Kernel:
    """One compiled kernel with fixed inputs and its expected output."""

    def __init__(self, name: str, compiled: Any, data: Dict[str, Any],
                 check: Callable[[Dict[str, Any]], bool], flops: float):
        self.name, self.compiled, self.data, self.check = name, compiled, data, check
        self.flops = flops
        self.nbytes = sum(v.nbytes for v in data.values() if isinstance(v, np.ndarray))

    def args(self) -> Dict[str, Any]:
        return {k: v.copy() if isinstance(v, np.ndarray) else v
                for k, v in self.data.items()}


def output_check(expected: np.ndarray, name: str) -> Callable[[Dict[str, Any]], bool]:
    return lambda args: matches(args[name], expected)


def _inputs(name: str, seed: int):
    """(data, check, flops) of one kernel; references are NumPy only.
    Operation counts are analytic: multiply-adds count two."""
    from repro.workloads import kernels as K

    if name == "matmul":
        data = K.matmul_data(MATMUL_N, seed)
        return data, output_check(K.matmul_reference(data), "C"), 2.0 * MATMUL_N ** 3
    if name == "jacobi2d":
        data = dict(K.jacobi2d_data(JACOBI_N, seed), T=JACOBI_T)
        ref = K.jacobi2d_reference(data["A"], JACOBI_T)
        return data, output_check(ref, "A"), 5.0 * JACOBI_T * (JACOBI_N - 2) ** 2
    if name == "histogram":
        data = K.histogram_data(HIST_N, HIST_N, HIST_BINS, seed)
        ref = K.histogram_reference(data["img"], HIST_BINS)
        return data, output_check(ref, "hist"), 2.0 * HIST_N * HIST_N
    if name == "query":
        data = K.query_data(QUERY_N, seed)
        ref = K.query_reference(data["col"], data["threshold"])

        def check(args):
            n = int(args["size"][0])
            return n == ref.size and bool(np.array_equal(args["out"][:n], ref))
        return data, check, float(QUERY_N)
    if name == "spmv":
        data, _ = K.spmv_data(SPMV_ROWS, SPMV_NNZ, seed)
        # float32 accumulated row by row in index order, as a CSR loop does.
        ref = np.zeros(SPMV_ROWS, np.float32)
        rows = np.repeat(np.arange(SPMV_ROWS), np.diff(data["A_row"].astype(np.int64)))
        np.add.at(ref, rows, data["A_val"] * data["x"][data["A_col"]])
        return data, output_check(ref, "b"), 2.0 * data["A_val"].size
    data = K.gemm_chain_data(CHAIN_N, seed)
    ref = K.gemm_chain_reference(data, CHAIN_LINKS)
    return data, output_check(ref, "C"), 3.0 * CHAIN_LINKS * CHAIN_N ** 3


def _sdfg(name: str):
    from repro.workloads import kernels as K

    if name == "gemm_chain":
        return K.gemm_chain_sdfg(CHAIN_LINKS)
    return getattr(K, f"{name}_sdfg")()


def set_up(seed: int, tracer=None):
    """Build, optimize, compile and verify once every kernel.  Returns
    the kernels and the number of transformations applied."""
    from repro.codegen import compiler
    from repro.transformations import auto

    from perfbench.layers import PAPER_KERNELS

    suite, applied = [], 0
    for i, name in enumerate(PAPER_KERNELS):
        if tracer is not None:
            tracer.set_request(("setup", name))
        sdfg = _sdfg(name)
        applied += auto.auto_optimize(sdfg)
        compiled = compiler.compile_sdfg(sdfg, cache="off")
        data, check, flops = _inputs(name, (seed * 7919 + i) % 2 ** 32)
        kernel = Kernel(name, compiled, data, check, flops)
        args = kernel.args()
        compiled(**args)
        if not check(args):
            raise RuntimeError(f"{name}: first call disagrees with its reference")
        suite.append(kernel)
    if tracer is not None:
        tracer.set_request(None)
    return suite, applied


class Rounds:
    def __init__(self) -> None:
        self.round_s: List[float] = []
        self.by_kernel: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.elapsed = 0.0
        self.steal = 0.0


def run_rounds(suite: List[Kernel], seconds: float,
               rounds: Optional[int] = None, tracer=None) -> Rounds:
    """Call every kernel once per round until ``seconds`` pass (or for
    exactly ``rounds`` rounds).  A round fails if any output is wrong."""
    out = Rounds()
    deadline = Deadline(seconds)
    ticks = cpu_ticks()
    start = perf_counter()
    while not (deadline.passed() if rounds is None else out.attempted >= rounds):
        total, ok = 0.0, True
        for kernel in suite:
            args = kernel.args()
            if tracer is not None:
                tracer.set_request((out.attempted, kernel.name))
            t0 = perf_counter()
            try:
                kernel.compiled(**args)
                dt = perf_counter() - t0
                error = None if kernel.check(args) else "wrong output"
            except Exception as err:  # noqa: BLE001 - a failed call is counted, not fatal
                dt, error = perf_counter() - t0, repr(err)
            if error is not None:
                ok = False
                if len(out.errors) < 5:
                    out.errors.append(f"{kernel.name}: {error}"[:300])
            total += dt
            out.by_kernel.setdefault(kernel.name, []).append(dt)
        out.attempted += 1
        if ok:
            out.round_s.append(total)
        else:
            out.failed += 1
    if tracer is not None:
        tracer.set_request(None)
    out.elapsed = perf_counter() - start
    out.steal = steal_frac(ticks)
    return out


def _summary(r: Rounds) -> Dict[str, Any]:
    return {
        "rounds": r.attempted,
        "elapsed_s": round(r.elapsed, 3),
        "steal_frac": round(r.steal, 4),
        "errors": r.errors,
        "median_ms_by_kernel": {k: round(1e3 * median(v), 4)
                                for k, v in r.by_kernel.items()},
    }


def probe_setup(seed: int) -> float:
    """One set-up in a fresh interpreter (import included)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.paper", "--setup-probe", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_e2e(seed: int, seconds: float, rounds: Optional[int] = None):
    start = perf_counter()
    suite, _ = set_up(seed)
    setups = [perf_counter() - start]
    setups += [probe_setup(seed) for _ in range(SETUP_REPEATS - 1)]
    r = run_rounds(suite, seconds, rounds)
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "p50_ms": metric(1e3 * percentile(r.round_s, 50), "ms"),
        "p99_ms": metric(1e3 * percentile(r.round_s, 99), "ms"),
        "ops_per_s": metric(len(r.round_s) / r.elapsed, "1/s"),
        "peak_rss_mb": metric(self_peak_rss_mb(), "MB"),
    }
    info = dict(_summary(r), setup_samples_s=[round(s, 4) for s in setups])
    return r.attempted, r.failed, metrics, info


def run_traced(seed: int, seconds: float, rounds: Optional[int] = None):
    """Traced set-up, then untraced rounds (the baseline and the
    per-kernel times), then traced rounds."""
    from perfbench import layers
    from perfbench.tracing import Tracer, install

    tracer = Tracer()
    install(tracer, layers.entry_kernel)
    try:
        suite, applied = set_up(seed, tracer)
    finally:
        tracer.uninstall()
    base = run_rounds(suite, 0.45 * seconds, rounds)
    install(tracer, layers.entry_kernel)
    try:
        traced = run_rounds(suite, 0.45 * seconds, rounds, tracer)
    finally:
        tracer.uninstall()

    table = layers.paper_layers(tracer, applied)
    for kernel in suite:
        sec = median(base.by_kernel[kernel.name])
        table[f"{kernel.name}_ms"] = 1e3 * sec
        table[f"kernel.{kernel.name}.gflop_s"] = kernel.flops / sec / 1e9
        table[f"kernel.{kernel.name}.gb_s"] = kernel.nbytes / sec / 1e9
    attempted = base.attempted + traced.attempted
    failed = base.failed + traced.failed
    table["fail_frac"] = failed / attempted if attempted else 1.0
    base_p50 = percentile(base.round_s, 50)
    table["trace.overhead_frac"] = (
        percentile(traced.round_s, 50) / base_p50 - 1.0 if base_p50 else 0.0)
    info = {"baseline": _summary(base), "traced": _summary(traced),
            "spans": len(tracer.spans)}
    return attempted, failed, table, info, tracer


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--setup-probe":
        t0 = perf_counter()
        set_up(int(sys.argv[2]))
        print(json.dumps({"setup_s": perf_counter() - t0}))
    else:
        raise SystemExit("usage: python3 -m perfbench.paper --setup-probe SEED")
