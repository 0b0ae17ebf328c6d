"""Served workloads: ``serve_warm`` and ``serve_cold``.

The daemon runs as ``python -m repro.serve --workers 2 --cache-root
<fresh>`` in its own process and is reached through ``ServeClient``.
Connections from this process drive it in a closed loop: each waits
for its reply before sending the next request.  Every response is
checked against a NumPy reference built here, never by the compiler
under test.

The traced run (``--trace 1``) has three phases:

A. the untraced loop against a separate daemon, for the baseline p50;
B. the same loop against a daemon embedded in this process, with the
   benchmark's wrappers installed on the client, admission and pool;
C. the jobs the pool sent to its workers in phase B, replayed through an
   in-process ``WorkerRuntime.handle`` with the worker-side wrappers.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from perfbench.common import (
    ROOT,
    Deadline,
    RunDir,
    children,
    cpu_ticks,
    matches,
    median,
    metric,
    percentile,
    steal_frac,
    tree_peak_rss_kb,
)

TENANTS = ("alice", "bob")
#: Closed-loop connections per workload.  serve_warm uses one: its work
#: is spread over the generator, the daemon and a worker, and a second
#: connection puts four busy processes on two cores, where p50 measures
#: the scheduler.  serve_cold's work is almost all in the worker's
#: compile, and two connections keep both workers busy at the same
#: per-request latency, with twice the samples behind p99.
CONNECTIONS = {"serve_warm": 1, "serve_cold": 2}
WORKERS = 2
#: The pool's default: a worker is retired on its 200th request.
RECYCLE_AFTER = 200
SETUP_REPEATS = 3

#: serve_warm mix per block of 10 requests, from fastest to slowest
#: kernel.  scale and histogram are the fastest 30% and jacobi2d the next
#: 40%, so p50 is the middle of jacobi2d's latency mode; gemm_chain, the
#: slowest 30%, holds p99.  A p50 in the sparse gap between two modes
#: (as scale at 40% puts it) swings with the share of delayed requests.
#: Each connection sends shuffled blocks, so the seed changes the order
#: but never the proportions.
WARM_MIX = (("scale", 2), ("histogram", 1), ("jacobi2d", 4), ("gemm_chain", 3))
SCALE_N, SCALE_MULT = 1024, 1.5
GRID, HIST_BINS, JACOBI_T = 32, 32, 4
GEMM_N, GEMM_LINKS = 16, 8
COLD_N, COLD_LINKS = 16, 4

#: Requests ids of measured traffic start here; warm-up requests keep
#: the client's own small ids.
TRAFFIC_BASE = 1_000_000


def chain_reference(a: np.ndarray, b: np.ndarray, alphas) -> np.ndarray:
    out = a
    for alpha in alphas:
        out = alpha * (out @ b)
    return out


def cold_chain_sdfg(alphas):
    """A GEMM chain of the same shape as ``kernels.gemm_chain_sdfg``
    with caller-chosen per-link constants, so each one is a program the
    service has never seen."""
    from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes

    sdfg = SDFG("cold_chain")
    for name in ("A", "B", "C"):
        sdfg.add_array(name, ("N", "N"), dtypes.float64)
    prev_state, prev = None, "A"
    for k, alpha in enumerate(alphas):
        out = "C" if k == len(alphas) - 1 else f"T{k}"
        if out != "C":
            sdfg.add_transient(out, ("N", "N"), dtypes.float64)
        init = sdfg.add_state(f"init{k}", is_start=(k == 0))
        init.add_mapped_tasklet(
            "zero", {"i": "0:N", "j": "0:N"}, inputs={}, code="z = 0.0",
            outputs={"z": Memlet.simple(out, "i, j")},
        )
        comp = sdfg.add_state(f"mm{k}")
        comp.add_mapped_tasklet(
            "gemm", {"i": "0:N", "j": "0:N", "kk": "0:N"},
            inputs={"x": Memlet.simple(prev, "i, kk"),
                    "y": Memlet.simple("B", "kk, j")},
            code=f"o = {float(alpha)!r} * x * y",
            outputs={"o": Memlet(data=out, subset="i, j", wcr="sum")},
        )
        if prev_state is not None:
            sdfg.add_edge(prev_state, init, InterstateEdge())
        sdfg.add_edge(init, comp, InterstateEdge())
        prev_state, prev = comp, out
    return sdfg


class Request:
    __slots__ = ("kernel", "tenant", "sdfg", "arrays", "symbols", "output",
                 "expected")

    def __init__(self, kernel, tenant, sdfg, arrays, output, expected,
                 symbols=None):
        self.kernel, self.tenant, self.sdfg = kernel, tenant, sdfg
        self.arrays, self.symbols = arrays, symbols
        self.output, self.expected = output, expected

    def check(self, response: Dict[str, Any]) -> bool:
        if response.get("status") != "ok":
            return False
        return matches((response.get("arrays") or {}).get(self.output), self.expected)


class RequestStream:
    """Seeded requests of one connection.  The seed alone fixes the mix
    order, the tenant of each request, the array contents and the cold
    programs' constants.  ``wrong`` corrupts every expected value (the
    self-test's check that a mismatch counts as a failure)."""

    def __init__(self, workload: str, seed: int, lane: int, wrong: bool = False):
        from repro.serve.loadtest import scale_sdfg
        from repro.workloads import kernels

        self.workload = workload
        self.rng = np.random.default_rng([seed, lane])
        self.wrong = wrong
        self.kernels = kernels
        if workload == "serve_warm":
            self.programs = {
                "scale": scale_sdfg(SCALE_MULT, name="bench_scale"),
                "histogram": kernels.histogram_sdfg(),
                "jacobi2d": kernels.jacobi2d_sdfg(),
                "gemm_chain": kernels.gemm_chain_sdfg(GEMM_LINKS),
            }
            self.block = [k for k, n in WARM_MIX for _ in range(n)]
            self.pending: List[str] = []

    def tenant(self) -> str:
        return TENANTS[int(self.rng.integers(len(TENANTS)))]

    def next(self) -> Request:
        if self.workload == "serve_cold":
            return self.cold(self.tenant())
        if not self.pending:
            self.pending = list(self.rng.permutation(self.block))
        return self.warm(str(self.pending.pop()), self.tenant())

    def _finish(self, kernel, tenant, sdfg, arrays, output, expected,
                symbols=None) -> Request:
        if self.wrong:
            expected = expected + 1
        return Request(kernel, tenant, sdfg, arrays, output, expected, symbols)

    def warm(self, kernel: str, tenant: str) -> Request:
        rng, k, sdfg = self.rng, self.kernels, self.programs[kernel]
        if kernel == "scale":
            a = rng.random(SCALE_N)
            return self._finish(kernel, tenant, sdfg, {"A": a}, "A", a * SCALE_MULT)
        if kernel == "histogram":
            img = rng.random((GRID, GRID))
            arrays = {"img": img, "hist": np.zeros(HIST_BINS, np.int64)}
            return self._finish(kernel, tenant, sdfg, arrays, "hist",
                                k.histogram_reference(img, HIST_BINS))
        if kernel == "jacobi2d":
            a = np.zeros((2, GRID, GRID))
            a[0, 1:-1, 1:-1] = rng.random((GRID - 2, GRID - 2))
            return self._finish(kernel, tenant, sdfg, {"A": a}, "A",
                                k.jacobi2d_reference(a, JACOBI_T),
                                symbols={"T": JACOBI_T})
        data = {"A": rng.random((GEMM_N, GEMM_N)), "B": rng.random((GEMM_N, GEMM_N)),
                "C": np.zeros((GEMM_N, GEMM_N))}
        return self._finish(kernel, tenant, sdfg, data, "C",
                            k.gemm_chain_reference(data, GEMM_LINKS))

    def cold(self, tenant: str) -> Request:
        rng = self.rng
        alphas = rng.uniform(0.5, 1.5, COLD_LINKS)
        a, b = rng.random((COLD_N, COLD_N)), rng.random((COLD_N, COLD_N))
        arrays = {"A": a, "B": b, "C": np.zeros((COLD_N, COLD_N))}
        return self._finish("cold_chain", tenant, cold_chain_sdfg(alphas), arrays,
                            "C", chain_reference(a, b, alphas))


# ------------------------------------------------------------------ daemons
class Daemon:
    """``python -m repro.serve`` in its own process."""

    def __init__(self, run: RunDir):
        self.socket = run.socket_path()
        cache_root = run.fresh("cache")
        self.log = open(os.path.join(run.path, f"daemon-{os.path.basename(cache_root)}.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--socket", self.socket,
             "--workers", str(WORKERS), "--cache-root", cache_root],
            cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT,
            env=os.environ.copy(),
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def connect(self, tenant: str = TENANTS[0]):
        from repro.serve.client import ServeClient

        return ServeClient(socket_path=self.socket, tenant=tenant,
                           timeout=10.0, read_timeout=60.0)

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the first ``ping`` answers ok."""
        end = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                with self.connect() as client:
                    if client.ping().get("status") == "ok":
                        return
            except OSError:
                pass
            if time.monotonic() > end:
                raise RuntimeError("daemon did not answer ping in time")
            time.sleep(0.01)

    def stop(self) -> None:
        """Shut the daemon down and wait until it and its workers ended."""
        from repro.serve.client import ServeError

        workers = children(self.proc.pid)
        if self.proc.poll() is None:
            try:
                with self.connect() as client:
                    client.shutdown()
            except (OSError, ServeError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        _reap(workers)
        self.log.close()


class EmbeddedDaemon:
    """The same service run in this process (traced phase B), so the
    daemon-side wrappers see its admission and pool calls."""

    def __init__(self, run: RunDir):
        from repro.serve.daemon import SDFGServer, ServeConfig

        self.socket = run.socket_path()
        self.server = SDFGServer(ServeConfig(
            socket_path=self.socket, workers=WORKERS,
            cache_root=run.fresh("cache"),
        ))
        self.server.start()

    connect = Daemon.connect

    def stats(self) -> Dict[str, Any]:
        with self.connect() as client:
            return client.stats()

    def stop(self) -> None:
        workers = children(os.getpid())
        self.server.stop()
        _reap(workers)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[-1].split()[0] != "Z"
    except OSError:
        return False


def _reap(pids: List[int], timeout: float = 15.0) -> None:
    """Wait until the daemon's workers have exited; kill any still alive
    after ``timeout`` and wait for those too."""
    end = time.monotonic() + timeout
    killed = False
    while True:
        live = [pid for pid in pids if _alive(pid)]
        if not live:
            return
        if time.monotonic() > end and not killed:
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            killed = True
        time.sleep(0.02)


def warm_up(daemon, workload: str, seed: int) -> None:
    """Make every program of the working set resident on both workers
    (serve_warm) or compile a few never-seen programs (serve_cold).

    Requests go one at a time over one connection; the pool hands them
    to its idle workers in turn, so two rounds reach both workers."""
    stream = RequestStream(workload, seed, lane=100)
    if workload == "serve_warm":
        plan = [(kernel, tenant) for kernel, _ in WARM_MIX for tenant in TENANTS]
        requests = [stream.warm(k, t) for k, t in plan for _ in range(WORKERS)]
    else:
        requests = [stream.cold(t) for t in TENANTS for _ in range(WORKERS)]
    with daemon.connect() as client:
        for req in requests:
            response = client.execute(req.sdfg, arrays=req.arrays,
                                      symbols=req.symbols, tenant=req.tenant,
                                      strict=False)
            if not req.check(response):
                raise RuntimeError(
                    f"warm-up {req.kernel} for {req.tenant} failed: "
                    f"{response.get('status')} {response.get('code')} "
                    f"{response.get('message', '')}")


# ------------------------------------------------------------------ driving
class Tally:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: List[float] = []
        self.by_kernel: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.elapsed = 0.0
        self.steal = 0.0

    def record(self, req: Request, ok: bool, latency: float,
               error: Optional[str] = None) -> None:
        with self.lock:
            self.attempted += 1
            if ok:
                self.latencies.append(latency)
                self.by_kernel.setdefault(req.kernel, []).append(latency)
            else:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(error or f"{req.kernel}: wrong or failed")


def _drive(daemon, stream: RequestStream, stop: Callable[[int], bool],
           tally: Tally, ids, tracer=None) -> None:
    from repro.serve.client import ServeTimeout

    if tracer is not None:
        tracer.set_role("client")
    client = daemon.connect()
    try:
        sent = 0
        while not stop(sent):
            req = stream.next()
            rid = next(ids)
            if tracer is not None:
                tracer.set_request(rid)
            start = perf_counter()
            try:
                response = client.execute(req.sdfg, arrays=req.arrays,
                                          symbols=req.symbols, tenant=req.tenant,
                                          id=rid, strict=False)
                latency = perf_counter() - start
                ok = req.check(response)
                error = None if ok else (
                    f"{req.kernel}: {response.get('status')} "
                    f"{response.get('code')} {response.get('message', '')}"[:300])
            except Exception as err:  # noqa: BLE001 - a failed request is counted, not fatal
                latency, ok, error = perf_counter() - start, False, repr(err)[:300]
                if isinstance(err, (ServeTimeout, ConnectionError, OSError)):
                    client.close()
                    client = daemon.connect()
            tally.record(req, ok, latency, error)
            sent += 1
    finally:
        if tracer is not None:
            tracer.set_role(None)
        client.close()


def drive(daemon, workload: str, seed: int, seconds: float,
          per_connection: Optional[int] = None, tracer=None,
          wrong: bool = False, rss_pid: Optional[int] = None):
    """Closed loop over the workload's connections for ``seconds`` (or
    exactly ``per_connection`` requests each).  Returns the tally and the
    peak RSS (MB) of ``rss_pid``'s process tree, sampled every 0.5 s."""
    tally = Tally()
    ids = itertools.count(TRAFFIC_BASE)
    if per_connection is not None:
        stop = lambda sent: sent >= per_connection  # noqa: E731
    else:
        deadline = Deadline(seconds)
        stop = lambda sent: deadline.passed()  # noqa: E731
    streams = [RequestStream(workload, seed, lane, wrong) for lane in range(CONNECTIONS[workload])]
    threads = [
        threading.Thread(target=_drive, args=(daemon, s, stop, tally, ids, tracer),
                         name=f"perfbench-conn{i}", daemon=True)
        for i, s in enumerate(streams)
    ]
    peak_kb = 0
    ticks = cpu_ticks()
    start = perf_counter()
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        if rss_pid is not None:
            peak_kb = max(peak_kb, tree_peak_rss_kb(rss_pid))
        for t in threads:
            t.join(timeout=0.5)
    tally.elapsed = perf_counter() - start
    tally.steal = steal_frac(ticks)
    return tally, peak_kb / 1024.0


def _summary(tally: Tally) -> Dict[str, Any]:
    return {
        "requests": tally.attempted,
        "ok": len(tally.latencies),
        "elapsed_s": round(tally.elapsed, 3),
        "steal_frac": round(tally.steal, 4),
        "errors": tally.errors,
        "p50_ms_by_kernel": {k: round(1e3 * median(v), 4)
                             for k, v in sorted(tally.by_kernel.items())},
        "requests_by_kernel": {k: len(v) for k, v in sorted(tally.by_kernel.items())},
    }


# ---------------------------------------------------------------- e2e run
def run_e2e(workload: str, seed: int, seconds: float, run: RunDir,
            per_connection: Optional[int] = None):
    setups: List[float] = []
    daemon = None
    try:
        for rep in range(SETUP_REPEATS):
            start = perf_counter()
            daemon = Daemon(run)
            daemon.wait_ready()
            warm_up(daemon, workload, seed)
            setups.append(perf_counter() - start)
            if rep < SETUP_REPEATS - 1:
                daemon.stop()
                daemon = None
        tally, peak_mb = drive(daemon, workload, seed, seconds, per_connection,
                               rss_pid=daemon.pid)
    finally:
        if daemon is not None:
            daemon.stop()
    lat = tally.latencies
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "p50_ms": metric(1e3 * percentile(lat, 50), "ms"),
        "p99_ms": metric(1e3 * percentile(lat, 99), "ms"),
        "ops_per_s": metric(len(lat) / tally.elapsed, "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    info = dict(_summary(tally), setup_samples_s=[round(s, 4) for s in setups])
    return tally.attempted, tally.failed, metrics, info


# ------------------------------------------------------------- traced run
def replay(jobs: List[Dict[str, Any]], cache_root: str, tracer,
           deadline: Optional[Deadline]) -> List[Dict[str, Any]]:
    """Phase C: the pool's jobs through an in-process worker runtime,
    retired every ``RECYCLE_AFTER`` jobs as the pool retires workers.
    A telemetry sink is active, as in a live worker."""
    from repro.serve.worker import WorkerRuntime
    from repro.telemetry.sink import TelemetrySink, install_sink

    previous = install_sink(TelemetrySink())
    responses = []
    try:
        runtime = None
        for i, job in enumerate(jobs):
            if deadline is not None and deadline.passed():
                break
            if i % RECYCLE_AFTER == 0:
                runtime = WorkerRuntime(cache_root=cache_root)
            tracer.set_request(("replay", i))
            responses.append(runtime.handle(dict(job)))
    finally:
        tracer.set_request(None)
        install_sink(previous)
    return responses


def run_traced(workload: str, seed: int, seconds: float, run: RunDir,
               per_connection: Optional[int] = None):
    """Phases A-C (see the module docstring); returns the per-layer
    metrics of the served path."""
    from perfbench import layers
    from perfbench.tracing import ATTR, NAME, START, Tracer, install

    fixed = per_connection is not None
    # Phase A: untraced baseline against a separate daemon.
    daemon = Daemon(run)
    try:
        daemon.wait_ready()
        warm_up(daemon, workload, seed)
        base, _ = drive(daemon, workload, seed, 0.35 * seconds, per_connection)
    finally:
        daemon.stop()

    tracer = Tracer()
    install(tracer, layers.entry_kernel)
    try:
        # Phase B: embedded daemon, client and daemon-side wrappers.
        embedded = EmbeddedDaemon(run)
        try:
            warm_up(embedded, workload, seed)
            with embedded.connect() as client:
                ping = tracer.timed("socket.ping", client.ping)
                for _ in range(200):
                    ping()
            traced, _ = drive(embedded, workload, seed, 0.35 * seconds,
                              per_connection, tracer=tracer)
            stats = embedded.stats()
        finally:
            embedded.stop()
        # Phase C: replay the pool's jobs in process.
        jobs = [s[ATTR] for s in sorted(tracer.spans, key=lambda s: s[START])
                if s[NAME] == "pool.request"]
        replay_root = run.fresh("replay-cache")
        responses = replay(jobs, replay_root, tracer,
                           None if fixed else Deadline(0.3 * seconds))
    finally:
        tracer.uninstall()

    table = layers.serve_layers(tracer, stats, responses, replay_root, TENANTS)
    replay_failed = sum(1 for r in responses if r.get("status") != "ok")
    attempted = base.attempted + traced.attempted + len(responses)
    failed = base.failed + traced.failed + replay_failed
    table["fail_frac"] = failed / attempted if attempted else 1.0
    base_p50 = percentile(base.latencies, 50)
    table["trace.overhead_frac"] = (
        percentile(traced.latencies, 50) / base_p50 - 1.0 if base_p50 else 0.0)
    info = {"baseline": _summary(base), "traced": _summary(traced),
            "replayed_jobs": len(responses), "replay_failed": replay_failed,
            "pool_stats": stats.get("pool"), "spans": len(tracer.spans)}
    return attempted, failed, table, info, tracer
