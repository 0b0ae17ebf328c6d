"""The per-layer metrics of the traced run, computed from spans.

Times are per-request p50 self times in ms, except ``compiler.compile_ms``,
``compiler.call_ms``, ``pool.request_ms``, ``pool.spawn_ms`` and
``socket.rtt_ms``, which are whole span durations.  Each is the median
over the requests in which its layer ran.  A layer that the workload
never reaches reads 0.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from perfbench.common import median
from perfbench.tracing import LayerTable, Tracer

#: Kernels whose generated entry is timed, and their SDFG names.
ENTRY_KERNELS = ("scale", "matmul", "jacobi2d", "histogram", "query", "spmv",
                 "gemm_chain")
_SDFG_NAMES = {"bench_scale": "scale", "mm": "matmul", "jacobi": "jacobi2d"}

PAPER_KERNELS = ("matmul", "jacobi2d", "histogram", "query", "spmv", "gemm_chain")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [("protocol.encode_ms", "ms"), ("protocol.decode_ms", "ms"),
     ("protocol.request_kb", "KB"), ("protocol.response_kb", "KB"),
     ("socket.rtt_ms", "ms"),
     ("admission.admit_ms", "ms"), ("admission.rejected", "count"),
     ("pool.wait_ms", "ms"), ("pool.request_ms", "ms"), ("pool.spawn_ms", "ms"),
     ("pool.recycled", "count"), ("pool.deaths", "count"), ("pool.replays", "count"),
     ("worker.handle_ms", "ms"), ("worker.runtime_ms", "ms"),
     ("worker.artifact_hit_ratio", "ratio"),
     ("serialize.from_json_ms", "ms"), ("serialize.hash_ms", "ms"),
     ("compiler.compile_ms", "ms"), ("validation.validate_ms", "ms"),
     ("propagation.propagate_ms", "ms"), ("codegen.generate_ms", "ms"),
     ("compiler.compile_self_ms", "ms"),
     ("progcache.lookup_ms", "ms"), ("progcache.store_ms", "ms"),
     ("progcache.hit_ratio", "ratio"), ("progcache.stores", "count"),
     ("compiler.call_ms", "ms"), ("compiler.wrapper_ms", "ms"),
     ("arguments.marshal_ms", "ms"), ("watchdog.retry_policy_ms", "ms"),
     ("instrumentation.check_ms", "ms")]
    + [(f"entry.{k}_ms", "ms") for k in ENTRY_KERNELS]
    + [("frontend.to_sdfg_ms", "ms"), ("transformations.optimize_ms", "ms"),
       ("transformations.applied", "count")]
    + [(f"{k}_ms", "ms") for k in PAPER_KERNELS]
    + [(f"kernel.{k}.{m}", unit) for k in PAPER_KERNELS
       for m, unit in (("gflop_s", "GFLOP/s"), ("gb_s", "GB/s"))]
    + [("fail_frac", "ratio"), ("trace.overhead_frac", "ratio")]
)


def entry_kernel(compiled: Any) -> str:
    name = compiled.sdfg.name
    return _SDFG_NAMES.get(name, name)


def _kb(message: Any) -> float:
    """Size of one wire message as the protocol frames it."""
    return (len(json.dumps(message, separators=(",", ":"), sort_keys=True)) + 1) / 1024.0


def compile_and_call_layers(lt: LayerTable) -> Dict[str, float]:
    out = {
        "compiler.compile_ms": lt.p50_ms("compiler.compile", total=True),
        "validation.validate_ms": lt.p50_ms("validation.validate"),
        "propagation.propagate_ms": lt.p50_ms("propagation.propagate"),
        "codegen.generate_ms": lt.p50_ms("codegen.generate"),
        "compiler.compile_self_ms": lt.p50_ms("compiler.compile"),
        "progcache.lookup_ms": lt.p50_ms("progcache.lookup"),
        "progcache.store_ms": lt.p50_ms("progcache.store"),
        "compiler.call_ms": lt.p50_ms("compiler.call", total=True),
        "compiler.wrapper_ms": lt.p50_ms("compiler.call"),
        "arguments.marshal_ms": lt.p50_ms("arguments.marshal"),
        "watchdog.retry_policy_ms": lt.p50_ms("watchdog.retry_policy"),
        "instrumentation.check_ms": lt.p50_ms("instrumentation.check"),
    }
    for k in ENTRY_KERNELS:
        out[f"entry.{k}_ms"] = lt.p50_ms("entry", kernel=k)
    return out


def serve_layers(tracer: Tracer, stats: Dict[str, Any],
                 responses: List[Dict[str, Any]], replay_root: str,
                 tenants: Iterable[str]) -> Dict[str, float]:
    from repro.codegen.progcache import namespaced_cache

    lt = LayerTable(tracer)
    pool = stats.get("pool") or {}
    executes = [r for r in responses if r.get("op") == "execute"]
    caches = [namespaced_cache(replay_root, t).stats() for t in tenants]
    hits = sum(c["hits"] for c in caches)
    lookups = hits + sum(c["misses"] for c in caches)
    out = {
        "protocol.encode_ms": lt.p50_ms("protocol.encode", "protocol.send"),
        "protocol.decode_ms": lt.p50_ms("protocol.recv", "protocol.decode"),
        "protocol.request_kb": median(_kb(m) for m in lt.attrs("protocol.send")),
        "protocol.response_kb": median(_kb(m) for m in lt.attrs("protocol.recv")),
        "socket.rtt_ms": lt.p50_ms("socket.ping", total=True),
        "admission.admit_ms": lt.p50_ms("admission.admit", "admission.complete"),
        "admission.rejected": (stats.get("requests") or {}).get("rejected", 0),
        "pool.wait_ms": lt.p50_ms("pool.submit"),
        "pool.request_ms": lt.p50_ms("pool.request", total=True),
        "pool.spawn_ms": lt.p50_ms("pool.spawn", total=True),
        "pool.recycled": pool.get("recycled", 0),
        "pool.deaths": pool.get("deaths", 0),
        "pool.replays": pool.get("replays", 0),
        "worker.handle_ms": lt.p50_ms("worker.handle"),
        "worker.runtime_ms": 1e3 * median(r["runtime"] for r in executes
                                          if "runtime" in r),
        "worker.artifact_hit_ratio": (
            sum(bool(r.get("warm")) for r in executes) / len(executes)
            if executes else 0.0),
        "serialize.from_json_ms": lt.p50_ms("serialize.from_json"),
        "serialize.hash_ms": lt.p50_ms("serialize.hash"),
        "progcache.hit_ratio": hits / lookups if lookups else 0.0,
        "progcache.stores": sum(c["stores"] for c in caches),
    }
    out.update(compile_and_call_layers(lt))
    return out


def paper_layers(tracer: Tracer, applied: int) -> Dict[str, float]:
    lt = LayerTable(tracer)
    out = {
        "frontend.to_sdfg_ms": lt.p50_ms("frontend.to_sdfg"),
        "transformations.optimize_ms": lt.p50_ms("transformations.optimize"),
        "transformations.applied": applied,
    }
    out.update(compile_and_call_layers(lt))
    return out


def complete(table: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, by name with its unit; layers the
    workload does not reach read 0."""
    return {name: {"value": float(table.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
