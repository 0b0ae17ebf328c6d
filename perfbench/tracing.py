"""Spans recorded by the benchmark's own wrappers around public functions.

A :class:`Tracer` patches a function or method so that each call records
one span: name, start, end, parent span (the innermost open span of the
same thread) and request id (set per thread by the load generator, or taken
from the request itself on the daemon side).  Spans stay in memory until
the run ends.  A layer's self time is its span's duration minus the part
of that interval its child spans cover.

:func:`install` holds the table of layer boundaries the benchmark
traces; untraced runs never call it.
"""

from __future__ import annotations

import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from perfbench.common import percentile

_ABSENT = object()

#: Span tuple fields.
SID, NAME, START, END, PARENT, RID, ATTR = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------ thread context
    def set_request(self, rid: Any) -> None:
        self._local.rid = rid

    def set_role(self, role: Optional[str]) -> None:
        self._local.role = role

    def timed(self, name: str, fn: Callable, role: Optional[str] = None,
              attr: Any = None,
              attr_of: Optional[Callable[[tuple, Any], Any]] = None) -> Callable:
        """``fn`` wrapped to record a span per call.  With ``role`` set,
        only threads that declared that role record (the embedded daemon
        shares the protocol module with the client threads)."""
        local, spans, ids = self._local, self.spans, self._ids

        def wrapper(*args, **kwargs):
            if role is not None and getattr(local, "role", None) != role:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                note = attr_of(args, result) if attr_of is not None else attr
                spans.append((sid, name, start, end, parent,
                              getattr(local, "rid", None), note))

        return wrapper

    # ------------------------------------------------------------ patching
    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        own = owner.__dict__.get(attr, _ABSENT)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, new)

    def patch(self, owner: Any, attr: str, name: str,
              adapt: Optional[Callable[[Callable], Callable]] = None,
              **opts: Any) -> None:
        """Time ``owner.attr``; ``adapt`` may first wrap the original."""
        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        new: Any = self.timed(name, adapt(fn) if adapt else fn, **opts)
        self._replace(owner, attr, staticmethod(new) if static else new)

    def tag_requests(self, owner: Any, attr: str,
                     rid_of: Callable[[tuple], Any]) -> None:
        """Make ``owner.attr`` set the calling thread's request id from
        its arguments (no span)."""
        fn = inspect.getattr_static(owner, attr)
        local = self._local

        def wrapper(*args, **kwargs):
            local.rid = rid_of(args)
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def trace_entries(self, cls: Any, kernel_of: Callable[[Any], str]) -> None:
        """Time every call of ``cls._entry`` (an instance attribute) by
        shadowing it with a data descriptor; instances built before or
        after installation are both covered."""
        tracer = self

        def get(obj):
            return tracer.timed("entry", obj.__dict__["_entry"],
                                attr=kernel_of(obj))

        def put(obj, value):
            obj.__dict__["_entry"] = value

        self._replace(cls, "_entry", property(get, put))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # ------------------------------------------------------------ analysis
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's
        intervals (clipped to the parent)."""
        by_id = {s[SID]: s for s in self.spans}
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            parent = by_id.get(s[PARENT])
            if parent is not None:
                children[s[PARENT]].append(
                    (max(s[START], parent[START]), min(s[END], parent[END]))
                )
        out = {}
        for sid, s in by_id.items():
            covered, cursor = 0.0, float("-inf")
            for lo, hi in sorted(children.get(sid, ())):
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[sid] = (s[END] - s[START]) - covered
        return out

    def records(self) -> List[Dict[str, Any]]:
        return [
            {"id": s[SID], "name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "request": _jsonable(s[RID]),
             "kernel": s[ATTR] if isinstance(s[ATTR], str) else None}
            for s in self.spans
        ]


def _jsonable(rid: Any) -> Any:
    return list(rid) if isinstance(rid, tuple) else rid


class LayerTable:
    """Per-request sums of span times, keyed by span name."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.self_time = tracer.self_times()

    def per_request(self, names: Iterable[str], total: bool = False,
                    kernel: Optional[str] = None) -> List[float]:
        """One value per request that has at least one span named in
        ``names``: the sum of their self times (durations if ``total``).
        Spans without a request id count as requests of their own."""
        names = set(names)
        sums: Dict[Any, float] = defaultdict(float)
        for s in self.spans:
            if s[NAME] not in names or (kernel is not None and s[ATTR] != kernel):
                continue
            value = s[END] - s[START] if total else self.self_time[s[SID]]
            key = s[RID] if s[RID] is not None else ("span", s[SID])
            sums[key] += value
        return list(sums.values())

    def p50_ms(self, *names: str, total: bool = False,
               kernel: Optional[str] = None) -> float:
        return 1e3 * percentile(self.per_request(names, total, kernel), 50)

    def attrs(self, name: str) -> List[Any]:
        return [s[ATTR] for s in self.spans if s[NAME] == name]


class _TimedReadline:
    """The part of a text stream ``recv_message`` uses, with ``readline``
    recorded as a ``socket.wait`` span."""

    def __init__(self, stream: Any, tracer: Tracer):
        self.readline = tracer.timed("socket.wait", stream.readline)


def install(tracer: Tracer, kernel_of: Callable[[Any], str]) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.codegen import compiler, progcache
    from repro.codegen.python_gen import PythonGenerator
    from repro.frontend.decorators import DaceProgram
    from repro.runtime import arguments
    from repro.runtime.watchdog import RetryPolicy
    from repro.sdfg import propagation, serialize, validation
    from repro.serve import admission, client, pool, protocol, worker
    from repro.transformations import auto

    t = tracer
    # Client side of the wire (only threads that declared role "client").
    t.patch(client.ServeClient, "execute", "client.execute", role="client")
    t.patch(protocol, "encode_arrays", "protocol.encode", role="client")
    t.patch(protocol, "send_message", "protocol.send", role="client",
            attr_of=lambda args, result: args[1])
    # recv_message blocks until the reply arrives: time the stream's
    # readline as a child span, so the recv self time is parsing only.
    t.patch(protocol, "recv_message", "protocol.recv", role="client",
            adapt=lambda recv: lambda stream: recv(_TimedReadline(stream, t)),
            attr_of=lambda args, result: dict(result or {}))
    t.patch(protocol, "decode_arrays", "protocol.decode", role="client")
    # Daemon side: handler threads learn the request id from the request.
    t.tag_requests(protocol, "validate_request",
                   lambda args: args[0].get("id") if isinstance(args[0], dict) else None)
    t.patch(admission.AdmissionController, "admit", "admission.admit")
    t.patch(admission.Ticket, "complete", "admission.complete")
    t.patch(pool.WorkerPool, "submit", "pool.submit")
    t.patch(pool.WorkerHandle, "request", "pool.request",
            attr_of=lambda args, result: args[1])
    t.patch(pool.WorkerHandle, "__init__", "pool.spawn")
    # Worker side (in process: the replay and the kernel suite).
    t.patch(worker.WorkerRuntime, "handle", "worker.handle")
    t.patch(serialize, "sdfg_from_json", "serialize.from_json")
    t.patch(serialize, "content_hash", "serialize.hash")
    t.patch(compiler, "compile_sdfg", "compiler.compile")
    t.patch(validation, "validate_sdfg", "validation.validate")
    t.patch(propagation, "propagate_memlets_sdfg", "propagation.propagate")
    t.patch(PythonGenerator, "generate", "codegen.generate")
    t.patch(progcache.ProgramCache, "lookup", "progcache.lookup")
    t.patch(progcache.ProgramCache, "store", "progcache.store")
    t.patch(compiler.CompiledSDFG, "__call__", "compiler.call")
    t.patch(arguments.MarshalingPlan, "apply", "arguments.marshal")
    t.patch(arguments, "split_arguments", "arguments.marshal")
    t.patch(RetryPolicy, "from_env", "watchdog.retry_policy")
    # compiler binds has_instrumentation at import; patch that binding.
    t.patch(compiler, "has_instrumentation", "instrumentation.check")
    t.trace_entries(compiler.CompiledSDFG, kernel_of)
    t.patch(DaceProgram, "to_sdfg", "frontend.to_sdfg")
    t.patch(auto, "auto_optimize", "transformations.optimize")
