"""Per-layer attribution for the traced run.

The traced run wraps each layer's public entry points in spans kept by
this module (the program itself is not changed).  A span records its
name, start, duration and parent; a layer's *self* time is its
duration minus the part its child spans cover.  Spans nest per thread,
so the in-process daemon's event loop and evaluation threads keep
separate stacks.  A span whose name is already open on the same thread
(recursion, or a wrapped entry point calling another one of the same
layer) counts only once.

Everything is recorded under a phase: ``setup`` (imports, inputs,
builds, warm-up), ``timed``, ``check`` (the benchmark checking answers,
never reported) and ``after`` (closing down, never reported).  Compiles, index builds and kernel-tier fallbacks are
reported over set-up and timed phase, because their work belongs to
set-up; every other figure covers the timed phase only.  Wrapping
happens only in the traced run: untimed runs never import this module.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Span records kept for the trace file; totals are always complete.
MAX_SPAN_RECORDS = 20_000

#: Program counters (``Tracer.add`` names) read as per-layer counts.
COUNTERS = {
    "fsa.v1_configurations": "simulate.kernel_configurations",
    "fsa.kernel_fallbacks": "kernel.fallback",
    "storage.rows_pruned": "index.pruned",
    "delta.branches_recomputed": "delta.materialize.branch_recomputed",
    "delta.branches_semi_naive": "delta.materialize.branch_semi_naive",
}

#: Work that belongs to set-up (compiles, index builds, and the kernel
#: tier chosen when a machine's kernel is built): summed over both
#: phases.  Everything else covers the timed phase only.
WHOLE_RUN = {"fsa.compile", "storage.index_build", "fsa.kernel_fallbacks"}


class Recorder:
    """Span totals per (phase, name), kept from wrapped entry points."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.self_seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        #: Seconds per (phase, innermost open wrapped span, name).
        self.by_parent: dict[tuple[str, str, str], float] = defaultdict(float)
        self.tallies: dict[tuple[str, str], int] = defaultdict(int)
        self.records: list[tuple] = []
        # Re-entrant: the GC callback may fire while this thread holds it.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started: float | None = None
        self._epoch = perf_counter()

    @contextlib.contextmanager
    def untimed(self):
        """Record under the unreported ``check`` phase while inside."""
        phase, self.phase = self.phase, "check"
        try:
            yield
        finally:
            self.phase = phase

    # -- spans --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str):
        stack = self._stack()
        nested = any(frame[0] == name for frame in stack)
        frame = [name, perf_counter(), 0.0, nested]
        stack.append(frame)
        return frame

    def leave(self, frame) -> None:
        ended = perf_counter()
        stack = self._stack()
        stack.pop()
        name, started, child, nested = frame
        duration = ended - started
        if stack:
            stack[-1][2] += duration
        if nested:
            return
        key = (self.phase, name)
        parent = stack[-1][0] if stack else None
        with self._lock:
            self.seconds[key] += duration
            self.self_seconds[key] += duration - child
            self.calls[key] += 1
            self.by_parent[(self.phase, parent or "-", name)] += duration
            if len(self.records) < MAX_SPAN_RECORDS:
                self.records.append(
                    (
                        name,
                        round(started - self._epoch, 6),
                        round(duration, 6),
                        parent,
                        threading.get_ident(),
                    )
                )

    def tally(self, name: str, value: int) -> None:
        with self._lock:
            self.tallies[(self.phase, name)] += value

    # -- wrapping -----------------------------------------------------

    def wrap(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``on_result(args, result)`` may tally counts from the call.
        Class-, static- and async methods keep their kind.
        """
        raw = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind else raw
        recorder = self

        if asyncio.iscoroutinefunction(function):
            # Awaits interleave on the loop thread, so these spans time
            # the wait without joining the per-thread stack.
            async def wrapper(*args, **kwargs):
                started = perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    duration = perf_counter() - started
                    with recorder._lock:
                        key = (recorder.phase, name)
                        recorder.seconds[key] += duration
                        recorder.self_seconds[key] += duration
                        recorder.calls[key] += 1

        else:

            def wrapper(*args, **kwargs):
                frame = recorder.enter(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    recorder.leave(frame)
                if on_result is not None and not frame[3]:
                    on_result(args, result)
                return result

        wrapper.__wrapped__ = function
        setattr(owner, attribute, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attribute, raw))

    def start_gc_clock(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            with self._lock:
                self.seconds[(self.phase, "python.gc")] += (
                    perf_counter() - self._gc_started
                )
            self._gc_started = None

    def restore(self) -> None:
        """Undo every wrapper (last first) and stop the GC clock."""
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reading ------------------------------------------------------

    def total(self, name: str) -> float:
        if name in WHOLE_RUN:
            return self.seconds[("setup", name)] + self.seconds[("timed", name)]
        return self.seconds[("timed", name)]

    def count(self, name: str) -> int:
        if name in WHOLE_RUN:
            return self.calls[("setup", name)] + self.calls[("timed", name)]
        return self.calls[("timed", name)]

    def tallied(self, name: str) -> int:
        return self.tallies[("timed", name)]

    def self_total(self, name: str) -> float:
        return self.self_seconds[("timed", name)]


def _verdicts(prefix: str, recorder: Recorder):
    def on_batch(args, result) -> None:
        recorder.tally(f"{prefix}.verdicts", len(result))
        recorder.tally(f"{prefix}.accepted", sum(1 for held in result if held))

    def on_single(args, result) -> None:
        recorder.tally(f"{prefix}.verdicts", 1)
        recorder.tally(f"{prefix}.accepted", 1 if result else 0)

    return on_batch, on_single


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.core.parser as parser
    import repro.fsa.compile as fsa_compile
    import repro.fsa.generate as generate
    import repro.ir.execute as ir_execute
    import repro.service.server as server
    from repro.core.database import Database
    from repro.delta.materialize import MaterializedStore
    from repro.engine import QueryEngine
    from repro.fsa.determinize import DeterministicKernel
    from repro.fsa.kernel import CompiledKernel
    from repro.service.admission import AdmissionController
    from repro.service.pool import SessionPool
    from repro.storage import InMemoryStorage, NGramIndexStorage

    wrap = recorder.wrap
    wrap(parser, "parse_formula", "core.parse")
    wrap(server, "parse_formula", "core.parse")
    wrap(Database, "apply", "core.db_apply")
    wrap(QueryEngine, "invalidate_relations", "engine.invalidate")
    wrap(QueryEngine, "certified_length", "safety.certified_length")
    wrap(QueryEngine, "query_plan", "ir.plan")
    wrap(ir_execute, "execute_branch", "ir.execute")
    wrap(fsa_compile, "build_string_formula", "fsa.compile")
    wrap(generate, "accepted_tuples", "fsa.generate")
    for prefix, kernel in (("v1", CompiledKernel), ("v2", DeterministicKernel)):
        on_batch, on_single = _verdicts(prefix, recorder)
        wrap(kernel, "accepts", f"fsa.kernel_{prefix}", on_single)
        wrap(kernel, "accepts_batch", f"fsa.kernel_{prefix}", on_batch)
    wrap(NGramIndexStorage, "build", "storage.index_build")
    wrap(NGramIndexStorage, "candidates", "storage.candidates")
    wrap(
        NGramIndexStorage,
        "rows_for",
        "storage.rows_for",
        lambda args, result: recorder.tally(
            "storage.candidate_rows", len(args[1])
        ),
    )
    for storage in (NGramIndexStorage, InMemoryStorage):
        wrap(storage, "stats", "storage.stats")
        wrap(storage, "apply_delta", "storage.apply_delta")
    wrap(MaterializedStore, "maintain", "delta.maintain")
    wrap(SessionPool, "acquire", "service.slot_wait")
    wrap(SessionPool, "acquire_all", "service.lease_wait")
    for method in ("assess", "assess_queue", "assess_cost", "estimate"):
        wrap(AdmissionController, method, "service.admission")
    for function in ("encode_frame", "decode_frame", "rows_to_wire"):
        wrap(server, function, "service.codec")
    recorder.start_gc_clock()


def cache_totals(session) -> tuple[int, int]:
    """Summed (hits, misses) over the session's caches."""
    caches = session.stats.snapshot().get("caches", {})
    hits = sum(int(entry.get("hits", 0)) for entry in caches.values())
    misses = sum(int(entry.get("misses", 0)) for entry in caches.values())
    return hits, misses


def per_layer_metrics(
    recorder: Recorder,
    counters: dict,
    caches: tuple[int, int],
    service_samples: tuple[list, list],
    ops_per_s: float,
) -> dict:
    """Every per-layer metric, from spans, counters and cache deltas.

    ``counters`` holds the program's own counters over the timed phase
    and over the whole run; ``caches`` its cache totals over the timed
    phase; ``service_samples`` holds each query
    reply's server ``elapsed`` and client-minus-server time, in seconds.
    """
    v1_verdicts = recorder.tallied("v1.verdicts")
    v2_verdicts = recorder.tallied("v2.verdicts")
    verdicts = v1_verdicts + v2_verdicts
    accepted = recorder.tallied("v1.accepted") + recorder.tallied("v2.accepted")
    candidate_rows = recorder.tallied("storage.candidate_rows")
    server, overhead = service_samples
    values = {
        "core.parse_s": recorder.total("core.parse"),
        "core.db_apply_s": recorder.total("core.db_apply"),
        "engine.invalidate_s": recorder.total("engine.invalidate"),
        "engine.cache_hits": caches[0],
        "engine.cache_misses": caches[1],
        "safety.certified_length_s": recorder.total("safety.certified_length"),
        "ir.plan_s": recorder.total("ir.plan"),
        "ir.execute_self_s": recorder.self_total("ir.execute"),
        "ir.filter_tuples": verdicts,
        "ir.filter_yield": accepted / verdicts if verdicts else 0.0,
        "fsa.compile_s": recorder.total("fsa.compile"),
        "fsa.compile_calls": recorder.count("fsa.compile"),
        "fsa.kernel_v1_s": recorder.total("fsa.kernel_v1"),
        "fsa.kernel_v1_verdicts": v1_verdicts,
        "fsa.generate_s": recorder.total("fsa.generate"),
        "fsa.kernel_v2_s": recorder.total("fsa.kernel_v2"),
        "fsa.kernel_v2_verdicts": v2_verdicts,
        "storage.index_build_s": recorder.total("storage.index_build"),
        "storage.candidates_s": recorder.total("storage.candidates"),
        "storage.candidates_calls": recorder.count("storage.candidates"),
        "storage.candidate_yield": (
            recorder.tallied("v2.accepted") / candidate_rows
            if candidate_rows
            else 0.0
        ),
        "storage.stats_s": recorder.total("storage.stats"),
        "storage.apply_delta_s": recorder.total("storage.apply_delta"),
        "delta.maintain_s": recorder.total("delta.maintain"),
        "service.server_ms": statistics.median(server) * 1e3 if server else 0.0,
        "service.overhead_ms": (
            statistics.median(overhead) * 1e3 if overhead else 0.0
        ),
        "service.slot_wait_s": recorder.total("service.slot_wait"),
        "service.admission_s": recorder.total("service.admission"),
        "service.codec_s": recorder.total("service.codec"),
        "service.lease_wait_s": recorder.total("service.lease_wait"),
        "python.gc_s": recorder.total("python.gc"),
        "trace.ops_per_s": ops_per_s,
    }
    timed_counters, all_counters = counters
    for metric, counter in COUNTERS.items():
        source = all_counters if metric in WHOLE_RUN else timed_counters
        values[metric] = int(source.get(counter, 0))
    return values


def write_trace(path: Path, recorder: Recorder, reports: dict) -> None:
    """Write the benchmark's spans beside the program's own reports."""
    totals = {
        f"{phase}:{name}": {
            "seconds": recorder.seconds[(phase, name)],
            "self_seconds": recorder.self_seconds[(phase, name)],
            "calls": recorder.calls[(phase, name)],
        }
        for phase, name in sorted(recorder.seconds)
    }
    by_parent = {
        f"{phase}:{parent}>{name}": seconds
        for (phase, parent, name), seconds in sorted(recorder.by_parent.items())
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "span_fields": ["name", "start_s", "duration_s", "parent", "thread"],
                "spans": recorder.records,
                "totals": totals,
                "seconds_by_parent": by_parent,
                "program_reports": reports,
            }
        )
    )
