"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public calls into each layer of
``src/repro`` — a function is patched in every module that imported it
by name — and records one span per call: name, start, end, thread and
parent.  Spans stay in memory; :class:`Spans` turns them into the
per-layer self-time table (with an ``unattributed`` row: time inside a
root ``check`` span that no wrapped call covers) and a Chrome trace.

Nothing here runs unless a traced run asks for it, so the untraced runs
measure the program exactly as shipped.
"""

import functools
import inspect
import json
import sys
import threading
import time

__all__ = ["LAYER_OF", "Spans", "install", "layer_table"]

#: Span name → the module (layer) it belongs to.
LAYER_OF = {
    "check": "engine.core",
    "engine.obligations": "engine.core",
    "engine.decide": "engine.core",
    "engine.truncate": "engine.core",
    "coql.parse": "coql",
    "coql.prepare": "coql",
    "coql.typecheck": "coql",
    "coql.normalize": "coql",
    "coql.encode": "coql",
    "coql.family": "coql.family",
    "fingerprint": "pipeline.fingerprint",
    "store.lookup": "pipeline.store",
    "store.store": "pipeline.store",
    "persist.lookup": "pipeline.persist",
    "persist.store": "pipeline.persist",
    "persist.flush": "pipeline.persist",
    "persist.preload": "pipeline.persist",
    "chase": "constraints",
    "grouping.compile": "grouping.simulation",
    "grouping.simulate": "grouping.simulation",
    "cq.search": "cq.propagation",
    "service.submit": "service",
    "service.engine": "service",
    "service.dispatch": "service",
}

#: Spans recorded beside the call stack (coroutines interleave on one
#: thread, so they get no parent and are left out of self time).
ASYNC_SPANS = ("service.submit", "service.dispatch")


class Spans:
    """The recorded spans: ``(name, start, end, parent, thread)``.

    :param enabled: record from the start (False: wrappers pass calls
        straight through until :attr:`enabled` is set).
    """

    #: Recorded even while disabled: set-up work a run reports.
    ALWAYS = ("persist.preload",)

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.records = []
        self.counts = {}
        self.batch_sizes = []
        self.setup = {}
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func):
        spans, records = self, self.records
        always = name in self.ALWAYS
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                if not spans.enabled:
                    return await func(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    records.append((name, start, time.perf_counter(), None,
                                    threading.get_ident()))
            return async_wrapper

        stack_of = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not (spans.enabled or always):
                return func(*args, **kwargs)
            stack = stack_of()
            index = len(records)
            records.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                records[index] = (name, start, end, parent,
                                  threading.get_ident())
        return wrapper

    def count(self, name, func):
        spans = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if spans.enabled:
                spans.counts[name] = spans.counts.get(name, 0) + 1
            return func(*args, **kwargs)
        return wrapper

    def sized(self, func):
        """Wrap a batch call ``f(self, items, ...)``: record len(items)."""
        spans = self

        @functools.wraps(func)
        def wrapper(engine, items, *args, **kwargs):
            items = list(items)
            if spans.enabled:
                spans.batch_sizes.append(len(items))
            return func(engine, items, *args, **kwargs)
        return wrapper

    def start_timed(self):
        """Keep what set-up recorded aside and record afresh."""
        self.setup = self.digest()["spans"]
        del self.records[:]
        self.counts.clear()
        del self.batch_sizes[:]
        self.enabled = True

    # -- reading ---------------------------------------------------------

    def digest(self):
        """What the per-layer metrics need, as plain JSON data:
        per span name ``[calls, total s, self s]``, the time of root
        ``check`` spans, of prepare misses, counters and batch sizes."""
        children = {}
        typechecked = set()
        for name, start, end, parent, _ in filter(None, self.records):
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + end - start
                if name == "coql.typecheck":
                    typechecked.add(parent)
        spans = {}
        root_check_s = prepare_miss_s = 0.0
        for index, record in enumerate(self.records):
            if record is None:
                continue
            name, start, end, parent, _ = record
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - children.get(index, 0.0)
            if name == "check" and (
                    parent is None or self.records[parent][0] != "check"):
                root_check_s += end - start
            if name == "coql.prepare" and index in typechecked:
                prepare_miss_s += end - start
        return {
            "spans": spans,
            "root_check_s": root_check_s,
            "prepare_miss_s": prepare_miss_s,
            "counts": dict(self.counts),
            "batches": [len(self.batch_sizes), sum(self.batch_sizes)],
            "setup": self.setup,
        }

    def chrome_trace(self, path, pid, limit=50000):
        """Write the first *limit* spans as Chrome ``trace_event`` JSON."""
        records = [r for r in self.records if r is not None][:limit]
        epoch = min((r[1] for r in records), default=0.0)
        events = [{
            "name": name, "cat": LAYER_OF.get(name, "bench"), "ph": "X",
            "ts": round((start - epoch) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid, "tid": thread,
        } for name, start, end, _parent, thread in records]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


def layer_table(digest, checks):
    """Rows ``(layer, calls, self ms, self ms per check, share of root
    check time)``, sorted by self time; the root checks' time that no
    wrapped call covers is the ``unattributed`` row.  Coroutine spans
    (recorded beside the stack) are left out."""
    layers = {}
    for name, (calls, _total, self_s) in digest["spans"].items():
        if name in ASYNC_SPANS:
            continue
        layer = "unattributed" if name == "check" else LAYER_OF[name]
        row = layers.setdefault(layer, [0, 0.0])
        row[0] += 0 if name == "check" else calls
        row[1] += self_s
    root = digest["root_check_s"]
    return [
        (layer, calls, self_s * 1e3, self_s * 1e3 / max(checks, 1),
         self_s / root if root else 0.0)
        for layer, (calls, self_s) in sorted(
            layers.items(), key=lambda kv: -kv[1][1])
    ]


def _patch_everywhere(original, replacement):
    """Replace *original* in every loaded ``repro`` module that holds it
    under a top-level name."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(spans):
    """Wrap every traced call; returns *spans* for chaining.

    Imports the modules it patches, so call it before the workload
    builds engines (classes are patched in place and affect instances
    built earlier too; functions imported by name are patched in the
    modules loaded at this point)."""
    from importlib import import_module

    def module(name):
        return import_module("repro." + name)

    parser, typecheck, normalize, encode, family = (
        module("coql." + name)
        for name in ("parser", "typecheck", "normalize", "encode", "family"))
    homomorphism = module("cq.homomorphism")
    core, parallel = module("engine.core"), module("engine.parallel")
    grouping_query = module("grouping.query")
    simulation = module("grouping.simulation")
    fingerprint, persist, stages, store, trace = (
        module("pipeline." + name)
        for name in ("fingerprint", "persist", "stages", "store", "trace"))
    batching, server = module("service.batching"), module("service.server")
    module("coql")  # packages re-exporting the functions patched below
    module("cli")

    functions = [
        (parser, "parse_coql", "coql.parse"),
        (typecheck, "typecheck", "coql.typecheck"),
        (normalize, "normalize", "coql.normalize"),
        (encode, "encode_query", "coql.encode"),
        (family, "union_branches", "coql.family"),
        (fingerprint, "artifact_key", "fingerprint"),
        (simulation, "simulation_target", "grouping.compile"),
        (simulation, "is_simulated", "grouping.simulate"),
        (homomorphism, "find_homomorphism", "cq.search"),
    ]
    for owner, attr, name in functions:
        original = getattr(owner, attr)
        _patch_everywhere(original, spans.wrap(name, original))

    methods = [
        (core.ContainmentEngine, "contains", "check"),
        (core.ContainmentEngine, "weakly_equivalent", "check"),
        (core.ContainmentEngine, "classify_many", "check"),
        (stages.Pipeline, "prepare", "coql.prepare"),
        (stages.Pipeline, "enumerate_obligations", "engine.obligations"),
        (stages.Pipeline, "decide_obligation", "engine.decide"),
        (stages.Pipeline, "chase", "chase"),
        (grouping_query.GroupingQuery, "truncate", "engine.truncate"),
        (store.ArtifactStore, "lookup", "store.lookup"),
        (store.ArtifactStore, "store", "store.store"),
        (persist.TieredStore, "lookup", "persist.lookup"),
        (persist.TieredStore, "store", "persist.store"),
        (persist.TieredStore, "flush", "persist.flush"),
        (persist.TieredStore, "preload", "persist.preload"),
        (batching.MicroBatcher, "submit", "service.submit"),
        (parallel.ParallelContainmentEngine, "contains_many",
         "service.engine"),
        (server.ContainmentService, "_dispatch", "service.dispatch"),
    ]
    for cls, attr, name in methods:
        setattr(cls, attr, spans.wrap(name, getattr(cls, attr)))
    cls = parallel.ParallelContainmentEngine
    cls.contains_many = spans.sized(cls.contains_many)
    trace.Tracer.span = spans.count("trace.span", trace.Tracer.span)
    return spans
