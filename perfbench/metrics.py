"""The traced run and its per-layer metrics.

A traced run times ``trace_rounds`` rounds untraced and as many rounds
with the span wrappers of ``layers.py`` recording (in this process, or
in the server process for ``service_http``).  The per-layer metrics
come from the traced rounds: span totals, the growth of the program's
own counters (``engine.stats()``, the store's tallies, ``/v1/stats``)
over them, and the client-side latencies.  Counts are totals over the
traced rounds, a fixed amount of work per seed.
"""

import json
import os

from layers import Spans, install, layer_table

__all__ = ["PER_LAYER", "traced_run"]

#: Every per-layer metric: name → unit.
PER_LAYER = {
    "coql.parse.ms_per_check": "ms",
    "coql.prepare.ms_per_check": "ms",
    "coql.family.calls_per_check": "count",
    "coql.family.ms_per_check": "ms",
    "fingerprint.calls_per_check": "count",
    "fingerprint.ms_per_check": "ms",
    "store.lookups_per_check": "count",
    "store.hit_rate": "ratio",
    "store.lookup.ms_per_check": "ms",
    "store.evictions": "count",
    "store.entries": "count",
    "persist.preload.ms": "ms",
    "persist.db_bytes": "bytes",
    "persist.flush.ms_per_batch": "ms",
    "persist.rows_written": "count",
    "trace.spans_per_check": "count",
    "trace.overhead_pct": "%",
    "engine.obligations_per_check": "count",
    "engine.obligation_hit_rate": "ratio",
    "engine.truncate.ms_per_check": "ms",
    "engine.unattributed.ms_per_check": "ms",
    "engine.union_branches_decided": "count",
    "engine.classification_hit_rate": "ratio",
    "grouping.targets_compiled": "count",
    "grouping.compile.ms_per_check": "ms",
    "cq.search.ms_per_check": "ms",
    "cq.search_nodes": "count",
    "cq.mask_intersections": "count",
    "chase.ms_per_check": "ms",
    "chase.hit_rate": "ratio",
    "service.http.ms_per_request": "ms",
    "service.batch_wait.ms_per_request": "ms",
    "service.engine.ms_per_request": "ms",
    "service.batch_size_mean": "count",
    "service.deadline_misses": "count",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _parts(snapshot):
    """``(engine counters, store tallies, store sizes, service
    counters)`` from an in-process snapshot or a ``/v1/stats`` body."""
    if "service" in snapshot:
        store = snapshot["store"]
        return (snapshot["engine"], store["counters"], store["sizes"],
                snapshot["service"])
    return (snapshot["engine"], snapshot["store_counters"],
            snapshot["store_sizes"], {})


def _numeric(before, after):
    return {k: v - before.get(k, 0) for k, v in after.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def delta(before, after, into=None):
    """The counters' growth from snapshot *before* to *after*, added to
    the delta *into* when given; store sizes are taken from *after*."""
    eng0, store0, _, svc0 = _parts(before)
    eng1, store1, sizes1, svc1 = _parts(after)
    out = {
        "engine": _numeric(eng0, eng1),
        "store": {kind: _numeric(store0.get(kind, {}), entry)
                  for kind, entry in store1.items()},
        "sizes": dict(sizes1),
        "service": _numeric(svc0, svc1),
    }
    if into is not None:
        for part in ("engine", "service"):
            for key, value in into[part].items():
                out[part][key] = out[part].get(key, 0) + value
        for kind, entry in into["store"].items():
            mine = out["store"].setdefault(kind, {})
            for key, value in entry.items():
                mine[key] = mine.get(key, 0) + value
    return out


def per_layer(digest, growth, checks, latency_s=0.0, db_bytes=0):
    """The per-layer metrics (values only) of the traced rounds, from
    their span *digest* and the counters' *growth* over them."""
    spans = digest["spans"]
    engine, store, sizes, service = (
        growth["engine"], growth["store"], growth["sizes"],
        growth["service"])

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def ms(name):
        return spans.get(name, [0, 0.0, 0.0])[1] * 1e3

    def per_check(value):
        return _ratio(value, checks)

    def eng(name):
        return engine.get(name, 0)

    def tally(field, kinds=None):
        return sum(entry.get(field, 0) for kind, entry in store.items()
                   if kinds is None or kind in kinds)

    def svc(name):
        return service.get(name, 0)

    hits = tally("hits") + tally("disk_hits")
    lookups = tally("hits") + tally("misses")
    batches, batched = digest["batches"]
    submits = calls("service.submit")
    mean_batch = _ratio(batched, batches)
    requests = calls("service.dispatch")
    setup = digest.get("setup") or {}
    return {
        "coql.parse.ms_per_check": per_check(ms("coql.parse")),
        "coql.prepare.ms_per_check": per_check(
            digest["prepare_miss_s"] * 1e3),
        "coql.family.calls_per_check": per_check(calls("coql.family")),
        "coql.family.ms_per_check": per_check(ms("coql.family")),
        "fingerprint.calls_per_check": per_check(calls("fingerprint")),
        "fingerprint.ms_per_check": per_check(ms("fingerprint")),
        "store.lookups_per_check": per_check(calls("store.lookup")),
        "store.hit_rate": _ratio(hits, lookups),
        "store.lookup.ms_per_check": per_check(ms("store.lookup")),
        "store.evictions": tally("evictions"),
        "store.entries": sum(sizes.values()),
        "persist.preload.ms": setup.get("persist.preload",
                                        [0, 0.0, 0.0])[1] * 1e3,
        "persist.db_bytes": db_bytes,
        "persist.flush.ms_per_batch": _ratio(ms("persist.flush"),
                                             calls("persist.flush")),
        "persist.rows_written": tally("disk_stores"),
        "trace.spans_per_check": per_check(
            digest["counts"].get("trace.span", 0)),
        "engine.obligations_per_check": per_check(calls("engine.decide")),
        "engine.obligation_hit_rate": _ratio(
            eng("obligation_cache_hits"),
            eng("obligation_cache_hits") + eng("obligation_cache_misses")),
        "engine.truncate.ms_per_check": per_check(ms("engine.truncate")),
        "engine.unattributed.ms_per_check": per_check(
            spans.get("check", [0, 0.0, 0.0])[2] * 1e3),
        "engine.union_branches_decided": eng("union_branches_decided"),
        "engine.classification_hit_rate": _ratio(
            tally("hits", ("classification",)),
            tally("hits", ("classification",))
            + tally("misses", ("classification",))),
        "grouping.targets_compiled": eng("target_cache_misses"),
        "grouping.compile.ms_per_check": per_check(ms("grouping.compile")),
        "cq.search.ms_per_check": per_check(ms("cq.search")),
        "cq.search_nodes": eng("homomorphism_nodes"),
        "cq.mask_intersections": eng("homomorphism_mask_intersections"),
        "chase.ms_per_check": per_check(ms("chase")),
        "chase.hit_rate": _ratio(eng("chase_hits"),
                                 eng("chase_hits") + eng("chase_misses")),
        "service.http.ms_per_request": (
            _ratio(latency_s * 1e3, requests)
            - _ratio(ms("service.dispatch"), requests)) if requests else 0.0,
        "service.batch_wait.ms_per_request": _ratio(
            ms("service.submit") - ms("service.engine") * mean_batch,
            submits),
        "service.engine.ms_per_request": _ratio(
            digest["root_check_s"] * 1e3, requests),
        "service.batch_size_mean": _ratio(svc("batched_requests"),
                                          svc("batches")),
        "service.deadline_misses": svc("deadline_misses"),
    }


def _rate(rounds):
    return sum(r.checks for r in rounds) / sum(
        r.scaled_wall_s() for r in rounds)


def traced_run(workload, stem, server_digest_path):
    """Untraced and traced rounds; returns the per-layer metrics
    ``{name: (value, unit)}`` and extra run-record fields, and writes
    the layer table (``<stem>.layers.txt``) and a Chrome trace.

    In this process the wrappers are installed once and switched on for
    every other round, so untraced and traced rounds alternate; the
    server switches them on once, after its untraced rounds.
    """
    count = workload.trace_rounds
    service = server_digest_path is not None
    if service:
        plain = workload.run(None, max_rounds=count)
        before = workload.stats_snapshot()
        workload.server.enable_trace()
        traced = workload.run(None, max_rounds=count)
        growth = delta(before, workload.stats_snapshot())
    else:
        spans = install(Spans(enabled=False))
        plain, traced, growth = [], [], None
        for _ in range(count):
            plain += workload.run(None, max_rounds=1)
            before = workload.stats_snapshot()
            spans.enabled = True
            traced += workload.run(None, max_rounds=1)
            spans.enabled = False
            growth = delta(before, workload.stats_snapshot(), growth)
    checks = sum(r.checks for r in traced)
    latency_s = sum(sum(r.latencies) for r in traced)
    if service:
        db_bytes = workload.db_bytes()
        workload.close()  # the server writes its digest on exit
        with open(server_digest_path) as handle:
            digest = json.load(handle)
        trace_path = os.path.splitext(server_digest_path)[0] + ".trace.json"
    else:
        db_bytes = 0
        digest = spans.digest()
        trace_path = stem + ".trace.json"
        spans.chrome_trace(trace_path, pid=os.getpid())
    values = per_layer(digest, growth, checks, latency_s, db_bytes)
    untraced_rate, traced_rate = _rate(plain), _rate(traced)
    values["trace.overhead_pct"] = (untraced_rate / traced_rate - 1) * 100
    table = layer_table(digest, checks)
    lines = ["%-22s %9s %12s %14s %7s" % (
        "layer", "calls", "self ms", "ms per check", "share")]
    lines += ["%-22s %9d %12.2f %14.4f %6.1f%%" % (
        layer, calls, self_ms, per, share * 100)
        for layer, calls, self_ms, per, share in table]
    lines.append("checks %d; untraced %.1f/s, traced %.1f/s, overhead %.1f%%"
                 % (checks, untraced_rate, traced_rate,
                    values["trace.overhead_pct"]))
    with open(stem + ".layers.txt", "w") as handle:
        handle.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    result = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    return result, {"trace_file": os.path.relpath(trace_path),
                    "traced_checks": checks}
