"""Which functions of ``repro`` the traced run wraps, and the per-layer
metrics it reports.

Every span is named ``<package>.<module>.<function>``.  A span gives two
metrics, ``<span>_s`` (summed self time) and ``<span>_calls``, under the
names listed in :data:`SPAN_METRICS`; counters ride on the same wrappers.
The layer-to-metric-to-workload map is in ``perfbench/README.md``.
"""


def _new_state(result):
    return {"new_states": 1 if result[1] else 0}


def _compact_new_state(result):
    return {"compact_new_states": 1 if result[1] else 0}


def _successors_out(result):
    return {"successors_out": len(result)}


def targets(server=False):
    """(owner, attribute, span name, wrap options) rows.  *server* adds
    the service internals, wrapped inside the traced server process."""
    from repro.checker import compact, explorer, graph, invariants, liveness
    from repro.checker import refinement
    from repro.checker.stats import ExploreStats
    from repro.core.composition import CompositionTheorem
    from repro.engine import cnf, sat, symbolic
    from repro.kernel import action, packed

    rows = [
        (action.CompiledAction, "plan", "kernel.action.plan", {}),
        (action.SuccessorPlan, "successors", "kernel.action.successors",
         {"drain": True, "counter": _successors_out}),
        (action.SuccessorPlan, "enabled", "kernel.action.enabled", {}),
        (packed.PackedPlan, "__init__", "kernel.packed.plan", {}),
        (packed.PackedPlan, "successors", "kernel.packed.successors", {}),
        (packed.PackedCodec, "fingerprint", "kernel.packed.fingerprint", {}),
        (packed.PackedCodec, "decode", "kernel.packed.decode", {}),
        (graph.StateGraph, "add_state", "checker.graph.add_state",
         {"counter": _new_state}),
        (graph.StateGraph, "merge_batch", "checker.graph.merge_batch", {}),
        (graph.StateGraph, "sccs", "checker.graph.sccs", {}),
        (compact.CompactGraph, "intern", "checker.compact.intern",
         {"counter": _compact_new_state}),
        (compact.CompactGraph, "merge_successors",
         "checker.compact.merge_successors", {}),
        (compact, "check_invariant_compact",
         "checker.compact.check_invariant", {}),
        (explorer, "explore", "checker.explorer.explore", {}),
        (compact, "explore_compact", "checker.explorer.explore", {}),
        (ExploreStats, "record_level", "checker.explorer.level", {}),
        (invariants, "check_invariant", "checker.invariants.check_invariant",
         {}),
        (refinement, "check_safety_refinement",
         "checker.refinement.check_safety_refinement", {}),
        (liveness, "check_temporal_implication",
         "checker.liveness.check_temporal_implication", {}),
        (CompositionTheorem, "verify", "core.composition.verify", {}),
        (cnf.Translation, "__init__", "engine.cnf.translate", {}),
        (cnf.Translation, "assemble", "engine.cnf.translate", {}),
        (sat.CdclBackend, "solve", "engine.sat.solve", {}),
        (symbolic.SymbolicEngine, "check_invariant",
         "engine.symbolic.check_invariant", {}),
    ]
    if server:
        from repro.parser import module
        from repro.service import cache, jobs, journal, metrics, scheduler
        rows += [
            (journal.JobJournal, "append_locked", "service.journal.append",
             {}),
            (journal.JobJournal, "compact", "service.journal.compact", {}),
            (cache.ShardedResultCache, "get", "service.cache.get", {}),
            (cache.ShardedResultCache, "put", "service.cache.put", {}),
            (metrics.MetricsDir, "flush", "service.metrics.flush", {}),
            (scheduler.FairScheduler, "pop", "service.scheduler.pop", {}),
            (module, "load_module", "parser.load_module", {}),
            (jobs, "run_check", "service.jobs.run_check", {}),
        ]
    return rows


# span name -> (metric for its self time, metric for its call count or None)
SPAN_METRICS = {
    "kernel.action.plan": ("kernel.action.plan_s", "kernel.action.plan_calls"),
    "kernel.action.successors": ("kernel.action.successors_s",
                                 "kernel.action.successor_calls"),
    "kernel.action.enabled": ("kernel.action.enabled_s",
                              "kernel.action.enabled_calls"),
    "kernel.packed.plan": ("kernel.packed.plan_s", None),
    "kernel.packed.successors": ("kernel.packed.successors_s",
                                 "kernel.packed.successor_calls"),
    "kernel.packed.fingerprint": ("kernel.packed.fingerprint_s",
                                  "kernel.packed.fingerprint_calls"),
    "kernel.packed.decode": ("kernel.packed.decode_s",
                             "kernel.packed.decode_calls"),
    "checker.graph.add_state": ("checker.graph.add_state_s",
                                "checker.graph.add_state_calls"),
    "checker.graph.merge_batch": ("checker.graph.merge_batch_s", None),
    "checker.graph.sccs": ("checker.graph.sccs_s", "checker.graph.sccs_calls"),
    "checker.compact.intern": ("checker.compact.intern_s",
                               "checker.compact.intern_calls"),
    "checker.compact.merge_successors": ("checker.compact.merge_successors_s",
                                         None),
    "checker.compact.check_invariant": ("checker.compact.check_invariant_s",
                                        None),
    "checker.explorer.explore": ("checker.explorer.explore_s", None),
    # per-level bookkeeping (and the service's level listener) belongs to
    # the BFS loop
    "checker.explorer.level": ("checker.explorer.explore_s",
                               "checker.explorer.levels"),
    "checker.invariants.check_invariant": (
        "checker.invariants.check_invariant_s",
        "checker.invariants.check_invariant_calls"),
    "checker.refinement.check_safety_refinement": (
        "checker.refinement.check_safety_refinement_s",
        "checker.refinement.check_safety_refinement_calls"),
    "checker.liveness.check_temporal_implication": (
        "checker.liveness.check_temporal_implication_s",
        "checker.liveness.check_temporal_implication_calls"),
    "core.composition.verify": ("core.composition.verify_s", None),
    "engine.cnf.translate": ("engine.cnf.translate_s", None),
    "engine.sat.solve": ("engine.sat.solve_s", None),
    "engine.symbolic.check_invariant": ("engine.symbolic.check_invariant_s",
                                        None),
    "engine.symbolic.replay": ("engine.symbolic.replay_s", None),
    "service.journal.append": ("service.journal.append_s",
                               "service.journal.append_calls"),
    "service.journal.compact": ("service.journal.compact_s", None),
    "service.cache.get": ("service.cache.get_s", None),
    "service.cache.put": ("service.cache.put_s", None),
    "service.metrics.flush": ("service.metrics.flush_s",
                              "service.metrics.flush_calls"),
    "service.scheduler.pop": ("service.scheduler.pop_s", None),
    "parser.load_module": ("parser.load_module_s", None),
    "service.jobs.run_check": ("service.jobs.run_check_s", None),
}

# metrics that are not a span's time or call count: (name, unit)
EXTRA_METRICS = [
    ("kernel.action.successors_out", "count"),
    ("checker.graph.new_state_ratio", "ratio"),
    ("checker.compact.new_state_ratio", "ratio"),
    ("engine.cnf.clauses", "count"),
    ("engine.cnf.variables", "count"),
    ("engine.sat.conflicts", "count"),
    ("engine.sat.propagations", "count"),
    ("engine.sat.decisions", "count"),
    ("service.client.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.check_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.notify_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.retries_429", "count"),
    ("trace.other_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    # the untraced round of a traced run, split by input, so a claim can
    # name one engine and spec ("paxos_compact_states_per_s on
    # explore-corpus"); the bounded end-to-end metrics pool them
    ("paxos_full_states_per_s", "1/s"),
    ("paxos_compact_states_per_s", "1/s"),
    ("mutex_full_states_per_s", "1/s"),
    ("mutex_compact_states_per_s", "1/s"),
    ("paxos_cert_s", "s"),
    ("mutex_cert_s", "s"),
    ("broken_cert_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("job_samples", "count"),
    ("bmc_s", "s"),
]

def per_layer_catalogue():
    """[(name, unit)] of every per-layer metric, in report order."""
    rows = []
    for seconds, calls in SPAN_METRICS.values():
        for name, unit in ((seconds, "s"), (calls, "count")):
            if name is not None and (name, unit) not in rows:
                rows.append((name, unit))
    return rows + EXTRA_METRICS


def span_metrics(layers, counters):
    """Per-layer metric values from a tracer's layer table and counters
    (a layer the workload never entered reads 0)."""
    values = {name: 0.0 for name, _unit in per_layer_catalogue()}
    for span, (seconds, calls) in SPAN_METRICS.items():
        row = layers.get(span)
        if row is None:
            continue
        if seconds is not None:
            values[seconds] += row["self_s"]
        if calls is not None:
            values[calls] += row["calls"]
    values["kernel.action.successors_out"] = counters.get("successors_out", 0)
    adds = layers.get("checker.graph.add_state", {}).get("calls", 0)
    if adds:
        values["checker.graph.new_state_ratio"] = (
            counters.get("new_states", 0) / adds)
    interns = layers.get("checker.compact.intern", {}).get("calls", 0)
    if interns:
        values["checker.compact.new_state_ratio"] = (
            counters.get("compact_new_states", 0) / interns)
    return values
