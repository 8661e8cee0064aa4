"""explore-corpus: Paxos(3,3,1) and Mutex(3,4) explored to the 20,000-state
budget by the serial full engine and the serial compact engine, plus
Paxos(3,2,1) explored to completion by both, with Agreement checked.

Expand, identity and merge do almost all the work: the specs compile in
milliseconds and the only check is one invariant scan.  The full engine
interns ``State`` objects by hash, the compact engine packed ints by
fingerprint, so a change that helps one engine and hurts the other shows
in the per-engine split.
"""

import gc

import oracles
from calibrate import Speedometer
from common import end_to_end, median
from corpus import BUDGET, EXPLORE_SPECS

ENGINES = ("full", "compact")


def _engine(engine):
    from repro import checker
    return checker.explore if engine == "full" else checker.explore_compact


def _nodes(graph, spec):
    """The graph's node stream as packed ints and parents (-1 = root)."""
    packed = getattr(graph, "packed", None)
    if packed is None:
        from repro.kernel.packed import PackedCodec
        encode = PackedCodec(spec.universe).encode
        packed = [encode(state) for state in graph.states]
    parents = [-1 if p is None else p for p in graph.parent]
    return list(packed), parents


def _budget_op(reference, key, engine, streams):
    from repro import checker

    spec = EXPLORE_SPECS[key]()
    stats = checker.ExploreStats()
    run = _engine(engine)
    gc.collect()  # every op starts from the same collector state
    try:
        with Speedometer() as clock:
            run(spec, max_states=BUDGET, stats=stats)
    except checker.StateSpaceExplosion as exc:
        graph = exc.graph
    else:
        raise AssertionError(f"{key} {engine}: no StateSpaceExplosion at "
                             f"{BUDGET} states")
    oracles.check_budget_run(reference, key, graph, stats)
    _same_nodes(streams, key, engine, _nodes(graph, spec))
    return clock


def _complete_op(reference, engine, streams, digests):
    from repro import checker
    from repro.systems.paxos import Paxos

    paxos = Paxos(3, 2, 1)
    spec = paxos.complete_spec()
    gc.collect()
    with Speedometer() as clock:
        graph = _engine(engine)(spec, stats=checker.ExploreStats())
    check = (checker.check_invariant if engine == "full"
             else checker.check_invariant_compact)
    agreement = check(graph, paxos.agreement(), name="Agreement").ok
    oracles.check_complete_run(reference, graph, agreement)
    _same_nodes(streams, "paxos321", engine, _nodes(graph, spec))
    digests[engine] = (checker.digest_of_graph(graph) if engine == "full"
                       else graph.digest())
    if len(digests) == 2:
        oracles.expect(digests["compact"], digests["full"],
                       "Paxos(3,2,1) compact digest equals full digest")
    return clock


def _same_nodes(streams, key, engine, nodes):
    """The second engine to finish *key* must reproduce the first one's
    states, numbering and parent tree exactly."""
    other = streams.setdefault(key, {})
    for seen_engine, seen in other.items():
        oracles.expect(nodes == seen, True,
                       f"{key}: {engine} and {seen_engine} node streams agree")
    other[engine] = nodes


def one_round(seed, index, ledger, reference):
    """All six explorations.  Returns ``{(spec, engine): Speedometer}``
    for the explorations that passed.  The corpus is fixed, so *seed* varies
    nothing; the order is fixed too, so each op meets the same heap."""
    del seed, index
    ops = [(key, engine) for key in (*EXPLORE_SPECS, "paxos321")
           for engine in ENGINES]
    streams, digests, times = {}, {}, {}
    for key, engine in ops:
        if key == "paxos321":
            clock = ledger.run(f"{key} {engine}", lambda: _complete_op(
                reference, engine, streams, digests))
        else:
            clock = ledger.run(f"{key} {engine}", lambda: _budget_op(
                reference, key, engine, streams))
        if clock is not None:
            times[(key, engine)] = clock
    return times


def summarise(rounds, measure="normalised_s"):
    """End-to-end metrics over the budget explorations of all rounds,
    from each operation's *measure* (see ``calibrate.Speedometer``)."""
    return end_to_end([getattr(clock, measure) for times in rounds
                       for (key, _), clock in times.items()
                       if key != "paxos321"], work=BUDGET)


def split(rounds):
    """States per second for each (spec, engine), median wall time over
    *rounds*."""
    out = {}
    for key in EXPLORE_SPECS:
        for engine in ENGINES:
            samples = [times[(key, engine)].wall_s for times in rounds
                       if (key, engine) in times]
            if samples:
                out[f"{key}_{engine}_states_per_s"] = BUDGET / median(samples)
    return out
