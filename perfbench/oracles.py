"""Known answers for every workload, and the checks against them.

The reference data in ``reference.json`` holds no fingerprint or digest:
a change of hash function leaves it valid.  Full and compact results are
also compared with each other inside one run, state by state
(``explore_corpus``).

Regenerate the reference (from the full serial engine, the reference
semantics) with ``python3 perfbench/oracles.py`` from the repository
root, and review the diff: a changed answer is a changed program.
"""

import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def expect(actual, wanted, what):
    if actual != wanted:
        raise AssertionError(f"{what}: got {actual!r}, want {wanted!r}")


# -- explore-corpus -----------------------------------------------------------

def level_profile(graph):
    """Nodes per BFS depth, from the parent tree (node ids are BFS order,
    so a parent always precedes its children)."""
    depth = []
    counts = []
    for node in range(graph.state_count):
        parent = graph.parent[node]
        level = 0 if parent is None or parent < 0 else depth[parent] + 1
        depth.append(level)
        if level == len(counts):
            counts.append(0)
        counts[level] += 1
    return counts


def level_rows(stats):
    return [[row["frontier"], row["states"], row["edges"], row["stutter"]]
            for row in stats.levels]


def check_budget_run(reference, spec_key, graph, stats):
    ref = reference["explore"][spec_key]
    expect(graph.state_count, reference["explore"]["budget"],
           f"{spec_key}: states at the explosion")
    expect(level_profile(graph), ref["profile"],
           f"{spec_key}: BFS level profile of the partial graph")
    expect(level_rows(stats), ref["levels"],
           f"{spec_key}: completed BFS levels (stats.levels)")


def check_complete_run(reference, graph, agreement_ok):
    ref = reference["explore"]["paxos321"]
    expect(graph.state_count, ref["states"], "Paxos(3,2,1) states")
    expect(graph.edge_count, ref["edges"], "Paxos(3,2,1) edges")
    expect(agreement_ok, True, "Paxos(3,2,1) Agreement")


# -- certificate --------------------------------------------------------------

def check_certificate(reference, kind, certificate):
    ref = reference["certificate"][kind]
    expect(certificate.ok, ref["ok"], f"{kind}: certificate verdict")
    expect([ob.oid for ob in certificate.failed_obligations()], ref["failed"],
           f"{kind}: failed obligations")
    expect(certificate.total_states_explored(), ref["states"],
           f"{kind}: states explored")


# -- symbolic -----------------------------------------------------------------

def check_bmc(reference, result, spec, successors_of):
    """A VIOLATION whose trace starts in an initial state, steps by the
    concrete next-state relation (*successors_of*), and ends where the
    reference says."""
    from repro.checker.explorer import initial_states
    from repro.engine import VIOLATION

    ref = reference["symbolic"]
    expect(result.verdict, VIOLATION, "wide8 verdict")
    states = list(result.counterexample.states())
    expect(len(states), ref["trace_states"], "wide8 trace length")
    expect(states[0] in set(initial_states(spec.init, spec.universe)), True,
           "wide8 trace starts in an initial state")
    for step, (pre, post) in enumerate(zip(states, states[1:])):
        expect(post in set(successors_of(pre)), True,
               f"wide8 trace step {step} replays on the concrete plan")
    for name, value in ref["last"].items():
        expect(states[-1][name], value, f"wide8 last state {name}")


# -- reference generation -----------------------------------------------------

def measure_reference():
    from repro.checker import ExploreStats, StateSpaceExplosion, explore
    from repro.checker import check_invariant
    from repro.systems.paxos import Paxos

    from corpus import BUDGET, CERTIFICATES, EXPLORE_SPECS

    out = {"explore": {"budget": BUDGET}, "certificate": {}}
    for key, make in EXPLORE_SPECS.items():
        stats = ExploreStats()
        try:
            explore(make(), max_states=BUDGET, stats=stats)
        except StateSpaceExplosion as exc:
            out["explore"][key] = {"profile": level_profile(exc.graph),
                                   "levels": level_rows(stats)}
        else:
            raise AssertionError(f"{key} fits in {BUDGET} states")
    paxos = Paxos(3, 2, 1)
    graph = explore(paxos.complete_spec())
    expect(check_invariant(graph, paxos.agreement()).ok, True,
           "Paxos(3,2,1) Agreement")
    out["explore"]["paxos321"] = {"states": graph.state_count,
                                  "edges": graph.edge_count}
    for kind, make in CERTIFICATES.items():
        cert = make().composition_theorem().verify()
        out["certificate"][kind] = {
            "ok": cert.ok,
            "failed": [ob.oid for ob in cert.failed_obligations()],
            "states": cert.total_states_explored()}
    # the shortest trace to a = 7 counts up seven times from all-zero
    out["symbolic"] = {"trace_states": 8, "last": {"a": 7}}
    return out


if __name__ == "__main__":
    import common

    common.require_checkout()
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(measure_reference(), handle, indent=1, sort_keys=True)
        handle.write("\n")
