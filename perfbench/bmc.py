"""symbolic: ``SymbolicEngine(depth=8)`` on ``wide8``.

Eight mod-8 counters give 8^8 states, far past what explicit search
enumerates, while ``a = 7`` is seven steps away.  The answer must be a
VIOLATION whose 8-state trace replays on the concrete plan.  Without this
workload the CNF translation and the SAT solver go unmeasured.  One solve
takes about 0.4 s, so a run repeats it.
"""

import gc

import oracles
from calibrate import Speedometer
from common import end_to_end, median
from corpus import BMC_DEPTH, wide8


def replay(reference, result, spec):
    """Check the trace against the concrete next-state relation."""
    from repro.kernel.action import compile_action

    plan = compile_action(spec.next_action).plan(spec.universe)
    oracles.check_bmc(reference, result, spec, plan.successors)


def _solve_op(reference, replay_fn):
    from repro.engine import SolveStats, SymbolicEngine

    spec, invariant = wide8()
    stats = SolveStats()
    gc.collect()  # every op starts from the same collector state
    with Speedometer() as clock:
        result = SymbolicEngine(depth=BMC_DEPTH).check_invariant(
            spec, invariant, stats=stats)
    replay_fn(reference, result, spec)
    return clock, stats


def one_round(seed, index, ledger, reference, replay_fn=replay):
    """One solve (the input is fixed; *seed* has nothing to vary).
    Returns ``{"solve": Speedometer, "stats": SolveStats}`` or ``{}``."""
    del seed, index
    done = ledger.run("wide8", lambda: _solve_op(reference, replay_fn))
    if done is None:
        return {}
    return {"solve": done[0], "stats": done[1]}


def summarise(rounds, measure="normalised_s"):
    return end_to_end([getattr(times["solve"], measure)
                       for times in rounds if times])


def split(rounds):
    samples = [times["solve"].wall_s for times in rounds if times]
    return {"bmc_s": median(samples)} if samples else {}


# per-layer metric -> SolveStats field
SOLVER_COUNTS = {"engine.cnf.clauses": "clauses",
                 "engine.cnf.variables": "variables",
                 "engine.sat.conflicts": "conflicts",
                 "engine.sat.propagations": "propagations",
                 "engine.sat.decisions": "decisions"}


def solver_counts(rounds):
    """CNF size and solver effort of one solve, from ``SolveStats``
    (deterministic: every solve of wide8 repeats them exactly)."""
    solved = [times["stats"] for times in rounds if times]
    if not solved:
        return {}
    return {name: median([getattr(stats, field) for stats in solved])
            for name, field in SOLVER_COUNTS.items()}
