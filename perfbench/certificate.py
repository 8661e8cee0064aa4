"""certificate: ``composition_theorem().verify()`` for Paxos(2,2,2) and
Mutex(2,3), and for the ``broken=True`` variant of each.

This is the paper's own workload: discharging the Composition Theorem's
obligations.  Compile (successor plans) and check (refinement, SCCs,
liveness) dominate; the products hold only 1.8k-5.3k states, so identity
and merge do little.  The broken variants take the failure and
counterexample path.  Each repetition builds fresh systems, because
users pay compile on every run.
"""

import gc

import oracles
from calibrate import Speedometer
from common import end_to_end, median
from corpus import CERTIFICATES


def _certificate_op(reference, kind):
    gc.collect()  # every op starts from the same collector state
    with Speedometer() as clock:
        certificate = CERTIFICATES[kind]().composition_theorem().verify()
    oracles.check_certificate(reference, kind, certificate)
    return clock


def one_round(seed, index, ledger, reference):
    """All four certificates: ``{kind: Speedometer}``.  The inputs and their
    order are fixed, so *seed* varies nothing."""
    del seed, index
    times = {}
    for kind in CERTIFICATES:
        clock = ledger.run(kind, lambda: _certificate_op(reference, kind))
        if clock is not None:
            times[kind] = clock
    return times


def summarise(rounds, measure="normalised_s"):
    return end_to_end([getattr(clock, measure) for times in rounds
                       for clock in times.values()])


def split(rounds):
    """Median wall seconds per certificate over *rounds*;
    ``broken_cert_s`` is both broken certificates together."""
    def med(*kinds):
        totals = [sum(times[kind].wall_s for kind in kinds) for times in rounds
                  if all(kind in times for kind in kinds)]
        return median(totals) if totals else None

    out = {"paxos_cert_s": med("paxos"), "mutex_cert_s": med("mutex"),
           "broken_cert_s": med("paxos_broken", "mutex_broken")}
    return {name: value for name, value in out.items() if value is not None}
