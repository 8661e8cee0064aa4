"""The fixed inputs of the in-process workloads.

Every maker builds fresh objects: the action-compile caches of ``repro``
are keyed by object identity, and users pay compile on every run, so a
timed repetition must not reuse a previous repetition's systems.
"""

BUDGET = 20_000  # states per budget exploration

# explore-corpus: explored to the budget by both engines
EXPLORE_SPECS = {
    "paxos": lambda: _paxos(3, 3, 1).complete_spec(),
    "mutex": lambda: _mutex(3, 4).complete_spec(),
}

# certificate: Composition Theorem certificates, ok and broken
CERTIFICATES = {
    "paxos": lambda: _paxos(2, 2, 2),
    "mutex": lambda: _mutex(2, 3),
    "paxos_broken": lambda: _paxos(2, 2, 2, broken=True),
    "mutex_broken": lambda: _mutex(2, 3, broken=True),
}

BMC_DEPTH = 8


def _paxos(*args, **kwargs):
    from repro.systems.paxos import Paxos
    return Paxos(*args, **kwargs)


def _mutex(*args, **kwargs):
    from repro.systems.mutex import LamportMutex
    return LamportMutex(*args, **kwargs)


def wide8():
    """Eight independent mod-8 counters (8^8 states) and the invariant
    ``a /= 7``, first violated seven steps from the initial state: too
    many states to enumerate, a shallow bug for bounded checking."""
    from repro.kernel.expr import And, Arith, Const, Eq, Not, Or, Var
    from repro.kernel.state import Universe
    from repro.kernel.values import FiniteDomain
    from repro.spec import Spec

    names = tuple("abcdefgh")
    universe = Universe({name: FiniteDomain(range(8)) for name in names})

    def bump(name):
        conjuncts = [Eq(Var(name, primed=True),
                        Arith("%", Arith("+", Var(name), 1), 8))]
        conjuncts += [Eq(Var(other, primed=True), Var(other))
                      for other in names if other != name]
        return And(*conjuncts)

    step = Or(*[bump(name) for name in names])
    init = And(*[Eq(Var(name), Const(0)) for name in names])
    return Spec("wide8", init, step, names, universe), Not(Eq(Var("a"),
                                                              Const(7)))


def build(workload):
    """The systems one run of *workload* starts from (its set-up work)."""
    if workload == "explore-corpus":
        from repro.systems.paxos import Paxos
        return [make() for make in EXPLORE_SPECS.values()] + [
            Paxos(3, 2, 1).complete_spec()]
    if workload == "certificate":
        return [make().composition_theorem()
                for make in CERTIFICATES.values()]
    if workload == "symbolic":
        import repro.engine  # noqa: F401 - the engine is set-up too
        return [wide8()]
    raise ValueError(workload)
