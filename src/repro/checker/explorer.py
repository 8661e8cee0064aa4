"""Breadth-first explicit-state exploration of canonical specifications.

:func:`initial_states` enumerates the states satisfying an initial
predicate, reusing the action compiler (the predicate's variables are
primed so equations become bindings); :func:`explore` builds the
reachable :class:`~repro.checker.graph.StateGraph` of a
:class:`~repro.spec.Spec` under its next-state action ``N`` (stuttering
self-loops are added by the graph itself).

The hot path is plan-driven: the next-state action is compiled **once
per run** into a :class:`~repro.kernel.action.SuccessorPlan` specialised
to the spec's universe, instead of re-analysing the expression per
state.  Pass an :class:`~repro.checker.stats.ExploreStats` to collect
throughput, depth, and edge counts.

:func:`_drive` here is the repo's only BFS loop.  Every exploration
entry point -- serial, process pool, compact, distributed, and their
resumes -- seeds a graph and calls it with two plug-ins: a graph
*kind* (full states here as :class:`_FullKind`, packed ints in
:mod:`repro.checker.compact`) and an *expander* (inline here as
:class:`_Inline`, the process pool in :mod:`repro.checker.parallel`,
worker nodes in :mod:`repro.checker.distributed`).

Runs are durable: pass ``checkpoint=path`` (and optionally
``checkpoint_every=N``) to atomically snapshot the run every N BFS
levels via :mod:`repro.checker.checkpoint`;
:func:`repro.checker.checkpoint.resume` continues a snapshot bit-for-bit
identically to an uninterrupted run.

Two scaling levers plug in through :mod:`repro.checker.reduction`:

* ``reduction=ReductionConfig(...)`` enables ample/stubborn-set
  partial-order reduction derived from the paper's ``Disjoint``
  decomposition -- sound for invariants and deadlock, auto-disabled
  (with the reason recorded on the stats) when the action shape is not
  reducible.  The POR-off path is byte-identical to the pre-subsystem
  explorer.
* ``store=...`` swaps the state-interning backend (in-RAM dict vs the
  disk spill store), without changing node numbering or verdicts.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from ..kernel.action import compile_action
from ..kernel.expr import Expr, prime_expr, to_expr
from ..kernel.state import State, Universe
from ..spec import Spec
from .checkpoint import save_checkpoint
from .graph import StateGraph, StateSpaceExplosion
from .stats import ExploreStats

if TYPE_CHECKING:  # pragma: no cover - types only
    from .reduction.por import AmpleReducer, ReductionConfig
    from .reduction.store import StateStore

__all__ = ["StateSpaceExplosion", "initial_states", "explore"]


def initial_states(init: Expr, universe: Universe) -> Iterator[State]:
    """All states of *universe* satisfying the state predicate *init*.

    Implemented by priming the predicate and asking the action compiler for
    the successors of a dummy state: equations ``x = c`` become bindings
    ``x' = c``, so typical initial predicates enumerate without scanning the
    whole universe.
    """
    init = to_expr(init)
    if init.primed_vars():
        raise ValueError(f"initial predicate contains primed variables: {init!r}")
    primed = prime_expr(init)
    dummy_values = {}
    for name in universe.variables:
        try:
            dummy_values[name] = next(iter(universe.domain(name).values()))
        except StopIteration:
            raise ValueError(
                f"variable {name!r} has an empty domain; cannot enumerate "
                f"initial states over it"
            ) from None
    dummy = State(dummy_values)
    yield from compile_action(primed).plan(universe).successors(dummy)


def _seed_graph(
    spec: Spec, max_states: int, store: Optional["StateStore"] = None
) -> Tuple[StateGraph, List[int]]:
    """A fresh graph holding the spec's initial states, plus the level-0
    frontier -- the common starting point of the serial and parallel
    explorers."""
    graph = StateGraph(spec.universe, max_states=max_states, name=spec.name,
                       store=store)
    frontier: List[int] = []
    for state in initial_states(spec.init, spec.universe):
        node, new = graph.add_state(state)
        if new:
            graph.init_nodes.append(node)
            frontier.append(node)
    return graph, frontier


def _resolve_reducer(
    spec: Spec,
    reduction: Optional["ReductionConfig"],
    stats: Optional[ExploreStats],
) -> Optional["AmpleReducer"]:
    """Build the reducer for a run (or record why reduction is off)."""
    if reduction is None:
        return None
    from .reduction.por import build_reducer

    reducer, reason = build_reducer(spec, reduction)
    if stats is not None:
        if reducer is None:
            stats.record_reduction(enabled=False, reason=reason)
        else:
            stats.record_reduction(enabled=True)
    return reducer


class _FullKind:
    """The full engine as a graph-kind plug-in for :func:`_drive`.

    Rows are the :class:`~repro.kernel.state.State` objects of the
    :class:`StateGraph`; an expansion is a successor list, merged by
    :meth:`StateGraph.merge_batch`.  With a *reducer*, an expansion is
    the reducer's ``(tag, successors, pruned)`` triple and the merge is
    :func:`repro.checker.reduction.por.merge_source`, which applies the
    C3 cycle proviso against the live graph in merge order."""

    def __init__(self, spec: Spec, graph: StateGraph,
                 reducer: Optional["AmpleReducer"] = None):
        self.spec = spec
        self.graph = graph
        self.reducer = reducer
        self.rows = graph.states
        if reducer is None:
            plan = compile_action(spec.next_action).plan(spec.universe)
            self.expand = plan.successors
            self.merge = graph.merge_batch
        else:
            from .reduction.por import merge_source

            self.expand = reducer.expand
            self.merge = lambda src, expansion: merge_source(
                graph, src, *expansion, reducer)

    def worker_payload(self) -> tuple:
        """What a pool worker needs to rebuild :attr:`expand`."""
        reducer = self.reducer
        return ("full", self.spec,
                reducer.config if reducer is not None else None)

    def width(self, expansion) -> int:
        """The number of successors in one expansion."""
        return len(expansion if self.reducer is None else expansion[1])

    def save(self, path: str, frontier: List[int], depth: int, levels: int,
             **options) -> None:
        reducer = self.reducer
        save_checkpoint(
            path, self.spec, self.graph, frontier, depth, levels,
            reduction=(reducer.config.as_dict()
                       if reducer is not None else None),
            store=self.graph.store.config(), **options)

    def finish(self, depth: int, elapsed: float,
               stats: Optional[ExploreStats]) -> None:
        reducer = self.reducer
        if reducer is not None:
            # fold the reducer's merge-time counters into the graph/stats
            counters = reducer.counters
            self.graph.reduction_used = bool(counters["ample_states"])
            if stats is not None:
                stats.record_reduction(enabled=True, counters=counters)
        if stats is not None:
            stats.record_explore(self.graph, depth, elapsed)


class _Inline:
    """The expander that ships nothing: the driver's own loop expands
    every level.  It is also the base of the process-pool and
    worker-node expanders, which override the hooks they need."""

    #: the worker count checkpoints record
    workers = 1

    def level(self, kind, frontier: List[int]):
        """``(src, expansion)`` pairs in frontier order, or ``None`` to
        have the driver expand this level inline."""
        return None

    def end_level(self, new_nodes: List[int]) -> None:
        """Called after a level's merge with its new nodes, in order."""

    def section(self) -> Optional[Dict[str, object]]:
        """Extra top-level checkpoint sections."""
        return None

    def close(self) -> None:
        """Release processes or connections, on success or error."""

    def report(self, graph, stats: Optional[ExploreStats]) -> None:
        """Record the expander's share of the run once it completes."""


def _drive(
    kind,
    frontier: List[int],
    depth: int,
    levels: int,
    elapsed_before: float,
    stats: Optional[ExploreStats] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 1,
    start: Optional[float] = None,
    expander: Optional[_Inline] = None,
):
    """The level-synchronous BFS engine, resumable at any level boundary.

    Every exploration entry point seeds a graph, picks its two plug-ins
    and calls this loop:

    * the graph *kind* (:class:`_FullKind`,
      :class:`~repro.checker.compact._CompactKind`, or a distributed
      variant) supplies ``rows``, the inline ``expand``, ``merge``,
      ``save`` and ``finish``;
    * the *expander* (:class:`_Inline` by default, the process pool of
      :mod:`repro.checker.parallel`, or the worker nodes of
      :mod:`repro.checker.distributed`) turns a frontier into
      ``(src, expansion)`` pairs in frontier order.

    Merging in frontier order, whoever expanded, is the whole
    determinism argument: node numbering, BFS parents, the budget's
    insertion point and the digest stream are those of the serial run.

    ``depth`` and ``levels`` are the counters accumulated so far (zero
    for a fresh run), ``elapsed_before`` the seconds a resumed run
    already spent before its checkpoint.  When *checkpoint* is set, the
    run is snapshotted atomically after every ``checkpoint_every``-th
    completed level and once more when the frontier drains; because a
    level is a pure function of (graph, frontier) and the snapshot
    captures both exactly, resuming reproduces the uninterrupted run
    bit-for-bit.
    """
    if start is None:
        start = perf_counter()
    if expander is None:
        expander = _Inline()
    graph = kind.graph
    rows = kind.rows
    expand = kind.expand
    merge = kind.merge
    try:
        while frontier:
            next_frontier: List[int] = []
            extend = next_frontier.extend
            shipped = expander.level(kind, frontier)
            if shipped is None:
                for src in frontier:
                    extend(merge(src, expand(rows[src])))
            else:
                for src, expansion in shipped:
                    extend(merge(src, expansion))
            expander.end_level(next_frontier)
            if stats is not None:
                stats.record_level(len(frontier), graph)
            frontier = next_frontier
            levels += 1
            if frontier:
                depth += 1
            # snapshot on the cadence, plus always once the frontier
            # drains: the file ends reflecting the completed run
            # (resuming it is a no-op)
            if checkpoint is not None and (
                    not frontier or levels % checkpoint_every == 0):
                kind.save(checkpoint, frontier, depth, levels,
                          elapsed_seconds=(elapsed_before
                                           + perf_counter() - start),
                          workers=expander.workers,
                          checkpoint_every=checkpoint_every, stats=stats,
                          extra=expander.section())
    finally:
        expander.close()
    kind.finish(depth, elapsed_before + perf_counter() - start, stats)
    expander.report(graph, stats)
    return graph


def _explore_full(
    spec: Spec,
    max_states: int,
    stats: Optional[ExploreStats],
    checkpoint: Optional[str],
    checkpoint_every: int,
    reduction: Optional["ReductionConfig"],
    store: Optional["StateStore"],
    expander: Optional[_Inline] = None,
) -> StateGraph:
    """Seed a full-engine run and drive it with *expander*."""
    start = perf_counter()
    reducer = _resolve_reducer(spec, reduction, stats)
    # on any error (budget explosion included) close the caller's store:
    # exceptions escape with the graph unreachable to the caller, so this
    # is the only place a spilled run's mmap/file handles get released
    try:
        graph, frontier = _seed_graph(spec, max_states, store=store)
        return _drive(_FullKind(spec, graph, reducer), frontier, depth=0,
                      levels=0, elapsed_before=0.0, stats=stats,
                      checkpoint=checkpoint,
                      checkpoint_every=checkpoint_every, start=start,
                      expander=expander)
    except BaseException:
        if store is not None:
            store.close()
        raise


def explore(
    spec: Spec,
    max_states: int = 200_000,
    stats: Optional[ExploreStats] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 1,
    reduction: Optional["ReductionConfig"] = None,
    store: Optional["StateStore"] = None,
) -> StateGraph:
    """The reachable state graph of ``Init ∧ □[N]_v`` over the spec's universe.

    Edges are ``N`` steps (stutter self-loops implicit on every node).
    Variables outside ``v`` are treated like any other universe variable:
    whatever ``N`` allows.  For a *complete system* -- the only thing the
    Composition Theorem ever asks us to explore -- ``N`` constrains every
    variable, so the graph is finite and tight.

    ``max_states`` is a hard budget on interned states, enforced by the
    graph at insertion time: the first state beyond the budget raises
    :class:`StateSpaceExplosion` (see
    :class:`~repro.checker.graph.StateGraph`).

    Pass ``checkpoint=path`` to snapshot the run atomically every
    ``checkpoint_every`` BFS levels;
    :func:`repro.checker.checkpoint.resume` continues the snapshot
    bit-for-bit identically (including after a crash or an exceeded
    budget -- the last snapshot survives both).

    ``reduction`` / ``store`` plug in partial-order reduction and the
    state-store backend (see :mod:`repro.checker.reduction`); both
    default to off, which is the byte-identical legacy behaviour.
    """
    return _explore_full(spec, max_states, stats, checkpoint,
                         checkpoint_every, reduction, store)
