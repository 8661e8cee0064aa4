"""One validated check plan and the one code path that runs it.

A :class:`CheckPlan` is what ``repro check`` / ``repro explore`` flags
and a service :class:`~repro.service.jobs.CheckRequest` both describe:
which engine answers the obligations and how the explicit exploration
is shaped and persisted.  Both front doors build one, and
:func:`run_plan` is the only code that turns it into verdicts, so the
two surfaces cannot disagree about what a combination of options means.

One rule decides every combination:

* **Reject** (:meth:`CheckPlan.validate`) options that exclude each
  other, or that the chosen engine would silently ignore.
* **Drop with a note** (:func:`run_plan`) an optimisation that cannot
  serve this request or this spec: POR or compact with temporal
  properties, compact on a spec the packed codec cannot represent, the
  symbolic engine on a spec it cannot translate.  The run falls back to
  the full explicit engine, whose verdicts are definitive, so a
  fallback never weakens the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..checker import (
    CompactGraph,
    ExploreStats,
    ReductionConfig,
    build_store,
    check_invariant,
    check_invariant_compact,
    check_temporal_implication,
    decompose,
    explore_compact,
    explore_parallel,
    premises_of_spec,
    resume,
    resume_compact,
)
from ..checker.graph import StateSpaceExplosion
from ..kernel import packed
from .cnf import SymbolicUnsupported
from .result import VIOLATION
from .stats import SolveStats
from .symbolic import DEFAULT_DEPTH, SymbolicEngine

__all__ = ["CheckPlan", "PlanRun", "run_plan"]

_ENGINES = ("explicit", "symbolic")


@dataclass(frozen=True)
class CheckPlan:
    """How to answer a check: the ``check``/``explore`` flags and the
    service request fields, under their own names.

    ``por`` and ``store`` are ``None`` when not given: off for a fresh
    run, and on a resume whatever the checkpoint recorded (an explicit
    value asserts a match instead).
    """

    invariants: Tuple[str, ...] = ()
    properties: Tuple[str, ...] = ()
    engine: str = "explicit"
    depth: Optional[int] = None
    backend: str = "cdcl"
    max_states: int = 200_000
    workers: int = 1
    compact: bool = False
    por: Optional[bool] = None
    store: Optional[str] = None
    spill_dir: Optional[str] = None
    spill_cache: int = 4096
    checkpoint: Optional[str] = None
    checkpoint_every: int = 1
    resume: bool = False
    worker_timeout: Optional[float] = None

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first rule of :data:`_REJECT`
        this plan breaks."""
        for broken, message in _REJECT:
            if broken(self):
                raise ValueError(message)

    def store_config(self) -> Optional[dict]:
        """The ``StateStore`` config the ``store`` options describe."""
        if self.store == "spill":
            return {"kind": "spill", "spill_dir": self.spill_dir,
                    "hot_capacity": self.spill_cache}
        return {"kind": "mem"} if self.store else None


# options that shape or persist the explicit state graph; bounded model
# checking solves a CNF unrolling and builds no graph, so it rejects them
_GRAPH_OPTIONS: Tuple[Tuple[str, Callable[[CheckPlan], bool]], ...] = (
    ("por", lambda plan: bool(plan.por)),
    ("compact", lambda plan: plan.compact),
    ("properties", lambda plan: bool(plan.properties)),
    ("store spill", lambda plan: plan.store == "spill"),
    ("checkpoint", lambda plan: plan.checkpoint is not None),
    ("resume", lambda plan: plan.resume),
    ("worker_timeout", lambda plan: plan.worker_timeout is not None),
    ("workers", lambda plan: plan.workers != 1),
)

_REJECT: Tuple[Tuple[Callable[[CheckPlan], bool], str], ...] = (
    (lambda plan: plan.engine not in _ENGINES,
     "engine must be 'explicit' or 'symbolic'"),
    (lambda plan: plan.depth is not None and plan.engine != "symbolic",
     "depth is the symbolic unrolling bound; it requires engine symbolic"),
    (lambda plan: plan.backend != "cdcl" and plan.engine != "symbolic",
     "backend selects the symbolic engine's SAT solver; it requires "
     "engine symbolic"),
    *((lambda plan, active=active: plan.engine == "symbolic"
       and active(plan),
       f"engine symbolic is incompatible with {name}: bounded model "
       f"checking solves a CNF unrolling and never builds the state graph "
       f"that option configures (drop {name} or use engine explicit)")
      for name, active in _GRAPH_OPTIONS),
    (lambda plan: plan.engine == "symbolic" and not plan.invariants,
     "engine symbolic needs at least one invariant: the CNF encodes "
     "'reach a state violating the invariant within depth steps', so "
     "there is nothing to solve without one"),
    (lambda plan: plan.compact and bool(plan.por),
     "compact and por are mutually exclusive: the compact engine explores "
     "the full graph on packed ints and has no reduction machinery (drop "
     "one of them)"),
    (lambda plan: plan.compact and plan.store == "spill",
     "compact and store spill are mutually exclusive: the compact engine "
     "keeps only packed ints in RAM and uses no state store (it is "
     "already the low-memory engine)"),
    (lambda plan: plan.worker_timeout is not None and plan.workers == 1,
     "worker_timeout only applies to the multi-process engine; workers 1 "
     "runs the serial explorer, which would silently ignore it (use "
     "workers 2+ or 0)"),
)


@dataclass
class PlanRun:
    """What :func:`run_plan` did.

    ``plan`` is the plan as run, after every fallback: its ``engine`` is
    the engine that produced the verdicts, and for the symbolic engine
    its ``depth`` is the resolved bound.  ``checks`` pairs each result
    (a :class:`~repro.checker.results.CheckResult`, or an
    :class:`~repro.engine.result.EngineResult` from the symbolic
    engine) with its kind, ``"invariant"`` or ``"property"``.  A run
    that blew its state budget has ``explosion`` set and no graph.
    """

    plan: CheckPlan
    notes: List[str]
    stats: Optional[object]
    graph: Optional[object] = None
    checks: List[Tuple[str, object]] = field(default_factory=list)
    reduction: Optional[ReductionConfig] = None
    explosion: Optional[StateSpaceExplosion] = None

    @property
    def verdict(self) -> str:
        """``explosion``, ``violation``, or -- with no violation --
        ``ok`` for the explicit engine and ``unknown`` for the bounded
        symbolic one."""
        if self.explosion is not None:
            return "explosion"
        if any(not result.ok
               and getattr(result, "verdict", VIOLATION) == VIOLATION
               for _kind, result in self.checks):
            return "violation"
        return "unknown" if self.plan.engine == "symbolic" else "ok"

    def close(self) -> None:
        """Release the graph's state store (the compact engine has none)."""
        store = getattr(self.graph, "store", None)
        if store is not None:
            store.close()


def run_plan(plan: CheckPlan, spec,
             invariants: Sequence[object] = (),
             properties: Sequence[object] = (),
             stats: Optional[ExploreStats] = None,
             fallback_checkpoint: Optional[Tuple[str, bool]] = None
             ) -> PlanRun:
    """Answer the plan's invariants and temporal properties on *spec*
    the way *plan* asks; *invariants* and *properties* are their
    formulas, in the order of ``plan.invariants`` / ``plan.properties``.

    Rejects an invalid plan with ``ValueError``; applies each fallback
    of the module rule and records it in ``notes``.  *stats* collects
    the explicit run's statistics; a symbolic run reports a fresh
    :class:`~repro.engine.stats.SolveStats` instead (or none, when
    *stats* is ``None``).  A symbolic plan names no checkpoint, because
    it builds no graph to snapshot; *fallback_checkpoint*, a
    ``(path, resume)`` pair, is where the explicit run it falls back to
    checkpoints (continuing the file when ``resume``).  Other plans
    ignore it.  The caller closes the returned run.
    """
    if (len(invariants) != len(plan.invariants)
            or len(properties) != len(plan.properties)):
        raise ValueError("run_plan needs one formula per invariant and "
                         "property the plan names")
    plan.validate()
    invariants = list(zip(plan.invariants, invariants))
    properties = list(zip(plan.properties, properties))
    notes: List[str] = []
    if plan.engine == "symbolic":
        symbolic = _run_symbolic(plan, spec, invariants, stats, notes)
        if symbolic is not None:
            return symbolic
        plan = replace(plan, engine="explicit", depth=None, backend="cdcl")
        if fallback_checkpoint is not None:
            path, resuming = fallback_checkpoint
            plan = replace(plan, checkpoint=path, resume=resuming)
    if plan.properties and plan.por:
        plan = replace(plan, por=False)
        notes.append("partial-order reduction disabled: temporal "
                     "properties need the full graph")
    if plan.properties and plan.compact:
        # lasso search walks successor lists the compact engine drops
        plan = replace(plan, compact=False)
        notes.append("compact engine disabled: temporal properties need "
                     "the full state graph")
    if plan.compact:
        # probed before any checkpoint is touched: the fallback is a pure
        # function of the spec, so a resumed run picks the same engine
        problem = packed.support_problem(spec)
        if problem is not None:
            plan = replace(plan, compact=False)
            notes.append(f"compact engine unavailable for this spec "
                         f"({problem}); ran the full engine")
    reduction = None
    if plan.por:
        # the reduction must keep the invariants' variables visible (C2)
        reduction = ReductionConfig(tuple(sorted(
            {v for _name, expr in invariants for v in expr.free_vars()})))
    run = PlanRun(plan, notes, stats, reduction=reduction)
    try:
        run.graph = _explore(plan, spec, stats, reduction)
        if getattr(run.graph, "reduction_used", False) and any(
                not check_invariant(run.graph, expr, name=name).ok
                for name, expr in invariants):
            # a reduced run may reach the violating state along another
            # shortest path; re-explore the full graph so the reported
            # trace is the canonical POR-off one (the verdict is already
            # equal by the ample conditions), and report only that run
            notes.append("violation found under reduction; re-explored "
                         "the full graph for the canonical counterexample")
            run.close()
            run.graph = None
            if stats is not None:
                stats.reset()
            run.graph = explore_parallel(
                spec, max_states=plan.max_states, workers=plan.workers,
                stats=stats, worker_timeout=plan.worker_timeout)
    except StateSpaceExplosion as exc:
        run.explosion = exc
        return run
    check = (check_invariant_compact if isinstance(run.graph, CompactGraph)
             else check_invariant)
    try:
        for name, expr in invariants:
            run.checks.append(("invariant", check(
                run.graph, expr, name=name, run_stats=stats)))
        for name, formula in properties:
            run.checks.append(("property", check_temporal_implication(
                run.graph, formula, premises=premises_of_spec(spec),
                name=name, run_stats=stats)))
    except BaseException:
        run.close()
        raise
    return run


def _run_symbolic(plan: CheckPlan, spec, invariants, stats,
                  notes: List[str]) -> Optional[PlanRun]:
    """Bound-check every invariant, or ``None`` (with a note) when the
    spec cannot be translated and the explicit engine must answer."""
    depth = DEFAULT_DEPTH if plan.depth is None else plan.depth
    engine = SymbolicEngine(depth=depth, backend=plan.backend)
    solve_stats = SolveStats() if stats is not None else None
    try:
        checks = [("invariant", engine.check_invariant(
            spec, expr, name=name, stats=solve_stats))
            for name, expr in invariants]
    except SymbolicUnsupported as exc:
        notes.append(f"symbolic engine unavailable for this spec ({exc}); "
                     f"ran the full explicit engine")
        return None
    return PlanRun(replace(plan, depth=depth), notes, solve_stats,
                   checks=checks)


def _explore(plan: CheckPlan, spec, stats: Optional[ExploreStats],
             reduction: Optional[ReductionConfig]):
    """Fresh or resumed, compact or full: the one exploration dispatch.

    On a resume, ``por``/``store`` left unset adopt the checkpoint's
    configuration; set ones are forwarded and act as assertions."""
    if plan.compact and plan.resume:
        return resume_compact(plan.checkpoint, spec, workers=plan.workers,
                              max_states=plan.max_states, stats=stats,
                              checkpoint_every=plan.checkpoint_every,
                              worker_timeout=plan.worker_timeout)
    if plan.compact:
        return explore_compact(spec, max_states=plan.max_states,
                               workers=plan.workers, stats=stats,
                               checkpoint=plan.checkpoint,
                               checkpoint_every=plan.checkpoint_every,
                               worker_timeout=plan.worker_timeout)
    if plan.resume:
        adopted = {}
        if plan.por is not None:
            # assert the reduction in effect: a spec the decomposition
            # cannot split runs, and checkpoints, unreduced
            adopted["reduction"] = (reduction if reduction is not None
                                    and decompose(spec).usable else None)
        if plan.store is not None:
            adopted["store"] = plan.store_config()
        return resume(plan.checkpoint, spec, workers=plan.workers,
                      max_states=plan.max_states, stats=stats,
                      checkpoint_every=plan.checkpoint_every,
                      worker_timeout=plan.worker_timeout, **adopted)
    return explore_parallel(
        spec, max_states=plan.max_states, workers=plan.workers, stats=stats,
        checkpoint=plan.checkpoint, checkpoint_every=plan.checkpoint_every,
        worker_timeout=plan.worker_timeout, reduction=reduction,
        store=build_store(plan.store_config()) if plan.store else None)
