"""Checking engines and the one plan that picks between them.

The paper's finite-domain obligations can be decided more than one
way, and mature TLA+ tooling ships several engines over one spec
language (explicit TLC, symbolic Apalache).  This package is that
split for our checker:

* the explicit engine -- exhaustive BFS through :mod:`repro.checker`
  (serial / parallel / compact).  Definitive verdicts; cost grows with
  the reachable state count.
* :class:`~repro.engine.symbolic.SymbolicEngine` -- bounded model
  checking over a CNF translation solved by a small built-in CDCL
  solver (or ``z3`` when installed).  Cost grows with the unrolling
  depth, not the state count, so it answers on specs whose domains
  blow the BFS budget -- but a clean run up to depth *k* is
  :data:`~repro.engine.result.UNKNOWN`, never HOLDS.

:class:`~repro.engine.plan.CheckPlan` is the validated description of
one check, built by ``repro check``/``repro explore`` and by the
service alike; :func:`~repro.engine.plan.run_plan` is the only code
that picks the engine and mode for it.
"""

from __future__ import annotations

from .cnf import SymbolicUnsupported, Translation
from .result import HOLDS, UNKNOWN, VIOLATION, EngineResult
from .sat import BackendUnavailable, CdclBackend, Z3Backend, get_backend
from .stats import SolveStats
from .symbolic import DEFAULT_DEPTH, SymbolicEngine
from .plan import CheckPlan, PlanRun, run_plan

__all__ = [
    "CheckPlan",
    "PlanRun",
    "run_plan",
    "EngineResult",
    "SymbolicEngine",
    "SolveStats",
    "SymbolicUnsupported",
    "Translation",
    "BackendUnavailable",
    "CdclBackend",
    "Z3Backend",
    "get_backend",
    "HOLDS",
    "VIOLATION",
    "UNKNOWN",
    "DEFAULT_DEPTH",
]

