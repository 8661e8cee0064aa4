"""State-space reduction: partial-order reduction + pluggable stores.

The subsystem has two cooperating layers, both wired through the
explorer, the parallel coordinator, checkpoints, stats, and the CLI:

* :mod:`~repro.checker.reduction.independence` +
  :mod:`~repro.checker.reduction.por` -- derive ⊥-independence between
  transition classes from the paper's ``Disjoint`` shape and prune
  successor expansion with ample/stubborn sets (invariant and deadlock
  verdicts preserved; liveness/refinement auto-disable reduction).
* :mod:`~repro.checker.reduction.store` -- the ``StateStore`` protocol
  behind :class:`~repro.checker.graph.StateGraph` interning, with the
  default in-RAM store and a fingerprint-indexed disk spill store.

Running an invariant check under POR -- including the full
re-exploration that recovers the canonical (POR-off) counterexample
trace after a reduced run finds a violation -- is
:func:`repro.engine.plan.run_plan`'s job.
"""

from __future__ import annotations

from .independence import Decomposition, TransitionClass, decompose
from .por import (
    EXPAND_AMPLE,
    EXPAND_FULL,
    AmpleReducer,
    ReductionConfig,
    build_reducer,
    merge_source,
)
from .store import MemoryStateStore, SpillStateStore, StateStore, build_store

__all__ = [
    "Decomposition",
    "TransitionClass",
    "decompose",
    "ReductionConfig",
    "AmpleReducer",
    "build_reducer",
    "merge_source",
    "EXPAND_FULL",
    "EXPAND_AMPLE",
    "StateStore",
    "MemoryStateStore",
    "SpillStateStore",
    "build_store",
]

