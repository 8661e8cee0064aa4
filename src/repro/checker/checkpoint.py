"""Durable exploration runs: checkpoint, resume, and run manifests.

TLC treats checkpointing as table stakes for industrial model checking --
a multi-hour run must survive an OOM kill, a pre-empted machine, or an
operator ctrl-C.  This module gives our explorer the same durability:

* :func:`save_checkpoint` writes a **versioned, portable** snapshot of a
  run in flight -- the :class:`~repro.checker.graph.StateGraph` built so
  far (states in node order with their process-stable fingerprints,
  adjacency lists in insertion order, the BFS parent tree, the
  real-vs-stutter edge split), the frontier still to expand, the BFS
  depth, and the cumulative :class:`~repro.checker.stats.ExploreStats`
  counters.  Writes are atomic (write-temp-then-``os.replace``), so a
  crash *during* checkpointing leaves the previous snapshot intact.
* :func:`load_checkpoint` / :func:`resume` reload a snapshot and continue
  the run **bit-for-bit identically** to an uninterrupted one: same node
  numbering, same adjacency order, same parents, hence the same
  counterexample traces and the same
  :class:`~repro.checker.graph.StateSpaceExplosion` insertion point.
  The determinism argument is short: checkpoints are taken only at BFS
  level boundaries, the restored graph is bit-identical to the live one
  at that boundary, and a BFS level expansion is a pure function of
  (graph, frontier) -- see DESIGN.md 4d.
* :func:`write_manifest` emits a small JSON run manifest (spec name,
  budget, worker count, wall time, outcome, rendered counterexample if
  any) next to the checkpoint -- the machine-readable artifact CI
  uploads per run.

States are serialized with the tagged JSON encoding of
:func:`repro.kernel.state.value_to_portable` (no pickle), so checkpoint
files are stable across interpreter processes and ``PYTHONHASHSEED``
values.  The spec itself *is* embedded as a pickle (base64) purely as a
convenience so ``resume(path)`` works standalone; passing ``spec=``
explicitly to :func:`resume` skips it entirely.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import tempfile
from typing import Dict, List, Optional, Sequence

from ..kernel.state import State, value_to_portable
from ..spec import Spec
from .graph import StateGraph
from .results import Counterexample
from .stats import ExploreStats

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "resume",
    "manifest_path_for",
    "write_manifest",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

# resume()'s "keep writing to the file we loaded from" default
_SAME_PATH = object()

# resume()'s "adopt whatever the checkpoint recorded" default for the
# reduction / store configurations (None is a meaningful explicit value:
# "I want this run unreduced / in-RAM", which must *match* the snapshot)
_ADOPT = object()


class CheckpointError(Exception):
    """A checkpoint file is missing, malformed, or fails integrity checks."""


def _atomic_write_json(path: str, payload: Dict[str, object]) -> None:
    """Serialize *payload* to *path* via write-temp-then-rename.

    ``os.replace`` is atomic on POSIX and Windows, so readers (and a
    crash mid-write) only ever observe the old complete file or the new
    complete file, never a truncated one.
    """
    path = os.path.abspath(path)
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def save_checkpoint(
    path: str,
    spec: Spec,
    graph: StateGraph,
    frontier: Sequence[int],
    depth: int,
    levels: int,
    elapsed_seconds: float,
    workers: int = 1,
    checkpoint_every: int = 1,
    stats: Optional[ExploreStats] = None,
    reduction: Optional[Dict[str, object]] = None,
    store: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Atomically snapshot a run at a BFS level boundary.

    ``depth`` is the stats-visible frontier depth so far, ``levels`` the
    number of completed expansion rounds (the checkpoint cadence
    counter), ``frontier`` the node ids still to expand -- exactly the
    loop state of :func:`~repro.checker.explorer.explore` between two
    levels.  ``reduction`` / ``store`` are the effective
    partial-order-reduction and state-store configurations of the run
    (``ReductionConfig.as_dict()`` / ``StateStore.config()``), recorded
    so :func:`resume` continues under the *same* semantics -- resuming a
    reduced run unreduced (or vice versa) would not reproduce the run.
    Spill-store states are re-interned from this snapshot on resume, so
    the snapshot is self-contained even if the spill files are lost.
    """
    variables = list(graph.universe.variables)
    rows: List[List[object]] = []
    fingerprints: List[str] = []
    for state in graph.states:
        rows.append([value_to_portable(state[name]) for name in variables])
        fingerprints.append(format(state.fingerprint(), "016x"))
    payload: Dict[str, object] = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "spec_name": spec.name,
        "spec_pickle": base64.b64encode(
            pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii"),
        "max_states": graph.max_states,
        "workers": workers,
        "checkpoint_every": checkpoint_every,
        "depth": depth,
        "levels": levels,
        "elapsed_seconds": elapsed_seconds,
        "graph": {
            "variables": variables,
            "states": rows,
            "fingerprints": fingerprints,
            # stutter self-loops are implied (one per node, always first
            # in the adjacency list); only the real N-edges are stored
            "succ": [adj[1:] for adj in graph.succ],
            "parent": graph.parent,
            "init_nodes": graph.init_nodes,
        },
        "frontier": list(frontier),
        "stats": stats.as_dict() if stats is not None else None,
        "reduction": reduction,
        "store": store,
    }
    if extra:
        # additional top-level sections (the distributed coordinator's
        # level manifest); load_checkpoint keeps them readable on
        # Checkpoint.payload and otherwise ignores them
        payload.update(extra)
    _atomic_write_json(path, payload)


class Checkpoint:
    """A loaded checkpoint: validated metadata plus graph reconstruction."""

    __slots__ = ("path", "payload", "spec_name", "max_states", "workers",
                 "checkpoint_every", "depth", "levels", "elapsed_seconds",
                 "frontier", "stats_snapshot", "reduction_config",
                 "store_config", "_graph_data", "_spec_pickle")

    def __init__(self, path: str, payload: Dict[str, object]):
        self.path = path
        self.payload = payload
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{path}: not a {CHECKPOINT_FORMAT} file "
                f"(format={payload.get('format')!r})"
            )
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        if payload.get("mode") == "compact":
            raise CheckpointError(
                f"{path}: checkpoint was written by the compact engine; "
                f"resume it with --compact "
                f"(repro.checker.compact.resume_compact)"
            )
        try:
            self.spec_name: str = payload["spec_name"]
            self.max_states: Optional[int] = payload["max_states"]
            self.workers: int = payload["workers"]
            self.checkpoint_every: int = payload["checkpoint_every"]
            self.depth: int = payload["depth"]
            self.levels: int = payload["levels"]
            self.elapsed_seconds: float = payload["elapsed_seconds"]
            self.frontier: List[int] = list(payload["frontier"])
            self._graph_data: Dict[str, object] = payload["graph"]
            self._spec_pickle: str = payload["spec_pickle"]
        except KeyError as exc:
            raise CheckpointError(f"{path}: missing field {exc}") from None
        self.stats_snapshot: Optional[Dict[str, object]] = payload.get("stats")
        # pre-reduction checkpoints carry neither key: both read as None,
        # meaning "full exploration, in-RAM store" -- the legacy semantics
        self.reduction_config: Optional[Dict[str, object]] = \
            payload.get("reduction")
        self.store_config: Optional[Dict[str, object]] = payload.get("store")

    def load_spec(self) -> Spec:
        """Unpickle the embedded spec (for standalone ``resume(path)``)."""
        try:
            return pickle.loads(base64.b64decode(self._spec_pickle))
        except Exception as exc:
            raise CheckpointError(
                f"{self.path}: embedded spec cannot be unpickled ({exc}); "
                f"pass the spec to resume() explicitly"
            ) from exc

    def restore_graph(self, spec: Spec,
                      max_states: Optional[int] = None,
                      store: object = None) -> StateGraph:
        """Rebuild the graph against *spec*'s universe, verifying that the
        stored variables match and that every decoded state reproduces its
        stored fingerprint (corruption / encoding-drift detection).

        *store* is the :class:`~repro.checker.reduction.store.StateStore`
        to re-intern the states through (default: fresh in-RAM store);
        spill stores rebuild their data/index files from the snapshot, so
        resuming never depends on the old spill files surviving."""
        data = self._graph_data
        variables = list(data["variables"])
        if variables != list(spec.universe.variables):
            raise CheckpointError(
                f"{self.path}: checkpoint variables {variables} do not match "
                f"spec {spec.name!r} variables {list(spec.universe.variables)}"
            )
        states: List[State] = []
        for node, row in enumerate(data["states"]):
            state = State.from_portable(dict(zip(variables, row)))
            expected = data["fingerprints"][node]
            actual = format(state.fingerprint(), "016x")
            if actual != expected:
                raise CheckpointError(
                    f"{self.path}: state {node} fingerprint mismatch "
                    f"({actual} != stored {expected}); the checkpoint is "
                    f"corrupt or was written by an incompatible encoder"
                )
            states.append(state)
        return StateGraph.restore(
            spec.universe,
            states,
            data["succ"],
            data["parent"],
            data["init_nodes"],
            max_states=self.max_states if max_states is None else max_states,
            name=spec.name,
            store=store,
        )


def _read_checkpoint_payload(path: str) -> Dict[str, object]:
    """Read and JSON-parse a checkpoint file (shared by both engines)."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    return payload


def load_checkpoint(path: str) -> Checkpoint:
    """Parse and validate a full-engine checkpoint file."""
    return Checkpoint(path, _read_checkpoint_payload(path))


def _reduction_dict(reduction: object) -> Optional[Dict[str, object]]:
    """Normalize a ReductionConfig-or-dict-or-None to the as_dict form."""
    if reduction is None or isinstance(reduction, dict):
        return reduction
    return reduction.as_dict()  # a ReductionConfig


def _store_kind(config: Optional[Dict[str, object]]) -> str:
    return "mem" if config is None else str(config.get("kind", "mem"))


def resume(
    path: str,
    spec: Optional[Spec] = None,
    *,
    workers: Optional[int] = None,
    max_states: Optional[int] = None,
    stats: Optional[ExploreStats] = None,
    checkpoint: object = _SAME_PATH,
    checkpoint_every: Optional[int] = None,
    worker_timeout: Optional[float] = None,
    fault_hook: object = None,
    reduction: object = _ADOPT,
    store: object = _ADOPT,
) -> StateGraph:
    """Continue an exploration from a checkpoint, bit-for-bit.

    The restored run picks up at the stored BFS level boundary and
    produces exactly the graph an uninterrupted run would have: same
    numbering, adjacency, parents, traces, and budget behaviour.

    *spec* defaults to the pickle embedded in the checkpoint; *workers*,
    *max_states*, and *checkpoint_every* default to the stored values
    (pass ``max_states`` explicitly to continue an exploded run under a
    larger budget).  By default the resumed run keeps checkpointing to
    the same *path*; pass ``checkpoint=None`` to disable further
    snapshots, or another path to redirect them.

    The run's partial-order-reduction and state-store semantics are
    adopted from the snapshot by default.  Passing ``reduction`` (a
    :class:`~repro.checker.reduction.por.ReductionConfig`, its dict
    form, or ``None`` for "unreduced") or ``store`` (a
    ``StateStore.config()`` dict, or ``None`` for in-RAM) asserts what
    the caller *expects* the run to be: a mismatch with the snapshot
    raises :class:`CheckpointError` instead of silently continuing the
    run under different semantics, which would not reproduce it.  For a
    spill store the directory/capacity may differ (the files are rebuilt
    from the snapshot); only the store *kind* must match.
    """
    loaded = load_checkpoint(path)
    from .parallel import _pool_for, _resolve_workers
    worker_count = _resolve_workers(
        loaded.workers if workers is None else workers, worker_timeout,
        fault_hook)
    if spec is None:
        spec = loaded.load_spec()

    if reduction is _ADOPT:
        reduction_cfg = loaded.reduction_config
    else:
        reduction_cfg = _reduction_dict(reduction)
        if reduction_cfg != loaded.reduction_config:
            raise CheckpointError(
                f"{path}: checkpoint was written with reduction config "
                f"{loaded.reduction_config!r} but the resume requested "
                f"{reduction_cfg!r}; resuming under different reduction "
                f"semantics would not reproduce the run"
            )
    store_cfg: Optional[Dict[str, object]]
    if store is _ADOPT:
        store_cfg = loaded.store_config
    else:
        store_cfg = store  # type: ignore[assignment]
        if _store_kind(store_cfg) != _store_kind(loaded.store_config):
            raise CheckpointError(
                f"{path}: checkpoint was written with a "
                f"{_store_kind(loaded.store_config)!r} state store but the "
                f"resume requested {_store_kind(store_cfg)!r}; pick one or "
                f"drop the flag to adopt the checkpoint's store"
            )
    from .reduction.por import ReductionConfig
    from .reduction.store import build_store
    reducer_config = (
        ReductionConfig(tuple(reduction_cfg.get("observed_vars", ())))
        if reduction_cfg is not None else None)

    run_store = build_store(store_cfg)
    # close the store we just built on any error path: a resume that
    # explodes (or crashes) never hands the graph back, so this is the
    # only chance to release a spill store's mmap/file handles
    try:
        graph = loaded.restore_graph(spec, max_states=max_states,
                                     store=run_store)
        if stats is not None and loaded.stats_snapshot:
            stats.restore(loaded.stats_snapshot)
        target = path if checkpoint is _SAME_PATH else checkpoint
        every = loaded.checkpoint_every if checkpoint_every is None \
            else checkpoint_every
        from .explorer import _FullKind, _drive, _resolve_reducer
        reducer = _resolve_reducer(spec, reducer_config, stats)
        return _drive(_FullKind(spec, graph, reducer), list(loaded.frontier),
                      depth=loaded.depth, levels=loaded.levels,
                      elapsed_before=loaded.elapsed_seconds, stats=stats,
                      checkpoint=target, checkpoint_every=every,
                      expander=_pool_for(worker_count, worker_timeout,
                                         fault_hook, stats))
    except BaseException:
        run_store.close()
        raise


# -- run manifests -----------------------------------------------------------


def manifest_path_for(checkpoint_path: str) -> str:
    """The manifest's conventional location: next to the checkpoint."""
    return checkpoint_path + ".manifest.json"


def counterexample_to_portable(cex: Counterexample) -> Dict[str, object]:
    """A JSON-serializable rendition of a counterexample trace."""
    payload: Dict[str, object] = {
        "reason": cex.reason,
        "kind": "lasso" if cex.is_lasso else "finite",
        "states": [state.to_portable() for state in cex.states()],
        "rendered": cex.render(),
    }
    if cex.is_lasso:
        payload["loop_start"] = cex.trace.loop_start
    return payload


def write_manifest(
    path: str,
    *,
    spec_name: str,
    max_states: Optional[int],
    workers: int,
    wall_seconds: float,
    outcome: str,
    states: Optional[int] = None,
    edges: Optional[int] = None,
    counterexample: Optional[Counterexample] = None,
    stats: Optional[ExploreStats] = None,
    error: Optional[str] = None,
    reduction: Optional[Dict[str, object]] = None,
    store: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Atomically write a JSON run manifest; returns the payload.

    *outcome* is one of ``"ok"`` (all checks passed / exploration
    completed), ``"violation"`` (a counterexample was found),
    ``"explosion"`` (the state budget was exceeded), or ``"error"``.
    ``reduction`` / ``store`` record the *effective* reduction and
    state-store configuration of the run (after any auto-disable), so
    the artifact says what semantics actually produced the verdict.
    """
    payload: Dict[str, object] = {
        "format": "repro-run-manifest",
        "version": CHECKPOINT_VERSION,
        "spec": spec_name,
        "max_states": max_states,
        "workers": workers,
        "wall_seconds": wall_seconds,
        "outcome": outcome,
        "states": states,
        "edges": edges,
        "counterexample": (counterexample_to_portable(counterexample)
                           if counterexample is not None else None),
        "stats": stats.as_dict() if stats is not None else None,
        "error": error,
        "reduction": reduction,
        "store": store,
    }
    _atomic_write_json(path, payload)
    return payload
