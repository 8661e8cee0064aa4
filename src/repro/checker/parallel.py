"""Parallel sharded BFS exploration of canonical specifications.

:func:`explore_parallel` distributes the successor enumeration of each
BFS level across worker processes while keeping the *merge* of results
strictly serial, which makes the parallel explorer **bit-for-bit
deterministic**: the resulting :class:`~repro.checker.graph.StateGraph`
has the same states, the same node numbering, the same edges, the same
BFS parent tree (hence the same counterexample traces), and the same
:class:`~repro.checker.graph.StateSpaceExplosion` behaviour as a serial
:func:`~repro.checker.explorer.explore` run -- regardless of worker
count, chunking, scheduling, **or worker failures**.  ``workers=1`` *is*
the serial explorer, so the serial path remains the reference
semantics; ``tests/test_parallel_differential.py`` checks the
equivalence for every bundled system and
``tests/test_fault_injection.py`` re-checks it under injected crashes.

How the work is sharded
-----------------------

This module owns no BFS loop.  :class:`_ChunkRunner` is an *expander* for the
one driver, :func:`repro.checker.explorer._drive`, and serves both
graph kinds: full states (:func:`explore_parallel`, parallel
:func:`~repro.checker.checkpoint.resume`) and packed ints
(:func:`~repro.checker.compact.explore_compact`,
:func:`~repro.checker.compact.resume_compact`).  Per BFS level it:

1. cuts the frontier (node ids in serial-BFS order) into contiguous
   chunks of rows -- the chunk size is a pure function of frontier
   length and worker count, so the sharding itself is deterministic,
2. submits the chunks to a ``concurrent.futures`` process pool and
   retrieves results strictly in **submission order**, and
3. pairs each returned expansion with its source **by position** (the
   k-th expansion of a chunk belongs to the k-th source of that chunk)
   and hands the pairs to the driver, which merges them in that order
   -- exactly the order the serial explorer uses.  Reduced runs merge
   through :func:`repro.checker.reduction.por.merge_source`, which
   applies the C3 cycle proviso on the coordinator in merge order, so
   the reduced graph too is identical for every worker count.

Positional pairing needs no key per source, so colliding state
fingerprints cannot mix up sources.  Levels narrower than
``workers * _MIN_CHUNK`` are left to the driver's inline loop: shipping
them would cost more than computing them.

Worker-crash recovery
---------------------

A worker that dies mid-chunk (OOM kill, segfault, ``SIGKILL``) surfaces
as a broken pool; a worker that exceeds the per-chunk ``worker_timeout``
surfaces as a timeout.  Either way the coordinator tears the pool down,
spins up fresh processes, and resubmits every chunk whose result it has
not merged yet.  This cannot change the explored graph: chunk expansion
is **pure** (workers only read frontier rows and drive a deterministic
plan; nothing is merged until a
chunk's full result arrives), and the merge order is the chunk
submission order whatever the retry history -- so a retried run is
bit-for-bit the run without failures.  Retries are counted on
:class:`~repro.checker.stats.ExploreStats` (``worker_retries``); a chunk
that keeps failing raises :class:`WorkerFailure` after
``_MAX_CHUNK_RETRIES`` attempts.

Workers are started lazily and initialised once: each unpickles the
graph kind's ``(engine, spec, reduction)`` payload in its initializer
and builds its own expansion function -- a
:class:`~repro.kernel.action.SuccessorPlan`, the reducer's ample-set
expansion, or a :class:`~repro.kernel.packed.PackedPlan` -- compiled
once and driven for every chunk, so the per-chunk payload is only the
frontier rows and the per-chunk result only their expansions.  Worker-side busy time
and coordinator idle time are recorded on the optional
:class:`~repro.checker.stats.ExploreStats`.

Durable runs: ``checkpoint=path`` snapshots the run at BFS level
boundaries exactly like the serial explorer (see
:mod:`repro.checker.checkpoint`); resuming with any worker count yields
the identical graph.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..kernel.action import compile_action
from ..kernel.packed import PackedPlan
from ..kernel.state import State
from ..spec import Spec
from .explorer import _Inline, _explore_full
from .graph import StateGraph
from .stats import ExploreStats

if TYPE_CHECKING:  # pragma: no cover - types only
    from .reduction.por import ReductionConfig
    from .reduction.store import StateStore

__all__ = ["explore_parallel", "default_workers", "WorkerFailure"]

# one payload per chunk: the frontier rows (States or packed ints) of a
# contiguous slice of the frontier, in frontier order
_Chunk = List[object]
# one result per chunk: (worker_pid, busy_seconds, expansions) with one
# expansion per chunk row, in chunk order -- results pair with their
# sources by position
_ChunkResult = Tuple[int, float, List[object]]
# optional fault-injection hook, called in the worker once per chunk
_FaultHook = Optional[Callable[[_Chunk], None]]

# targeted chunks per worker per level: >1 so a worker that drew cheap
# sources can pick up another chunk instead of idling at the level barrier
_CHUNKS_PER_WORKER = 4

# never cut chunks smaller than this many sources: per-task pool overhead
# (dispatch, pickling envelopes, result queueing) swamps the successor
# work for tiny chunks
_MIN_CHUNK = 16

# a chunk that failed this many times in a row aborts the run: by then the
# failure is systematic (the chunk itself crashes the worker), not flaky
# infrastructure, and retrying forever would loop
_MAX_CHUNK_RETRIES = 3


class WorkerFailure(Exception):
    """A frontier chunk kept crashing or timing out after all retries."""


# worker-process globals, set once by _init_worker: a pure
# row -> expansion function
_worker_expand: Optional[Callable[[object], object]] = None
_worker_fault: _FaultHook = None


def default_workers() -> int:
    """The worker count ``--workers 0`` resolves to: one per available
    core (respecting CPU affinity where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def _resolve_workers(workers: int, worker_timeout: Optional[float] = None,
                     fault_hook: _FaultHook = None) -> int:
    """The worker count a run uses, shared by every single-machine entry
    point: ``0`` auto-sizes to :func:`default_workers`, a negative count
    is an error, and so is ``1`` together with an option only the
    multi-process engine honours -- a silent degrade would ignore it.
    Auto-sizing is exempt, since it never resolves below the core
    count."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 1 and (worker_timeout is not None
                         or fault_hook is not None):
        raise ValueError(
            "workers=1 runs the serial engine, which would silently "
            "ignore worker_timeout/fault_hook; drop those options or "
            "use workers >= 2 (workers=0 auto-sizes)")
    return default_workers() if workers == 0 else workers


def _init_worker(payload: bytes, fault_hook: _FaultHook = None) -> None:
    """Pool initializer: unpickle a graph kind's ``(engine, spec,
    reduction config)`` and build its expansion function once; every
    chunk this worker processes reuses it.

    The compact engine drives a :class:`~repro.kernel.packed.PackedPlan`;
    the full engine a :class:`~repro.kernel.action.SuccessorPlan`, or,
    with reduction on, the *same* reducer the coordinator derived
    (decomposition is a pure function of the spec), so per-state ample
    decisions are identical on both sides."""
    global _worker_expand, _worker_fault
    engine, spec, reduction = pickle.loads(payload)
    if engine == "compact":
        _worker_expand = PackedPlan(spec).successors
    elif reduction is not None:
        from .reduction.por import build_reducer

        _worker_expand = build_reducer(spec, reduction)[0].expand
    else:
        successors = compile_action(spec.next_action).plan(
            spec.universe).successors

        def expand(state: State) -> List[State]:
            return list(successors(state))
        _worker_expand = expand
    _worker_fault = fault_hook


def _expand_chunk(chunk: _Chunk) -> _ChunkResult:
    """Worker body: expand every row of one frontier chunk."""
    expand = _worker_expand
    assert expand is not None, "worker used before initialization"
    if _worker_fault is not None:
        _worker_fault(chunk)
    start = perf_counter()
    expansions = [expand(row) for row in chunk]
    return os.getpid(), perf_counter() - start, expansions


class _ChunkRunner(_Inline):
    """The process-pool expander: ships each wide level to the worker
    processes in contiguous chunks, retrieves the results in submission
    order, and pairs them with their sources by position -- so the
    driver merges in frontier order whatever the worker count,
    scheduling or retry history.  Levels narrower than
    ``workers * _MIN_CHUNK`` return ``None`` and are expanded by the
    driver itself.

    The pool is created lazily (a run whose frontiers all stay below the
    inline threshold never forks a process) and torn down + respawned on
    worker death or per-chunk timeout; chunks whose results were already
    merged are never resubmitted, so the merge stream the driver sees is
    exactly the no-failure stream.
    """

    def __init__(self, workers: int, worker_timeout: Optional[float],
                 fault_hook: _FaultHook, stats: Optional[ExploreStats]):
        self.workers = workers
        self._timeout = worker_timeout
        self._fault_hook = fault_hook
        self._stats = stats
        # fork is the cheap path where available (Linux); spawn/forkserver
        # workers rebuild everything from the pickled payload anyway
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods
                                               else methods[0])
        self._payload: Optional[bytes] = None  # set by the first shipment
        self._executor: Optional[ProcessPoolExecutor] = None
        self._idle = 0.0
        self._worker_ids: Dict[int, int] = {}  # pid -> dense worker id

    def level(self, kind, frontier: List[int]):
        # frontiers smaller than workers * _MIN_CHUNK are expanded inline
        # (shipping them would cost more than computing them); the narrow
        # first/last BFS levels of most systems take this path
        if len(frontier) < self.workers * _MIN_CHUNK:
            return None
        if self._payload is None:
            self._payload = pickle.dumps(kind.worker_payload(),
                                         protocol=pickle.HIGHEST_PROTOCOL)
        # ceil-divide into at most workers * _CHUNKS_PER_WORKER chunks of
        # at least _MIN_CHUNK sources -- a pure function of
        # (len(frontier), workers), hence deterministic
        size = max(_MIN_CHUNK, -(-len(frontier)
                                 // (self.workers * _CHUNKS_PER_WORKER)))
        parts = [frontier[i:i + size] for i in range(0, len(frontier), size)]
        rows = kind.rows
        chunks = [[rows[src] for src in part] for part in parts]
        return self._pairs(kind, parts, self.run_level(chunks))

    def _pairs(self, kind, parts: List[List[int]],
               results: Iterator[_ChunkResult]):
        """Stream ``(src, expansion)`` pairs chunk by chunk, so merging a
        chunk overlaps with the workers expanding the next ones."""
        stats = self._stats
        wait_from = perf_counter()
        for part, (pid, busy, expansions) in zip(parts, results):
            self._idle += perf_counter() - wait_from
            if stats is not None:
                stats.record_worker_batch(
                    self._worker_ids.setdefault(pid, len(self._worker_ids)),
                    sources=len(expansions),
                    successors=sum(map(kind.width, expansions)),
                    busy_seconds=busy,
                )
            yield from zip(part, expansions)
            wait_from = perf_counter()

    def report(self, graph, stats: Optional[ExploreStats]) -> None:
        if stats is not None:
            stats.record_parallel(self.workers, self._idle)

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._ctx,
                initializer=_init_worker,
                initargs=(self._payload, self._fault_hook),
            )
        return self._executor

    def close(self) -> None:
        """Drop the pool hard: kill worker processes (they may be hung or
        already dead) and abandon the executor."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except (OSError, AttributeError):  # pragma: no cover - racy exit
                pass
        executor.shutdown(wait=False)

    def _wait_budget(self, outstanding: int) -> Optional[float]:
        """How long to wait for the next result: the per-chunk timeout
        scaled by the number of chunks each worker still has to get
        through, so queued-but-healthy chunks are not misdiagnosed."""
        if self._timeout is None:
            return None
        rounds = -(-outstanding // self.workers)  # ceil division
        return self._timeout * max(1, rounds)

    def run_level(self, chunks: List[_Chunk]) -> Iterator[_ChunkResult]:
        """Yield one result per chunk, in chunk order, retrying failures."""
        attempts = [0] * len(chunks)
        futures: Optional[List] = None
        index = 0
        while index < len(chunks):
            if futures is None:
                executor = self._ensure()
                submitted = [executor.submit(_expand_chunk, chunk)
                             for chunk in chunks[index:]]
                futures = [None] * index + submitted
            try:
                result = futures[index].result(
                    timeout=self._wait_budget(len(chunks) - index))
            except _FutureTimeout:
                futures = self._retry(index, attempts, "timeout")
                continue
            except (BrokenProcessPool, EOFError, OSError):
                futures = self._retry(index, attempts, "crash")
                continue
            yield result
            index += 1

    def _retry(self, index: int, attempts: List[int], reason: str) -> None:
        """Account one failure of chunk *index* and reset the pool; the
        caller resubmits every unmerged chunk on the fresh pool."""
        attempts[index] += 1
        if self._stats is not None:
            self._stats.record_retry(reason)
        self.close()
        if attempts[index] > _MAX_CHUNK_RETRIES:
            raise WorkerFailure(
                f"frontier chunk {index} failed {attempts[index]} times "
                f"(last failure: {reason}); giving up -- the chunk itself "
                f"appears to crash or hang the worker"
            )
        return None


def _pool_for(workers: int, worker_timeout: Optional[float],
              fault_hook: _FaultHook,
              stats: Optional[ExploreStats]) -> Optional[_ChunkRunner]:
    """The expander for a resolved worker count: a pool from two
    workers up, else ``None`` (the driver's inline loop)."""
    return (_ChunkRunner(workers, worker_timeout, fault_hook, stats)
            if workers > 1 else None)


def explore_parallel(
    spec: Spec,
    max_states: int = 200_000,
    workers: int = 1,
    stats: Optional[ExploreStats] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 1,
    worker_timeout: Optional[float] = None,
    fault_hook: _FaultHook = None,
    reduction: Optional["ReductionConfig"] = None,
    store: Optional["StateStore"] = None,
) -> StateGraph:
    """The reachable state graph of ``Init ∧ □[N]_v``, explored with
    *workers* processes.

    Produces a graph identical to ``explore(spec, max_states)`` -- same
    states in the same node order, same edges, same ``init_nodes``, same
    BFS parent tree, and :class:`StateSpaceExplosion` raised at the same
    insertion -- for every worker count, even when workers crash or hang
    mid-chunk.  ``workers <= 1`` delegates to the serial explorer;
    ``workers=0`` is resolved by :func:`default_workers` to one worker
    per available core.

    ``worker_timeout`` bounds the seconds a worker may spend on one
    chunk; a chunk whose worker dies or exceeds the timeout is re-run on
    a fresh process (retries land in ``stats.worker_retries``), and a
    chunk failing ``_MAX_CHUNK_RETRIES`` times raises
    :class:`WorkerFailure`.  ``checkpoint`` / ``checkpoint_every``
    snapshot the run at BFS level boundaries exactly like the serial
    explorer.  ``fault_hook`` is a picklable callable invoked in the
    worker once per chunk -- the fault-injection seam the crash-recovery
    tests use; leave it ``None`` in production.

    ``reduction`` / ``store`` plug in partial-order reduction and the
    state-store backend exactly as in :func:`explore`; the reduced graph
    is still bit-for-bit identical across worker counts (workers compute
    ample sets, the coordinator applies the cycle proviso in serial
    merge order).  Requesting ``workers=1`` explicitly together with
    options that only the multi-process engine honours
    (``worker_timeout`` / ``fault_hook``) is an error rather than a
    silent degrade; ``workers=0`` auto-sizing is exempt because it never
    resolves below the core count.
    """
    workers = _resolve_workers(workers, worker_timeout, fault_hook)
    return _explore_full(spec, max_states, stats, checkpoint,
                         checkpoint_every, reduction, store,
                         expander=_pool_for(workers, worker_timeout,
                                            fault_hook, stats))
