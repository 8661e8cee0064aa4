"""One CheckPlan rule behind ``repro check`` and the checking service.

Both front doors translate their input -- flags or a JSON request --
into a :class:`~repro.engine.plan.CheckPlan` and run it with
:func:`~repro.engine.plan.run_plan`, so:

* every reject rule refuses the same combination on both surfaces with
  the same message (rules over options the service does not expose are
  compared with ``CheckPlan.validate`` itself);
* every degrade rule completes on both surfaces with the same note and
  the graph a plain full run builds;
* after a violation under partial-order reduction, the canonical
  re-exploration's statistics describe the reported graph alone.
"""

from __future__ import annotations

import re

import pytest

from repro.checker import ExploreStats
from repro.engine.plan import CheckPlan, run_plan
from repro.kernel.expr import Cmp, Len, Var
from repro.service.jobs import CheckRequest, run_check
from repro.systems.queue import QueueChain

from .test_tools_cli import COUNTER_TLA, run_cli

# one variable with 2^20 + 1 values: one more than the packed codec
# (and so the compact and symbolic engines) can represent, while the
# reachable graph is four states
WIDE_TLA = """
MODULE Wide
VARIABLE x \\in 0..1048576
Init == x = 0
Next == x' = IF x < 3 THEN x + 1 ELSE x
Spec == Init /\\ [][Next]_<<x>>
Small == x < 3
"""

# two independent counters: with only x observed, POR expands y's steps
# alone, so a violation of Inv is found under reduction
TWO_TLA = """
MODULE Two
VARIABLE x \\in 0..3
VARIABLE y \\in 0..3
Init == x = 0 /\\ y = 0
IncX == x < 3 /\\ x' = x + 1 /\\ y' = y
IncY == y < 3 /\\ y' = y + 1 /\\ x' = x
Next == IncX \\/ IncY
Spec == Init /\\ [][Next]_<<x, y>>
Inv == x < 3
"""

# (repro check flags, service request fields, message fragment)
REJECT_BOTH = [
    pytest.param(["--invariant", "Small", "--compact", "--por"],
                 {"invariants": ["Small"], "compact": True, "por": True},
                 "compact and por are mutually exclusive", id="compact-por"),
    pytest.param(["--invariant", "Small", "--depth", "5"],
                 {"invariants": ["Small"], "depth": 5},
                 "depth is the symbolic unrolling bound", id="depth"),
    pytest.param(["--engine", "symbolic", "--invariant", "Small", "--por"],
                 {"engine": "symbolic", "invariants": ["Small"],
                  "por": True},
                 "engine symbolic is incompatible with por", id="sym-por"),
    pytest.param(["--engine", "symbolic", "--invariant", "Small",
                  "--compact"],
                 {"engine": "symbolic", "invariants": ["Small"],
                  "compact": True},
                 "engine symbolic is incompatible with compact",
                 id="sym-compact"),
    pytest.param(["--engine", "symbolic", "--invariant", "Small",
                  "--property", "Progress"],
                 {"engine": "symbolic", "invariants": ["Small"],
                  "properties": ["Progress"]},
                 "engine symbolic is incompatible with properties",
                 id="sym-properties"),
    pytest.param(["--engine", "symbolic", "--invariant", "Small",
                  "--workers", "2"],
                 {"engine": "symbolic", "invariants": ["Small"],
                  "workers": 2},
                 "engine symbolic is incompatible with workers",
                 id="sym-workers"),
    pytest.param(["--engine", "symbolic"], {"engine": "symbolic"},
                 "engine symbolic needs at least one invariant",
                 id="sym-no-invariant"),
]

# (repro check flags, the plan they describe, message fragment); the
# service has no field for these options.  "{dir}" is a scratch path.
REJECT_CLI_ONLY = [
    pytest.param(["--compact", "--store", "spill", "--spill-dir", "{dir}"],
                 CheckPlan(compact=True, store="spill", spill_dir="{dir}"),
                 "compact and store spill are mutually exclusive",
                 id="compact-spill"),
    pytest.param(["--backend", "z3"], CheckPlan(backend="z3"),
                 "backend selects the symbolic engine's SAT solver",
                 id="backend"),
    pytest.param(["--engine", "symbolic", "--invariant", "Small",
                  "--store", "spill", "--spill-dir", "{dir}"],
                 CheckPlan(engine="symbolic", invariants=("Small",),
                           store="spill", spill_dir="{dir}"),
                 "engine symbolic is incompatible with store spill",
                 id="sym-spill"),
    pytest.param(["--engine", "symbolic", "--invariant", "Small",
                  "--checkpoint", "{dir}/run.ckpt"],
                 CheckPlan(engine="symbolic", invariants=("Small",),
                           checkpoint="{dir}/run.ckpt"),
                 "engine symbolic is incompatible with checkpoint",
                 id="sym-checkpoint"),
    pytest.param(["--engine", "symbolic", "--invariant", "Small",
                  "--resume"],
                 CheckPlan(engine="symbolic", invariants=("Small",),
                           resume=True),
                 "engine symbolic is incompatible with resume",
                 id="sym-resume"),
    pytest.param(["--engine", "symbolic", "--invariant", "Small",
                  "--worker-timeout", "5"],
                 CheckPlan(engine="symbolic", invariants=("Small",),
                           worker_timeout=5.0),
                 "engine symbolic is incompatible with worker_timeout",
                 id="sym-worker-timeout"),
    pytest.param(["--worker-timeout", "5"], CheckPlan(worker_timeout=5.0),
                 "worker_timeout only applies to the multi-process engine",
                 id="timeout-serial"),
]


@pytest.fixture
def modules(tmp_path):
    paths = {}
    for name, source in (("Counter", COUNTER_TLA), ("Wide", WIDE_TLA)):
        path = tmp_path / f"{name}.tla"
        path.write_text(source)
        paths[name] = str(path)
    return paths


def refusal(text):
    """The one ``error:`` line a refused ``repro check`` prints."""
    assert text.startswith("error: ") and text.count("\n") == 1, text
    return text[len("error: "):].rstrip("\n")


@pytest.mark.parametrize("flags, fields, fragment", REJECT_BOTH)
def test_reject_rule_is_shared_by_cli_and_service(modules, flags, fields,
                                                  fragment):
    code, text = run_cli("check", modules["Counter"], *flags)
    assert code == 2
    with pytest.raises(ValueError, match=re.escape(fragment)) as excinfo:
        CheckRequest.from_dict({"module_source": COUNTER_TLA, **fields})
    assert refusal(text) == str(excinfo.value)


@pytest.mark.parametrize("flags, plan, fragment", REJECT_CLI_ONLY)
def test_cli_only_reject_rule_is_the_plan_rule(modules, tmp_path, flags,
                                               plan, fragment):
    flags = [flag.replace("{dir}", str(tmp_path)) for flag in flags]
    code, text = run_cli("check", modules["Counter"], *flags)
    assert code == 2
    with pytest.raises(ValueError, match=re.escape(fragment)) as excinfo:
        plan.validate()
    assert refusal(text) == str(excinfo.value)


# (module, repro check flags, service request fields, expected note)
DEGRADE = [
    pytest.param("Counter", ["--invariant", "Small", "--property",
                             "Progress", "--por"],
                 {"invariants": ["Small"], "properties": ["Progress"],
                  "por": True},
                 "partial-order reduction disabled: temporal properties "
                 "need the full graph", id="por-properties"),
    pytest.param("Counter", ["--invariant", "Small", "--property",
                             "Progress", "--compact"],
                 {"invariants": ["Small"], "properties": ["Progress"],
                  "compact": True},
                 "compact engine disabled: temporal properties need the "
                 "full state graph", id="compact-properties"),
    pytest.param("Wide", ["--invariant", "Small", "--compact"],
                 {"invariants": ["Small"], "compact": True},
                 "compact engine unavailable for this spec (domain of 'x' "
                 "exceeds 1048576 values; too large for the compact "
                 "engine); ran the full engine", id="compact-unpackable"),
    pytest.param("Wide", ["--invariant", "Small", "--engine", "symbolic"],
                 {"invariants": ["Small"], "engine": "symbolic"},
                 "symbolic engine unavailable for this spec (domain of 'x' "
                 "exceeds 1048576 values; too large for the compact "
                 "engine); ran the full explicit engine",
                 id="symbolic-untranslatable"),
]

_DROPPED = {"--por", "--compact"}


@pytest.mark.parametrize("module, flags, fields, note", DEGRADE)
def test_degrade_rule_notes_and_falls_back_to_the_full_run(
        modules, module, flags, fields, note):
    plain_flags = [flag for flag in flags if flag not in _DROPPED]
    if "--engine" in plain_flags:
        at = plain_flags.index("--engine")
        del plain_flags[at:at + 2]
    source = COUNTER_TLA if module == "Counter" else WIDE_TLA
    plain_fields = {key: value for key, value in fields.items()
                    if key in ("invariants", "properties")}

    code, text = run_cli("check", modules[module], *flags)
    assert text.startswith(f"note: {note}\n")
    assert (code, text[len(f"note: {note}\n"):]) \
        == run_cli("check", modules[module], *plain_flags)

    result = run_check(CheckRequest.from_dict(
        {"module_source": source, **fields}))
    plain = run_check(CheckRequest.from_dict(
        {"module_source": source, **plain_fields}))
    assert result["notes"] == [note]
    assert result["verdict"] == plain["verdict"]
    assert result["checks"] == plain["checks"]
    assert result["graph_digest"] == plain["graph_digest"] is not None


class TestCanonicalReexploration:
    """A violation under POR is re-explored on the full graph; the
    reported statistics are that run's alone."""

    def test_stats_describe_the_reported_graph_once(self):
        spec = QueueChain(2, 1).complete_spec()
        stats = ExploreStats()
        run = run_plan(CheckPlan(por=True, invariants=("empty",)), spec,
                       [Cmp("<=", Len(Var("q2")), 0)], stats=stats)
        assert run.notes == ["violation found under reduction; re-explored "
                             "the full graph for the canonical "
                             "counterexample"]
        assert run.graph.state_count == stats.states == 670
        assert stats.levels_seen == len(stats.levels) == 22
        assert stats.por_enabled is not True

    def test_service_listener_sees_each_run_from_level_zero(self):
        stats = ExploreStats()
        levels = []
        stats.add_level_listener(lambda level, _row: levels.append(level))
        result = run_check(CheckRequest(module_source=TWO_TLA,
                                        invariants=("Inv",), por=True),
                           stats=stats)
        assert result["verdict"] == "violation"
        assert any("re-explored the full graph" in note
                   for note in result["notes"])
        # the cancel/interrupt listener still fires during the
        # re-exploration, which reports its own levels only
        depth = result["stats"]["levels_seen"]
        assert levels == list(range(depth)) * 2
        assert len(result["stats"]["levels"]) == depth
        assert result["stats"]["por_enabled"] is not True
        plain = run_check(CheckRequest(module_source=TWO_TLA,
                                       invariants=("Inv",)))
        assert result["graph_digest"] == plain["graph_digest"]
        assert result["checks"] == plain["checks"]


class _Drained(Exception):
    """Stands in for the service's drain interrupt."""


def _drain_and_resume(request, checkpoint):
    """Run *request* with *checkpoint*, stop it after its first level
    the way a service drain does, and resume it: ``(result, levels the
    resumed run explored)``."""
    stats = ExploreStats()

    def drain(level, _row):
        if level >= 1:
            raise _Drained()

    stats.add_level_listener(drain)
    with pytest.raises(_Drained):
        run_check(request, stats=stats, checkpoint=checkpoint)
    stats = ExploreStats()
    levels = []
    stats.add_level_listener(lambda level, _row: levels.append(level))
    return run_check(request, stats=stats, checkpoint=checkpoint,
                     resume_from_checkpoint=True), levels


class TestServiceResume:
    """A drained job resumes its own checkpoint to the plain run's
    answer, whatever fallback its plan took."""

    def test_por_job_on_a_spec_reduction_cannot_split(self, tmp_path):
        # Counter has one action, so POR runs, and checkpoints, unreduced
        checkpoint = str(tmp_path / "job.ckpt")
        request = CheckRequest(module_source=COUNTER_TLA,
                               invariants=("Small",), por=True)
        resumed, levels = _drain_and_resume(request, checkpoint)
        plain = run_check(CheckRequest(module_source=COUNTER_TLA,
                                       invariants=("Small",)))
        assert levels[0] == 1
        assert resumed["verdict"] == plain["verdict"] == "ok"
        assert resumed["graph_digest"] == plain["graph_digest"]

    def test_symbolic_fallback_checkpoints_and_resumes(self, tmp_path):
        checkpoint = str(tmp_path / "job.ckpt")
        request = CheckRequest(module_source=WIDE_TLA,
                               invariants=("Small",), engine="symbolic")
        resumed, levels = _drain_and_resume(request, checkpoint)
        plain = run_check(CheckRequest(module_source=WIDE_TLA,
                                       invariants=("Small",)))
        assert resumed["notes"] == ["symbolic engine unavailable for this "
                                    "spec (domain of 'x' exceeds 1048576 "
                                    "values; too large for the compact "
                                    "engine); ran the full explicit engine"]
        assert levels[0] == 1
        assert resumed["verdict"] == plain["verdict"]
        assert resumed["checks"] == plain["checks"]
        assert resumed["graph_digest"] == plain["graph_digest"]
