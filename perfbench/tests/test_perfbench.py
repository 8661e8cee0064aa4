"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bmc  # noqa: E402
import calibrate  # noqa: E402
import layers  # noqa: E402
import modgen  # noqa: E402
import oracles  # noqa: E402
import service_loop  # noqa: E402
from common import Ledger  # noqa: E402
from spans import Tracer, install, uninstall  # noqa: E402

WORKLOADS = ("explore-corpus", "certificate", "service", "symbolic")


def run_bench(workload, trace, cwd=ROOT, seconds="0.1", seed="7"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", seed, "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(process):
    assert process.returncode == 0, process.stderr[-3000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- every workload, once, at its smallest length -----------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_reports_every_end_to_end_metric(workload,
                                                           declared):
    result = result_of(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(declared):
    result = result_of(run_bench("symbolic", trace=1))
    wanted = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engine.sat.solve_s"] > 0
    assert metrics["engine.sat.conflicts"] > 0
    assert metrics["engine.symbolic.replay_s"] > 0
    assert metrics["bmc_s"] > 0
    assert metrics["kernel.packed.fingerprint_calls"] == 0


def test_without_a_checkout_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = run_bench("symbolic", trace=0, cwd=str(tmp_path))
    assert process.returncode != 0
    assert '"correct"' not in process.stdout


def test_benchmark_json_has_the_contract_keys(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in declared["end_to_end"])


# -- the oracles reject tampered answers --------------------------------------

def test_level_profile_oracle_rejects_a_wrong_profile():
    from repro.checker import ExploreStats, StateSpaceExplosion, explore
    from repro.systems.paxos import Paxos

    stats = ExploreStats()
    with pytest.raises(StateSpaceExplosion) as info:
        explore(Paxos(3, 2, 1).complete_spec(), max_states=300, stats=stats)
    graph = info.value.graph
    reference = {"explore": {"budget": 300, "small": {
        "profile": oracles.level_profile(graph),
        "levels": oracles.level_rows(stats)}}}
    oracles.check_budget_run(reference, "small", graph, stats)

    tampered = json.loads(json.dumps(reference))
    tampered["explore"]["small"]["profile"][-1] += 1
    with pytest.raises(AssertionError, match="level profile"):
        oracles.check_budget_run(tampered, "small", graph, stats)
    tampered = json.loads(json.dumps(reference))
    tampered["explore"]["small"]["levels"].pop()
    with pytest.raises(AssertionError, match="completed BFS levels"):
        oracles.check_budget_run(tampered, "small", graph, stats)
    tampered = json.loads(json.dumps(reference))
    tampered["explore"]["budget"] = 301
    with pytest.raises(AssertionError, match="states at the explosion"):
        oracles.check_budget_run(tampered, "small", graph, stats)


class _Obligation:
    def __init__(self, oid):
        self.oid = oid


class _Certificate:
    def __init__(self, ok, failed, states):
        self.ok = ok
        self._failed = [_Obligation(oid) for oid in failed]
        self._states = states

    def failed_obligations(self):
        return self._failed

    def total_states_explored(self):
        return self._states


def test_certificate_oracle_rejects_a_wrong_verdict():
    reference = oracles.load_reference()
    ref = reference["certificate"]["paxos_broken"]
    good = _Certificate(ref["ok"], ref["failed"], ref["states"])
    oracles.check_certificate(reference, "paxos_broken", good)
    for bad in (_Certificate(True, [], ref["states"]),
                _Certificate(False, ["2a"], ref["states"]),
                _Certificate(False, ref["failed"], ref["states"] + 1)):
        with pytest.raises(AssertionError):
            oracles.check_certificate(reference, "paxos_broken", bad)


@pytest.fixture(scope="module")
def wide8_answer():
    from repro.engine import SymbolicEngine
    from corpus import wide8

    spec, invariant = wide8()
    return spec, SymbolicEngine(depth=8).check_invariant(spec, invariant)


def test_bmc_oracle_rejects_a_wrong_trace(wide8_answer):
    spec, result = wide8_answer
    reference = oracles.load_reference()
    bmc.replay(reference, result, spec)
    for key, value, match in (("trace_states", 9, "trace length"),
                              ("last", {"a": 6}, "last state")):
        tampered = json.loads(json.dumps(reference))
        tampered["symbolic"][key] = value
        with pytest.raises(AssertionError, match=match):
            bmc.replay(tampered, result, spec)
    with pytest.raises(AssertionError, match="replays"):
        oracles.check_bmc(reference, result, spec, lambda _state: [])


def test_explore_nodes_oracle_rejects_a_different_graph():
    streams = {}
    explore_corpus = pytest.importorskip("explore_corpus")
    explore_corpus._same_nodes(streams, "k", "full", ([1, 2], [-1, 0]))
    explore_corpus._same_nodes(streams, "k", "compact", ([1, 2], [-1, 0]))
    with pytest.raises(AssertionError, match="node streams agree"):
        explore_corpus._same_nodes({"k": {"full": ([1, 2], [-1, 0])}}, "k",
                                   "compact", ([1, 3], [-1, 0]))


def test_service_oracle_rejects_a_wrong_verdict(monkeypatch):
    make = modgen.make_module

    def flipped(rng, name):
        module = make(rng, name)
        module.verdict = "ok" if module.verdict == "violation" else \
            "violation"
        return module

    monkeypatch.setattr(modgen, "make_module", flipped)
    server = service_loop.Server("test")
    ledger = Ledger()
    try:
        server.start()
        samples, _wall, _retries = service_loop.drive(
            server.url, 3, ledger, jobs_per_client=2)
    finally:
        server.stop()
        server.remove()
    assert ledger.attempted == 4
    assert ledger.failed == 4 and samples == []


# -- the module generator -----------------------------------------------------

def test_generator_is_seeded_and_its_answers_hold():
    from repro.service.jobs import CheckRequest, run_check

    first = [next(modgen.ClientStream(11, 0)) for _ in range(1)]
    again = [next(modgen.ClientStream(11, 0)) for _ in range(1)]
    assert first[0][0].text == again[0][0].text
    stream = modgen.ClientStream(11, 1)
    drawn = [next(stream) for _ in range(40)]
    assert sum(repeat for _module, repeat in drawn) == 10
    assert stream.tenant == "tenant-1"
    for module, repeat in drawn:
        if repeat:
            continue
        result = run_check(CheckRequest.from_dict(
            {"module_source": module.text, "invariants": ["Inv"]}))
        assert (result["verdict"], result["states"], result["edges"]) == \
            (module.verdict, module.states, module.edges)


# -- the speed calibration ----------------------------------------------------

def _spin(seconds):
    from time import perf_counter

    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_speedometer_samples_during_the_operation_and_excludes_probes():
    with calibrate.Speedometer() as clock:
        _spin(0.2)
    # one probe on entry, then one per interval
    assert len(clock.probes) >= 0.2 / calibrate.INTERVAL_S / 2
    assert 0.15 < clock.wall_s < 0.2
    assert clock.speed > 0
    assert clock.normalised_s == pytest.approx(clock.wall_s * clock.speed)
    import signal
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speedometer_without_sampling_only_times(monkeypatch):
    monkeypatch.setattr(calibrate, "SAMPLING", False)
    with calibrate.Speedometer() as clock:
        _spin(0.05)
    assert clock.probes == [] and clock.normalised_s is None
    assert clock.wall_s >= 0.05


# -- the trace arithmetic -----------------------------------------------------

def test_self_times_plus_other_equal_the_traced_wall_time(wide8_answer):
    spec, _result = wide8_answer
    tracer = Tracer()
    ledger = Ledger()
    undo = install(tracer, layers.targets())
    ledger.tracer = tracer
    try:
        tracer.start()
        rounds = [bmc.one_round(0, 0, ledger, oracles.load_reference(),
                                replay_fn=tracer.wrap(
                                    "engine.symbolic.replay", bmc.replay))]
        tracer.stop()
    finally:
        uninstall(undo)
    assert ledger.failed == 0 and rounds[0]
    values = layers.span_metrics(tracer.layers(), tracer.counters)
    seconds = {name for name, _calls in layers.SPAN_METRICS.values()}
    claimed = sum(values[name] for name in seconds)
    assert claimed + tracer.other_s() == pytest.approx(tracer.wall_s,
                                                       rel=1e-9)
    assert values["engine.sat.solve_s"] > 0
    assert tracer.other_s() >= 0
    del spec


def test_nested_spans_split_self_time():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = tracer.wrap("inner", inner)
    wrapped_outer = tracer.wrap("outer", outer)
    tracer.start()
    assert wrapped_outer() == 2
    tracer.stop()
    rows = {(span["name"], span["parent"], span["level"]): span
            for span in tracer.to_json()["spans"]}
    outer_row = rows[("outer", None, 0)]
    inner_row = rows[("inner", "outer", 1)]
    assert inner_row["root"] == "outer"
    assert outer_row["self_s"] == pytest.approx(
        outer_row["total_s"] - inner_row["total_s"])


def test_drained_generator_is_timed_and_still_iterable():
    tracer = Tracer()
    wrapped = tracer.wrap("gen", lambda n: (i for i in range(n)), drain=True,
                          counter=lambda out: {"out": len(out)})
    assert list(wrapped(3)) == [0, 1, 2]
    assert tracer.counters == {"out": 3}
