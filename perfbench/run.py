"""The repository's benchmark: one command per workload and mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads: explore-corpus,
certificate, service, symbolic (see ``perfbench/README.md`` for what
each exercises and why).

``--trace 0`` measures the end-to-end metrics for about ``--seconds``
with tracing off: setup_s, peak_rss_mb, throughput_per_s and
latency_p50_ms.  Times are reported at reference machine speed
(``calibrate.py``), with the raw wall-clock figures printed beside them.  ``--trace 1`` runs a fixed amount of work untraced and
the same work again with every layer wrapped, and reports per-layer self
times and counts, the per-input split of the untraced work, and the
tracing overhead.  Every operation's output is checked against a known answer;
the last line of standard output is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from time import perf_counter

import common
from calibrate import Speedometer

WORKLOADS = ("explore-corpus", "certificate", "service", "symbolic")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "throughput_per_s": "1/s", "latency_p50_ms": "ms"}
SETUP_PROBES = 5        # set-ups per run for in-process workloads
SERVICE_BOOTS = 3       # server boots per run (the last one is measured)
TRACED_JOBS_PER_CLIENT = 120  # >= 200 jobs, so p95 has >= 10 beyond it
RSS_AFTER_JOBS = 250    # service: peak RSS read when this many jobs are done
# rounds per window of a traced run: about 3 s or more of work each
TRACED_ROUNDS = {"explore-corpus": 1, "certificate": 1, "symbolic": 8}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _module(workload):
    if workload == "explore-corpus":
        import explore_corpus
        return explore_corpus
    if workload == "certificate":
        import certificate
        return certificate
    import bmc
    return bmc


def setup_times(workload):
    """Set-up, timed from outside: a fresh interpreter imports ``repro``
    and builds the workload's systems, SETUP_PROBES times.  Returns the
    normalised and the raw times: each wall time, less the child's speed
    probes, times the speed the child measured (``calibrate.py``)."""
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        begin = perf_counter()
        # a blocking read: waiting with a timeout polls, in steps of up
        # to 50 ms, which would quantise the measurement
        probe = subprocess.Popen(
            [sys.executable, os.path.join(common.BENCH, "setup_probe.py"),
             workload], cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, text=True)
        out, _ = probe.communicate()
        elapsed = perf_counter() - begin
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {probe.returncode}")
        clock = json.loads(out)
        times.append((elapsed - clock["probe_s"]) * clock["speed"])
        raw.append(elapsed)
    return times, raw


def per_layer_units():
    import layers
    return dict(layers.per_layer_catalogue())


def write_trace(workload, seed, document):
    os.makedirs(common.OUTPUT_DIR, exist_ok=True)
    path = os.path.join(common.OUTPUT_DIR,
                        f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    return path


def run_in_process(args, stamp, ledger):
    import corpus
    import oracles

    module = _module(args.workload)
    reference = oracles.load_reference()
    notes = []
    if not args.trace:
        setup, raw_setup = setup_times(args.workload)
        corpus.build(args.workload)  # this process's own imports, untimed
        rounds = []
        begin = perf_counter()
        while True:
            rounds.append(module.one_round(args.seed, len(rounds), ledger,
                                           reference))
            notes.append("round %d: %s" % (len(rounds), json.dumps(
                module.split(rounds[-1:]), sort_keys=True)))
            elapsed = perf_counter() - begin
            # start another round only if it should end within --seconds
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        metrics = {"setup_s": common.median(setup),
                   "peak_rss_mb": common.peak_rss_mb()}
        metrics.update(module.summarise(rounds))
        raw = module.summarise(rounds, measure="wall_s")
        notes.append(f"rounds {len(rounds)}, measured {elapsed:.3f} s, "
                     f"set-ups {[round(t, 4) for t in setup]}")
        raw["setup_s"] = common.median(raw_setup)
        notes.append("wall clock, not normalised: " + ", ".join(
            f"{name} {value:.6g}" for name, value in sorted(raw.items())))
        return metrics, END_TO_END_UNITS, notes

    import bmc
    import calibrate
    import layers
    from spans import Tracer, by_root, install, uninstall

    calibrate.SAMPLING = False  # per-layer times are raw wall time
    corpus.build(args.workload)
    count = TRACED_ROUNDS[args.workload]
    begin = perf_counter()
    untraced = [module.one_round(args.seed, index, ledger, reference)
                for index in range(count)]
    untraced_wall = perf_counter() - begin
    tracer = Tracer()
    extra = {}
    if args.workload == "symbolic":
        extra["replay_fn"] = tracer.wrap("engine.symbolic.replay",
                                         bmc.replay)
    undo = install(tracer, layers.targets())
    ledger.tracer = tracer
    try:
        tracer.start()
        traced = [module.one_round(args.seed, index, ledger, reference,
                                   **extra) for index in range(count)]
        tracer.stop()
    finally:
        ledger.tracer = None
        uninstall(undo)
    metrics = layers.span_metrics(tracer.layers(), tracer.counters)
    metrics.update(module.split(untraced))
    if args.workload == "symbolic":
        metrics.update(bmc.solver_counts(traced))
    metrics.update({"trace.wall_s": tracer.wall_s,
                    "trace.untraced_wall_s": untraced_wall,
                    "trace.overhead_s": tracer.wall_s - untraced_wall,
                    "trace.other_s": tracer.other_s()})
    document = tracer.to_json()
    for root, top in by_root(document["spans"]).items():
        notes.append(f"{root}: " + ", ".join(f"{name} {own:.3f} s"
                                             for own, name in top))
    path = write_trace(args.workload, args.seed,
                       {"stamp": stamp, "trace": document,
                        "metrics": metrics})
    notes.append(f"trace written to {os.path.relpath(path, common.ROOT)}")
    return metrics, per_layer_units(), notes


def run_service(args, stamp, ledger):
    import service_loop as svc

    notes = []
    if not args.trace:
        boots = svc.boot_times(SERVICE_BOOTS - 1)
        server = svc.Server("run")
        rss = []
        try:
            boots.append(svc.boot(server))
            # the server keeps every finished job, so its memory grows
            # with jobs served: read it at a fixed count, not at the end
            watch = (RSS_AFTER_JOBS, lambda: rss.append(
                common.process_peak_rss_mb(server.process.pid)))
            with Speedometer(clock=time.thread_time) as clock:
                samples, wall, _retries = svc.drive(
                    server.url, args.seed, ledger, seconds=args.seconds,
                    after_jobs=watch)
            peak = svc.finish(server, samples, ledger.attempted, ledger)
        finally:
            server.stop()
            server.remove()
        latency = svc.latency_metrics(samples, wall) if samples else {}
        notes.append(f"jobs {len(samples)} in {wall:.3f} s; p95 "
                     f"{latency.get('job_p95_ms', 0):.2f} ms; speed "
                     f"{clock.speed:.4f}; peak RSS at the end {peak:.1f} MB")
        notes.append("wall clock, not normalised: " + ", ".join(
            f"{name} {value:.6g}" for name, value in (
                ("latency_p50_ms", latency.get("job_p50_ms", 0)),
                ("setup_s", common.median([raw for raw, _ in boots])),
                ("throughput_per_s", latency.get("jobs_per_s", 0)))))
        metrics = {"setup_s": common.median([norm for _, norm in boots]),
                   "peak_rss_mb": rss[0] if rss else peak}
        if samples:
            metrics["throughput_per_s"] = latency["jobs_per_s"] / clock.speed
            metrics["latency_p50_ms"] = latency["job_p50_ms"] * clock.speed
        return metrics, END_TO_END_UNITS, notes

    import layers
    from spans import fold_layers

    windows = []
    for traced in (False, True):
        server = svc.Server("traced" if traced else "untraced",
                            traced=traced)
        try:
            server.start()
            submitted_before = ledger.attempted
            samples, wall, retries = svc.drive(
                server.url, args.seed, ledger,
                jobs_per_client=TRACED_JOBS_PER_CLIENT, fetch_record=True)
            svc.finish(server, samples, ledger.attempted - submitted_before,
                       ledger)
            trace = server.trace() if traced else None
        finally:
            server.stop()
            server.remove()
        windows.append((samples, wall, retries, trace))
    (samples0, wall0, _r0, _t0), (samples1, wall1, retries1, trace) = windows
    metrics = layers.span_metrics(fold_layers(trace["spans"]),
                                  trace["counters"])
    if samples1:
        metrics.update(svc.client_layers(samples1, retries1))
    if samples0:
        metrics.update(svc.latency_metrics(samples0, wall0))
    metrics.update({"trace.wall_s": wall1, "trace.untraced_wall_s": wall0,
                    "trace.overhead_s": wall1 - wall0,
                    "trace.other_s": trace["other_s"]})
    path = write_trace(args.workload, args.seed,
                       {"stamp": stamp, "trace": trace, "metrics": metrics})
    notes.append(f"server trace written to "
                 f"{os.path.relpath(path, common.ROOT)}")
    return metrics, per_layer_units(), notes


def main(argv=None):
    args = parse_args(argv)
    common.require_checkout()
    stamp = common.stamp(args.workload, args.seed)
    ledger = common.Ledger()
    notes = [f"perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "stamp " + json.dumps(stamp, sort_keys=True)]
    if args.workload == "service":
        metrics, units, more = run_service(args, stamp, ledger)
    else:
        metrics, units, more = run_in_process(args, stamp, ledger)
    wanted = {name: metrics.get(name, 0.0) for name in units}
    common.emit(ledger, wanted, units, notes + more)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
