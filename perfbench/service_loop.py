"""service: a closed loop of 2 client connections and 2 tenants against a
``repro serve --procs 1`` subprocess.

Each client submits a generated module (``modgen``), waits for its
terminal event on the job's event stream, and only then submits the
next: callers of the service (CI, ``repro submit``) wait for their
reply.  One check costs about a millisecond, so the HTTP front,
admission, the fair scheduler, the journal, the result cache, metrics
and the parser do the work, and exploration almost none.  Two
connections match the two usable cores this benchmark is sized for.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import closing
from time import perf_counter

import common
import oracles
from calibrate import Speedometer
from modgen import ClientStream

CLIENTS = 2
BOOT_TIMEOUT = 60.0
_TERMINAL = ("done", "failed", "cancelled")


class Server:
    """One server subprocess over a fresh state directory."""

    def __init__(self, tag, traced=False):
        self.state_dir = os.path.join(common.OUTPUT_DIR,
                                      f"service-{os.getpid()}-{tag}")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        os.makedirs(self.state_dir)
        self.trace_path = (os.path.join(self.state_dir, "trace.json")
                           if traced else None)
        self.process = None
        self.url = None

    def start(self):
        """Boot and wait for ``/healthz``; returns the seconds it took."""
        from repro.service import ServiceClient

        if self.trace_path is not None:
            argv = [sys.executable, os.path.join(common.BENCH,
                                                 "serve_traced.py"),
                    "--state-dir", self.state_dir,
                    "--trace-out", self.trace_path]
        else:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--procs", "1", "--state-dir", self.state_dir]
        log = open(os.path.join(self.state_dir, "server.log"), "wb")
        begin = perf_counter()
        with log:
            self.process = subprocess.Popen(
                argv, cwd=common.ROOT, env=common.child_env(),
                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        endpoint = os.path.join(self.state_dir, "server.json")
        deadline = begin + BOOT_TIMEOUT
        while perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with "
                                   f"{self.process.returncode} during boot")
            if self.url is None and os.path.exists(endpoint):
                with open(endpoint) as handle:
                    self.url = json.load(handle)["url"]
            if self.url is not None:
                try:
                    if ServiceClient(self.url, timeout=5).health().get(
                            "status") == "ok":
                        return perf_counter() - begin
                except OSError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("server did not answer /healthz in time")

    def stop(self):
        """SIGTERM, wait for the graceful drain; returns the exit code."""
        if self.process is None or self.process.poll() is not None:
            return None if self.process is None else self.process.returncode
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
            raise

    def trace(self):
        with open(self.trace_path) as handle:
            return json.load(handle)

    def remove(self):
        shutil.rmtree(self.state_dir, ignore_errors=True)


def boot(server):
    """Start *server*; returns its boot time, raw and normalised by the
    speed this process saw meanwhile (see ``calibrate.py``)."""
    with Speedometer(clock=time.thread_time) as clock:
        seconds = server.start()
    return seconds, seconds * clock.speed


def boot_times(count):
    """Set-up: *count* boots to ``/healthz``, each stopped again; returns
    ``boot`` pairs."""
    times = []
    for index in range(count):
        server = Server(f"boot{index}")
        try:
            times.append(boot(server))
        finally:
            server.stop()
            server.remove()
    return times


def _one_job(client, stream, fetch_record):
    module, repeat = next(stream)
    begin = perf_counter()
    submitted = client.submit(module.text, invariants=["Inv"])
    submit_s = perf_counter() - begin
    job = submitted["job"]
    final = None
    with closing(client.events(job["id"])) as events:
        for event in events:
            if event.get("event") in _TERMINAL:
                final = event
                break
    latency = perf_counter() - begin
    received = time.time()
    if final is None:
        raise AssertionError(f"job {job['id']}: stream ended without a "
                             f"terminal event")
    oracles.expect(final["event"], "done", f"job {job['id']} state")
    oracles.expect(final.get("verdict"), module.verdict,
                   f"job {job['id']} ({module.name}) verdict")
    if repeat:
        oracles.expect(submitted["disposition"], "cached",
                       f"repeat of {module.name} disposition")
    else:
        oracles.expect(submitted["disposition"], "created",
                       f"{module.name} disposition")
        oracles.expect((final.get("states"), final.get("edges")),
                       (module.states, module.edges),
                       f"{module.name} states and edges")
    sample = {"id": job["id"], "latency": latency, "submit": submit_s,
              "notify": received - final["t"],
              "disposition": submitted["disposition"]}
    if fetch_record:
        record = client.job(job["id"])
        sample.update(created=record["created"], started=record["started"],
                      finished=record["finished"],
                      check=(record.get("result") or {}).get(
                          "stats", {}).get("explore_seconds"))
    return sample


def drive(url, seed, ledger, seconds=None, jobs_per_client=None,
          fetch_record=False, after_jobs=None):
    """Run the closed loop, for *seconds* or *jobs_per_client* jobs per
    client; *after_jobs*, a pair ``(count, fn)``, calls ``fn()`` once
    *count* jobs have completed.  Returns (samples, wall seconds, retries
    after a 429)."""
    from repro.service import ServiceClient

    samples = []
    retries = [0]
    lock = threading.Lock()
    begin = perf_counter()
    deadline = None if seconds is None else begin + seconds

    def sleep(delay):
        with lock:
            retries[0] += 1
        time.sleep(delay)

    def loop(index):
        stream = ClientStream(seed, index)
        client = ServiceClient(url, tenant=stream.tenant, timeout=60,
                               retries=8, sleep=sleep)
        done = 0
        while True:
            if deadline is not None and perf_counter() >= deadline:
                return
            if jobs_per_client is not None and done >= jobs_per_client:
                return
            sample = ledger.run(f"client {index} job {done}",
                                lambda: _one_job(client, stream,
                                                 fetch_record))
            done += 1
            if sample is not None:
                with lock:
                    samples.append(sample)
                    if after_jobs and len(samples) == after_jobs[0]:
                        after_jobs[1]()

    threads = [threading.Thread(target=loop, args=(index,))
               for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, perf_counter() - begin, retries[0]


def _metric_total(text, name):
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in "{ ":
            total += float(line.rsplit(" ", 1)[1])
    return total


def finish(server, samples, submissions, ledger):
    """The end-of-run oracles: /metrics reconciles, the server drains
    cleanly, and the journal holds each job exactly once, done.
    Returns the server's peak RSS in MB."""
    from repro.service import ServiceClient
    from repro.service.journal import JobJournal

    def reconcile():
        text = ServiceClient(server.url, timeout=30).metrics()
        admitted = _metric_total(text, "repro_jobs_admitted_total")
        settled = sum(_metric_total(text, f"repro_jobs_{kind}_total")
                      for kind in ("completed", "failed", "cancelled"))
        oracles.expect(admitted, float(submissions), "/metrics admitted")
        oracles.expect(settled, admitted,
                       "/metrics completed + failed + cancelled")

    ledger.run("service /metrics", reconcile)
    peak = common.process_peak_rss_mb(server.process.pid)
    ledger.run("service drain", lambda: oracles.expect(
        server.stop(), 0, "server exit code after SIGTERM"))

    def journal():
        folded = JobJournal(os.path.join(server.state_dir,
                                         "journal")).replay()
        ids = [sample["id"] for sample in samples]
        oracles.expect(len(set(ids)), len(ids), "distinct job ids")
        lost = [i for i in ids if folded.get(i, {}).get("state") != "done"]
        duplicated = [i for i in ids
                      if folded.get(i, {}).get("counts", {}).get("done") != 1
                      or folded[i]["counts"].get("submitted") != 1]
        oracles.expect((len(lost), len(duplicated)), (0, 0),
                       "journal (lost, duplicated) jobs")

    ledger.run("service journal", journal)
    return peak


def latency_metrics(samples, wall):
    latencies = [sample["latency"] for sample in samples]
    return {"jobs_per_s": len(samples) / wall,
            "job_p50_ms": 1000.0 * common.median(latencies),
            "job_p95_ms": 1000.0 * common.percentile(latencies, 0.95),
            "job_samples": float(len(samples))}


def client_layers(samples, retries):
    """Per-layer figures from the client's clock and the job records."""
    fresh = [s for s in samples if s["disposition"] == "created"
             and s.get("started") is not None]
    ms = 1000.0
    out = {
        "service.client.submit_ms": ms * common.median(
            [s["submit"] for s in samples]),
        "service.notify_ms": ms * common.median(
            [s["notify"] for s in samples]),
        "service.cache_hit_ratio": sum(
            s["disposition"] == "cached" for s in samples) / len(samples),
        "service.coalesced": float(sum(
            s["disposition"] == "coalesced" for s in samples)),
        "service.retries_429": float(retries),
    }
    if fresh:
        run = common.median([s["finished"] - s["started"] for s in fresh])
        check = common.median([s["check"] for s in fresh])
        out.update({
            "service.queue_wait_ms": ms * common.median(
                [s["started"] - s["created"] for s in fresh]),
            "service.run_ms": ms * run,
            "service.check_ms": ms * check,
            "service.overhead_ms": ms * (run - check),
        })
    return out
