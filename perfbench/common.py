"""Shared plumbing: the checkout layout, result stamps, statistics and
the op ledger every workload fills."""

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback

from spans import OP

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
# everything a run writes (server state dirs, trace files) lives here
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")


def require_checkout():
    """Make ``repro`` importable from this checkout's ``src`` only."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no src/repro under {ROOT}; run from "
                         f"the root of a checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def stamp(workload, seed):
    """Provenance of a result: the commit (when the checkout is a git
    work tree), a digest of ``src/`` (always), usable cores, Python."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()[:16],
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values):
    return statistics.median(values)


def end_to_end(seconds, work=1):
    """``throughput_per_s`` (units of *work* per second over all samples)
    and ``latency_p50_ms`` from per-operation *seconds*."""
    if not seconds:
        return {}
    return {"throughput_per_s": work * len(seconds) / sum(seconds),
            "latency_p50_ms": 1000.0 * median(seconds)}


def percentile(values, q):
    """Nearest-rank percentile, *q* in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


class Ledger:
    """Operations attempted and failed; an op fails when it raises or its
    output misses the known answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # set in traced runs: each op is a root span
        self._lock = threading.Lock()

    def run(self, label, op):
        """Run *op*; returns its value, or None after recording a failure.
        Oracle mismatches raise ``AssertionError`` inside *op*."""
        with self._lock:
            self.attempted += 1
        if self.tracer is not None:
            op = self.tracer.wrap(OP + label, op)
        try:
            return op()
        except Exception:  # noqa: BLE001 - every failure is counted
            with self._lock:
                self.failed += 1
                print(f"FAILED {label}:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None


def emit(ledger, metrics, units, notes=()):
    """Print the notes, every metric by name and unit, then the result
    line (the last line of standard output)."""
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
