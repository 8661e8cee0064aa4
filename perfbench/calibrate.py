"""Machine-speed calibration for the timed (``--trace 0``) runs.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes: a neighbour's load slows this vCPU
with little steal time showing, and CPU time drifts as much as wall time.
A median over a whole run does not average that away, so raw wall times
of the same code spread by 20-60% between runs.

So every timed operation runs under a :class:`Speedometer`.  A timer
signal interrupts the operation every ``INTERVAL_S`` and runs a fixed
probe of pure-Python dict and int work: an untimed pass that brings its
table back into cache, then a timed pass of about half a millisecond.
The timed pass, against ``NOMINAL_PROBE_S``, samples how fast this vCPU
is running right then; because its table is warm, the program's own
cache footprint hardly moves it.  The operation's *normalised* time is
its wall time, probes excluded, times the mean relative speed over its
samples.  The probe does not depend on the program, so a slower program
reads slower, while a slower machine moment reads the same.

Where the work runs in another process (the service), the probes run in
this process while it waits, timed in thread CPU time so that waiting for
a vCPU behind the server does not read as a slow machine.

The raw wall times are kept and printed beside the normalised ones.
"""

import signal
from time import perf_counter

INTERVAL_S = 0.025       # one probe per 25 ms of operation
PROBE_STEPS = 2000       # about 0.45 ms per timed pass, quiet machine
# the scale of normalised times: chosen so that on the reference machine
# (2-vCPU 2.1 GHz Xeon VM, CPython 3.11) at a quiet time they match wall
# time, roughly
NOMINAL_PROBE_S = 0.0005
# off in traced runs: there every operation runs untraced and traced,
# and the per-layer times are raw wall time
SAMPLING = True


_TABLE = {key: key for key in range(4096)}


def _probe_pass():
    table = _TABLE
    total = 0
    for step in range(PROBE_STEPS):
        key = (step * 2654435761) & 4095
        total += table[key]
        table[key] = total & 0xFFF


def probe(clock=perf_counter):
    """Fixed pure-Python dict and int work; returns the seconds it took
    on *clock*.  An untimed pass first brings the table back into cache,
    so the time does not depend on how much of it the interrupted program
    evicted."""
    _probe_pass()
    begin = clock()
    _probe_pass()
    return clock() - begin


class Speedometer:
    """Time one operation and sample the machine's speed while it runs.

    Use as a context manager in the main thread; *clock* times the
    probes' timed passes.  Afterwards ``wall_s`` is the operation's wall
    time without the probes, ``probe_s`` the time the probes took,
    ``probes`` their timed passes, and ``normalised_s`` the wall time at
    reference speed."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.probes = []
        self.wall_s = None
        self.probe_s = 0.0
        self._previous = None

    def _sample(self, *_signal):
        begin = perf_counter()
        self.probes.append(probe(self.clock))
        self.probe_s += perf_counter() - begin

    def __enter__(self):
        self._sampling = SAMPLING
        self._begin = perf_counter()
        if self._sampling:
            self._sample()  # one sample even for a short op
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = perf_counter()
        if self._sampling:
            signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._begin - self.probe_s
        return False

    @property
    def speed(self):
        """Mean speed over the operation, relative to the reference
        (None when sampling was off)."""
        if not self.probes:
            return None
        return sum(NOMINAL_PROBE_S / took for took in self.probes) / len(
            self.probes)

    @property
    def normalised_s(self):
        speed = self.speed
        return None if speed is None else self.wall_s * speed
