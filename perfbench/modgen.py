"""Seeded generator of the small TLA+ modules the service workload submits.

Each module is a set of independent modular counters::

    VARIABLES v0 \\in 0..M-1, v1 \\in 0..M-1, ...
    Next == (v0' = (v0 + s0) % M /\\ v1' = v1 ...) \\/ ...
    Inv  == v0 + v1 + ... < L

so its answer is known by arithmetic, without running a checker.  Counter
``i`` reaches exactly the multiples of ``g_i = gcd(s_i, M)``, so the
reachable states number ``prod(M / g_i)``, every state has one real
successor per counter (``s_i`` is never a multiple of ``M``), and the
largest reachable sum is ``sum(M - g_i)``: the invariant is violated iff
that sum is at least ``L``.  The program under test receives only the
module text.

The knobs and why they have their values:

* ``VARIABLES`` 2..3 and ``MODULUS`` 4..6: at most 216 states, so one
  check costs about a millisecond and the HTTP front, admission,
  scheduler, journal, cache, metrics and parser -- not exploration --
  do the work, which is what this workload exists to measure.
* ``VIOLATION_SHARE`` 0.3: violations take the counterexample path
  (trace reconstruction and encoding) on a steady minority of jobs
  without making it the common case.
* ``REPEAT_EVERY`` 4: one submission in four repeats one of the same
  client's earlier modules.  That earlier job has finished (the loop is
  closed), so each repeat is a result-cache read, and three in four are
  journal and cache writes.  A fixed slot in every block of four keeps
  the hit share exactly 1/4 on every seed, so seeds vary the modules
  and not the mix.
* ``TENANTS`` 2, one per client connection: both tenants always have
  work queued, so the fair scheduler interleaves them on every pop.
"""

import math
import random

VARIABLES = (2, 3)
MODULUS = (4, 6)
VIOLATION_SHARE = 0.3
REPEAT_EVERY = 4
TENANTS = 2


class Module:
    """One generated check and its known answer."""

    __slots__ = ("name", "text", "verdict", "states", "edges")

    def __init__(self, name, text, verdict, states, edges):
        self.name = name
        self.text = text
        self.verdict = verdict
        self.states = states
        self.edges = edges


def make_module(rng, name):
    count = rng.randint(*VARIABLES)
    modulus = rng.randint(*MODULUS)
    steps = [rng.randint(1, modulus - 1) for _ in range(count)]
    gcds = [math.gcd(step, modulus) for step in steps]
    states = math.prod(modulus // g for g in gcds)
    top = sum(modulus - g for g in gcds)
    if rng.random() < VIOLATION_SHARE:
        limit = rng.randint(max(1, top - 2), top)
        verdict = "violation"
    else:
        limit = top + rng.randint(1, 2)
        verdict = "ok"
    names = [f"v{i}" for i in range(count)]
    disjuncts = []
    for i, var in enumerate(names):
        conj = [f"{var}' = ({var} + {steps[i]}) % {modulus}"]
        conj += [f"{other}' = {other}" for other in names if other != var]
        disjuncts.append("(" + " /\\ ".join(conj) + ")")
    text = "\n".join([
        f"MODULE {name}",
        "VARIABLES " + ", ".join(f"{var} \\in 0..{modulus - 1}"
                                 for var in names),
        "Init == " + " /\\ ".join(f"{var} = 0" for var in names),
        "Next == " + "\n        \\/ ".join(disjuncts),
        f"Spec == Init /\\ [][Next]_<<{', '.join(names)}>>",
        f"Inv == {' + '.join(names)} < {limit}",
        "",
    ])
    return Module(name, text, verdict, states, states * count)


class ClientStream:
    """The endless, seeded submission sequence of one client."""

    def __init__(self, seed, client):
        self.client = client
        self.tenant = f"tenant-{client % TENANTS}"
        self._rng = random.Random(f"{seed}:{client}")
        self._made = []
        self._block_slot = None
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self):
        """``(module, is_repeat)``; a repeat is a module this client sent
        before, so its verdict is already cached."""
        slot = self._index % REPEAT_EVERY
        if slot == 0:
            # never the block's first slot, so a module to repeat exists
            self._block_slot = self._rng.randrange(1, REPEAT_EVERY)
        self._index += 1
        if slot == self._block_slot:
            return self._rng.choice(self._made), True
        name = f"G{self.client}x{len(self._made)}"
        module = make_module(self._rng, name)
        self._made.append(module)
        return module, False
