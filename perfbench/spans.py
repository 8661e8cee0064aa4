"""Span tracer for the benchmark's traced runs.

The tracer wraps functions and methods of the program under test from
the outside: ``repro`` itself is never edited.  Each wrapped call is a
span (name, start, end, parent).  Spans are folded into aggregates as
they close, keyed by (root, name, parent name, nesting level), so memory
stays constant however many calls a run makes; the aggregates are
written out once, when the run ends.  The root is the outermost span of
the thread: the benchmark opens one per operation (``op.<label>``), so
spans of one operation share it.

Self time is a span's duration minus the duration of its child spans on
the same thread.  On one thread the self times of all spans add up to
the time covered by the outermost spans, so ``other`` (the traced wall
time no layer claims, the operations' own ``op.*`` self time included)
is exactly ``wall - sum(self of layer spans)``.
"""

import sys
import threading
from time import perf_counter

OP = "op."  # prefix of the per-operation root spans


class Tracer:
    """Aggregated spans plus named counters, shared by all threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        # (root, name, parent, level) -> [calls, total_s, self_s]
        self.spans = {}
        self.counters = {}
        self.threads = set()
        self.started = None
        self.wall_s = None

    def start(self):
        self.started = perf_counter()

    def stop(self):
        self.wall_s = perf_counter() - self.started

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self.threads.add(threading.get_ident())
        return stack

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, drain=False, counter=None):
        """*fn* recorded as span *name*.  ``drain`` turns a generator's
        output into a list inside the span, so its work is timed where
        it happens; ``counter(result)`` returns counter increments."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, root = stack[-1][0], stack[0][0]
            else:
                parent, root = None, name
            frame = [name, 0.0]
            stack.append(frame)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                duration = perf_counter() - begin
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                key = (root, name, parent, len(stack))
                with tracer._lock:
                    entry = tracer.spans.get(key)
                    if entry is None:
                        entry = tracer.spans[key] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
            if counter is not None:
                for cname, amount in counter(result).items():
                    tracer.count(cname, amount)
            return iter(result) if drain else result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- reading -------------------------------------------------------------

    def layers(self):
        return fold_layers(
            {"name": name, "calls": calls, "total_s": total, "self_s": own}
            for (_root, name, _parent, _level), (calls, total, own)
            in self.spans.items())

    def other_s(self):
        """Traced thread-time no layer claims: ``threads * wall`` minus the
        self time of every span but the ``op.*`` roots, over the threads
        that entered a span (one, in-process)."""
        claimed = sum(own for (_root, name, _parent, _level), (_c, _t, own)
                      in self.spans.items() if not name.startswith(OP))
        return max(1, len(self.threads)) * self.wall_s - claimed

    def to_json(self):
        return {
            "wall_s": self.wall_s,
            "threads": len(self.threads),
            "other_s": self.other_s(),
            "spans": [{"root": root, "name": name, "parent": parent,
                       "level": level, "calls": calls, "total_s": total,
                       "self_s": own}
                      for (root, name, parent, level), (calls, total, own)
                      in sorted(self.spans.items(), key=_span_order)],
            "counters": dict(self.counters),
        }


def fold_layers(spans):
    """{span name: {"calls", "total_s", "self_s"}} summed over parents
    and levels, from the ``spans`` rows of :meth:`Tracer.to_json`."""
    out = {}
    for span in spans:
        row = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
        row["calls"] += span["calls"]
        row["total_s"] += span["total_s"]
        row["self_s"] += span["self_s"]
    return out


def by_root(spans, top=5):
    """{root: [(self_s, layer)]}: each operation's largest layers."""
    out = {}
    for span in spans:
        if span["name"] != span["root"]:
            out.setdefault(span["root"], {}).setdefault(span["name"], 0.0)
            out[span["root"]][span["name"]] += span["self_s"]
    return {root: sorted(((own, name) for name, own in rows.items()),
                         reverse=True)[:top]
            for root, rows in sorted(out.items())}


def _span_order(item):
    (root, name, parent, level), _row = item
    return (root, level, parent or "", name)


def install(tracer, targets):
    """Wrap every target, rebinding each name that refers to it.

    *targets* holds ``(owner, attribute, span name, options)`` rows.  A
    class attribute is replaced on the class.  A module-level function
    is replaced in every loaded ``repro`` module that bound it by name,
    so ``from .x import f`` call sites are traced too.  Returns an undo
    list for :func:`uninstall`.
    """
    undo = []
    for owner, attribute, name, options in targets:
        original = owner.__dict__[attribute]
        wrapped = tracer.wrap(name, original, **options)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapped)
            undo.append((owner, attribute, original))
            continue
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))
    return undo


def uninstall(undo):
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)
