"""In-memory span tracer for the qtpart modules.

``Tracer.install`` wraps each target function and rebinds the wrapper
under every ``qtpart`` module attribute that holds the original, so a
call made through ``from .codec import encode_ns`` in another module is
caught as well as one through the defining module. ``Tracer.restore``
puts every original back; untraced runs therefore time the unpatched
program.

A span is (id, name, start_ns, end_ns, parent id, thread id, note). Each
thread keeps its own parent stack, so spans opened in a pool's worker
threads nest under that worker's own spans. Spans stay in memory until
``write`` dumps them once, at the end of a run.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter_ns, thread_time_ns


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


def _block_side(args, kwargs, result):
    ctx = args[0] if args else kwargs["ctx"]
    return ctx.rect.w


def _verdict(args, kwargs, result):
    return result


THREAD_CPU = "thread_cpu"     # note: CPU time the calling thread spent in the span


# layer name -> note taken from (args, kwargs, result), or None
TARGETS = {
    "frame_io.causal_patch": None,
    "codec.dct2d": None,
    "codec.encode_ns": None,
    "codec.search": THREAD_CPU,
    "codec.exhaustive_search": None,
    "features.hog8": None,
    "features.glcm5": None,
    "features.build_vector": _block_side,
    "mlp.forward": _rows,
    "mlp.backward": None,
    "mlp.loss_and_grads": None,
    "mlp.adam_step": None,
    "mlp.check_parameter_scale": None,
    "dqn.ReplayMemory.sample": None,
    "dqn.select_action": None,
    "dqn.train_dqn": None,
    "dataset.collect_records": None,
    "dataset.collect_trajectories": None,
    "dataset.save_records": None,
    "dataset.load_records": None,
    "dataset.save_trajectories": None,
    "dataset.load_trajectories": None,
    "decision.decide": _verdict,
    "decision.pruned_search": None,
    "metrics.sweep": None,
    "metrics.bd_rate": None,
}


class Tracer:
    """Span recorder; ``install`` and ``restore`` patch the program."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, annotate):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        cpu = annotate == THREAD_CPU

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, stack = next(ids), stack_of()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            c0 = thread_time_ns() if cpu else 0
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if cpu:
                    note = thread_time_ns() - c0
                else:
                    note = annotate(args, kwargs, result) if annotate else None
                spans.append((sid, name, t0, t1, parent,
                              threading.get_ident(), note))
        traced.traced_layer = name
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target and rebind it wherever a qtpart module or
        class holds the original."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qtpart" or n.startswith("qtpart."))]
        for name, annotate in targets.items():
            mod_name, *path = name.split(".")
            owner = sys.modules[f"qtpart.{mod_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = owner.__dict__[path[-1]]
            wrapper = self._wrap(name, orig, annotate)
            holders = [owner] if isinstance(owner, type) else modules
            bound = 0
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        self._patches.append((holder, attr, orig))
                        setattr(holder, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"nothing binds {name}")

    def restore(self) -> None:
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    def write(self, path: Path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[5] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        rows = [[s[0], index[s[1]], s[2], s[3], s[4], tindex[s[5]], s[6]]
                for s in sorted(self.spans)]
        Path(path).write_text(json.dumps(
            {"fields": ["id", "name", "start_ns", "end_ns", "parent", "thread", "note"],
             "names": names, "spans": rows}, separators=(",", ":")))


class SpanIndex:
    """Aggregates over a list of spans: counts, busy and self time."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.by_name: dict[str, list] = {}
        self.child_ns: dict[int, int] = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s)
            if s[4] >= 0:
                self.child_ns[s[4]] = self.child_ns.get(s[4], 0) + s[3] - s[2]

    def of(self, name: str) -> list:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def seconds(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.of(name)) / 1e9

    def self_seconds(self, name: str) -> float:
        return sum(s[3] - s[2] - self.child_ns.get(s[0], 0)
                   for s in self.of(name)) / 1e9

    def notes(self, name: str) -> list:
        return [s[6] for s in self.of(name)]

    def under(self, span, ancestor: str) -> bool:
        """True when ``ancestor`` names a span on ``span``'s parent chain."""
        parent = span[4]
        while parent in self.by_id:
            p = self.by_id[parent]
            if p[1] == ancestor:
                return True
            parent = p[4]
        return False

    def within(self, windows) -> "SpanIndex":
        """Spans that started inside one of the (name, start_ns, end_ns)
        windows, on any thread."""
        bounds = sorted((t0, t1) for _, t0, t1 in windows)
        starts = [b[0] for b in bounds]
        keep = []
        for s in self.spans:
            i = bisect.bisect_right(starts, s[2]) - 1
            if i >= 0 and s[2] <= bounds[i][1]:
                keep.append(s)
        return SpanIndex(keep)
