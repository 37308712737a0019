"""Span tracing of ``ptodist`` from outside the package.

``Tracer.install`` replaces each public function of each ``ptodist`` module
with a timing wrapper, in every ``ptodist`` namespace that binds it (the
defining module, the modules that import it by name, and the package), so
calls between modules are traced too. ``uninstall`` restores the originals.

Each wrapped call is a span: name, start, end and the span that caused it.
Per span name the tracer keeps the call count, total time and self time
(duration minus the time of its traced children). Spans are kept in memory
up to ``SPAN_CAP`` and written out by ``dump``; beyond the cap only the
aggregates grow, so long runs stay within memory.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time

import numpy as np

SPAN_CAP = 100_000

# Scalar helpers called tens of times per oracle or objective call: wrapping
# them would cost more than the work they do, so their time stays in the
# caller's self time. The CLI is one span, ``cli.command``, around ``main``.
UNWRAPPED = {"tasks.fstock", "datagen.score_probs"}

RENAMED = {
    "datagen.gen_topk": "datagen.generate",
    "datagen.gen_grid": "datagen.generate",
    "datagen.gen_inventory": "datagen.generate",
    "datagen.write_dataset": "datagen.file_io",
    "datagen.read_dataset": "datagen.file_io",
    "cli.main": "cli.command",
}


def _dataset_key(dataset):
    return hash(tuple(a.tobytes() for s in dataset.samples for a in (s.x, s.y, s.z)))


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [importlib.import_module(f"{package.__name__}.{m}") for m in
                        ("tasks", "ot_core", "ground_cost", "datagen", "transfer", "cli")]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []      # (id, name, start_s, end_s, parent_id)
        self.spans_dropped = 0
        self.oracle_keys = array.array("q")
        self.training_keys: list = []
        self._stack = [[0, 0.0]]          # [span id, traced child time] per open span
        self._next_id = 0
        self._patched: list[tuple] = []

    # --- installation ---------------------------------------------------

    def _targets(self):
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{short}.{attr}"
                if qual in UNWRAPPED or (short == "cli" and attr != "main"):
                    continue
                yield qual, fn

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(qual, fn)) for qual, fn in self._targets()}
        for ns in [self.package] + self.modules:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(ns, attr, wrappers[id(obj)][1])
                    self._patched.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # --- wrappers -------------------------------------------------------

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        return stat

    def _wrap(self, qual, fn):
        name = RENAMED.get(qual, qual)
        namer = after = None
        if qual == "tasks.oracle":
            namer = self._oracle_name
        elif qual == "ot_core.solve_exact":
            namer = self._exact_name
        elif qual == "ot_core.solve_sinkhorn":
            name, after = "ot_core.sinkhorn", self._after_sinkhorn
        elif qual == "transfer.train_regret_min":
            signature = inspect.signature(fn)

            def namer(args, kwargs):
                return self._training_name(signature.bind(*args, **kwargs))
        fixed = self._stat(name)
        stack, spans, clock, stat_of = self._stack, self.spans, time.perf_counter, self._stat
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if namer is None:
                span_name, stat = name, fixed
            else:
                span_name = namer(args, kwargs)
                stat = stat_of(span_name)
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1]
                parent[1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], span_name, t0, t1, parent[0]))
                else:
                    tracer.spans_dropped += 1
            if after is not None:
                after(out)
            return out

        return wrapper

    def _oracle_name(self, args, kwargs):
        task, y = args if len(args) == 2 else (args[0], kwargs["y"])
        self.oracle_keys.append(hash((task.kind, np.asarray(y, dtype=float).tobytes())))
        return "tasks.oracle." + task.kind

    @staticmethod
    def _exact_name(args, kwargs):
        # the dispatch rule of ot_core.solve_exact: uniform equal-size
        # marginals go to the assignment solver, everything else to the LP
        cost, a, b = args[:3]
        n, m = cost.entries.shape
        uniform = (n == m and np.allclose(a.weights, 1.0 / n, atol=1e-12)
                   and np.allclose(b.weights, 1.0 / n, atol=1e-12))
        return "ot_core.assignment" if uniform else "ot_core.lp"

    def _after_sinkhorn(self, result):
        self.counters["ot_core.sinkhorn.iterations"] = (
            self.counters.get("ot_core.sinkhorn.iterations", 0) + result.iterations)
        self.counters["ot_core.sinkhorn.unconverged"] = (
            self.counters.get("ot_core.sinkhorn.unconverged", 0) + (not result.converged))

    def _training_name(self, bound):
        bound.apply_defaults()
        p = bound.arguments
        self.training_keys.append((_dataset_key(p["dataset"]), p["budget"], p["restarts"], p["seed"]))
        return "transfer.train_regret_min"

    # --- results --------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def oracle_repeat_share(self) -> float:
        n = len(self.oracle_keys)
        distinct = np.unique(np.frombuffer(self.oracle_keys, dtype=np.int64)).size
        return 0.0 if n == 0 else 1.0 - distinct / n

    def training_repeat_share(self) -> float:
        n = len(self.training_keys)
        return 0.0 if n == 0 else 1.0 - len(set(self.training_keys)) / n

    def dump(self, path, extra=None):
        doc = {
            "spans_fields": ["id", "name", "start_s", "end_s", "parent_id"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "stats_fields": ["calls", "total_s", "self_s"],
            "stats": self.stats,
            "counters": self.counters,
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
