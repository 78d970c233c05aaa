"""Spans around whilep's layers, installed from outside the package.

Each public name is wrapped in the namespace of the module that *calls*
it, never in the module that defines it: recursive calls stay untraced,
and a traced call adds one frame, so the same programs reach the
recursion limit as without tracing.  The benchmark itself calls whilep
through the package namespace, so its calls are wrapped there.

A span is (name, start, end, parent, op, error).  Spans are kept in
memory and written out by ``dump``; per-name totals (calls, self time,
errors) are accumulated as spans close, where self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

# (calling module, attribute, span name = defining module.function)
TARGETS = (
    ("whilep", "parse", "lang.parse"),
    ("whilep", "pretty", "lang.pretty"),
    ("whilep", "optimize", "deadcode.optimize"),
    ("whilep", "serialize", "certificate.serialize"),
    ("whilep", "deserialize", "certificate.deserialize"),
    ("whilep", "check", "certificate.check"),
    ("whilep", "execute", "interp.execute"),
    ("whilep", "run_soundness_suite", "harness.run_soundness_suite"),
    ("whilep", "gen_program", "harness.gen_program"),
    ("whilep", "gen_state", "harness.gen_state"),
    ("whilep.certificate", "parse", "lang.parse"),
    ("whilep.certificate", "pretty", "lang.pretty"),
    ("whilep.certificate", "transfer", "pointsto.transfer"),
    ("whilep.certificate", "leaf_live_pre", "liveness.leaf_live_pre"),
    ("whilep.deadcode", "annotate", "pointsto.annotate"),
    ("whilep.deadcode", "live_annotate", "liveness.live_annotate"),
    ("whilep.harness", "optimize", "deadcode.optimize"),
    ("whilep.harness", "execute", "interp.execute"),
    ("whilep.harness", "annotate", "pointsto.annotate"),
    ("whilep.harness", "live_annotate", "liveness.live_annotate"),
    ("whilep.harness", "models", "pointsto.models"),
    ("whilep.harness", "models_live", "liveness.models_live"),
    ("whilep.harness", "similar_states", "liveness.similar_states"),
    ("whilep.interp", "fresh_instance", "memory.fresh_instance"),
)

# spans reported per op; harness.gen_program and harness.gen_state are
# called from outside harness only while the inputs are built
OP_SPANS = tuple(dict.fromkeys(name for _, _, name in TARGETS
                               if name not in ("harness.gen_program",
                                               "harness.gen_state")))
SETUP_SPANS = ("harness.gen_program", "harness.gen_state")

MAX_KEPT_SPANS = 1_000_000


def _count_parse(tracer, args, result):
    tracer.counters["lang.parse.bytes"] += len(args[0])


def _count_annotate(tracer, args, result):
    tracer.counters["pointsto.exit_keys"] += len(result.post.env)


def _count_serialize(tracer, args, result):
    tracer.counters["certificate.bytes"] += len(result)
    tracer.counters["certificate.nodes"] += result.count('"rule":')


def _count_execute(tracer, args, result):
    tracer.counters[f"interp.{type(result).__name__}"] += 1


def _count_fresh(tracer, args, result):
    tracer.peak_heap_cells = max(tracer.peak_heap_cells, len(args[0]))


COUNTERS = {
    "lang.parse": _count_parse,
    "pointsto.annotate": _count_annotate,
    "certificate.serialize": _count_serialize,
    "interp.execute": _count_execute,
    "memory.fresh_instance": _count_fresh,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        self.stack: list = []  # [span index, time covered by children]
        self.op = "setup"
        self.calls = defaultdict(Counter)   # phase -> name -> calls
        self.self_s = defaultdict(Counter)  # phase -> name -> seconds
        self.total_s = defaultdict(Counter)  # phase -> name -> seconds
        self.errors = defaultdict(Counter)  # phase -> name -> count
        self.top_level_s = 0.0
        self.counters = Counter()
        self.peak_heap_cells = 0
        self._undo: list = []

    def reset_stack(self):
        """Forget open spans, after an op was interrupted mid-call."""
        self.stack.clear()

    def install(self, modules: dict):
        for module_name, attr, name in TARGETS:
            module = modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, COUNTERS.get(name)))
            self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, count):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans) + tracer.dropped, 0.0]
            stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._close(name, start, end, parent, frame, error)
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def _close(self, name, start, end, parent, frame, error):
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        duration = end - start
        phase = "setup" if self.op == "setup" else "op"
        self.calls[phase][name] += 1
        self.total_s[phase][name] += duration
        self.self_s[phase][name] += duration - frame[1]
        if error is not None:
            self.errors[phase][name] += 1
        if stack:
            stack[-1][1] += duration
        elif phase == "op":
            self.top_level_s += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((name, start, end, parent, self.op, error))
        else:
            self.dropped += 1

    def dump(self, path) -> None:
        """Write the kept spans as gzipped JSON lines, times in seconds
        from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (name, start, end, parent, op, error) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "op": op,
                    "error": error}) + "\n")
