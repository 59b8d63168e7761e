"""Outside-in span tracing of mpisentinel's public functions.

``install`` replaces each function in ``WRAP_POINTS`` at the module
attribute where mpisentinel's own code looks it up (``adam_step`` is called
through the name imported into ``gnn``, ``train_tree`` through ``tabular``'s
globals, and so on), so no file under ``src/`` changes.  Spans are kept in
memory as ``[name, start, end, parent, work]`` and written out once, when
the traced process ends.  ``work`` is a list of counts taken from the call
(bytes parsed, graphs in a batch, nodes and edges built).

The tracer keeps one call stack, so it is only meaningful for single-threaded
runs (``--jobs 1``).
"""

from __future__ import annotations

import functools
import importlib
import time


def _parse_bytes(args, kwargs, result):
    return [len(args[0])]


def _batch_graphs(args, kwargs, result):
    return [len(args[1])]


def _graph_size(args, kwargs, result):
    return [len(result.nodes), len(result.edges)]


def _samples(args, kwargs, result):
    return [len(result)]


# (module, attribute path, span name, work counter)
WRAP_POINTS = (
    ("mpisentinel.cli", "main", "cli.main", None),
    ("mpisentinel.corpus", "ingest_mbi", "corpus.ingest_mbi", _samples),
    ("mpisentinel.corpus", "attach_ir", "corpus.attach_ir", None),
    ("mpisentinel.corpus", "write_manifest", "corpus.write_manifest", None),
    ("mpisentinel.corpus", "read_manifest", "corpus.read_manifest", None),
    ("mpisentinel.evaluate", "run_scenario", "evaluate.run_scenario", None),
    ("mpisentinel.ircore", "parse_ir", "ircore.parse_ir", _parse_bytes),
    ("mpisentinel.embed", "embed", "embed.embed", None),
    ("mpisentinel.embed", "normalize", "embed.normalize", None),
    ("mpisentinel.graph", "build_graph", "graph.build_graph", _graph_size),
    ("mpisentinel.tabular", "run_ga", "tabular.run_ga", None),
    ("mpisentinel.tabular", "fitness", "tabular.fitness", None),
    ("mpisentinel.tabular", "train_tree", "tabular.train_tree", None),
    ("mpisentinel.tabular", "predict_tree", "tabular.predict_tree", None),
    ("mpisentinel.gnn", "train", "gnn.train", None),
    ("mpisentinel.gnn", "logits_batch", "gnn.logits_batch", _batch_graphs),
    ("mpisentinel.gnn", "predict_gnn", "gnn.predict_gnn", None),
    ("mpisentinel.gnn", "adam_step", "autodiff.adam_step", None),
    ("mpisentinel.autodiff", "Tensor.backward", "autodiff.backward", None),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, []]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAP_POINTS in place."""
    for module_name, path, name, counter in WRAP_POINTS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, counter))


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds (inclusive
    minus the time its direct children cover) and summed work counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, work) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0,
                                      "self_s": 0.0, "work": []})
        entry["calls"] += 1
        entry["inclusive_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        if len(entry["work"]) < len(work):
            entry["work"] += [0] * (len(work) - len(entry["work"]))
        for k, w in enumerate(work):
            entry["work"][k] += w
    return out
