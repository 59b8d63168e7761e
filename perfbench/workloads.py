"""The benchmark's workloads: a corpus shape plus the ``evaluate`` flags.

Every workload is an Intra scenario on the generated MBI-style suite, run
with ``--jobs 1``.  ``SMOKE`` holds tiny variants of the same workloads for
the benchmark's own self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from gen_corpus import CorpusSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    evaluate_args: tuple[str, ...]


_DT_GA_ARGS = ("--backend", "ir2vec-dt", "--labels", "error-type",
               "--normalization", "vector", "--ga", "on",
               "--ga-population", "32", "--ga-generations", "4",
               "--folds", "3")
_DT_LARGE_ARGS = ("--backend", "ir2vec-dt", "--labels", "binary",
                  "--normalization", "vector", "--ga", "off", "--folds", "3")
_GNN_ARGS = ("--backend", "gnn", "--labels", "binary",
             "--gnn-epochs", "2", "--gnn-batch-size", "32",
             "--gnn-lr", "0.0004", "--folds", "2")

WORKLOADS = {w.name: w for w in (
    Workload(
        "dt-ga",
        "GA feature selection over CART on many small modules: "
        "tabular fitness dominates; graph, gnn and autodiff are bypassed",
        CorpusSpec(modules=48, helpers=(2, 4), body_ops=(3, 8),
                   label_mode="error-type"),
        _DT_GA_ARGS),
    Workload(
        "dt-large-modules",
        "few large modules, decision tree without GA: the IR parser and the "
        "embedder dominate; the GA is bypassed",
        CorpusSpec(modules=40, helpers=(10, 26), body_ops=(6, 14),
                   label_mode="binary", site_share=1.0),
        _DT_LARGE_ARGS),
    Workload(
        "gnn-train",
        "GATv2 training at the paper's widths on ~200-node graphs: autodiff "
        "and gnn dominate; embed and tabular are bypassed",
        CorpusSpec(modules=64, helpers=(3, 4), body_ops=(3, 8),
                   label_mode="binary"),
        _GNN_ARGS),
)}


def _smoke(w: Workload) -> Workload:
    args = list(w.evaluate_args)
    for flag, value in (("--ga-population", "4"), ("--ga-generations", "1"),
                        ("--folds", "2")):
        if flag in args:
            args[args.index(flag) + 1] = value
    helpers = (min(w.corpus.helpers[0], 3), min(w.corpus.helpers[1], 4))
    corpus = replace(w.corpus, modules=20, helpers=helpers)
    return replace(w, corpus=corpus, evaluate_args=tuple(args))


SMOKE = {name: _smoke(w) for name, w in WORKLOADS.items()}
