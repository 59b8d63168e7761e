"""mpisentinel: static MPI error detection over LLVM IR.

Two classification backends (decision tree over IR2vec-style embeddings,
heterogeneous GATv2 network over program graphs) plus corpus ingestion and
a benchmark evaluation harness.

Each exported name is looked up in its module on first access, so
`import mpisentinel` loads no submodule and a command pays only for the
modules it runs (`ingest` needs neither NumPy nor the models).
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SOURCE = {
    "CorpusSample": "corpus", "Manifest": "corpus", "read_manifest": "corpus",
    "to_binary": "corpus", "write_manifest": "corpus",
    "EmbeddingVector": "embed", "SeedVocab": "embed", "normalize": "embed",
    "ConfusionCounts": "evaluate", "MetricsReport": "evaluate",
    "Scenario": "evaluate", "ScenarioOptions": "evaluate",
    "ablation": "evaluate", "confusion": "evaluate", "make_folds": "evaluate",
    "metrics": "evaluate", "run_scenario": "evaluate",
    "GnnConfig": "gnn", "GnnModel": "gnn", "predict_gnn": "gnn",
    "ProgramGraph": "graph", "build_graph": "graph",
    "IrModule": "ircore", "MalformedIr": "ircore", "parse_ir": "ircore",
    "DecisionTree": "tabular", "GaConfig": "tabular",
    "LabeledVectors": "tabular", "ga_select": "tabular",
    "predict_tree": "tabular", "train_tree": "tabular",
}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    """An exported name, read from its submodule on every access (PEP 562),
    so a patched or wrapped module attribute is what callers get."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
