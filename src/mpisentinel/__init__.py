"""mpisentinel: static MPI error detection over LLVM IR.

Two classification backends (decision tree over IR2vec-style embeddings,
heterogeneous GATv2 network over program graphs) plus corpus ingestion and
a benchmark evaluation harness.
"""

from .corpus import (CorpusSample, Manifest, read_manifest, to_binary,
                     write_manifest)
from .embed import EmbeddingVector, SeedVocab, normalize
from .evaluate import (ConfusionCounts, MetricsReport, Scenario,
                       ScenarioOptions, ablation, confusion, make_folds,
                       metrics, run_scenario)
from .gnn import GnnConfig, GnnModel, predict_gnn
from .graph import ProgramGraph, build_graph, graph_stats, validate_graph
from .ircore import IrModule, MalformedIr, parse_ir, token_triple
from .tabular import (DecisionTree, GaConfig, LabeledVectors, ga_select,
                      predict_tree, train_tree)

__version__ = "0.1.0"

__all__ = [
    "CorpusSample", "Manifest", "read_manifest", "write_manifest",
    "EmbeddingVector", "SeedVocab", "normalize",
    "ConfusionCounts", "MetricsReport", "Scenario", "ScenarioOptions",
    "ablation", "confusion", "make_folds", "metrics", "run_scenario",
    "to_binary", "GnnConfig", "GnnModel", "predict_gnn",
    "ProgramGraph", "build_graph", "graph_stats", "validate_graph",
    "IrModule", "MalformedIr", "parse_ir", "token_triple",
    "DecisionTree", "GaConfig", "LabeledVectors", "ga_select",
    "predict_tree", "train_tree", "__version__",
]
