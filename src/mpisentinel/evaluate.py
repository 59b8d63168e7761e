"""Evaluation harness: stratified k-fold cross-validation, the benchmark
metric suite, Intra/Mix/Cross scenarios for both backends, and the
excluded-label ablation protocol.

The positive class is Incorrect throughout (a true positive is a detected
error).  Fold counts are aggregated by summing before metrics are computed;
degenerate denominators surface as null metrics, never silent 0 or 1.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import embed as embed_mod
from . import gnn as gnn_mod
from . import graph as graph_mod
from . import ircore, tabular
from .corpus import CORRECT, INCORRECT, CorpusSample, Manifest, to_binary

BINARY_SPACE = [CORRECT, INCORRECT]


class TooFewSamples(Exception):
    pass


class LengthMismatch(Exception):
    pass


class SuiteMissing(Exception):
    pass


class LabelAbsent(Exception):
    pass


class InvalidScenario(Exception):
    pass


# ---------------------------------------------------------------------------
# Folds

@dataclass
class FoldPlan:
    folds: list[list[str]]  # k disjoint lists of sample ids


def make_folds(samples: list[CorpusSample], k: int, seed: int) -> FoldPlan:
    """Deterministic stratified partition: per label, ids are sorted, shuffled
    from the seed, and dealt round-robin, so each fold holds that label's
    count within +/-1."""
    if k < 2:
        raise InvalidScenario("k must be >= 2")
    if len(samples) < k:
        raise TooFewSamples(f"{len(samples)} samples cannot fill {k} folds")
    by_label: dict[str, list[str]] = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s.id)
    rng = np.random.Generator(np.random.PCG64(seed))
    folds: list[list[str]] = [[] for _ in range(k)]
    offset = 0
    for label in sorted(by_label):
        ids = sorted(by_label[label])
        perm = rng.permutation(len(ids))
        for j, p in enumerate(perm):
            folds[(j + offset) % k].append(ids[p])
        offset += len(ids)
    return FoldPlan([sorted(f) for f in folds])


# ---------------------------------------------------------------------------
# Metrics

@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0
    ce: int = 0
    to: int = 0
    re: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def errors(self) -> int:
        return self.ce + self.to + self.re

    def add(self, other: "ConfusionCounts"):
        for f in ("tp", "tn", "fp", "fn", "ce", "to", "re"):
            setattr(self, f, getattr(self, f) + getattr(other, f))


@dataclass
class MetricsReport:
    recall: float | None
    precision: float | None
    f1: float | None
    accuracy: float | None
    coverage: float | None
    conclusiveness: float | None
    specificity: float | None
    overall_accuracy: float | None
    counts: ConfusionCounts


def confusion(preds: list[str], truth: list[str],
              error_counts: tuple[int, int, int] = (0, 0, 0)) -> ConfusionCounts:
    if len(preds) != len(truth):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(truth)} truths")
    c = ConfusionCounts(ce=error_counts[0], to=error_counts[1], re=error_counts[2])
    for p, t in zip(preds, truth):
        if t == INCORRECT:
            if p == INCORRECT:
                c.tp += 1
            else:
                c.fn += 1
        else:
            if p == INCORRECT:
                c.fp += 1
            else:
                c.tn += 1
    return c


def _ratio(num, den) -> float | None:
    return num / den if den > 0 else None


def metrics(counts: ConfusionCounts,
            specificity_formula: str = "ratio") -> MetricsReport:
    """The eight benchmark metrics.  specificity_formula "ratio" reports
    TN/(TN+FP) (matches the published numbers); "paper-literal" reports
    1 - TN/(TN+FP) as printed in the metric table."""
    total = counts.total
    errors = counts.errors
    recall = _ratio(counts.tp, counts.tp + counts.fn)
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    f1 = None
    if recall is not None and precision is not None and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    accuracy = _ratio(counts.tp + counts.tn, total)
    coverage = 1 - counts.ce / (total + errors) if total + errors > 0 else None
    conclusiveness = 1 - errors / (total + errors) if total + errors > 0 else None
    spec = _ratio(counts.tn, counts.tn + counts.fp)
    if spec is not None and specificity_formula == "paper-literal":
        spec = 1 - spec
    overall = _ratio(counts.tp + counts.tn, total + errors)
    return MetricsReport(recall, precision, f1, accuracy, coverage,
                         conclusiveness, spec, overall, counts)


def metrics_to_dict(report: MetricsReport) -> dict:
    doc = asdict(report)
    doc["counts"] = asdict(report.counts)
    return doc


# ---------------------------------------------------------------------------
# Scenario configuration

@dataclass
class ScenarioOptions:
    backend: str = "ir2vec-dt"            # "ir2vec-dt" | "gnn"
    label_mode: str = "binary"            # "binary" | "error-type"
    normalization: str = "vector"         # "none" | "vector" | "index"
    opt_level: str | None = None          # filter; None takes every level
    ga_enabled: bool = False
    folds: int = 10
    seed: int = 0
    embed_dim: int = 256
    weights: tuple[float, float, float] = embed_mod.DEFAULT_WEIGHTS
    ga: tabular.GaConfig = field(default_factory=tabular.GaConfig)
    gnn: gnn_mod.GnnConfig = field(default_factory=gnn_mod.GnnConfig)
    specificity_formula: str = "ratio"

    def validate(self):
        """Raise the typed error of the first bad field, whichever backend
        and GA setting the run uses; run_scenario and ablation call this
        before they read any IR."""
        if self.backend not in _BACKENDS:
            raise InvalidScenario(f"unknown backend {self.backend!r}")
        if self.folds < 2:
            raise InvalidScenario("k must be >= 2")
        if self.seed < 0:
            raise InvalidScenario(f"seed must be >= 0, not {self.seed}")
        self.ga.validate(2 * self.embed_dim)  # an embedding has 2*dim features
        self.gnn.validate()

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["gnn"]["layer_sizes"] = list(doc["gnn"]["layer_sizes"])
        doc["weights"] = list(doc["weights"])
        return doc


@dataclass
class Scenario:
    kind: str                              # "intra" | "mix" | "cross"
    suite: str | None = None               # intra
    train_suite: str | None = None         # cross
    validate_suite: str | None = None      # cross
    options: ScenarioOptions = field(default_factory=ScenarioOptions)

    def __post_init__(self):
        if self.kind not in ("intra", "mix", "cross"):
            raise InvalidScenario(f"unknown scenario kind {self.kind!r}")
        if self.kind == "intra" and not self.suite:
            raise InvalidScenario("intra scenario needs a suite")
        if self.kind == "cross":
            if not (self.train_suite and self.validate_suite):
                raise InvalidScenario("cross scenario needs train and validate suites")
            if self.options.label_mode != "binary":
                raise InvalidScenario(
                    "cross scenarios support binary labels only: the suites "
                    "use different error-type label families")


# ---------------------------------------------------------------------------
# Backends

class _Backend:
    def __init__(self, options: ScenarioOptions):
        self.options = options
        self.inputs: dict[str, object] = {}  # sample id -> model input
        self.failed: dict[str, str] = {}     # sample id -> why it did not load


class _DtBackend(_Backend):
    """Embedding + normalization (+ optional GA) + decision tree."""

    def __init__(self, options: ScenarioOptions):
        super().__init__(options)
        self.vocab = embed_mod.SeedVocab(options.seed, options.embed_dim)

    def prepare(self, module: ircore.IrModule) -> np.ndarray:
        return embed_mod.embed(module, self.vocab, self.options.weights).values

    def fit(self, inputs, labels, label_space, fold_seed: int) -> tabular.DtModel:
        opts = self.options
        x = np.vstack(inputs)
        strategy = opts.normalization
        if strategy == "index":
            strategy = embed_mod.fit_index_scaler(x)
        x = embed_mod.normalize(x, strategy)
        subset = None
        data = tabular.LabeledVectors(x, labels, label_space)
        if opts.ga_enabled:
            subset = tabular.ga_select(data, replace(opts.ga, rng_seed=fold_seed))
            data = data.restrict(subset.indices)
        return tabular.DtModel(tabular.train_tree(data), strategy, subset,
                               opts.seed, opts.embed_dim, opts.weights)

    def predict(self, model: tabular.DtModel, inputs) -> list[str]:
        return model.predict(np.vstack(inputs))  # one walk for every row


class _GnnBackend(_Backend):
    def prepare(self, module: ircore.IrModule) -> graph_mod.ProgramGraph:
        g = graph_mod.build_graph(module)
        if not g.nodes:
            raise gnn_mod.EmptyGraph(f"{module.name}: module produced no nodes")
        return g

    def fit(self, inputs, labels, label_space, fold_seed: int) -> gnn_mod.GnnModel:
        cfg = replace(self.options.gnn, rng_seed=fold_seed,
                      num_classes=len(label_space))
        model = gnn_mod.init_model(cfg, gnn_mod.build_vocab(inputs), list(label_space))
        model, _ = gnn_mod.train(model, list(zip(inputs, labels)))
        return model

    def predict(self, model: gnn_mod.GnnModel, inputs) -> list[str]:
        return [gnn_mod.predict_gnn(model, g) for g in inputs]


_BACKENDS = {"ir2vec-dt": _DtBackend, "gnn": _GnnBackend}


def _make_backend(options: ScenarioOptions, samples: list[CorpusSample]):
    """The backend with each sample's model input in `inputs`.  Samples pass
    one at a time from IR file to model input, so no two parsed modules are
    alive together; a sample failing at any step goes into `failed` with its
    message and counts as RE."""
    backend = _BACKENDS[options.backend](options)
    for s in samples:
        try:
            backend.inputs[s.id] = backend.prepare(
                ircore.parse_ir(Path(s.ir_path).read_text(encoding="utf-8"), s.id))
        except Exception as exc:  # propagated per sample as RE
            backend.failed[s.id] = str(exc)
    return backend


def _fit_and_predict(backend, fold_index: int, train_ids, val_ids, labels_by_id,
                     label_space, fold_seed: int):
    """Fit one fold on its loadable training samples; returns the model and
    {sample id: predicted label} for the loadable validation samples, in
    validation order, predicted in one backend call."""
    loaded = [i for i in train_ids if i in backend.inputs]
    if not loaded:
        raise TooFewSamples(
            f"fold {fold_index}: all {len(train_ids)} training samples "
            f"failed to load")
    model = backend.fit([backend.inputs[i] for i in loaded],
                        [labels_by_id[i] for i in loaded], label_space, fold_seed)
    val = [sid for sid in val_ids if sid in backend.inputs]
    preds = backend.predict(model, [backend.inputs[sid] for sid in val]) if val else []
    return model, dict(zip(val, preds))


# ---------------------------------------------------------------------------
# Scenario runner

def _scope_samples(manifest: Manifest, scenario: Scenario) -> list[CorpusSample]:
    opts = scenario.options
    suites_present = {s.suite for s in manifest.samples}
    wanted: set[str]
    if scenario.kind == "intra":
        wanted = {scenario.suite}
    elif scenario.kind == "mix":
        wanted = {"MBI", "CorrBench"} & suites_present
        if not wanted:
            raise SuiteMissing("manifest has no MBI or CorrBench samples")
    else:
        wanted = {scenario.train_suite, scenario.validate_suite}
    missing = wanted - suites_present
    if missing:
        raise SuiteMissing(f"manifest lacks suites: {sorted(missing)}")
    selected = [s for s in manifest.samples if s.suite in wanted]
    if opts.opt_level:
        selected = [s for s in selected if s.opt_level == opts.opt_level]
    return selected


def _compiled(scope: list[CorpusSample]) -> tuple[list[CorpusSample], dict]:
    """The samples in scope that compiled, and the `failures` entries naming
    those that did not: `compile_error_reasons` (id -> compiler message) and
    `timeouts` (sorted ids), each present only when non-empty.  Quarantined
    samples are in neither."""
    kept = [s for s in scope if not s.quarantined]
    failures = {"compile_error_reasons": {s.id: s.compile_message for s in kept
                                          if s.compile_status == "compile-error"},
                "timeouts": sorted(s.id for s in kept if s.compile_status == "timeout")}
    return ([s for s in kept if s.compile_status == "ok"],
            {key: ids for key, ids in failures.items() if ids})


def _label_for_mode(sample: CorpusSample, mode: str) -> str:
    return to_binary(sample.label) if mode == "binary" else sample.label


def run_scenario(manifest: Manifest, scenario: Scenario) -> dict:
    """Full protocol run; returns the (JSON-serializable) scenario report."""
    opts = scenario.options
    opts.validate()
    scope = _scope_samples(manifest, scenario)
    evaluable, compile_failures = _compiled(scope)
    n_ce = len(compile_failures.get("compile_error_reasons", ()))
    by_id = {s.id: s for s in evaluable}
    labels_by_id = {s.id: _label_for_mode(s, opts.label_mode) for s in evaluable}
    if opts.label_mode == "binary":
        label_space = list(BINARY_SPACE)
    else:
        label_space = sorted({s.label for s in evaluable})

    fold_args = []
    if scenario.kind in ("intra", "mix"):
        plan = make_folds(evaluable, opts.folds, opts.seed)
        for fi, fold in enumerate(plan.folds):
            in_fold = set(fold)
            train_ids = [s.id for s in evaluable if s.id not in in_fold]
            fold_args.append((fi, train_ids, list(fold), opts.seed + fi))
    else:
        train_ids = [s.id for s in evaluable if s.suite == scenario.train_suite]
        val_ids = [s.id for s in evaluable if s.suite == scenario.validate_suite]
        if not train_ids or not val_ids:
            raise SuiteMissing("cross scenario needs samples in both suites")
        fold_args.append((0, train_ids, val_ids, opts.seed))

    backend = _make_backend(opts, evaluable)
    aggregate = ConfusionCounts(ce=n_ce, to=len(compile_failures.get("timeouts", ())))
    per_label_hits: dict[str, list[int]] = {}
    re_samples: list[str] = []
    fold_docs = []
    for fold_index, train_ids, val_ids, fold_seed in fold_args:
        model, predicted = _fit_and_predict(backend, fold_index, train_ids, val_ids,
                                            labels_by_id, label_space, fold_seed)
        fold_re = [sid for sid in val_ids if sid not in predicted]
        preds, truths = [], []
        for sid, pred in predicted.items():
            truth = labels_by_id[sid]
            preds.append(to_binary(pred) if opts.label_mode == "error-type"
                         else pred)
            truths.append(to_binary(truth) if opts.label_mode == "error-type"
                          else truth)
            per_label_hits.setdefault(by_id[sid].label, []).append(int(pred == truth))
        counts = confusion(preds, truths, (0, 0, len(fold_re)))
        aggregate.add(counts)
        re_samples.extend(fold_re)
        entry = {
            "fold": fold_index,
            "train_ids": sorted(train_ids),
            "validation_ids": sorted(val_ids),
            "seed": fold_seed,
            "counts": asdict(counts),
            "metrics": metrics_to_dict(metrics(counts, opts.specificity_formula)),
        }
        if isinstance(model, tabular.DtModel):
            entry.update(model.fold_artifacts())
        fold_docs.append(entry)

    per_label = {}
    for s in evaluable:
        lab = s.label
        hits = per_label_hits.get(lab)
        per_label[lab] = (sum(hits) / len(hits)) if hits else None

    report = {
        "report_version": 1,
        "scenario": {
            "kind": scenario.kind, "suite": scenario.suite,
            "train_suite": scenario.train_suite,
            "validate_suite": scenario.validate_suite,
        },
        "options": opts.to_dict(),
        "provenance": {
            "tool": "mpisentinel",
            "samples_in_scope": len(scope),
            "evaluable": len(evaluable),
            "quarantined": sum(1 for s in scope if s.quarantined),
            "stratified_folds": True,
            "seed_vocabulary": "deterministic hash-seeded token vectors",
            "manifest_provenance": manifest.provenance,
        },
        "folds": fold_docs,
        "aggregate": {
            "counts": asdict(aggregate),
            "metrics": metrics_to_dict(metrics(aggregate, opts.specificity_formula)),
        },
        "per_label_accuracy": per_label,
        "failures": {"compile_errors": n_ce, "runtime_errors": sorted(re_samples),
                     **compile_failures},
    }
    if re_samples:  # reports without runtime errors keep their shape
        report["failures"]["runtime_error_reasons"] = {
            sid: backend.failed[sid] for sid in re_samples}
    return report


# ---------------------------------------------------------------------------
# Ablation

def ablation_fold_plan(evaluable: list[CorpusSample], excluded: set[str],
                       k: int, seed: int) -> list[tuple[list[str], list[str]]]:
    """(train_ids, validation_ids) per fold with every excluded-label sample
    removed from the training side and kept for validation."""
    plan = make_folds(evaluable, k, seed)
    excluded_ids = {s.id for s in evaluable if s.label in excluded}
    out = []
    for fold in plan.folds:
        in_fold = set(fold)
        train = [s.id for s in evaluable
                 if s.id not in in_fold and s.id not in excluded_ids]
        out.append((train, list(fold)))
    return out


def ablation(manifest: Manifest, excluded: set[str], options: ScenarioOptions,
             suite: str | None = None) -> dict:
    """Excluded-label protocol: binary training without the excluded labels;
    reported accuracy per label = excluded-label samples predicted Incorrect
    over that label's total.  Samples that did not compile or fail to load
    are named under `failures`, with the keys run_scenario uses, whichever
    side of a fold they fall on.  A fold holding no loadable excluded-label
    sample fits no model, so it never raises TooFewSamples."""
    options.validate()
    if not 1 <= len(excluded) <= 2:
        raise InvalidScenario("exclude one or two labels")
    if CORRECT in excluded:
        raise InvalidScenario("the correct label cannot be excluded")
    scope = [s for s in manifest.samples if not suite or s.suite == suite]
    # a label whose samples all failed to compile is present: it is reported
    # with no accuracy, and its samples are named under failures
    present = {s.label for s in scope if not s.quarantined}
    for lab in excluded:
        if lab not in present:
            raise LabelAbsent(f"label has no samples: {lab}")
    samples, failures = _compiled(scope)
    labels_by_id = {s.id: to_binary(s.label) for s in samples}
    orig_label = {s.id: s.label for s in samples}
    plan = ablation_fold_plan(samples, excluded, options.folds, options.seed)
    backend = _make_backend(options, samples)

    hits = {lab: [0, 0] for lab in excluded}
    fold_docs = []
    for fi, (train_ids, val_ids) in enumerate(plan):
        leaked = [i for i in train_ids if orig_label[i] in excluded]
        if leaked:
            raise AssertionError(
                f"excluded-label samples leaked into training fold {fi}: {leaked}")
        targets = [sid for sid in val_ids
                   if orig_label[sid] in excluded and sid in backend.inputs]
        predicted = {}
        if targets:  # a fold with nothing to predict fits no model
            _, predicted = _fit_and_predict(backend, fi, train_ids, targets,
                                            labels_by_id, BINARY_SPACE,
                                            options.seed + fi)
        for sid, pred in predicted.items():
            hits[orig_label[sid]][1] += 1
            hits[orig_label[sid]][0] += int(pred == INCORRECT)
        fold_docs.append({"fold": fi, "train_size": len(train_ids),
                          "excluded_in_train": 0, "validation_ids": sorted(val_ids)})
    report = {
        "report_version": 1,
        "excluded": sorted(excluded),
        "options": options.to_dict(),
        "accuracy": {lab: (h[0] / h[1] if h[1] else None)
                     for lab, h in hits.items()},
        "sample_counts": {lab: h[1] for lab, h in hits.items()},
        "folds": fold_docs,
    }
    if backend.failed:
        failures.update(runtime_errors=sorted(backend.failed),
                        runtime_error_reasons=dict(backend.failed))
    if failures:  # reports without failed samples keep their shape
        report["failures"] = failures
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: dict) -> str:
    """Flat per-fold rows plus the aggregate, for plotting."""
    cols = ("recall", "precision", "f1", "accuracy", "coverage",
            "conclusiveness", "specificity", "overall_accuracy")
    count_cols = ("tp", "tn", "fp", "fn", "ce", "to", "re")
    lines = ["row," + ",".join(count_cols) + "," + ",".join(cols)]

    def fmt(metrics_doc, counts_doc, tag):
        vals = [str(counts_doc[c]) for c in count_cols]
        vals += ["" if metrics_doc[c] is None else repr(metrics_doc[c])
                 for c in cols]
        return f"{tag}," + ",".join(vals)

    for fold in report["folds"]:
        lines.append(fmt(fold["metrics"], fold["counts"], f"fold{fold['fold']}"))
    lines.append(fmt(report["aggregate"]["metrics"],
                     report["aggregate"]["counts"], "aggregate"))
    return "\n".join(lines) + "\n"
