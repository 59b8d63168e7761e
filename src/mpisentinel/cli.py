"""Command-line entry point.

Subcommands: ingest (corpus -> manifest), evaluate (scenario -> report),
ablate (excluded-label study), predict (single IR file against a saved
model).  Errors are emitted as JSON lines on stderr; exit codes: 0 success,
1 completed with per-sample failures recorded, 2 usage/config error,
3 internal error.  Settings resolve flags > environment > config file >
defaults (MPISENTINEL_COMPILER_CMD, MPISENTINEL_JOBS).  --jobs sets the
number of compile workers for ingest; folds always run one after another.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import embed as embed_mod
from . import evaluate as eval_mod
from . import gnn as gnn_mod
from . import graph as graph_mod
from . import ircore, tabular

ENV_COMPILER = "MPISENTINEL_COMPILER_CMD"
ENV_JOBS = "MPISENTINEL_JOBS"

# the errors evaluate and ablate report by type name with exit 2
_USAGE_ERRORS = (OSError, json.JSONDecodeError, corpus_mod.SchemaViolation,
                 eval_mod.InvalidScenario, eval_mod.SuiteMissing,
                 eval_mod.TooFewSamples, eval_mod.LabelAbsent,
                 tabular.InvalidConfig, gnn_mod.InvalidGnnConfig)


def _error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _setting(flag_value, env_name, file_cfg, file_key, default):
    if flag_value is not None:
        return flag_value
    env = os.environ.get(env_name)
    if env is not None:
        return env
    if file_key in file_cfg:
        return file_cfg[file_key]
    return default


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top-level JSON value must be an object, "
                         f"not {type(doc).__name__}")
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpisentinel",
        description="Static MPI error detection over LLVM IR")
    parser.add_argument("--config", help="JSON config file overlay")
    parser.add_argument("--jobs", type=int, default=None,
                        help="compile workers for ingest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest a benchmark directory into a manifest")
    p.add_argument("--suite", choices=("mbi", "corrbench"), required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--opt", choices=corpus_mod.OPT_LEVELS, default="O0")
    p.add_argument("--compiler-cmd", default=None,
                   help="command template with {source} {output} {opt}; "
                        "'none' uses pre-compiled .ll siblings")
    p.add_argument("--timeout", type=float, default=120.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="run an evaluation scenario")
    _run_flags(p)
    p.add_argument("--scenario", choices=("intra", "mix", "cross"), required=True)
    p.add_argument("--backend", choices=("ir2vec-dt", "gnn"))
    p.add_argument("--labels", dest="label_mode", choices=("binary", "error-type"))
    p.add_argument("--train-suite")
    p.add_argument("--validate-suite")
    p.add_argument("--opt", dest="opt_level", help="restrict to one opt level")
    p.add_argument("--specificity-formula", choices=("ratio", "paper-literal"))
    p.add_argument("--gnn-epochs", type=int)
    p.add_argument("--gnn-lr", type=float)
    p.add_argument("--gnn-batch-size", type=int)
    p.add_argument("--report-csv",
                   help="also write a flat CSV of fold/aggregate metrics")

    p = sub.add_parser("ablate", help="excluded-label ablation study")
    _run_flags(p)
    p.add_argument("--exclude", action="append", required=True,
                   help="label to exclude (repeat for a pair)")

    p = sub.add_parser("predict", help="classify one IR file with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--ir", required=True)
    return parser


def _run_flags(p: argparse.ArgumentParser) -> None:
    """The flags evaluate and ablate share.  No option flag has an argparse
    default: one that is not given leaves the default of ScenarioOptions,
    GaConfig or GnnConfig in place (see _scenario_options)."""
    p.add_argument("--manifest", required=True)
    p.add_argument("--suite", help="the suite of an intra scenario or an ablation")
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--normalization", choices=("none", "vector", "index"))
    p.add_argument("--ga", dest="ga_enabled", choices=("on", "off"))
    p.add_argument("--ga-population", type=int)
    p.add_argument("--ga-generations", type=int)
    p.add_argument("--report", required=True)


def _scenario_options(args) -> eval_mod.ScenarioOptions:
    """ScenarioOptions from the flags that were given.  A flag's dest is the
    name of the field it sets, with a `ga_` or `gnn_` prefix for a field of
    GaConfig or GnnConfig; every other field keeps its dataclass default."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    if "ga_enabled" in given:
        given["ga_enabled"] = given["ga_enabled"] == "on"
    options = eval_mod.ScenarioOptions()
    for cfg, prefix in ((options, ""), (options.ga, "ga_"), (options.gnn, "gnn_")):
        for f in dataclasses.fields(cfg):
            if prefix + f.name in given:
                setattr(cfg, f.name, given[prefix + f.name])
    return options


def cmd_ingest(args, file_cfg, jobs: int) -> int:
    directory = Path(args.dir)
    if not directory.is_dir() or not os.access(directory, os.R_OK):
        return _error("UnreadableDirectory", f"cannot read {directory}", 2)
    compiler_cmd = _setting(args.compiler_cmd, ENV_COMPILER, file_cfg,
                            "compiler_cmd", "none")
    try:
        if args.suite == "mbi":
            samples = corpus_mod.ingest_mbi(directory, opt_level=args.opt)
        else:
            samples = corpus_mod.ingest_corrbench(directory, opt_level=args.opt)
        corpus_mod.attach_ir(samples, compiler_cmd, timeout=args.timeout,
                             jobs=jobs)
    except corpus_mod.CompilerNotFound as exc:
        return _error(type(exc).__name__, str(exc), 2)
    manifest = corpus_mod.Manifest(samples, provenance={
        "suite": args.suite, "directory": str(directory),
        "compiler_cmd": compiler_cmd, "opt": args.opt, "seed": 0,
    })
    corpus_mod.write_manifest(manifest, args.out)
    quarantined = sum(1 for s in samples if s.quarantined)
    ce = sum(1 for s in samples if s.compile_status == "compile-error")
    timeouts = sum(1 for s in samples if s.compile_status == "timeout")
    summary = {"samples": len(samples), "quarantined": quarantined,
               "compile_errors": ce, "timeouts": timeouts,
               "manifest": str(args.out)}
    print(json.dumps(summary, sort_keys=True))
    if not samples:
        sys.stderr.write(json.dumps(
            {"warning": "EmptyCorpus", "message": f"no sources under {directory}"})
            + "\n")
    return 0


def cmd_evaluate(args, file_cfg, jobs: int) -> int:
    try:
        scenario = eval_mod.Scenario(
            kind=args.scenario, suite=args.suite,
            train_suite=args.train_suite, validate_suite=args.validate_suite,
            options=_scenario_options(args))
        report = eval_mod.run_scenario(corpus_mod.read_manifest(args.manifest),
                                       scenario)
    except _USAGE_ERRORS as exc:
        return _error(type(exc).__name__, str(exc), 2)
    Path(args.report).write_text(eval_mod.report_to_json(report))
    if args.report_csv:
        Path(args.report_csv).write_text(eval_mod.report_to_csv(report))
    agg = report["aggregate"]["metrics"]
    print(json.dumps({"report": args.report,
                      "accuracy": agg["accuracy"],
                      "runtime_errors": len(report["failures"]["runtime_errors"])},
                     sort_keys=True))
    failures = report["failures"]
    return 1 if (failures["compile_errors"] or failures["runtime_errors"]
                 or failures.get("timeouts")) else 0


def cmd_ablate(args, file_cfg, jobs: int) -> int:
    try:
        report = eval_mod.ablation(corpus_mod.read_manifest(args.manifest),
                                   set(args.exclude), _scenario_options(args),
                                   suite=args.suite)
    except _USAGE_ERRORS as exc:
        return _error(type(exc).__name__, str(exc), 2)
    Path(args.report).write_text(eval_mod.report_to_json(report))
    print(json.dumps({"report": args.report, "accuracy": report["accuracy"]},
                     sort_keys=True))
    return 1 if "failures" in report else 0


def cmd_predict(args, file_cfg, jobs: int) -> int:
    try:
        with open(args.model) as fh:
            head = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _error("ModelLoadError", str(exc), 2)
    kind = head.get("kind") if isinstance(head, dict) else None
    loaders = {"ir2vec-dt": tabular.DtModel.load, "gnn": gnn_mod.load_checkpoint}
    if kind not in loaders:
        return _error("ModelIncompatible", f"unknown model kind {kind!r}", 2)
    try:
        model = loaders[kind](args.model)
    except (KeyError, TypeError, ValueError, tabular.WidthMismatch,
            gnn_mod.InvalidGnnConfig, gnn_mod.ShapeMismatch,
            gnn_mod.CheckpointParamsMismatch) as exc:
        return _error("ModelIncompatible", f"{type(exc).__name__}: {exc}", 2)
    try:
        module = ircore.parse_ir(Path(args.ir).read_text(encoding="utf-8"),
                                 Path(args.ir).name)
    except OSError as exc:
        return _error("IrLoadError", str(exc), 2)
    except UnicodeDecodeError as exc:
        return _error("IrLoadError", f"{args.ir} is not UTF-8 text: {exc}", 2)
    except ircore.MalformedIr as exc:
        return _error("MalformedIr", str(exc), 2)
    if kind == "ir2vec-dt":
        try:
            raw = model.embed(module)
        except embed_mod.FlowDiverges as exc:
            return _error("FlowDiverges", str(exc), 2)
        leaf = model.leaf(raw)
        print(json.dumps({"label": model.tree.label(leaf),
                          "leaf_class_counts": model.tree.class_counts(leaf)},
                         sort_keys=True))
        return 0
    try:
        g = graph_mod.build_graph(module)
        label, probs = gnn_mod.predict_with_probabilities(model, g)
    except gnn_mod.EmptyGraph as exc:
        return _error("EmptyGraph", str(exc), 2)
    print(json.dumps({"label": label, "probabilities": probs}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        file_cfg = _load_config_file(args.config)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or shape
        return _error("ConfigError", str(exc), 2)
    jobs_raw = _setting(args.jobs, ENV_JOBS, file_cfg, "jobs", os.cpu_count() or 1)
    try:
        jobs = max(1, int(jobs_raw))
    except (TypeError, ValueError):
        return _error("ConfigError", f"invalid jobs value {jobs_raw!r}", 2)
    handler = {"ingest": cmd_ingest, "evaluate": cmd_evaluate,
               "ablate": cmd_ablate, "predict": cmd_predict}[args.command]
    try:
        return handler(args, file_cfg, jobs)
    except Exception as exc:  # internal error contract
        return _error("InternalError", f"{type(exc).__name__}: {exc}", 3)


if __name__ == "__main__":
    raise SystemExit(main())
