"""Command-line entry point.

Subcommands: ingest (corpus -> manifest), evaluate (scenario -> report),
ablate (excluded-label study), predict (single IR file against a saved
model).  Errors are emitted as JSON lines on stderr; exit codes: 0 success,
1 completed with per-sample failures recorded, 2 usage/config error,
3 internal error.  One table, the usage errors of _error_tables, decides
exit 2: main reports any error of a type in it by its type name, whichever
command raised it, and any other exception as InternalError.  Before they
read any input, ingest checks --timeout (finite, above 0), --out and,
with a compiler, the directory <out stem>-ir/ beside it that receives the
compiled IR, and evaluate and ablate check --report and --report-csv, so a
bad output path costs no run.  Settings resolve flags > environment >
config file > defaults (MPISENTINEL_COMPILER_CMD, MPISENTINEL_JOBS).  --jobs sets the
number of compile workers for ingest; folds always run one after another.

Each command imports only the modules it runs: ingest needs corpus alone
and so starts without NumPy; evaluate and ablate import evaluate; predict
imports ircore and either tabular or gnn and graph.  The error tables name
types from every module, so they are built only once a command has raised.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod

ENV_COMPILER = "MPISENTINEL_COMPILER_CMD"
ENV_JOBS = "MPISENTINEL_JOBS"


@functools.cache
def _error_tables() -> tuple[tuple[type, ...], tuple[type, ...]]:
    """(usage errors, model errors).  Usage errors are the input errors main
    reports by type name with exit 2, whichever command raised them (an
    OSError that reaches main is a manifest, source or output path); model
    errors are the errors predict reports as ModelIncompatible when a model
    file loads.  Built on the first error only, because naming the types
    imports their modules, NumPy among them."""
    from . import embed, evaluate, gnn, ircore, tabular
    usage = (OSError, json.JSONDecodeError, UnicodeDecodeError,
             corpus_mod.CompilerNotFound, corpus_mod.SchemaViolation,
             ircore.MalformedIr, ircore.UndefinedLocal, embed.FlowDiverges,
             evaluate.InvalidScenario, evaluate.SuiteMissing,
             evaluate.TooFewSamples, evaluate.LabelAbsent,
             tabular.InvalidConfig, gnn.InvalidGnnConfig, gnn.EmptyGraph)
    model = (KeyError, TypeError, ValueError, tabular.WidthMismatch,
             gnn.InvalidGnnConfig, gnn.ShapeMismatch,
             gnn.CheckpointParamsMismatch)
    return usage, model


def _error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _check_output(path) -> None:
    """Raise the OSError that writing a file at `path` would raise: its
    directory must exist and be writable, and `path` must not be a
    directory.  Creates nothing, so a typo fails before the run, not after."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(parent, os.W_OK | os.X_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _check_dir(path) -> None:
    """Raise the OSError that writing files into the directory `path` would
    raise: it must be a writable directory, or a new path that
    _check_output accepts.  Creates nothing."""
    if not os.path.exists(path):
        return _check_output(path)
    if not os.path.isdir(path):
        code = errno.ENOTDIR
    elif not os.access(path, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


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
    p.add_argument("--labels", dest="label_mode", choices=("binary", "error-type"))
    p.add_argument("--train-suite")
    p.add_argument("--validate-suite")
    p.add_argument("--opt", dest="opt_level", help="restrict to one opt level")
    p.add_argument("--specificity-formula", choices=("ratio", "paper-literal"))
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
    p.add_argument("--backend", choices=("ir2vec-dt", "gnn"))
    p.add_argument("--normalization", choices=("none", "vector", "index"))
    p.add_argument("--ga", dest="ga_enabled", choices=("on", "off"))
    p.add_argument("--ga-population", type=int)
    p.add_argument("--ga-generations", type=int)
    p.add_argument("--gnn-epochs", type=int)
    p.add_argument("--gnn-lr", type=float)
    p.add_argument("--gnn-batch-size", type=int)
    p.add_argument("--report", required=True)


def _scenario_options(args):
    """ScenarioOptions from the flags that were given.  A flag's dest is the
    name of the field it sets, with a `ga_` or `gnn_` prefix for a field of
    GaConfig or GnnConfig; every other field keeps its dataclass default."""
    from . import evaluate as eval_mod
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
    if not 0 < args.timeout < float("inf"):  # also false for NaN
        return _error("ConfigError", f"invalid timeout value {args.timeout!r}", 2)
    _check_output(args.out)
    compiler_cmd = _setting(args.compiler_cmd, ENV_COMPILER, file_cfg,
                            "compiler_cmd", "none")
    # a compiler writes into <manifest stem>-ir/ beside the manifest, never
    # into the directory it reads
    ir_dir = None
    if compiler_cmd not in ("", "none"):
        out = Path(args.out)
        ir_dir = out.with_name(f"{out.stem}-ir")
        _check_dir(ir_dir)
    if args.suite == "mbi":
        samples = corpus_mod.ingest_mbi(directory, opt_level=args.opt)
    else:
        samples = corpus_mod.ingest_corrbench(directory, opt_level=args.opt)
    corpus_mod.attach_ir(samples, compiler_cmd, ir_dir, timeout=args.timeout,
                         jobs=jobs)
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
    from . import evaluate as eval_mod
    for path in (args.report, args.report_csv):
        if path:
            _check_output(path)
    scenario = eval_mod.Scenario(
        kind=args.scenario, suite=args.suite,
        train_suite=args.train_suite, validate_suite=args.validate_suite,
        options=_scenario_options(args))
    report = eval_mod.run_scenario(corpus_mod.read_manifest(args.manifest),
                                   scenario)
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
    from . import evaluate as eval_mod
    _check_output(args.report)
    report = eval_mod.ablation(corpus_mod.read_manifest(args.manifest),
                               set(args.exclude), _scenario_options(args),
                               suite=args.suite)
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
    if kind == "ir2vec-dt":
        from . import tabular
        load = tabular.DtModel.load
    elif kind == "gnn":
        from . import gnn as gnn_mod
        from . import graph as graph_mod
        load = gnn_mod.load_checkpoint
    else:
        return _error("ModelIncompatible", f"unknown model kind {kind!r}", 2)
    try:
        model = load(args.model)
    except Exception as exc:
        _, model_errors = _error_tables()
        if not isinstance(exc, model_errors):
            raise
        return _error("ModelIncompatible", f"{type(exc).__name__}: {exc}", 2)
    from . import ircore
    try:
        module = ircore.parse_ir(Path(args.ir).read_text(encoding="utf-8"),
                                 Path(args.ir).name)
    except OSError as exc:
        return _error("IrLoadError", str(exc), 2)
    except UnicodeDecodeError as exc:
        return _error("IrLoadError", f"{args.ir} is not UTF-8 text: {exc}", 2)
    if kind == "ir2vec-dt":
        leaf = model.leaf(model.embed(module))
        print(json.dumps({"label": model.tree.label(leaf),
                          "leaf_class_counts": model.tree.class_counts(leaf)},
                         sort_keys=True))
        return 0
    label, probs = gnn_mod.predict_with_probabilities(
        model, graph_mod.build_graph(module))
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
        usage_errors, _ = _error_tables()
        if isinstance(exc, usage_errors):
            return _error(type(exc).__name__, str(exc), 2)
        return _error("InternalError", f"{type(exc).__name__}: {exc}", 3)


if __name__ == "__main__":
    raise SystemExit(main())
