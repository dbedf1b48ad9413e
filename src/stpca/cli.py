"""Command-line entry point: reproducible runs driven by a key=value config.

Exit codes: 0 success, 1 runtime or data error, 2 usage or config error.
Every artifact is written atomically, and a fully-resolved config lands next
to the outputs of each run so results can be reproduced byte for byte.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .dataset import (RATIOS, ConfigError, DataError, _check, check_ratios,
                      fit_normalizer, ingest_csv, make_windows, split_chronological,
                      to_day_tensor, write_series_csv)
from .metrics import HorizonReport, MetricSet, evaluate, render_report
from .model import ModelConfig
from .pca import check_theta, pca_table
from .pipeline import check_train_strategy, sweep_run, train_run
from .serialize import (atomic_write_text, load_model, load_projection,
                        save_model, save_projection, write_embedding_csv,
                        write_graph_csv)
from .synth import SynthSpec, generate, write_roles_csv
from .training import TrainConfig
from .transfer import (TransferPlan, cross_year_eval,
                       historical_average_baseline, split_adaptation,
                       with_strategy, zero_shot_transfer)


def _bool(text):
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _theta(text):
    value = float(text)
    check_theta(value)
    return value


def _train_strategy(text):
    check_train_strategy(text)
    return text


_RATIOS_TEXT = ",".join(map(str, RATIOS))

# key -> (parser, default); None default means "unset". A model.* or train.*
# key is a field of ModelConfig or TrainConfig, with that field's type,
# default and range; steps_per_day is the data's.
CONFIG_KEYS = {
    "data.csv": (str, None),
    "data.shifted_csv": (str, None),
    "data.ratios": (str, _RATIOS_TEXT),
    **{f"{section}.{f.name}": (_bool if f.type is bool else f.type, f.default)
       for section, cls in (("model", ModelConfig), ("train", TrainConfig))
       for f in fields(cls) if f.name != "steps_per_day"},
    "model.theta": (_theta, None),
    "embedding.strategy": (_train_strategy, "adaptive"),
    "transfer.adaptation_fraction": (float, TransferPlan.adaptation_fraction),
    "run.out_dir": (str, "run_out"),
}


def load_config(path):
    """Parse a flat `section.key=value` file against the known-key registry."""
    config = {k: default for k, (_, default) in CONFIG_KEYS.items()}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            parser = CONFIG_KEYS[key][0]
            try:
                config[key] = parser(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return config


def resolved_config_text(config):
    lines = []
    for key in sorted(config):
        value = config[key]
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def parse_ratios(text, name):
    """Three positive split fractions summing to 1, from the `a,b,c` text of name."""
    try:
        ratios = tuple(float(p) for p in text.split(","))
        check_ratios(ratios)
    except ValueError as exc:
        raise ConfigError(f"{name}={text}: {exc}") from None
    return ratios


def _section(cls, config, section):
    """The `cls` whose fields are the config's `section.*` keys; a bad value's
    message names its key."""
    try:
        return cls(**{f.name: config[f"{section}.{f.name}"] for f in fields(cls)
                      if f"{section}.{f.name}" in config})
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from None


def _require(config, key):
    if config.get(key) is None:
        raise ConfigError(f"config key {key} is required for this command")
    return config[key]


def _write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _train_log_text(report):
    lines = ["epoch,train_loss,val_mae"]
    for epoch, train_loss, val_mae in report.epochs:
        lines.append(f"{epoch},{train_loss!r},{val_mae!r}")
    return "\n".join(lines) + "\n"


def _check_components(name, k, k_min, series, ratios):
    """ConfigError unless k lies in [k_min, fit_projection's cap on components]:
    the slots per day, and one less than the training range's (day, node) samples."""
    T = series.steps_per_day
    samples = series.num_nodes * len(
        to_day_tensor(series, split_chronological(series, ratios)[0]))
    _check(f"{name} (T={T}, {samples} training samples)", k,
           f"[{k_min}, {min(T, samples - 1)}]")


def cmd_train(args):
    config = load_config(args.config)
    train_cfg = _section(TrainConfig, config, "train")
    model_cfg = _section(ModelConfig, config, "model")
    _section(TransferPlan, config, "transfer")  # checked, as config.resolved records it
    ratios = parse_ratios(config["data.ratios"], "data.ratios")
    series = ingest_csv(_require(config, "data.csv"))
    model_cfg = replace(model_cfg, steps_per_day=series.steps_per_day)
    strategy = config["embedding.strategy"]
    if strategy == "pca" and config["model.theta"] is None:
        _check_components("model.embed_dim", model_cfg.embed_dim, 1, series, ratios)

    run = train_run(series, model_cfg, train_cfg, strategy=strategy,
                    ratios=ratios, theta=config["model.theta"])
    out_dir = config["run.out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    save_model(run.params, run.bundle.normalizer, os.path.join(out_dir, "model.stpf"))
    if run.projection is not None:
        save_projection(run.projection, os.path.join(out_dir, "proj.stpj"))
    atomic_write_text(os.path.join(out_dir, "train_log.csv"),
                      _train_log_text(run.report))
    atomic_write_text(os.path.join(out_dir, "config.resolved"),
                      resolved_config_text(config))
    print(f"trained: best epoch {run.report.best_epoch}, "
          f"val MAE {run.report.best_val_mae:.6g} ({run.report.stopping_reason})")
    return 0


STRATEGY_ALIASES = {
    "vanilla": "vanilla_adaptive", "zero": "zero_emb",
    "pca": "pca_emb", "finetune": "finetune_emb",
}


def _projection(args, strategies):
    """The --proj projection if one of `strategies` is pca_emb, else None."""
    if "pca_emb" not in strategies:
        return None
    if not args.proj:
        raise ConfigError("strategy pca requires --proj")
    return load_projection(args.proj)


def cmd_eval(args):
    ratios = parse_ratios(args.ratios, "--ratios")
    params, norm = load_model(args.model)
    series = ingest_csv(args.data)
    ranges = split_chronological(series, ratios)
    strategy = STRATEGY_ALIASES[args.strategy]
    scored = with_strategy(params, strategy, series, ranges[0], norm,
                           _projection(args, [strategy]))
    windows = make_windows(series, ranges[("train", "val", "test").index(args.split)],
                           params.config.l1, params.config.l2)
    report = evaluate(scored, None, windows, norm, metadata={
        "dataset": os.path.basename(args.data), "strategy": args.strategy,
        "seed": None, "split": args.split,
    })
    _write_json(args.out, report.to_json_dict())
    print(render_report(report))
    return 0


def cmd_transfer(args):
    plans = []
    for name in args.strategies.split(","):
        name = name.strip()
        if name not in STRATEGY_ALIASES:
            raise ConfigError(f"unknown transfer strategy {name!r}")
        plans.append((name, TransferPlan(adaptation_fraction=args.adaptation_fraction,
                                         strategy=STRATEGY_ALIASES[name],
                                         refit_projection=args.refit_projection)))
    params, norm = load_model(args.model)
    proj = _projection(args, [plan.strategy for _, plan in plans])
    target = ingest_csv(args.target)
    # the same sensors in a later year, or a foreign node set
    score = (cross_year_eval if target.num_nodes == params.num_nodes
             else zero_shot_transfer)

    entries = []
    for name, plan in plans:
        try:
            report = score(params, norm, proj, target, plan)
        except DataError as exc:
            raise DataError(f"strategy {name}: {exc}") from None
        entries.append({"strategy": name, "report": report.to_json_dict()})

    if args.include_baseline:
        _, eval_range = split_adaptation(target, args.adaptation_fraction)
        base = historical_average_baseline(target, eval_range,
                                           params.config.l1, params.config.l2)
        entries.append({"strategy": "hist_avg", "report": base.to_json_dict()})

    _write_json(args.out, entries)
    for entry in entries:
        avg = entry["report"]["horizons"]["avg"]
        print(f"{entry['strategy']}: MAE {avg['mae']:.4f} RMSE {avg['rmse']:.4f} "
              f"MAPE {avg['mape'] * 100:.2f}%")
    return 0


def cmd_sweep_components(args):
    config = load_config(args.config)
    train_cfg = _section(TrainConfig, config, "train")
    model_cfg = _section(ModelConfig, config, "model")
    plan = _section(TransferPlan, config, "transfer")
    ratios = parse_ratios(config["data.ratios"], "data.ratios")
    _check("--k-min", args.k_min, "[1, inf)")
    _check(f"--k-max (--k-min is {args.k_min})", args.k_max, f"[{args.k_min}, inf)")
    series = ingest_csv(_require(config, "data.csv"))
    shifted = ingest_csv(_require(config, "data.shifted_csv"))
    _check_components("--k-max", args.k_max, args.k_min, series, ratios)
    model_cfg = replace(model_cfg, steps_per_day=series.steps_per_day)
    out_dir = config["run.out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    points = [(str(k), "pca", k) for k in range(args.k_min, args.k_max + 1)]
    points.append(("adaptive", "adaptive", model_cfg.embed_dim))
    lines = ["k,val_mae,test_mae,shifted_mae"]
    for label, strategy, embed_dim in points:
        val_mae, test_mae, shifted_mae = sweep_run(
            series, shifted, replace(model_cfg, embed_dim=embed_dim),
            train_cfg, strategy, plan.adaptation_fraction, ratios=ratios)
        lines.append(f"{label},{val_mae!r},{test_mae!r},{shifted_mae!r}")
        print(f"k={label}: val {val_mae:.4f} test {test_mae:.4f} "
              f"shifted {shifted_mae:.4f}")

    atomic_write_text(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    atomic_write_text(os.path.join(out_dir, "config.resolved"),
                      resolved_config_text(config))
    return 0


def cmd_synth(args):
    spec = SynthSpec(n_nodes=args.nodes, n_roles=args.roles, days=args.days,
                     steps_per_day=args.steps_per_day, shift_fraction=args.shift_fraction,
                     noise_std=args.noise_std, seed=args.seed)
    train, shifted, role_maps = generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    write_series_csv(train, os.path.join(args.out_dir, "train.csv"))
    write_series_csv(shifted, os.path.join(args.out_dir, "shifted.csv"))
    write_roles_csv(role_maps, train.node_ids,
                    os.path.join(args.out_dir, "roles.csv"))
    print(f"wrote train.csv, shifted.csv, roles.csv to {args.out_dir}")
    return 0


def cmd_ingest(args):
    series = ingest_csv(args.data)
    summary = {
        "nodes": series.num_nodes, "total_steps": series.total_steps,
        "interval_minutes": series.interval_minutes,
        "steps_per_day": series.steps_per_day,
        "days": series.total_steps / series.steps_per_day,
        "start_slot": series.start_slot, "start_dow": series.start_dow,
        "zero_fraction": float((series.values == 0).mean()),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_export_embeddings(args):
    ratios = parse_ratios(args.ratios, "--ratios")
    if args.model:
        params, _ = load_model(args.model)
        table = params.embedding
        node_ids = [str(i) for i in range(table.num_nodes)]
    else:
        if not (args.proj and args.data):
            raise ConfigError("need either --model or both --proj and --data")
        proj = load_projection(args.proj)
        series = ingest_csv(args.data)
        ranges = split_chronological(series, ratios)
        table, _ = pca_table(series, ranges[0], fit_normalizer(series, ranges[0]), proj)
        node_ids = series.node_ids
    write_embedding_csv(table, node_ids, args.out)
    print(f"wrote {args.out}")
    if args.graph_out:
        from .graph import build_adaptive_graph
        write_graph_csv(build_adaptive_graph(table), node_ids, args.graph_out)
        print(f"wrote {args.graph_out}")
    return 0


def cmd_report(args):
    path = args.report
    with open(path, encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}: not a JSON file ({exc})") from None
    if isinstance(payload, dict):
        payload = [{"strategy": payload.get("strategy"), "report": payload}]
    if not isinstance(payload, list):
        raise DataError(f"{path}: expected a report object or a list of entries")
    tables = []
    for i, entry in enumerate(payload):
        try:
            horizons = {
                k: MetricSet(mae=float(v["mae"]), rmse=float(v["rmse"]),
                             mape=float(v["mape"]))
                for k, v in entry["report"]["horizons"].items()}
            strategy = entry.get("strategy")
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
            raise DataError(f"{path}: entry {i} is not a report with mae/rmse/mape "
                            "per horizon") from None
        tables.append(f"--- {strategy}\n"
                      + render_report(HorizonReport(horizons=horizons)))
    for table in tables:
        print(table)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stpca",
        description="Spatiotemporal forecasting with frozen PCA node embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a traffic CSV and print a summary")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic train/shifted pair")
    p.add_argument("--nodes", type=int, default=SynthSpec.n_nodes)
    p.add_argument("--roles", type=int, default=SynthSpec.n_roles)
    p.add_argument("--days", type=int, default=SynthSpec.days)
    p.add_argument("--steps-per-day", type=int, default=SynthSpec.steps_per_day)
    p.add_argument("--shift-fraction", type=float, default=SynthSpec.shift_fraction)
    p.add_argument("--noise-std", type=float, default=SynthSpec.noise_std)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--out-dir", default="synth_out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a forecaster from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", choices=("vanilla", "zero", "pca"),
                   default="vanilla")
    p.add_argument("--proj", default=None)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--ratios", default=_RATIOS_TEXT)
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transfer", help="run transfer strategies on target data")
    p.add_argument("--model", required=True)
    p.add_argument("--proj", default=None)
    p.add_argument("--target", required=True)
    p.add_argument("--strategies", default="vanilla,zero,pca,finetune")
    p.add_argument("--adaptation-fraction", type=float,
                   default=TransferPlan.adaptation_fraction)
    p.add_argument("--refit-projection", action="store_true")
    p.add_argument("--include-baseline", action="store_true")
    p.add_argument("--out", default="comparison.json")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("sweep-components",
                       help="train per component count; emit the sweep CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=16)
    p.set_defaults(func=cmd_sweep_components)

    p = sub.add_parser("export-embeddings", help="write an embedding table CSV")
    p.add_argument("--model", default=None)
    p.add_argument("--proj", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--ratios", default=_RATIOS_TEXT)
    p.add_argument("--out", default="embeddings.csv")
    p.add_argument("--graph-out", default=None,
                   help="also export the adaptive graph built from the table")
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("report", help="render a report JSON as a text table")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a float overflow or invalid operation is a fault of the input (a
        # damaged checkpoint, say): end it as a one-line error, not a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
