"""Command-line entry point: reproducible runs driven by a key=value config.

Exit codes: 0 success, 1 runtime or data error, 2 usage or config error.
Every artifact is written atomically, and a fully-resolved config lands next
to the outputs of each run so results can be reproduced byte for byte.
"""

import argparse
import json
import os
import sys

from .dataset import (DataError, fit_normalizer, ingest_csv, make_windows,
                      normalize_day_tensor, split_chronological, to_day_tensor,
                      write_series_csv)
from .metrics import HorizonReport, MetricSet, evaluate, render_report
from .model import ModelConfig
from .pca import refresh_embedding, zero_embedding
from .pipeline import train_run
from .serialize import (atomic_write_text, load_model, load_projection,
                        save_model, save_projection, write_embedding_csv,
                        write_graph_csv)
from .synth import SynthSpec, generate, write_roles_csv
from .training import TrainConfig
from .transfer import (TransferPlan, cross_year_eval,
                       historical_average_baseline, split_adaptation,
                       zero_shot_transfer)


class ConfigError(ValueError):
    """Bad run configuration: unknown key, bad value, missing requirement."""


def _bool(text):
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (parser, default); None default means "unset"
CONFIG_KEYS = {
    "data.csv": (str, None),
    "data.shifted_csv": (str, None),
    "data.ratios": (str, "0.6,0.2,0.2"),
    "data.include_zeros_in_norm": (_bool, True),
    "model.l1": (int, 12),
    "model.l2": (int, 12),
    "model.embed_dim": (int, 8),
    "model.tod_dim": (int, 8),
    "model.dow_dim": (int, 4),
    "model.hidden_dim": (int, 32),
    "model.num_blocks": (int, 2),
    "model.use_graph": (_bool, False),
    "model.theta": (float, None),
    "embedding.strategy": (str, "adaptive"),
    "embedding.center": (_bool, True),
    "train.lr": (float, 1e-3),
    "train.max_epochs": (int, 200),
    "train.patience": (int, 20),
    "train.batch_size": (int, 32),
    "train.grad_clip_norm": (float, 5.0),
    "train.seed": (int, 0),
    "transfer.adaptation_fraction": (float, 0.05),
    "run.out_dir": (str, "run_out"),
}


def load_config(path):
    """Parse a flat `section.key=value` file against the known-key registry."""
    config = {k: default for k, (_, default) in CONFIG_KEYS.items()}
    with open(path, encoding="utf-8") as fh:
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


def parse_ratios(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"ratios need three values, got {text!r}")
    return tuple(parts)


def model_config_from(config, steps_per_day) -> ModelConfig:
    return ModelConfig(
        l1=config["model.l1"], l2=config["model.l2"],
        embed_dim=config["model.embed_dim"], tod_dim=config["model.tod_dim"],
        dow_dim=config["model.dow_dim"], hidden_dim=config["model.hidden_dim"],
        num_blocks=config["model.num_blocks"],
        use_graph=config["model.use_graph"], steps_per_day=steps_per_day,
    )


def train_config_from(config) -> TrainConfig:
    return TrainConfig(
        lr=config["train.lr"], max_epochs=config["train.max_epochs"],
        patience=config["train.patience"], batch_size=config["train.batch_size"],
        grad_clip_norm=config["train.grad_clip_norm"], seed=config["train.seed"],
    )


def _require(config, key):
    if config.get(key) is None:
        raise ConfigError(f"config key {key} is required for this command")
    return config[key]


def _horizons_for(l2):
    kept = tuple(h for h in (3, 6, 12) if h <= l2)
    return kept if kept else (l2,)


def _write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _train_log_text(report):
    lines = ["epoch,train_loss,val_mae"]
    for epoch, train_loss, val_mae in report.epochs:
        lines.append(f"{epoch},{train_loss!r},{val_mae!r}")
    return "\n".join(lines) + "\n"


def cmd_train(args):
    config = load_config(args.config)
    series = ingest_csv(_require(config, "data.csv"))
    out_dir = config["run.out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    run = train_run(
        series,
        model_config_from(config, series.steps_per_day),
        train_config_from(config),
        strategy=config["embedding.strategy"],
        ratios=parse_ratios(config["data.ratios"]),
        theta=config["model.theta"],
        center=config["embedding.center"],
        include_zeros_in_norm=config["data.include_zeros_in_norm"],
    )
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


def _eval_embedding(params, norm, strategy, series, ranges, args):
    """Embedding table used at evaluation time, per --strategy."""
    if strategy == "vanilla":
        return None
    if strategy == "zero":
        return zero_embedding(params.num_nodes, params.config.embed_dim)
    if strategy == "pca":
        if not args.proj:
            raise ConfigError("--strategy pca requires --proj")
        proj = load_projection(args.proj)
        z = to_day_tensor(series, ranges[0])
        return refresh_embedding(normalize_day_tensor(z, norm), proj)
    raise ConfigError(f"unknown eval strategy {strategy!r}")


def cmd_eval(args):
    params, norm = load_model(args.model)
    series = ingest_csv(args.data)
    ranges = split_chronological(series, parse_ratios(args.ratios))
    split_index = {"train": 0, "val": 1, "test": 2}[args.split]
    windows = make_windows(series, ranges[split_index],
                           params.config.l1, params.config.l2)
    emb = _eval_embedding(params, norm, args.strategy, series, ranges, args)
    report = evaluate(params, emb, windows, norm,
                      horizons=_horizons_for(params.config.l2), metadata={
        "dataset": os.path.basename(args.data), "strategy": args.strategy,
        "seed": None, "split": args.split,
    })
    _write_json(args.out, report.to_json_dict())
    print(render_report(report))
    return 0


STRATEGY_ALIASES = {
    "vanilla": "vanilla_adaptive", "zero": "zero_emb",
    "pca": "pca_emb", "finetune": "finetune_emb",
}


def cmd_transfer(args):
    params, norm = load_model(args.model)
    proj = load_projection(args.proj) if args.proj else None
    target = ingest_csv(args.target)

    cross_city = target.num_nodes != params.num_nodes
    if args.protocol == "cross-year":
        cross_city = False
    elif args.protocol == "zero-shot":
        cross_city = True

    entries = []
    for name in args.strategies.split(","):
        name = name.strip()
        if name not in STRATEGY_ALIASES:
            raise ConfigError(f"unknown transfer strategy {name!r}")
        plan = TransferPlan(
            adaptation_fraction=args.adaptation_fraction,
            strategy=STRATEGY_ALIASES[name], refit_projection=args.refit_projection,
        )
        horizons = _horizons_for(params.config.l2)
        if cross_city:
            if plan.strategy != "pca_emb":
                raise DataError(
                    f"strategy {name} needs matching node counts "
                    f"(model {params.num_nodes}, target {target.num_nodes})")
            report = zero_shot_transfer(params, norm, proj, target, plan,
                                        horizons=horizons)
        else:
            report = cross_year_eval(params, norm, proj, target, plan,
                                     horizons=horizons)
        entries.append({"strategy": name, "report": report.to_json_dict()})

    if args.include_baseline:
        _, eval_range = split_adaptation(target, args.adaptation_fraction)
        base = historical_average_baseline(target, eval_range,
                                           params.config.l1, params.config.l2,
                                           horizons=_horizons_for(params.config.l2))
        entries.append({"strategy": "hist_avg", "report": base.to_json_dict()})

    _write_json(args.out, entries)
    if args.csv_out:
        lines = ["strategy,horizon,mae,rmse,mape"]
        for entry in entries:
            for horizon, metric in sorted(entry["report"]["horizons"].items()):
                lines.append(f"{entry['strategy']},{horizon},{metric['mae']!r},"
                             f"{metric['rmse']!r},{metric['mape']!r}")
        atomic_write_text(args.csv_out, "\n".join(lines) + "\n")
    for entry in entries:
        avg = entry["report"]["horizons"]["avg"]
        print(f"{entry['strategy']}: MAE {avg['mae']:.4f} RMSE {avg['rmse']:.4f} "
              f"MAPE {avg['mape'] * 100:.2f}%")
    return 0


def cmd_sweep_components(args):
    config = load_config(args.config)
    series = ingest_csv(_require(config, "data.csv"))
    shifted = ingest_csv(_require(config, "data.shifted_csv"))
    ratios = parse_ratios(config["data.ratios"])
    frac = config["transfer.adaptation_fraction"]
    out_dir = config["run.out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    def one_run(strategy, embed_dim):
        cfg_dict = dict(config)
        cfg_dict["model.embed_dim"] = embed_dim
        run = train_run(
            series, model_config_from(cfg_dict, series.steps_per_day),
            train_config_from(cfg_dict), strategy=strategy, ratios=ratios,
            center=config["embedding.center"],
            include_zeros_in_norm=config["data.include_zeros_in_norm"],
        )
        test_mae = evaluate(run.params, None, run.bundle.test_windows,
                            run.bundle.normalizer,
                            horizons=_horizons_for(cfg_dict["model.l2"])).horizons["avg"].mae
        plan = TransferPlan(
            adaptation_fraction=frac,
            strategy="pca_emb" if strategy == "pca" else "vanilla_adaptive")
        shifted_mae = cross_year_eval(
            run.params, run.bundle.normalizer, run.projection, shifted, plan,
            horizons=_horizons_for(cfg_dict["model.l2"])).horizons["avg"].mae
        return run.report.best_val_mae, test_mae, shifted_mae

    lines = ["k,val_mae,test_mae,shifted_mae"]
    for k in range(args.k_min, args.k_max + 1):
        val_mae, test_mae, shifted_mae = one_run("pca", k)
        lines.append(f"{k},{val_mae!r},{test_mae!r},{shifted_mae!r}")
        print(f"k={k}: val {val_mae:.4f} test {test_mae:.4f} shifted {shifted_mae:.4f}")
    val_mae, test_mae, shifted_mae = one_run("adaptive", config["model.embed_dim"])
    lines.append(f"adaptive,{val_mae!r},{test_mae!r},{shifted_mae!r}")
    print(f"k=adaptive: val {val_mae:.4f} test {test_mae:.4f} shifted {shifted_mae:.4f}")

    atomic_write_text(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    atomic_write_text(os.path.join(out_dir, "config.resolved"),
                      resolved_config_text(config))
    return 0


def cmd_synth(args):
    try:
        spec = SynthSpec(n_nodes=args.nodes, n_roles=args.roles, days=args.days,
                         steps_per_day=args.steps_per_day,
                         shift_fraction=args.shift_fraction,
                         noise_std=args.noise_std, seed=args.seed)
    except ValueError as exc:  # bad flag values are usage errors
        raise ConfigError(str(exc))
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
    if args.model:
        params, _ = load_model(args.model)
        table = params.embedding
        node_ids = [str(i) for i in range(table.num_nodes)]
    else:
        if not (args.proj and args.data):
            raise ConfigError("need either --model or both --proj and --data")
        proj = load_projection(args.proj)
        series = ingest_csv(args.data)
        ranges = split_chronological(series, parse_ratios(args.ratios))
        norm = fit_normalizer(series, ranges[0])
        z = to_day_tensor(series, ranges[0])
        table = refresh_embedding(normalize_day_tensor(z, norm), proj)
        node_ids = series.node_ids
    write_embedding_csv(table, node_ids, args.out)
    print(f"wrote {args.out}")
    if args.graph_out:
        from .graph import build_adaptive_graph
        write_graph_csv(build_adaptive_graph(table), node_ids, args.graph_out,
                        min_weight=args.min_weight)
        print(f"wrote {args.graph_out}")
    return 0


def cmd_report(args):
    path = args.report
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
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
        except (AttributeError, KeyError, TypeError, ValueError):
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
    p.add_argument("--nodes", type=int, default=40)
    p.add_argument("--roles", type=int, default=4)
    p.add_argument("--days", type=int, default=28)
    p.add_argument("--steps-per-day", type=int, default=48)
    p.add_argument("--shift-fraction", type=float, default=0.5)
    p.add_argument("--noise-std", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--ratios", default="0.6,0.2,0.2")
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transfer", help="run transfer strategies on target data")
    p.add_argument("--model", required=True)
    p.add_argument("--proj", default=None)
    p.add_argument("--target", required=True)
    p.add_argument("--strategies", default="vanilla,zero,pca,finetune")
    p.add_argument("--adaptation-fraction", type=float, default=0.05)
    p.add_argument("--refit-projection", action="store_true")
    p.add_argument("--protocol", choices=("auto", "cross-year", "zero-shot"),
                   default="auto")
    p.add_argument("--include-baseline", action="store_true")
    p.add_argument("--out", default="comparison.json")
    p.add_argument("--csv-out", default=None)
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
    p.add_argument("--ratios", default="0.6,0.2,0.2")
    p.add_argument("--out", default="embeddings.csv")
    p.add_argument("--graph-out", default=None,
                   help="also export the adaptive graph built from the table")
    p.add_argument("--min-weight", type=float, default=0.0)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("report", help="render a report JSON as a text table")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
