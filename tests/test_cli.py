import argparse
import ast
import dataclasses
import inspect
import json
import math
import os
import pathlib
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stpca import cli
from stpca.cli import (CONFIG_KEYS, build_parser, load_config, main,
                       resolved_config_text)
from stpca.dataset import (Normalizer, fit_normalizer, ingest_csv, make_windows,
                           split_chronological)
from stpca.metrics import evaluate
from stpca.model import ModelConfig, init_params, set_embedding
from stpca.pca import fit_projection, pca_table, zero_embedding
from stpca.serialize import (embedding_csv, load_model, load_projection,
                             save_model, save_projection)
from test_dataset import csv_texts

SMALL_CONFIG = """
data.csv={data}
data.ratios=0.6,0.2,0.2
model.l1=6
model.l2=6
model.embed_dim=3
model.tod_dim=4
model.dow_dim=2
model.hidden_dim=4
model.num_blocks=1
embedding.strategy={strategy}
train.lr=0.002
train.max_epochs=2
train.patience=2
train.batch_size=16
train.seed=7
run.out_dir={out_dir}
"""


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    code = run_cli("synth", "--nodes", "8", "--roles", "4", "--days", "10",
                   "--steps-per-day", "24", "--shift-fraction", "0.5",
                   "--noise-std", "2.0", "--seed", "3", "--out-dir", str(d))
    assert code == 0
    return d


def write_config(path, data, out_dir, strategy="pca", extra=""):
    path.write_text(SMALL_CONFIG.format(data=data, out_dir=out_dir,
                                        strategy=strategy) + extra)


class TestSynth:
    def test_writes_three_files(self, synth_dir):
        names = sorted(p.name for p in synth_dir.iterdir())
        assert names == ["roles.csv", "shifted.csv", "train.csv"]

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run_cli("synth", "--nodes", "4", "--roles", "2", "--days", "8",
                           "--steps-per-day", "24", "--seed", "5",
                           "--out-dir", str(d)) == 0
        for name in ("train.csv", "shifted.csv", "roles.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_shift_fraction_exit_2(self, tmp_path, capsys):
        code = run_cli("synth", "--shift-fraction", "1.5",
                       "--out-dir", str(tmp_path))
        assert code == 2


class TestIngest:
    def test_summary(self, synth_dir, capsys):
        assert run_cli("ingest", "--data", str(synth_dir / "train.csv")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["nodes"] == 8
        assert summary["steps_per_day"] == 24
        assert sorted(summary) == ["days", "interval_minutes", "nodes",
                                   "start_dow", "start_slot", "steps_per_day",
                                   "total_steps", "zero_fraction"]

    def test_adjacency_flag_is_a_usage_error(self, synth_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli("ingest", "--data", str(synth_dir / "train.csv"),
                    "--adjacency", "adj.csv")
        assert exc.value.code == 2

    def test_missing_file_exit_1(self, tmp_path):
        assert run_cli("ingest", "--data", str(tmp_path / "nope.csv")) == 1


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


class TestFaultExits:
    """Bad inputs end in exit 1 (data) or 2 (config) with one stderr line."""

    def test_mixed_utc_offsets_exit_1(self, tmp_path, capsys):
        p = tmp_path / "flow.csv"
        p.write_text("timestamp,a\n2024-01-01T00:00:00,1\n"
                     "2024-01-01T12:00:00+01:00,2\n")
        assert run_cli("ingest", "--data", str(p)) == 1
        assert "flow.csv:3:" in assert_one_line_error(capsys, "error: ")

    def test_repeated_node_id_exit_1(self, tmp_path, capsys):
        p = tmp_path / "flow.csv"
        p.write_text("timestamp,a,a\n2024-01-01T00:00:00,1,2\n"
                     "2024-01-01T12:00:00,3,4\n")
        assert run_cli("ingest", "--data", str(p)) == 1
        assert "repeated node id 'a'" in assert_one_line_error(capsys, "error: ")

    def test_not_utf8_exit_1(self, tmp_path, capsys):
        p = tmp_path / "flow.csv"
        p.write_bytes(b"timestamp,a\n2024-01-01T00:00:00,1\n"
                      b"2024-01-01T00:05:00,\xff2\n")
        assert run_cli("ingest", "--data", str(p)) == 1
        err = assert_one_line_error(capsys, "error: ")
        assert "flow.csv:3: not UTF-8 text" in err

    def test_directory_as_data_exit_1(self, tmp_path, capsys):
        assert run_cli("ingest", "--data", str(tmp_path)) == 1
        assert_one_line_error(capsys, "error: ")

    def test_directory_as_config_exit_1(self, tmp_path, capsys):
        assert run_cli("train", "--config", str(tmp_path)) == 1
        assert_one_line_error(capsys, "error: ")

    @pytest.mark.parametrize("line", [
        "data.ratios=a,b,c", "data.ratios=0.5,0.5", "data.ratios=0.5,0.2,0.2",
        "data.ratios=0.5,0.5,nan",
        "train.patience=0", "train.patience=5", "train.lr=-1",
        "model.hidden_dim=0", "model.l1=0", "model.l2=-3", "model.theta=1.5",
        "embedding.strategy=banana", "model.use_graph=maybe",
    ])
    def test_bad_config_value_exit_2(self, synth_dir, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        write_config(cfg, synth_dir / "train.csv", tmp_path / "o", extra=line + "\n")
        assert run_cli("train", "--config", str(cfg)) == 2
        err = assert_one_line_error(capsys, "config error: ")
        section, field = line.split("=")[0].split(".")
        assert section in err and field in err
        assert not (tmp_path / "o").exists()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_texts(), st.binary(max_size=2), st.integers(0, 10 ** 6))
    def test_generated_csv_exit_0_or_1(self, tmp_path, capsys, text, junk, at):
        raw = text.encode("utf-8")
        at %= len(raw) + 1
        p = tmp_path / "flow.csv"
        p.write_bytes(raw[:at] + junk + raw[at:])
        code = run_cli("ingest", "--data", str(p))
        if code == 0:
            assert json.loads(capsys.readouterr().out)["nodes"] >= 1
        else:
            assert code == 1
            assert_one_line_error(capsys, "error: ")

    def test_failed_allocation_exit_1(self, synth_dir, tmp_path, capsys,
                                      monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr(cli, "train_run", no_memory)
        cfg = tmp_path / "run.cfg"
        write_config(cfg, synth_dir / "train.csv", tmp_path / "o")
        assert run_cli("train", "--config", str(cfg)) == 1
        assert "Unable to allocate" in assert_one_line_error(capsys, "error: ")

    # a NaN fails no `<= 0` test, so each check is written to fail it
    @pytest.mark.parametrize("line", ["train.seed=-1", "train.lr=nan",
                                      "train.grad_clip_norm=nan", "train.lr=inf",
                                      "train.lr=-inf", "train.grad_clip_norm=inf"])
    def test_bad_train_value_exit_2_before_reading_data(self, synth_dir, tmp_path,
                                                        capsys, monkeypatch, line):
        reads = []
        monkeypatch.setattr(cli, "ingest_csv", lambda *a, **k: reads.append(a))
        cfg = tmp_path / "bad.cfg"
        write_config(cfg, synth_dir / "train.csv", tmp_path / "o", extra=line + "\n")
        assert run_cli("train", "--config", str(cfg)) == 2
        key = line.split("=")[0]
        assert_one_line_error(capsys, f"config error: {key} must be ")
        assert reads == [] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--seed", "-1", "seed"), ("--noise-std", "nan", "noise_std"),
        ("--noise-std", "inf", "noise_std"),
    ], ids=["seed", "noise_std", "noise_std-inf"])
    def test_bad_synth_flag_exit_2(self, tmp_path, capsys, flag, value, field):
        assert run_cli("synth", flag, value, "--out-dir", str(tmp_path / "s")) == 2
        assert field in assert_one_line_error(capsys, "config error: ")
        assert not (tmp_path / "s").exists()

    def test_bad_ratios_flag_exit_2(self, synth_dir, trained_dir, tmp_path, capsys):
        assert run_cli("eval", "--model", str(trained_dir / "model.stpf"),
                       "--data", str(synth_dir / "train.csv"), "--ratios", "1,x,1",
                       "--out", str(tmp_path / "r.json")) == 2
        assert_one_line_error(capsys, "config error: ")

    @pytest.mark.parametrize("command, removed", [
        ("transfer", ["--csv-out", "{tmp}/cmp.csv"]), ("transfer", ["--refit-projection"]),
        ("export-embeddings", ["--min-weight", "0.1"]),
    ], ids=["transfer", "transfer-refit-projection", "export-embeddings"])
    def test_removed_flag_exit_2(self, synth_dir, trained_dir, tmp_path, command,
                                 removed):
        model = ["--model", str(trained_dir / "model.stpf")]
        if command == "transfer":
            argv = [*model, "--target", str(synth_dir / "shifted.csv"),
                    "--out", str(tmp_path / "cmp.json")]
        else:
            argv = [*model, "--graph-out", str(tmp_path / "g.csv")]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *argv, *(a.format(tmp=tmp_path) for a in removed))
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case, code, line", [
        ("train-without-data", 2,
         "config error: config key data.csv is required for this command"),
        ("unknown-strategy", 2, "config error: unknown transfer strategy 'banana'"),
        ("export-without-source", 2,
         "config error: need either --model or both --proj and --data"),
        ("header-l1-zero", 1,
         "error: {model}: bad header config: l1 must be in [1, inf), got 0"),
    ], ids=["train-without-data", "unknown-strategy", "export-without-source",
            "header-l1-zero"])
    def test_input_fault_exit(self, synth_dir, trained_dir, tmp_path, capsys, case,
                              code, line):
        model = tmp_path / "model.stpf"
        raw = bytearray((trained_dir / "model.stpf").read_bytes())
        raw[9:13] = (0).to_bytes(4, "little")  # the header's l1
        model.write_bytes(bytes(raw))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"run.out_dir={tmp_path / 'o'}\n")
        out = str(tmp_path / "out.json")
        argv = {"train-without-data": ["train", "--config", str(cfg)],
                "unknown-strategy": ["transfer", "--model", str(model),
                                     "--target", str(synth_dir / "shifted.csv"),
                                     "--strategies", "vanilla,banana", "--out", out],
                "export-without-source": ["export-embeddings", "--out", out],
                "header-l1-zero": ["eval", "--model", str(model),
                                   "--data", str(synth_dir / "train.csv"), "--out", out]}
        assert run_cli(*argv[case]) == code
        assert capsys.readouterr().err == line.format(model=model) + "\n"
        assert sorted(tmp_path.iterdir()) == [model, cfg]

    def test_diverging_training_exit_1(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, synth_dir / "train.csv", tmp_path / "o",
                     extra="train.lr=1e300\n")
        assert run_cli("train", "--config", str(cfg)) == 1
        assert_one_line_error(capsys, "error: ")
        assert not (tmp_path / "o").exists()  # the directory comes after training


class TestTrain:
    def test_artifacts(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        write_config(cfg, synth_dir / "train.csv", out)
        assert run_cli("train", "--config", str(cfg)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["config.resolved", "model.stpf", "proj.stpj",
                         "train_log.csv"]
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_mae"
        assert len(log) == 3  # 2 epochs
        # the resolved config is itself a valid config for a rerun
        assert load_config(out / "config.resolved") == load_config(cfg)

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        outs = []
        for sub in ("o1", "o2"):
            cfg = tmp_path / f"{sub}.cfg"
            out = tmp_path / sub
            write_config(cfg, synth_dir / "train.csv", out)
            assert run_cli("train", "--config", str(cfg)) == 0
            outs.append(out)
        for name in ("model.stpf", "proj.stpj", "train_log.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("strategy", ["adaptive", "zero"])
    def test_no_projection_file(self, synth_dir, tmp_path, strategy):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        write_config(cfg, synth_dir / "train.csv", out, strategy=strategy)
        assert run_cli("train", "--config", str(cfg)) == 0
        assert not (out / "proj.stpj").exists()
        params, _ = load_model(out / "model.stpf")
        assert params.embedding.strategy == strategy
        assert params.embedding.values.any() == (strategy == "adaptive")

    def test_byte_order_mark_config_same_resolved_config(self, synth_dir, tmp_path):
        # Windows editors may start a UTF-8 file with the bytes EF BB BF
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        out = tmp_path / "out"
        write_config(plain, synth_dir / "train.csv", out)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_config(marked) == load_config(plain)
        assert run_cli("train", "--config", str(marked)) == 0
        assert ((out / "config.resolved").read_text()
                == resolved_config_text(load_config(plain)))

    def test_unknown_key_exit_2(self, synth_dir, tmp_path, capsys):
        # a removed option must fail loudly, not be ignored
        for line in ("model.banana=1", "embedding.center=true",
                     "data.include_zeros_in_norm=true"):
            cfg = tmp_path / "bad.cfg"
            write_config(cfg, synth_dir / "train.csv", tmp_path / "o",
                         extra=line + "\n")
            assert run_cli("train", "--config", str(cfg)) == 2
            err = assert_one_line_error(capsys, "config error: ")
            assert f"unknown key {line.split('=')[0]!r}" in err
            assert not (tmp_path / "o").exists()

    def test_pca_embed_dim_above_the_cap_exit_2_before_training(self, synth_dir, tmp_path,
                                                                capsys, monkeypatch):
        # 8 nodes x 6 training days are 48 samples, so T = 24 caps k
        runs = []
        monkeypatch.setattr(cli, "train_run", lambda *a, **k: runs.append(a))
        cfg = tmp_path / "run.cfg"
        write_config(cfg, synth_dir / "train.csv", tmp_path / "o",
                     extra="model.embed_dim=25\n")
        assert run_cli("train", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            "config error: model.embed_dim (T=24, 48 training samples) "
            "must be in [1, 24], got 25\n")
        assert runs == [] and not (tmp_path / "o").exists()

    def test_pca_embed_dim_unchecked_when_theta_picks_k(self, synth_dir, tmp_path):
        out = tmp_path / "o"
        write_config(tmp_path / "run.cfg", synth_dir / "train.csv", out,
                     extra="model.embed_dim=25\nmodel.theta=0.9\n")
        assert run_cli("train", "--config", str(tmp_path / "run.cfg")) == 0
        assert (out / "proj.stpj").exists()


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("trained")
    cfg = d / "run.cfg"
    write_config(cfg, synth_dir / "train.csv", d / "out")
    assert run_cli("train", "--config", str(cfg)) == 0
    return d / "out"


class TestEval:
    def test_report_written(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("eval", "--model", str(trained_dir / "model.stpf"),
                       "--data", str(synth_dir / "train.csv"),
                       "--out", str(out)) == 0
        blob = json.loads(out.read_text())
        assert set(blob["horizons"]) == {"3", "6", "avg"}  # l2=6 drops H12

    def test_zero_vs_vanilla_differ(self, synth_dir, trained_dir, tmp_path):
        reports = {}
        for strategy in ("vanilla", "zero"):
            out = tmp_path / f"{strategy}.json"
            assert run_cli("eval", "--model", str(trained_dir / "model.stpf"),
                           "--data", str(synth_dir / "train.csv"),
                           "--strategy", strategy, "--out", str(out)) == 0
            reports[strategy] = json.loads(out.read_text())
        assert (reports["vanilla"]["horizons"]["avg"]["mae"]
                != reports["zero"]["horizons"]["avg"]["mae"])

    @pytest.mark.parametrize("strategy", ["zero", "pca"])
    def test_equals_evaluate_with_table_set(self, synth_dir, trained_dir, tmp_path,
                                            strategy):
        out = tmp_path / "report.json"
        assert run_cli("eval", "--model", str(trained_dir / "model.stpf"),
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--data", str(synth_dir / "train.csv"),
                       "--strategy", strategy, "--out", str(out)) == 0
        params, norm = load_model(trained_dir / "model.stpf")
        series = ingest_csv(synth_dir / "train.csv")
        ranges = split_chronological(series, (0.6, 0.2, 0.2))
        if strategy == "zero":
            table = zero_embedding(params.num_nodes, params.config.embed_dim)
        else:
            table, _ = pca_table(series, ranges[0], norm,
                                 load_projection(trained_dir / "proj.stpj"))
        manual = evaluate(set_embedding(params, table), None,
                          make_windows(series, ranges[2], 6, 6), norm)
        reported = json.loads(out.read_text())["horizons"]
        assert reported == {k: m.as_dict() for k, m in manual.horizons.items()}

    def test_missing_checkpoint_exit_1(self, synth_dir, tmp_path):
        assert run_cli("eval", "--model", str(tmp_path / "missing.stpf"),
                       "--data", str(synth_dir / "train.csv")) == 1

    def test_dirty_zero_checkpoint_exit_1(self, synth_dir, trained_dir, tmp_path,
                                          capsys):
        # a zero-strategy checkpoint whose table was rewritten to 5.0
        params, norm = load_model(trained_dir / "model.stpf")
        params.embedding = zero_embedding(params.num_nodes, params.config.embed_dim)
        params.embedding.values[:] = 5.0  # past the table's own check
        dirty = tmp_path / "dirty.stpf"
        save_model(params, norm, dirty)
        assert run_cli("eval", "--model", str(dirty), "--data",
                       str(synth_dir / "train.csv"), "--strategy", "vanilla",
                       "--out", str(tmp_path / "r.json")) == 1
        assert "nonzero" in assert_one_line_error(capsys, f"error: {dirty}: ")
        assert not (tmp_path / "r.json").exists()

    def test_eval_rerun_byte_identical(self, synth_dir, trained_dir, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run_cli("eval", "--model", str(trained_dir / "model.stpf"),
                           "--data", str(synth_dir / "train.csv"),
                           "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def city_dir(tmp_path_factory):
    """A 5-node city with the trained model's 24 slots per day."""
    d = tmp_path_factory.mktemp("city_b")
    assert run_cli("synth", "--nodes", "5", "--roles", "4", "--days", "10",
                   "--steps-per-day", "24", "--seed", "9", "--out-dir", str(d)) == 0
    return d


class TestTransfer:
    def test_four_strategy_comparison(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "cmp.json"
        assert run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--target", str(synth_dir / "shifted.csv"),
                       "--strategies", "vanilla,zero,pca,finetune",
                       "--adaptation-fraction", "0.3",
                       "--include-baseline",
                       "--out", str(out)) == 0
        entries = json.loads(out.read_text())
        assert [e["strategy"] for e in entries] == [
            "vanilla", "zero", "pca", "finetune", "hist_avg"]

    def test_steps_per_day_mismatch_exit_1(self, trained_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert run_cli("synth", "--nodes", "8", "--roles", "4", "--days", "5",
                       "--steps-per-day", "48", "--seed", "1",
                       "--out-dir", str(other)) == 0
        code = run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--target", str(other / "train.csv"),
                       "--strategies", "pca", "--adaptation-fraction", "0.3",
                       "--out", str(tmp_path / "x.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert "48" in err and "24" in err

    @pytest.mark.parametrize("fraction", ["0.9", "0", "-0.1"])
    @pytest.mark.parametrize("baseline", [False, True], ids=["plain", "baseline"])
    def test_bad_adaptation_fraction_exit_2(self, synth_dir, trained_dir, tmp_path,
                                            capsys, fraction, baseline):
        out = tmp_path / "t.json"
        argv = ["transfer", "--model", str(trained_dir / "model.stpf"),
                "--target", str(synth_dir / "shifted.csv"),
                "--strategies", "vanilla,zero", "--adaptation-fraction", fraction,
                "--out", str(out)]
        assert run_cli(*argv, *(["--include-baseline"] if baseline else [])) == 2
        assert_one_line_error(
            capsys, f"config error: adaptation_fraction must be in (0, 0.5], got {fraction}")
        assert not out.exists()

    def protocol_of(self, trained_dir, target, out):
        assert run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--target", str(target),
                       "--strategies", "pca", "--adaptation-fraction", "0.3",
                       "--out", str(out)) == 0
        return json.loads(out.read_text())[0]["report"]["meta"]["protocol"]

    def test_zero_shot_different_node_count(self, city_dir, trained_dir, tmp_path):
        assert self.protocol_of(trained_dir, city_dir / "train.csv",
                                tmp_path / "zs.json") == "zero_shot"

    def test_same_node_count_is_cross_year(self, synth_dir, trained_dir, tmp_path):
        assert self.protocol_of(trained_dir, synth_dir / "train.csv",
                                tmp_path / "cy.json") == "cross_year"

    def test_non_pca_on_foreign_nodes_exit_1(self, city_dir, trained_dir, tmp_path,
                                             capsys):
        out = tmp_path / "t.json"
        assert run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--target", str(city_dir / "train.csv"),
                       "--strategies", "zero", "--adaptation-fraction", "0.3",
                       "--out", str(out)) == 1
        err = assert_one_line_error(capsys, "error: strategy zero: ")
        assert "zero_emb" not in err and "5" in err and "8" in err
        assert not out.exists()

    def test_protocol_flag_is_a_usage_error(self, synth_dir, trained_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                    "--target", str(synth_dir / "shifted.csv"),
                    "--protocol", "cross-year")
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["eval", "transfer-same-nodes",
                                         "transfer-5-nodes"])
    def test_pca_without_proj_exit_2(self, synth_dir, city_dir, trained_dir,
                                     tmp_path, capsys, command):
        model = ["--model", str(trained_dir / "model.stpf")]
        out = ["--out", str(tmp_path / "out.json")]
        if command == "eval":
            argv = ["eval", *model, "--data", str(synth_dir / "train.csv"),
                    "--strategy", "pca", *out]
        else:
            target = city_dir if command.endswith("5-nodes") else synth_dir
            argv = ["transfer", *model, "--target", str(target / "train.csv"),
                    "--strategies", "vanilla,pca", "--adaptation-fraction", "0.3",
                    *out]
        assert run_cli(*argv) == 2
        err = assert_one_line_error(capsys, "config error: ")
        assert err == "config error: strategy pca requires --proj\n"
        assert not (tmp_path / "out.json").exists()

    def test_transfer_rerun_byte_identical(self, synth_dir, trained_dir, tmp_path):
        blobs = []
        for name in ("t1.json", "t2.json"):
            out = tmp_path / name
            assert run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                           "--proj", str(trained_dir / "proj.stpj"),
                           "--target", str(synth_dir / "shifted.csv"),
                           "--strategies", "vanilla,pca",
                           "--adaptation-fraction", "0.3",
                           "--out", str(out)) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestSweep:
    @staticmethod
    def sweep_config(synth_dir, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        write_config(cfg, synth_dir / "train.csv", tmp_path / "sweep_out",
                     extra=f"data.shifted_csv={synth_dir / 'shifted.csv'}\n"
                           "transfer.adaptation_fraction=0.3\n")
        return cfg

    def test_sweep_rows(self, synth_dir, tmp_path):
        cfg = self.sweep_config(synth_dir, tmp_path)
        assert run_cli("sweep-components", "--config", str(cfg),
                       "--k-min", "1", "--k-max", "3") == 0
        lines = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k,val_mae,test_mae,shifted_mae"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("adaptive,")

    def test_k_max_at_the_cap_runs(self, synth_dir, tmp_path):
        # 8 nodes x 6 training days are 48 samples, so T = 24 caps k
        cfg = self.sweep_config(synth_dir, tmp_path)
        assert run_cli("sweep-components", "--config", str(cfg),
                       "--k-min", "24", "--k-max", "24") == 0
        lines = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["24", "adaptive"]

    @pytest.mark.parametrize("k_min, k_max, message", [
        ("17", "30", "--k-max (T=24, 48 training samples) must be in [17, 24], got 30"),
        ("25", "25", "--k-max (T=24, 48 training samples) must be in [25, 24], got 25"),
        ("3", "1", "--k-max (--k-min is 3) must be in [3, inf), got 1"),
        ("0", "2", "--k-min must be in [1, inf), got 0"),
    ], ids=["above-cap", "k-min-above-cap", "k-max-below-k-min", "k-min-zero"])
    def test_bad_k_range_exit_2_before_training(self, synth_dir, tmp_path, capsys,
                                                monkeypatch, k_min, k_max, message):
        runs = []
        monkeypatch.setattr(cli, "sweep_run", lambda *a, **k: runs.append(a))
        cfg = self.sweep_config(synth_dir, tmp_path)
        assert run_cli("sweep-components", "--config", str(cfg),
                       "--k-min", k_min, "--k-max", k_max) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert runs == [] and not (tmp_path / "sweep_out").exists()


# any JSON value, and report-shaped ones whose metric values may be huge
# integers, non-finite floats or strings
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
METRIC_VALUES = (st.integers(-10 ** 400, 10 ** 400) | st.floats()
                 | st.sampled_from(["1.5", "nan", "x"]) | JSON_VALUES)
METRIC_SETS = st.fixed_dictionaries(
    {"mae": METRIC_VALUES, "rmse": METRIC_VALUES, "mape": METRIC_VALUES}) | JSON_VALUES
REPORTS = st.fixed_dictionaries(
    {"horizons": st.dictionaries(st.sampled_from(["3", "6", "12", "avg", ""]),
                                 METRIC_SETS, max_size=4)},
    optional={"strategy": JSON_VALUES})
REPORT_PAYLOADS = (REPORTS | JSON_VALUES | st.lists(
    st.fixed_dictionaries({"report": REPORTS}, optional={"strategy": JSON_VALUES})
    | JSON_VALUES, max_size=3))


class TestExportAndReport:
    def test_export_from_model(self, trained_dir, tmp_path):
        out = tmp_path / "emb.csv"
        assert run_cli("export-embeddings", "--model",
                       str(trained_dir / "model.stpf"), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("node_id,c0")
        assert len(lines) == 9  # 8 nodes

    def test_export_from_projection(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "emb2.csv"
        assert run_cli("export-embeddings",
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--data", str(synth_dir / "train.csv"),
                       "--out", str(out)) == 0
        assert out.read_text().splitlines()[1].split(",")[0] == "node_0"

    def test_export_from_projection_is_the_training_table(self, synth_dir, trained_dir,
                                                          tmp_path):
        out = tmp_path / "emb.csv"
        assert run_cli("export-embeddings",
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--data", str(synth_dir / "train.csv"),
                       "--out", str(out)) == 0
        series = ingest_csv(str(synth_dir / "train.csv"))
        proj = load_projection(str(trained_dir / "proj.stpj"))
        train_range = split_chronological(series, (0.6, 0.2, 0.2))[0]
        reference, _ = pca_table(series, train_range,
                                 fit_normalizer(series, train_range), proj)
        assert out.read_text() == embedding_csv(reference, series.node_ids)
        # and it is the frozen table the pca training run installed
        exported = np.array([[float(v) for v in line.split(",")[1:]]
                             for line in out.read_text().splitlines()[1:]])
        params, _ = load_model(str(trained_dir / "model.stpf"))
        np.testing.assert_array_equal(exported, params.embedding.values)

    def test_export_with_graph(self, synth_dir, trained_dir, tmp_path):
        # from the model's own table, and from the projection over a series
        for source in (["--model", str(trained_dir / "model.stpf")],
                       ["--proj", str(trained_dir / "proj.stpj"),
                        "--data", str(synth_dir / "train.csv")]):
            emb = tmp_path / "emb3.csv"
            graph = tmp_path / "graph.csv"
            assert run_cli("export-embeddings", *source, "--out", str(emb),
                           "--graph-out", str(graph)) == 0
            lines = graph.read_text().splitlines()
            assert lines[0] == "src,dst,weight"
            assert len(lines) == 1 + 8 * 8  # every node pair

    def test_report_rendering(self, synth_dir, trained_dir, tmp_path, capsys):
        # an eval report, then a transfer comparison list of four entries
        rep, cmp = tmp_path / "r.json", tmp_path / "cmp.json"
        assert run_cli("eval", "--model", str(trained_dir / "model.stpf"),
                       "--data", str(synth_dir / "train.csv"),
                       "--out", str(rep)) == 0
        assert run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--target", str(synth_dir / "shifted.csv"),
                       "--strategies", "vanilla,zero,pca",
                       "--adaptation-fraction", "0.3", "--include-baseline",
                       "--out", str(cmp)) == 0
        capsys.readouterr()
        for path, strategies in ((rep, ["vanilla"]),
                                 (cmp, ["vanilla", "zero", "pca", "hist_avg"])):
            assert run_cli("report", "--report", str(path)) == 0
            text = capsys.readouterr().out
            heads = [line for line in text.splitlines() if line.startswith("--- ")]
            assert heads == [f"--- {name}" for name in strategies]
            assert text.count("Average") == len(strategies) and "&" in text

    def test_byte_order_mark_report_same_rendering(self, synth_dir, trained_dir,
                                                    tmp_path, capsys):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        assert run_cli("eval", "--model", str(trained_dir / "model.stpf"),
                       "--data", str(synth_dir / "train.csv"),
                       "--out", str(plain)) == 0
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        capsys.readouterr()
        rendered = []
        for rep in (plain, marked):
            assert run_cli("report", "--report", str(rep)) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            rendered.append(captured.out)
        assert rendered[0] == rendered[1] and "Average" in rendered[0]

    @pytest.mark.parametrize("payload", [
        "{}",
        '{"horizons": {"avg": {"mae": 1.0}}}',
        "[1, 2]",
        "{not json",
        '[{"report": {"horizons": {"avg": {"mae": 1, "rmse": 1, "mape": 0}}}}, 5]',
        "[" * 200_000,
    ], ids=["empty-object", "metric-set-without-rmse-mape", "list-of-ints",
            "not-json", "second-entry-malformed", "nested-200k-deep"])
    def test_malformed_report_exit_1(self, tmp_path, capsys, payload):
        rep = tmp_path / "r.json"
        rep.write_text(payload)
        assert run_cli("report", "--report", str(rep)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {rep}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(REPORT_PAYLOADS)
    def test_generated_report_exit_0_or_1(self, tmp_path, capsys, payload):
        rep = tmp_path / "r.json"
        rep.write_text(json.dumps(payload), encoding="utf-8")
        code = run_cli("report", "--report", str(rep))
        if code == 0:
            assert capsys.readouterr().err == ""
        else:
            assert code == 1
            assert_one_line_error(capsys, f"error: {rep}: ")


class TestCutCheckpoints:
    """A checkpoint cut at any byte ends in exit 1 with one line, no traceback."""

    def assert_every_cut_exits_1(self, raw, cut, argv, capsys):
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            assert run_cli(*argv) == 1, size
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (size, err)

    def test_model(self, synth_dir, tmp_path, capsys):
        cfg = ModelConfig(l1=1, l2=1, embed_dim=1, tod_dim=1, dow_dim=1,
                          hidden_dim=1, num_blocks=1, use_graph=True,
                          steps_per_day=1)
        good = tmp_path / "good.stpf"
        save_model(init_params(cfg, 2, seed=0), Normalizer(0.0, 1.0), good)
        cut = tmp_path / "cut.stpf"
        self.assert_every_cut_exits_1(
            good.read_bytes(), cut,
            ("eval", "--model", str(cut), "--data", str(synth_dir / "train.csv"),
             "--out", str(tmp_path / "r.json")), capsys)

    def test_projection(self, synth_dir, tmp_path, capsys):
        rng = np.random.default_rng(0)
        good = tmp_path / "good.stpj"
        save_projection(fit_projection(rng.normal(size=(3, 5, 4)), n_components=2),
                        good)
        cut = tmp_path / "cut.stpj"
        self.assert_every_cut_exits_1(
            good.read_bytes(), cut,
            ("export-embeddings", "--proj", str(cut),
             "--data", str(synth_dir / "train.csv"),
             "--out", str(tmp_path / "e.csv")), capsys)


class TestNoUnusedKnobs:
    """Every config key and every subcommand flag is read by the CLI code."""

    @staticmethod
    def cli_tree():
        return ast.parse(inspect.getsource(cli))

    def test_every_config_key_is_read(self):
        read = set()
        for node in ast.walk(self.cli_tree()):
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id == "config"
                    and isinstance(node.slice, ast.Constant)):
                read.add(node.slice.value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "_require"
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "_section"):
                # _section(cls, config, "section") reads each `section.<field>` key
                cls, section = getattr(cli, node.args[0].id), node.args[2].value
                read.update(f"{section}.{f.name}" for f in dataclasses.fields(cls))
        assert sorted(set(CONFIG_KEYS) - read) == []

    def test_every_subcommand_flag_is_read(self):
        read = {node.attr for node in ast.walk(self.cli_tree())
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        unread = sorted(
            f"{name} --{action.dest}"
            for name, parser in sub.choices.items()
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            and action.dest not in read)
        assert unread == []


NON_FINITE = ["nan", "inf", "-inf"]
# out-of-range values of each numeric config key, past each side of its
# range; every key also gets the NON_FINITE values
BAD_CONFIG_VALUES = {
    "model.l1": ["0"], "model.l2": ["-1"], "model.embed_dim": ["0"],
    "model.tod_dim": ["0"], "model.dow_dim": ["0"], "model.hidden_dim": ["-3"],
    "model.num_blocks": ["0"], "model.theta": ["0", "1.5"],
    "train.lr": ["0", "-1"], "train.max_epochs": ["0"],
    "train.patience": ["0", "3"],  # above SMALL_CONFIG's train.max_epochs=2
    "train.batch_size": ["0"], "train.grad_clip_norm": ["0", "-5"],
    "train.seed": ["-1"], "transfer.adaptation_fraction": ["0", "0.6"],
}
SPLIT = ["0.6", "0.2", "0.2"]
# each part of the split made non-finite, zero or whole, a wrong part count,
# a wrong sum and a part that is no number
BAD_RATIOS = ["0.5,0.5", "0.5,0.2,0.2", "1,x,1"] + [
    ",".join(SPLIT[:i] + [bad] + SPLIT[i + 1:])
    for i in range(3) for bad in [*NON_FINITE, "0", "1"]]
BAD_FLAG_VALUES = {
    ("synth", "--nodes"): ["0"],
    ("synth", "--roles"): ["0", "41"],  # more roles than the default 40 nodes
    ("synth", "--days"): ["0"],
    ("synth", "--steps-per-day"): ["0", "7"],  # 7 divides no day of 1440 minutes
    ("synth", "--shift-fraction"): ["-0.1", "1.5"],
    ("synth", "--noise-std"): ["-1"],
    ("synth", "--seed"): ["-1"],
    ("transfer", "--adaptation-fraction"): ["0", "0.6"],
    ("sweep-components", "--k-min"): ["0"],
    ("sweep-components", "--k-max"): ["0"],  # below the default --k-min 1
    ("eval", "--ratios"): BAD_RATIOS,
    ("export-embeddings", "--ratios"): BAD_RATIOS,
}


def subcommand_actions():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {(name, action.option_strings[0]): action
            for name, parser in sub.choices.items() for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)}


class TestNumericSettings:
    """Every numeric config key and flag refuses NaN, the infinities and each
    side of its range: exit 2 with one line naming it, before any input is
    read or output written."""

    def test_every_numeric_key_has_a_row(self):
        def numeric(parser):
            try:
                return type(parser("1")) in (int, float)
            except ValueError:
                return False

        keys = {key for key, (parser, _) in CONFIG_KEYS.items() if numeric(parser)}
        assert sorted(keys - set(BAD_CONFIG_VALUES)) == []

    def test_every_numeric_flag_has_a_row(self):
        flags = {flag for flag, action in subcommand_actions().items()
                 if action.type in (int, float) or action.dest == "ratios"}
        assert sorted(flags - set(BAD_FLAG_VALUES)) == []

    @pytest.mark.parametrize("command, key, value", [
        (command, key, value)
        for key, values in [*BAD_CONFIG_VALUES.items(), ("data.ratios", BAD_RATIOS)]
        for value in (values if key == "data.ratios" else [*NON_FINITE, *values])
        for command in ("sweep-components", "train")])
    def test_bad_config_value(self, tmp_path, capsys, monkeypatch, command, key, value):
        reads = []
        monkeypatch.setattr(cli, "ingest_csv", lambda *a, **k: reads.append(a))
        cfg = tmp_path / "bad.cfg"
        write_config(cfg, tmp_path / "train.csv", tmp_path / "o", strategy="adaptive",
                     extra=f"data.shifted_csv={tmp_path / 'shifted.csv'}\n"
                           f"{key}={value}\n")
        assert run_cli(command, "--config", str(cfg)) == 2
        assert key in assert_one_line_error(capsys, "config error: ")
        assert reads == [] and list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for (command, flag), values in BAD_FLAG_VALUES.items()
        for value in [*NON_FINITE, *values]])
    def test_bad_flag_value(self, tmp_path, capsys, monkeypatch, command, flag, value):
        reads = []
        monkeypatch.setattr(cli, "ingest_csv", lambda *a, **k: reads.append(a))
        t = tmp_path  # inputs named here do not exist, so a read would fail
        given = {"synth": ["--out-dir", t / "o"],
                 "transfer": ["--model", t / "m.stpf", "--target", t / "t.csv",
                              "--out", t / "o"],
                 "sweep-components": ["--config", t / "sweep.cfg"],
                 "eval": ["--model", t / "m.stpf", "--data", t / "d.csv", "--out", t / "o"],
                 "export-embeddings": ["--proj", t / "p.stpj", "--data", t / "d.csv",
                                       "--out", t / "o"]}
        write_config(t / "sweep.cfg", t / "train.csv", t / "o",
                     extra=f"data.shifted_csv={t / 'shifted.csv'}\n")
        argv = [command, *map(str, given[command]), f"{flag}={value}"]
        before = sorted(tmp_path.iterdir())
        action = subcommand_actions()[command, flag]
        if action.type is int and not re.fullmatch(r"-?\d+", value):
            # argparse refuses a value its type cannot read: usage, then one line
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err.splitlines()[-1]
            assert f"error: argument {flag}: invalid int value: '{value}'" in err
        else:
            assert run_cli(*argv) == 2
            err = assert_one_line_error(capsys, "config error: ")
            assert flag in err or action.dest in err
        assert reads == [] and sorted(tmp_path.iterdir()) == before

    def test_defaults_pinned(self, tmp_path):
        # the model.*, train.* and transfer.* defaults are dataclass fields;
        # a change to one changes what a config without that key means
        cfg = tmp_path / "only.cfg"
        cfg.write_text("data.csv=flow.csv\n")
        assert resolved_config_text(load_config(cfg)) == (
            "data.csv=flow.csv\n"
            "data.ratios=0.6,0.2,0.2\n"
            "embedding.strategy=adaptive\n"
            "model.dow_dim=4\n"
            "model.embed_dim=8\n"
            "model.hidden_dim=32\n"
            "model.l1=12\n"
            "model.l2=12\n"
            "model.num_blocks=2\n"
            "model.tod_dim=8\n"
            "model.use_graph=false\n"
            "run.out_dir=run_out\n"
            "train.batch_size=32\n"
            "train.grad_clip_norm=5.0\n"
            "train.lr=0.001\n"
            "train.max_epochs=200\n"
            "train.patience=20\n"
            "train.seed=0\n"
            "transfer.adaptation_fraction=0.05\n")


class TestReadme:
    """The README names only config keys and flags that the CLI has."""

    @staticmethod
    def commands():
        """Each inline code span, and each code-block line with its `\\`
        continuations joined."""
        text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
        return lines + re.findall(r"`([^`\n]+)`", prose)

    def test_config_keys_exist(self):
        sections = "|".join(sorted({key.split(".")[0] for key in CONFIG_KEYS}))
        name = rf"(?:{sections})\.[a-z0-9_]+"
        # a whole code span, or the key of a (commented-out) key=value line
        named = {m for text in self.commands()
                 for m in re.findall(rf"^#?\s*({name})(?:=|$)", text.strip())
                 if not m.endswith((".stpf", ".stpj"))}  # `model.stpf` is a file
        assert {"data.csv", "model.theta", "transfer.adaptation_fraction"} <= named
        assert sorted(named - set(CONFIG_KEYS)) == []

    def test_flags_exist(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        flags = {name: {s for a in p._actions for s in a.option_strings}
                 for name, p in sub.choices.items()}
        everywhere = set().union(*flags.values())
        shown = []
        for text in self.commands():
            words = text.split(" #")[0].split()
            words = words[1:] if words[:1] == ["stpca"] else words
            if words and words[0] in flags:  # a subcommand line
                known = flags[words[0]]
            elif words and words[0].startswith("--"):  # a flag on its own
                known = everywhere
            else:  # another program's command line (pip, pytest) or prose
                continue
            for word in words:
                flag = word.split("=")[0]
                if flag.startswith("--"):
                    shown.append(flag)
                    assert flag in known, f"{flag} in {text!r}"
        assert {"--proj", "--graph-out", "--include-baseline"} <= set(shown)


def flip_bits(raw, positions):
    out = bytearray(raw)
    for pos in positions:
        pos %= 8 * len(out)
        out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


def run_fuzzed(capsys, *argv):
    """Run the CLI; a failure must be exit 1 or 2 with one stderr line.

    Warnings count as stderr output, since outside pytest each prints its own
    lines: none may come with an error, and no numpy floating-point warning
    may come at all.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*argv)
    numeric = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numeric, [str(w.message) for w in numeric]
    if code != 0:
        assert code in (1, 2)
        assert not caught, [str(w.message) for w in caught]
        assert_one_line_error(capsys, "config error: " if code == 2 else "error: ")
    capsys.readouterr()
    return code


NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=10)
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzzedInputs:
    """Damaged checkpoints and generated configs end in exit 0, 1 or 2.

    Neither checkpoint format carries a checksum, so a flip inside tensor data
    can load and run; every other outcome must be a one-line error.
    """

    @FUZZ
    @given(st.lists(st.integers(0, 10 ** 7), min_size=1, max_size=3))
    def test_bit_flipped_model_through_eval(self, synth_dir, trained_dir,
                                            tmp_path, capsys, positions):
        model = tmp_path / "model.stpf"
        model.write_bytes(flip_bits((trained_dir / "model.stpf").read_bytes(),
                                    positions))
        out = tmp_path / "report.json"
        code = run_fuzzed(capsys, "eval", "--model", str(model),
                          "--data", str(synth_dir / "train.csv"), "--out", str(out))
        if code == 0:
            assert "avg" in json.loads(out.read_text())["horizons"]

    # offsets of the normalizer mean and std and of the first w_x value; bits
    # 52-62 are a float64's exponent, 63 its sign
    @pytest.mark.parametrize("offset", [45, 53, 73], ids=["mean", "std", "w_x"])
    @pytest.mark.parametrize("bit", range(52, 64))
    def test_exponent_flips_through_eval(self, synth_dir, trained_dir, tmp_path,
                                         capsys, offset, bit):
        model = tmp_path / "model.stpf"
        model.write_bytes(flip_bits((trained_dir / "model.stpf").read_bytes(),
                                    [8 * offset + bit]))
        out = tmp_path / "report.json"
        code = run_fuzzed(capsys, "eval", "--model", str(model),
                          "--data", str(synth_dir / "train.csv"), "--out", str(out))
        if code == 0:
            report = json.loads(out.read_text())
            assert all(math.isfinite(v) for metrics in report["horizons"].values()
                       for v in metrics.values())

    @FUZZ
    @given(st.lists(st.integers(0, 10 ** 7), min_size=1, max_size=3))
    def test_bit_flipped_projection_through_export(self, synth_dir, trained_dir,
                                                   tmp_path, capsys, positions):
        proj = tmp_path / "proj.stpj"
        proj.write_bytes(flip_bits((trained_dir / "proj.stpj").read_bytes(),
                                   positions))
        out = tmp_path / "emb.csv"
        code = run_fuzzed(capsys, "export-embeddings", "--proj", str(proj),
                          "--data", str(synth_dir / "train.csv"), "--out", str(out))
        if code == 0:
            assert out.read_text().startswith("node_id,")

    # Numbers come only from small integers: a generated digit string such as
    # model.hidden_dim=99999999 would make the run allocate gigabytes.
    @FUZZ
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(sorted(set(CONFIG_KEYS) - {"data.csv", "run.out_dir"})),
                  st.one_of(st.integers(-3, 6).map(str),
                            st.sampled_from(["", "nan", "inf", "-0", "1e400", "0.5",
                                             "true", "0,1", "pca", "adaptive"]),
                            NO_DIGITS))
        .map(lambda kv: f"{kv[0]}={kv[1]}"),
        NO_DIGITS), max_size=4))
    def test_generated_config_through_train(self, synth_dir, tmp_path, capsys,
                                            lines):
        cfg = tmp_path / "fuzz.cfg"
        out = tmp_path / "out"
        text = (SMALL_CONFIG.format(data=synth_dir / "train.csv", out_dir=out,
                                    strategy="pca")
                + "\n".join(lines) + "\n")
        cfg.write_text(text, encoding="utf-8")
        shutil.rmtree(out, ignore_errors=True)
        code = run_fuzzed(capsys, "train", "--config", str(cfg))
        if code == 0:
            assert (out / "model.stpf").is_file()
