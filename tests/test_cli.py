import argparse
import ast
import inspect
import json
import os

import numpy as np
import pytest

from stpca import cli
from stpca.cli import CONFIG_KEYS, build_parser, load_config, main
from stpca.dataset import DayTensor, Normalizer
from stpca.model import ModelConfig, init_params
from stpca.pca import fit_projection
from stpca.serialize import save_model, save_projection

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

    def test_adaptive_strategy_no_projection_file(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        write_config(cfg, synth_dir / "train.csv", out, strategy="adaptive")
        assert run_cli("train", "--config", str(cfg)) == 0
        assert not (out / "proj.stpj").exists()

    def test_unknown_key_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        write_config(cfg, synth_dir / "train.csv", tmp_path / "o",
                     extra="model.banana=1\n")
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "model.banana" in capsys.readouterr().err


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

    def test_missing_checkpoint_exit_1(self, synth_dir, tmp_path):
        assert run_cli("eval", "--model", str(tmp_path / "missing.stpf"),
                       "--data", str(synth_dir / "train.csv")) == 1

    def test_eval_rerun_byte_identical(self, synth_dir, trained_dir, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run_cli("eval", "--model", str(trained_dir / "model.stpf"),
                           "--data", str(synth_dir / "train.csv"),
                           "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTransfer:
    def test_four_strategy_comparison(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "cmp.json"
        assert run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--target", str(synth_dir / "shifted.csv"),
                       "--strategies", "vanilla,zero,pca,finetune",
                       "--adaptation-fraction", "0.3",
                       "--include-baseline",
                       "--out", str(out),
                       "--csv-out", str(tmp_path / "cmp.csv")) == 0
        entries = json.loads(out.read_text())
        assert [e["strategy"] for e in entries] == [
            "vanilla", "zero", "pca", "finetune", "hist_avg"]
        csv_lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert csv_lines[0] == "strategy,horizon,mae,rmse,mape"
        assert len(csv_lines) == 1 + 5 * 3  # 5 strategies x (H3, H6, avg)

    def test_refit_flag_recorded(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "cmp.json"
        assert run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--target", str(synth_dir / "shifted.csv"),
                       "--strategies", "pca", "--adaptation-fraction", "0.3",
                       "--refit-projection", "--out", str(out)) == 0
        entry = json.loads(out.read_text())[0]
        assert entry["report"]["meta"]["refit_projection"] is True

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

    def test_zero_shot_different_node_count(self, trained_dir, tmp_path):
        other = tmp_path / "city_b"
        assert run_cli("synth", "--nodes", "5", "--roles", "4", "--days", "10",
                       "--steps-per-day", "24", "--seed", "9",
                       "--out-dir", str(other)) == 0
        out = tmp_path / "zs.json"
        assert run_cli("transfer", "--model", str(trained_dir / "model.stpf"),
                       "--proj", str(trained_dir / "proj.stpj"),
                       "--target", str(other / "train.csv"),
                       "--strategies", "pca", "--adaptation-fraction", "0.3",
                       "--out", str(out)) == 0
        entry = json.loads(out.read_text())[0]
        assert entry["report"]["meta"]["protocol"] == "zero_shot"

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
    def test_sweep_rows(self, synth_dir, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out_dir = tmp_path / "sweep_out"
        write_config(cfg, synth_dir / "train.csv", out_dir,
                     extra=f"data.shifted_csv={synth_dir / 'shifted.csv'}\n"
                           "transfer.adaptation_fraction=0.3\n")
        assert run_cli("sweep-components", "--config", str(cfg),
                       "--k-min", "1", "--k-max", "3") == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k,val_mae,test_mae,shifted_mae"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("adaptive,")


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

    def test_export_with_graph(self, synth_dir, trained_dir, tmp_path):
        emb = tmp_path / "emb3.csv"
        graph = tmp_path / "graph.csv"
        assert run_cli("export-embeddings", "--model",
                       str(trained_dir / "model.stpf"), "--out", str(emb),
                       "--graph-out", str(graph), "--min-weight", "0.0") == 0
        lines = graph.read_text().splitlines()
        assert lines[0] == "src,dst,weight"
        assert len(lines) == 1 + 8 * 8  # dense export at min-weight 0

    def test_report_rendering(self, synth_dir, trained_dir, tmp_path, capsys):
        rep = tmp_path / "r.json"
        assert run_cli("eval", "--model", str(trained_dir / "model.stpf"),
                       "--data", str(synth_dir / "train.csv"),
                       "--out", str(rep)) == 0
        capsys.readouterr()
        assert run_cli("report", "--report", str(rep)) == 0
        text = capsys.readouterr().out
        assert "Average" in text and "&" in text

    @pytest.mark.parametrize("payload", [
        "{}",
        '{"horizons": {"avg": {"mae": 1.0}}}',
        "[1, 2]",
        "{not json",
        '[{"report": {"horizons": {"avg": {"mae": 1, "rmse": 1, "mape": 0}}}}, 5]',
    ], ids=["empty-object", "metric-set-without-rmse-mape", "list-of-ints",
            "not-json", "second-entry-malformed"])
    def test_malformed_report_exit_1(self, tmp_path, capsys, payload):
        rep = tmp_path / "r.json"
        rep.write_text(payload)
        assert run_cli("report", "--report", str(rep)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {rep}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


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
        z = DayTensor(data=rng.normal(size=(3, 5, 4)), step_range=(0, 12))
        good = tmp_path / "good.stpj"
        save_projection(fit_projection(z, n_components=2), good)
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
