"""Every demo runs to its last line. Demo 01 takes ~0.2 s and runs with the
unit tests; 02-04 take ~45 s together and run under the acceptance marker."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, tmp_path, monkeypatch, capsys):
    """Run a demo as a script with tmp_path as the working directory; returns
    its stdout lines."""
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_demo_01_pca_node_embeddings(tmp_path, monkeypatch, capsys):
    lines = run_demo("01_pca_node_embeddings.py", tmp_path, monkeypatch, capsys)
    csv_lines = (tmp_path / "embeddings_demo.csv").read_text().splitlines()
    assert csv_lines[0] == "node_id," + ",".join(f"c{j}" for j in range(8))
    assert len(csv_lines) == 1 + 16
    separation = [line for line in lines if "within-role distance" in line]
    assert len(separation) == 1 and separation[0].endswith(": True")


@pytest.mark.acceptance
@pytest.mark.parametrize("name, last_line", [
    ("02_spatial_shift_strategies.py", "single model weight"),
    ("03_cross_city_zero_shot.py", "  H12 "),
    ("04_component_sweep.py", "once the data shifts"),
], ids=["02", "03", "04"])
def test_demo_runs_to_its_last_line(tmp_path, monkeypatch, capsys, name, last_line):
    assert last_line in run_demo(name, tmp_path, monkeypatch, capsys)[-1]
