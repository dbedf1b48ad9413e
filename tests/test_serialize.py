import os
import stat
import struct

import numpy as np
import pytest

from stpca.dataset import Normalizer
from stpca.graph import build_adaptive_graph
from stpca.ioutil import atomic_write_pieces
from stpca.model import ModelConfig, init_params, set_embedding
from stpca.pca import TABLE_STRATEGIES, EmbeddingTable, fit_projection
from stpca.serialize import (MODEL_MAGIC, PROJECTION_MAGIC, STRATEGY_TAGS,
                             atomic_write_text, embedding_csv, load_model,
                             load_projection, save_model, save_projection,
                             write_embedding_csv, write_graph_csv)


def sample_projection(t=6, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return fit_projection(rng.normal(size=(5, 4, t)), n_components=c)


class TestProjectionCheckpoint:
    def test_roundtrip(self, tmp_path):
        proj = sample_projection()
        p = tmp_path / "proj.stpj"
        save_projection(proj, p)
        assert p.read_bytes()[:5] == PROJECTION_MAGIC
        back = load_projection(p)
        np.testing.assert_array_equal(back.mean, proj.mean)
        np.testing.assert_array_equal(back.components, proj.components)
        np.testing.assert_array_equal(back.eigenvalues, proj.eigenvalues)

    def test_resave_byte_identical(self, tmp_path):
        proj = sample_projection()
        p1, p2 = tmp_path / "a.stpj", tmp_path / "b.stpj"
        save_projection(proj, p1)
        save_projection(load_projection(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.stpj"
        p.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a projection"):
            load_projection(p)

    def test_truncated(self, tmp_path):
        proj = sample_projection()
        p = tmp_path / "proj.stpj"
        save_projection(proj, p)
        (tmp_path / "cut.stpj").write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_projection(tmp_path / "cut.stpj")


class TestModelCheckpoint:
    def make_params(self, strategy="adaptive"):
        cfg = ModelConfig(l1=4, l2=3, embed_dim=2, tod_dim=2, dow_dim=2,
                          hidden_dim=5, num_blocks=2, use_graph=True,
                          steps_per_day=12)
        params = init_params(cfg, 6, seed=1)
        if strategy != "adaptive":
            rng = np.random.default_rng(2)
            values = np.zeros((6, 2)) if strategy == "zero" else rng.normal(size=(6, 2))
            params = set_embedding(params, EmbeddingTable(values=values,
                                                          strategy=strategy))
        return params

    @pytest.mark.parametrize("strategy", ["adaptive", "pca", "zero"])
    def test_roundtrip(self, tmp_path, strategy):
        params = self.make_params(strategy)
        norm = Normalizer(mean=12.5, std=3.25)
        p = tmp_path / "model.stpf"
        save_model(params, norm, p)
        assert p.read_bytes()[:5] == MODEL_MAGIC
        back, norm2 = load_model(p)
        assert back.config == params.config
        assert back.embedding.strategy == strategy
        assert (norm2.mean, norm2.std) == (norm.mean, norm.std)
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(back.tensors()[name], tensor)

    def test_resave_byte_identical(self, tmp_path):
        params = self.make_params("pca")
        norm = Normalizer(mean=1.0, std=2.0)
        p1, p2 = tmp_path / "a.stpf", tmp_path / "b.stpf"
        save_model(params, norm, p1)
        back, norm2 = load_model(p1)
        save_model(back, norm2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        params = self.make_params()
        p = tmp_path / "model.stpf"
        save_model(params, Normalizer(0.0, 1.0), p)
        (tmp_path / "fat.stpf").write_bytes(p.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing"):
            load_model(tmp_path / "fat.stpf")

    def test_cut_after_magic_is_value_error(self, tmp_path):
        params = self.make_params()
        p = tmp_path / "model.stpf"
        save_model(params, Normalizer(0.0, 1.0), p)
        (tmp_path / "cut.stpf").write_bytes(p.read_bytes()[:7])
        with pytest.raises(ValueError, match="truncated model checkpoint"):
            load_model(tmp_path / "cut.stpf")

    def test_header_config_must_match_tensor_shapes(self, tmp_path):
        params = self.make_params()  # embed_dim 2
        p = tmp_path / "model.stpf"
        save_model(params, Normalizer(0.0, 1.0), p)
        raw = bytearray(p.read_bytes())
        raw[17:21] = struct.pack("<I", 3)  # header embed_dim: 2 -> 3
        (tmp_path / "lie.stpf").write_bytes(bytes(raw))
        with pytest.raises(ValueError,
                           match=r"embedding: shape 6x2 does not match .*\(Nx3\)"):
            load_model(tmp_path / "lie.stpf")

    def test_huge_block_count_fails_fast(self, tmp_path):
        p = tmp_path / "model.stpf"
        save_model(self.make_params(), Normalizer(0.0, 1.0), p)
        raw = bytearray(p.read_bytes())
        raw[33:37] = struct.pack("<I", 2 ** 31 + 2)  # header num_blocks: 2 -> 2^31+2
        (tmp_path / "blocks.stpf").write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="w1_2: shape"):
            load_model(tmp_path / "blocks.stpf")

    def test_embedding_columns_checked_against_embed_dim(self, tmp_path):
        cfg = ModelConfig(l1=4, l2=3, embed_dim=2, tod_dim=2, dow_dim=2,
                          hidden_dim=5, num_blocks=1, steps_per_day=12)
        params = init_params(cfg, 6, seed=1)
        params.embedding = EmbeddingTable(values=np.ones((6, 3)), strategy="pca")
        p = tmp_path / "model.stpf"
        save_model(params, Normalizer(0.0, 1.0), p)
        with pytest.raises(ValueError, match="embedding: shape 6x3 .*Nx2"):
            load_model(p)

    def test_unknown_strategy_tag(self, tmp_path):
        p = tmp_path / "model.stpf"
        save_model(self.make_params(), Normalizer(0.0, 1.0), p)
        (tmp_path / "tag.stpf").write_bytes(p.read_bytes()[:-1] + b"\x09")
        with pytest.raises(ValueError, match="strategy tag 9"):
            load_model(tmp_path / "tag.stpf")


    @pytest.mark.parametrize("mean,std", [(0.0, -1.0), (0.0, 0.0),
                                          (float("nan"), 1.0), (0.0, float("inf"))])
    def test_bad_normalizer_rejected(self, tmp_path, mean, std):
        p = tmp_path / "model.stpf"
        save_model(self.make_params(), Normalizer(mean, std), p)
        with pytest.raises(ValueError, match="bad normalizer"):
            load_model(p)


class TestCsvExports:
    def test_embedding_csv_format(self):
        table = EmbeddingTable(values=np.array([[1.0, 0.1], [2.0, 0.2]]),
                               strategy="pca")
        text = embedding_csv(table, ["alpha", "beta"])
        lines = text.strip().splitlines()
        assert lines[0] == "node_id,c0,c1"
        assert lines[1].startswith("alpha,1,")
        assert len(lines) == 3

    def test_embedding_csv_full_precision(self, tmp_path):
        value = 1.0 / 3.0
        table = EmbeddingTable(values=np.array([[value]]), strategy="pca")
        p = tmp_path / "emb.csv"
        write_embedding_csv(table, ["n0"], p)
        cell = p.read_text().strip().splitlines()[1].split(",")[1]
        assert float(cell) == value  # 17 significant digits survive roundtrip

    def test_node_count_mismatch(self):
        table = EmbeddingTable(values=np.zeros((2, 2)), strategy="pca")
        with pytest.raises(ValueError, match="node id count"):
            embedding_csv(table, ["only_one"])

    def test_graph_csv_lists_every_pair(self, tmp_path):
        rng = np.random.default_rng(0)
        g = build_adaptive_graph(rng.normal(size=(3, 2)))
        dense = tmp_path / "dense.csv"
        write_graph_csv(g, ["a", "b", "c"], dense)
        assert len(dense.read_text().strip().splitlines()) == 1 + 9


def test_atomic_write_replaces_not_appends(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write_text(p, "first version")
    atomic_write_text(p, "second")
    assert p.read_text() == "second"
    assert list(tmp_path.iterdir()) == [p]  # no temp files left behind


def test_streamed_write_that_raises_leaves_nothing(tmp_path):
    def pieces():
        yield b"header\n"
        raise RuntimeError("source failed")

    p = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="source failed"):
        atomic_write_pieces(p, pieces())
    assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file
    atomic_write_pieces(p, [b"old", b" file"])
    with pytest.raises(RuntimeError, match="source failed"):
        atomic_write_pieces(p, pieces())
    assert list(tmp_path.iterdir()) == [p]
    assert p.read_bytes() == b"old file"


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_of_a_fresh_open(tmp_path, umask):
    # mkstemp makes its file 0o600 whatever the umask
    old = os.umask(umask)
    try:
        atomic_write_pieces(tmp_path / "out.csv", [b"rows"])
        with open(tmp_path / "fresh.csv", "wb"):
            pass
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("out.csv", "fresh.csv")]
    assert modes == [0o666 & ~umask] * 2


def test_strategy_tags_cover_the_table_strategies():
    # the tag byte map is the format's own; it names every table strategy
    assert set(STRATEGY_TAGS) == set(TABLE_STRATEGIES)
