import csv
import os
import stat
import struct
import zlib

import numpy as np
import pytest

from stpca.dataset import Normalizer
from stpca.graph import build_adaptive_graph
from stpca.ioutil import atomic_write_pieces
from stpca.model import ModelConfig, init_params, set_embedding
from stpca.pca import TABLE_STRATEGIES, EmbeddingTable, fit_projection
from stpca.serialize import (MODEL_MAGIC, MODEL_VERSION, PROJECTION_MAGIC,
                             STRATEGY_TAGS, atomic_write_text, embedding_csv, load_model,
                             load_projection, save_model, save_projection,
                             write_embedding_csv, write_graph_csv)


def sample_projection(t=6, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return fit_projection(rng.normal(size=(5, 4, t)), n_components=c)


def sealed(body: bytes) -> bytes:
    """A model checkpoint body with its trailing CRC-32, as save_model ends one."""
    return body + struct.pack("<I", zlib.crc32(body))


def body_of(path) -> bytearray:
    """A model checkpoint's bytes less its trailing CRC-32."""
    return bytearray(path.read_bytes()[:-4])


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

    @staticmethod
    def projection_for(strategy):
        """The projection a model of `strategy` is saved with: 12 slots, 2 columns."""
        return sample_projection(t=12, c=2) if strategy == "pca" else None

    @pytest.mark.parametrize("strategy", ["adaptive", "pca", "zero"])
    def test_roundtrip(self, tmp_path, strategy):
        params = self.make_params(strategy)
        norm = Normalizer(mean=12.5, std=3.25)
        proj = self.projection_for(strategy)
        p = tmp_path / "model.stpf"
        save_model(params, norm, p, proj)
        assert p.read_bytes()[:5] == MODEL_MAGIC
        back, norm2, proj2 = load_model(p)
        assert back.config == params.config
        assert back.embedding.strategy == strategy
        assert (norm2.mean, norm2.std) == (norm.mean, norm.std)
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(back.tensors()[name], tensor)
        if proj is None:
            assert proj2 is None
        else:
            for field in ("mean", "components", "eigenvalues"):
                np.testing.assert_array_equal(getattr(proj2, field),
                                              getattr(proj, field))

    def test_v2_layout(self, tmp_path):
        # the v1 header (normalizer at bytes 45 and 53), the projection's STPJ1
        # section after the tag byte, and a CRC-32 of every byte before it
        proj = self.projection_for("pca")
        p, stpj = tmp_path / "model.stpf", tmp_path / "proj.stpj"
        save_model(self.make_params("pca"), Normalizer(12.5, 3.25), p, proj)
        save_projection(proj, stpj)
        raw, section = p.read_bytes(), stpj.read_bytes()[5:]
        assert struct.unpack_from("<I", raw, 5) == (MODEL_VERSION,) == (2,)
        assert struct.unpack_from("<2d", raw, 45) == (12.5, 3.25)
        assert raw[-4 - len(section) - 1] == STRATEGY_TAGS["pca"]
        assert raw[-4 - len(section):-4] == section
        assert raw == sealed(raw[:-4])

    def test_resave_byte_identical(self, tmp_path):
        params = self.make_params("pca")
        norm = Normalizer(mean=1.0, std=2.0)
        p1, p2 = tmp_path / "a.stpf", tmp_path / "b.stpf"
        save_model(params, norm, p1, self.projection_for("pca"))
        back, norm2, proj = load_model(p1)
        save_model(back, norm2, p2, proj)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("strategy, projection", [
        ("pca", None), ("adaptive", "pca"), ("zero", "pca"), ("pca", "wrong-shape")])
    def test_projection_must_pair_with_a_pca_table(self, tmp_path, strategy,
                                                   projection):
        proj = {None: None, "pca": self.projection_for("pca"),
                "wrong-shape": sample_projection(t=12, c=3)}[projection]
        p = tmp_path / "model.stpf"
        with pytest.raises(ValueError, match=rf"^{p}: .*(projection|pca)"):
            save_model(self.make_params(strategy), Normalizer(0.0, 1.0), p, proj)
        assert not p.exists()

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "model.stpf"
        save_model(self.make_params(), Normalizer(0.0, 1.0), p)
        raw = body_of(p)
        raw[5:9] = struct.pack("<I", 1)
        (tmp_path / "v1.stpf").write_bytes(sealed(bytes(raw)))
        with pytest.raises(ValueError, match="checkpoint version 1 is not supported"):
            load_model(tmp_path / "v1.stpf")

    def test_checksum_mismatch(self, tmp_path):
        p = tmp_path / "model.stpf"
        save_model(self.make_params(), Normalizer(0.0, 1.0), p)
        raw = bytearray(p.read_bytes())
        raw[80] ^= 1  # a tensor value's lowest bit
        (tmp_path / "flip.stpf").write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"flip.stpf: checksum mismatch$"):
            load_model(tmp_path / "flip.stpf")

    # The damaged files below are sealed with a valid CRC-32, so that the
    # structural checks behind the checksum still meet them.
    def test_trailing_bytes_rejected(self, tmp_path):
        params = self.make_params()
        p = tmp_path / "model.stpf"
        save_model(params, Normalizer(0.0, 1.0), p)
        (tmp_path / "fat.stpf").write_bytes(sealed(bytes(body_of(p)) + b"x"))
        with pytest.raises(ValueError, match="trailing"):
            load_model(tmp_path / "fat.stpf")

    def test_cut_after_magic_is_value_error(self, tmp_path):
        params = self.make_params()
        p = tmp_path / "model.stpf"
        save_model(params, Normalizer(0.0, 1.0), p)
        (tmp_path / "cut.stpf").write_bytes(p.read_bytes()[:7])
        with pytest.raises(ValueError, match="truncated model checkpoint"):
            load_model(tmp_path / "cut.stpf")
        # cut inside the first tensor, behind a valid checksum
        (tmp_path / "cut.stpf").write_bytes(sealed(bytes(body_of(p)[:100])))
        with pytest.raises(ValueError, match="truncated model checkpoint"):
            load_model(tmp_path / "cut.stpf")

    def test_header_config_must_match_tensor_shapes(self, tmp_path):
        params = self.make_params()  # embed_dim 2
        p = tmp_path / "model.stpf"
        save_model(params, Normalizer(0.0, 1.0), p)
        raw = body_of(p)
        raw[17:21] = struct.pack("<I", 3)  # header embed_dim: 2 -> 3
        (tmp_path / "lie.stpf").write_bytes(sealed(bytes(raw)))
        with pytest.raises(ValueError,
                           match=r"embedding: shape 6x2 does not match .*\(Nx3\)"):
            load_model(tmp_path / "lie.stpf")

    def test_huge_block_count_fails_fast(self, tmp_path):
        p = tmp_path / "model.stpf"
        save_model(self.make_params(), Normalizer(0.0, 1.0), p)
        raw = body_of(p)
        raw[33:37] = struct.pack("<I", 2 ** 31 + 2)  # header num_blocks: 2 -> 2^31+2
        (tmp_path / "blocks.stpf").write_bytes(sealed(bytes(raw)))
        with pytest.raises(ValueError, match="w1_2: shape"):
            load_model(tmp_path / "blocks.stpf")

    def test_embedding_columns_checked_against_embed_dim(self, tmp_path):
        cfg = ModelConfig(l1=4, l2=3, embed_dim=2, tod_dim=2, dow_dim=2,
                          hidden_dim=5, num_blocks=1, steps_per_day=12)
        params = init_params(cfg, 6, seed=1)
        params.embedding = EmbeddingTable(values=np.ones((6, 3)), strategy="pca")
        p = tmp_path / "model.stpf"
        save_model(params, Normalizer(0.0, 1.0), p, self.projection_for("pca"))
        with pytest.raises(ValueError, match="embedding: shape 6x3 .*Nx2"):
            load_model(p)

    def test_unknown_strategy_tag(self, tmp_path):
        p = tmp_path / "model.stpf"
        save_model(self.make_params(), Normalizer(0.0, 1.0), p)
        (tmp_path / "tag.stpf").write_bytes(sealed(bytes(body_of(p)[:-1]) + b"\x09"))
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

    def test_node_ids_quoted_by_the_csv_rules(self, tmp_path):
        # ids as a quoted series header may hold them; plain ids stay bare
        ids = ["a,b", 'q"x', "line\nbreak", "cr\rid", "plain"]
        values = np.arange(10.0).reshape(5, 2) / 3
        write_embedding_csv(EmbeddingTable(values=values, strategy="pca"), ids,
                            tmp_path / "emb.csv")
        write_graph_csv(build_adaptive_graph(values), ids, tmp_path / "graph.csv")
        with open(tmp_path / "emb.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node_id", "c0", "c1"]
        assert [r[0] for r in rows[1:]] == ids
        assert [[float(v) for v in r[1:]] for r in rows[1:]] == values.tolist()
        with open(tmp_path / "graph.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["src", "dst", "weight"]
        assert [r[:2] for r in rows[1:]] == [[s, d] for s in ids for d in ids]
        assert (tmp_path / "emb.csv").read_bytes().endswith(
            b'"cr\rid",2,2.3333333333333335\nplain,2.6666666666666665,3\n')


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
