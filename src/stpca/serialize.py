"""Checkpoint and export formats.

Binary layouts are little-endian and fully deterministic: identical objects
serialize to identical bytes. All writers go through an atomic temp-then-rename
so interrupted runs never leave partial artifacts behind.
"""

import csv
import io
import math
import struct
import zlib

import numpy as np

from .dataset import Normalizer
from .ioutil import atomic_write_pieces, atomic_write_text
from .model import ModelConfig, ModelParams, _from_tensors, _tensor_shapes
from .pca import EmbeddingTable, PcaProjection

PROJECTION_MAGIC = b"STPJ1"
MODEL_MAGIC = b"STPF1"
MODEL_VERSION = 2
STRATEGY_TAGS = {"adaptive": 0, "pca": 1, "zero": 2}
TAG_STRATEGIES = {v: k for k, v in STRATEGY_TAGS.items()}


def _f64(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _projection_bytes(proj: PcaProjection) -> bytes:
    """u32 T, u32 C, f64 mean[T], components[TxC], eigenvalues[T]."""
    t, c = proj.components.shape
    return (struct.pack("<II", t, c) + _f64(proj.mean) + _f64(proj.components)
            + _f64(proj.eigenvalues))


def _parse_projection(raw, off: int, where):
    """The `_projection_bytes` section at `off`, and the offset past it."""
    t, c = struct.unpack_from("<II", raw, off)
    if not 1 <= c <= t:
        raise ValueError(f"{where}: bad projection shape T={t}, C={c}")
    end = off + 8 + 8 * t * (c + 2)
    if end > len(raw):
        raise struct.error("projection data past the end of the file")
    values = np.frombuffer(raw, "<f8", t * (c + 2), off + 8).copy()
    return PcaProjection(mean=values[:t], components=values[t:-t].reshape(t, c),
                         eigenvalues=values[-t:]), end


def save_projection(proj: PcaProjection, path):
    """STPJ1: magic, then the projection section of a pca model checkpoint."""
    atomic_write_pieces(path, [PROJECTION_MAGIC + _projection_bytes(proj)])


def load_projection(path) -> PcaProjection:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != PROJECTION_MAGIC:
        raise ValueError(f"{path}: not a projection checkpoint")
    try:
        proj, end = _parse_projection(raw, 5, path)
        if end == len(raw):
            return proj
    except struct.error:
        pass
    raise ValueError(f"{path}: truncated projection checkpoint")


def _pack_tensor(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    head = struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + _f64(arr)


def _unpack_tensor(raw, off: int, shape, where: str):
    """Read one tensor whose shape must be `shape`; None matches any positive size."""
    want = "x".join(str(d) if d else "N" for d in shape)
    (rank,) = struct.unpack_from("<I", raw, off)
    if rank != len(shape):
        raise ValueError(f"{where}: rank {rank} does not match the header "
                         f"config ({want})")
    dims = struct.unpack_from(f"<{rank}I", raw, off + 4)
    if any(d < 1 or expected not in (None, d) for d, expected in zip(dims, shape)):
        raise ValueError(f"{where}: shape {'x'.join(map(str, dims))} does not "
                         f"match the header config ({want})")
    off += 4 + 4 * rank
    size = math.prod(dims)
    if off + 8 * size > len(raw):
        raise struct.error("tensor data past the end of the file")
    arr = np.frombuffer(raw, "<f8", size, off).reshape(dims).copy()
    return arr, off + 8 * size


def _check_pairing(params: ModelParams, projection, where):
    """A pca table travels with the projection it was made through, of
    steps_per_day x embed_dim components; no other table has one."""
    strategy, cfg = params.embedding.strategy, params.config
    if (strategy == "pca") != (projection is not None):
        raise ValueError(f"{where}: a {strategy} table with "
                         f"{'no' if projection is None else 'a'} projection; a pca "
                         "table has the one it was made through, no other has one")
    want = (cfg.steps_per_day, cfg.embed_dim)
    if projection is not None and projection.components.shape != want:
        raise ValueError(f"{where}: projection shape "
                         f"{'x'.join(map(str, projection.components.shape))} does "
                         f"not match the header config ({want[0]}x{want[1]})")


def save_model(params: ModelParams, normalizer: Normalizer, path, projection=None):
    """STPF version 2: magic, u32 version, config block (9 u32 + normalizer
    mean/std), all tensors, embedding strategy tag byte, the projection
    section when the tag is pca, and a CRC-32 of every byte before it.

    A pca model must come with its projection, and any other without one.
    """
    _check_pairing(params, projection, path)
    cfg = params.config
    blob = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION)]
    blob.append(struct.pack(
        "<9I", cfg.l1, cfg.l2, cfg.embed_dim, cfg.tod_dim, cfg.dow_dim,
        cfg.hidden_dim, cfg.num_blocks, int(cfg.use_graph), cfg.steps_per_day,
    ))
    blob.append(struct.pack("<2d", normalizer.mean, normalizer.std))
    for arr in params.tensors().values():
        blob.append(_pack_tensor(arr))
    blob.append(struct.pack("<B", STRATEGY_TAGS[params.embedding.strategy]))
    if projection is not None:
        blob.append(_projection_bytes(projection))
    body = b"".join(blob)
    atomic_write_pieces(path, [body, struct.pack("<I", zlib.crc32(body))])


def load_model(path):
    """Returns (params, normalizer, projection); the projection is None
    unless the table is pca.

    Another version, a CRC-32 that does not match, a cut file, tensors whose
    shapes disagree with the header config, or a zero-strategy table with a
    nonzero entry raise ValueError naming the path.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint")
    try:
        (version,) = struct.unpack_from("<I", raw, 5)
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: checkpoint version {version} is not "
                             f"supported (this build reads version {MODEL_VERSION})")
        body = memoryview(raw)[:-4]
        if zlib.crc32(body) != struct.unpack_from("<I", raw, len(body))[0]:
            raise ValueError(f"{path}: checksum mismatch")
        return _parse_model(body, path)
    except struct.error:
        raise ValueError(f"{path}: truncated model checkpoint") from None


def _parse_model(raw, path):
    fields = struct.unpack_from("<9I", raw, 9)
    try:
        cfg = ModelConfig(
            l1=fields[0], l2=fields[1], embed_dim=fields[2], tod_dim=fields[3],
            dow_dim=fields[4], hidden_dim=fields[5], num_blocks=fields[6],
            use_graph=bool(fields[7]), steps_per_day=fields[8],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: bad header config: {exc}") from None
    off = 9 + 36
    mean, std = struct.unpack_from("<2d", raw, off)
    if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
        raise ValueError(f"{path}: bad normalizer mean {mean!r}, std {std!r}")
    off += 16

    tensors = {}
    for name, shape in _tensor_shapes(cfg):
        tensors[name], off = _unpack_tensor(raw, off, shape, f"{path}: {name}")
    (tag,) = struct.unpack_from("<B", raw, off)
    if tag not in TAG_STRATEGIES:
        raise ValueError(f"{path}: unknown embedding strategy tag {tag}")
    projection, off = None, off + 1
    if TAG_STRATEGIES[tag] == "pca":
        projection, off = _parse_projection(raw, off, path)
    if off != len(raw):
        raise ValueError(f"{path}: trailing bytes in checkpoint")

    try:
        params = _from_tensors(cfg, tensors, TAG_STRATEGIES[tag])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    _check_pairing(params, projection, path)
    return params, Normalizer(mean=mean, std=std), projection


def _csv_field(text) -> str:
    """`text` as one CSV field, quoted as `write_series_csv` quotes a header id
    (one holding a comma, a quote or a line break)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2]  # less the writer's \r\n


def embedding_csv(table: EmbeddingTable, node_ids) -> str:
    """`node_id,c0,...` rows at 17 significant digits."""
    if len(node_ids) != table.num_nodes:
        raise ValueError("node id count does not match embedding rows")
    header = "node_id," + ",".join(f"c{j}" for j in range(table.dim))
    lines = [header]
    for nid, row in zip(node_ids, table.values):
        lines.append(_csv_field(nid) + "," + ",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def write_embedding_csv(table: EmbeddingTable, node_ids, path):
    atomic_write_text(path, embedding_csv(table, node_ids))


def write_graph_csv(graph, node_ids, path):
    """One `src,dst,weight` row per node pair of the [N x N] graph."""
    lines = ["src,dst,weight"]
    node_ids = [_csv_field(nid) for nid in node_ids]
    for i, src in enumerate(node_ids):
        for j, dst in enumerate(node_ids):
            lines.append(f"{src},{dst},{graph[i, j]:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
