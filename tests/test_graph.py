import math

import numpy as np
import pytest

from stpca.graph import AdaptiveGraph, build_adaptive_graph, graph_mix
from stpca.pca import EmbeddingTable


def formula_oracle(e):
    """Literal recomputation: gram, clamp, exponentiate, row-normalize."""
    logits = e @ e.T
    logits[logits < 0] = 0.0
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


class TestBuildGraph:
    def test_identity_embedding_closed_form(self):
        g = build_adaptive_graph(np.eye(2))
        p = math.e / (math.e + 1)
        np.testing.assert_allclose(g.weights, [[p, 1 - p], [1 - p, p]], atol=1e-12)
        np.testing.assert_allclose(g.weights[0, 0], 0.73106, atol=5e-6)

    def test_zero_embedding_uniform(self):
        g = build_adaptive_graph(np.zeros((3, 5)))
        np.testing.assert_allclose(g.weights, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_formula_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            e = rng.normal(size=(4, 3))
            g = build_adaptive_graph(e)
            assert np.abs(g.weights - formula_oracle(e)).max() <= 1e-12

    def test_row_stochastic(self):
        rng = np.random.default_rng(1)
        for scale in (1e-3, 1.0, 1e3):
            g = build_adaptive_graph(rng.normal(size=(6, 4)) * scale)
            assert (g.weights >= 0).all()
            np.testing.assert_allclose(g.weights.sum(axis=1), 1.0, atol=1e-9)

    def test_scaling_preserves_row_argmax(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=(5, 3))
        g1 = build_adaptive_graph(e)
        g2 = build_adaptive_graph(3.0 * e)
        np.testing.assert_array_equal(g1.weights.argmax(axis=1),
                                      g2.weights.argmax(axis=1))

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(7, 4))
        perm = rng.permutation(7)
        g = build_adaptive_graph(e).weights
        gp = build_adaptive_graph(e[perm]).weights
        np.testing.assert_array_equal(gp, g[np.ix_(perm, perm)])

    def test_accepts_embedding_table(self):
        t = EmbeddingTable(values=np.eye(3), strategy="pca")
        g = build_adaptive_graph(t)
        assert g.num_nodes == 3

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_adaptive_graph(np.array([[np.nan, 1.0]]))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            AdaptiveGraph(weights=np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestGraphMix:
    def test_uniform_two_node_average(self):
        g = AdaptiveGraph(weights=np.full((2, 2), 0.5))
        np.testing.assert_allclose(graph_mix(g, np.array([[0.0], [2.0]])),
                                   [[1.0], [1.0]])

    def test_near_identity_graph(self):
        eps = 1e-9
        w = np.array([[1 - eps, eps], [eps, 1 - eps]])
        g = AdaptiveGraph(weights=w)
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(graph_mix(g, h), h, atol=1e-8)

    def test_matmul_oracle(self):
        rng = np.random.default_rng(4)
        g = build_adaptive_graph(rng.normal(size=(5, 3)))
        h = rng.normal(size=(5, 7))
        np.testing.assert_array_equal(graph_mix(g, h), g.weights @ h)

    def test_batch_mixes_each_row(self):
        rng = np.random.default_rng(6)
        g = build_adaptive_graph(rng.normal(size=(5, 3)))
        h = rng.normal(size=(4, 5, 7))
        mixed = graph_mix(g, h)
        for b in range(4):
            np.testing.assert_allclose(mixed[b], g.weights @ h[b], rtol=1e-14)
        with pytest.raises(ValueError, match=r"feature rows \(6\)"):
            graph_mix(g, np.zeros((4, 6, 7)))

    def test_preserves_constant_vectors(self):
        rng = np.random.default_rng(5)
        g = build_adaptive_graph(rng.normal(size=(6, 2)))
        h = np.full((6, 3), 4.2)
        np.testing.assert_allclose(graph_mix(g, h), h, atol=1e-12)

    def test_shape_mismatch(self):
        g = AdaptiveGraph(weights=np.eye(3))
        with pytest.raises(ValueError, match="do not match"):
            graph_mix(g, np.zeros((4, 2)))
