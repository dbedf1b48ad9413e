import math

import numpy as np
import pytest

from stpca.graph import build_adaptive_graph, graph_mix, row_softmax


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
        np.testing.assert_allclose(g, [[p, 1 - p], [1 - p, p]], atol=1e-12)
        np.testing.assert_allclose(g[0, 0], 0.73106, atol=5e-6)

    def test_zero_embedding_uniform(self):
        g = build_adaptive_graph(np.zeros((3, 5)))
        np.testing.assert_allclose(g, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_formula_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            e = rng.normal(size=(4, 3))
            g = build_adaptive_graph(e)
            assert np.abs(g - formula_oracle(e)).max() <= 1e-12

    def test_row_stochastic(self):
        rng = np.random.default_rng(1)
        for scale in (1e-3, 1.0, 1e3):
            g = build_adaptive_graph(rng.normal(size=(6, 4)) * scale)
            assert (g >= 0).all()
            np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-9)

    def test_scaling_preserves_row_argmax(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=(5, 3))
        g1 = build_adaptive_graph(e)
        g2 = build_adaptive_graph(3.0 * e)
        np.testing.assert_array_equal(g1.argmax(axis=1),
                                      g2.argmax(axis=1))

    def test_permutation_equivariance_exact(self):
        # at 100 x 2 and 307 x 8, BLAS's `e @ e.T` gives permuted rows other bits
        rng = np.random.default_rng(3)
        for n, c in [(7, 4), (100, 2), (307, 8)]:
            e = rng.normal(size=(n, c))
            g = build_adaptive_graph(e)
            for _ in range(5):
                perm = rng.permutation(n)
                np.testing.assert_array_equal(build_adaptive_graph(e[perm]),
                                              g[np.ix_(perm, perm)])

    @pytest.mark.parametrize("n", [4, 40, 307])
    def test_in_place_build_equals_fresh_arrays(self, n):
        # the out-of-place sorted-sum softmax the in-place build replaces
        e = np.random.default_rng(n).normal(size=(n, 8))
        logits = np.maximum(np.einsum("nc,mc->nm", e, e), 0.0)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        want = shifted / np.cumsum(np.sort(shifted, axis=1), axis=1)[:, -1][:, None]
        first, second = build_adaptive_graph(e), build_adaptive_graph(e)
        assert first.tobytes() == want.tobytes()
        assert not np.shares_memory(first, second)
        kept = logits.copy()
        assert row_softmax(logits).tobytes() == want.tobytes()
        assert logits.tobytes() == kept.tobytes()  # without `out`, input untouched
        assert row_softmax(logits, out=logits) is logits
        assert logits.tobytes() == want.tobytes()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_adaptive_graph(np.array([[np.nan, 1.0]]))


class TestGraphMix:
    def test_uniform_two_node_average(self):
        g = np.full((2, 2), 0.5)
        np.testing.assert_allclose(graph_mix(g, np.array([[0.0], [2.0]])),
                                   [[1.0], [1.0]])

    def test_near_identity_graph(self):
        eps = 1e-9
        g = np.array([[1 - eps, eps], [eps, 1 - eps]])
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(graph_mix(g, h), h, atol=1e-8)

    def test_matmul_oracle(self):
        rng = np.random.default_rng(4)
        g = build_adaptive_graph(rng.normal(size=(5, 3)))
        h = rng.normal(size=(5, 7))
        np.testing.assert_array_equal(graph_mix(g, h), g @ h)

    def test_batch_mixes_each_row(self):
        rng = np.random.default_rng(6)
        g = build_adaptive_graph(rng.normal(size=(5, 3)))
        h = rng.normal(size=(5, 4, 7))  # [N x B x F]
        mixed = graph_mix(g, h)
        assert mixed.shape == h.shape
        np.testing.assert_array_equal(mixed.reshape(5, -1),
                                      g @ h.reshape(5, -1))
        for b in range(4):
            np.testing.assert_allclose(mixed[:, b], g @ h[:, b], rtol=1e-14)
        out = np.empty_like(h)
        assert graph_mix(g, h, out=out) is out
        np.testing.assert_array_equal(out, mixed)
        with pytest.raises(ValueError, match=r"feature rows \(6\)"):
            graph_mix(g, np.zeros((6, 4, 7)))

    @pytest.mark.parametrize("n", [5, 40, 307])
    def test_per_window_bits_independent_of_batch(self, n):
        # one [N x F] GEMM per window: a window's bits are those of a batch of
        # one, whatever batch it is mixed in
        rng = np.random.default_rng(7)
        g = build_adaptive_graph(rng.normal(size=(n, 4)))
        h = rng.normal(size=(n, 7, 52))
        mixed = graph_mix(g, h, out=np.empty_like(h), per_window=True)
        for b in range(7):
            np.testing.assert_array_equal(mixed[:, b], graph_mix(g, h[:, b]))
            np.testing.assert_array_equal(
                mixed[:, b], graph_mix(g, h[:, b : b + 1], per_window=True)[:, 0])

    def test_preserves_constant_vectors(self):
        rng = np.random.default_rng(5)
        g = build_adaptive_graph(rng.normal(size=(6, 2)))
        h = np.full((6, 3), 4.2)
        np.testing.assert_allclose(graph_mix(g, h), h, atol=1e-12)

    def test_shape_mismatch(self):
        g = np.eye(3)
        with pytest.raises(ValueError, match="do not match"):
            graph_mix(g, np.zeros((4, 2)))
