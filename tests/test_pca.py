import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpca.dataset import TrafficSeries, fit_normalizer, to_day_tensor
from stpca.pca import (EmbeddingTable, PcaProjection, fit_projection, pca_table,
                       refresh_embedding, select_components, sym_eig,
                       zero_embedding)
from stpca.synth import SynthSpec, generate


def brute_force_pca(samples):
    """Independent oracle: explicit covariance, numpy eigensolver."""
    mu = samples.mean(axis=0)
    x = samples - mu
    cov = x.T @ x / (samples.shape[0] - 1)
    lam, vec = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1]
    return mu, lam[order], vec[:, order]


def per_day_table(z, proj):
    """Reference oracle: project one day at a time, then average the days."""
    per_day = [(day - proj.mean) @ proj.components for day in z]
    return np.mean(np.stack(per_day, axis=0), axis=0)


def assert_near(got, reference):
    """got equals the reference within 1e-12 of the reference's largest entry:
    the same sums taken in another order."""
    assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()


class TestSymEig:
    def test_diagonal(self):
        lam, v = sym_eig(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(lam, [3.0, 2.0])
        np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-14)

    def test_textbook_offdiagonal(self):
        lam, v = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(lam, [1.0, -1.0], atol=1e-14)
        r2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.abs(v), [[r2, r2], [r2, r2]], atol=1e-12)

    def test_reconstruction_oracle_20x20(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=(20, 20))
        a = (m + m.T) / 2
        lam, v = sym_eig(a)
        assert np.linalg.norm(a - v @ np.diag(lam) @ v.T) < 1e-9
        assert np.linalg.norm(v.T @ v - np.eye(20)) < 1e-9

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig(a)

    def test_non_finite_rejected(self):
        a = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig(a)

    def test_descending_eigenvalues(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(9, 9))
        lam, _ = sym_eig(m + m.T)
        assert (np.diff(lam) <= 1e-12).all()


class TestSelectComponents:
    def test_threshold_arithmetic(self):
        assert select_components(np.array([4.0, 3.0, 2.0, 1.0]), 0.6) == 2
        assert select_components(np.array([4.0, 3.0, 2.0, 1.0]), 0.4) == 1
        assert select_components(np.array([4.0, 3.0, 2.0, 1.0]), 1.0) == 4

    def test_exact_boundary(self):
        # cumulative ratios 0.4, 0.7, 0.9, 1.0; theta exactly at a ratio
        assert select_components(np.array([4.0, 3.0, 2.0, 1.0]), 0.7) == 2

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            select_components(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            select_components(np.array([1.0]), 1.5)


class TestFitProjection:
    def test_collinear_samples(self):
        z = np.array([[[1.0, 1.0]], [[2.0, 2.0]], [[3.0, 3.0]], [[4.0, 4.0]]])
        proj = fit_projection(z, n_components=1)
        np.testing.assert_allclose(proj.mean, [2.5, 2.5])
        r2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(proj.components[:, 0], [r2, r2], atol=1e-12)
        assert proj.eigenvalues[1] < 1e-12

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            data = rng.normal(size=(10, 5, 8))  # 50 samples, T=8
            proj = fit_projection(data, n_components=8)
            mu, lam, vec = brute_force_pca(data.reshape(-1, 8))
            np.testing.assert_allclose(proj.mean, mu, atol=1e-12)
            lam = np.maximum(lam, 0.0)
            rel = np.abs(proj.eigenvalues - lam) / np.maximum(np.abs(lam), 1e-300)
            assert rel.max() <= 1e-8
            for j in range(8):
                cos = abs(proj.components[:, j] @ vec[:, j])
                assert cos >= 1 - 1e-8

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 4, 7))
        proj = fit_projection(z, n_components=7)
        for j in range(7):
            col = proj.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_theta_defaults_and_cap(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(2, 3, 8))  # m=6 samples, cap=5
        proj = fit_projection(z, theta=1.0)
        assert proj.num_components <= 5

    def test_errors(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(1, 1, 4))
        with pytest.raises(ValueError, match="at least 2 samples"):
            fit_projection(z)
        z2 = rng.normal(size=(4, 3, 6))
        with pytest.raises(ValueError, match="theta"):
            fit_projection(z2, theta=1.5)
        with pytest.raises(ValueError, match="n_components"):
            fit_projection(z2, n_components=7)

    def test_invariants_on_fitted_projections(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            z = rng.normal(size=(8, 5, 10))
            proj = fit_projection(z, n_components=10)
            c = proj.num_components
            gram = proj.components.T @ proj.components
            assert np.abs(gram - np.eye(c)).max() <= 1e-8
            ratios = proj.explained_variance_ratio()
            assert (np.diff(ratios) >= -1e-12).all()
            # reconstruction error non-increasing in k
            samples = z.reshape(-1, 10) - proj.mean
            errs = []
            for k in range(1, c + 1):
                p = proj.components[:, :k]
                errs.append(np.linalg.norm(samples - samples @ p @ p.T))
            assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(errs, errs[1:]))


def hand_projection():
    return PcaProjection(mean=np.array([1.0, 2.0]),
                         components=np.array([[1.0], [0.0]]),
                         eigenvalues=np.array([1.0, 0.5]))


class TestEmbedDays:
    """refresh_embedding's projection of each day's [N x T] block."""

    def test_hand_computed(self):
        table = refresh_embedding(np.array([[[3.0, 4.0]]]), hand_projection())
        np.testing.assert_allclose(table.values, [[2.0]])
        assert table.strategy == "pca"

    def test_identity_projection(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(3, 4, 5))
        proj = PcaProjection(mean=np.zeros(5), components=np.eye(5),
                             eigenvalues=np.ones(5))
        np.testing.assert_array_equal(
            refresh_embedding(data[:1], proj).values, data[0])
        np.testing.assert_allclose(refresh_embedding(data, proj).values,
                                   data.mean(axis=0), atol=1e-15)

    def test_centered_rows_give_zero(self):
        mu = np.array([1.0, -2.0, 0.5])
        proj = PcaProjection(mean=mu, components=np.eye(3), eigenvalues=np.ones(3))
        for days in (1, 2):
            table = refresh_embedding(np.tile(mu, (days, 4, 1)), proj)
            np.testing.assert_allclose(table.values, 0.0, atol=1e-14)

    def test_slot_mismatch(self):
        proj = PcaProjection(mean=np.zeros(3), components=np.eye(3),
                             eigenvalues=np.ones(3))
        for days in (1, 2):
            with pytest.raises(ValueError, match="slot mismatch"):
                refresh_embedding(np.zeros((days, 2, 4)), proj)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        proj = fit_projection(rng.normal(size=(4, 3, 6)), n_components=3)
        alpha = 0.3
        for days in (1, 2):
            a = rng.normal(size=(days, 3, 6))
            b = rng.normal(size=(days, 3, 6))
            mixed = refresh_embedding(alpha * a + (1 - alpha) * b, proj)
            ea = refresh_embedding(a, proj).values
            eb = refresh_embedding(b, proj).values
            np.testing.assert_allclose(mixed.values, alpha * ea + (1 - alpha) * eb,
                                       atol=1e-10)


class TestAveraging:
    """refresh_embedding's mean of the per-day projections."""

    def test_mean(self):
        z = np.array([[[3.0, 4.0]], [[5.0, 0.0]]])  # days project to 2 and 4
        table = refresh_embedding(z, hand_projection())
        np.testing.assert_allclose(table.values, [[3.0]])
        assert table.strategy == "pca"

    def test_single_day_identity(self):
        rng = np.random.default_rng(10)
        proj = fit_projection(rng.normal(size=(4, 3, 8)), n_components=2)
        one_day = rng.normal(size=(1, 3, 8))
        assert_near(refresh_embedding(one_day, proj).values,
                    (one_day[0] - proj.mean) @ proj.components)

    def test_idempotent_on_identical_days(self):
        rng = np.random.default_rng(13)
        proj = fit_projection(rng.normal(size=(4, 3, 8)), n_components=3)
        day = rng.normal(size=(1, 3, 8))
        one = refresh_embedding(day, proj).values
        five = refresh_embedding(np.repeat(day, 5, axis=0), proj).values
        np.testing.assert_allclose(five, one, atol=1e-14)

    def test_errors(self):
        proj = PcaProjection(mean=np.zeros(3), components=np.eye(3),
                             eigenvalues=np.ones(3))
        with pytest.raises(ValueError, match="empty day tensor"):
            refresh_embedding(np.zeros((0, 2, 3)), proj)


class TestRefresh:
    def test_equals_training_table_on_same_tensor(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 8, 10))
        proj = fit_projection(z, n_components=4)
        assert_near(refresh_embedding(z, proj).values, per_day_table(z, proj))

    @pytest.mark.parametrize("shape", [(1, 3, 8), (16, 40, 48), (3, 170, 24),
                                       (20, 25, 12)])
    def test_matches_per_day_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        proj = fit_projection(rng.normal(size=(4, 10, shape[2])),
                              n_components=4)
        for z in (rng.normal(size=shape) * 3.0 + 1.0,
                  rng.normal(size=(2, 7, shape[2]))):
            assert_near(refresh_embedding(z, proj).values, per_day_table(z, proj))

    def test_node_count_free(self):
        rng = np.random.default_rng(8)
        proj = fit_projection(rng.normal(size=(5, 40, 12)), n_components=6)
        table = refresh_embedding(rng.normal(size=(3, 25, 12)), proj)
        assert table.values.shape == (25, 6)

    def test_single_day(self):
        rng = np.random.default_rng(10)
        proj = fit_projection(rng.normal(size=(4, 3, 8)), n_components=2)
        one_day = rng.normal(size=(1, 3, 8))
        assert_near(refresh_embedding(one_day, proj).values, per_day_table(one_day, proj))

    def test_node_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(4, 7, 9))
        proj = fit_projection(data, n_components=3)
        perm = rng.permutation(7)
        direct = refresh_embedding(data, proj).values
        permuted = refresh_embedding(data[:, perm, :], proj).values
        np.testing.assert_allclose(permuted, direct[perm], atol=1e-12)


class TestPcaTable:
    def test_equals_normalized_copy_recipe(self):
        # the reference scales a copy of the days, fits on it and projects each day
        series = generate(SynthSpec(n_nodes=9, n_roles=3, days=6, steps_per_day=24,
                                    seed=5))[0]
        kept = series.values.copy()
        step_range, norm = (5, 130), fit_normalizer(series, (0, 100))
        z = norm.apply(to_day_tensor(series, step_range))
        table, proj = pca_table(series, step_range, norm, n_components=3)
        want = fit_projection(z, n_components=3)
        for name in ("mean", "components", "eigenvalues"):
            assert_near(getattr(proj, name), getattr(want, name))
        assert_near(table.values, per_day_table(z, want))
        again, _ = pca_table(series, step_range, norm, proj)
        assert again.values.tobytes() == table.values.tobytes()
        assert series.values.tobytes() == kept.tobytes()


@st.composite
def cities(draw):
    """A small generated city, or two of them spliced side by side, and a step
    range holding at least one whole day."""
    steps_per_day = draw(st.sampled_from([4, 12, 24]))
    days = draw(st.integers(2, 5))
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        n_nodes = draw(st.integers(1, 12))
        spec = SynthSpec(n_nodes=n_nodes, n_roles=draw(st.integers(1, n_nodes)),
                         days=days, steps_per_day=steps_per_day,
                         seed=draw(st.integers(0, 2**16)))
        parts.append(generate(spec)[0].values)
    values = np.concatenate(parts, axis=1)
    series = TrafficSeries(values=values, steps_per_day=steps_per_day,
                           start_slot=0, start_dow=0,
                           node_ids=[f"n{i}" for i in range(values.shape[1])])
    lo = draw(st.integers(0, steps_per_day - 1))
    first_day_end = (2 if lo else 1) * steps_per_day
    hi = draw(st.integers(first_day_end, series.total_steps))
    return series, (lo, hi)


def node_subset(series, nodes):
    return TrafficSeries(values=series.values[:, nodes],
                         steps_per_day=series.steps_per_day,
                         start_slot=series.start_slot, start_dow=series.start_dow,
                         node_ids=[series.node_ids[i] for i in nodes])


class TestLocality:
    """A node's pca row is a function of its own days and the fixed projection
    and normalizer: no other node enters it, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(cities(), st.data())
    def test_rows_of_permuted_city_and_node_subset(self, city, data):
        series, step_range = city
        n = series.num_nodes
        norm = fit_normalizer(series, step_range)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        proj = fit_projection(rng.normal(size=(3, 4, series.steps_per_day)),
                              n_components=min(3, series.steps_per_day))
        full, _ = pca_table(series, step_range, norm, proj)
        perm = data.draw(st.permutations(range(n)))
        subset = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        for nodes in (perm, subset):
            part, _ = pca_table(node_subset(series, nodes), step_range, norm, proj)
            assert part.values.tobytes() == full.values[nodes].tobytes()


class TestEmbeddingTable:
    def test_zero_table(self):
        t = zero_embedding(4, 3)
        assert t.strategy == "zero"
        np.testing.assert_array_equal(t.values, np.zeros((4, 3)))

    def test_bad_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            EmbeddingTable(values=np.zeros((2, 2)), strategy="learned")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingTable(values=np.array([[np.inf, 0.0]]), strategy="pca")
