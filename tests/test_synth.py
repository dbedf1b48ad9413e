import numpy as np
import pytest

from stpca import synth
from stpca.dataset import to_day_tensor
from stpca.pca import fit_projection, refresh_embedding
from stpca.synth import SynthSpec, generate, role_profile, write_roles_csv


class TestRoleProfile:
    def test_quarter_day_weekday_value(self):
        # phase 0 at t = T/4: 50 + 30*sin(pi/2) + 10*sin(pi) = 80
        T = 48
        profile = role_profile(0, 4, T)
        assert abs(profile[T // 4] - 80.0) < 1e-12

    def test_profiles_are_translates(self):
        T, R = 48, 4
        g0 = role_profile(0, R, T)
        g1 = role_profile(1, R, T)
        np.testing.assert_allclose(g1, np.roll(g0, -T // R), atol=1e-9)


def out_of_place_series_values(roles, spec, rng):
    """`synth._series_values` written with fresh arrays, the reference its
    in-place form must match bit for bit."""
    T = spec.steps_per_day
    steps = spec.days * T
    profiles = np.stack([role_profile(r, spec.n_roles, T) for r in range(spec.n_roles)])
    slot = np.arange(steps) % T
    dow = (np.arange(steps) // T) % 7
    factor = np.where(dow < 5, 1.0, synth.WEEKEND_FACTOR)
    clean = profiles[roles][:, slot].T * factor[:, None]
    noise = np.zeros((steps, spec.n_nodes))
    innovations = rng.normal(0.0, spec.noise_std, size=(steps, spec.n_nodes))
    prev = np.zeros(spec.n_nodes)
    for s in range(steps):
        prev = synth.AR_COEF * prev + innovations[s]
        noise[s] = prev
    return np.maximum(clean + noise, 0.0)


class TestGenerate:
    @pytest.mark.parametrize("spec", [
        SynthSpec(),
        SynthSpec(n_nodes=7, n_roles=3, days=9, steps_per_day=24, shift_fraction=0.4,
                  noise_std=0.0, seed=9),
        # noise large enough that clipping at zero is exercised
        SynthSpec(n_nodes=31, n_roles=5, days=8, steps_per_day=96, shift_fraction=1.0,
                  noise_std=40.0, seed=3),
    ])
    def test_in_place_equals_out_of_place(self, monkeypatch, spec):
        got = generate(spec)
        monkeypatch.setattr(synth, "_series_values", out_of_place_series_values)
        want = generate(spec)
        for a, b in ((got[0], want[0]), (got[1], want[1])):
            assert a.values.tobytes() == b.values.tobytes()
        if spec.noise_std > 30:
            assert (got[0].values == 0.0).any()

    def test_deterministic(self):
        spec = SynthSpec(n_nodes=6, n_roles=3, days=7, steps_per_day=24,
                         shift_fraction=0.5, noise_std=1.0, seed=9)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a[0].values, b[0].values)
        np.testing.assert_array_equal(a[1].values, b[1].values)
        np.testing.assert_array_equal(a[2][1], b[2][1])

    def test_rho_zero_same_roles_fresh_noise(self):
        spec = SynthSpec(n_nodes=6, n_roles=3, days=7, steps_per_day=24,
                         shift_fraction=0.0, noise_std=1.0, seed=2)
        train, shifted, (r0, r1) = generate(spec)
        np.testing.assert_array_equal(r0, r1)
        assert np.abs(train.values - shifted.values).max() > 0

    def test_full_shift_two_nodes_exact_swap(self):
        spec = SynthSpec(n_nodes=2, n_roles=2, days=7, steps_per_day=24,
                         shift_fraction=1.0, noise_std=0.0, seed=5)
        train, shifted, (r0, r1) = generate(spec)
        np.testing.assert_array_equal(r1, 1 - r0)
        np.testing.assert_allclose(shifted.values[:, 0], train.values[:, 1],
                                   atol=1e-12)
        np.testing.assert_allclose(shifted.values[:, 1], train.values[:, 0],
                                   atol=1e-12)

    def test_shift_count(self):
        spec = SynthSpec(n_nodes=10, n_roles=4, days=7, steps_per_day=24,
                         shift_fraction=0.33, noise_std=0.0, seed=1)
        _, _, (r0, r1) = generate(spec)
        assert (r0 != r1).sum() == 4  # ceil(0.33 * 10)

    def test_noiseless_weekday_profiles_repeat(self):
        spec = SynthSpec(n_nodes=3, n_roles=3, days=14, steps_per_day=24,
                         shift_fraction=0.0, noise_std=0.0, seed=0)
        train, _, _ = generate(spec)
        v = train.values
        T = 24
        # Monday of week 1 vs Monday of week 2
        np.testing.assert_allclose(v[0:T], v[7 * T : 8 * T], atol=1e-12)

    def test_weekend_scaling(self):
        spec = SynthSpec(n_nodes=1, n_roles=1, days=7, steps_per_day=24,
                         shift_fraction=0.0, noise_std=0.0, seed=0)
        train, _, _ = generate(spec)
        T = 24
        monday = train.values[0:T, 0]
        saturday = train.values[5 * T : 6 * T, 0]
        np.testing.assert_allclose(saturday, 0.7 * monday, atol=1e-12)

    def test_values_non_negative(self):
        spec = SynthSpec(n_nodes=8, n_roles=4, days=7, steps_per_day=24,
                         shift_fraction=0.5, noise_std=30.0, seed=3)
        train, shifted, _ = generate(spec)
        assert (train.values >= 0).all() and (shifted.values >= 0).all()
        # large noise should actually exercise the floor
        assert (train.values == 0).any()

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SynthSpec(n_nodes=2, n_roles=3)
        with pytest.raises(ValueError):
            SynthSpec(shift_fraction=1.5)
        with pytest.raises(ValueError):
            SynthSpec(steps_per_day=7)
        for value in ("nan", "inf"):
            with pytest.raises(ValueError, match="noise_std"):
                SynthSpec(noise_std=float(value))

    def test_role_recovery_noiseless(self):
        # embeddings of same-role nodes identical, different-role nodes apart
        spec = SynthSpec(n_nodes=8, n_roles=4, days=14, steps_per_day=24,
                         shift_fraction=0.0, noise_std=0.0, seed=0)
        train, _, (roles, _) = generate(spec)
        z = to_day_tensor(train, (0, train.total_steps))
        proj = fit_projection(z, n_components=3)
        emb = refresh_embedding(z, proj).values
        for i in range(8):
            for j in range(8):
                gap = np.linalg.norm(emb[i] - emb[j])
                if roles[i] == roles[j]:
                    assert gap < 1e-9
                else:
                    assert gap > 1e-3


def test_roles_csv(tmp_path):
    spec = SynthSpec(n_nodes=4, n_roles=2, days=7, steps_per_day=24,
                     shift_fraction=0.5, noise_std=0.0, seed=1)
    _, _, role_maps = generate(spec)
    path = tmp_path / "roles.csv"
    write_roles_csv(role_maps, [f"node_{i}" for i in range(4)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node_id,role_train,role_shifted"
    assert len(lines) == 5
