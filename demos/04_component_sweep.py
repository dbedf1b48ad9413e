"""How many principal components should the embedding keep?

Too few and nodes with different roles collapse together; too many and the
embedding memorizes per-node noise coordinates that do not survive a refresh
on new data. This sweep trains one model per component count and reports
in-distribution and shifted-data error next to the trainable-embedding
baseline, the same curve the sweep-components CLI command emits as CSV.

Run:  python demos/04_component_sweep.py   (~30 s)
"""

from stpca import ModelConfig, SynthSpec, TrainConfig, generate
from stpca.pipeline import sweep_run

spec = SynthSpec(n_nodes=24, n_roles=4, days=28, steps_per_day=48,
                 shift_fraction=0.5, noise_std=2.0, seed=2)
train_series, shifted_series, _ = generate(spec)

base = dict(l1=12, l2=12, tod_dim=16, dow_dim=4, hidden_dim=1, num_blocks=2,
            use_graph=False, steps_per_day=48)
train_cfg = dict(lr=2e-3, max_epochs=60, patience=12, batch_size=16, seed=2)
points = [(k, "pca", k) for k in (1, 2, 4, 8, 16, 48)] + [("adaptive", "adaptive", 8)]

print("k        | val MAE | test MAE | shifted MAE")
for label, strategy, k in points:
    val, test, shifted = sweep_run(train_series, shifted_series,
                                   ModelConfig(embed_dim=k, **base),
                                   TrainConfig(**train_cfg), strategy, 0.25)
    print(f"{label:<8} | {val:7.3f} | {test:8.3f} | {shifted:11.3f}")

print("\na handful of components carries the role structure; the full "
      "spectrum and the trainable table both degrade once the data shifts")
