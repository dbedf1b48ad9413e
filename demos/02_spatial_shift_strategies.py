"""Compare embedding strategies when the spatial structure shifts.

The scenario: train on a city where each sensor follows one of four daily
role profiles, then evaluate on the same sensors after half of them changed
role (new infrastructure, rerouted demand). A trained adaptive table encodes
the old roles and misleads the model; a frozen statistical table is simply
recomputed from a few days of new data, no retraining.

Strategies compared on the shifted data:
  vanilla   keep the trained adaptive embedding as-is
  zero      blank the adaptive embedding at test time
  pca       recompute the PCA embedding from the adaptation prefix
  finetune  gradient-tune only the embedding table on the adaptation prefix

Run:  python demos/02_spatial_shift_strategies.py   (~10 s)
"""

import time

from stpca import (ModelConfig, SynthSpec, TrainConfig, TransferPlan, evaluate,
                   generate, train_run)
from stpca.transfer import cross_year_eval

spec = SynthSpec(n_nodes=24, n_roles=4, days=28, steps_per_day=48,
                 shift_fraction=0.5, noise_std=2.0, seed=1)
train_series, shifted_series, (roles, roles_shifted) = generate(spec)
print(f"{(roles != roles_shifted).sum()} of {spec.n_nodes} nodes changed role")

# hidden_dim=1 mirrors real traffic: recent history alone cannot identify a
# node's role, so the embedding slot has to carry it
model_cfg = dict(l1=12, l2=12, embed_dim=8, tod_dim=16, dow_dim=4,
                 hidden_dim=1, num_blocks=2, use_graph=False, steps_per_day=48)
train_cfg = dict(lr=2e-3, max_epochs=60, patience=12, batch_size=16, seed=1)

t0 = time.time()
run_adaptive = train_run(train_series, ModelConfig(**model_cfg),
                         TrainConfig(**train_cfg), strategy="adaptive")
run_pca = train_run(train_series, ModelConfig(**model_cfg),
                    TrainConfig(**train_cfg), strategy="pca")
print(f"trained adaptive + pca models in {time.time() - t0:.0f}s")

for name, run in (("adaptive", run_adaptive), ("pca", run_pca)):
    mae = evaluate(run.params, None, run.bundle.test_windows,
                   run.bundle.normalizer).horizons["avg"].mae
    print(f"in-distribution test MAE ({name} embedding): {mae:.2f}")

# first half of the shifted series is the adaptation prefix, the rest is eval
print("\nshifted-city evaluation (MAE & RMSE & MAPE, 12-step average)")
rows = [
    ("vanilla", run_adaptive, "vanilla_adaptive"),
    ("zero", run_adaptive, "zero_emb"),
    ("pca", run_pca, "pca_emb"),
    ("finetune", run_adaptive, "finetune_emb"),
]
for label, run, strategy in rows:
    plan = TransferPlan(strategy=strategy, adaptation_fraction=0.5)
    rep = cross_year_eval(run.params, run.bundle.normalizer, run.projection,
                          shifted_series, plan)
    print(f"{label:9s} {rep.horizons['avg'].table_row()}")

print("\nthe refreshed pca table tracks the new roles without touching a "
      "single model weight")
