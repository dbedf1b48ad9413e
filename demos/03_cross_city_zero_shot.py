"""Zero-shot transfer between cities with different sensor counts.

Every weight of the forecaster is shared across nodes; per-node knowledge
lives only in the embedding table. So a model trained on city A (24 sensors)
can predict city B (15 sensors) by projecting B's daily profiles through A's
PCA axes and swapping the table, with the adaptive graph rebuilt at B's size.
No gradient steps are taken on city B.

Run:  python demos/03_cross_city_zero_shot.py   (~3 s)
"""

from stpca import (ModelConfig, SynthSpec, TrainConfig, TransferPlan,
                   build_adaptive_graph, generate, train_run)
from stpca.transfer import (historical_average_baseline, split_adaptation,
                            zero_shot_transfer)

city_a, _, _ = generate(SynthSpec(n_nodes=24, n_roles=4, days=28,
                                  steps_per_day=48, shift_fraction=0.0,
                                  noise_std=2.0, seed=3))
city_b, _, _ = generate(SynthSpec(n_nodes=15, n_roles=4, days=28,
                                  steps_per_day=48, shift_fraction=0.0,
                                  noise_std=2.0, seed=303))

cfg = ModelConfig(l1=12, l2=12, embed_dim=8, tod_dim=16, dow_dim=4,
                  hidden_dim=1, num_blocks=2, use_graph=True, steps_per_day=48)
run = train_run(city_a, cfg, TrainConfig(lr=2e-3, max_epochs=60, patience=12,
                                         batch_size=16, seed=3),
                strategy="pca")
print(f"city A model trained: {run.params.num_nodes} nodes, "
      f"graph {build_adaptive_graph(run.params.embedding.values).shape}")

plan = TransferPlan(adaptation_fraction=0.25, strategy="pca_emb")
report = zero_shot_transfer(run.params, run.bundle.normalizer, run.projection,
                            city_b, plan)
print(f"\ntransferred to city B with {city_b.num_nodes} nodes; "
      f"adaptation range {report.metadata['adaptation_range']}, "
      f"eval range {report.metadata['eval_range']}")

# the same adaptation prefix feeds the per-slot historical average
_, eval_range = split_adaptation(city_b, 0.25)
baseline = historical_average_baseline(city_b, eval_range)

print("\n          MAE & RMSE & MAPE (12-step average)")
print(f"zero-shot {report.horizons['avg'].table_row()}")
print(f"hist-avg  {baseline.horizons['avg'].table_row()}")
print("\nper-horizon zero-shot metrics")
for key in ("3", "6", "12"):
    print(f"  H{key:2s} {report.horizons[key].table_row()}")
