"""Fit a PCA projection over daily traffic profiles and inspect the result.

Walkthrough: generate synthetic traffic with 4 node roles, reshape the
training range into the day tensor, fit the projection on z-scored profiles,
then look at the eigenvalue spectrum, pick a component count by explained
variance, and check that the resulting node embeddings separate the roles.

Run:  python demos/01_pca_node_embeddings.py
"""

import numpy as np

from stpca import (SynthSpec, fit_normalizer, fit_projection, generate,
                   refresh_embedding, select_components, split_chronological,
                   to_day_tensor)
from stpca.serialize import write_embedding_csv

spec = SynthSpec(n_nodes=16, n_roles=4, days=21, steps_per_day=48,
                 shift_fraction=0.0, noise_std=2.0, seed=0)
series, _, (roles, _) = generate(spec)
print(f"series: {series.total_steps} steps x {series.num_nodes} nodes "
      f"({series.steps_per_day} slots/day)")

# chronological 6:2:2 split; statistics come from the training range only
train_range, _, _ = split_chronological(series)
normalizer = fit_normalizer(series, train_range)
print(f"train normalizer: mean {normalizer.mean:.2f}, std {normalizer.std:.2f}")

# each (day, node) daily profile is one sample of length T
z = normalizer.apply(to_day_tensor(series, train_range))
days, nodes, slots = z.shape
print(f"day tensor: {days} days x {nodes} nodes x "
      f"{slots} slots -> {days * nodes} samples")

proj = fit_projection(z, n_components=8)
ratios = proj.explained_variance_ratio()
print("\ncomponent | eigenvalue | cumulative variance")
for k in range(8):
    print(f"{k + 1:9d} | {proj.eigenvalues[k]:10.4f} | {ratios[k]:.4f}")

# the daily structure lives in very few directions
for theta in (0.5, 0.9, 0.99):
    print(f"theta={theta}: {select_components(proj.eigenvalues, theta)} components")

# averaged per-day projections give one frozen embedding row per node
table = refresh_embedding(z, proj)
print(f"\nembedding table: {table.values.shape}, strategy={table.strategy}")

# nodes sharing a role land on nearly the same point
print("\nrole | first two embedding coordinates per node")
for r in range(4):
    for n in np.where(roles == r)[0][:2]:
        c0, c1 = table.values[n, 0], table.values[n, 1]
        print(f"{r:4d} | node {n:2d}: ({c0:8.3f}, {c1:8.3f})")

within = max(np.linalg.norm(table.values[i] - table.values[j])
             for i in range(16) for j in range(16) if roles[i] == roles[j])
across = min(np.linalg.norm(table.values[i] - table.values[j])
             for i in range(16) for j in range(16) if roles[i] != roles[j])
print(f"\nmax within-role distance {within:.3f} < "
      f"min across-role distance {across:.3f}: {within < across}")

write_embedding_csv(table, series.node_ids, "embeddings_demo.csv")
print("wrote embeddings_demo.csv (node_id,c0,...) for external plotting")
