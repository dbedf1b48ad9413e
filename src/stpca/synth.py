"""Seeded synthetic traffic with role structure and a controllable role shift.

Each node follows one of R periodic daily profiles (its "role"), scaled down on
weekends, plus AR(1) noise. The shifted twin reassigns a chosen fraction of
nodes to the next role, which is the sharpest desk-scale analogue of sensors
whose spatial relationships changed: ground truth for the shift is exact.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .dataset import MINUTES_PER_DAY, TrafficSeries
from .ioutil import atomic_write_text

AR_COEF = 0.8
WEEKEND_FACTOR = 0.7


@dataclass
class SynthSpec:
    n_nodes: int = 40
    n_roles: int = 4
    days: int = 28
    steps_per_day: int = 48
    shift_fraction: float = 0.5
    noise_std: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_nodes, self.n_roles, self.days, self.steps_per_day) < 1:
            raise ValueError("all size fields must be positive")
        if self.n_roles > self.n_nodes:
            raise ValueError("more roles than nodes")
        if not 0.0 <= self.shift_fraction <= 1.0:
            raise ValueError("shift_fraction must be in [0, 1]")
        if not self.noise_std >= 0:  # written so that a NaN fails it
            raise ValueError("noise_std must be non-negative")
        if MINUTES_PER_DAY % self.steps_per_day != 0:
            raise ValueError("steps_per_day must divide 1440 minutes")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


def role_profile(role: int, n_roles: int, steps_per_day: int) -> np.ndarray:
    """Daily curve of one role: two harmonics with a role-specific phase."""
    t = np.arange(steps_per_day)
    phase = 2.0 * np.pi * role / n_roles
    return (
        50.0
        + 30.0 * np.sin(2.0 * np.pi * t / steps_per_day + phase)
        + 10.0 * np.sin(4.0 * np.pi * t / steps_per_day + 2.0 * phase)
    )


def _series_values(roles, spec: SynthSpec, rng) -> np.ndarray:
    T = spec.steps_per_day
    profiles = np.stack([role_profile(r, spec.n_roles, T) for r in range(spec.n_roles)])

    # AR(1) noise run inside the innovations, row s += AR_COEF * row s-1: the
    # same bits as a separate noise array, as float addition commutes
    noise = rng.normal(0.0, spec.noise_std, size=(spec.days * T, spec.n_nodes))
    for s in range(1, len(noise)):
        noise[s] += AR_COEF * noise[s - 1]
    # the clean signal added one day at a time, never held whole
    weekday = profiles.T[:, roles]  # [T x N]
    weekend = weekday * WEEKEND_FACTOR
    for day, rows in enumerate(noise.reshape(spec.days, T, -1)):
        rows += weekday if day % 7 < 5 else weekend  # day 0 is a Monday
    return np.maximum(noise, 0.0, out=noise)  # flow is non-negative; clipped


def generate(spec: SynthSpec):
    """Build the (train, shifted) series pair and their role assignments.

    Roles are assigned round-robin; the shifted twin moves a seeded random
    ceil(shift_fraction * N) subset of nodes to the next role and redraws the
    noise. Everything is a pure function of the spec.
    """
    rng = np.random.default_rng(spec.seed)
    roles_train = np.arange(spec.n_nodes) % spec.n_roles

    values_train = _series_values(roles_train, spec, rng)

    n_shift = int(np.ceil(spec.shift_fraction * spec.n_nodes))
    shifted_nodes = rng.choice(spec.n_nodes, size=n_shift, replace=False)
    roles_shifted = roles_train.copy()
    if n_shift and spec.n_roles > 1:
        # move each selected node to the most distant role (antipodal phase):
        # the sharpest spatial shift this role library can express
        offset = max(spec.n_roles // 2, 1)
        roles_shifted[shifted_nodes] = (roles_shifted[shifted_nodes] + offset) % spec.n_roles
    values_shifted = _series_values(roles_shifted, spec, rng)

    common = dict(
        steps_per_day=spec.steps_per_day,
        start_slot=0,
        start_dow=0,
        node_ids=[f"node_{i}" for i in range(spec.n_nodes)],
    )
    train = TrafficSeries(values=values_train, **common)
    shifted = TrafficSeries(values=values_shifted, **common)
    return train, shifted, (roles_train, roles_shifted)


def write_roles_csv(role_maps, node_ids, path):
    roles_train, roles_shifted = role_maps
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["node_id", "role_train", "role_shifted"])
    for nid, rt, rs in zip(node_ids, roles_train, roles_shifted):
        writer.writerow([nid, int(rt), int(rs)])
    atomic_write_text(path, buf.getvalue())
