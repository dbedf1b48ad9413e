"""PCA projections over daily profiles and the node embeddings they produce.

Each (day, node) pair contributes one T-dimensional sample (the node's profile
over that day); the projection maps profiles to C coordinates. A node's row is
the projection of its own mean day profile, so it depends on nothing but that
node's data and the fixed projection: a new year or a new city needs no
retraining.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import _check, to_day_tensor

SYMMETRY_TOL = 1e-10
# how an embedding slot is filled: trained, a frozen PCA table, or exact zeros
TABLE_STRATEGIES = ("adaptive", "pca", "zero")


def sym_eig(a: np.ndarray):
    """Full eigendecomposition of a symmetric matrix (LAPACK `eigh`).

    Returns (eigenvalues, eigenvectors) with eigenvalues in descending order
    and eigenvectors as columns. Column signs are whatever LAPACK returns;
    fit_projection fixes the signs of the columns it keeps.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries")
    if a.shape[0] > 1 and np.abs(a - a.T).max() > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-10")

    eigvals, vecs = np.linalg.eigh((a + a.T) / 2.0)  # the exactly symmetric part
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], vecs[:, order]


@dataclass
class PcaProjection:
    """Fitted projection: feature mean, orthonormal axes and the full spectrum.

    components is [T x C] with columns in descending eigenvalue order; the
    eigenvalue vector keeps all T entries so component selection can be redone
    without refitting.
    """

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.components = np.ascontiguousarray(self.components, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        t, c = self.components.shape
        if self.mean.shape != (t,) or self.eigenvalues.shape != (t,):
            raise ValueError("inconsistent projection shapes")
        gram = self.components.T @ self.components
        if np.abs(gram - np.eye(c)).max() > 1e-8:
            raise ValueError("components are not orthonormal")
        if (np.diff(self.eigenvalues) > 1e-9).any():
            raise ValueError("eigenvalues must be non-increasing")

    @property
    def num_slots(self) -> int:
        return self.components.shape[0]

    @property
    def num_components(self) -> int:
        return self.components.shape[1]

    def explained_variance_ratio(self) -> np.ndarray:
        """Cumulative eigenvalue fraction for k = 1..T."""
        total = self.eigenvalues.sum()
        if total <= 0:
            raise ValueError("zero total variance")
        return np.cumsum(self.eigenvalues) / total


@dataclass
class EmbeddingTable:
    """[N x C] per-node embedding with its strategy tag; a zero table is zeros."""

    values: np.ndarray
    strategy: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("embedding must be [N x C]")
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite embedding entries")
        if self.strategy not in TABLE_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "zero" and self.values.any():
            raise ValueError("zero-strategy embedding has nonzero entries")

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def zero_embedding(n: int, c: int) -> EmbeddingTable:
    return EmbeddingTable(values=np.zeros((n, c)), strategy="zero")


def check_theta(theta):
    """Raise ConfigError unless theta is an explained-variance fraction in (0, 1]."""
    _check("theta", theta, "(0, 1]")


def select_components(eigenvalues: np.ndarray, theta: float) -> int:
    """Smallest k whose cumulative eigenvalue fraction reaches theta."""
    check_theta(theta)
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    total = eigenvalues.sum()
    if total <= 0:
        raise ValueError("zero total variance")
    ratios = np.cumsum(eigenvalues) / total
    return int(np.searchsorted(ratios, theta - 1e-12) + 1)


def fit_projection(z: np.ndarray, n_components: Optional[int] = None,
                   theta: Optional[float] = None) -> PcaProjection:
    """Fit the centered projection from the D*N day-profiles of a [D x N x T]
    day tensor, which may be a read-only view; z is never copied.

    An explicit n_components wins over theta; with neither given, theta
    defaults to 0.9. Column signs are fixed so each component's
    largest-magnitude entry is positive.
    """
    days, n, t = z.shape
    m = days * n
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    x = np.empty((t, n))  # slot-major scratch: the day sums, then each centered day
    # summing into x's fixed layout keeps z's layout out of the mean's bits
    mean = np.sum(z, axis=0, out=x.T).sum(axis=0) / m
    cov, prod = np.zeros((t, t)), np.empty((t, t))
    for day in z:
        np.subtract(day.T, mean[:, None], out=x)
        cov += np.matmul(x, x.T, out=prod)  # x times its own transpose: exactly symmetric

    eigvals, vecs = sym_eig(cov / (m - 1))
    eigvals = np.maximum(eigvals, 0.0)  # covariance is PSD; clip rounding noise

    cap = min(t, m - 1)
    if n_components is not None:
        if not 1 <= n_components <= cap:
            raise ValueError(f"n_components {n_components} outside [1, {cap}] "
                             f"(T={t}, samples={m})")
        c = n_components
    else:
        c = min(select_components(eigvals, 0.9 if theta is None else theta), cap)

    comps = vecs[:, :c]
    peaks = comps[np.abs(comps).argmax(axis=0), np.arange(c)]
    comps = comps * np.where(peaks < 0, -1.0, 1.0)  # each largest entry positive
    return PcaProjection(mean=mean, components=comps, eigenvalues=eigvals)


def refresh_embedding(target: np.ndarray, proj: PcaProjection) -> EmbeddingTable:
    """The pca table of a [D x N x T] day tensor under a fixed projection:
    each node's mean day profile projected, which by linearity is the mean of
    its per-day projections. The target may have any node count.
    """
    if len(target) < 1:
        raise ValueError("empty day tensor")
    if target.shape[-1] != proj.num_slots:
        raise ValueError(f"slot mismatch: tensor T={target.shape[-1]}, "
                         f"projection T={proj.num_slots}")
    # einsum sums each row on its own; a BLAS product picks its kernels by the
    # row count, so a node's bits would depend on how many nodes the city has
    values = np.einsum("nt,tc->nc", target.mean(axis=0) - proj.mean, proj.components)
    return EmbeddingTable(values=values, strategy="pca")


def pca_table(series, step_range, normalizer, proj: Optional[PcaProjection] = None,
              **fit_kwargs):
    """(pca table, projection) of a step range of a series.

    The range's whole days, scaled by `normalizer`, go through `proj`, or when
    it is None through a projection fitted on them (`fit_kwargs` go to
    `fit_projection`). The fit reads the series in place, in its own units;
    the z-score is affine, so scaling keeps the components, scales the mean
    like the data and divides the eigenvalues by std**2.
    """
    z = to_day_tensor(series, step_range)
    if proj is None:
        raw = fit_projection(z, **fit_kwargs)
        proj = PcaProjection(mean=normalizer.apply(raw.mean), components=raw.components,
                             eigenvalues=raw.eigenvalues / normalizer.std ** 2)
    return refresh_embedding(normalizer.apply(z.mean(axis=0, keepdims=True)), proj), proj
