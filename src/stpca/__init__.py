"""Spatiotemporal forecasting with frozen PCA node embeddings.

The package trains a node-shared forecaster whose per-node knowledge lives in
a swappable embedding table, and provides the evaluation protocols (cross-year
shift, cross-city zero-shot) that show why a frozen statistical table
generalizes where a trained one does not. The rest of the API lives in the
submodules (`stpca.dataset`, `stpca.model`, `stpca.training`, ...).
"""

from .dataset import (fit_normalizer, ingest_csv, split_chronological,
                      to_day_tensor, write_series_csv)
from .graph import build_adaptive_graph
from .metrics import evaluate
from .model import ModelConfig
from .pca import fit_projection, refresh_embedding, select_components
from .pipeline import train_run
from .synth import SynthSpec, generate
from .training import TrainConfig
from .transfer import TransferPlan

__version__ = "0.1.0"
