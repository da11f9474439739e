"""Forward-Forward training lab.

Layer-local goodness optimization with no cross-layer gradients, the
data pipelines and threshold strategies around it, both inference
routes, a matched backprop baseline, and weight/goodness analysis.
"""

__version__ = "0.1.0"

from .activations import ACTIVATIONS, get_activation
from .ffnet import FFNetwork, LabelSlots, ff_loss, goodness, train_epoch
from .inference import predict_head_batch, predict_sweep_batch
from .numerics import AdamState, adam_step
from .rng import Rng
from .thresholds import Thresholds

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "FFNetwork",
    "LabelSlots",
    "Rng",
    "Thresholds",
    "adam_step",
    "ff_loss",
    "get_activation",
    "goodness",
    "predict_head_batch",
    "predict_sweep_batch",
    "train_epoch",
]
