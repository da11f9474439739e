"""Forward-Forward training lab.

Layer-local goodness optimization with no cross-layer gradients, the
data pipelines and loss thresholds around it, both inference
routes, a matched backprop baseline, and weight/goodness analysis.

The label sweep is two calls: ``sweep_scores_batch(net, X_raw,
num_classes, slots)`` returns every layer's goodness of every candidate
label, and ``predict_sweep_batch(included_layers, G)`` scores it.
"""

__version__ = "0.1.0"

from .activations import ACTIVATIONS, get_activation
from .ffnet import FFNetwork, LabelSlots, ff_loss, goodness, train_epoch
from .inference import predict_head_batch, predict_sweep_batch, sweep_scores_batch
from .numerics import AdamState, adam_step
from .rng import Rng

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "FFNetwork",
    "LabelSlots",
    "Rng",
    "adam_step",
    "ff_loss",
    "get_activation",
    "goodness",
    "predict_head_batch",
    "predict_sweep_batch",
    "sweep_scores_batch",
    "train_epoch",
]
