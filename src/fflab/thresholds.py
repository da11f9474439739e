"""Loss thresholds: one formula for theta per layer and epoch.

    theta_l(e) = ramp(e) * (k_l * width_l)
    ramp(e)    = k_start + (k_end - k_start) * (min(e, R) / R)

With the default ramp (``k_start = k_end = 1``) ``ramp`` is exactly 1.0,
so a constant k (``k_per_layer = (k,) * depth``) and a per-layer
("pyramidal") vector keep ``k_l * width_l`` to the bit. The config keys
are these inputs: ``threshold.k`` (one k, broadcast to the depth, or one
per layer), ``threshold.k_start``, ``threshold.k_end`` and
``threshold.ramp_epochs``; ``config.threshold_strategy`` builds a
:class:`Thresholds` from them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class Thresholds:
    k_per_layer: tuple
    k_start: float = 1.0
    k_end: float = 1.0
    ramp_epochs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "k_per_layer", tuple(float(k) for k in self.k_per_layer))
        if not self.k_per_layer:
            raise UsageError("thresholds need at least one k")
        if any(k <= 0 for k in self.k_per_layer):
            raise UsageError(f"threshold factors must be > 0, got {self.k_per_layer}")
        if self.k_start <= 0 or self.k_end <= 0:
            raise UsageError("threshold k_start and k_end must be > 0")
        if self.ramp_epochs < 1:
            raise UsageError("ramp_epochs must be >= 1")

    def thetas(self, widths, epoch):
        """theta for every layer at one epoch. Pure; identical inputs, identical thetas."""
        if len(widths) != len(self.k_per_layer):
            raise UsageError(
                f"{len(widths)} layer widths for {len(self.k_per_layer)} threshold factors"
            )
        if any(w < 1 for w in widths):
            raise UsageError(f"layer widths must be >= 1, got {list(widths)}")
        frac = min(epoch, self.ramp_epochs) / self.ramp_epochs
        ramp = self.k_start + (self.k_end - self.k_start) * frac
        return ramp * (np.array(self.k_per_layer) * np.array(widths, dtype=np.float64))
