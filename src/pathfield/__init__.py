"""Continuous multi-path pose representation, losses, metrics, and trainer.

The top level holds what the experiment scripts use; everything else is
imported from its submodule (`pathfield.paths`, `pathfield.metrics`, ...).
"""

from .dataio import SyntheticConfig, gen_dataset
from .metrics import evaluate_dataset
from .neural_field import HeadConfig
from .paths import max_second_difference
from .trainer import TrainConfig, fit, predict

__version__ = "0.1.0"
