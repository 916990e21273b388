"""Roadside radio-link simulator with vehicle detection and classification.

The top level holds the error classes and the names of the README's library
example; everything else is imported from its own module.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    EstimationError,
    InputDataError,
    RadioBarrierError,
    TrainingError,
)
from .config import default_config
from .learn import KnnClassifier, cross_validate
from .pipeline import detect_dataset, feature_matrix, featurize_records
from .simulator import generate_dataset
