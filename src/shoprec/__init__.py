"""Hybrid product recommender.

User-based collaborative filtering with a restricted cosine kernel and
purchase-frequency weighting, an implicit purchase-count vector model with a
popularity cold-start path, a purchase-order precedence filter, association
rule expansion over itemsets mined by tid-set intersection, and an offline
precision/recall harness.
"""

from .corpus import (
    Dataset,
    RatingRecord,
    SyntheticConfig,
    Transaction,
    generate_synthetic,
    load_dataset,
    save_ratings,
    save_transactions,
    split_users,
)
from .evaluate import (
    EvalReport,
    EvalRow,
    ExperimentConfig,
    precision_at_n,
    recall_at_n,
    run_experiment,
)
from .recommend import (
    Profile,
    Recommendation,
    Recommender,
    RecommenderConfig,
    cold_start,
)
from .rules import AssociationRule
from .similarity import MODES

# the data model, the engine and the protocol; the layer functions below the
# engine are internal, and are given only values that these names have checked
__all__ = [
    "AssociationRule",
    "Dataset",
    "EvalReport",
    "EvalRow",
    "ExperimentConfig",
    "MODES",
    "Profile",
    "RatingRecord",
    "Recommendation",
    "Recommender",
    "RecommenderConfig",
    "SyntheticConfig",
    "Transaction",
    "cold_start",
    "generate_synthetic",
    "load_dataset",
    "precision_at_n",
    "recall_at_n",
    "run_experiment",
    "save_ratings",
    "save_transactions",
    "split_users",
]

__version__ = "0.1.0"
