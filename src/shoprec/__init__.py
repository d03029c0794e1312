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
from .implicit_vsm import build_iif, new_user_scores
from .recommend import (
    Profile,
    Recommendation,
    Recommender,
    RecommenderConfig,
)
from .rules import AssociationRule, FrequentItemset, fp_growth, generate_rules
from .sequence import PrecedenceIndex, bought_after, build_precedence_index
from .similarity import MODES

__all__ = [
    "AssociationRule",
    "Dataset",
    "EvalReport",
    "EvalRow",
    "ExperimentConfig",
    "FrequentItemset",
    "MODES",
    "PrecedenceIndex",
    "Profile",
    "RatingRecord",
    "Recommendation",
    "Recommender",
    "RecommenderConfig",
    "SyntheticConfig",
    "Transaction",
    "bought_after",
    "build_iif",
    "build_precedence_index",
    "fp_growth",
    "generate_rules",
    "generate_synthetic",
    "load_dataset",
    "new_user_scores",
    "precision_at_n",
    "recall_at_n",
    "run_experiment",
    "save_ratings",
    "save_transactions",
    "split_users",
]

__version__ = "0.1.0"
