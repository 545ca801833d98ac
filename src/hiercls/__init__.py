"""Hierarchy-aware classification toolkit.

Build class taxonomies, train small classifiers under tree-structured losses
(hierarchical cross-entropy with exponential depth discounting, LCA-distance
soft labels), measure mistake severity against the tree, and sweep the loss
hyperparameters to trace top-1-error versus severity tradeoff curves.
"""

from .taxonomy import (HierarchyError, EdgeListParseError, CycleError,
                       UnknownNodeError, TaxonomyGraph, Taxonomy, load_edges,
                       prune_to_tree, load_taxonomy, apply_edits,
                       randomize_leaves)
from .losses import (EPS, hxe_loss, hxe_grad, soft_label_matrix,
                     soft_label_loss)
from .metrics import MetricReport, report_from_indices
from .data import (DataError, Dataset, SplitSpec, dataset_from_csv,
                   dataset_to_csv, split, synth_hierarchical)
from .model import (ClassifierModel, init_model, forward, AdamOptimizer,
                    TrainSchedule, TrainingDivergedError, train,
                    fit_polynomial, select_checkpoints, evaluate_model)
from .sweep import SweepConfig, parse_sweep_config, run_sweep

__version__ = "0.1.0"
