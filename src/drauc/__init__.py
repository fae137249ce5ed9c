"""Distributionally robust AUC optimization at desk scale.

An instance-wise minimax surrogate for the pairwise AUC risk, worst-case
inner attacks under a transport penalty, one training loop over
single-budget or per-class-budget label groups, and a verification suite
of closed forms, brute-force oracles, and finite-difference checks.
"""

__version__ = "0.1.0"

from .checkpoint import (CHECKPOINT_VERSION, Checkpoint, format_report,
                         load_checkpoint, parse_report, save_checkpoint)
from .data import Dataset, corrupt, gen_synthetic, load_csv, make_long_tailed, save_csv
from .errors import CheckpointError, ConfigError, DataFormatError, DraucError
from .gradcheck import GradCheckReport, grad_check
from .losses import (AuxParams, auc_mann_whitney, closed_form_aux, pairwise_sq_risk,
                     saddle_value, surrogate_loss, surrogate_loss_grads)
from .model import (ScoringModel, forward, init_model, param_count, parse_arch, score,
                    vjp_input, vjp_params)
from .robust import (AttackConfig, BarycenterAttack, DualCurve, DualState,
                     attack_batch, barycenter_attack, brute_force_worst_case,
                     dual_curve, estimate_robust_auc, min_cost_flip_search,
                     robust_surrogate_exact_1d)
from .training import (TrainConfig, TrainState, sample_batch, split_epsilon, train,
                       train_stacked)

__all__ = [
    "CHECKPOINT_VERSION", "Checkpoint", "format_report", "load_checkpoint",
    "parse_report", "save_checkpoint",
    "Dataset", "corrupt", "gen_synthetic", "load_csv", "make_long_tailed",
    "save_csv",
    "CheckpointError", "ConfigError", "DataFormatError", "DraucError",
    "GradCheckReport", "grad_check",
    "AuxParams", "auc_mann_whitney", "closed_form_aux", "pairwise_sq_risk",
    "saddle_value", "surrogate_loss", "surrogate_loss_grads",
    "ScoringModel", "forward", "init_model", "param_count", "parse_arch", "score",
    "vjp_input", "vjp_params",
    "AttackConfig", "BarycenterAttack", "DualCurve", "DualState",
    "attack_batch", "barycenter_attack", "brute_force_worst_case", "dual_curve",
    "estimate_robust_auc", "min_cost_flip_search",
    "robust_surrogate_exact_1d",
    "TrainConfig", "TrainState", "sample_batch", "split_epsilon", "train",
    "train_stacked",
]
