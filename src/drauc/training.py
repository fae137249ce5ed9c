"""Alternating optimization loops for robust AUC training.

Each iteration samples a batch (with at least one positive forced in),
builds local worst-case examples by K-step projected gradient ascent on
the penalized objective, then applies simultaneous first-order updates
computed at the iteration-start parameters:

    alpha  <- clip(alpha + eta_alpha * mean d g / d alpha,  [-1, 1])
    lam    <- clip(lam - eta_lambda * (eps - mean cost),    [0, lambda_max])
    theta  <- theta - eta_w * mean d g / d theta            (unconstrained)
    a, b   <- clip(a - eta_w * mean d g / d a, [0, 1])      (likewise b)

The multiplier step is the envelope derivative of lam*eps + mean(phi_lam):
when the realized attack cost exceeds the budget, lam rises, reining the
attack in, and vice versa.

Variants:
  df             one budget eps and one multiplier for the whole batch.
  da             per-class multipliers: one ascent over the whole batch,
                 with lam_pos on the positive rows against budget
                 eps_pos = k*eps and lam_neg on the negative rows against
                 eps_neg = (1 - k*p)*eps/(1 - p).  The class-weighted
                 parameter updates use the realized batch class
                 proportions, which makes them coincide with the plain
                 batch mean, computed in batch order so the trajectory is
                 bitwise reproducible.
  aucm-baseline  the df loop with the attack disabled (eta_z = 0, eps = 0).

With eta_z = 0 and eps = 0 all three variants walk bitwise-identical
trajectories from the same seed: the attack leaves the batch untouched,
costs are exactly zero, and every reduction runs in batch order.

The loss's imbalance ratio is the training set's cached p_hat; batches
estimate expectations but do not redefine the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .losses import AuxParams, auc_mann_whitney, surrogate_loss, surrogate_loss_grads
from .model import ScoringModel, forward, score, vjp_params
from .robust import AttackConfig, DualState, attack_batch

VARIANTS = ("df", "da", "aucm-baseline")


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "df"
    iters: int = 500            # outer iterations
    batch_size: int = 32
    eta_z: float = 0.05         # inner ascent step; 0 disables the attack
    eta_lambda: float = 0.1
    eta_w: float = 0.1
    eta_alpha: float = 0.1
    steps: int = 10             # inner ascent steps per batch
    eps: float = 0.0
    k_split: float = 1.0        # da only: eps_pos = k_split * eps
    lambda0: float = 1.0
    seed: int = 0
    lambda_max: float = 1e3
    lr_decay: bool = False      # x0.1 at 50% and 75% of iters when enabled

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        for name in ("eta_lambda", "eta_w", "eta_alpha"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.eta_z < 0.0:
            raise ValueError("eta_z must be >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.eps < 0.0:
            raise ValueError("eps must be >= 0")
        if self.lambda_max <= 0.0:
            raise ValueError("lambda_max must be > 0")


@dataclass
class TrainState:
    model: ScoringModel
    aux: AuxParams
    dual: DualState
    iteration: int
    history: list = field(default_factory=list)


def split_epsilon(eps: float, p_hat: float, k: float):
    """Per-class budgets (eps_pos, eps_neg) from an overall budget.

    eps_pos = k * eps and eps_neg = (1 - k*p) * eps / (1 - p), so
    p * eps_pos + (1 - p) * eps_neg = eps.
    """
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    if not 0.5 <= k <= 1.5:
        raise ValueError(f"k must lie in [0.5, 1.5], got {k}")
    if k * p_hat >= 1.0:
        raise ValueError(f"k * p_hat must be < 1, got {k * p_hat}")
    eps_pos = k * eps
    eps_neg = (1.0 - k * p_hat) * eps / (1.0 - p_hat)
    return eps_pos, eps_neg


def sample_batch(dataset: Dataset, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement with a positive forced in.

    If the draw contains no positive, one uniformly chosen slot is replaced
    by a uniformly chosen positive example.
    """
    if dataset.n_pos == 0:
        raise ValueError("dataset has no positive examples")
    if batch_size > dataset.n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {dataset.n}")
    idx = rng.choice(dataset.n, size=batch_size, replace=False)
    if not (dataset.labels[idx] == 1).any():
        slot = int(rng.integers(batch_size))
        pick = int(rng.integers(dataset.n_pos))
        idx[slot] = dataset.pos_indices()[pick]
    return idx


def _decay_factor(t: int, total: int) -> float:
    if t > 0.75 * total:
        return 0.01
    if t > 0.5 * total:
        return 0.1
    return 1.0


def _run_loop(dataset: Dataset, cfg: TrainConfig, initial_model: ScoringModel,
              per_class: bool, eta_z: float, eps: float) -> TrainState:
    if dataset.n_pos == 0 or dataset.n_neg == 0:
        raise ValueError("training requires both classes")
    if initial_model.input_dim != dataset.d:
        raise ValueError("model input_dim does not match dataset dimension")

    rng = np.random.default_rng(cfg.seed)
    theta = initial_model.params.copy()
    a = b = alpha = 0.0
    p_hat = dataset.p_hat
    if per_class:
        eps_pos, eps_neg = split_epsilon(eps, p_hat, cfg.k_split)
        lam_pos = lam_neg = cfg.lambda0
    else:
        lam = cfg.lambda0
    attack_cfg = AttackConfig(steps=cfg.steps, step_size=eta_z) if eta_z > 0.0 else None

    def lam_step(lam_c, eps_c, costs_c):
        return float(np.clip(lam_c - cfg.eta_lambda * (eps_c - costs_c.mean()),
                             0.0, cfg.lambda_max))

    history = []
    for t in range(1, cfg.iters + 1):
        decay = _decay_factor(t, cfg.iters) if cfg.lr_decay else 1.0
        eta_w = cfg.eta_w * decay
        eta_alpha = cfg.eta_alpha * decay

        idx = sample_batch(dataset, cfg.batch_size, rng)
        x_batch = dataset.features[idx]
        y_batch = dataset.labels[idx]
        model_t = replace(initial_model, params=theta)
        aux_t = AuxParams(a, b, alpha)
        pos_mask = y_batch == 1

        lam_rows = np.where(pos_mask, lam_pos, lam_neg) if per_class else lam
        x_adv = x_batch
        if attack_cfg is not None:
            _, x_adv = attack_batch(model_t, aux_t, p_hat, lam_rows,
                                    x_batch, y_batch, attack_cfg)

        costs = ((x_adv - x_batch) ** 2).sum(axis=1)
        f_adv, cache = forward(model_t, x_adv)
        g_adv = surrogate_loss(aux_t, p_hat, f_adv, y_batch)
        d_f, d_a, d_b, d_alpha = surrogate_loss_grads(aux_t, p_hat, f_adv, y_batch)

        budget_term = lam_pos * eps_pos + lam_neg * eps_neg if per_class else lam * eps
        objective = budget_term + float((g_adv - lam_rows * costs).mean())

        f_nom = f_adv if attack_cfg is None else score(model_t, x_batch)
        if pos_mask.any() and (~pos_mask).any():
            batch_auc = auc_mann_whitney(f_nom[pos_mask], f_nom[~pos_mask])
        else:
            batch_auc = 0.5  # no ranked pairs in a single-class batch

        grad_theta = vjp_params(model_t, cache, d_f).mean(axis=0)

        record = {
            "iteration": t,
            "objective": objective,
            "alpha": alpha,
            "a": a,
            "b": b,
            "batch_auc": batch_auc,
            "theta": theta.copy(),
        }
        if per_class:
            record["lam_pos"], record["lam_neg"] = lam_pos, lam_neg
            record["mean_cost_pos"] = float(costs[pos_mask].mean()) if pos_mask.any() else None
            record["mean_cost_neg"] = float(costs[~pos_mask].mean()) if (~pos_mask).any() else None
        else:
            record["lam"] = lam
            record["mean_cost"] = float(costs.mean())
        history.append(record)

        # Simultaneous updates from the iteration-start values.
        alpha = float(np.clip(alpha + eta_alpha * d_alpha.mean(), -1.0, 1.0))
        if per_class:
            if pos_mask.any():
                lam_pos = lam_step(lam_pos, eps_pos, costs[pos_mask])
            if (~pos_mask).any():
                lam_neg = lam_step(lam_neg, eps_neg, costs[~pos_mask])
        else:
            lam = lam_step(lam, eps, costs)
        theta = theta - eta_w * grad_theta
        a = float(np.clip(a - eta_w * d_a.mean(), 0.0, 1.0))
        b = float(np.clip(b - eta_w * d_b.mean(), 0.0, 1.0))

    if per_class:
        dual = DualState(lambda_max=cfg.lambda_max, lam_pos=lam_pos,
                         lam_neg=lam_neg, eps_pos=eps_pos, eps_neg=eps_neg)
    else:
        dual = DualState(lambda_max=cfg.lambda_max, lam=lam, eps=eps)
    return TrainState(
        model=replace(initial_model, params=theta),
        aux=AuxParams(a, b, alpha),
        dual=dual,
        iteration=cfg.iters,
        history=history,
    )


def train_df(dataset: Dataset, cfg: TrainConfig, initial_model: ScoringModel) -> TrainState:
    """Single-budget robust training loop."""
    if cfg.variant != "df":
        raise ValueError(f"train_df requires variant 'df', got {cfg.variant!r}")
    return _run_loop(dataset, cfg, initial_model, per_class=False,
                     eta_z=cfg.eta_z, eps=cfg.eps)


def train_da(dataset: Dataset, cfg: TrainConfig, initial_model: ScoringModel) -> TrainState:
    """Per-class-budget robust training loop.

    A batch that lacks one class skips that class's multiplier update for
    the iteration (the sampler guarantees positives; negatives can be
    absent in tiny datasets).
    """
    if cfg.variant != "da":
        raise ValueError(f"train_da requires variant 'da', got {cfg.variant!r}")
    return _run_loop(dataset, cfg, initial_model, per_class=True,
                     eta_z=cfg.eta_z, eps=cfg.eps)


def train_aucm_baseline(dataset: Dataset, cfg: TrainConfig,
                        initial_model: ScoringModel) -> TrainState:
    """The df loop with no inner maximization (eta_z = 0, eps = 0)."""
    if cfg.variant != "aucm-baseline":
        raise ValueError(
            f"train_aucm_baseline requires variant 'aucm-baseline', got {cfg.variant!r}")
    return _run_loop(dataset, cfg, initial_model, per_class=False,
                     eta_z=0.0, eps=0.0)
