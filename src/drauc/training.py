"""One alternating optimization loop for robust AUC training.

Each iteration samples a batch (with at least one positive forced in),
builds local worst-case examples by K-step projected gradient ascent on
the penalized objective, then applies simultaneous first-order updates
computed at the iteration-start parameters:

    alpha  <- clip(alpha + eta_alpha * mean d g / d alpha,  [-1, 1])
    lam_g  <- clip(lam_g - eta_lambda * (eps_g - mean cost_g), [0, lambda_max])
    theta  <- theta - eta_w * mean d g / d theta            (unconstrained)
    a, b   <- clip(a - eta_w * mean d g / d a, [0, 1])      (likewise b)

The rows are split into label groups, each with its own transport budget
eps_g and multiplier lam_g.  One ascent runs over the whole batch, each row
penalized by its group's multiplier; the objective carries
sum_g lam_g * eps_g, and each group present in the batch takes the
envelope step above on the mean cost of its own rows: when the realized
attack cost exceeds the budget, lam_g rises, reining the attack in, and
vice versa.  With the attack off (eta_z = 0) the batch is its own worst
case: each group present records mean_cost 0.0, and no costs, group masks
or penalty are computed, since g - lam * 0.0 is g bit for bit.

The variant only picks the groups, once, before the loop:
  df             one group: the whole batch against budget eps.
  da             two groups, positives and negatives, against
                 eps_pos = k*eps and eps_neg = (1 - k*p)*eps/(1 - p).  The
                 class-weighted parameter updates use the realized batch
                 class proportions, which makes them coincide with the
                 plain batch mean, computed in batch order so the
                 trajectory is bitwise reproducible.
  aucm-baseline  the df group with the attack disabled (eta_z = 0, eps = 0).

With eta_z = 0 and eps = 0 all three variants walk bitwise-identical
trajectories from the same seed: the attack leaves the batch untouched,
costs are exactly zero, and every reduction runs in batch order.

The loss's imbalance ratio is the training set's cached p_hat; batches
estimate expectations but do not redefine the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Dataset
from .losses import AuxParams, _FixedLabelLoss, auc_mann_whitney
from .model import ScoringModel, forward, vjp_params
from .robust import GROUP_SUFFIXES, AttackConfig, DualState, _BoundAscent

VARIANTS = ("df", "da", "aucm-baseline")


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "df"
    iters: int = 500            # outer iterations
    batch_size: int = 64
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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
        if not 0.0 <= self.lambda0 <= self.lambda_max:
            raise ValueError(f"lambda0 must lie in [0, lambda_max], got {self.lambda0}")


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
    if dataset.p_hat == 0.0:  # the cached share, not a recount
        raise ValueError("dataset has no positive examples")
    if batch_size > dataset.n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {dataset.n}")
    idx = rng.choice(dataset.n, size=batch_size, replace=False)
    if not (dataset.labels[idx] == 1).any():
        slot = int(rng.integers(batch_size))
        pos = dataset.pos_indices()
        idx[slot] = pos[int(rng.integers(pos.size))]
    return idx


def train(dataset: Dataset, cfg: TrainConfig, initial_model: ScoringModel) -> TrainState:
    """Train ``cfg.variant``: one loop over the label groups the variant picks.

    A batch that lacks a group skips that group's multiplier update for the
    iteration (the sampler guarantees positives; negatives can be absent in
    tiny datasets).
    """
    if dataset.n_pos == 0 or dataset.n_neg == 0:
        raise ValueError("training requires both classes")
    if initial_model.input_dim != dataset.d:
        raise ValueError("model input_dim does not match dataset dimension")

    p_hat = dataset.p_hat
    eta_z, eps = (0.0, 0.0) if cfg.variant == "aucm-baseline" else (cfg.eta_z, cfg.eps)
    if cfg.variant == "da":
        budgets = np.array(split_epsilon(eps, p_hat, cfg.k_split))
        label_group = np.array([1, 0])  # by label: negatives group 1, positives 0
    else:
        budgets = np.array([eps])
        label_group = np.array([0, 0])
    suffixes = GROUP_SUFFIXES[budgets.size]
    lam_keys = ["lam" + s for s in suffixes]
    cost_keys = ["mean_cost" + s for s in suffixes]
    lam = np.full(budgets.size, cfg.lambda0, dtype=np.float64)
    attack_cfg = AttackConfig(steps=cfg.steps, step_size=eta_z) if eta_z > 0.0 else None

    rng = np.random.default_rng(cfg.seed)
    # One model for the whole run; its params are the iterate, updated in
    # place.  Means are np.add.reduce(x) / n, the values ndarray.mean gives.
    model = replace(initial_model, params=initial_model.params.copy())
    theta = model.params
    n = cfg.batch_size
    a = b = alpha = 0.0
    history = []
    for t in range(1, cfg.iters + 1):
        idx = sample_batch(dataset, n, rng)
        x_batch = dataset.features[idx]
        y_batch = dataset.labels[idx]
        aux_t = AuxParams(a, b, alpha)
        loss = _FixedLabelLoss(aux_t, p_hat, y_batch)
        n_pos = int(np.count_nonzero(loss.pos))

        if attack_cfg is None:
            # Every cost is 0.0, and g - lam * 0.0 is g bit for bit.
            x_adv = x_batch
            seen = set(label_group[[n_pos < n, n_pos > 0]].tolist())  # groups present
            mean_costs = [0.0 if g in seen else None  # None: group absent
                          for g in range(budgets.size)]
        else:
            group = label_group[y_batch]
            lam_rows = lam[group]
            ascent = _BoundAscent(model, loss, x_batch, attack_cfg)
            _, x_adv = ascent.run(lam_rows)
            f_nom = ascent.f_start
            del ascent  # its buffers, before the next iteration binds its own
            costs = np.add.reduce((x_adv - x_batch) ** 2, axis=1)
            mean_costs = [float(np.add.reduce(c) / c.size) if c.size else None
                          for c in (costs[group == g] for g in range(budgets.size))]
        f_adv, cache = forward(model, x_adv)
        g_adv, d_f, d_a, d_b, d_alpha = loss.value_and_grads(f_adv)
        if attack_cfg is not None:
            g_adv = g_adv - lam_rows * costs

        objective = float(np.add.reduce(lam * budgets)) + float(np.add.reduce(g_adv) / n)

        if 0 < n_pos < n:
            if attack_cfg is None:
                f_nom = f_adv  # else the ascent's first pass scored x_batch
            batch_auc = auc_mann_whitney(f_nom[loss.pos], f_nom[~loss.pos])
        else:
            batch_auc = 0.5  # no ranked pairs in a single-class batch

        grad_theta = np.add.reduce(vjp_params(model, cache, d_f), axis=0) / n

        record = {
            "iteration": t,
            "objective": objective,
            "alpha": alpha,
            "a": a,
            "b": b,
            "batch_auc": batch_auc,
            "theta": theta.copy(),
        }
        record.update(zip(lam_keys, lam.tolist()))
        record.update(zip(cost_keys, mean_costs))
        history.append(record)

        # Simultaneous updates from the iteration-start values.
        # min/max give np.clip's values (NaN, -0.0) at a tenth of its cost.
        alpha = float(min(max(alpha + cfg.eta_alpha * (np.add.reduce(d_alpha) / n), -1.0), 1.0))
        for g, mean_cost in enumerate(mean_costs):
            if mean_cost is not None:
                lam[g] = min(max(lam[g] - cfg.eta_lambda * (budgets[g] - mean_cost),
                                 0.0), cfg.lambda_max)
        theta -= cfg.eta_w * grad_theta
        a = float(min(max(a - cfg.eta_w * (np.add.reduce(d_a) / n), 0.0), 1.0))
        b = float(min(max(b - cfg.eta_w * (np.add.reduce(d_b) / n), 0.0), 1.0))

    return TrainState(
        model=model,
        aux=AuxParams(a, b, alpha),
        dual=DualState(lambda_max=cfg.lambda_max, lam=tuple(lam.tolist()),
                       eps=tuple(budgets.tolist())),
        iteration=cfg.iters,
        history=history,
    )
