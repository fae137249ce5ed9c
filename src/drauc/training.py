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

``train_stacked`` runs many such runs of one shape in this one loop, with
a leading run axis on every array, each run bitwise as it trains alone;
``train`` is its one-run call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Dataset
from .losses import AuxParams, _FixedLabelLoss, auc_mann_whitney
from .model import ScoringModel, forward, vjp_params
from .robust import GROUP_SUFFIXES, DualState, _BoundAscent

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
    """Train ``cfg.variant`` on ``dataset`` from ``initial_model``: the
    one-run call of ``train_stacked``."""
    return train_stacked([(dataset, cfg, initial_model)])[0]


_ATTACK = "attack (eta_z > 0 outside aucm-baseline)"


def _stack_shape(cfg, model):
    """What the runs of one stack must share: the shape of every stacked
    array, and whether the inner ascent runs."""
    return {"arch": model.arch_descriptor, "input_dim": model.input_dim, "iters": cfg.iters,
            "batch_size": cfg.batch_size, "steps": cfg.steps,
            _ATTACK: cfg.variant != "aucm-baseline" and cfg.eta_z > 0.0}


def train_stacked(runs) -> list[TrainState]:
    """Train R runs, each a (dataset, cfg, initial model) triple, in one
    loop over the label groups each run's variant picks, with a leading run
    axis on every array; returns one TrainState per run.

    The runs share arch, input_dim, iters, batch_size and steps, and the
    attack (``eta_z`` > 0 outside ``aucm-baseline``) is on in all of them
    or in none; any other mix raises a ValueError naming the field.  All
    else is per run: dataset, seed and rng, parameters, aux, multipliers,
    variant, eps, k_split, learning rates, lambda0 and lambda_max.  Each
    run's trajectory is bitwise that of ``train`` on it alone: every
    product, reduction and elementwise pass is its own slice of the
    stacked one, and the scalar updates run per run.

    A batch that lacks a group skips that group's multiplier update for the
    iteration (the sampler guarantees positives; negatives can be absent in
    tiny datasets).
    """
    runs = list(runs)
    if not runs:
        raise ValueError("runs must hold at least one (dataset, cfg, model) run")
    _, cfg0, model0 = runs[0]
    shape = _stack_shape(cfg0, model0)
    for i, (dataset, cfg, model) in enumerate(runs):
        if dataset.n_pos == 0 or dataset.n_neg == 0:
            raise ValueError("training requires both classes")
        if model.input_dim != dataset.d:
            raise ValueError("model input_dim does not match dataset dimension")
        if model.params.ndim != 1:
            raise ValueError(f"run {i}: params must be one model's (P,) vector")
        for name, value in _stack_shape(cfg, model).items():
            if value != shape[name]:
                raise ValueError(f"stacked runs must share {name}: run 0 has "
                                 f"{shape[name]!r}, run {i} has {value!r}")

    R, n, attack = len(runs), cfg0.batch_size, shape[_ATTACK]
    datasets = [dataset for dataset, _, _ in runs]
    cfgs = [cfg for _, cfg, _ in runs]
    # Per run: its groups' budgets and history keys, and the group of each
    # label (negatives group 1, positives 0 under da); lam[r, g] is run r's
    # multiplier for group g, and a df run leaves column 1 unread.
    budgets, lam_keys, cost_keys = [], [], []
    label_group = np.zeros((R, 2), dtype=np.intp)
    for r, (dataset, cfg) in enumerate(zip(datasets, cfgs)):
        eps = 0.0 if cfg.variant == "aucm-baseline" else cfg.eps
        if cfg.variant == "da":
            budgets.append(np.array(split_epsilon(eps, dataset.p_hat, cfg.k_split)))
            label_group[r, 0] = 1
        else:
            budgets.append(np.array([eps]))
        suffixes = GROUP_SUFFIXES[budgets[-1].size]
        lam_keys.append(["lam" + s for s in suffixes])
        cost_keys.append(["mean_cost" + s for s in suffixes])
    group_of = label_group.tolist()
    # Float64 whatever the configs' types: an int lambda0 would otherwise
    # make lam an int array that truncates every multiplier update.
    lam = np.array([[cfg.lambda0] * 2 for cfg in cfgs], dtype=np.float64)
    lam_runs = [lam[r, : budget.size] for r, budget in enumerate(budgets)]  # views
    p_hat = [dataset.p_hat for dataset in datasets]
    run_ix = np.arange(R)[:, None]

    rngs = [np.random.default_rng(cfg.seed) for cfg in cfgs]
    # The stacked params are the iterates, updated in place.  Means are
    # np.add.reduce(x) / n, the values ndarray.mean gives; a stacked
    # reduction gives each run the bits of its own.
    theta = np.stack([m.params for _, _, m in runs])
    theta_runs = list(theta)  # views
    aux = [(0.0, 0.0, 0.0)] * R  # a, b, alpha per run
    histories = [[] for _ in runs]
    x_batch = np.empty((R, n, model0.input_dim))
    y_batch = np.empty((R, n), dtype=datasets[0].labels.dtype)
    # The passes and the loss take a lone run's arrays and terms without
    # the run axis, and its steps as floats, since NumPy's cost per call
    # grows with the number of axes: kept in the (1, ...) layout, a lone
    # run of the benchmark's train-aucm-long config trains about 11%
    # slower, and of train-da-ref's about 5%.  Their outputs are read back
    # as (R, n) rows.
    lone = (lambda a: a[0]) if R == 1 else (lambda a: a)
    params = lone(theta)
    model = replace(model0, params=params)
    xs, ys = lone(x_batch), lone(y_batch)
    if R == 1:
        eta_w, step_size = float(cfg0.eta_w), float(cfg0.eta_z)
    else:  # (R, 1) and (R, 1, 1) columns
        eta_w = np.array([[cfg.eta_w] for cfg in cfgs], dtype=np.float64)
        step_size = np.array([[[cfg.eta_z]] for cfg in cfgs], dtype=np.float64)
    for t in range(1, cfg0.iters + 1):
        for r, (dataset, rng) in enumerate(zip(datasets, rngs)):
            idx = sample_batch(dataset, n, rng)
            dataset.features.take(idx, axis=0, out=x_batch[r])
            dataset.labels.take(idx, out=y_batch[r])
        loss = _FixedLabelLoss(lone(aux), lone(p_hat), ys)
        pos_rows = loss.pos.reshape(R, n)

        if attack:
            group = label_group[run_ix, y_batch]
            lam_rows = lone(lam[run_ix, group])
            ascent = _BoundAscent(model, loss, xs, cfg0.steps, step_size)
            _, x_adv = ascent.run(lam_rows)
            f_nom = ascent.f_start
            del ascent  # its buffers, before the next iteration binds its own
            costs = np.add.reduce((x_adv - xs) ** 2, axis=-1)
        else:
            x_adv = xs  # every cost is 0.0, and g - lam * 0.0 is g bit for bit
        f_adv, cache = forward(model, x_adv)
        g_adv, d_f, d_a, d_b, d_alpha = loss.value_and_grads(f_adv)
        if attack:
            g_adv = g_adv - lam_rows * costs
            costs = costs.reshape(R, n)
        else:
            f_nom = f_adv  # else the ascent's first pass scored x_batch
        f_nom = f_nom.reshape(R, n)
        # Each run's means of g and of dg/da, dg/db and dg/dalpha.
        means = (np.add.reduce([g_adv, d_a, d_b, d_alpha], axis=-1) / n).reshape(4, R).T.tolist()
        grad_theta = np.add.reduce(vjp_params(model, cache, d_f), axis=-2) / n

        for r, cfg in enumerate(cfgs):
            a, b, alpha = aux[r]
            g_mean, step_a, step_b, step_alpha = means[r]
            budget, lam_r, pos = budgets[r], lam_runs[r], pos_rows[r]
            n_pos = int(np.count_nonzero(pos))
            if attack:
                mean_costs = [float(np.add.reduce(c) / c.size) if c.size else None
                              for c in (costs[r][group[r] == g] for g in range(budget.size))]
            else:
                seen = {group_of[r][0] if n_pos < n else None,  # groups present
                        group_of[r][1] if n_pos > 0 else None}
                mean_costs = [0.0 if g in seen else None  # None: group absent
                              for g in range(budget.size)]
            if 0 < n_pos < n:
                f_r = f_nom[r]
                batch_auc = auc_mann_whitney(f_r[pos], f_r[~pos])
            else:
                batch_auc = 0.5  # no ranked pairs in a single-class batch
            record = {
                "iteration": t,
                "objective": float(np.add.reduce(lam_r * budget)) + g_mean,
                "alpha": alpha,
                "a": a,
                "b": b,
                "batch_auc": batch_auc,
                "theta": theta_runs[r].copy(),
            }
            record.update(zip(lam_keys[r], lam_r.tolist()))
            record.update(zip(cost_keys[r], mean_costs))
            histories[r].append(record)

            # Simultaneous updates from the iteration-start values.
            # min/max give np.clip's values (NaN, -0.0) at a tenth of its cost.
            for g, mean_cost in enumerate(mean_costs):
                if mean_cost is not None:
                    lam_r[g] = min(max(lam_r[g] - cfg.eta_lambda * (budget[g] - mean_cost),
                                       0.0), cfg.lambda_max)
            aux[r] = (float(min(max(a - cfg.eta_w * step_a, 0.0), 1.0)),
                      float(min(max(b - cfg.eta_w * step_b, 0.0), 1.0)),
                      float(min(max(alpha + cfg.eta_alpha * step_alpha, -1.0), 1.0)))
        params -= eta_w * grad_theta

    return [TrainState(
        model=replace(m, params=theta_runs[r].copy()),
        aux=AuxParams(*aux[r]),
        dual=DualState(lambda_max=cfg.lambda_max, lam=tuple(lam_runs[r].tolist()),
                       eps=tuple(budgets[r].tolist())),
        iteration=cfg.iters,
        history=histories[r],
    ) for r, (_, cfg, m) in enumerate(runs)]
