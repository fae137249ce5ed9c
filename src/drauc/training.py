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
eps_g and multiplier lam_g: one ascent penalizes each row by its group's
lam_g, the objective carries sum_g lam_g * eps_g, and each group present in
the batch steps lam_g on its rows' mean cost (0.0 with the attack off).

The variant only picks the groups, once, before the loop:
  df             one group: the whole batch against budget eps.
  da             positives and negatives, against eps_pos = k*eps and
                 eps_neg = (1 - k*p)*eps/(1 - p).
  aucm-baseline  the df group with the attack disabled (eta_z = 0, eps = 0).
With eta_z = 0 and eps = 0 the three walk bitwise-identical trajectories
from the same seed.  The loss's imbalance ratio is the training set's
cached p_hat, not the batch's; so the rows set by labels alone (w, l, 2w
and each row's group) are looked up by label in a two-entry table per run.
The ascent and the step after it are bound once per stack, to one set of
model passes and one loss, and rebound to each batch; the step reads the
ascent's last pass when every row's best iterate was its last.

Each run's history is a ``History`` of columns: k float64 values per
iteration for its k scalar fields, and P more for its parameters only if
the run keeps its iterates (``keep_thetas=True``).  Batches are drawn a
block of iterations at a time, which leaves each rng's draws in order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data import Dataset, check_integer, check_real, seeded_rng
from .losses import AuxParams, _FixedLabelLoss, auc_rows, label_rows
from .model import ScoringModel, _Passes
from .robust import _BoundAscent

# Key suffixes of each variant's label groups in checkpoints and history: one
# group for a single budget, (positives, negatives) for per-class budgets.
GROUP_SUFFIXES = {"df": ("",), "da": ("_pos", "_neg"), "aucm-baseline": ("",)}
VARIANTS = tuple(GROUP_SUFFIXES)
# Iterations whose batches are drawn together: each run's label rows are
# taken in one gather and every run's batch AUCs ranked in one sort.  The
# features are still taken per iteration, so a block's memory does not grow
# with the dimension.
BLOCK = 32


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
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        # A count above the largest array length fails by its name, not in NumPy.
        positive, most = (0, None, True), np.iinfo(np.intp).max
        ranges = {"iters": (1, most), "batch_size": (2, most), "steps": (1, most), "seed": (0,),
                  "eta_z": (0,), "eps": (0,), "eta_lambda": positive, "eta_w": positive,
                  "eta_alpha": positive, "lambda_max": positive, "lambda0": (0, self.lambda_max)}
        # Every numeric field, lambda0 last: lambda_max, its bound, is checked first.
        for f in sorted(fields(self)[1:], key=lambda f: f.name == "lambda0"):
            check = check_integer if type(f.default) is int else check_real
            check(f.name, getattr(self, f.name), *ranges.get(f.name, ()))


@dataclass
class DualState:
    """Multipliers and radii, one entry per label group."""

    lambda_max: float = 1e3
    lam: tuple = ()
    eps: tuple = ()

    def __post_init__(self):
        check_real("lambda_max", self.lambda_max, 0, strict=True)
        for i, v in enumerate(self.lam):
            check_real(f"lam[{i}]", v, 0, self.lambda_max)
        for i, v in enumerate(self.eps):
            check_real(f"eps[{i}]", v, 0)


@dataclass(eq=False)
class History:
    """One run's trace as columns: row t-1 of ``values`` holds iteration t's
    ``fields``, of ``thetas`` (None unless the run kept them) the iterate it
    started from.  A ``mean_cost*`` value is NaN where its label group was
    absent from the batch."""

    fields: tuple
    values: np.ndarray
    thetas: np.ndarray | None = None

    def column(self, key):
        if key not in self.fields:
            raise KeyError(f"no history field {key!r}; this run's fields are {self.fields}")
        return self.values[:, self.fields.index(key)]


@dataclass
class TrainState:
    model: ScoringModel
    aux: AuxParams
    dual: DualState
    history: History


def split_epsilon(eps: float, p_hat: float, k: float):
    """Per-class budgets (eps_pos, eps_neg) from an overall budget.

    eps_pos = k * eps and eps_neg = (1 - k*p) * eps / (1 - p), so
    p * eps_pos + (1 - p) * eps_neg = eps.
    """
    check_real("eps", eps, 0)
    check_real("k", k, 0.5, 1.5)
    check_real("p_hat", p_hat, 0, 1, strict=True)
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


def train(dataset: Dataset, cfg: TrainConfig, initial_model: ScoringModel, *,
          keep_thetas: bool = False) -> TrainState:
    """Train ``cfg.variant`` on ``dataset`` from ``initial_model``: the
    one-run call of ``train_stacked``."""
    return train_stacked([(dataset, cfg, initial_model)], keep_thetas=keep_thetas)[0]


_ATTACK = "attack (eta_z > 0 outside aucm-baseline)"


def _stack_shape(cfg, model):
    """What the runs of one stack must share: the shape of every stacked
    array, and whether the inner ascent runs."""
    return {"arch": model.arch, "input_dim": model.input_dim, "iters": cfg.iters,
            "batch_size": cfg.batch_size, "steps": cfg.steps,
            _ATTACK: cfg.variant != "aucm-baseline" and cfg.eta_z > 0.0}


def train_stacked(runs, *, keep_thetas: bool = False) -> list[TrainState]:
    """Train R runs, each a (dataset, cfg, initial model) triple, in one
    loop with a leading run axis on every array; one TrainState per run.
    Each history holds its run's iterates only given ``keep_thetas``.

    The runs share arch, input_dim, iters, batch_size and steps, and the
    attack (``eta_z`` > 0 outside ``aucm-baseline``) is on in all or none;
    any other mix raises a ValueError naming the field.  Each run's
    trajectory is bitwise that of ``train`` on it alone.  A batch that lacks
    a group (negatives, in tiny datasets) skips that group's lam update.
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
    datasets, cfgs, _ = zip(*runs)
    # Per run: its groups' budgets and, for labels 0 and 1, the loss's label
    # rows (w, l, 2w) and groups (negatives 1 under da), which each batch takes
    # by its labels; lam[r, g] is run r's multiplier for group g.
    budgets, tables = [], []
    group_of = np.array([[cfg.variant == "da", 0] for cfg in cfgs], dtype=np.intp)
    for dataset, cfg in zip(datasets, cfgs):
        eps, da = 0.0 if cfg.variant == "aucm-baseline" else cfg.eps, cfg.variant == "da"
        budgets.append(np.array(split_epsilon(eps, dataset.p_hat, cfg.k_split) if da else [eps]))
        tables.append(np.stack(label_rows(dataset.p_hat, np.arange(2))[1:]))
    # Float64 whatever the configs' types: an int lambda0 would otherwise
    # make lam an int array that truncates every multiplier update.
    lam = np.array([[cfg.lambda0] * 2 for cfg in cfgs], dtype=np.float64)
    lam_runs = [lam[r, : budget.size] for r, budget in enumerate(budgets)]  # views
    p_hat = [dataset.p_hat for dataset in datasets]
    run_ix = np.arange(R)[:, None]

    rngs = [seeded_rng(cfg.seed) for cfg in cfgs]
    # The stacked params are the iterates, updated in place.  Means are
    # np.add.reduce(x) / n, the values ndarray.mean gives; a stacked
    # reduction gives each run the bits of its own.
    T, theta = cfg0.iters, np.stack([m.params for _, _, m in runs])
    aux = [(0.0, 0.0, 0.0)] * R  # a, b, alpha per run
    # Each iteration's start, kept on request.
    thetas = np.empty((R, T, theta.shape[-1]), theta.dtype) if keep_thetas else None
    histories = []
    for r, cfg in enumerate(cfgs):
        suffixes = GROUP_SUFFIXES[cfg.variant]
        names = ("objective", "alpha", "a", "b", "batch_auc",
                 *("lam" + s for s in suffixes), *("mean_cost" + s for s in suffixes))
        histories.append(History(names, np.empty((T, len(names))),
                                 None if thetas is None else thetas[r]))
    x_batch = np.zeros((R, n, model0.input_dim))
    # One block's batches per run: the rows drawn, the label rows the loss
    # reads (pos, then w, l and 2w), the groups, and the scores the batch
    # AUC ranks; zeros before the first draw, as the loss is bound to them.
    idx, pos_block, group_block = (np.zeros((R, BLOCK, n), dtype=dtype)
                                   for dtype in (np.intp, bool, np.intp))
    terms_block, f_block = np.zeros((3, R, BLOCK, n)), np.empty((R, BLOCK, n))
    # A lone run's arrays and steps drop the run axis (NumPy's cost per call
    # grows with the axes); the outputs are read back as (R, n) rows.
    lone = (lambda a: a[0]) if R == 1 else (lambda a: a)
    params = lone(theta)
    model = replace(model0, params=params)
    passes = _Passes(model)  # the ascent's and the step's; params are views of theta
    xs = lone(x_batch)
    block_rows = [[lone(rows[:, j]) for rows in (pos_block, *terms_block)] for j in range(BLOCK)]
    loss = _FixedLabelLoss(lone(aux), lone(p_hat), rows=block_rows[0])  # rebound per iteration
    partials = np.empty((5, *xs.shape[:-1]))
    # A lone run's 0-d arrays (cheaper ufunc operands than floats), else columns.
    rates = np.array([[cfg.eta_w, cfg.eta_z] for cfg in cfgs], dtype=np.float64)
    eta_w, step_size = ((rates[0, 0, ...], rates[0, 1, ...]) if R == 1 else
                        (rates[:, :1], rates[:, 1:, None]))
    if attack:  # bound to the zero batch, as the loss to zero rows; rebound each iteration
        ascent = _BoundAscent(passes, loss, xs, cfg0.steps, step_size)
    for t in range(T):
        j = t % BLOCK
        if j == 0:  # the next block's batches, in each rng's draw order
            span = min(BLOCK, T - t)
            for r, (dataset, rng, table, groups) in enumerate(zip(datasets, rngs, tables,
                                                                  group_of)):
                for i in range(span):
                    idx[r, i] = sample_batch(dataset, n, rng)
                # In range, so "clip" clips nothing; each label is 0 or 1.
                y = dataset.labels.take(idx[r, :span], mode="clip")
                np.equal(y, 1, out=pos_block[r, :span])
                table.take(y, axis=1, out=terms_block[:, r, :span], mode="clip")
                groups.take(y, out=group_block[r, :span], mode="clip")
            counts = np.stack([(group_block == g).sum(-1) for g in (0, 1)], -1).tolist()
        if thetas is not None:
            thetas[:, t] = theta
        for r, dataset in enumerate(datasets):
            dataset.features.take(idx[r, j], axis=0, out=x_batch[r], mode="clip")
        group = group_block[:, j]
        loss.rebind(aux, block_rows[j])

        if attack:
            lam_rows = lone(lam[run_ix, group])
            ascent.rebind(xs)
            _, x_adv = ascent.run(lam_rows)
            f_nom = ascent.f_start
            costs = np.add.reduce((x_adv - xs) ** 2, axis=-1)
        else:
            x_adv = xs  # every cost is 0.0, and g - lam * 0.0 is g bit for bit
        # The ascent's last pass scored x_adv if every row's best iterate was its last.
        f_adv, cache = (passes.scored(x_adv) if attack and ascent.last_is_best
                        else passes.forward(x_adv))
        g_adv, d_f, *_ = loss.value_and_grads(f_adv, partials)
        if attack:
            g_adv -= lam_rows * costs
            costs = costs.reshape(R, n)
        else:
            f_nom = f_adv  # else the ascent's first pass scored x_batch
        f_block[:, j] = f_nom.reshape(R, n)
        # Each run's means of g and of dg/da, dg/db and dg/dalpha.
        means = (np.add.reduce(partials[:4], axis=-1) / n).reshape(4, R).T.tolist()
        grad_theta = np.add.reduce(passes.vjp_params(cache, d_f), axis=-2) / n

        for r, cfg in enumerate(cfgs):
            a, b, alpha = aux[r]
            g_mean, step_a, step_b, step_alpha = means[r]
            budget, lam_r = budgets[r], lam_runs[r]
            # None for a group absent from the batch; the attack off costs 0.0.
            mean_costs = [None if not count else
                          float(np.add.reduce(costs[r][group[r] == g]) / count) if attack else 0.0
                          for g, count in enumerate(counts[r][j][:budget.size])]
            # An absent group's None is stored as NaN; batch_auc is ranked
            # at the block's end.
            histories[r].values[t] = [float(np.add.reduce(lam_r * budget)) + g_mean, alpha,
                                      a, b, np.nan, *lam_r.tolist(), *mean_costs]

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
        if j == span - 1:  # the block's batch AUCs, every run's in one stacked sort
            aucs = auc_rows(f_block[:, :span].reshape(R * span, n),
                            pos_block[:, :span].reshape(R * span, n)).reshape(R, span)
            for h, auc in zip(histories, aucs):
                h.column("batch_auc")[t + 1 - span:t + 1] = auc

    return [TrainState(
        model=replace(m, params=theta[r].copy()),
        aux=AuxParams(*aux[r]),
        dual=DualState(lambda_max=cfg.lambda_max, lam=tuple(lam_runs[r].tolist()),
                       eps=tuple(budgets[r].tolist())),
        history=histories[r],
    ) for r, (_, cfg, m) in enumerate(runs)]
