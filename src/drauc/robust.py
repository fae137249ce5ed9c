"""Worst-case inner maximization and its verification oracles.

The robust surrogate of an example z = (x, y) under multiplier lam >= 0 is

    phi_lam(z) = max_{x' in [0,1]^d} [ g(f(x'), y) - lam * ||x - x'||^2 ],

computed here by K-step projected gradient ascent started at x' = x.  The
returned value is the best penalized objective seen along the iterates
(including the start), so phi_lam(z) >= g(z) holds for every lam, and the
value collapses to g(z) as lam grows.  Perturbations never change labels:
the transport cost across labels is infinite.  An ascent binds its K+1
passes once per batch (the model's views and buffers, the loss's per-row
terms and the iterates), and skips the penalty's work where the penalty
is +0.0: with every multiplier 0, and at the start (``attack_batch``).
So its first step, up to the first iterate's value and input gradient,
reads no multiplier: it runs once per batch, and each multiplier's ascent
continues from there.  The robust-AUC bisection runs its 62 multipliers
from one such start.

Desk-scale oracles back the solver.  The three 1-D ones read one
per-point frontier: the undominated (destination, squared cost, loss)
triples of a point that may move to a grid point or stay put.

  * an exact 1-D maximizer over a dense grid (plus the point itself),
  * the dual curve lam*eps + mean(phi_lam) on a multiplier grid, d = 1,
  * a brute-force search for the worst distribution of a tiny 1-D dataset
    under a mean-squared-transport budget, restricted to one destination
    per point and exact up to grid resolution: the Pareto frontiers of
    joint moves for the two halves of the points, built in row blocks that
    drop entries below a sampled lower envelope before any sort, are merged
    by a searchsorted pass instead of raw enumeration,
  * the closed-form barycenter attack that collapses two point clusters
    onto their mass-weighted mean, driving strict AUC to zero at cost
    p*(1-p)*(x_pos - x_neg)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import AuxParams, _FixedLabelLoss, auc_mann_whitney, surrogate_loss
from .model import ScoringModel, _Passes, score


@dataclass(frozen=True)
class AttackConfig:
    """Inner-ascent settings; the feasible box is always [0,1]^d."""

    steps: int = 10
    step_size: float = 0.05

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")


# Key suffix of each label group in checkpoints and training history: one
# group for a single budget, (positives, negatives) for per-class budgets.
GROUP_SUFFIXES = {1: ("",), 2: ("_pos", "_neg")}


@dataclass
class DualState:
    """Multipliers and radii, one entry per label group."""

    lambda_max: float = 1e3
    lam: tuple = ()
    eps: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.lambda_max < math.inf:
            raise ValueError(f"lambda_max must be positive and finite, got {self.lambda_max}")
        for i, v in enumerate(self.lam):
            if not 0.0 <= v <= self.lambda_max:
                raise ValueError(f"lam[{i}]={v} outside [0, {self.lambda_max}]")
        for i, v in enumerate(self.eps):
            if not 0.0 <= v < math.inf:
                raise ValueError(f"eps[{i}] must be finite and >= 0, got {v}")


def attack_batch(model: ScoringModel, aux: AuxParams, p_hat: float, lam,
                 x_batch: np.ndarray, y_batch, cfg: AttackConfig):
    """Ascent on the penalized objective under one multiplier ``lam`` or
    one per row.  The forward pass at an iterate gives both its value and
    the next step's gradient: K+1 passes in all.

    The call binds the ascent once (``_BoundAscent``): the model's views
    in pass shape and its pass buffers (``model._Passes``), the loss's
    per-row terms, and (d, n) arrays for the start, the iterate, the best
    iterate, the step and its square, so each elementwise pass runs along
    the batch and every ufunc writes in place.  One f - c serves the value
    and dg/df, and the last pass takes no slope.  A row's squared cost
    sums its d terms in sequence, as a row-major sum does for d < 8 (NumPy
    sums longer contiguous rows pairwise).

    The penalty's work (the step x - x0, its cost, ``vals -= lam*cost``
    and ``grad -= 2*lam*dx``) is skipped where it changes no bit: when
    every multiplier is 0, and at the start, where every cost is +0.0.
    There lam*cost is +0.0 (or -0.0 under a multiplier of -0.0), and
    v - (+-0.0) is v for every value v, since no value is -0.0:
    w*(f - c)**2 is never -0.0, and x - x is +0.0.  grad - 2*lam*dx then
    differs from grad at most in the sign of a zero; x + (+-0.0) is x for
    every iterate x in [0, 1] but -0.0, and np.maximum(0.0, .) maps -0.0
    to +0.0 either way.  So the first step, up to the first iterate's
    unpenalized value and its input gradient, does not read ``lam``: the
    bound ascent computes it once per batch, and each multiplier's ascent
    continues from there, bit for bit what a fresh call gives.

    Returns (values, x_adv) where each row of the row-major (n, d) array
    x_adv is the best iterate seen for that example (the start point
    counts, so values >= g(z)).
    """
    x0 = np.asarray(x_batch, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if lam.shape not in ((), x0.shape[:1]) or not ((0.0 <= lam) & (lam < math.inf)).all():
        raise ValueError(f"lam must be finite and >= 0, one value or one per row, got {lam}")
    return _bind_ascent(model, aux, p_hat, x0, y_batch, cfg).run(lam)


def _bind_ascent(model, aux, p_hat, x0, y_batch, cfg, reuse=False):
    """The ascent bound over a float batch x0 in [0, 1]^d and its labels
    (one label or one per row)."""
    if x0.min() < 0.0 or x0.max() > 1.0:
        raise ValueError("attack start must lie in [0, 1]^d")
    loss = _FixedLabelLoss(aux, p_hat, np.broadcast_to(np.asarray(y_batch), (x0.shape[0],)))
    return _BoundAscent(model, loss, x0, cfg, reuse)


class _BoundAscent:
    """The K-step ascent over one batch, bound once for any number of
    multipliers (``attack_batch``).

    Binding runs everything that does not read the multiplier: pass 0 at
    the start (its scores, value and input gradient), the step to the
    first iterate x1 and its clip, and pass 1 (x1's scores, unpenalized
    value and, for K > 1, input gradient).  ``run(lam)`` continues from
    pass 1.  With ``reuse``, each run copies the start into buffers of its
    own, so binding once and running many multipliers gives each the bits
    of its own call; without it, the one run takes the start's arrays as
    its buffers, as a single ascent call would.  ``f_start`` holds the
    start's scores.
    """

    __slots__ = ("passes", "loss", "steps", "step_size", "reuse", "start", "f_start",
                 "val0", "x1", "vals1", "grad1", "f_c", "lf", "d_f", "step")

    def __init__(self, model, loss, x0, cfg, reuse=False):
        n = x0.shape[0]
        self.passes = passes = _Passes(model)
        self.loss, self.steps, self.step_size = loss, cfg.steps, cfg.step_size
        self.reuse = reuse
        self.start = start = x0.T.copy()
        self.f_c, self.lf, self.d_f = f_c, lf, d_f = np.empty((3, n))
        self.step = np.empty_like(start)
        # Pass 0: the start is the first candidate, at cost +0.0.
        f = passes.scores(start)
        self.f_start = f.copy()
        self.val0 = loss.value(f, None, f_c, lf)
        grad = passes.input_grad(loss.d_f(f_c, d_f), passes.hidden, passes.output_slope())
        grad *= cfg.step_size
        self.x1 = x1 = start + grad
        np.minimum(np.maximum(0.0, x1, out=x1), 1.0, out=x1)
        # Pass 1, unpenalized.
        self.vals1 = loss.value(passes.scores(x1), None, f_c, lf)
        self.grad1 = None
        if cfg.steps > 1:
            # A pass buffer, which a single run reads before the next pass.
            self.grad1 = passes.input_grad(loss.d_f(f_c, d_f), passes.hidden,
                                           passes.output_slope())
            if reuse:
                self.grad1 = self.grad1.copy()

    def run(self, lam):
        """(values, x_adv) of ``attack_batch`` under ``lam``, a float64
        scalar or array (one value or one per row), finite and >= 0."""
        passes, loss, start, step = self.passes, self.loss, self.start, self.step
        f_c, lf, d_f = self.f_c, self.lf, self.d_f
        x_cur, vals, best_val = self.x1, self.vals1, self.val0
        if self.reuse:
            x_cur, vals, best_val = x_cur.copy(), vals.copy(), best_val.copy()
        best_x = start.copy()
        improved = np.empty(vals.shape, dtype=bool)
        penalized = bool(lam.any())
        if penalized:
            two_lam = 2.0 * lam
            dx, sq, cost = np.empty_like(start), np.empty_like(start), np.empty(vals.shape)
        for k in range(1, self.steps + 1):
            if penalized:
                np.subtract(x_cur, start, out=dx)
                np.add.reduce(np.square(dx, out=sq), axis=0, out=cost)
                vals -= np.multiply(lam, cost, out=cost)
            np.greater(vals, best_val, out=improved)
            np.copyto(best_val, vals, where=improved)
            np.copyto(best_x, x_cur, where=improved)
            if k == self.steps:
                break
            if k == 1:
                grad = self.grad1
            else:
                grad = passes.input_grad(loss.d_f(f_c, d_f), passes.hidden,
                                         passes.output_slope())
            if penalized:  # grad - 2*lam*dx, in dx
                grad = np.subtract(grad, np.multiply(two_lam, dx, out=dx), out=dx)
            x_cur += np.multiply(grad, self.step_size, out=step)
            np.minimum(np.maximum(0.0, x_cur, out=x_cur), 1.0, out=x_cur)
            loss.value(passes.scores(x_cur), vals, f_c, lf)
        return best_val, best_x.T.copy()


def robust_surrogate(model: ScoringModel, aux: AuxParams, p_hat: float,
                     lam: float, z, cfg: AttackConfig):
    """phi_lam at a single example; returns (value, adversarial example)."""
    x, y = z
    x0 = np.asarray(x, dtype=float).reshape(1, -1)
    vals, x_adv = attack_batch(model, aux, p_hat, lam, x0, int(y), cfg)
    return float(vals[0]), (x_adv[0], int(y))


def _destination_frontiers(model, aux, p_hat, x, labels, grid_resolution,
                           cap=math.inf, prune=True):
    """Per-point Pareto frontier of 1-D destinations, for every oracle.

    Point i may move to any grid point or stay at x[i], at squared cost
    (x' - x[i])**2, for loss g(f(x'), y_i).  The grid and the points are
    scored once each.  Returns one (destinations, costs, gains) triple per
    point, the undominated entries within ``cap`` by ascending cost; the
    first costs 0.  For lam >= 0, max(gains - lam*costs) over a frontier
    is the maximum over all destinations bit for bit: IEEE multiplication
    and subtraction are monotone, so a dominated entry never wins.  With
    ``prune=False`` every destination is returned, the grid's first.
    """
    grid = np.linspace(0.0, 1.0, grid_resolution)
    f_grid = score(model, grid[:, None])
    g_grid = {y: surrogate_loss(aux, p_hat, f_grid, y) for y in set(labels.tolist())}
    g_own = surrogate_loss(aux, p_hat, score(model, x[:, None]), labels)
    frontiers = []
    for xi, yi, gi in zip(x, labels.tolist(), g_own):
        cand = np.append(grid, xi)
        cost = (cand - xi) ** 2
        gain = np.append(g_grid[yi], gi)
        keep = _pareto_prune(cost, gain, cap) if prune else slice(None)
        frontiers.append((cand[keep], cost[keep], gain[keep]))
    return frontiers


def robust_surrogate_exact_1d(model: ScoringModel, aux: AuxParams, p_hat: float,
                              lam, z, grid_resolution: int = 100_001):
    """Exact 1-D maximizer over a dense grid plus the point itself.  It
    scans every destination, unpruned, and returns the frontier's pick
    among the maximizers: the first entry of their own frontier.

    ``lam`` is one multiplier, for one (value, adversarial example) pair,
    or a 1-D sequence of them, for a list of such pairs that scores the
    grid once; each pair is bitwise the one-multiplier call's."""
    if model.input_dim != 1:
        raise ValueError("exact oracle requires a 1-D model")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1 or not ((0.0 <= lams) & (lams < math.inf)).all():
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    x, y = z
    x0 = np.asarray(x, dtype=float).reshape(-1)[:1]
    ((dest, cost, gain),) = _destination_frontiers(
        model, aux, p_hat, x0, np.array([int(y)]), grid_resolution, prune=False)
    picks = []
    for lam_i in lams.reshape(-1).tolist():
        obj = gain - lam_i * cost
        top = np.flatnonzero(obj == obj.max())
        i = top[_pareto_prune(cost[top], gain[top], math.inf)[0]]
        picks.append((float(obj[i]), (np.array([dest[i]]), int(y))))
    return picks if lams.ndim else picks[0]


@dataclass(frozen=True)
class DualCurve:
    best_lambda: float
    best_value: float
    curve: np.ndarray


def dual_curve(model: ScoringModel, aux: AuxParams, p_hat: float,
               dataset: Dataset, eps: float, lambda_grid, *,
               grid_resolution: int = 1001) -> DualCurve:
    """Evaluate lam*eps + mean(phi_lam) on a multiplier grid, d = 1 only.

    phi_lam is the exact grid oracle, one broadcast over the multipliers
    per point.  The curve is convex in lam (pointwise max of functions
    affine in lam).
    """
    if dataset.d != 1:
        raise ValueError(f"dual curve requires d = 1, got d={dataset.d}")
    if not eps >= 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    lams = np.asarray(lambda_grid, dtype=float)
    if (lams.size == 0 or not np.isfinite(lams).all() or (np.diff(lams) < 0).any()
            or lams[0] < 0.0):
        raise ValueError("lambda_grid must be non-empty, finite, sorted "
                         f"ascending and >= 0, got {lams}")
    frontiers = _destination_frontiers(model, aux, p_hat, dataset.features[:, 0],
                                       dataset.labels, grid_resolution)
    phi = np.stack([(gain - lams[:, None] * cost).max(axis=1)
                    for _, cost, gain in frontiers], axis=1)
    curve = lams * eps + phi.mean(axis=1)
    best = int(np.argmin(curve))
    return DualCurve(float(lams[best]), float(curve[best]), curve)


def _pareto_prune(costs, gains, cap):
    """Indices of the entries within ``cap`` that no cheaper-or-equal,
    better-or-equal entry dominates, by ascending cost (gain then rises
    strictly)."""
    ok = np.flatnonzero(costs <= cap)
    order = ok[np.lexsort((-gains[ok], costs[ok]))]
    g_sorted = gains[order]
    running = np.maximum.accumulate(g_sorted)
    keep = np.empty(order.size, dtype=bool)
    keep[0] = True
    keep[1:] = g_sorted[1:] > running[:-1]
    return order[keep]


_ENVELOPE_SIDE = 64  # sampled rows and columns of a product, for its envelope
_PRODUCT_BLOCK = 1 << 20  # product entries formed at once


def _joint_frontier(frontiers, cap):
    """Pareto frontier of joint destinations for a group of points.

    Folds the per-point (destinations, costs, gains) frontiers in one at a
    time: product, budget filter, prune.  The product is formed in row
    blocks, each of which first drops the entries below a lower envelope:
    the frontier of a strided sample of the product, row and column 0
    included, so it starts at cost 0.  A dropped entry has a real entry of
    no greater cost and greater gain, which the prune sorts first, so the
    pruned indices and their order are those of the full product.  Returns
    (positions, costs, gains) with one row of positions per entry; an empty
    group yields the single all-stay entry of cost and gain 0.
    """
    positions = np.zeros((1, 0))
    costs = np.zeros(1)
    gains = np.zeros(1)
    for cand, cand_cost, cand_gain in frontiers:
        m, k = costs.size, cand.size
        rs, cs = max(1, m // _ENVELOPE_SIDE), max(1, k // _ENVELOPE_SIDE)
        env_cost = (costs[::rs, None] + cand_cost[::cs]).ravel()
        env_gain = (gains[::rs, None] + cand_gain[::cs]).ravel()
        env = _pareto_prune(env_cost, env_gain, cap)
        env_cost, env_gain = env_cost[env], env_gain[env]
        step, parts = max(1, _PRODUCT_BLOCK // k), []
        for lo in range(0, m, step):
            c = (costs[lo:lo + step, None] + cand_cost).ravel()
            g = (gains[lo:lo + step, None] + cand_gain).ravel()
            floor = env_gain[np.searchsorted(env_cost, c, side="right") - 1]
            ok = np.flatnonzero((c <= cap) & (g >= floor))
            parts.append((ok + lo * k, c[ok], g[ok]))
        index, comb_cost, comb_gain = map(np.concatenate, zip(*parts))
        keep = _pareto_prune(comb_cost, comb_gain, cap)
        rows, cols = np.divmod(index[keep], k)
        positions = np.hstack([positions[rows], cand[cols, None]])
        costs, gains = comb_cost[keep], comb_gain[keep]
    return positions, costs, gains


def brute_force_worst_case(dataset: Dataset, eps: float, grid_resolution: int,
                           aux: AuxParams, p_hat: float, model: ScoringModel):
    """Worst mean loss over per-point grid destinations within the budget.

    Maximizes mean_i g(f(x_i'), y_i) subject to
    (1/n) * sum_i (x_i - x_i')^2 <= eps, each x_i' drawn from the grid or
    staying put.  Same-label moves only; exact up to grid resolution.
    Refuses n > 6 or d > 1, where enumeration stops being meaningful.

    Meet in the middle: the Pareto frontiers of the first n//2 points and
    of the rest are built separately, each product in row blocks pruned
    against a lower envelope (``_joint_frontier``); each entry of the first
    is paired with the best entry of the second its leftover budget affords.
    """
    if dataset.n > 6 or dataset.d > 1:
        raise ValueError(
            f"brute force oracle limited to n <= 6, d = 1 "
            f"(got n={dataset.n}, d={dataset.d})"
        )
    if grid_resolution < 101:
        raise ValueError(f"grid_resolution must be >= 101, got {grid_resolution}")
    if not eps >= 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")

    budget = dataset.n * eps
    cap = budget + 1e-12 * max(1.0, budget)  # slack for float rounding in cost sums
    # Staying put costs 0, so every frontier (and every joint one) starts
    # at cost 0.
    frontiers = _destination_frontiers(model, aux, p_hat, dataset.features[:, 0],
                                       dataset.labels, grid_resolution, cap)

    half = dataset.n // 2
    pos_a, cost_a, gain_a = _joint_frontier(frontiers[:half], cap)
    pos_b, cost_b, gain_b = _joint_frontier(frontiers[half:], cap)
    # The B frontier's gain rises with cost, so the last affordable entry is
    # the best; its first entry costs 0, so one is always affordable.
    match = np.searchsorted(cost_b, cap - cost_a, side="right") - 1
    totals = gain_a + gain_b[match]
    best = int(np.argmax(totals))
    positions = np.concatenate([pos_a[best], pos_b[match[best]]])
    return float(totals[best] / dataset.n), positions


@dataclass(frozen=True)
class BarycenterAttack:
    target: float
    cost: float
    bound: float


def barycenter_attack(x_pos: float, x_neg: float, n_pos: int, n_neg: int) -> BarycenterAttack:
    """Collapse both clusters onto their mass-weighted mean.

    Moving every point of the two collapsed clusters to
    target = p*x_pos + (1-p)*x_neg makes every positive tie every negative,
    so strict AUC becomes 0, at mean squared cost exactly
    p*(1-p)*(x_pos - x_neg)^2.
    """
    if not (0.0 <= x_pos <= 1.0 and 0.0 <= x_neg <= 1.0):
        raise ValueError("cluster positions must lie in [0, 1]")
    if n_pos < 1 or n_neg < 1:
        raise ValueError("counts must be >= 1")
    p = n_pos / (n_pos + n_neg)
    target = p * x_pos + (1.0 - p) * x_neg
    cost = p * (x_pos - target) ** 2 + (1.0 - p) * (x_neg - target) ** 2
    bound = p * (1.0 - p) * (x_pos - x_neg) ** 2
    return BarycenterAttack(float(target), float(cost), float(bound))


def _suffix_argmin(values):
    """Leftmost index of the minimum of values[j:], for every j."""
    suffix_min = np.minimum.accumulate(values[::-1])[::-1]
    attains = np.where(values == suffix_min, np.arange(values.size), values.size)
    return np.minimum.accumulate(attains[::-1])[::-1]


def min_cost_flip_search(x_pos: float, x_neg: float, n_pos: int, n_neg: int,
                         grid_resolution: int = 1001):
    """Cheapest way to drive strict AUC to 0 for two collapsed clusters,
    searching destination pairs (t_pos <= t_neg) on a grid.

    Returns (min_cost, t_pos, t_neg).  The continuum optimum collapses both
    clusters to one point, so the grid minimum matches the closed-form
    bound up to grid resolution.
    """
    p = n_pos / (n_pos + n_neg)
    grid = np.linspace(0.0, 1.0, grid_resolution)
    cost_pos = p * (x_pos - grid) ** 2
    cost_neg = (1.0 - p) * (x_neg - grid) ** 2
    # For each t_pos, the best feasible t_neg >= t_pos is the suffix minimum.
    suffix_arg = _suffix_argmin(cost_neg)
    totals = cost_pos + cost_neg[suffix_arg]
    i = int(np.argmin(totals))
    j = int(suffix_arg[i])
    return float(totals[i]), float(grid[i]), float(grid[j])


def _calibrate_multiplier(model, aux, p_hat, x0, y, radius, cfg, lambda_max,
                          iters: int = 60):
    """Largest-damage multiplier whose mean realized cost stays <= radius.

    Bisection keeps the feasible side: the returned attack always
    satisfies the budget on this data.  If even ``lambda_max`` overspends,
    that is the start rows, at cost 0.  The ascent is bound once, so its
    multiplier-free first step (``attack_batch``) runs once for all the
    multipliers tried: 2 + iters when the bisection runs.
    """
    ascent = _bind_ascent(model, aux, p_hat, x0, y, cfg, reuse=True)

    def mean_cost(lam):
        _, x_adv = ascent.run(np.float64(lam))
        return float(((x_adv - x0) ** 2).sum(axis=1).mean()), x_adv

    cost0, adv0 = mean_cost(0.0)
    if cost0 <= radius:
        return 0.0, adv0
    cost_hi, adv_hi = mean_cost(lambda_max)
    if cost_hi > radius:
        return lambda_max, x0.copy()
    lo, hi = 0.0, lambda_max
    adv = adv_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        cost_mid, adv_mid = mean_cost(mid)
        if cost_mid <= radius:
            hi, adv = mid, adv_mid
        else:
            lo = mid
    return hi, adv


def estimate_robust_auc(model: ScoringModel, dataset: Dataset, eps,
                        aux: AuxParams, cfg: AttackConfig | None = None, *,
                        lambda_max: float = 1e3,
                        tie_policy: str = "half") -> float:
    """Empirical lower-bound robust AUC under a transport budget.

    ``eps`` is a single budget, or an (eps_pos, eps_neg) pair for per-class
    budgets.  Each attacked class uses a multiplier calibrated by bisection
    so the mean realized cost stays within its radius; a zero radius leaves
    the class untouched, so eps = 0 reproduces the nominal AUC exactly.
    """
    if dataset.n_pos == 0 or dataset.n_neg == 0:
        raise ValueError("both classes must be present")
    if not 0.0 < lambda_max < math.inf:
        raise ValueError(f"lambda_max must be positive and finite, got {lambda_max}")
    cfg = cfg or AttackConfig()
    feats, labels = dataset.features, dataset.labels
    if isinstance(eps, (tuple, list)):
        if len(eps) != 2:
            raise ValueError(f"eps must be one budget or an (eps_pos, eps_neg) pair, got {eps}")
        groups = [(labels == 1, float(eps[0])), (labels == 0, float(eps[1]))]
    else:
        groups = [(slice(None), float(eps))]
    adv = feats.copy()
    for mask, radius in groups:
        if not 0.0 <= radius < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {radius}")
        if radius > 0.0:
            _, adv[mask] = _calibrate_multiplier(
                model, aux, dataset.p_hat, feats[mask], labels[mask], radius,
                cfg, lambda_max)
    scores = score(model, adv)
    return auc_mann_whitney(scores[labels == 1], scores[labels == 0], tie_policy)
