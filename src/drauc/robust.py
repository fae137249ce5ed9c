"""Worst-case inner maximization and its verification oracles.

The robust surrogate of an example z = (x, y) under multiplier lam >= 0 is

    phi_lam(z) = max_{x' in [0,1]^d} [ g(f(x'), y) - lam * ||x - x'||^2 ],

computed here by K-step projected gradient ascent started at x' = x.  The
returned value is the best penalized objective seen along the iterates
(including the start), so phi_lam(z) >= g(z) holds for every lam, and the
value collapses to g(z) as lam grows.  Perturbations never change labels:
the transport cost across labels is infinite.

Desk-scale oracles back the solver.  The three 1-D ones read one
per-point frontier: the undominated (destination, squared cost, loss)
triples of a point that may move to a grid point or stay put.

  * an exact 1-D maximizer over a dense grid (plus the point itself),
  * the dual curve lam*eps + mean(phi_lam) on a multiplier grid, d = 1,
  * a brute-force search for the worst distribution of a tiny 1-D dataset
    under a mean-squared-transport budget, restricted to one destination
    per point and exact up to grid resolution: the Pareto frontiers of
    joint moves for the two halves of the points are merged by a
    searchsorted pass instead of raw enumeration,
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
from .model import ScoringModel, forward, score, vjp_input


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
    the next step's gradient: K+1 passes in all.  The loss's per-row
    coefficients and the penalty's 2*lam are built once per call.

    The start, the iterate and the best iterate are (d, n) arrays, so each
    elementwise pass runs along the batch, and the K+1 steps reuse them and
    the model's ``work`` arrays in place.  A row's squared cost sums its d
    terms in sequence, as a row-major sum does for d < 8 (NumPy sums longer
    contiguous rows pairwise).

    Returns (values, x_adv) where each row of the row-major (n, d) array
    x_adv is the best iterate seen for that example (the start point
    counts, so values >= g(z)).
    """
    x0 = np.asarray(x_batch, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if lam.shape not in ((), x0.shape[:1]) or (lam < 0.0).any():
        raise ValueError(f"lam must be >= 0, one value or one per row, got {lam}")
    if x0.min() < 0.0 or x0.max() > 1.0:
        raise ValueError("attack start must lie in [0, 1]^d")
    loss = _FixedLabelLoss(aux, p_hat, np.broadcast_to(np.asarray(y_batch), (x0.shape[0],)))
    two_lam = 2.0 * lam

    start = x0.T.copy()
    x_cur, best_x = start.copy(), start.copy()
    dx, sq = np.empty_like(start), np.empty_like(start)
    cost, improved = np.empty(x0.shape[0]), np.empty(x0.shape[0], dtype=bool)
    work = {}
    for k in range(cfg.steps + 1):
        f, cache = forward(model, x_cur.T, work=work)
        np.subtract(x_cur, start, out=dx)
        np.add.reduce(np.square(dx, out=sq), axis=0, out=cost)
        vals = loss.value(f)
        vals -= np.multiply(lam, cost, out=cost)
        if k == 0:  # the original point is the first candidate
            best_val = vals
        else:
            np.greater(vals, best_val, out=improved)
            np.copyto(best_val, vals, where=improved)
            np.copyto(best_x, x_cur, where=improved)
        if k == cfg.steps:
            break
        grad = vjp_input(model, cache, loss.d_f(f), work=work).T
        cache = None  # the next pass must not hold two caches at once
        grad -= np.multiply(two_lam, dx, out=dx)
        grad *= cfg.step_size
        x_cur += grad
        np.minimum(np.maximum(0.0, x_cur, out=x_cur), 1.0, out=x_cur)
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
                              lam: float, z, grid_resolution: int = 100_001):
    """Exact 1-D maximizer over a dense grid plus the point itself.  It
    scans every destination, unpruned, and returns the frontier's pick
    among the maximizers: the first entry of their own frontier."""
    if model.input_dim != 1:
        raise ValueError("exact oracle requires a 1-D model")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    x, y = z
    x0 = np.asarray(x, dtype=float).reshape(-1)[:1]
    ((dest, cost, gain),) = _destination_frontiers(
        model, aux, p_hat, x0, np.array([int(y)]), grid_resolution, prune=False)
    obj = gain - lam * cost
    top = np.flatnonzero(obj == obj.max())
    i = top[_pareto_prune(cost[top], gain[top], math.inf)[0]]
    return float(obj[i]), (np.array([dest[i]]), int(y))


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


def _joint_frontier(frontiers, cap):
    """Pareto frontier of joint destinations for a group of points.

    Folds the per-point (destinations, costs, gains) frontiers in one at a
    time: full product, budget filter, prune.  Returns (positions, costs,
    gains) with one row of positions per entry; an empty group yields the
    single all-stay entry of cost and gain 0.
    """
    positions = np.zeros((1, 0))
    costs = np.zeros(1)
    gains = np.zeros(1)
    for cand, cand_cost, cand_gain in frontiers:
        comb_cost = (costs[:, None] + cand_cost[None, :]).ravel()
        comb_gain = (gains[:, None] + cand_gain[None, :]).ravel()
        keep = _pareto_prune(comb_cost, comb_gain, cap)
        rows, cols = np.divmod(keep, cand.size)
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
    of the rest are built separately; each entry of the first is paired
    with the best entry of the second its leftover budget affords.
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

    Bisection keeps the feasible side: the returned lam always satisfies
    the budget on this data.
    """
    def mean_cost(lam):
        _, x_adv = attack_batch(model, aux, p_hat, lam, x0, y, cfg)
        return float(((x_adv - x0) ** 2).sum(axis=1).mean()), x_adv

    cost0, adv0 = mean_cost(0.0)
    if cost0 <= radius:
        return 0.0, adv0
    cost_hi, adv_hi = mean_cost(lambda_max)
    if cost_hi > radius:
        return lambda_max, adv_hi
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
    cfg = cfg or AttackConfig()
    feats, labels = dataset.features, dataset.labels
    if isinstance(eps, (tuple, list)):
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
