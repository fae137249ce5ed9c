"""Worst-case inner maximization and its verification oracles.

The robust surrogate of an example z = (x, y) under multiplier lam >= 0 is

    phi_lam(z) = max_{x' in [0,1]^d} [ g(f(x'), y) - lam * ||x - x'||^2 ],

computed here by K-step projected gradient ascent started at x' = x.  The
returned value is the best penalized objective seen along the iterates
(including the start), so phi_lam(z) >= g(z) holds for every lam, and the
value collapses to g(z) as lam grows.  Perturbations never change labels:
the transport cost across labels is infinite.  One bound ascent
(``_BoundAscent``) serves any number of multipliers over one batch.

Desk-scale oracles back the solver.  The two 1-D ones read one
per-point frontier: the undominated (destination, squared cost, loss)
triples of a point that may move to a grid point or stay put.

  * the dual curve lam*eps + mean(phi_lam) on a multiplier grid, d = 1,
  * a brute-force search for the worst distribution of a tiny 1-D dataset
    under a mean-squared-transport budget, one destination per point,
  * the closed-form barycenter attack that collapses two point clusters
    onto their mass-weighted mean, driving strict AUC to zero at cost
    p*(1-p)*(x_pos - x_neg)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_integer, check_real, corrupt
from .losses import (AuxParams, _FixedLabelLoss, _check_labels, auc_mann_whitney,
                     surrogate_loss)
from .model import ONE, ZERO, ScoringModel, _Passes, score

# The multiplier search's upper end: a budget that even its attack overspends,
# or a zero one, moves no row and reports it.
_LAMBDA_CAP = 1e3


@dataclass(frozen=True)
class AttackConfig:
    """Inner-ascent settings; the feasible box is always [0,1]^d."""

    steps: int = 10
    step_size: float = 0.05

    def __post_init__(self):
        check_integer("steps", self.steps, 1)
        check_real("step_size", self.step_size, 0, strict=True)


def attack_batch(model: ScoringModel, aux: AuxParams, p_hat: float, lam,
                 x_batch: np.ndarray, y_batch, cfg: AttackConfig):
    """Ascent on the penalized objective under one multiplier ``lam`` or
    one per row, through one bound ascent (``_BoundAscent``).

    R stacked runs attack in one call, each bitwise as it does alone: a
    model with (R, P) params, batches (R, n, d), one (a, b, alpha) triple
    and one p_hat per run in ``aux`` and ``p_hat``, and ``lam`` one value
    or one per row (R, n).

    Returns (values, x_adv) where each row of the row-major (..., n, d)
    array x_adv is the best iterate seen for that example (the start point
    counts, so values >= g(z)).
    """
    x0 = np.asarray(x_batch, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if lam.shape not in ((), x0.shape[:-1]) or not ((0.0 <= lam) & (lam < math.inf)).all():
        raise ValueError(f"lam must be finite and >= 0, one value or one per row, got {lam}")
    return _bind_ascent(model, aux, p_hat, x0, y_batch, cfg).run(lam)


def _bind_ascent(model, aux, p_hat, x0, y_batch, cfg):
    """The ascent bound over a float batch x0 in [0, 1]^d, or R stacked
    runs' batches, and its labels (one label or one per row, each 0 or 1)."""
    if x0.min() < 0.0 or x0.max() > 1.0:
        raise ValueError("attack start must lie in [0, 1]^d")
    loss = _FixedLabelLoss(aux, p_hat, np.broadcast_to(_check_labels(y_batch), x0.shape[:-1]))
    return _BoundAscent(_Passes(model), loss, x0, cfg.steps, cfg.step_size)


class _BoundAscent:
    """The K-step ascent over one batch (n, d), bound once for any number of
    multipliers; or over R stacked runs' batches (R, n, d), with their model
    passes and loss, a step size column (R, 1, 1) and multipliers per row
    (R, n), each run's values and iterates bitwise those of its own ascent.

    The start, iterates, best iterate and step are (d, n) arrays, so each
    elementwise pass runs along the batch, in place.  Each iterate's pass
    gives its value and the next step's gradient, and a row's squared cost
    sums its d terms in sequence, as a row-major sum does for d < 8.  The
    penalty's work is skipped where it changes no bit: when every multiplier
    is 0, and at the start, where every cost is x - x = +0.0, so v - lam*cost
    is v, as no value is -0.0 (w*(f - c)**2 never is); grad - 2*lam*dx then
    differs from grad at most in the sign of a zero, and the clip maps a -0.0
    coordinate to +0.0.  So ``rebind(x0)`` runs the first step (pass 0 at the
    start, scores ``f_start``; the clipped step to x1; pass 1), and
    ``run(lam)`` continues from pass 1: a fresh ascent's bits.  Both keep
    the iterates in arrays bound once, so one ascent serves a training stack,
    rebound to each batch after its loss.  ``last_is_best``: every row's best
    iterate was its last, which the last pass of ``passes`` scored.
    """

    __slots__ = ("passes", "loss", "steps", "step_size", "start", "f_start", "val0", "x1",
                 "vals1", "grad1", "f_c", "lf", "d_f", "step", "iterates", "last_is_best")

    def __init__(self, passes, loss, x0, steps, step_size):
        self.passes, self.loss, self.steps = passes, loss, steps
        self.step_size = np.asarray(step_size, dtype=float)
        self.start, self.x1, self.step = np.empty((3, *x0.mT.shape))
        self.f_start, self.val0, self.vals1, self.f_c, self.lf, self.d_f = np.empty(
            (6, *x0.shape[:-1]))
        self.grad1 = np.empty_like(self.start) if steps > 1 else None
        self.iterates = self.last_is_best = None  # bound by the first run
        self.rebind(x0)

    def rebind(self, x0):
        """Start over at x0, of the bound shape, under the loss as it is bound now."""
        passes, loss, f_c, lf, d_f = self.passes, self.loss, self.f_c, self.lf, self.d_f
        np.copyto(self.start, x0.mT)
        f = passes.scores(self.start)
        np.copyto(self.f_start, f)
        loss.value(f, self.val0, f_c, lf)
        grad = passes.input_grad(loss.d_f(f_c, d_f))
        grad *= self.step_size
        x1 = np.add(self.start, grad, out=self.x1)
        np.minimum(np.maximum(ZERO, x1, out=x1), ONE, out=x1)
        loss.value(passes.scores(x1), self.vals1, f_c, lf)
        if self.grad1 is not None:  # a copy: the next pass overwrites the pass buffer
            np.copyto(self.grad1, passes.input_grad(loss.d_f(f_c, d_f)))

    def run(self, lam):
        """(values, x_adv) of ``attack_batch`` under ``lam``, a float64 scalar
        or array (one value or one per row), finite and >= 0, as new arrays.
        One multiplier above 0 turns every run's penalty on, which changes
        no bit of an all-0 run."""
        passes, loss, start, step = self.passes, self.loss, self.start, self.step
        f_c, lf, d_f = self.f_c, self.lf, self.d_f
        if self.iterates is None:
            self.iterates = (*np.empty((3, *start.shape)), *np.empty((2, *self.val0.shape)),
                             np.empty(self.val0.shape, dtype=bool))
        x_cur, best_x, sq, vals, cost, improved = self.iterates
        dx = step  # x - x0, then grad - 2*lam*dx, then its step, each in place
        for buf, value in ((x_cur, self.x1), (vals, self.vals1), (best_x, start)):
            np.copyto(buf, value)
        best_val = self.val0.copy()  # returned, so new each run
        improved_x = improved[..., None, :]  # a view, for the iterates' rows
        penalized = bool(lam.any())
        if penalized:  # one 2*lam per row, laid out as the iterates if per row
            two_lam = (np.multiply(2.0, lam[..., None, :], out=np.empty_like(start)) if lam.ndim
                       else 2.0 * lam)
        for k in range(1, self.steps + 1):
            if penalized:
                np.subtract(x_cur, start, out=dx)
                np.add.reduce(np.square(dx, out=sq), axis=-2, out=cost)
                vals -= np.multiply(lam, cost, out=cost)
            np.greater(vals, best_val, out=improved)
            np.copyto(best_val, vals, where=improved)
            np.copyto(best_x, x_cur, where=improved_x)
            if k == self.steps:
                break
            if k == 1:
                grad = self.grad1
            else:
                grad = passes.input_grad(loss.d_f(f_c, d_f))
            if penalized:  # grad - 2*lam*dx, in dx
                grad = np.subtract(grad, np.multiply(two_lam, dx, out=dx), out=dx)
            x_cur += np.multiply(grad, self.step_size, out=step)
            np.minimum(np.maximum(ZERO, x_cur, out=x_cur), ONE, out=x_cur)
            loss.value(passes.scores(x_cur), vals, f_c, lf)
        self.last_is_best = bool(improved.all())
        return best_val, best_x.mT.copy()


def _destination_frontiers(model, aux, p_hat, x, labels, grid_resolution,
                           cap=math.inf):
    """Per-point Pareto frontier of 1-D destinations, for every oracle.

    Point i may move to any grid point or stay at x[i], at squared cost
    (x' - x[i])**2, for loss g(f(x'), y_i).  The grid and the points are
    scored once each.  Returns one (destinations, costs, gains) triple per
    point, the undominated entries within ``cap`` by ascending cost; the
    first costs 0.  For lam >= 0, max(gains - lam*costs) over a frontier
    is the maximum over all destinations bit for bit: IEEE multiplication
    and subtraction are monotone, so a dominated entry never wins.
    """
    if model.params.ndim != 1:  # a stack's gains would fill one point's frontier
        raise ValueError(f"params must be one model's (P,) vector, got shape {model.params.shape}")
    grid = np.linspace(0.0, 1.0, grid_resolution)
    f_grid = score(model, grid[:, None])
    g_grid = {y: surrogate_loss(aux, p_hat, f_grid, y) for y in set(labels.tolist())}
    g_own = surrogate_loss(aux, p_hat, score(model, x[:, None]), labels)
    frontiers = []
    for xi, yi, gi in zip(x, labels.tolist(), g_own):
        cand = np.append(grid, xi)
        cost = (cand - xi) ** 2
        gain = np.append(g_grid[yi], gi)
        keep = _pareto_prune(cost, gain, cap)
        frontiers.append((cand[keep], cost[keep], gain[keep]))
    return frontiers


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
    check_integer("grid_resolution", grid_resolution, 2)
    check_real("eps", eps, 0)
    if {bool, np.bool_} & set(map(type, np.array(lambda_grid, dtype=object).flat)):
        raise ValueError(f"lambda_grid must hold real numbers, not bools, got {lambda_grid!r}")
    lams = np.asarray(lambda_grid, dtype=float)
    if (lams.ndim != 1 or lams.size == 0 or not np.isfinite(lams).all()
            or (np.diff(lams) < 0).any() or lams[0] < 0.0):
        raise ValueError("lambda_grid must be one non-empty axis, finite, sorted "
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
    strictly).  Without two equal costs (all are finite) one argsort's
    order is unique, whatever its kernel; with them a lexsort orders each
    tie by falling gain, then index, keeping the earliest of equal entries."""
    ok = np.flatnonzero(costs <= cap)
    order = ok[np.argsort(costs[ok])]
    if (np.diff(costs[order]) == 0).any():
        del order  # freed before the lexsort's arrays
        order = ok[np.lexsort((-gains[ok], costs[ok]))]
    del ok  # the gain pass holds the order alone
    g_sorted = gains[order]
    running = np.maximum.accumulate(g_sorted)
    keep = np.empty(order.size, dtype=bool)
    keep[:1] = True
    keep[1:] = g_sorted[1:] > running[:-1]
    return order[keep]


_ENVELOPE_SIDE = 64  # sampled rows and columns of a product, for its envelope
# Cost buckets of the envelope floor: in the weak-duality check, 4096 ran fastest
# of 4096-32768; 16384 took 19% longer to cut the five-point peak by 4.5%.
_FLOOR_BUCKETS = 4096
# Product entries formed at once.  The peak is one block's arrays plus the
# frontiers kept from the blocks before it, more of them the smaller a block: in
# the weak-duality check, 2^15 held least of 2^13-2^16 and ran no slower.
_PRODUCT_BLOCK = 1 << 15


def _envelope_floor(env_cost, env_gain, top):
    """A floor, never above the envelope's gain, read per cost in one lookup:
    bucket int(c * scale), clipped to the last, of a table over [0, top]
    holds the gain one bucket below its own edge, a margin for the rounding
    in c * scale.  The envelope is a frontier from cost 0; top is raised
    until a bucket's width is a normal float, and at top 0 every cost reads
    the gain at 0."""
    top = max(top, _FLOOR_BUCKETS * np.finfo(float).tiny)
    edges = np.maximum(np.arange(-1, _FLOOR_BUCKETS - 1), 0) * (top / _FLOOR_BUCKETS)
    table = env_gain[np.searchsorted(env_cost, edges, side="right") - 1]
    scale = _FLOOR_BUCKETS / top
    return lambda c: table[np.minimum(c * scale, _FLOOR_BUCKETS - 1).astype(np.intp)]


def _joint_frontier(frontiers, cap):
    """Pareto frontier of joint destinations for a group of points.

    Folds the per-point (destinations, costs, gains) frontiers in one at a
    time: product, budget filter, prune.  The product is formed in row
    blocks.  Each drops the entries below a floor (``_envelope_floor``)
    under a lower envelope (the frontier of a strided sample of the
    product, row and column 0 included, so it starts at cost 0), then keeps
    only its own frontier, so the blocks' frontiers are all that is held; a
    floor below the envelope only lets through entries that prune drops.
    Every dropped entry has one of no greater cost and no smaller gain that
    the prune sorts first; no block's frontier ties two entries' (cost,
    gain), and the blocks go in index order, so the pruned indices and
    their order are the full product's.
    Returns (positions, costs, gains) with one row of positions per entry;
    an empty group yields the single all-stay entry of cost and gain 0.
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
        floor = _envelope_floor(env_cost[env], env_gain[env], min(cap, costs[-1] + cand_cost[-1]))
        step, parts = max(1, _PRODUCT_BLOCK // k), []
        for lo in range(0, m, step):
            c = (costs[lo:lo + step, None] + cand_cost).ravel()
            g = (gains[lo:lo + step, None] + cand_gain).ravel()
            ok = np.flatnonzero((c <= cap) & (g >= floor(c)))
            ok = ok[_pareto_prune(c[ok], g[ok], cap)]
            parts.append((ok + lo * k, c[ok], g[ok]))
        index, comb_cost, comb_gain = map(np.concatenate, zip(*parts))
        del parts, c, g
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

    Meet in the middle: the joint Pareto frontiers (``_joint_frontier``) of
    the first n//2 points and of the rest are built separately, and each
    entry of the first is paired with the best entry of the second its
    leftover budget affords.
    """
    if dataset.n > 6 or dataset.d > 1:
        raise ValueError(
            f"brute force oracle limited to n <= 6, d = 1 "
            f"(got n={dataset.n}, d={dataset.d})"
        )
    check_integer("grid_resolution", grid_resolution, 101)
    check_real("eps", eps, 0)

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


def _cluster_share(x_pos, x_neg, n_pos, n_neg) -> float:
    """n_pos / (n_pos + n_neg) for n_pos, n_neg >= 1 points at x_pos, x_neg in [0, 1]."""
    for name, x in (("x_pos", x_pos), ("x_neg", x_neg)):
        check_real(name, x, 0, 1)
    for name, count in (("n_pos", n_pos), ("n_neg", n_neg)):
        check_integer(name, count, 1)
    return n_pos / (n_pos + n_neg)


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
    p = _cluster_share(x_pos, x_neg, n_pos, n_neg)
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
    check_integer("grid_resolution", grid_resolution, 2)
    p = _cluster_share(x_pos, x_neg, n_pos, n_neg)
    grid = np.linspace(0.0, 1.0, grid_resolution)
    cost_pos = p * (x_pos - grid) ** 2
    cost_neg = (1.0 - p) * (x_neg - grid) ** 2
    # For each t_pos, the best feasible t_neg >= t_pos is the suffix minimum.
    suffix_arg = _suffix_argmin(cost_neg)
    totals = cost_pos + cost_neg[suffix_arg]
    i = int(np.argmin(totals))
    j = int(suffix_arg[i])
    return float(totals[i]), float(grid[i]), float(grid[j])


def _calibrate(attack, x0, radius):
    """(lam, attack(lam), its mean squared cost) for the largest-damage
    multiplier whose attack on the rows x0 costs <= radius: 0 if its attack
    fits, and ``_LAMBDA_CAP`` with the start rows if even it overspends.
    Otherwise a bracket [a, b], a's attack over the radius and b's within
    it, starts at [0, ``_LAMBDA_CAP``] and bisects geometrically while
    b > 4a (the cost is flat at 0 for large multipliers), reading a = 0 as
    1/``_LAMBDA_CAP``, so the first probe is 1 to rounding; at a = 0 and
    b <= 4/``_LAMBDA_CAP`` it halves b.  Then Illinois regula falsi on
    cost - radius shrinks it until b's cost is the radius or
    b - a <= 1e-12 b.  The cap's own attack runs only when the secant
    first needs it.  Only b's attack, run and feasible, is held."""
    def excess(lam):
        adv = attack(lam)
        sq = adv - x0  # squared in place: one array beside the ascent's bound ones
        cost = float(np.square(sq, out=sq).sum(axis=1).mean())
        return cost - radius, cost, adv

    fa, cost, adv = excess(0.0)
    if fa <= 0.0:
        return 0.0, adv, cost
    del adv  # a rejected attack is freed before the next multiplier's run
    a, b, fb, side = 0.0, _LAMBDA_CAP, None, 0
    while fb is None or (fb < 0.0 and b - a > 1e-12 * b):
        if b > 4.0 * a:
            lo = a or 1.0 / _LAMBDA_CAP
            lam, side = math.sqrt(lo) * math.sqrt(b) if b > 4.0 * lo else 0.5 * b, 0
        elif fb is None:  # b is still the cap, never run
            fb, cost, adv = excess(b)
            if fb > 0.0:
                return _LAMBDA_CAP, x0.copy(), 0.0
            continue
        else:  # the secant point, at least half the stopping width inside
            lam = min(max(b - fb * (b - a) / (fb - fa), a + 5e-13 * b), b - 5e-13 * b)
        f, cost_lam, adv_lam = excess(lam)
        if f <= 0.0:  # Illinois: an end kept twice halves its excess
            fa *= 0.5 if side == 1 else 1.0
            b, fb, adv, cost, side = lam, f, adv_lam, cost_lam, 1
        else:
            if side == -1:  # a secant step, so fb is set
                fb *= 0.5
            a, fa, side = lam, f, -1
        del adv_lam
    return b, adv, cost


def _radii(eps) -> list:
    """The radii, each finite and >= 0, of ``eps``: one budget or an (eps_pos, eps_neg) pair."""
    try:
        radii = np.asarray(eps, dtype=float)
    except (TypeError, ValueError):  # a ragged or non-numeric sequence
        radii = None
    if radii is None or radii.shape not in ((), (2,)):
        raise ValueError(f"eps must be one budget or an (eps_pos, eps_neg) pair, got {eps}")
    if not ((0.0 <= radii) & (radii < math.inf)).all():
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    return radii.reshape(-1).tolist()


@dataclass(frozen=True)
class DatasetAttack:
    """A budgeted attack's rows ``x_adv`` and, per label group, its
    multiplier ``lam`` and mean squared transport ``cost``."""

    x_adv: np.ndarray
    lam: tuple
    cost: tuple


def attack_dataset(model: ScoringModel, dataset: Dataset, eps, aux: AuxParams,
                   cfg: AttackConfig | None = None) -> DatasetAttack:
    """A feasible attack on ``dataset`` within a transport budget: ``eps``
    is one budget, for one label group (the whole set), or an (eps_pos,
    eps_neg) pair, for positives then negatives as in ``DualState``: a
    length-2 tuple, list or 1-D array.  A group with a radius above 0 binds
    one ascent and takes the multiplier ``_calibrate`` finds, so its mean
    realized cost stays within the radius: 0 after one ascent if the
    unpenalized attack fits, else a search from lam = 1, every ascent from
    the one binding.  A zero radius runs no ascent and leaves its rows
    untouched; its group reports ``_LAMBDA_CAP`` and cost 0.0.
    """
    if dataset.n_pos == 0 or dataset.n_neg == 0:
        raise ValueError("both classes must be present")
    cfg = cfg or AttackConfig()
    feats, labels = dataset.features, dataset.labels
    radii = _radii(eps)  # every radius before any attack
    masks = [slice(None)] if len(radii) == 1 else [labels == 1, labels == 0]
    adv, lams, costs = feats.copy(), [_LAMBDA_CAP] * len(radii), [0.0] * len(radii)
    for g, (mask, radius) in enumerate(zip(masks, radii)):
        if radius > 0.0:
            x0 = feats[mask]
            ascent = _bind_ascent(model, aux, dataset.p_hat, x0, labels[mask], cfg)
            lams[g], adv[mask], costs[g] = _calibrate(
                lambda lam: ascent.run(np.float64(lam))[1], x0, radius)
            del ascent  # no group's bound arrays while the next group is bound
    return DatasetAttack(adv, tuple(lams), tuple(costs))


def evaluate(model: ScoringModel, aux: AuxParams, dataset: Dataset, *, sigmas=(), eps=(),
             attack: AttackConfig | None = None, seed: int = 0) -> dict:
    """The AUCs (ties half) `drauc train` and `drauc eval` report, in order:
    ``nominal_auc``, ``corrupted_auc_<s>`` per s in ``sigmas`` (``corrupt``
    with ``seed``), then per budget e in ``eps`` (``attack_dataset``'s),
    ``robust_auc_<e>``, an upper bound on the worst case, and its attack's
    ``robust_lam_<e>``, ``robust_cost_<e>`` and ``robust_binding_<e>`` (1 iff
    lam > 0).  Keys format numbers with :g; a pair's <e> is
    <eps_pos>_<eps_neg>, and its lam, cost and binding keys end in _pos,
    then in _neg.  Every sigma and budget is checked before any scoring."""
    for sigma in sigmas:
        check_real("sigma", sigma, 0)
    budgets = [(e, _radii(e)) for e in eps]

    def auc(features):
        scores = score(model, features)
        return auc_mann_whitney(scores[dataset.labels == 1], scores[dataset.labels == 0])

    metrics = {"nominal_auc": auc(dataset.features)}
    for sigma in sigmas:
        metrics[f"corrupted_auc_{sigma:g}"] = auc(corrupt(dataset, sigma, seed).features)
    for e, radii in budgets:
        key = "_".join(f"{radius:g}" for radius in radii)
        suffixes = ("",) if len(radii) == 1 else ("_pos", "_neg")
        atk = attack_dataset(model, dataset, e, aux, attack)
        metrics[f"robust_auc_{key}"] = auc(atk.x_adv)
        for name, values in (("lam", atk.lam), ("cost", atk.cost),
                             ("binding", [int(lam > 0.0) for lam in atk.lam])):
            metrics.update(zip([f"robust_{name}_{key}{s}" for s in suffixes], values))
        del atk  # no budget's x_adv outlives its attack
    return metrics
