"""Runnable invariant suite behind the ``verify`` CLI command.

Each check reproduces one of the library's contracts with an independent
oracle (enumeration, finite differences, grid search, or rerunning) and
returns a CheckResult.  A check is the one implementation of its contract:
the test suite calls it with its own seeds and sizes.  ``run_all`` executes
every check; the quick scale shrinks sample counts but keeps every suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, corrupt, gen_synthetic, load_csv, make_long_tailed, save_csv
from .gradcheck import grad_check
from .losses import (AuxParams, auc_mann_whitney, closed_form_aux, pairwise_sq_risk,
                     saddle_value, surrogate_loss, surrogate_loss_grads)
from .model import init_model, _init_params, parse_arch, score, ScoringModel
from .robust import (AttackConfig, attack_batch, barycenter_attack,
                     brute_force_worst_case, dual_curve, min_cost_flip_search,
                     robust_surrogate_exact_1d)
from .training import TrainConfig, train, train_stacked


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _result(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


def _identity_scorer() -> ScoringModel:
    return ScoringModel("linear-identity-clamped", np.array([1.0, 0.0]), 1)


def _random_dataset(rng, n_max=20):
    n = int(rng.integers(2, n_max + 1))
    fs = rng.uniform(0.0, 1.0, size=n)
    ys = rng.integers(0, 2, size=n)
    ys[0], ys[1] = 1, 0  # both classes present
    return fs, ys


# ---------------------------------------------------------------- model

def _range_scores(draws, seed):
    """Scores of draws // 3 randomly perturbed models of each architecture,
    each on one random input, in draw order.  Draws are taken in the order
    of a loop that builds each model with ``init_model`` and scores it as
    it draws it; the draws of one (arch, d) are then scored as stacked
    one-row runs of one model, each bitwise its own single-model score."""
    rng = np.random.default_rng(seed)
    archs = ["linear-sigmoid", "mlp1-tanh-sigmoid(8)", "linear-identity-clamped"]
    per_arch = draws // len(archs)
    scores = np.empty((len(archs), per_arch))
    for arch, out in zip(archs, scores):
        name, width = parse_arch(arch)
        dims = np.empty(per_arch, dtype=int)
        groups = {}  # d -> (its draws' params, inputs)
        for i in range(per_arch):
            dims[i] = d = int(rng.integers(1, 5))
            init = _init_params(name, d, width, np.random.default_rng(int(rng.integers(2**31))))
            params, inputs = groups.setdefault(d, ([], []))
            params.append(init + rng.normal(0, 2.0, init.shape))
            inputs.append(rng.uniform(0, 1, size=d))
        for d, (params, inputs) in groups.items():
            model = ScoringModel(name, np.array(params), d, width)
            out[dims == d] = score(model, np.array(inputs)[:, None, :])[:, 0]
    return scores.ravel()


def check_score_range(draws=10_000, seed=0):
    scores = _range_scores(draws, seed)
    lo, hi = float(scores.min()), float(scores.max())
    ok = 0.0 <= lo and hi <= 1.0
    return _result("model.score_range", ok, f"range over draws: [{lo:.3g}, {hi:.3g}]")


def check_model_gradients(trials=150, seed=0):
    worst = 0.0
    for arch in ("linear-sigmoid", "mlp1-tanh-sigmoid(8)"):
        rep = grad_check(arch, trials=trials, h=1e-5, tol=1e-5, seed=seed)
        worst = max(worst, rep.max_rel_err)
        if not rep.passed:
            return _result("model.gradients", False,
                           f"{arch}: max rel err {rep.max_rel_err:.3g} ({rep.worst})")
    return _result("model.gradients", True, f"max rel err {worst:.3g} <= 1e-5")


def check_init_determinism(seed=7):
    a = init_model("mlp1-tanh-sigmoid(8)", 3, seed)
    b = init_model("mlp1-tanh-sigmoid(8)", 3, seed)
    ok = np.array_equal(a.params, b.params)
    return _result("model.init_determinism", ok, "identical params for equal seeds")


# ------------------------------------------------------------- auc-core

def check_saddle_identity(datasets=100, seed=1):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(datasets):
        fs, ys = _random_dataset(rng)
        p_hat = ys.mean()
        risk = pairwise_sq_risk(fs[ys == 1], fs[ys == 0])
        lhs = saddle_value(fs, ys)
        worst = max(worst, abs(lhs - p_hat * (1 - p_hat) * (risk - 1.0)))
    return _result("losses.saddle_identity", worst <= 1e-10,
                   f"max |saddle - p(1-p)(risk-1)| = {worst:.3g}")


def _grid_minmax(fs, ys, p_hat, step=1e-3):
    """min over (a, b) / max over alpha of mean g, scanned on a grid.

    The empirical mean separates into independent terms in a, b, and
    alpha, so scanning each axis equals scanning the product grid.
    """
    pos = fs[ys == 1]
    neg = fs[ys == 0]
    n = fs.size
    a_grid = np.arange(0.0, 1.0 + step / 2, step)
    alpha_grid = np.arange(-1.0, 1.0 + step / 2, step)
    term_a = (1 - p_hat) / n * ((pos[None, :] - a_grid[:, None]) ** 2).sum(axis=1)
    term_b = p_hat / n * ((neg[None, :] - a_grid[:, None]) ** 2).sum(axis=1)
    cross = 2.0 / n * (p_hat * neg.sum() - (1 - p_hat) * pos.sum())
    term_alpha = (1.0 + alpha_grid) * cross - p_hat * (1 - p_hat) * alpha_grid**2
    return term_a.min() + term_b.min() + term_alpha.max()


def check_closed_form_optimality(datasets=20, seed=2, margin=1e-5):
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(datasets):
        fs, ys = _random_dataset(rng)
        p_hat = ys.mean()
        closed = saddle_value(fs, ys)
        grid = _grid_minmax(fs, ys, p_hat)
        worst = max(worst, closed - grid)  # positive would mean the grid beat us
    return _result("losses.closed_form_optimality", worst <= margin,
                   f"max (closed - grid) = {worst:.3g} <= {margin}")


def check_alpha_stationarity(datasets=50, seed=3):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(datasets):
        fs, ys = _random_dataset(rng)
        p_hat = ys.mean()
        aux = closed_form_aux(fs[ys == 1], fs[ys == 0])
        grads = surrogate_loss_grads(aux, p_hat, fs, ys)[3]
        worst = max(worst, abs(float(np.mean(grads))))
    return _result("losses.alpha_stationarity", worst <= 1e-10,
                   f"max |mean dg/dalpha at optimum| = {worst:.3g}")


def check_auc_properties(trials=200, seed=4):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n_pos = int(rng.integers(1, 8))
        n_neg = int(rng.integers(1, 8))
        pos = rng.choice(np.linspace(0, 1, 11), size=n_pos)
        neg = rng.choice(np.linspace(0, 1, 11), size=n_neg)
        base = auc_mann_whitney(pos, neg)
        mono = auc_mann_whitney(np.tanh(3 * pos) ** 3, np.tanh(3 * neg) ** 3)
        if abs(base - mono) > 1e-12:
            return _result("losses.auc_properties", False,
                           "not invariant under increasing transform")
        if abs(base + auc_mann_whitney(neg, pos) - 1.0) > 1e-12:
            return _result("losses.auc_properties", False,
                           "complement identity violated")
    return _result("losses.auc_properties", True,
                   "monotone-transform invariance and complement identity hold")


# --------------------------------------------------------------- robust

def _phi_trials(trials, seed):
    """Each random trial's multiplier, g(z), phi and whether its iterates
    stayed in the box, in draw order.  Draws are taken in the order of a
    loop that attacks each trial as it draws it; the trials of one (arch, d)
    are then attacked as stacked n = 1 runs, each with its own aux, p_hat
    and multiplier and bitwise its own ascent."""
    rng = np.random.default_rng(seed)
    cfg = AttackConfig(steps=10, step_size=0.05)
    groups = {}  # (arch, d) -> its trials' (index, params, aux, p_hat, lam, x, y)
    for i in range(trials):
        d = int(rng.integers(1, 4))
        arch = str(rng.choice(["linear-sigmoid", "mlp1-tanh-sigmoid(4)"]))
        params = init_model(arch, d, seed=int(rng.integers(2**31))).params
        aux = (rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1))
        p_hat = float(rng.uniform(0.1, 0.9))
        lam = float(10 ** rng.uniform(-3, 6)) if rng.random() > 0.1 else 0.0
        x = rng.uniform(0, 1, size=d)
        y = int(rng.integers(2))
        groups.setdefault((arch, d), []).append((i, params, aux, p_hat, lam, x, y))
    lams, g0, phi = np.empty((3, trials))
    in_box = np.empty(trials, dtype=bool)
    for (arch, d), group in groups.items():
        index, params, auxs, p_hats, lam, x, y = map(list, zip(*group))
        name, width = parse_arch(arch)
        model = ScoringModel(name, np.array(params), d, width)
        x0, y = np.array(x)[:, None, :], np.array(y)[:, None]  # each trial an n = 1 batch
        lams[index] = lam
        g0[index] = surrogate_loss(auxs, p_hats, score(model, x0), y)[:, 0]
        vals, x_adv = attack_batch(model, auxs, p_hats, lams[index][:, None], x0, y, cfg)
        phi[index] = vals[:, 0]
        in_box[index] = (x_adv.min(axis=(1, 2)) >= 0) & (x_adv.max(axis=(1, 2)) <= 1)
    return lams, g0, phi, in_box


def check_phi_dominance(trials=200, seed=5):
    lams, g0, phi, in_box = _phi_trials(trials, seed)
    bad = np.flatnonzero((phi < g0 - 1e-12) | ~in_box)
    if bad.size:  # the first violating trial, in draw order
        i = bad[0]
        return _result("robust.phi_dominance", False,
                       f"violated at lam={lams[i]:.3g}: phi={phi[i]:.6g} < g={g0[i]:.6g}")
    return _result("robust.phi_dominance", True,
                   "phi >= g(z), labels preserved, iterates stay in the box")


def check_phi_monotone_lambda(trials=100, seed=6):
    rng = np.random.default_rng(seed)
    m = _identity_scorer()
    for _ in range(trials):
        aux = AuxParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1))
        p_hat = float(rng.uniform(0.1, 0.9))
        z = (np.array([rng.uniform(0, 1)]), int(rng.integers(2)))
        lams = np.sort(10 ** rng.uniform(-2, 3, size=4))
        vals = [v for v, _ in robust_surrogate_exact_1d(m, aux, p_hat, lams, z, 2001)]
        if any(vals[i] < vals[i + 1] - 1e-12 for i in range(3)):
            return _result("robust.phi_monotone_lambda", False,
                           f"phi increased along lams={lams}")
    return _result("robust.phi_monotone_lambda", True,
                   "exact phi is non-increasing in the multiplier")


def _random_tiny_instance(rng):
    n = int(rng.integers(1, 5))
    feats = rng.uniform(0, 1, size=(n, 1))
    labels = rng.integers(0, 2, size=n)
    ds = Dataset.from_arrays(feats, labels)
    # alpha >= 0 keeps the per-example cost-gain frontier one-sided and
    # concave, so one-destination-per-point search attains the true sup.
    aux = AuxParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1))
    p_hat = float(rng.uniform(0.1, 0.9))
    eps = float(rng.uniform(0, 0.25)) if rng.random() > 0.15 else 0.0
    return ds, aux, p_hat, eps


def check_weak_duality(instances=50, seed=7, grid_resolution=1001):
    rng = np.random.default_rng(seed)
    m = _identity_scorer()
    lam_grid = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 99)])
    worst_gap = -np.inf
    for _ in range(instances):
        ds, aux, p_hat, eps = _random_tiny_instance(rng)
        sup, _ = brute_force_worst_case(ds, eps, grid_resolution, aux, p_hat, m)
        res = dual_curve(m, aux, p_hat, ds, eps, lam_grid,
                         grid_resolution=grid_resolution)
        if (res.curve < sup - 1e-9).any():
            return _result("robust.weak_duality", False,
                           "a dual value fell below the brute-force sup")
        gap = res.best_value - sup
        tol = max(1e-2, 0.05 * abs(sup))
        if gap > tol:
            return _result("robust.weak_duality", False,
                           f"dual minimum exceeds sup by {gap:.4g} (tol {tol:.4g})")
        worst_gap = max(worst_gap, gap)
    return _result("robust.weak_duality", True,
                   f"dual >= sup everywhere; worst duality gap {worst_gap:.3g}")


def check_dual_convexity(trials=25, seed=8):
    rng = np.random.default_rng(seed)
    m = _identity_scorer()
    lam_grid = np.linspace(0.0, 20.0, 41)
    for _ in range(trials):
        ds, aux, p_hat, eps = _random_tiny_instance(rng)
        res = dual_curve(m, aux, p_hat, ds, eps, lam_grid, grid_resolution=501)
        c = res.curve
        mid_violation = c[1:-1] - 0.5 * (c[:-2] + c[2:])
        if (mid_violation > 1e-9).any():
            return _result("robust.dual_convexity", False,
                           f"midpoint test failed by {mid_violation.max():.3g}")
    return _result("robust.dual_convexity", True,
                   "midpoint inequality holds on every consecutive triple")


def check_barycenter_identity(trials=500, seed=9):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        atk = barycenter_attack(rng.uniform(0, 1), rng.uniform(0, 1),
                                int(rng.integers(1, 200)), int(rng.integers(1, 200)))
        worst = max(worst, abs(atk.cost - atk.bound))
    return _result("robust.barycenter_identity", worst <= 1e-12,
                   f"max |cost - bound| = {worst:.3g}")


def check_barycenter_brute_force(trials=25, seed=10):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x_neg = float(rng.uniform(0.0, 0.45))
        x_pos = float(rng.uniform(x_neg + 0.1, 1.0))
        n_pos = int(rng.integers(1, 50))
        n_neg = int(rng.integers(1, 50))
        atk = barycenter_attack(x_pos, x_neg, n_pos, n_neg)
        min_cost, t_pos, t_neg = min_cost_flip_search(x_pos, x_neg, n_pos, n_neg)
        if not (atk.bound - 1e-12 <= min_cost <= atk.bound + 1e-5):
            return _result("robust.barycenter_brute_force", False,
                           f"grid min {min_cost:.6g} vs bound {atk.bound:.6g}")
        if auc_mann_whitney([t_pos] * n_pos, [t_neg] * n_neg, "strict") != 0.0:
            return _result("robust.barycenter_brute_force", False,
                           "grid attack did not zero the strict AUC")
    return _result("robust.barycenter_brute_force", True,
                   "cheapest grid attack matches the closed-form bound")


# -------------------------------------------------------------- trainer

def _small_train_setup(seed=0):
    ds = gen_synthetic(80, 2, seed=seed)
    model = init_model("linear-sigmoid", 2, seed=seed)
    return ds, model


def check_domain_preservation(iters=60, seed=11):
    ds, model = _small_train_setup(seed)
    variants = ("df", "da")
    cfgs = [TrainConfig(variant=variant, iters=iters, batch_size=16, eps=0.05, eta_z=0.05,
                        seed=seed) for variant in variants]
    states = train_stacked([(ds, cfg, model) for cfg in cfgs])
    for variant, cfg, state in zip(variants, cfgs, states):
        recs = state.history + [{
            "a": state.aux.a, "b": state.aux.b, "alpha": state.aux.alpha,
        }]
        for rec in recs:
            if not (0 <= rec["a"] <= 1 and 0 <= rec["b"] <= 1
                    and -1 <= rec["alpha"] <= 1):
                return _result("trainer.domain_preservation", False,
                               f"{variant}: aux left its domain")
            for key in ("lam", "lam_pos", "lam_neg"):
                if key in rec and not 0 <= rec[key] <= cfg.lambda_max:
                    return _result("trainer.domain_preservation", False,
                                   f"{variant}: {key} left [0, lambda_max]")
    return _result("trainer.domain_preservation", True,
                   "aux and multipliers stayed in their boxes every iteration")


def _same_run(s1, s2):
    """Whether two TrainStates hold bitwise the same final params, aux,
    multipliers and budgets, and the same history, theta included."""
    def bits(s):
        finals = (s.model.params, (s.aux.a, s.aux.b, s.aux.alpha), s.dual.lam, s.dual.eps)
        return [np.asarray(v).tobytes() for v in finals] + [
            (key, None if v is None else np.asarray(v).tobytes())
            for rec in s.history for key, v in rec.items()]
    return bits(s1) == bits(s2)


def check_trainer_determinism(iters=40, seed=12):
    """Reruns, and both rows of a two-run stack of the config, are bitwise
    the first run."""
    ds, model = _small_train_setup(seed)
    cfg = TrainConfig(variant="df", iters=iters, batch_size=16, eps=0.05, seed=seed)
    s1 = train(ds, cfg, model)
    again = [train(ds, cfg, model), *train_stacked([(ds, cfg, model)] * 2)]
    same = all(_same_run(s1, s) for s in again)
    return _result("trainer.determinism", same, "reruns are bitwise identical")


def check_ablation_equivalence(iters=100, seed=13, dataset=None, model=None):
    """The variants on ``dataset`` from ``model``, by default the small
    two-blob set and a linear scorer drawn from ``seed``, in one stack."""
    small_ds, small_model = _small_train_setup(seed)
    ds = small_ds if dataset is None else dataset
    model = small_model if model is None else model
    base = dict(iters=iters, batch_size=16, eta_z=0.0, eps=0.0, seed=seed)
    runs = train_stacked([(ds, TrainConfig(variant=variant, **base), model)
                          for variant in ("df", "da", "aucm-baseline")])
    keys = ("objective", "alpha", "a", "b", "batch_auc")
    for other in runs[1:]:
        if not np.array_equal(runs[0].model.params, other.model.params):
            return _result("trainer.ablation_equivalence", False,
                           "final parameters differ")
        for r0, r1 in zip(runs[0].history, other.history):
            if not np.array_equal(r0["theta"], r1["theta"]):
                return _result("trainer.ablation_equivalence", False,
                               "theta trajectories differ")
            if any(r0[k] != r1[k] for k in keys):
                return _result("trainer.ablation_equivalence", False,
                               "scalar trajectories differ")
    return _result("trainer.ablation_equivalence", True,
                   "df, da, and the baseline coincide bitwise at eta_z=0, eps=0")


def check_lambda_direction(iters=40, seed=14):
    ds, model = _small_train_setup(seed)
    budgets = ((0.0, True), (1.0, False))
    states = train_stacked([(ds, TrainConfig(variant="df", iters=iters, batch_size=16,
                                             eps=eps, eta_z=0.05, seed=seed), model)
                            for eps, _ in budgets])
    for (eps, expect_up), state in zip(budgets, states):
        hist = state.history
        for r0, r1 in zip(hist, hist[1:]):
            went_up = r1["lam"] > r0["lam"] + 1e-15
            went_down = r1["lam"] < r0["lam"] - 1e-15
            if r0["mean_cost"] > eps and went_down:
                return _result("trainer.lambda_direction", False,
                               "lam fell while cost exceeded the budget")
            if r0["mean_cost"] < eps and went_up:
                return _result("trainer.lambda_direction", False,
                               "lam rose while cost was under the budget")
            if expect_up is False and r0["mean_cost"] < eps and r0["lam"] > 0 and not went_down:
                break  # clipped at zero afterwards, nothing more to see
    return _result("trainer.lambda_direction", True,
                   "multiplier moves against the realized cost gap")


def check_separable_training(seed=15):
    feats = np.concatenate([np.full(20, 0.9), np.full(20, 0.1)])[:, None]
    labels = np.concatenate([np.ones(20, dtype=int), np.zeros(20, dtype=int)])
    ds = Dataset.from_arrays(feats, labels)
    model = init_model("linear-sigmoid", 1, seed=seed)
    runs = [(ds, TrainConfig(variant=variant, iters=500, batch_size=8, eps=eps, seed=seed), model)
            for variant, eps in (("df", 0.01), ("da", 0.01), ("aucm-baseline", 0.0))]
    # The attacked variants in one stack; the baseline does not attack.
    states = train_stacked(runs[:2]) + [train(*runs[2])]
    for (_, cfg, _), state in zip(runs, states):
        scores = score(state.model, ds.features)
        auc = auc_mann_whitney(scores[labels == 1], scores[labels == 0])
        if auc != 1.0:
            return _result("trainer.separable_training", False,
                           f"{cfg.variant}: training AUC {auc} after 500 iterations")
    return _result("trainer.separable_training", True,
                   "all variants rank the separable set perfectly")


# ----------------------------------------------------------------- data

def check_data_invariants(tmpdir=None, seed=16):
    import tempfile
    from pathlib import Path

    ds = gen_synthetic(200, 3, seed=seed)
    lt = make_long_tailed(ds, 0.2, seed=seed)
    if abs(lt.p_hat - (lt.labels == 1).mean()) > 0:
        return _result("data.invariants", False, "cached p_hat drifted")
    neg_before = ds.features[ds.labels == 0]
    neg_after = lt.features[lt.labels == 0]
    if not np.array_equal(neg_before, neg_after):
        return _result("data.invariants", False, "long-tailing touched negatives")
    cor = corrupt(lt, 0.1, seed=seed)
    if abs(cor.p_hat - lt.p_hat) > 0:
        return _result("data.invariants", False, "corruption changed p_hat")
    with tempfile.TemporaryDirectory(dir=tmpdir) as tmp:
        path = Path(tmp) / "ds.csv"
        save_csv(ds, path)
        again = load_csv(path)
        save_csv(again, path)
        third = load_csv(path)
        if not np.array_equal(again.features, third.features):
            return _result("data.invariants", False, "normalization not idempotent")
        if not np.array_equal(again.features, ds.features):
            return _result("data.invariants", False, "round-trip changed features")
    return _result("data.invariants", True,
                   "p_hat cache, negative preservation, and idempotence hold")


# ------------------------------------------------------------------ run

def run_all(scale: str = "full") -> list[CheckResult]:
    """Run every check in order; each result carries its elapsed seconds."""
    quick = scale == "quick"
    checks = [
        (check_score_range, dict(draws=1500 if quick else 10_000)),
        (check_model_gradients, dict(trials=25 if quick else 150)),
        (check_init_determinism, {}),
        (check_saddle_identity, dict(datasets=20 if quick else 100)),
        (check_closed_form_optimality, dict(datasets=5 if quick else 20)),
        (check_alpha_stationarity, dict(datasets=10 if quick else 50)),
        (check_auc_properties, dict(trials=40 if quick else 200)),
        (check_phi_dominance, dict(trials=40 if quick else 200)),
        (check_phi_monotone_lambda, dict(trials=20 if quick else 100)),
        (check_weak_duality, dict(instances=10 if quick else 50)),
        (check_dual_convexity, dict(trials=5 if quick else 25)),
        (check_barycenter_identity, dict(trials=100 if quick else 500)),
        (check_barycenter_brute_force, dict(trials=5 if quick else 25)),
        (check_domain_preservation, dict(iters=25 if quick else 60)),
        (check_trainer_determinism, dict(iters=15 if quick else 40)),
        (check_ablation_equivalence, dict(iters=30 if quick else 100)),
        (check_lambda_direction, dict(iters=15 if quick else 40)),
        (check_separable_training, {}),
        (check_data_invariants, {}),
    ]
    results = []
    for check, kwargs in checks:
        start = time.perf_counter()
        res = check(**kwargs)
        results.append(replace(res, seconds=time.perf_counter() - start))
    return results
