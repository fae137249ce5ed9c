import math
from dataclasses import replace

import numpy as np
import pytest

from drauc import (AttackConfig, AuxParams, Dataset, DualState, ScoringModel,
                   attack_batch, auc_mann_whitney, barycenter_attack,
                   brute_force_worst_case, closed_form_aux, dual_curve,
                   estimate_robust_auc, forward, gen_synthetic, init_model,
                   min_cost_flip_search, robust_surrogate_exact_1d, score, surrogate_loss,
                   surrogate_loss_grads, train, TrainConfig, vjp_input)
from drauc.robust import _bind_ascent, _calibrate_multiplier, _suffix_argmin
from drauc.verification import check_phi_monotone_lambda

IDENT = ScoringModel("linear-identity-clamped", np.array([1.0, 0.0]), 1)
AUX0 = AuxParams(0.0, 0.0, 0.0)


class TestRobustSurrogate:
    def test_ascent_reaches_unit_box_optimum(self):
        # g(x') = 0.5 x'^2 + x' and lam = 1: maximize x' - 0.5 x'^2 on [0,1],
        # optimum 0.5 at x' = 1.
        cfg = AttackConfig(steps=50, step_size=0.5)
        (val,), (x_adv,) = attack_batch(IDENT, AUX0, 0.5, 1.0, np.array([[0.0]]), 0, cfg)
        assert abs(val - 0.5) <= 1e-4
        assert abs(x_adv[0] - 1.0) <= 1e-4

    def test_exact_oracle_interior_optimum(self):
        # lam = 10: maximize x' - 9.5 x'^2, optimum 1/19 with value 9.5/361.
        val, (x_adv, _) = robust_surrogate_exact_1d(
            IDENT, AUX0, 0.5, 10.0, (np.array([0.0]), 0), 100_001)
        assert val == pytest.approx(0.0263158, abs=1e-6)
        assert x_adv[0] == pytest.approx(1.0 / 19.0, abs=1e-4)

    def test_pga_agrees_with_exact_oracle_on_stable_step(self):
        cfg = AttackConfig(steps=300, step_size=0.04)
        (val,), _ = attack_batch(IDENT, AUX0, 0.5, 10.0, np.array([[0.0]]), 0, cfg)
        assert val == pytest.approx(9.5 / 361.0, abs=1e-6)

    def test_infinite_penalty_limit(self):
        cfg = AttackConfig(steps=10, step_size=0.05)
        for x0 in (0.3, 0.6):
            g0 = surrogate_loss(AUX0, 0.5, x0, 0)
            (val,), _ = attack_batch(IDENT, AUX0, 0.5, 1e6, np.array([[x0]]), 0, cfg)
            assert abs(val - g0) <= 1e-6
            assert val >= g0

    def test_best_iterate_safeguard(self):
        # One huge unstable step lands far below the start; the returned
        # pair must be the start itself.
        cfg = AttackConfig(steps=1, step_size=0.05)
        (val,), (x_adv,) = attack_batch(IDENT, AUX0, 0.5, 1e3, np.array([[0.3]]), 0, cfg)
        assert val == surrogate_loss(AUX0, 0.5, 0.3, 0)
        assert x_adv[0] == 0.3

    def test_dominance_property(self):
        rng = np.random.default_rng(11)
        cfg = AttackConfig(steps=10, step_size=0.05)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            arch = str(rng.choice(["linear-sigmoid", "mlp1-tanh-sigmoid(4)"]))
            m = init_model(arch, d, seed=int(rng.integers(2**31)))
            aux = AuxParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1))
            p_hat = float(rng.uniform(0.1, 0.9))
            lam = float(10 ** rng.uniform(-3, 6))
            x = rng.uniform(0, 1, size=d)
            y = int(rng.integers(2))
            g0 = surrogate_loss(aux, p_hat, score(m, x), y)
            (val,), x_adv = attack_batch(m, aux, p_hat, lam, x[None, :], y, cfg)
            assert val >= g0 - 1e-12
            assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    @pytest.mark.parametrize("lam", [-5.0, math.nan, math.inf, [1.0, -5.0], [[1.0]]])
    def test_exact_oracle_rejects_bad_multiplier(self, lam):
        with pytest.raises(ValueError, match="lam"):
            robust_surrogate_exact_1d(IDENT, AUX0, 0.5, lam, (np.array([0.3]), 0), 101)

    def test_exact_oracle_monotone_in_lambda(self):
        res = check_phi_monotone_lambda(trials=100, seed=12)
        assert res.passed, res.detail


ARCHS = ["linear-sigmoid", "mlp1-tanh-sigmoid(4)", "linear-identity-clamped"]


def attack_instance(arch, seed, n=12, d=2):
    rng = np.random.default_rng(seed)
    model = init_model(arch, d, seed=seed)
    if arch != "linear-identity-clamped":
        # Steep scorers, so that large steps overshoot the best iterate.
        model = replace(model, params=8.0 * model.params)
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = (np.arange(n) % 3 == 0).astype(int)
    return model, AuxParams(0.3, 0.6, -0.2), x, y


def three_pass_ascent(model, aux, p_hat, lam, x0, y, cfg):
    """The ascent with a separate forward pass for the step's score, its
    input gradient and the new iterate's penalized value."""
    def penalized(x):
        return surrogate_loss(aux, p_hat, score(model, x), y) \
            - lam * ((x - x0) ** 2).sum(axis=1)

    best_x, best_val = x0.copy(), penalized(x0)
    x_cur = x0.copy()
    for _ in range(cfg.steps):
        d_f = surrogate_loss_grads(aux, p_hat, score(model, x_cur), y)[0]
        _, cache = forward(model, x_cur)
        grad = vjp_input(model, cache, d_f) - 2.0 * lam * (x_cur - x0)
        x_cur = np.clip(x_cur + cfg.step_size * grad, 0.0, 1.0)
        vals = penalized(x_cur)
        improved = vals > best_val
        best_val = np.where(improved, vals, best_val)
        best_x[improved] = x_cur[improved]
    return best_val, best_x


def clip_forward(model, x):
    """``forward`` with per-call parameter slices, a scalar output bias and
    np.clip for the clamps."""
    p, d, h = model.params, model.input_dim, model.hidden_width
    if model.arch == "mlp1-tanh-sigmoid":
        hidden = np.tanh(x @ p[: h * d].reshape(h, d).T + p[h * d : h * d + h])
        f = 1.0 / (1.0 + np.exp(-np.clip(hidden @ p[h * d + h : -1] + p[-1], -500.0, 500.0)))
        return f, (x, hidden, f * (1.0 - f))
    u = x @ p[:d] + p[d]
    if model.arch == "linear-identity-clamped":
        return np.clip(u, 0.0, 1.0), (x, None, ((u >= 0.0) & (u <= 1.0)).astype(float))
    f = 1.0 / (1.0 + np.exp(-np.clip(u, -500.0, 500.0)))
    return f, (x, None, f * (1.0 - f))


def masked_ascent(model, aux, p, lam, x0, y, cfg):
    """The one-pass ascent with g and dg/df as 0/1-masked sums of both
    classes' terms, np.clip projection and a fancy-index best update.
    Also counts the coordinates the projection moved and the rows whose
    best iterate is not the last."""
    lam = np.asarray(lam, dtype=float)
    pos = np.broadcast_to(np.asarray(y), (x0.shape[0],)) == 1
    neg = ~pos
    x_cur, best_x, projected = x0, x0.copy(), 0
    for k in range(cfg.steps + 1):
        f, cache = clip_forward(model, x_cur)
        g = ((1.0 - p) * (f - aux.a) ** 2 * pos + p * (f - aux.b) ** 2 * neg
             + 2.0 * (1.0 + aux.alpha) * (p * f * neg - (1.0 - p) * f * pos)
             - p * (1.0 - p) * aux.alpha**2)
        d_f = (2.0 * (1.0 - p) * (f - aux.a) * pos + 2.0 * p * (f - aux.b) * neg
               + 2.0 * (1.0 + aux.alpha) * (p * neg - (1.0 - p) * pos))
        vals = g - lam * ((x_cur - x0) ** 2).sum(axis=1)
        if k == 0:
            best_val = vals
        else:
            improved = vals > best_val
            best_val = np.where(improved, vals, best_val)
            best_x[improved] = x_cur[improved]
        if k == cfg.steps:
            break
        grad = vjp_input(model, cache, d_f) - 2.0 * lam[..., None] * (x_cur - x0)
        step = x_cur + cfg.step_size * grad
        x_cur = np.clip(step, 0.0, 1.0)
        projected += int((x_cur != step).sum())
    return best_val, best_x, projected, int(np.any(best_x != x_cur, axis=1).sum())


class TestAttackBatch:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_values_match_points(self, arch):
        # Large steps overshoot, so the best iterate is often not the last.
        model, aux, x, y = attack_instance(arch, 31)
        lam = 10.0 ** np.linspace(-2.0, 1.0, x.shape[0])
        moved = 0
        for step_size in (0.2, 1.0, 3.0):
            cfg = AttackConfig(steps=8, step_size=step_size)
            vals, x_adv = attack_batch(model, aux, 0.4, lam, x, y, cfg)
            moved += int(np.any(x_adv != x, axis=1).sum())
            for i in range(x.shape[0]):
                expect = surrogate_loss(aux, 0.4, score(model, x_adv[i]), y[i]) \
                    - lam[i] * ((x_adv[i] - x[i]) ** 2).sum()
                assert abs(vals[i] - expect) <= 1e-15
        assert moved > 0

    @pytest.mark.parametrize("arch", ARCHS)
    def test_per_row_multiplier_matches_per_class_calls(self, arch):
        model, aux, x, y = attack_instance(arch, 32)
        cfg = AttackConfig(steps=10, step_size=0.1)
        lam_pos, lam_neg = 0.4, 3.0
        vals, x_adv = attack_batch(model, aux, 0.4, np.where(y == 1, lam_pos, lam_neg),
                                   x, y, cfg)
        for label, lam in ((1, lam_pos), (0, lam_neg)):
            mask = y == label
            vals_c, x_c = attack_batch(model, aux, 0.4, lam, x[mask], label, cfg)
            assert np.abs(vals[mask] - vals_c).max() <= 1e-12
            assert np.abs(x_adv[mask] - x_c).max() <= 1e-12

    def test_multiplier_validation(self):
        model, aux, x, y = attack_instance("linear-sigmoid", 33)
        cfg = AttackConfig()
        lam = np.full(x.shape[0], 0.5)
        lam[3] = -1e-9
        with pytest.raises(ValueError):
            attack_batch(model, aux, 0.4, lam, x, y, cfg)
        with pytest.raises(ValueError):
            attack_batch(model, aux, 0.4, np.full(x.shape[0] - 1, 0.5), x, y, cfg)
        with pytest.raises(ValueError):
            attack_batch(model, aux, 0.4, -0.1, x, y, cfg)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, "one NaN row"])
    def test_non_finite_multiplier_rejected(self, lam):
        model, aux, x, y = attack_instance("linear-sigmoid", 33)
        if lam == "one NaN row":
            lam = np.full(x.shape[0], 0.1)
            lam[1] = math.nan
        with pytest.raises(ValueError, match="lam must be finite"):
            attack_batch(model, aux, 0.4, lam, x, y, AttackConfig())

    @pytest.mark.parametrize("arch", ARCHS)
    def test_scalar_multiplier_as_before(self, arch):
        model, aux, x, y = attack_instance(arch, 34)
        cfg = AttackConfig(steps=8, step_size=1.0)
        vals, x_adv = attack_batch(model, aux, 0.4, 0.7, x, y, cfg)
        ref_vals, ref_x = three_pass_ascent(model, aux, 0.4, 0.7, x, y, cfg)
        assert np.array_equal(vals, ref_vals) and np.array_equal(x_adv, ref_x)
        vec_vals, vec_x = attack_batch(model, aux, 0.4, np.full(x.shape[0], 0.7),
                                       x, y, cfg)
        assert np.array_equal(vals, vec_vals) and np.array_equal(x_adv, vec_x)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_stacked_runs_match_their_own_calls_bitwise(self, arch):
        # Three runs: their own models, batches, aux, p_hat and per-row
        # multipliers, one of them all 0 (its penalty off when alone).
        runs = [attack_instance(arch, seed) for seed in (35, 36, 37)]
        auxs = [(0.3, 0.6, -0.2), (0.1, 0.9, 0.5), (0.7, 0.2, -0.9)]
        p_hats = [0.4, 0.15, 0.8]
        rng = np.random.default_rng(38)
        lams = np.stack([10.0 ** rng.uniform(-2, 2, 12), np.zeros(12), np.full(12, 0.5)])
        model = replace(runs[0][0], params=np.stack([m.params for m, _, _, _ in runs]))
        x = np.stack([x for _, _, x, _ in runs])
        y = np.stack([y for _, _, _, y in runs])
        cfg = AttackConfig(steps=8, step_size=1.0)
        vals, x_adv = attack_batch(model, auxs, p_hats, lams, x, y, cfg)
        assert vals.shape == (3, 12) and x_adv.shape == (3, 12, 2)
        for r, (m, _, x_r, y_r) in enumerate(runs):
            want_vals, want_x = attack_batch(m, AuxParams(*auxs[r]), p_hats[r], lams[r],
                                             x_r, y_r, cfg)
            assert vals[r].tobytes() == want_vals.tobytes()
            assert x_adv[r].tobytes() == want_x.tobytes()
        with pytest.raises(ValueError, match="one value or one per row"):
            attack_batch(model, auxs, p_hats, lams[0], x, y, cfg)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_per_row_multipliers_match_masked_form_bitwise(self, arch):
        # Step sizes up to 3 reach the box faces and overshoot the best
        # iterate; some multipliers are 0.
        model, _, x, y = attack_instance(arch, 35, n=40)
        lam = 10.0 ** np.linspace(-2.0, 1.0, x.shape[0])
        lam[::7] = 0.0
        if arch == "linear-identity-clamped":
            # Pre-activations in [-0.3, 1.3]: rows on the ramp and on both clamps.
            model = replace(model, params=np.array([0.9, 0.7, -0.3]))
        models = [model]
        if arch.startswith("mlp"):
            # Output pre-activations beyond +-500 on some rows, where the
            # sigmoid's clamp engages and scores saturate to 1.0.
            steep = replace(model, params=np.concatenate(
                [model.params[:-5], 400.0 * model.params[-5:-1], [-300.0]]))
            hidden = forward(steep, x)[1][1]
            assert np.abs(hidden @ steep.v + steep.b).max() > 500.0
            models.append(steep)
        f0 = score(model, x)
        auxes = [AuxParams(0.3, 0.6, -0.2),
                 AuxParams(1.0, 0.0, -1.0),  # alpha = -1, so 2(1+alpha) = 0
                 AuxParams(float(f0[0]), float(f0[1]), 0.0)]  # f == a, f == b
        projected = earlier = 0
        for m in models:
            for aux in auxes:
                for step_size in (0.2, 1.0, 3.0):
                    cfg = AttackConfig(steps=8, step_size=step_size)
                    got = attack_batch(m, aux, 0.4, lam, x, y, cfg)
                    *want, n_projected, n_earlier = masked_ascent(
                        m, aux, 0.4, lam, x, y, cfg)
                    for g, w in zip(got, want):
                        assert g.shape == w.shape and g.tobytes() == w.tobytes()
                    projected += n_projected
                    earlier += n_earlier
        assert projected > 0 and earlier > 0


    @pytest.mark.parametrize("arch", ARCHS)
    def test_zero_multipliers_match_references_bitwise(self, arch):
        # Every multiplier 0: the ascent skips the penalty's work.  Rows
        # start on both box faces, and step sizes up to 3 leave them and
        # overshoot the best iterate.
        model, aux, x, y = attack_instance(arch, 36, n=40)
        x[0], x[1], x[2, 0], x[3, 1] = 0.0, 1.0, 0.0, 1.0
        models = [model]
        if arch == "linear-identity-clamped":
            models = [replace(model, params=np.array([0.9, 0.7, -0.3]))]
        if arch.startswith("mlp"):
            # Output pre-activations beyond +-500 on some rows, where the
            # sigmoid's clamp engages.
            steep = replace(model, params=np.concatenate(
                [model.params[:-5], 400.0 * model.params[-5:-1], [-300.0]]))
            assert np.abs(forward(steep, x)[1][1] @ steep.v + steep.b).max() > 500.0
            models.append(steep)
        projected = 0
        for m in models:
            for step_size in (0.2, 1.0, 3.0):
                cfg = AttackConfig(steps=8, step_size=step_size)
                want = three_pass_ascent(m, aux, 0.4, 0.0, x, y, cfg)
                for lam in (0.0, np.zeros(x.shape[0])):
                    got = attack_batch(m, aux, 0.4, lam, x, y, cfg)
                    *masked, n_projected, _ = masked_ascent(m, aux, 0.4, lam, x, y, cfg)
                    for g, w, v in zip(got, want, masked):
                        assert g.shape == w.shape and g.tobytes() == w.tobytes() == v.tobytes()
                    projected += n_projected
        assert projected > 0


def calibrate_per_attack(model, aux, p_hat, x0, y, radius, cfg, lambda_max, iters=60):
    """``_calibrate_multiplier`` with one ``attack_batch`` call per
    multiplier, each binding its own ascent."""
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


class TestBoundAscent:
    """One bound ascent serves many multipliers, each bitwise its own
    fresh ascent."""

    @pytest.mark.parametrize("steps", [1, 2, 10])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_runs_match_masked_form_bitwise(self, arch, steps):
        model, aux, x, y = attack_instance(arch, 37, n=30)
        x[0], x[1, 0] = 0.0, 1.0  # rows on the box faces
        cfg = AttackConfig(steps=steps, step_size=1.0)
        lam_rows = 10.0 ** np.linspace(-2.0, 1.0, x.shape[0])
        lam_rows[::5] = 0.0
        ascent = _bind_ascent(model, aux, 0.4, x, y, cfg, reuse=True)
        # Scalar, per-row and all-zero multipliers, each run twice on the
        # same binding and once through a fresh ``attack_batch``.
        lams = [0.7, lam_rows, 0.0, np.zeros(x.shape[0])]
        for lam in lams + lams:
            *want, _, _ = masked_ascent(model, aux, 0.4, lam, x, y, cfg)
            for got in (ascent.run(np.asarray(lam, dtype=float)),
                        attack_batch(model, aux, 0.4, lam, x, y, cfg)):
                for g, w in zip(got, want):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 10])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_calibration_matches_one_attack_per_multiplier(self, arch, steps):
        model, aux, x, y = attack_instance(arch, 38, n=30)
        if arch == "linear-identity-clamped":  # rows on the ramp, so the attack moves
            model = replace(model, params=np.array([0.9, 0.7, -0.3]))
        cfg = AttackConfig(steps=steps, step_size=0.5)
        free = {}  # mean cost of the unpenalized attack, per row set
        for name, mask in (("all", slice(None)), ("pos", y == 1), ("neg", y == 0)):
            _, adv = attack_batch(model, aux, 0.4, 0.0, x[mask], y[mask], cfg)
            free[name] = float(((adv - x[mask]) ** 2).sum(axis=1).mean())
            assert free[name] > 0.0
        cases = [(slice(None), 0.25 * free["all"], True),   # binding
                 (slice(None), 2.0 * free["all"], False),   # slack
                 (y == 1, 0.3 * free["pos"], True),         # a per-class pair
                 (y == 0, 0.5 * free["neg"], True)]
        for mask, radius, binding in cases:
            args = (model, aux, 0.4, x[mask], y[mask], radius, cfg, 1e3)
            lam, adv = _calibrate_multiplier(*args)
            want_lam, want_adv = calibrate_per_attack(*args)
            assert lam == want_lam and (lam > 0.0) == binding
            assert adv.shape == want_adv.shape and adv.tobytes() == want_adv.tobytes()

    def test_overspending_lambda_max_returns_the_start(self):
        # Under lambda_max = 1e-9 the attack still costs 0.0074, 74 times
        # the radius: the feasible answer is to move no row.
        ds = gen_synthetic(200, 2, seed=3)
        model = init_model("linear-sigmoid", 2, seed=3)
        scores = score(model, ds.features)
        aux = closed_form_aux(scores[ds.labels == 1], scores[ds.labels == 0])
        lam, adv = _calibrate_multiplier(model, aux, ds.p_hat, ds.features, ds.labels,
                                         1e-4, AttackConfig(), 1e-9)
        assert ((adv - ds.features) ** 2).sum(axis=1).mean() <= 1e-4
        nominal = auc_mann_whitney(scores[ds.labels == 1], scores[ds.labels == 0])
        assert estimate_robust_auc(model, ds, 1e-4, aux, lambda_max=1e-9) == nominal


def example1_style_instance():
    feats = np.array([[0.99], [0.01], [0.01], [0.01]])
    labels = np.array([1, 0, 0, 0])
    ds = Dataset.from_arrays(feats, labels)
    aux = closed_form_aux([0.99], [0.01, 0.01, 0.01])
    return ds, aux, ds.p_hat


class TestDualCurve:
    def test_zero_budget_recovers_nominal_risk(self):
        ds, aux, p_hat = example1_style_instance()
        nominal = float(np.mean(surrogate_loss(
            aux, p_hat, ds.features[:, 0], ds.labels)))
        grid = np.concatenate([np.linspace(0, 10, 50), [1e3]])
        res = dual_curve(IDENT, aux, p_hat, ds, 0.0, grid, grid_resolution=2001)
        assert res.best_value <= nominal + 1e-6
        assert res.curve[-1] == pytest.approx(nominal, abs=1e-6)

    def test_convex_in_lambda(self):
        ds, aux, p_hat = example1_style_instance()
        grid = np.linspace(0.0, 20.0, 81)
        res = dual_curve(IDENT, aux, p_hat, ds, 0.05, grid, grid_resolution=1001)
        c = res.curve
        assert ((c[1:-1] - 0.5 * (c[:-2] + c[2:])) <= 1e-9).all()

    def test_weak_duality_against_brute_force(self):
        ds, aux, p_hat = example1_style_instance()
        eps = p_hat * (1 - p_hat) * 0.98**2
        sup, _ = brute_force_worst_case(ds, eps, 1001, aux, p_hat, IDENT)
        grid = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 60)])
        res = dual_curve(IDENT, aux, p_hat, ds, eps, grid, grid_resolution=1001)
        assert (res.curve >= sup - 1e-9).all()

    def test_refuses_multidim(self):
        ds = gen_synthetic(16, 2, seed=0)
        m = init_model("linear-sigmoid", 2, seed=0)
        with pytest.raises(ValueError, match="d=2"):
            dual_curve(m, AuxParams(0.5, 0.5, 0.0), 0.5, ds, 0.01, [0.0, 1.0])

    def test_grid_validation(self):
        ds, aux, p_hat = example1_style_instance()
        with pytest.raises(ValueError):
            dual_curve(IDENT, aux, p_hat, ds, 0.0, [])
        with pytest.raises(ValueError):
            dual_curve(IDENT, aux, p_hat, ds, 0.0, [1.0, 0.5])
        with pytest.raises(ValueError):
            dual_curve(IDENT, aux, p_hat, ds, 0.0, [-1.0, 0.5])

    @pytest.mark.parametrize("lams", [[0.0, math.nan], [0.0, 1.0, math.inf]])
    def test_non_finite_multiplier_rejected(self, lams):
        ds, aux, p_hat = example1_style_instance()
        with pytest.raises(ValueError, match="lambda_grid"):
            dual_curve(IDENT, aux, p_hat, ds, 0.0, lams)

    def test_budget_validation(self):
        ds, aux, p_hat = example1_style_instance()
        for eps in (-0.1, math.nan):
            with pytest.raises(ValueError, match="eps"):
                dual_curve(IDENT, aux, p_hat, ds, eps, [0.0, 1.0])


def full_scan_phi_1d(model, aux, p_hat, features, labels, grid_resolution):
    """Exact 1-D phi as a function of lam, scanning every grid point of each
    class for every multiplier: the form the oracle had before the shared
    per-point frontier."""
    grid = np.linspace(0.0, 1.0, grid_resolution)
    f_grid = score(model, grid[:, None])
    x = features[:, 0]
    g_own = surrogate_loss(aux, p_hat, score(model, features), labels)
    classes = []
    for y in (0, 1):
        mask = labels == y
        if mask.any():
            classes.append((mask, surrogate_loss(aux, p_hat, f_grid, y)[None, :],
                            (x[mask, None] - grid[None, :]) ** 2, g_own[mask]))

    def phi(lam):
        out = np.empty(x.size)
        for mask, g_grid, cost, own in classes:
            out[mask] = np.maximum((g_grid - lam * cost).max(axis=1), own)
        return out
    return phi


def full_scan_argmax(model, aux, p_hat, lam, x0, y, grid_resolution):
    """Every candidate (the grid, then the point itself) with its penalized
    value, and the index of the first maximum."""
    grid = np.linspace(0.0, 1.0, grid_resolution)
    cand = np.append(grid, x0)
    f = np.append(score(model, grid[:, None]), score(model, np.array([[x0]])))
    obj = surrogate_loss(aux, p_hat, f, y) - lam * (cand - x0) ** 2
    return cand, obj, int(np.argmax(obj))


def frontier_pick(cost, gain, lam):
    """Index of the first maximum of gain - lam*cost over the Pareto
    frontier of every destination (a stable sort by cost, then by falling
    gain, and a running maximum): the least cost, then the highest gain,
    then the lowest index."""
    order = np.lexsort((-gain, cost))
    g = gain[order]
    front = order[np.concatenate([[True], g[1:] > np.maximum.accumulate(g)[:-1]])]
    return int(front[np.argmax(gain[front] - lam * cost[front])])


def tiny_instances(seed, count):
    """The random 1-D instances drawn by ``check_weak_duality`` (seed 7) and
    ``check_dual_convexity`` (seed 8)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        feats = rng.uniform(0, 1, size=(n, 1))
        labels = rng.integers(0, 2, size=n)
        aux = AuxParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1))
        p_hat = float(rng.uniform(0.1, 0.9))
        eps = float(rng.uniform(0, 0.25)) if rng.random() > 0.15 else 0.0
        yield Dataset.from_arrays(feats, labels), aux, p_hat, eps, IDENT


def mlp_instance():
    """A steep d=1 mlp at n=12: the mean over points takes NumPy's pairwise
    summation, and the grid's and the points' scores come from BLAS."""
    rng = np.random.default_rng(21)
    model = init_model("mlp1-tanh-sigmoid(8)", 1, seed=3)
    model = replace(model, params=4.0 * model.params)
    ds = Dataset.from_arrays(rng.uniform(0, 1, size=(12, 1)),
                             (np.arange(12) % 3 == 0).astype(int))
    return ds, AuxParams(0.3, 0.6, -0.2), ds.p_hat, 0.05, model


WEAK_DUALITY_LAMS = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 99)])
CONVEXITY_LAMS = np.linspace(0.0, 20.0, 41)


class TestFrontierMatchesFullScan:
    """The oracles read each point's Pareto frontier; a full scan of every
    destination gives the same IEEE values."""

    CASES = ([(inst, WEAK_DUALITY_LAMS, 1001) for inst in tiny_instances(7, 50)]
             + [(inst, CONVEXITY_LAMS, 501) for inst in tiny_instances(8, 25)]
             + [(mlp_instance(), WEAK_DUALITY_LAMS, 1001)])

    def test_dual_curve_bitwise(self):
        for (ds, aux, p_hat, eps, model), lams, res in self.CASES:
            phi = full_scan_phi_1d(model, aux, p_hat, ds.features, ds.labels, res)
            want = np.array([lam * eps + phi(lam).mean() for lam in map(float, lams)])
            best = int(np.argmin(want))
            got = dual_curve(model, aux, p_hat, ds, eps, lams, grid_resolution=res)
            assert got.curve.tobytes() == want.tobytes()
            assert (got.best_lambda, got.best_value) == (lams[best], want[best])

    def test_exact_oracle_bitwise(self):
        for (ds, aux, p_hat, eps, model), lams, res in self.CASES:
            for x0, y in zip(ds.features[:, 0], ds.labels):
                z = (np.array([x0]), int(y))
                picks = robust_surrogate_exact_1d(model, aux, p_hat, lams[::9], z, res)
                assert len(picks) == len(lams[::9])
                for lam, pick in zip(map(float, lams[::9]), picks):
                    val, (x_adv, y_adv) = robust_surrogate_exact_1d(
                        model, aux, p_hat, lam, z, res)
                    assert type(val) is type(pick[0]) is float
                    assert np.float64(pick[0]).tobytes() == np.float64(val).tobytes()
                    assert pick[1][0].tobytes() == x_adv.tobytes() and pick[1][1] == y_adv
                    cand, obj, i = full_scan_argmax(model, aux, p_hat, lam, x0, int(y), res)
                    assert np.float64(val).tobytes() == obj[i].tobytes()
                    assert y_adv == y
                    if x_adv[0] != cand[i]:  # only where another destination ties
                        assert (obj[cand == x_adv[0]] == obj[i]).any()

    def test_exact_oracle_point_is_frontier_pick(self):
        # A constant scorer, clamped and saturated ones, points on the grid
        # and lam = 0 make many destinations tie.
        models = [IDENT, ScoringModel("linear-identity-clamped", np.array([0.0, 0.5]), 1),
                  ScoringModel("linear-identity-clamped", np.array([3.0, -1.0]), 1),
                  ScoringModel("linear-sigmoid", np.array([80.0, -40.0]), 1)]
        res = 101
        grid = np.linspace(0.0, 1.0, res)
        first_max_differs = 0
        for model in models:
            for x0 in (0.0, grid[37], 0.3731, 1.0):
                for y in (0, 1):
                    for lam in (0.0, 0.5, 1e3):
                        val, (x_adv, _) = robust_surrogate_exact_1d(
                            model, AuxParams(0.3, 0.6, -0.2), 0.4, lam,
                            (np.array([x0]), y), res)
                        cand, obj, first = full_scan_argmax(
                            model, AuxParams(0.3, 0.6, -0.2), 0.4, lam, x0, y, res)
                        gain = surrogate_loss(AuxParams(0.3, 0.6, -0.2), 0.4, np.append(
                            score(model, grid[:, None]), score(model, np.array([[x0]]))), y)
                        i = frontier_pick((cand - x0) ** 2, gain, lam)
                        assert np.float64(val).tobytes() == obj[i].tobytes()
                        assert x_adv.tobytes() == cand[i:i + 1].tobytes()
                        first_max_differs += i != first
        assert first_max_differs > 0


def pareto_front(costs, gains, cap):
    """Entries within ``cap`` that no cheaper-or-equal, better-or-equal entry
    dominates, by ascending cost; ties keep the lowest index."""
    ok = np.flatnonzero(costs <= cap)
    order = ok[np.lexsort((-gains[ok], costs[ok]))]
    g = gains[order]
    return order[np.concatenate([[True], g[1:] > np.maximum.accumulate(g)[:-1]])]


def unpruned_worst_case(ds, eps, res, aux, p_hat):
    """The brute-force oracle for the identity scorer with each joint
    frontier pruned from its full product: fold each half's points in one
    at a time, then pair each entry of the first half with the last
    affordable entry of the second."""
    x, labels = ds.features[:, 0], ds.labels
    cap = ds.n * eps + 1e-12 * max(1.0, ds.n * eps)
    grid = np.linspace(0.0, 1.0, res)
    halves = []
    for points in (range(ds.n // 2), range(ds.n // 2, ds.n)):
        pos, costs, gains = np.zeros((1, 0)), np.zeros(1), np.zeros(1)
        for i in points:
            cand = np.append(grid, x[i])
            cost = (cand - x[i]) ** 2
            gain = surrogate_loss(aux, p_hat, cand, int(labels[i]))
            f = pareto_front(cost, gain, cap)
            cand, cost, gain = cand[f], cost[f], gain[f]
            comb_cost = (costs[:, None] + cost).ravel()
            comb_gain = (gains[:, None] + gain).ravel()
            keep = pareto_front(comb_cost, comb_gain, cap)
            rows, cols = np.divmod(keep, cand.size)
            pos = np.hstack([pos[rows], cand[cols, None]])
            costs, gains = comb_cost[keep], comb_gain[keep]
        halves.append((pos, costs, gains))
    (pos_a, cost_a, gain_a), (pos_b, cost_b, gain_b) = halves
    match = np.searchsorted(cost_b, cap - cost_a, side="right") - 1
    totals = gain_a + gain_b[match]
    best = int(np.argmax(totals))
    return float(totals[best] / ds.n), np.concatenate([pos_a[best], pos_b[match[best]]])


class TestBruteForceWorstCase:
    def test_zero_budget_is_nominal(self):
        ds, aux, p_hat = example1_style_instance()
        sup, pos = brute_force_worst_case(ds, 0.0, 1001, aux, p_hat, IDENT)
        nominal = float(np.mean(surrogate_loss(
            aux, p_hat, ds.features[:, 0], ds.labels)))
        assert sup == pytest.approx(nominal, abs=1e-12)
        assert np.array_equal(pos, ds.features[:, 0])

    def test_single_point_budget_cap(self):
        # g increasing on [0,1]; (x')^2 <= 0.25 allows x' = 0.5,
        # g(0.5) = 0.5*0.25 + 0.5 = 0.625.
        ds = Dataset.from_arrays(np.array([[0.0]]), np.array([0]))
        sup, pos = brute_force_worst_case(ds, 0.25, 1001, AUX0, 0.5, IDENT)
        assert sup == pytest.approx(0.625, abs=1e-9)
        assert pos[0] == pytest.approx(0.5, abs=1e-9)

    def test_two_points_share_budget(self):
        # Only x = 0 can usefully move (to 0.5); x = 1 is already maximal.
        ds = Dataset.from_arrays(np.array([[0.0], [1.0]]), np.array([0, 0]))
        sup, pos = brute_force_worst_case(ds, 0.125, 1001, AUX0, 0.5, IDENT)
        assert sup == pytest.approx(1.0625, abs=1e-9)
        assert pos == pytest.approx([0.5, 1.0], abs=1e-9)

    def test_nan_budget_rejected(self):
        ds = Dataset.from_arrays(np.array([[0.0], [1.0]]), np.array([0, 0]))
        with pytest.raises(ValueError, match="eps must be >= 0"):
            brute_force_worst_case(ds, math.nan, 1001, AUX0, 0.5, IDENT)

    def test_refuses_large_instances(self):
        big = Dataset.from_arrays(np.zeros((7, 1)), np.zeros(7, dtype=int))
        with pytest.raises(ValueError):
            brute_force_worst_case(big, 0.1, 1001, AUX0, 0.5, IDENT)
        wide = Dataset.from_arrays(np.zeros((2, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            brute_force_worst_case(wide, 0.1, 1001, AUX0, 0.5,
                                   init_model("linear-sigmoid", 2, 0))
        ds = Dataset.from_arrays(np.array([[0.0]]), np.array([0]))
        with pytest.raises(ValueError):
            brute_force_worst_case(ds, 0.1, 51, AUX0, 0.5, IDENT)

    def test_matches_raw_enumeration(self):
        rng = np.random.default_rng(13)
        res = 101
        grid = np.linspace(0, 1, res)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            feats = rng.uniform(0, 1, size=(n, 1))
            labels = rng.integers(0, 2, size=n)
            ds = Dataset.from_arrays(feats, labels)
            aux = AuxParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1))
            p_hat = float(rng.uniform(0.1, 0.9))
            eps = float(rng.uniform(0, 0.3))
            sup, _ = brute_force_worst_case(ds, eps, res, aux, p_hat, IDENT)
            # Every tuple of per-point destinations: axis i indexes point
            # i's candidates.  Costs and gains are summed point by point, in
            # the order a loop over the tuple would add them.  Each move is
            # squared as a scalar: an array's ``** 2`` can differ in the last
            # bit, which could move a tuple across the budget filter.
            cost = gain = np.zeros(())
            for i in range(n):
                cand = np.append(grid, feats[i, 0])
                move = np.array([(c - feats[i, 0]) ** 2 for c in cand])
                cost = cost[..., None] + move
                gain = gain[..., None] + surrogate_loss(aux, p_hat, cand, int(labels[i]))
            best = gain[cost <= n * eps + 1e-12].max()
            assert sup == pytest.approx(best / n, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_sequential_merge(self, n):
        # Reference: fold the points in one at a time, keeping every
        # feasible entry no other feasible entry dominates.
        rng = np.random.default_rng(100 + n)
        res = 101
        grid = np.linspace(0, 1, res)
        for _ in range(3):
            feats = rng.uniform(0, 1, size=(n, 1))
            labels = rng.integers(0, 2, size=n)
            ds = Dataset.from_arrays(feats, labels)
            aux = AuxParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1))
            p_hat = float(rng.uniform(0.1, 0.9))
            eps = float(rng.uniform(0.01, 0.1))
            cap = n * eps + 1e-12 * max(1.0, n * eps)
            sup, pos = brute_force_worst_case(ds, eps, res, aux, p_hat, IDENT)

            assert ((pos - feats[:, 0]) ** 2).sum() <= cap
            attained = surrogate_loss(aux, p_hat, score(IDENT, pos[:, None]), labels)
            assert float(np.mean(attained)) == pytest.approx(sup, abs=1e-12)

            costs, gains = np.zeros(1), np.zeros(1)
            for i in range(n):
                cand = np.append(grid, feats[i, 0])
                g = surrogate_loss(aux, p_hat, cand, int(labels[i]))
                costs = (costs[:, None] + (cand - feats[i, 0])[None, :] ** 2).ravel()
                gains = (gains[:, None] + g[None, :]).ravel()
                ok = costs <= cap
                costs, gains = costs[ok], gains[ok]
                order = np.lexsort((-gains, costs))
                costs, gains = costs[order], gains[order]
                undominated = np.concatenate(
                    [[True], gains[1:] > np.maximum.accumulate(gains)[:-1]])
                costs, gains = costs[undominated], gains[undominated]
            assert sup == pytest.approx(gains.max() / n, abs=1e-12)

    def test_matches_unpruned_fold_bitwise(self):
        # Random draws at the verify grid, then tie-heavy instances: every
        # point at one feature value with one label, so the joint products
        # hold many entries of equal cost and gain.
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(20):
            n = int(rng.integers(1, 5))
            ds = Dataset.from_arrays(rng.uniform(0, 1, size=(n, 1)), rng.integers(0, 2, size=n))
            aux = AuxParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1))
            cases.append((ds, aux, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 0.25))))
        for n, x, y in [(2, 0.0, 0), (3, 0.5, 1), (4, 0.3731, 0), (4, 1.0, 1), (3, 0.62, 0)]:
            ds = Dataset.from_arrays(np.full((n, 1), x), np.full(n, y))
            cases.append((ds, AuxParams(0.5, 0.5, 0.3), 0.4, 0.1))
        for ds, aux, p_hat, eps in cases:
            sup, pos = brute_force_worst_case(ds, eps, 1001, aux, p_hat, IDENT)
            want_sup, want_pos = unpruned_worst_case(ds, eps, 1001, aux, p_hat)
            assert np.float64(sup).tobytes() == np.float64(want_sup).tobytes()
            assert pos.tobytes() == want_pos.tobytes()

    def test_five_point_instance_pinned(self):
        # Its three-point half multiplies frontiers of about 20,000 and 600
        # entries; the values are those of the full-product merge.
        ds = Dataset.from_arrays(np.array([[0.95], [0.05], [0.9], [0.1], [0.62]]),
                                 np.array([1, 0, 1, 0, 0]))
        sup, pos = brute_force_worst_case(ds, 0.2, 1001, AuxParams(0.5, 0.5, 0.3), 0.4, IDENT)
        assert sup == 0.15671688
        assert pos.tolist() == [0.393, 0.355, 0.309, 0.421, 1.0]


class TestBarycenterAttack:
    def test_example_instance(self):
        atk = barycenter_attack(0.99, 0.01, 1, 99)
        assert atk.target == pytest.approx(0.0198, abs=1e-15)
        assert atk.cost == pytest.approx(0.0095080, abs=1e-6)
        assert atk.cost == pytest.approx(atk.bound, abs=1e-15)

    def test_coincident_clusters(self):
        assert barycenter_attack(0.4, 0.4, 3, 5).cost == 0.0

    def test_symmetric_two_body(self):
        atk = barycenter_attack(1.0, 0.0, 10, 10)
        assert atk.target == 0.5
        assert atk.cost == pytest.approx(0.25, abs=1e-15)

    def test_cost_identity_property(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            atk = barycenter_attack(rng.uniform(0, 1), rng.uniform(0, 1),
                                    int(rng.integers(1, 300)),
                                    int(rng.integers(1, 300)))
            assert abs(atk.cost - atk.bound) <= 1e-12

    def test_attack_zeroes_strict_auc(self):
        atk = barycenter_attack(0.99, 0.01, 1, 99)
        assert auc_mann_whitney([atk.target], [atk.target] * 99, "strict") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            barycenter_attack(1.2, 0.0, 1, 1)
        with pytest.raises(ValueError):
            barycenter_attack(0.5, 0.5, 0, 1)


def suffix_argmin_loop(values):
    out = np.empty(values.size, dtype=int)
    best = values.size - 1
    for j in range(values.size - 1, -1, -1):
        if values[j] <= values[best]:
            best = j
        out[j] = best
    return out


class TestMinCostFlipSearch:
    def test_suffix_argmin_matches_loop(self):
        rng = np.random.default_rng(16)
        grid = np.linspace(0.0, 1.0, 1001)
        arrays = [rng.uniform(size=int(rng.integers(1, 60))) for _ in range(100)]
        arrays += [rng.integers(0, 4, size=int(rng.integers(1, 60))).astype(float)
                   for _ in range(100)]
        for k in range(100):
            p = float(rng.uniform(0.01, 0.99))
            x_neg = float(grid[rng.integers(grid.size)] if k % 2 else rng.uniform())
            arrays.append((1.0 - p) * (x_neg - grid) ** 2)
        for values in arrays:
            assert np.array_equal(_suffix_argmin(values), suffix_argmin_loop(values))

    def test_matches_bound_on_example(self):
        atk = barycenter_attack(0.99, 0.01, 1, 99)
        min_cost, t_pos, t_neg = min_cost_flip_search(0.99, 0.01, 1, 99)
        assert atk.bound - 1e-12 <= min_cost <= atk.bound + 1e-5
        assert t_pos <= t_neg

    def test_grid_never_beats_closed_form(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            x_neg = float(rng.uniform(0.0, 0.45))
            x_pos = float(rng.uniform(x_neg + 0.05, 1.0))
            n_pos = int(rng.integers(1, 40))
            n_neg = int(rng.integers(1, 40))
            atk = barycenter_attack(x_pos, x_neg, n_pos, n_neg)
            min_cost, _, _ = min_cost_flip_search(x_pos, x_neg, n_pos, n_neg)
            assert atk.bound - 1e-12 <= min_cost <= atk.bound + 1e-5


@pytest.fixture(scope="module")
def trained():
    ds = gen_synthetic(240, 2, seed=21)
    cfg = TrainConfig(variant="df", iters=300, batch_size=32, seed=21)
    state = train(ds, cfg, init_model("linear-sigmoid", 2, 21))
    scores = score(state.model, ds.features)
    aux = closed_form_aux(scores[ds.labels == 1], scores[ds.labels == 0])
    return ds, state.model, aux


class TestEstimateRobustAuc:

    def test_zero_budget_equals_nominal(self, trained):
        ds, model, aux = trained
        scores = score(model, ds.features)
        nominal = auc_mann_whitney(scores[ds.labels == 1], scores[ds.labels == 0])
        assert estimate_robust_auc(model, ds, 0.0, aux) == nominal
        assert estimate_robust_auc(model, ds, (0.0, 0.0), aux) == nominal

    def test_non_increasing_in_budget(self, trained):
        ds, model, aux = trained
        cfg = AttackConfig(steps=10, step_size=0.05)
        vals = [estimate_robust_auc(model, ds, e, aux, cfg)
                for e in (0.0, 0.05, 0.1, 0.2)]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))

    def test_per_class_budgets_run(self, trained):
        ds, model, aux = trained
        cfg = AttackConfig(steps=10, step_size=0.05)
        val = estimate_robust_auc(model, ds, (0.05, 0.02), aux, cfg)
        assert 0.0 <= val <= 1.0

    def test_collapsed_instance_reaches_zero_strict_auc(self):
        # Identity scorer, clusters at 0.9 / 0.1; any budget above
        # p(1-p)(0.8)^2 = 0.16 lets the attack cross the classes.
        feats = np.array([[0.9], [0.9], [0.1], [0.1]])
        labels = np.array([1, 1, 0, 0])
        ds = Dataset.from_arrays(feats, labels)
        aux = closed_form_aux([0.9, 0.9], [0.1, 0.1])
        cfg = AttackConfig(steps=200, step_size=0.05)
        val = estimate_robust_auc(IDENT, ds, 0.2, aux, cfg, tie_policy="strict")
        assert val == 0.0

    def test_single_class_rejected(self):
        ds = Dataset.from_arrays(np.array([[0.4], [0.6]]), np.array([1, 1]))
        with pytest.raises(ValueError):
            estimate_robust_auc(IDENT, ds, 0.1, AUX0)

    def test_non_finite_budget_rejected(self, trained):
        ds, model, aux = trained
        for eps in (math.nan, math.inf, (math.nan, 0.05), (0.0, math.nan), -0.1):
            with pytest.raises(ValueError, match="eps"):
                estimate_robust_auc(model, ds, eps, aux)

    @pytest.mark.parametrize("eps", [(0.001, 0.001, 5.0), (0.001,), [0.001, 0.002, 0.003], (),
                                     np.array([0.001, 0.002, 0.003]), np.array([[0.01, 0.0]]),
                                     [0.01, (0.0, 0.0)]])
    def test_per_class_budgets_take_a_pair(self, trained, eps):
        ds, model, aux = trained
        with pytest.raises(ValueError, match="^eps must be one budget or an"):
            estimate_robust_auc(model, ds, eps, aux)

    def test_ndarray_pair_matches_tuple(self, trained):
        ds, model, aux = trained
        want = estimate_robust_auc(model, ds, (0.01, 0.0), aux)
        for eps in (np.array([0.01, 0.0]), [0.01, 0.0]):
            assert estimate_robust_auc(model, ds, eps, aux) == want
        assert estimate_robust_auc(model, ds, np.float64(0.01), aux) == \
            estimate_robust_auc(model, ds, 0.01, aux)

    @pytest.mark.parametrize("lambda_max", [0.0, -1.0, math.nan, math.inf])
    def test_lambda_max_validation(self, trained, lambda_max):
        ds, model, aux = trained
        with pytest.raises(ValueError, match="lambda_max"):
            estimate_robust_auc(model, ds, 0.01, aux, lambda_max=lambda_max)


class TestDualState:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            DualState(lambda_max=10.0, lam=(11.0,))
        with pytest.raises(ValueError):
            DualState(lambda_max=10.0, eps=(-0.1,))
        with pytest.raises(ValueError, match=r"lam\[1\]"):
            DualState(lambda_max=10.0, lam=(1.0, 11.0))
        DualState(lambda_max=10.0, lam=(10.0,), eps=(0.0,))  # boundaries allowed
        DualState(lambda_max=10.0, lam=(0.0, 10.0), eps=(0.0, 0.0))

    def test_attack_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(steps=0)
        with pytest.raises(ValueError):
            AttackConfig(step_size=0.0)

    @pytest.mark.parametrize("step_size", [math.nan, math.inf])
    def test_non_finite_step_size_rejected(self, step_size):
        with pytest.raises(ValueError, match="step_size must be finite"):
            AttackConfig(step_size=step_size)
