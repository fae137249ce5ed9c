import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from drauc import (AttackConfig, AuxParams, Dataset, DualState, ScoringModel, corrupt,
                   attack_batch, attack_dataset, auc_mann_whitney, barycenter_attack,
                   brute_force_worst_case, closed_form_aux, dual_curve,
                   evaluate, forward, gen_synthetic, init_model, make_long_tailed,
                   min_cost_flip_search, score, split_epsilon,
                   surrogate_loss, surrogate_loss_grads, train, TrainConfig, vjp_input)
from drauc import robust
from drauc.robust import _BoundAscent, _bind_ascent, _calibrate, _suffix_argmin
from drauc.verification import (check_barycenter_brute_force, check_barycenter_identity,
                                check_phi_monotone_lambda)

IDENT = ScoringModel("linear-identity-clamped", np.array([1.0, 0.0]), 1)
AUX0 = AuxParams(0.0, 0.0, 0.0)
TWO_POINTS = Dataset.from_arrays(np.array([[0.2], [0.8]]), np.array([0, 1]))


class TestRobustSurrogate:
    def test_ascent_reaches_unit_box_optimum(self):
        # g(x') = 0.5 x'^2 + x' and lam = 1: maximize x' - 0.5 x'^2 on [0,1],
        # optimum 0.5 at x' = 1.
        cfg = AttackConfig(steps=50, step_size=0.5)
        (val,), (x_adv,) = attack_batch(IDENT, AUX0, 0.5, 1.0, np.array([[0.0]]), 0, cfg)
        assert abs(val - 0.5) <= 1e-4
        assert abs(x_adv[0] - 1.0) <= 1e-4

    def test_dual_curve_interior_optimum(self):
        # lam = 10: maximize x' - 9.5 x'^2, optimum 1/19 with value 9.5/361 = 1/38.
        one = Dataset.from_arrays(np.array([[0.0]]), np.array([0]))
        res = dual_curve(IDENT, AUX0, 0.5, one, 0.0, [10.0], grid_resolution=100_001)
        assert res.curve[0] == pytest.approx(0.0263158, abs=1e-6)
        _, x_adv = frontier_first_max(IDENT, AUX0, 0.5, 10.0, 0.0, 0, 100_001)
        assert x_adv == pytest.approx(1.0 / 19.0, abs=1e-4)

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
    p, d, h = model.params, model.input_dim, model.W.shape[-2]
    if h:
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

    def test_config_validation(self):
        for kwargs, message in (({"steps": 0}, "steps must be >= 1, got 0"),
                                ({"steps": True}, "steps must be an integer, got True"),
                                ({"steps": 2.5}, "steps must be an integer, got 2.5"),
                                ({"step_size": 0.0}, "step_size must be finite and > 0"),
                                ({"step_size": True}, "step_size must be a real number")):
            with pytest.raises(ValueError, match="^" + message):
                AttackConfig(**kwargs)
        assert AttackConfig(steps=np.int64(3)).steps == 3

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

    @pytest.mark.parametrize("y", [5, -1, "one row 2"])
    def test_labels_other_than_0_and_1_rejected(self, y):
        model, aux, x, labels = attack_instance("linear-sigmoid", 33)
        if y == "one row 2":
            y = labels.copy()
            y[1] = 2
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            attack_batch(model, aux, 0.4, 0.1, x, y, AttackConfig())

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


def calibrate_per_attack(model, aux, p_hat, x0, y, radius, cfg):
    """``attack_dataset``'s calibration of one group with one
    ``attack_batch`` call per multiplier, each binding its own ascent."""
    return _calibrate(lambda lam: attack_batch(model, aux, p_hat, lam, x0, y, cfg)[1],
                      x0, radius)


def mean_cost(adv, x0):
    return float(((adv - x0) ** 2).sum(axis=1).mean())


def attack_group(model, aux, ds, mask, radius, cfg):
    """``attack_dataset`` on the rows ``mask`` of ``ds`` alone: the whole
    set under one budget, or one class under a pair whose other radius is
    0.  Returns the group's (lam, x_adv, cost), after checking that the
    other rows stay put, that the other group of a pair reports the search
    cap ``_LAMBDA_CAP`` and cost 0, and that the cost is the mean squared
    transport of the group's rows, bit for bit."""
    if isinstance(mask, slice):
        eps, g = radius, 0
    else:
        g = 0 if ds.labels[mask][0] == 1 else 1
        eps = (radius, 0.0) if g == 0 else (0.0, radius)
    atk = attack_dataset(model, ds, eps, aux, cfg)
    assert len(atk.lam) == len(atk.cost) == np.ndim(eps) + 1
    if np.ndim(eps):
        assert (atk.lam[1 - g], atk.cost[1 - g]) == (robust._LAMBDA_CAP, 0.0)
    rest = np.ones(ds.n, dtype=bool)
    rest[mask] = False
    assert atk.x_adv[rest].tobytes() == ds.features[rest].tobytes()
    assert atk.cost[g] == mean_cost(atk.x_adv[mask], ds.features[mask])
    return atk.lam[g], atk.x_adv[mask], atk.cost[g]


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
        ascent = _bind_ascent(model, aux, 0.4, x, y, cfg)
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
    def test_runs_leave_the_binding_unchanged(self, arch, steps):
        model, aux, x, y = attack_instance(arch, 39, n=30)
        cfg = AttackConfig(steps=steps, step_size=1.0)
        ascent = _bind_ascent(model, aux, 0.4, x, y, cfg)
        bound = ("start", "f_start", "x1", "vals1", "val0", "grad1")
        before = {name: np.asarray(getattr(ascent, name)).tobytes() for name in bound}
        lam_rows = 10.0 ** np.linspace(-2.0, 1.0, x.shape[0])
        for lam in (lam_rows, np.zeros(())):
            got = ascent.run(lam)
            want = attack_batch(model, aux, 0.4, lam, x, y, cfg)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
            assert {name: np.asarray(getattr(ascent, name)).tobytes()
                    for name in bound} == before

    @pytest.mark.parametrize("steps", [1, 2, 10])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_calibration_matches_one_attack_per_multiplier(self, arch, steps):
        model, aux, x, y = attack_instance(arch, 38, n=30)
        if arch == "linear-identity-clamped":  # rows on the ramp, so the attack moves
            model = replace(model, params=np.array([0.9, 0.7, -0.3]))
        ds = replace(Dataset.from_arrays(x, y), p_hat=0.4)
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
            lam, adv, cost = attack_group(model, aux, ds, mask, radius, cfg)
            want_lam, want_adv, want_cost = calibrate_per_attack(
                model, aux, 0.4, x[mask], y[mask], radius, cfg)
            assert lam == want_lam and (lam > 0.0) == binding
            assert adv.shape == want_adv.shape and adv.tobytes() == want_adv.tobytes()
            assert cost == want_cost == mean_cost(want_adv, x[mask]) <= radius

    def test_overspending_lambda_max_returns_the_start(self, monkeypatch):
        # Under a search cap of 1e-9 the attack still costs 0.0074, 74 times
        # the radius: the feasible answer is to move no row.
        monkeypatch.setattr("drauc.robust._LAMBDA_CAP", 1e-9)
        ds = gen_synthetic(200, 2, seed=3)
        model = init_model("linear-sigmoid", 2, seed=3)
        scores = score(model, ds.features)
        aux = closed_form_aux(scores[ds.labels == 1], scores[ds.labels == 0])
        lam, adv, cost = attack_group(model, aux, ds, slice(None), 1e-4, AttackConfig())
        assert lam == 1e-9 and cost == 0.0 and adv.tobytes() == ds.features.tobytes()
        metrics = evaluate(model, aux, ds, eps=[1e-4])
        assert metrics["robust_auc_0.0001"] == metrics["nominal_auc"]


def counted_runs(monkeypatch):
    """The multipliers of every ``_BoundAscent.run`` from now on, in order."""
    runs, run = [], _BoundAscent.run

    def counted(self, lam):
        runs.append(float(lam))
        return run(self, lam)

    monkeypatch.setattr(_BoundAscent, "run", counted)
    return runs


def calibration_instance():
    """A 300-row ``mlp1-tanh-sigmoid(8)`` instance whose attack costs 0 from
    lam = 100 on, and the mean cost of its unpenalized attack."""
    ds = gen_synthetic(300, 2, seed=11)
    model = init_model("mlp1-tanh-sigmoid(8)", 2, seed=11)
    scores = score(model, ds.features)
    aux = closed_form_aux(scores[ds.labels == 1], scores[ds.labels == 0])
    _, free = attack_batch(model, aux, ds.p_hat, 0.0, ds.features, ds.labels, AttackConfig())
    return ds, model, aux, mean_cost(free, ds.features)


class TestCalibrate:
    """The multiplier search: few ascents, and only feasible attacks that
    were run."""

    def test_binding_calibration_takes_at_most_13_ascents(self, monkeypatch):
        ds, model, aux, free = calibration_instance()
        radius = 0.5 * free
        runs = counted_runs(monkeypatch)
        lam, adv, cost = attack_group(model, aux, ds, slice(None), radius, AttackConfig())
        assert 0.1 < lam < 1.0 and cost <= radius
        # 13 ascents from a first probe of 1; 20 halving from the cap, a 60-step
        # bisection 62.  The cap's attack is never needed, so never run.
        assert len(runs) <= 13 and runs[1] == pytest.approx(1.0, rel=1e-15)
        assert robust._LAMBDA_CAP not in runs

    def test_root_below_the_bracket_floor_is_found(self, monkeypatch):
        # The radius is the cost at lam = 1e-4, below 1/_LAMBDA_CAP, where
        # the search halves b in place of bisecting geometrically.
        ds, model, aux, _ = calibration_instance()
        cfg = AttackConfig()
        radius = mean_cost(attack_batch(model, aux, ds.p_hat, 1e-4, ds.features,
                                        ds.labels, cfg)[1], ds.features)
        runs = counted_runs(monkeypatch)
        lam, adv, cost = attack_group(model, aux, ds, slice(None), radius, cfg)
        assert 0.0 < lam < 1.0 / robust._LAMBDA_CAP and cost <= radius
        assert lam == pytest.approx(1e-4, rel=1e-9) and len(runs) <= 18
        rerun = attack_batch(model, aux, ds.p_hat, lam, ds.features, ds.labels, cfg)[1]
        assert rerun.tobytes() == adv.tobytes()

    def test_overspent_cap_runs_last_and_returns_the_start(self, monkeypatch):
        # Under a cap of 10 the attack still costs 3.5e-6, above the radius:
        # the search probes 1 and sqrt(10), then the cap, and moves no row.
        monkeypatch.setattr("drauc.robust._LAMBDA_CAP", 10.0)
        ds, model, aux, _ = calibration_instance()
        runs = counted_runs(monkeypatch)
        lam, adv, cost = attack_group(model, aux, ds, slice(None), 1e-6, AttackConfig())
        assert lam == 10.0 and cost == 0.0 and adv.tobytes() == ds.features.tobytes()
        assert runs[0] == 0.0 and runs[-1] == 10.0 and runs.count(10.0) == 1
        assert len(runs) == 4

    @pytest.mark.parametrize("arch", ARCHS[:2])
    def test_steep_scorers_get_feasible_attacks_that_rerun_bitwise(self, arch):
        cfg = AttackConfig(steps=10, step_size=0.5)
        rises = 0
        for seed in (40, 42):
            model, aux, x, y = attack_instance(arch, seed, n=30)
            ds = replace(Dataset.from_arrays(x, y), p_hat=0.4)
            costs = [mean_cost(attack_batch(model, aux, 0.4, lam, x, y, cfg)[1], x)
                     for lam in [0.0, *10.0 ** np.linspace(-2.0, 2.0, 200)]]
            rises += int((np.diff(costs) > 0.0).sum())
            for frac in (0.1, 0.3, 0.6, 0.9):
                radius = frac * costs[0]
                lam, adv, cost = attack_group(model, aux, ds, slice(None), radius, cfg)
                assert 0.0 < lam < 1e3 and cost <= radius
                rerun = attack_batch(model, aux, 0.4, lam, x, y, cfg)[1]
                assert rerun.tobytes() == adv.tobytes()
        assert rises > 0  # the cost is not monotone in the multiplier


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

    @pytest.mark.parametrize("lams", [[[1.0]], [[1.0, 2.0]], [[1.0], [0.5]]])
    def test_multiplier_grid_has_one_axis(self, lams):
        ds, aux, p_hat = example1_style_instance()
        with pytest.raises(ValueError, match="^lambda_grid must be one non-empty axis"):
            dual_curve(IDENT, aux, p_hat, ds, 0.0, lams)

    def test_budget_validation(self):
        ds, aux, p_hat = example1_style_instance()
        for eps in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^eps must be finite and >= 0, got {eps}$"):
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


def frontier_first_max(model, aux, p_hat, lam, x0, y, grid_resolution):
    """(value, destination) of the first maximum of gain - lam*cost over the
    frontier of the one point x0, scored alone, as every 1-D oracle takes it."""
    ((dest, cost, gain),) = robust._destination_frontiers(
        model, aux, p_hat, np.array([x0]), np.array([y]), grid_resolution)
    obj = gain - lam * cost
    i = np.argmax(obj)
    return obj[i], dest[i]


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

    def test_frontier_first_max_bitwise(self):
        for (ds, aux, p_hat, eps, model), lams, res in self.CASES:
            for x0, y in zip(ds.features[:, 0], ds.labels):
                for lam in map(float, lams[::9]):
                    val, x_adv = frontier_first_max(model, aux, p_hat, lam, x0, int(y), res)
                    cand, obj, i = full_scan_argmax(model, aux, p_hat, lam, x0, int(y), res)
                    assert val.tobytes() == obj[i].tobytes()
                    if x_adv != cand[i]:  # only where another destination ties
                        assert (obj[cand == x_adv] == obj[i]).any()

    def test_frontier_first_max_is_frontier_pick(self):
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
                        val, x_adv = frontier_first_max(
                            model, AuxParams(0.3, 0.6, -0.2), 0.4, lam, x0, y, res)
                        cand, obj, first = full_scan_argmax(
                            model, AuxParams(0.3, 0.6, -0.2), 0.4, lam, x0, y, res)
                        gain = surrogate_loss(AuxParams(0.3, 0.6, -0.2), 0.4, np.append(
                            score(model, grid[:, None]), score(model, np.array([[x0]]))), y)
                        i = frontier_pick((cand - x0) ** 2, gain, lam)
                        assert val.tobytes() == obj[i].tobytes()
                        assert x_adv.tobytes() == cand[i].tobytes()
                        first_max_differs += i != first
        assert first_max_differs > 0


def pareto_front(costs, gains, cap):
    """Entries within ``cap`` that no cheaper-or-equal, better-or-equal entry
    dominates, by ascending cost; ties keep the lowest index."""
    ok = np.flatnonzero(costs <= cap)
    order = ok[np.lexsort((-gains[ok], costs[ok]))]
    g = gains[order]
    return order[np.concatenate([[True], g[1:] > np.maximum.accumulate(g)[:-1]])]


def prune_cases():
    """(costs, gains, cap) inputs for ``_pareto_prune``, most with tied
    costs: lattice costs and gains, so (cost, gain) pairs repeat; both signs
    of zero; distinct costs; empty input; and every cost above the cap."""
    rng = np.random.default_rng(41)
    cases = []
    for i in range(120):
        n = int(rng.integers(1, 80))
        if i % 3 == 0:
            costs, gains = rng.integers(0, 9, n) / 4, rng.integers(-4, 5, n) / 2
        elif i % 3 == 1:
            costs = rng.choice([-0.0, 0.0, 0.25, 1.0], n)
            gains = rng.choice([-0.0, 0.0, -0.5, 0.5], n)
        else:
            costs, gains = rng.uniform(0, 1, n), rng.integers(0, 3, n) / 2
        cap = [math.inf, float(np.median(costs)), 0.0, -1.0][i % 4]
        cases.append((costs, gains, cap))
    cases.append((np.empty(0), np.empty(0), 1.0))
    return cases


class TestParetoPrune:
    def test_matches_lexsort_reference_bitwise(self, monkeypatch):
        want = [pareto_front(*case) if (case[0] <= case[2]).any() else np.empty(0, np.intp)
                for case in prune_cases()]
        lexsorts = []
        lexsort = np.lexsort

        def spy(keys):
            lexsorts.append(len(keys))
            return lexsort(keys)
        monkeypatch.setattr(np, "lexsort", spy)
        tied_cases = 0
        for (costs, gains, cap), want_keep in zip(prune_cases(), want):
            lexsorts.clear()
            got = robust._pareto_prune(costs, gains, cap)
            assert got.dtype == want_keep.dtype and got.tobytes() == want_keep.tobytes()
            in_cap = costs[costs <= cap]
            tied = np.unique(in_cap).size < in_cap.size  # -0.0 and +0.0 tie
            assert bool(lexsorts) == tied
            tied_cases += tied
        assert 0 < tied_cases < len(want)


class TestEnvelopeFloor:
    @staticmethod
    def exact_floor(env_cost, env_gain, costs):
        return env_gain[np.searchsorted(env_cost, costs, side="right") - 1]

    def test_never_above_the_exact_envelope(self):
        # Envelope steps sit exactly on bucket edges, and costs on the edges
        # and their neighbours, so a cost that rounds into the bucket above
        # its own meets a step at that bucket's edge.  Costs up to twice top
        # read past the last bucket, as a cap below the product's largest
        # cost makes them.
        rng = np.random.default_rng(43)
        buckets = robust._FLOOR_BUCKETS
        for _ in range(40):
            top = float(rng.uniform(1e-3, 3.0))
            edges = np.arange(buckets) * (top / buckets)
            env_cost = np.unique(np.concatenate([[0.0], rng.choice(edges, 400),
                                                 rng.uniform(0, 2 * top, 100)]))
            env_gain = np.cumsum(rng.uniform(0.01, 1.0, env_cost.size)) - 3.0
            costs = np.concatenate([edges, np.nextafter(edges, -1.0)[1:],
                                    np.nextafter(edges, 3 * top), [top, 2 * top],
                                    rng.uniform(0, 2 * top, 2000)])
            floor = robust._envelope_floor(env_cost, env_gain, top)(costs)
            assert (floor <= self.exact_floor(env_cost, env_gain, costs)).all()

    @pytest.mark.parametrize("top", [0.0, 1e-320])
    def test_a_zero_or_subnormal_top_reads_the_floor_at_cost_0(self, top):
        # Top 0 is an eps-0 fold's, where every product cost is 0.  The
        # costs past top still read a floor no higher than the envelope's.
        env_cost, env_gain = np.array([0.0, 5e-321, 1e-320, 0.5]), np.array([-1.0, 0.0, 1.0, 2.0])
        costs = np.array([0.0, 5e-321, 1e-320, 2e-320, 1.0])
        floor = robust._envelope_floor(env_cost, env_gain, top)(costs)
        assert floor[:4].tolist() == [-1.0] * 4
        assert (floor <= self.exact_floor(env_cost, env_gain, costs)).all()


def unpruned_fold_cases():
    """(dataset, aux, p_hat, eps) instances for the brute-force oracle:
    random draws at the verify grid, then tie-heavy instances, every point
    at one feature value with one label, so the joint products hold many
    entries of equal cost and gain."""
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
    return cases


# brute_force_worst_case's arguments for a pinned five-point instance.
FIVE_POINT_CASE = (Dataset.from_arrays(np.array([[0.95], [0.05], [0.9], [0.1], [0.62]]),
                                       np.array([1, 0, 1, 0, 0])),
                   0.2, 1001, AuxParams(0.5, 0.5, 0.3), 0.4, IDENT)


def full_product_frontier(frontiers, cap):
    """Joint (positions, costs, gains) frontier of per-point frontiers,
    folded in one at a time, each fold pruned from its full product."""
    pos, costs, gains = np.zeros((1, 0)), np.zeros(1), np.zeros(1)
    for cand, cost, gain in frontiers:
        comb_cost = (costs[:, None] + cost).ravel()
        comb_gain = (gains[:, None] + gain).ravel()
        keep = pareto_front(comb_cost, comb_gain, cap)
        rows, cols = np.divmod(keep, cand.size)
        pos = np.hstack([pos[rows], cand[cols, None]])
        costs, gains = comb_cost[keep], comb_gain[keep]
    return pos, costs, gains


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
        frontiers = []
        for i in points:
            cand = np.append(grid, x[i])
            cost = (cand - x[i]) ** 2
            gain = surrogate_loss(aux, p_hat, cand, int(labels[i]))
            f = pareto_front(cost, gain, cap)
            frontiers.append((cand[f], cost[f], gain[f]))
        halves.append(full_product_frontier(frontiers, cap))
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
        with pytest.raises(ValueError, match="^eps must be finite and >= 0, got nan$"):
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
        for ds, aux, p_hat, eps in unpruned_fold_cases():
            sup, pos = brute_force_worst_case(ds, eps, 1001, aux, p_hat, IDENT)
            want_sup, want_pos = unpruned_worst_case(ds, eps, 1001, aux, p_hat)
            assert np.float64(sup).tobytes() == np.float64(want_sup).tobytes()
            assert pos.tobytes() == want_pos.tobytes()

    def test_five_point_instance_pinned(self):
        # Its three-point half multiplies frontiers of about 20,000 and 600
        # entries; the values are those of the full-product merge.
        sup, pos = brute_force_worst_case(*FIVE_POINT_CASE)
        assert sup == 0.15671688
        assert pos.tolist() == [0.393, 0.355, 0.309, 0.421, 1.0]

    @pytest.mark.parametrize("block", [64, 1 << 20])
    def test_block_size_changes_no_bit(self, monkeypatch, block):
        cases = [(ds, eps, 1001, aux, p_hat, IDENT)
                 for ds, aux, p_hat, eps in unpruned_fold_cases()] + [FIVE_POINT_CASE]
        want = [brute_force_worst_case(*case) for case in cases]
        monkeypatch.setattr("drauc.robust._PRODUCT_BLOCK", block)
        for case, (want_sup, want_pos) in zip(cases, want):
            sup, pos = brute_force_worst_case(*case)
            assert np.float64(sup).tobytes() == np.float64(want_sup).tobytes()
            assert pos.tobytes() == want_pos.tobytes()

    @pytest.mark.parametrize("block, across, empty", [(64, True, True),
                                                      (robust._PRODUCT_BLOCK, True, False),
                                                      (1 << 20, False, False)],
                             ids=["64", "default", "2^20"])
    def test_block_frontiers_match_full_product(self, monkeypatch, block, across, empty):
        # Costs on a 2^-10 lattice and power-of-two gain steps, so every sum
        # is exact.  Both points have a run of gain steps of 2, so joint
        # entries of equal cost and gain lie in adjacent rows: in one block
        # (64 entries is two rows) and, but for one 2^20 block, across
        # blocks.  Near the cap, B's steeper steps beat A's flat tail, so
        # some blocks of two rows keep nothing.
        def lattice(steps, first):
            gains = np.concatenate([[0.0], np.cumsum(steps)])
            return first + np.arange(gains.size), np.arange(gains.size) / 1024, gains
        frontiers = [lattice(np.repeat([8.0, 2.0, 0.5, 0.125], [500, 1000, 1000, 1600]), 0.25),
                     lattice(np.repeat([4.0, 2.0, 1.0], [12, 10, 9]), 0.5)]
        cap = 3000 / 1024
        calls = []  # (entries, whether two share cost and gain) per prune
        prune = robust._pareto_prune

        def spy(costs, gains, cap):
            pairs = np.unique(np.stack([costs, gains], axis=1), axis=0)
            calls.append((costs.size, len(pairs) < costs.size))
            return prune(costs, gains, cap)
        monkeypatch.setattr(robust, "_pareto_prune", spy)
        monkeypatch.setattr(robust, "_PRODUCT_BLOCK", block)
        got = robust._joint_frontier(frontiers, cap)
        want = full_product_frontier(frontiers, cap)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert any(tie for _, tie in calls[:-1])  # within one block
        assert calls[-1][1] == across  # the last fold's blocks, concatenated
        assert any(size == 0 for size, _ in calls) == empty

    def test_peak_memory_is_the_blocks_frontiers(self):
        # The three-point half's 20,630-by-618 product: keeping every
        # block's envelope survivors for one prune peaked at 52.7 MB traced.
        tracemalloc.start()
        try:
            brute_force_worst_case(*FIVE_POINT_CASE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26_000_000


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
        res = check_barycenter_identity(trials=500, seed=14)
        assert res.passed, res.detail

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
        res = check_barycenter_brute_force(trials=25, seed=15)
        assert res.passed, res.detail


@pytest.fixture(scope="module")
def trained():
    ds = gen_synthetic(240, 2, seed=21)
    cfg = TrainConfig(variant="df", iters=300, batch_size=32, seed=21)
    state = train(ds, cfg, init_model("linear-sigmoid", 2, 21))
    scores = score(state.model, ds.features)
    aux = closed_form_aux(scores[ds.labels == 1], scores[ds.labels == 0])
    return ds, state.model, aux


class TestEvaluate:

    def test_zero_budget_equals_nominal(self, trained):
        ds, model, aux = trained
        scores = score(model, ds.features)
        nominal = auc_mann_whitney(scores[ds.labels == 1], scores[ds.labels == 0])
        metrics = evaluate(model, aux, ds, eps=[0.0, (0.0, 0.0)])
        assert metrics["nominal_auc"] == nominal
        assert metrics["robust_auc_0"] == nominal
        assert metrics["robust_auc_0_0"] == nominal

    def test_non_increasing_in_budget(self, trained):
        ds, model, aux = trained
        cfg = AttackConfig(steps=10, step_size=0.05)
        metrics = evaluate(model, aux, ds, eps=(0.0, 0.05, 0.1, 0.2), attack=cfg)
        vals = [metrics[f"robust_auc_{e:g}"] for e in (0.0, 0.05, 0.1, 0.2)]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))

    def test_per_class_budgets_run(self, trained):
        ds, model, aux = trained
        cfg = AttackConfig(steps=10, step_size=0.05)
        val = evaluate(model, aux, ds, eps=[(0.05, 0.02)], attack=cfg)["robust_auc_0.05_0.02"]
        assert 0.0 <= val <= 1.0

    def test_keys_values_and_order(self, trained):
        # Nominal, then each sigma, then each budget's four keys; a pair's
        # last three come once per label group, positives first.
        ds, model, aux = trained
        metrics = evaluate(model, aux, ds, sigmas=[0.1, 0.0], eps=[1e-3, (0.01, 0.0)], seed=5)
        assert list(metrics) == [
            "nominal_auc", "corrupted_auc_0.1", "corrupted_auc_0",
            "robust_auc_0.001", "robust_lam_0.001", "robust_cost_0.001", "robust_binding_0.001",
            "robust_auc_0.01_0", "robust_lam_0.01_0_pos", "robust_lam_0.01_0_neg",
            "robust_cost_0.01_0_pos", "robust_cost_0.01_0_neg",
            "robust_binding_0.01_0_pos", "robust_binding_0.01_0_neg"]
        noisy = corrupt(ds, 0.1, seed=5)
        scores = score(model, noisy.features)
        assert metrics["corrupted_auc_0.1"] == auc_mann_whitney(scores[noisy.labels == 1],
                                                                scores[noisy.labels == 0])
        assert metrics["corrupted_auc_0"] == metrics["nominal_auc"]
        pair = attack_dataset(model, ds, (0.01, 0.0), aux)
        assert [metrics[f"robust_{name}_0.01_0_{side}"] for name in ("lam", "cost")
                for side in ("pos", "neg")] == [*pair.lam, *pair.cost]
        # A zero radius reports the search cap as its multiplier, so it binds.
        assert metrics["robust_binding_0.01_0_neg"] == 1
        assert all(type(metrics[key]) is int for key in metrics if "binding" in key)
        assert all(type(metrics[key]) is float for key in metrics if "binding" not in key)

    def test_binding_budget_reports_below_nominal(self, trained):
        # At eps 1e-3 the unpenalized attack (cost 0.0138) overspends, so the
        # multiplier search runs and the attack lowers the AUC.
        ds, model, aux = trained
        metrics = evaluate(model, aux, ds, eps=[1e-3])
        atk = attack_dataset(model, ds, 1e-3, aux)
        assert metrics["robust_auc_0.001"] < metrics["nominal_auc"]
        assert metrics["robust_binding_0.001"] == 1
        assert (metrics["robust_lam_0.001"], metrics["robust_cost_0.001"]) == \
            (atk.lam[0], atk.cost[0])

    def test_collapsed_instance_reaches_zero_strict_auc(self):
        # Identity scorer, clusters at 0.9 / 0.1; any budget above
        # p(1-p)(0.8)^2 = 0.16 lets the attack cross the classes.
        feats = np.array([[0.9], [0.9], [0.1], [0.1]])
        labels = np.array([1, 1, 0, 0])
        ds = Dataset.from_arrays(feats, labels)
        aux = closed_form_aux([0.9, 0.9], [0.1, 0.1])
        cfg = AttackConfig(steps=200, step_size=0.05)
        scores = score(IDENT, attack_dataset(IDENT, ds, 0.2, aux, cfg).x_adv)
        assert auc_mann_whitney(scores[labels == 1], scores[labels == 0], "strict") == 0.0

    def test_single_class_rejected(self):
        ds = Dataset.from_arrays(np.array([[0.4], [0.6]]), np.array([1, 1]))
        with pytest.raises(ValueError):
            evaluate(IDENT, AUX0, ds, eps=[0.1])

    def test_non_finite_budget_rejected(self, trained):
        ds, model, aux = trained
        for eps in (math.nan, math.inf, (math.nan, 0.05), (0.0, math.nan), -0.1):
            with pytest.raises(ValueError, match="eps"):
                evaluate(model, aux, ds, eps=[eps])

    @pytest.mark.parametrize("kwargs", [dict(eps=[(0.01, -1.0)]), dict(eps=[0.01, -1.0]),
                                        dict(sigmas=[0.1, -1.0], eps=[0.01])])
    def test_every_radius_checked_before_any_attack(self, trained, monkeypatch, kwargs):
        def attack(*args):
            raise AssertionError("attacked or scored before every input was checked")

        monkeypatch.setattr("drauc.robust._calibrate", attack)
        monkeypatch.setattr("drauc.robust.score", attack)
        ds, model, aux = trained
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            evaluate(model, aux, ds, **kwargs)

    @pytest.mark.parametrize("eps", [(0.001, 0.001, 5.0), (0.001,), [0.001, 0.002, 0.003], (),
                                     np.array([0.001, 0.002, 0.003]), np.array([[0.01, 0.0]]),
                                     [0.01, (0.0, 0.0)]])
    def test_per_class_budgets_take_a_pair(self, trained, eps):
        ds, model, aux = trained
        with pytest.raises(ValueError, match="^eps must be one budget or an"):
            evaluate(model, aux, ds, eps=[eps])

    def test_ndarray_pair_matches_tuple(self, trained):
        ds, model, aux = trained
        want = evaluate(model, aux, ds, eps=[(0.01, 0.0)])
        for eps in (np.array([0.01, 0.0]), [0.01, 0.0]):
            assert evaluate(model, aux, ds, eps=[eps]) == want
        assert evaluate(model, aux, ds, eps=[np.float64(0.01)]) == \
            evaluate(model, aux, ds, eps=[0.01])


class TestAttackDataset:
    """The budgeted attack's multiplier and cost per label group."""

    def test_saturated_budgets_report_a_zero_multiplier(self, trained):
        # The unpenalized attack costs 0.0138: any budget above it leaves
        # the multiplier at 0 and gives the same attack.
        ds, model, aux = trained
        slack = [attack_dataset(model, ds, eps, aux) for eps in (0.05, 1.0)]
        assert [(atk.lam, atk.cost) for atk in slack] == [((0.0,), slack[0].cost)] * 2
        assert 0.0 < slack[0].cost[0] < 0.05
        assert slack[0].x_adv.tobytes() == slack[1].x_adv.tobytes()
        metrics = evaluate(model, aux, ds, eps=[0.05, 1.0])
        assert metrics["robust_auc_0.05"] == metrics["robust_auc_1"]

    def test_binding_budget_spends_at_most_its_radius(self, trained):
        ds, model, aux = trained
        atk = attack_dataset(model, ds, 1e-3, aux)
        assert atk.lam[0] > 0.0 and atk.cost[0] <= 1e-3
        assert atk.cost[0] == mean_cost(atk.x_adv, ds.features)
        metrics = evaluate(model, aux, ds, eps=[1e-3])
        assert metrics["robust_auc_0.001"] < metrics["nominal_auc"]


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


INTP_MAX = int(np.iinfo(np.intp).max)
STACKED = ScoringModel("linear-sigmoid", np.zeros((2, 2)), 1)  # two runs' params


@pytest.mark.parametrize("call, message", [
    (lambda: attack_batch(IDENT, AUX0, 0.5, 1.0, np.array([[1.5]]), 0, AttackConfig()),
     "attack start must lie in [0, 1]^d"),
    (lambda: dual_curve(IDENT, AUX0, 0.5, TWO_POINTS, 0.0, [1.0], grid_resolution=1),
     "grid_resolution must be >= 2, got 1"),
    (lambda: dual_curve(IDENT, AUX0, 0.5, TWO_POINTS, 0.0, [1.0], grid_resolution=100.5),
     "grid_resolution must be an integer, got 100.5"),
    # A bool multiplier used to run as 1.0 or 0.0.
    (lambda: dual_curve(IDENT, AUX0, 0.5, TWO_POINTS, 0.1, [True]),
     "lambda_grid must hold real numbers, not bools, got [True]"),
    (lambda: dual_curve(IDENT, AUX0, 0.5, TWO_POINTS, 0.1, np.array([False, True])),
     "lambda_grid must hold real numbers, not bools, got array([False,  True])"),
    (lambda: dual_curve(IDENT, AUX0, 0.5, TWO_POINTS, 0.1, [0.0, True]),
     "lambda_grid must hold real numbers, not bools, got [0.0, True]"),
    (lambda: dual_curve(IDENT, AUX0, 0.5, TWO_POINTS, 0.1, (0.5, np.True_)),
     "lambda_grid must hold real numbers, not bools, got (0.5, np.True_)"),
    (lambda: brute_force_worst_case(Dataset.from_arrays(np.array([[0.0], [1.0]]), np.array([0, 0])),
                                    math.inf, 1001, AUX0, 0.5, IDENT),
     "eps must be finite and >= 0, got inf"),
    # A stack's (2, 101) gains filled one point's frontier, so both oracles ran.
    (lambda: brute_force_worst_case(Dataset.from_arrays(np.array([[0.3]]), np.array([0])), 0.1,
                                    101, AUX0, 0.5, STACKED),
     "params must be one model's (P,) vector, got shape (2, 2)"),
    (lambda: dual_curve(STACKED, AUX0, 0.5, TWO_POINTS, 0.1, [1.0], grid_resolution=101),
     "params must be one model's (P,) vector, got shape (2, 2)"),
    (lambda: init_model("linear-sigmoid", 2.5, 0), "input_dim must be an integer, got 2.5"),
    (lambda: ScoringModel("mlp1-tanh-sigmoid(2)", np.zeros(9), 2.0),
     "input_dim must be an integer, got 2.0"),
    (lambda: ScoringModel("linear-sigmoid", np.zeros(2), True),
     "input_dim must be an integer, got True"),
    # Each scalar argument is one real number, not a bool, in its range.
    (lambda: AuxParams(True, 0, 0), "a must be a real number, got True"),
    (lambda: AuxParams("a", 0, 0), "a must be a real number, got 'a'"),
    (lambda: DualState(lam=(True,), eps=(0.1,)), "lam[0] must be a real number, got True"),
    (lambda: barycenter_attack(True, 0.0, 1, 1), "x_pos must be a real number, got True"),
    (lambda: min_cost_flip_search(math.nan, 0.0, 1, 1),
     "x_pos must be finite and in [0, 1], got nan"),
    (lambda: min_cost_flip_search(2.0, 0.0, 1, 1), "x_pos must be finite and in [0, 1], got 2.0"),
    (lambda: min_cost_flip_search(0.5, 0.0, 0, 1), "n_pos must be >= 1, got 0"),
    (lambda: min_cost_flip_search(0.5, 0.0, True, 1), "n_pos must be an integer, got True"),
    (lambda: split_epsilon(0.1, math.nan, 1.0), "p_hat must be finite and in (0, 1), got nan"),
    (lambda: make_long_tailed(TWO_POINTS, "a"), "ratio must be a real number, got 'a'"),
    (lambda: evaluate(IDENT, AUX0, TWO_POINTS, sigmas=[None]),
     "sigma must be a real number, got None"),
    (lambda: corrupt(TWO_POINTS, None), "sigma must be a real number, got None"),
    (lambda: corrupt(TWO_POINTS, np.array([0.1])),
     "sigma must be a real number, got array([0.1])"),
    (lambda: TrainConfig(eps=None), "eps must be a real number, got None"),
    (lambda: TrainConfig(eps=10**400), f"eps must be finite and >= 0, got {10**400}"),
    # A count past the largest array length, refused by name before training.
    (lambda: TrainConfig(iters=10**400), f"iters must be <= {INTP_MAX}, got {10**400}"),
    (lambda: TrainConfig(batch_size=INTP_MAX + 1),
     f"batch_size must be <= {INTP_MAX}, got {INTP_MAX + 1}"),
    (lambda: TrainConfig(steps=10**400), f"steps must be <= {INTP_MAX}, got {10**400}"),
], ids=["attack-start-outside-box", "dual-curve-grid-1",
        "dual-curve-grid-float", "dual-curve-bool-lambda", "dual-curve-bool-array",
        "dual-curve-mixed-bool-lambda", "dual-curve-numpy-bool-lambda",
        "brute-force-inf-budget", "brute-force-stacked-model", "dual-curve-stacked-model",
        "init-model-float-input-dim",
        "scoring-model-float-input-dim", "scoring-model-bool-input-dim",
        "aux-bool", "aux-str", "dual-bool-lam",
        "barycenter-bool-x", "flip-search-nan-x", "flip-search-x-outside-box",
        "flip-search-no-positives", "flip-search-bool-count", "split-nan-p-hat",
        "long-tailed-str-ratio", "evaluate-none-sigma", "corrupt-none-sigma",
        "corrupt-array-sigma", "config-none-eps", "config-huge-int-eps", "config-huge-iters",
        "config-batch-past-intp", "config-huge-steps"])
def test_bad_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
