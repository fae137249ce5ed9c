"""The checks that score or attack many throwaway models in stacked passes,
against per-model loops.

``grad_check`` scores each trial's finite-difference points, and
``check_score_range`` each (arch, d) group of its draws, as stacked
one-row runs; ``check_phi_dominance`` attacks each (arch, d) group of its
trials as stacked one-row runs.  The loops below score or attack one model
at a time, as the package did before; the stacked checks must give exactly
their results.
"""

from dataclasses import replace

import numpy as np
import pytest

from drauc import AttackConfig, AuxParams, attack_batch, forward, grad_check, init_model, score
from drauc.losses import surrogate_loss, surrogate_loss_grads
from drauc.model import vjp_input, vjp_params
from drauc.verification import _phi_trials, _range_scores, check_phi_dominance, check_score_range

ARCHS = ["linear-sigmoid", "mlp1-tanh-sigmoid(8)", "linear-identity-clamped"]


def per_model_grad_check(arch, trials, h=1e-5, input_dim=2, seed=0):
    """(max_rel_err, worst) of a loop that rebuilds and rescores the model
    for every finite-difference point."""
    def loss_at(model, a, b, alpha, x, y, p_hat):
        return surrogate_loss(AuxParams(a, b, alpha), p_hat, score(model, x), y)

    def central_diff(fn, v0):
        return (fn(v0 + h) - fn(v0 - h)) / (2.0 * h)

    rng = np.random.default_rng(seed)
    max_err, worst = 0.0, ""
    for trial in range(trials):
        model = init_model(arch, input_dim, seed=int(rng.integers(2**31)))
        a = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(0.05, 0.95))
        alpha = float(rng.uniform(-0.95, 0.95))
        p_hat = float(rng.uniform(0.1, 0.9))
        y = int(rng.integers(2))
        x = rng.uniform(0.05, 0.95, size=input_dim)
        if model.arch == "linear-identity-clamped":
            u = float(x @ model.params[:-1] + model.params[-1])
            if not 0.01 < u < 0.99:
                continue
        f, cache = forward(model, x)
        d_f, d_a, d_b, d_alpha = surrogate_loss_grads(
            AuxParams(a, b, alpha), p_hat, float(f[0]), y)
        checks = [
            ("a", d_a, central_diff(lambda v: loss_at(model, v, b, alpha, x, y, p_hat), a)),
            ("b", d_b, central_diff(lambda v: loss_at(model, a, v, alpha, x, y, p_hat), b)),
            ("alpha", d_alpha,
             central_diff(lambda v: loss_at(model, a, b, v, x, y, p_hat), alpha)),
        ]
        d_theta = vjp_params(model, cache, np.array([d_f]))[0]
        for i in range(model.params.size):
            def at(v, i=i):
                p = model.params.copy()
                p[i] = v
                return loss_at(replace(model, params=p), a, b, alpha, x, y, p_hat)
            checks.append((f"theta[{i}]", d_theta[i], central_diff(at, model.params[i])))
        d_x = vjp_input(model, cache, np.array([d_f]))[0]
        for i in range(input_dim):
            def at(v, i=i):
                xv = x.copy()
                xv[i] = v
                return loss_at(model, a, b, alpha, xv, y, p_hat)
            checks.append((f"x[{i}]", d_x[i], central_diff(at, x[i])))
        for name, analytic, numeric in checks:
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            if err > max_err:
                max_err, worst = err, f"trial {trial}, d/d{name}"
    return max_err, worst


def per_draw_score_range(draws, seed):
    """Each draw's score, and (lo, hi), from a loop that scores each model
    as it draws it."""
    rng = np.random.default_rng(seed)
    scores = []
    lo, hi = np.inf, -np.inf
    for arch in ARCHS:
        for _ in range(draws // len(ARCHS)):
            d = int(rng.integers(1, 5))
            m = init_model(arch, d, seed=int(rng.integers(2**31)))
            m = replace(m, params=m.params + rng.normal(0, 2.0, m.params.shape))
            f = score(m, rng.uniform(0, 1, size=d))
            scores.append(f)
            lo, hi = min(lo, f), max(hi, f)
    return scores, lo, hi


def per_trial_phi(trials, seed):
    """Each trial's (lam, g(z), phi, in the box) from a loop that attacks
    each trial as it draws it, through ``attack_batch`` on a one-row batch."""
    rng = np.random.default_rng(seed)
    cfg = AttackConfig(steps=10, step_size=0.05)
    out = []
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        arch = rng.choice(["linear-sigmoid", "mlp1-tanh-sigmoid(4)"])
        m = init_model(str(arch), d, seed=int(rng.integers(2**31)))
        aux = AuxParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1))
        p_hat = float(rng.uniform(0.1, 0.9))
        lam = float(10 ** rng.uniform(-3, 6)) if rng.random() > 0.1 else 0.0
        x = rng.uniform(0, 1, size=d)
        y = int(rng.integers(2))
        g0 = surrogate_loss(aux, p_hat, score(m, x), y)
        (val,), x_adv = attack_batch(m, aux, p_hat, lam, x[None, :], y, cfg)
        out.append((lam, g0, val, 0 <= x_adv.min() and x_adv.max() <= 1))
    return out


@pytest.mark.parametrize("trials, seed", [(40, 5), (200, 5), (300, 11)])
def test_phi_dominance_matches_per_trial_loop(trials, seed):
    lams, g0, phi, in_box = _phi_trials(trials, seed)
    want = per_trial_phi(trials, seed)
    assert [tuple(t) for t in zip(lams.tolist(), g0.tolist(), phi.tolist(),
                                  in_box.tolist())] == want
    for k, got in ((1, g0), (2, phi)):
        assert np.array([w[k] for w in want]).tobytes() == got.tobytes()
    assert check_phi_dominance(trials, seed).passed


def test_phi_dominance_reports_first_violation(monkeypatch):
    # Trials 1 (out of the box) and 2 (phi below g) violate; 1 is reported.
    trials = (np.array([0.5, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]),
              np.array([0.1, 0.25, 0.1]), np.array([True, False, True]))
    monkeypatch.setattr("drauc.verification._phi_trials", lambda n, seed: trials)
    res = check_phi_dominance()
    assert not res.passed
    assert res.detail == "violated at lam=2: phi=0.25 < g=0.2"


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("seed", [0, 103])
def test_grad_check_matches_per_model_loop(arch, seed):
    rep = grad_check(arch, trials=150, seed=seed)
    assert (rep.max_rel_err, rep.worst) == per_model_grad_check(arch, 150, seed=seed)
    assert rep.passed


@pytest.mark.parametrize("draws", [1500, 10_000])
def test_score_range_matches_per_draw_loop(draws):
    scores, lo, hi = per_draw_score_range(draws, seed=0)
    assert np.array_equal(_range_scores(draws, seed=0), scores)
    res = check_score_range(draws=draws, seed=0)
    assert res.passed
    assert res.detail == f"range over draws: [{lo:.3g}, {hi:.3g}]"


class TestGradCheckSettings:
    def test_checked_counts_unskipped_trials(self):
        # The clamped scorer skips trials whose pre-activation leaves
        # (0.01, 0.99); the smooth ones check every trial.
        clamped = grad_check("linear-identity-clamped", trials=200, seed=0)
        assert 0 < clamped.checked < clamped.trials == 200
        for arch in ARCHS[:2]:
            rep = grad_check(arch, trials=40, seed=0)
            assert rep.checked == rep.trials == 40

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            grad_check("linear-sigmoid", trials=trials)

    @pytest.mark.parametrize("name", ["h", "tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-5, float("nan"), float("inf")])
    def test_rejects_bad_step_or_tolerance(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            grad_check("linear-sigmoid", trials=5, **{name: value})

    def test_rejects_negative_seed_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("worked on a negative seed")
        monkeypatch.setattr("drauc.gradcheck.param_count", no_work)
        monkeypatch.setattr("drauc.gradcheck.init_model", no_work)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -3$"):
            grad_check("linear-sigmoid", trials=5, seed=-3)
