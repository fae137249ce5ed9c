"""Finite-difference validation of every analytic gradient the training
loop relies on: d g / d(theta, a, b, alpha, x) through the scoring model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .losses import AuxParams, surrogate_loss, surrogate_loss_grads
from .model import (LINEAR_IDENTITY_CLAMPED, forward, init_model, score,
                    vjp_input, vjp_params)


@dataclass(frozen=True)
class GradCheckReport:
    arch: str
    trials: int
    h: float
    tol: float
    max_rel_err: float
    passed: bool
    worst: str


def _loss_at(model, a, b, alpha, x, y, p_hat):
    return surrogate_loss(AuxParams(a, b, alpha), p_hat, score(model, x), y)


def _central_diff(fn, v0, h):
    return (fn(v0 + h) - fn(v0 - h)) / (2.0 * h)


def _rel_err(analytic, numeric):
    # Scaled error: relative for large gradients, absolute for tiny ones.
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def grad_check(arch: str, trials: int = 1000, h: float = 1e-5,
               tol: float = 1e-5, input_dim: int = 2,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic partials against central finite differences at
    random interior configurations; passes iff the worst scaled error is
    within tol."""
    if h <= 0.0 or tol <= 0.0:
        raise ValueError("h and tol must be > 0")
    rng = np.random.default_rng(seed)
    max_err = 0.0
    worst = ""

    for trial in range(trials):
        model = init_model(arch, input_dim, seed=int(rng.integers(2**31)))
        a = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(0.05, 0.95))
        alpha = float(rng.uniform(-0.95, 0.95))
        p_hat = float(rng.uniform(0.1, 0.9))
        y = int(rng.integers(2))
        x = rng.uniform(0.05, 0.95, size=input_dim)
        if model.arch == LINEAR_IDENTITY_CLAMPED:
            # Keep the pre-activation strictly inside the clamp region so
            # both central-difference evaluations stay on the same branch.
            w = model.params[:-1]
            u = float(x @ w + model.params[-1])
            if not 0.01 < u < 0.99:
                continue

        f, cache = forward(model, x)
        d_f, d_a, d_b, d_alpha = surrogate_loss_grads(
            AuxParams(a, b, alpha), p_hat, float(f[0]), y)
        checks = [
            ("a", d_a, _central_diff(lambda v: _loss_at(model, v, b, alpha, x, y, p_hat), a, h)),
            ("b", d_b, _central_diff(lambda v: _loss_at(model, a, v, alpha, x, y, p_hat), b, h)),
            ("alpha", d_alpha, _central_diff(lambda v: _loss_at(model, a, b, v, x, y, p_hat), alpha, h)),
        ]
        d_theta = vjp_params(model, cache, np.array([d_f]))[0]
        for i in range(model.params.size):
            def at(v, i=i):
                p = model.params.copy()
                p[i] = v
                return _loss_at(replace(model, params=p), a, b, alpha, x, y, p_hat)
            checks.append((f"theta[{i}]", d_theta[i],
                           _central_diff(at, model.params[i], h)))
        d_x = vjp_input(model, cache, np.array([d_f]))[0]
        for i in range(input_dim):
            def at(v, i=i):
                xv = x.copy()
                xv[i] = v
                return _loss_at(model, a, b, alpha, xv, y, p_hat)
            checks.append((f"x[{i}]", d_x[i], _central_diff(at, x[i], h)))

        for name, analytic, numeric in checks:
            err = _rel_err(analytic, numeric)
            if err > max_err:
                max_err = err
                worst = f"trial {trial}, d/d{name}"

    return GradCheckReport(arch=arch, trials=trials, h=h, tol=tol,
                           max_rel_err=max_err, passed=max_err <= tol,
                           worst=worst)
