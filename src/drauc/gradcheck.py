"""Finite-difference validation of every analytic gradient the training
loop relies on: d g / d(theta, a, b, alpha, x) through the scoring model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_integer, check_real, seeded_rng
from .losses import AuxParams, surrogate_loss, surrogate_loss_grads
from .model import (LINEAR_IDENTITY_CLAMPED, ScoringModel, forward, init_model,
                    param_count, vjp_input, vjp_params)


@dataclass(frozen=True)
class GradCheckReport:
    arch: str
    trials: int
    checked: int  # trials not skipped at the clamp's edges
    h: float
    tol: float
    max_rel_err: float
    passed: bool
    worst: str


def _fd_points(v, h):
    """2 * v.size copies of v, but for row i, which holds v[i] + h, and row
    v.size + i, which holds v[i] - h."""
    pts = np.tile(v, (2 * v.size, 1))
    i = np.arange(v.size)
    pts[i, i] = v + h
    pts[v.size + i, i] = v - h
    return pts


def grad_check(arch: str, trials: int = 1000, h: float = 1e-5,
               tol: float = 1e-5, input_dim: int = 2,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic partials against central finite differences at
    random interior configurations; passes iff the worst scaled error is
    within tol.

    Each trial perturbs one vector (a, b, alpha, theta, x) one coordinate
    at a time and values all its points in one stacked pass, each point its
    own one-row run with its own (a, b, alpha), so each value is bitwise
    that of the perturbed loss, model and input alone."""
    check_integer("trials", trials, 1)
    rng = seeded_rng(seed)
    for name, value in (("h", h), ("tol", tol)):
        check_real(name, value, 0, strict=True)
    max_err = 0.0
    worst = ""
    checked = 0
    n_p = param_count(arch, input_dim)
    names = (["a", "b", "alpha"] + [f"theta[{i}]" for i in range(n_p)]
             + [f"x[{i}]" for i in range(input_dim)])
    n_v = len(names)

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
        checked += 1

        aux = AuxParams(a, b, alpha)
        f, cache = forward(model, x)
        s = float(f[0])
        d_f, d_a, d_b, d_alpha = surrogate_loss_grads(aux, p_hat, s, y)
        d_theta = vjp_params(model, cache, np.array([d_f]))[0]
        d_x = vjp_input(model, cache, np.array([d_f]))[0]
        analytic = np.concatenate(([d_a, d_b, d_alpha], d_theta, d_x))

        # Run i moves coordinate i of (a, b, alpha, theta, x) up by h and
        # run n_v + i moves it down.
        pts = _fd_points(np.concatenate(([a, b, alpha], model.params, x)), h)
        stacked = ScoringModel(arch, pts[:, 3 : 3 + n_p], input_dim)
        f_pts = forward(stacked, pts[:, None, 3 + n_p :])[0]
        g = surrogate_loss(pts[:, :3].tolist(), [p_hat] * len(pts), f_pts,
                           np.full((len(pts), 1), y))[:, 0]
        numeric = (g[:n_v] - g[n_v:]) / (2.0 * h)

        # Scaled error: relative for large gradients, absolute for tiny
        # ones.  The first largest one in this trial, as a scan in check
        # order keeps it.
        errs = np.abs(analytic - numeric) / np.maximum(
            1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        i = int(np.argmax(errs))
        if errs[i] > max_err:
            max_err = float(errs[i])
            worst = f"trial {trial}, d/d{names[i]}"

    return GradCheckReport(arch=arch, trials=trials, checked=checked, h=h, tol=tol,
                           max_rel_err=max_err, passed=max_err <= tol,
                           worst=worst)
