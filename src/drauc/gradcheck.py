"""Finite-difference validation of every analytic gradient the training
loop relies on: d g / d(theta, a, b, alpha, x) through the scoring model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import AuxParams, _FixedLabelLoss, surrogate_loss, surrogate_loss_grads
from .model import (LINEAR_IDENTITY_CLAMPED, ScoringModel, forward, init_model,
                    param_count, parse_arch, vjp_input, vjp_params)


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


def _central_diff(fn, v0, h):
    return (fn(v0 + h) - fn(v0 - h)) / (2.0 * h)


def _fd_points(v, h, runs, first):
    """``runs`` rows, each a copy of v but for rows first + i, which hold
    v[i] + h, and first + v.size + i, which hold v[i] - h."""
    pts = np.empty((runs, v.size))
    pts[:] = v
    i = np.arange(v.size)
    pts[first + i, i] = v + h
    pts[first + v.size + i, i] = v - h
    return pts


def grad_check(arch: str, trials: int = 1000, h: float = 1e-5,
               tol: float = 1e-5, input_dim: int = 2,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic partials against central finite differences at
    random interior configurations; passes iff the worst scaled error is
    within tol.

    Each trial scores all its parameter and input points in one stacked
    pass, each point its own one-row run, so each score is bitwise that of
    the perturbed model on the (perturbed) input alone."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for name, value in (("h", h), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    rng = np.random.default_rng(seed)
    max_err = 0.0
    worst = ""
    checked = 0
    arch_name, width = parse_arch(arch)
    n_p = param_count(arch_name, input_dim, width)
    names = (["a", "b", "alpha"] + [f"theta[{i}]" for i in range(n_p)]
             + [f"x[{i}]" for i in range(input_dim)])

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

        numeric_aux = [
            _central_diff(lambda v: surrogate_loss(AuxParams(v, b, alpha), p_hat, s, y), a, h),
            _central_diff(lambda v: surrogate_loss(AuxParams(a, v, alpha), p_hat, s, y), b, h),
            _central_diff(lambda v: surrogate_loss(AuxParams(a, b, v), p_hat, s, y), alpha, h),
        ]
        # Runs 0..2P-1 each move one parameter, on the input x; runs 2P..
        # each move one input coordinate, under the model's parameters.
        runs = 2 * (n_p + input_dim)
        stacked = ScoringModel(arch_name, _fd_points(model.params, h, runs, 0),
                               input_dim, width)
        inputs = _fd_points(x, h, runs, 2 * n_p)
        g = _FixedLabelLoss(aux, p_hat, y).value(forward(stacked, inputs[:, None, :])[0][:, 0])
        g_theta, g_x = g[: 2 * n_p], g[2 * n_p :]
        numeric = np.concatenate((
            numeric_aux,
            (g_theta[:n_p] - g_theta[n_p:]) / (2.0 * h),
            (g_x[:input_dim] - g_x[input_dim:]) / (2.0 * h)))

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
