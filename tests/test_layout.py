"""The feature-major model passes and ascent against row-major copies.

``forward``, ``vjp_input``, ``vjp_params`` and ``attack_batch`` run their
elementwise work on (features, rows) arrays, the ascent in buffers bound
once per call.  The copies below do the same
arithmetic on (rows, features) arrays, as the package did before; every
output must match them bit for bit, across batch sizes that cross BLAS
blocking edges.
"""

from dataclasses import replace

import numpy as np
import pytest

from drauc import (AttackConfig, AuxParams, attack_batch, forward, init_model,
                   score, vjp_input, vjp_params)
from drauc.losses import _FixedLabelLoss
from drauc.model import _Passes
from drauc.robust import _BoundAscent

ARCHS = ["linear-sigmoid", "mlp1-tanh-sigmoid(8)", "linear-identity-clamped"]
DIMS = [1, 2, 3]
SIZES = [1, 7, 128, 3000]
AUX = AuxParams(0.3, 0.6, -0.2)
P_HAT = 0.4


def sigmoid(u):
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(-500.0, u), 500.0)))


def row_major_forward(model, batch):
    if model.arch == "mlp1-tanh-sigmoid":
        hidden = np.tanh(batch @ model.WT + model.c)
        f = sigmoid(hidden @ model.v + model.b)
        return f, (batch, hidden, f * (1.0 - f))
    u = batch @ model.v + model.b
    if model.arch == "linear-identity-clamped":
        f = np.minimum(np.maximum(0.0, u), 1.0)
        return f, (batch, None, ((u >= 0.0) & (u <= 1.0)).astype(float))
    f = sigmoid(u)
    return f, (batch, None, f * (1.0 - f))


def row_major_pre_activation_grad(model, hidden, slope):
    return slope[:, None] * model.v[None, :] * (1.0 - hidden**2)


def row_major_vjp_input(model, cache, d_f):
    _, hidden, slope = cache
    if hidden is None:
        jac = slope[:, None] * model.v[None, :]
    else:
        jac = row_major_pre_activation_grad(model, hidden, slope) @ model.W
    return d_f[:, None] * jac


def row_major_vjp_params(model, cache, d_f):
    batch, hidden, slope = cache
    blocks = [slope[:, None] * (batch if hidden is None else hidden), slope[:, None]]
    if hidden is not None:
        d_pre = row_major_pre_activation_grad(model, hidden, slope)
        d_w = d_pre[:, :, None] * batch[:, None, :]
        blocks = [d_w.reshape(batch.shape[0], -1), d_pre] + blocks
    return d_f[:, None] * np.concatenate(blocks, axis=1)


def row_major_attack(model, aux, p, lam, x0, y, cfg):
    """The ascent on (n, d) arrays with the loss's per-row coefficients.
    Also counts the coordinates the projection moved."""
    lam = np.asarray(lam, dtype=float)
    pos = np.broadcast_to(np.asarray(y), (x0.shape[0],)) == 1
    w, c = np.where(pos, 1.0 - p, p), np.where(pos, aux.a, aux.b)
    l, k = np.where(pos, -(1.0 - p), p), 2.0 * (1.0 + aux.alpha)
    c0 = p * (1.0 - p) * aux.alpha**2
    two_lam = 2.0 * lam[..., None]
    x_cur, best_x, projected = x0, x0.copy(), 0
    for step in range(cfg.steps + 1):
        f, cache = row_major_forward(model, x_cur)
        dx = x_cur - x0
        vals = w * np.square(f - c) + k * (l * f) - c0 - lam * (dx**2).sum(axis=1)
        if step == 0:
            best_val = vals
        else:
            improved = vals > best_val
            best_val = np.where(improved, vals, best_val)
            np.copyto(best_x, x_cur, where=improved[:, None])
        if step == cfg.steps:
            break
        d_f = (2.0 * w) * (f - c) + k * l
        grad = row_major_vjp_input(model, cache, d_f) - two_lam * dx
        moved = x_cur + cfg.step_size * grad
        x_cur = np.minimum(np.maximum(0.0, moved), 1.0)
        projected += int((x_cur != moved).sum())
    return best_val, best_x, projected


def instance(arch, d, n):
    rng = np.random.default_rng(1000 * d + n)
    model = init_model(arch, d, seed=d + n)
    if arch == "linear-identity-clamped":
        # Pre-activations in about [-0.3, 1.3]: rows on the ramp and on both clamps.
        w = rng.uniform(0.2, 1.0, d)
        model = replace(model, params=np.append(1.6 * w / w.sum(), -0.3))
    else:
        # Steep, with nonzero biases, so that large steps overshoot.
        model = replace(model, params=6.0 * model.params
                        + rng.normal(0.0, 0.5, model.params.size))
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = (rng.random(n) < 0.3).astype(int)
    return model, x, y, rng


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("arch", ARCHS)
class TestFeatureMajorMatchesRowMajor:
    def test_model_passes(self, arch, d, n):
        model, x, _, rng = instance(arch, d, n)
        d_f = rng.normal(size=n)
        want_f, want_cache = row_major_forward(model, x)
        want_in = row_major_vjp_input(model, want_cache, d_f)
        want_params = row_major_vjp_params(model, want_cache, d_f)
        # The ascent passes its (d, n) iterate as an (n, d) transposed view.
        for batch in (x, np.ascontiguousarray(x.T).T):
            f, cache = forward(model, batch)
            assert same_bytes(f, want_f) and same_bytes(cache[2], want_cache[2])
            if want_cache[1] is None:
                assert cache[1] is None
            else:
                assert same_bytes(np.ascontiguousarray(cache[1]), want_cache[1])
            assert same_bytes(np.ascontiguousarray(vjp_input(model, cache, d_f)), want_in)
            grads = vjp_params(model, cache, d_f)
            assert grads.flags.c_contiguous and same_bytes(grads, want_params)
        # A row-major cache (as built above) is read the same way.
        assert same_bytes(np.ascontiguousarray(vjp_input(model, want_cache, d_f)), want_in)

    def test_shared_work_arrays(self, arch, d, n):
        # One binding serves the passes over every batch of its shape, as in
        # the ascent; each pass overwrites the previous one's buffers.
        model, x, _, rng = instance(arch, d, n)
        d_f = rng.normal(size=n)
        passes = _Passes(model)
        for batch in (x, rng.uniform(0.0, 1.0, size=x.shape)):
            f = passes.scores(np.ascontiguousarray(batch.T))
            got = passes.input_grad(d_f, passes.hidden, passes.output_slope())
            want_f, want_cache = row_major_forward(model, batch)
            assert same_bytes(f, want_f)
            assert same_bytes(np.ascontiguousarray(got.T),
                              row_major_vjp_input(model, want_cache, d_f))

    def test_start_scores_match_score(self, arch, d, n):
        # Training reads the batch's scores off the ascent's first pass;
        # runs under any multiplier leave them as they were.
        model, x, y, _ = instance(arch, d, n)
        ascent = _BoundAscent(model, _FixedLabelLoss(AUX, P_HAT, y), x, 2, 1.0, reuse=True)
        for lam in (0.0, 0.7):
            ascent.run(np.asarray(lam))
            assert same_bytes(ascent.f_start, score(model, x))

    def test_ascent(self, arch, d, n):
        model, x, y, _ = instance(arch, d, n)
        x_before = x.copy()
        lam_rows = 10.0 ** np.linspace(-2.0, 1.0, n)
        lam_rows[::7] = 0.0
        projected = 0
        for lam in (0.7, lam_rows):
            for step_size in (0.2, 1.0, 3.0):
                cfg = AttackConfig(steps=8, step_size=step_size)
                vals, x_adv = attack_batch(model, AUX, P_HAT, lam, x, y, cfg)
                want_vals, want_x, n_projected = row_major_attack(
                    model, AUX, P_HAT, lam, x, y, cfg)
                assert same_bytes(vals, want_vals) and same_bytes(x_adv, want_x)
                assert x_adv.flags.c_contiguous and x_adv.shape == (n, d)
                assert same_bytes(x, x_before)
                projected += n_projected
        if n >= 128:
            assert projected > 0  # the step sizes reach the box faces
