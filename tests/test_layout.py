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
from drauc import model as model_module
from drauc.losses import _FixedLabelLoss, label_rows
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
    if model.arch.startswith("mlp1-tanh-sigmoid"):
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


def rebound_ascents(arch, d, n, runs):
    """One ascent bound to a batch, then rebound to three more, each after an
    in-place params edit and its loss's rebind to new aux and labels; per
    rebind, the ascent, a fresh ascent on a copy of the params, that copy's
    model, and multipliers to run: 0, one above 0 and one per row."""
    model, _, _, rng = instance(arch, d, n)
    lead = (runs,) if runs else ()
    if runs:  # step sizes per run, as training passes them
        model = replace(model, params=model.params
                        + rng.normal(0.0, 0.1, (runs, model.params.size)))
        p, step_size = [P_HAT, 0.3, 0.5], np.array([0.2, 1.0, 3.0])[:, None, None]
    else:
        p, step_size = P_HAT, np.asarray(1.0)
    params, ascent = model.params, None
    for _ in range(4):
        auxes = [AuxParams(*rng.uniform((0.0, 0.0, -1.0), 1.0).tolist()) for _ in range(runs or 1)]
        aux = auxes if runs else auxes[0]
        x = rng.uniform(0.0, 1.0, size=(*lead, n, d))
        y = (rng.random((*lead, n)) < 0.3).astype(int)
        if ascent is None:
            loss = _FixedLabelLoss(aux, p, y)
            ascent = _BoundAscent(_Passes(model), loss, x, 4, step_size)
            continue
        params -= 0.05 * rng.normal(size=params.shape)  # in place, as training steps
        loss.rebind(auxes, label_rows(np.array(p)[:, None] if runs else p, y))
        ascent.rebind(x)
        fresh_model = replace(model, params=params.copy())
        fresh = _BoundAscent(_Passes(fresh_model), _FixedLabelLoss(aux, p, y), x, 4, step_size)
        lam_rows = 10.0 ** rng.uniform(-2.0, 1.0, size=(*lead, n))
        lam_rows[..., ::7] = 0.0
        yield ascent, fresh, fresh_model, [np.asarray(0.0), np.asarray(0.7), lam_rows]


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
            got = passes.input_grad(d_f)
            want_f, want_cache = row_major_forward(model, batch)
            assert same_bytes(f, want_f)
            assert same_bytes(np.ascontiguousarray(got.T),
                              row_major_vjp_input(model, want_cache, d_f))

    @pytest.mark.parametrize("runs", [0, 3], ids=["unstacked", "stacked"])
    def test_bound_forward_matches_fresh(self, arch, d, n, runs):
        # The training loop binds one _Passes per run, passes each iteration's
        # batch through it and edits params in place between passes; each
        # pass, and the parameter gradient on its cache, is a fresh forward's.
        model, _, _, rng = instance(arch, d, n)
        if runs:
            model = replace(model, params=model.params
                            + rng.normal(0.0, 0.1, (runs, model.params.size)))
        params, passes = model.params, _Passes(model)
        for _ in range(3):
            batch = rng.uniform(0.0, 1.0, size=(*params.shape[:-1], n, d))
            d_f = rng.normal(size=batch.shape[:-1])
            f, cache = passes.forward(batch)
            fresh = replace(model, params=params.copy())
            want_f, want_cache = forward(fresh, batch)
            assert same_bytes(f, want_f) and same_bytes(cache[2], want_cache[2])
            if want_cache[1] is None:
                assert cache[1] is None
            else:
                assert same_bytes(cache[1], want_cache[1])
            want_params = vjp_params(fresh, want_cache, d_f)
            assert same_bytes(vjp_params(model, cache, d_f), want_params)
            # The binding's own parameter gradient, in buffers reused every pass.
            assert same_bytes(passes.vjp_params(cache, d_f), want_params)
            # A new d_f array each pass, through the same binding.
            got_in = passes.input_grad(d_f)
            assert same_bytes(got_in.mT, vjp_input(fresh, want_cache, d_f))
            params -= 0.05 * rng.normal(size=params.shape)  # in place, as training steps

    @pytest.mark.parametrize("runs", [0, 3], ids=["unstacked", "stacked"])
    def test_rebound_ascent_matches_fresh(self, arch, d, n, runs):
        # Training binds one ascent per stack and rebinds it to each batch,
        # after its loss and an in-place params edit.  Each rebind's runs are
        # a fresh ascent's, and a later run leaves earlier runs' arrays alone.
        for ascent, fresh, _, lams in rebound_ascents(arch, d, n, runs):
            assert same_bytes(ascent.f_start, fresh.f_start)
            held = []
            for lam in lams:
                got, want = ascent.run(lam), fresh.run(lam)
                assert all(map(same_bytes, got, want))
                assert ascent.last_is_best == fresh.last_is_best
                held.append((got, [a.copy() for a in got]))
            assert all(same_bytes(a, b) for got, kept in held for a, b in zip(got, kept))

    @pytest.mark.parametrize("runs", [0, 3], ids=["unstacked", "stacked"])
    def test_last_pass_is_a_fresh_forward(self, arch, d, n, runs):
        # The step reads the scores, tanh layer and slope of the ascent's last
        # pass, over its last iterate, when every row's best iterate was it.
        for ascent, _, fresh_model, lams in rebound_ascents(arch, d, n, runs):
            for lam in lams:
                _, x_adv = ascent.run(lam)
                x_last = np.ascontiguousarray(ascent.iterates[0].mT)  # x_cur
                f, cache = ascent.passes.scored(x_last)
                want_f, want_cache = forward(fresh_model, x_last)
                assert same_bytes(f, want_f) and same_bytes(cache[2], want_cache[2])
                if want_cache[1] is None:
                    assert cache[1] is None
                else:
                    assert same_bytes(cache[1], want_cache[1])
                if ascent.last_is_best:
                    assert same_bytes(x_adv, x_last)

    def test_start_scores_match_score(self, arch, d, n):
        # Training reads the batch's scores off the ascent's first pass;
        # runs under any multiplier leave them as they were.
        model, x, y, _ = instance(arch, d, n)
        ascent = _BoundAscent(_Passes(model), _FixedLabelLoss(AUX, P_HAT, y), x, 2, 1.0)
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


@pytest.mark.parametrize("name", ["ZERO", "ONE", "_EXP_LO", "_EXP_HI"])
def test_pass_constants_are_read_only(name):
    # The passes' literals are shared 0-d arrays; no ufunc may write one.
    const = getattr(model_module, name)
    assert const.shape == () and const.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        np.add(const, 1.0, out=const)
