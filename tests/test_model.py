from dataclasses import replace

import numpy as np
import pytest

from drauc import (ConfigError, ScoringModel, forward, init_model, param_count,
                   score, vjp_input, vjp_params)
from drauc.verification import check_score_range


def identity_scorer():
    return ScoringModel("linear-identity-clamped", np.array([1.0, 0.0]), 1)


class TestInit:
    def test_deterministic_for_fixed_seed(self):
        a = init_model("linear-sigmoid", 2, seed=7)
        b = init_model("linear-sigmoid", 2, seed=7)
        assert np.array_equal(a.params, b.params)

    def test_mlp_param_count(self):
        m = init_model("mlp1-tanh-sigmoid(8)", 2, seed=0)
        # weights 2*8, hidden biases 8, output weights 8, output bias 1
        assert m.params.size == 33
        assert param_count("mlp1-tanh-sigmoid", 2, 8) == 33

    def test_biases_zero_weights_bounded(self):
        m = init_model("mlp1-tanh-sigmoid(4)", 3, seed=5)
        w = m.params[:12].reshape(4, 3)
        c = m.params[12:16]
        v = m.params[16:20]
        assert np.all(c == 0.0) and m.params[-1] == 0.0
        assert np.all(np.abs(w) <= 1 / np.sqrt(3))
        assert np.all(np.abs(v) <= 1 / np.sqrt(4))

    def test_identity_scorer_is_identity(self):
        m = identity_scorer()
        for x in (0.0, 0.3, 0.5, 1.0):
            assert score(m, np.array([x])) == x

    def test_invalid_arch_rejected(self):
        with pytest.raises(ConfigError):
            init_model("resnet20", 2, seed=0)
        with pytest.raises(ConfigError):
            init_model("mlp1-tanh-sigmoid(0)", 2, seed=0)

    def test_param_length_validated(self):
        with pytest.raises(ConfigError):
            ScoringModel("linear-sigmoid", np.zeros(5), 2)


class TestScore:
    def test_zero_weights_give_half(self):
        m = ScoringModel("linear-sigmoid", np.zeros(3), 2)
        assert score(m, np.array([0.4, 0.9])) == 0.5

    def test_sigmoid_of_one(self):
        m = ScoringModel("linear-sigmoid", np.array([1.0, 0.0, 0.0]), 2)
        assert score(m, np.array([1.0, 0.0])) == pytest.approx(0.7310585786, abs=1e-9)

    def test_identity_clamp(self):
        assert score(identity_scorer(), np.array([0.3])) == 0.3
        m = ScoringModel("linear-identity-clamped", np.array([2.0, 0.0]), 1)
        assert score(m, np.array([0.9])) == 1.0

    def test_dimension_mismatch(self):
        m = init_model("linear-sigmoid", 2, seed=0)
        with pytest.raises(ValueError):
            score(m, np.array([0.1, 0.2, 0.3]))

    def test_batch_matches_single(self):
        m = init_model("mlp1-tanh-sigmoid(8)", 3, seed=1)
        xs = np.random.default_rng(0).uniform(0, 1, size=(10, 3))
        batch = score(m, xs)
        assert batch.shape == (10,)
        for i in range(10):
            assert batch[i] == score(m, xs[i])

    def test_range_property(self):
        assert check_score_range(seed=42).passed


def central_diff(fn, x, i, h=1e-5):
    lo, hi = x.copy(), x.copy()
    lo[i] -= h
    hi[i] += h
    return (fn(hi) - fn(lo)) / (2 * h)


def score_grads(m, x):
    """(d f / d params, d f / d x) at one input: the products with d_f = 1."""
    f, cache = forward(m, x)
    ones = np.ones_like(f)
    return vjp_params(m, cache, ones)[0], vjp_input(m, cache, ones)[0]


class TestGradients:
    def test_sigmoid_bias_grad_at_zero(self):
        m = ScoringModel("linear-sigmoid", np.zeros(3), 2)
        g = score_grads(m, np.array([0.2, 0.8]))[0]
        assert g[-1] == pytest.approx(0.25, abs=1e-12)

    def test_identity_input_grad(self):
        assert score_grads(identity_scorer(), np.array([0.5]))[1][0] == 1.0

    def test_clamp_boundary_convention(self):
        m = identity_scorer()
        # On the exact boundary the ramp branch wins; strictly outside the
        # clamp region the gradient is zero.
        assert score_grads(m, np.array([0.0]))[1][0] == 1.0
        assert score_grads(m, np.array([1.0]))[1][0] == 1.0
        m2 = ScoringModel("linear-identity-clamped", np.array([2.0, 0.0]), 1)
        assert score_grads(m2, np.array([0.9]))[1][0] == 0.0

    @pytest.mark.parametrize("arch", ["linear-sigmoid", "mlp1-tanh-sigmoid(8)"])
    def test_matches_finite_differences(self, arch):
        rng = np.random.default_rng(3)
        for trial in range(100):
            d = int(rng.integers(1, 4))
            m = init_model(arch, d, seed=int(rng.integers(2**31)))
            x = rng.uniform(0.05, 0.95, size=d)
            gp, gx = score_grads(m, x)
            for i in range(m.params.size):
                fd = central_diff(lambda p: score(replace(m, params=p), x), m.params, i)
                assert abs(gp[i] - fd) / max(1.0, abs(gp[i]), abs(fd)) <= 1e-5
            for i in range(d):
                fd = central_diff(lambda xv: score(m, xv), x, i)
                assert abs(gx[i] - fd) / max(1.0, abs(gx[i]), abs(fd)) <= 1e-5

    def test_identity_clamped_interior_fd(self):
        m = ScoringModel("linear-identity-clamped", np.array([0.8, 0.05]), 1)
        x = np.array([0.5])
        fd = central_diff(lambda xv: score(m, xv), x, 0)
        assert score_grads(m, x)[1][0] == pytest.approx(fd, abs=1e-9)


class TestForward:
    @pytest.mark.parametrize("arch", ["linear-sigmoid", "mlp1-tanh-sigmoid(4)",
                                      "linear-identity-clamped"])
    def test_products_scale_the_wrappers(self, arch):
        rng = np.random.default_rng(21)
        m = init_model(arch, 3, seed=5)
        x = rng.uniform(0.0, 1.0, size=(7, 3))
        d_f = rng.normal(size=7)
        f, cache = forward(m, x)
        assert np.array_equal(f, score(m, x))
        ones = np.ones_like(f)
        assert np.array_equal(vjp_input(m, cache, d_f),
                              d_f[:, None] * vjp_input(m, cache, ones))
        assert np.array_equal(vjp_params(m, cache, d_f),
                              d_f[:, None] * vjp_params(m, cache, ones))


class TestParameterViews:
    ARCHS = ["linear-sigmoid", "mlp1-tanh-sigmoid(4)", "linear-identity-clamped"]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_replace_matches_fresh_model(self, arch):
        rng = np.random.default_rng(22)
        m = init_model(arch, 3, seed=6)
        x = rng.uniform(0.0, 1.0, size=(9, 3))
        p2 = m.params + rng.normal(0.0, 1.0, m.params.shape)
        fresh = ScoringModel(m.arch, p2, m.input_dim, m.hidden_width)
        f_replaced, cache_replaced = forward(replace(m, params=p2), x)
        f_fresh, cache_fresh = forward(fresh, x)
        assert np.array_equal(f_replaced, f_fresh)
        assert np.array_equal(f_fresh, score(replace(m, params=p2.copy()), x))
        d_f = rng.normal(size=9)
        assert np.array_equal(vjp_input(replace(m, params=p2), cache_replaced, d_f),
                              vjp_input(fresh, cache_fresh, d_f))
        assert np.array_equal(vjp_params(replace(m, params=p2), cache_replaced, d_f),
                              vjp_params(fresh, cache_fresh, d_f))

    @pytest.mark.parametrize("arch", ARCHS)
    def test_in_place_edits_reach_forward(self, arch):
        m = init_model(arch, 2, seed=8)
        x = np.array([[0.2, 0.4], [0.7, 0.1]])
        for i in range(m.params.size):  # the bias, params[-1], included
            before = forward(m, x)[0]
            m.params[i] += 0.25
            after = forward(m, x)[0]
            fresh = ScoringModel(m.arch, m.params.copy(), m.input_dim, m.hidden_width)
            assert np.array_equal(after, forward(fresh, x)[0])
            assert not np.array_equal(after, before)


class TestStackedForward:
    """Stacked runs: each slice of one pass is bitwise its own call."""

    ARCHS = ["linear-sigmoid", "mlp1-tanh-sigmoid(8)", "linear-identity-clamped"]

    @staticmethod
    def runs(arch, d, r, rng):
        """r perturbed models of one shape, and the same params stacked."""
        base = init_model(arch, d, seed=int(rng.integers(2**31)))
        params = base.params + rng.normal(0.0, 1.0, (r, base.params.size))
        models = [replace(base, params=params[i].copy()) for i in range(r)]
        return models, replace(base, params=params)

    @staticmethod
    def assert_slice(stacked_out, i, single_out):
        f, (batch, hidden, slope) = stacked_out
        f1, (batch1, hidden1, slope1) = single_out
        assert np.array_equal(f[i], f1)
        assert np.array_equal(np.broadcast_to(batch, (*f.shape[:-1], *batch1.shape))[i],
                              batch1)
        assert (hidden is None) == (hidden1 is None)
        if hidden is not None:
            assert np.array_equal(hidden[i], hidden1)
        assert np.array_equal(slope[i], slope1)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slices_match_single_model(self, arch, d):
        rng = np.random.default_rng(31 + d)
        for n in (1, 4, 128):
            for r in (1, 5, 66):
                models, stacked = self.runs(arch, d, r, rng)
                xs = rng.uniform(0.0, 1.0, size=(r, n, d))
                # Stacked params on one shared batch.
                out = forward(stacked, xs[0])
                assert out[0].shape == (r, n)
                for i in range(r):
                    self.assert_slice(out, i, forward(models[i], xs[0]))
                # One model on stacked batches.
                out = forward(models[0], xs)
                for i in range(r):
                    self.assert_slice(out, i, forward(models[0], xs[i]))
                # Stacked params, each on its own batch.
                out = forward(stacked, xs)
                for i in range(r):
                    self.assert_slice(out, i, forward(models[i], xs[i]))

    def test_score_of_one_input_per_run(self):
        rng = np.random.default_rng(32)
        models, stacked = self.runs("mlp1-tanh-sigmoid(8)", 2, 4, rng)
        x = rng.uniform(0.0, 1.0, size=2)
        f = score(stacked, x)
        assert f.shape == (4,)
        assert [float(v) for v in f] == [score(m, x) for m in models]
        assert isinstance(score(models[0], x), float)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_in_place_edits_reach_stacked_forward(self, arch):
        rng = np.random.default_rng(33)
        _, stacked = self.runs(arch, 2, 3, rng)
        x = rng.uniform(0.0, 1.0, size=(5, 2))
        before = forward(stacked, x)[0]
        stacked.params[1, -1] += 0.25
        after = forward(stacked, x)[0]
        assert np.array_equal(after[[0, 2]], before[[0, 2]])
        assert not np.array_equal(after[1], before[1])

    def test_run_axes_must_broadcast(self):
        rng = np.random.default_rng(34)
        for arch in self.ARCHS:
            _, stacked = self.runs(arch, 2, 3, rng)
            with pytest.raises(ValueError, match="cannot be broadcast"):
                forward(stacked, rng.uniform(0.0, 1.0, size=(4, 5, 2)))
            with pytest.raises(ValueError, match="input_dim"):
                forward(stacked, rng.uniform(0.0, 1.0, size=(3, 5, 3)))
            assert forward(stacked, rng.uniform(0.0, 1.0, size=(1, 5, 2)))[0].shape == (3, 5)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_vjps_of_stacked_runs_match_single_model(self, arch, d):
        rng = np.random.default_rng(35 + d)
        for n in (1, 5, 128):
            models, stacked = self.runs(arch, d, 3, rng)
            xs = rng.uniform(0.0, 1.0, size=(3, n, d))
            d_f = rng.normal(size=(3, n))
            # Stacked params on a shared batch, one model on stacked
            # batches, and stacked params each on its own batch.
            for model, batch, solo in ((stacked, xs[0], lambda i: (models[i], xs[0])),
                                       (models[0], xs, lambda i: (models[0], xs[i])),
                                       (stacked, xs, lambda i: (models[i], xs[i]))):
                _, cache = forward(model, batch)
                got_in = vjp_input(model, cache, d_f)
                got_params = vjp_params(model, cache, d_f)
                assert got_params.flags.c_contiguous
                for i in range(3):
                    m_i, x_i = solo(i)
                    _, cache_i = forward(m_i, x_i)
                    want_in = vjp_input(m_i, cache_i, d_f[i])
                    want_params = vjp_params(m_i, cache_i, d_f[i])
                    assert got_in[i].tobytes() == want_in.tobytes()
                    assert got_params[i].tobytes() == want_params.tobytes()
