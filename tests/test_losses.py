import numpy as np
import pytest

from drauc import (AuxParams, auc_mann_whitney, closed_form_aux, pairwise_sq_risk,
                   saddle_value, surrogate_loss, surrogate_loss_grads)
from drauc.losses import _FixedLabelLoss
from drauc.verification import check_alpha_stationarity, check_saddle_identity


class TestSurrogateLoss:
    def test_zero_everything(self):
        aux = AuxParams(0, 0, 0)
        assert surrogate_loss(aux, 0.3, 0.0, 0) == 0.0

    def test_hand_evaluated_positive_example(self):
        # (1-p)(f-a)^2 - 2(1+alpha)(1-p) f - p(1-p) alpha^2
        # = 0.5*0.01 - 1*0.4 - 0.0625 = -0.4575
        aux = AuxParams(a=0.7, b=0.0, alpha=-0.5)
        assert surrogate_loss(aux, 0.5, 0.8, 1) == pytest.approx(-0.4575, abs=1e-15)

    def test_symbolic_negative_branch(self):
        # b = 0, alpha = 0, p = 0.5, y = 0 collapses to 0.5 f^2 + f
        aux = AuxParams(0, 0, 0)
        for f in np.linspace(0, 1, 21):
            assert surrogate_loss(aux, 0.5, f, 0) == pytest.approx(0.5 * f * f + f,
                                                                   abs=1e-15)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            AuxParams(1.2, 0, 0)
        with pytest.raises(ValueError):
            AuxParams(0, 0, -1.5)
        with pytest.raises(ValueError):
            surrogate_loss(AuxParams(0, 0, 0), 1.0, 0.5, 1)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        aux = AuxParams(0.3, 0.6, -0.2)
        fs = rng.uniform(0, 1, size=8)
        ys = rng.integers(0, 2, size=8)
        vec = surrogate_loss(aux, 0.25, fs, ys)
        for i in range(8):
            assert vec[i] == surrogate_loss(aux, 0.25, fs[i], int(ys[i]))
        # 16,000 rows in 8-row batches, each with its own aux and p_hat: a
        # scalar score must square like an array row, to the last bit.
        rng = np.random.default_rng(5)
        mismatches = 0
        for _ in range(2000):
            aux = AuxParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1))
            p_hat = float(rng.uniform(0.1, 0.9))
            fs = rng.uniform(0, 1, size=8)
            ys = rng.integers(0, 2, size=8)
            vec = surrogate_loss(aux, p_hat, fs, ys)
            mismatches += sum(vec[i] != surrogate_loss(aux, p_hat, fs[i], int(ys[i]))
                              for i in range(8))
        assert mismatches == 0


class TestSurrogateGrads:
    def test_alpha_grad_hand_value(self):
        # 2*(-(1-p) f) - 2 p (1-p) alpha = -0.8 + 0.25 = -0.55
        aux = AuxParams(0.7, 0.0, -0.5)
        _, _, _, d_alpha = surrogate_loss_grads(aux, 0.5, 0.8, 1)
        assert d_alpha == pytest.approx(-0.55, abs=1e-15)

    def test_stationary_in_a_at_class_mean(self):
        aux = AuxParams(0.8, 0.0, 0.0)
        _, d_a, _, _ = surrogate_loss_grads(aux, 0.5, 0.8, 1)
        assert d_a == 0.0

    def test_b_grad_zero_for_positive(self):
        aux = AuxParams(0.2, 0.9, 0.4)
        _, _, d_b, _ = surrogate_loss_grads(aux, 0.3, 0.6, 1)
        assert d_b == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(300):
            a, b = rng.uniform(0.05, 0.95, size=2)
            alpha = rng.uniform(-0.95, 0.95)
            p = rng.uniform(0.1, 0.9)
            f = rng.uniform(0, 1)
            y = int(rng.integers(2))
            d_f, d_a, d_b, d_alpha = surrogate_loss_grads(
                AuxParams(a, b, alpha), p, f, y)
            fd = [
                (surrogate_loss(AuxParams(a, b, alpha), p, f + h, y)
                 - surrogate_loss(AuxParams(a, b, alpha), p, f - h, y)) / (2 * h),
                (surrogate_loss(AuxParams(a + h, b, alpha), p, f, y)
                 - surrogate_loss(AuxParams(a - h, b, alpha), p, f, y)) / (2 * h),
                (surrogate_loss(AuxParams(a, b + h, alpha), p, f, y)
                 - surrogate_loss(AuxParams(a, b - h, alpha), p, f, y)) / (2 * h),
                (surrogate_loss(AuxParams(a, b, alpha + h), p, f, y)
                 - surrogate_loss(AuxParams(a, b, alpha - h), p, f, y)) / (2 * h),
            ]
            for got, want in zip((d_f, d_a, d_b, d_alpha), fd):
                assert got == pytest.approx(want, abs=1e-8)


def masked_loss(aux, p, f, y):
    """g with both classes' terms masked by 0/1 labels and summed."""
    f = np.asarray(f, dtype=float)
    pos = np.asarray(y) == 1
    neg = ~pos
    return (
        (1.0 - p) * (f - aux.a) ** 2 * pos
        + p * (f - aux.b) ** 2 * neg
        + 2.0 * (1.0 + aux.alpha) * (p * f * neg - (1.0 - p) * f * pos)
        - p * (1.0 - p) * aux.alpha**2
    )


def masked_grads(aux, p, f, y):
    """(d/df, d/da, d/db, d/dalpha) of g in the same masked form."""
    f = np.asarray(f, dtype=float)
    pos = np.asarray(y) == 1
    neg = ~pos
    d_f = (
        2.0 * (1.0 - p) * (f - aux.a) * pos
        + 2.0 * p * (f - aux.b) * neg
        + 2.0 * (1.0 + aux.alpha) * (p * neg - (1.0 - p) * pos)
    )
    d_a = -2.0 * (1.0 - p) * (f - aux.a) * pos
    d_b = -2.0 * p * (f - aux.b) * neg
    d_alpha = (2.0 * (p * f * neg - (1.0 - p) * f * pos)
               - 2.0 * p * (1.0 - p) * aux.alpha + 0.0 * f)
    return d_f, d_a, d_b, d_alpha


def same_bits(got, want):
    """Equal bit patterns and shapes: -0.0 differs from 0.0."""
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestMaskedFormBitwise:
    """The per-row coefficient form equals the masked form bit for bit."""

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, -0.3])
    def test_arrays(self, alpha):
        rng = np.random.default_rng(41)
        a, b, p = 0.3, 0.75, 0.2
        aux = AuxParams(a, b, alpha)
        fs = np.concatenate([[0.0, 1.0, a, b], rng.uniform(0, 1, size=60)])
        fs = np.repeat(fs, 2)
        ys = np.tile([1, 0], fs.size // 2)
        assert same_bits(surrogate_loss(aux, p, fs, ys), masked_loss(aux, p, fs, ys))
        for got, want in zip(surrogate_loss_grads(aux, p, fs, ys),
                             masked_grads(aux, p, fs, ys)):
            assert same_bits(got, want)
        for y in (0, 1):  # array scores, one label for all
            assert same_bits(surrogate_loss(aux, p, fs, y), masked_loss(aux, p, fs, y))
            for got, want in zip(surrogate_loss_grads(aux, p, fs, y),
                                 masked_grads(aux, p, fs, y)):
                assert same_bits(got, want)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_scalars_are_python_floats(self, alpha):
        a, b, p = 0.3, 0.75, 0.2
        aux = AuxParams(a, b, alpha)
        for f in (0.0, 1.0, a, b, 0.6180339887):
            for y in (0, 1):
                val = surrogate_loss(aux, p, f, y)
                assert type(val) is float
                assert same_bits(val, masked_loss(aux, p, f, y))
                grads = surrogate_loss_grads(aux, p, f, y)
                assert all(type(g) is float for g in grads)
                for got, want in zip(grads, masked_grads(aux, p, f, y)):
                    assert same_bits(got, want)


def row_form_loss_and_grads(aux, p, f, y):
    """g and its partials in the per-row coefficient form, each built from
    its own f - c and l*f, as surrogate_loss and surrogate_loss_grads were
    first written."""
    f = np.asarray(f, dtype=float)
    pos = np.asarray(y) == 1
    w = np.where(pos, 1.0 - p, p)
    c = np.where(pos, aux.a, aux.b)
    l = np.where(pos, -(1.0 - p), p)
    k = 2.0 * (1.0 + aux.alpha)
    g = w * np.square(f - c) + k * (l * f) - p * (1.0 - p) * aux.alpha**2
    d_f = (2.0 * w) * (f - c) + k * l
    d_a = -2.0 * (1.0 - p) * (f - aux.a) * pos
    d_b = -2.0 * p * (f - aux.b) * (~pos)
    d_alpha = 2.0 * (l * f) - 2.0 * p * (1.0 - p) * aux.alpha + 0.0 * f
    return g, d_f, d_a, d_b, d_alpha


class TestSharedLossMethod:
    """value_and_grads shares f - c and l*f across its five outputs and
    gives each one's separate formula bit for bit."""

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, -0.3])
    def test_arrays(self, alpha):
        rng = np.random.default_rng(43)
        for a, b, p in ((0.3, 0.75, 0.2), (0.0, 1.0, 0.5), (0.9, 0.1, 0.85)):
            aux = AuxParams(a, b, alpha)
            fs = np.repeat(np.concatenate([[0.0, 1.0, a, b], rng.uniform(0, 1, size=60)]), 2)
            for ys in (np.tile([1, 0], fs.size // 2), rng.integers(0, 2, fs.size), 0, 1):
                got = _FixedLabelLoss(aux, p, ys).value_and_grads(fs)
                want = row_form_loss_and_grads(aux, p, fs, ys)
                assert all(same_bits(g, w) for g, w in zip(got, want))
                assert same_bits(surrogate_loss(aux, p, fs, ys), want[0])
                assert all(same_bits(g, w) for g, w in
                           zip(surrogate_loss_grads(aux, p, fs, ys), want[1:]))

    def test_one_run_takes_any_triple_and_scalar_p(self):
        # An AuxParams or a plain (a, b, alpha) tuple, and p as a float or a
        # 0-d array: the same loss, bit for bit.
        fs = np.random.default_rng(44).uniform(0, 1, size=40)
        ys = (np.arange(40) % 3 == 0).astype(int)
        want = _FixedLabelLoss(AuxParams(0.3, 0.75, -0.3), 0.2, ys).value_and_grads(fs)
        for aux, p in (((0.3, 0.75, -0.3), 0.2), (AuxParams(0.3, 0.75, -0.3), np.array(0.2))):
            got = _FixedLabelLoss(aux, p, ys).value_and_grads(fs)
            assert all(same_bits(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_scalars(self, alpha):
        a, b, p = 0.3, 0.75, 0.2
        aux = AuxParams(a, b, alpha)
        for f in (0.0, 1.0, a, b, 0.6180339887):
            for y in (0, 1):
                got = _FixedLabelLoss(aux, p, y).value_and_grads(np.asarray(f))
                want = row_form_loss_and_grads(aux, p, f, y)
                assert all(same_bits(g, w) for g, w in zip(got, want))
                grads = surrogate_loss_grads(aux, p, f, y)
                assert type(grads) is tuple and all(type(g) is float for g in grads)
                assert all(same_bits(g, w) for g, w in zip(grads, want[1:]))


class TestClosedForm:
    def test_sample_means(self):
        aux = closed_form_aux([0.8, 0.6], [0.3, 0.1])
        assert (aux.a, aux.b) == (0.7, 0.2)
        assert aux.alpha == pytest.approx(-0.5, abs=1e-15)

    def test_coincident_classes(self):
        aux = closed_form_aux([0.4], [0.4])
        assert (aux.a, aux.b, aux.alpha) == (0.4, 0.4, 0.0)

    def test_extreme_scores_land_on_boundary(self):
        aux = closed_form_aux([1.0], [0.0])
        assert (aux.a, aux.b, aux.alpha) == (1.0, 0.0, -1.0)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            closed_form_aux([], [0.1])


class TestPairwiseRisk:
    def test_enumerated_pairs(self):
        # (0.25 + 0.09 + 0.49 + 0.25) / 4
        assert pairwise_sq_risk([0.8, 0.6], [0.3, 0.1]) == pytest.approx(0.27, abs=1e-15)

    def test_perfect_margin(self):
        assert pairwise_sq_risk([1.0], [0.0]) == 0.0

    def test_zero_margin(self):
        assert pairwise_sq_risk([0.4], [0.4]) == 1.0

    def test_against_explicit_double_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pos = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
            neg = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
            brute = np.mean([(1 - (p - q)) ** 2 for p in pos for q in neg])
            assert pairwise_sq_risk(pos, neg) == pytest.approx(brute, abs=1e-12)


class TestSaddleValue:
    def test_frozen_example(self):
        assert saddle_value([0.8, 0.6, 0.3, 0.1], [1, 1, 0, 0]) == pytest.approx(
            -0.1825, abs=1e-12)

    def test_constant_scores(self):
        assert saddle_value([0.5, 0.5, 0.5], [1, 0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_perfect_separation(self):
        assert saddle_value([1.0, 0.0], [1, 0]) == pytest.approx(-0.25, abs=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            saddle_value([0.4, 0.6], [1, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            saddle_value([0.4, 0.6, 0.2], [1, 0])

    def test_identity_with_pairwise_risk(self):
        res = check_saddle_identity(datasets=100, seed=4)
        assert res.passed, res.detail

    def test_alpha_stationary_at_closed_form(self):
        res = check_alpha_stationarity(datasets=50, seed=5)
        assert res.passed, res.detail


def brute_auc(pos, neg, tie_policy):
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q and tie_policy == "half":
                total += 0.5
    return total / (len(pos) * len(neg))


class TestMannWhitney:
    def test_enumerated(self):
        assert auc_mann_whitney([0.9, 0.4], [0.5, 0.1]) == 0.75
        assert auc_mann_whitney([0.9, 0.4], [0.5, 0.1], "strict") == 0.75

    def test_single_tie(self):
        assert auc_mann_whitney([0.5], [0.5], "half") == 0.5
        assert auc_mann_whitney([0.5], [0.5], "strict") == 0.0

    def test_perfect_separation(self):
        assert auc_mann_whitney([0.9], [0.1]) == 1.0

    def test_against_pair_enumeration(self):
        rng = np.random.default_rng(6)
        levels = np.linspace(0, 1, 7)
        for _ in range(100):
            pos = rng.choice(levels, size=int(rng.integers(1, 6)))
            neg = rng.choice(levels, size=int(rng.integers(1, 6)))
            for policy in ("half", "strict"):
                assert auc_mann_whitney(pos, neg, policy) == pytest.approx(
                    brute_auc(pos, neg, policy), abs=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pos = rng.uniform(0, 1, size=4)
            neg = rng.uniform(0, 1, size=5)
            before = auc_mann_whitney(pos, neg)
            after = auc_mann_whitney(np.expm1(2 * pos), np.expm1(2 * neg))
            assert before == after

    def test_complement_identity(self):
        rng = np.random.default_rng(8)
        levels = np.linspace(0, 1, 5)
        for _ in range(50):
            pos = rng.choice(levels, size=3)
            neg = rng.choice(levels, size=4)
            total = auc_mann_whitney(pos, neg) + auc_mann_whitney(neg, pos)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_bad_tie_policy(self):
        with pytest.raises(ValueError):
            auc_mann_whitney([0.5], [0.4], "maybe")
