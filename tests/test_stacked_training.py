"""Stacked training: every run of a stack walks bitwise the trajectory that
``train`` gives it alone, whatever the other runs of the stack are."""

import numpy as np
import pytest

from drauc import (Dataset, TrainConfig, gen_synthetic, init_model, make_long_tailed,
                   train, train_stacked)
from drauc.verification import _same_run


def tailed(n, d, seed, ratio=0.2):
    return make_long_tailed(gen_synthetic(n, d, seed=seed), ratio, seed=seed)


def few_negatives(d):
    # One negative in seven rows: a batch of three often lacks it.
    feats = np.random.default_rng(21).uniform(0, 1, size=(7, d))
    return Dataset.from_arrays(feats, np.array([1, 1, 0, 1, 1, 1, 1]))


def assert_each_run_matches_train(runs):
    states = train_stacked(runs)
    assert len(states) == len(runs)
    for i, ((ds, cfg, model), state) in enumerate(zip(runs, states)):
        alone = train(ds, cfg, model)
        assert _same_run(state, alone), f"run {i} ({cfg.variant}) left its solo trajectory"
        assert state.dual.eps == alone.dual.eps and state.dual.lambda_max == alone.dual.lambda_max
        assert state.model.params.flags.c_contiguous and state.model.params.shape == (
            model.params.size,)
    return states


# Per-run settings that a stack may mix: variant, dataset and its n, seed,
# eps, k_split, learning rates, lambda0 and lambda_max.
ATTACKED = [
    dict(variant="df", eps=0.05, seed=1),
    dict(variant="da", eps=0.3, k_split=1.2, eta_lambda=5.0, lambda0=0.5, seed=2),
    dict(variant="da", eps=0.002, eta_z=0.2, eta_w=0.05, eta_alpha=0.3, lambda_max=3.0,
         seed=3),
    dict(variant="df", eps=0.01, eta_lambda=20.0, lambda0=0.0, seed=4),
]
UNATTACKED = [
    dict(variant="df", eta_z=0.0, eps=0.1, seed=5),
    dict(variant="da", eta_z=0.0, eps=0.2, seed=6, eta_w=0.3),
    dict(variant="aucm-baseline", eta_z=0.05, eps=0.4, seed=7, eta_alpha=0.02),
    dict(variant="aucm-baseline", seed=8, lambda0=2.0),
]


@pytest.mark.parametrize("arch, d", [("linear-sigmoid", 1), ("mlp1-tanh-sigmoid(8)", 2)])
@pytest.mark.parametrize("settings", [ATTACKED, UNATTACKED], ids=["attack", "no-attack"])
def test_mixed_stack_matches_solo_runs(arch, d, settings):
    runs = [(tailed(120 + 45 * i, d, 30 + i), TrainConfig(iters=60, batch_size=16, **kw),
             init_model(arch, d, 40 + i))
            for i, kw in enumerate(settings)]
    states = assert_each_run_matches_train(runs)
    # The mix is real: the runs end in different places.
    assert len({s.model.params.tobytes() for s in states}) == len(states)


@pytest.mark.parametrize("eta_z", [0.1, 0.0])
def test_stack_with_absent_negatives(eta_z):
    # Batches of three from a seven-row set often lack its one negative;
    # the other run's dataset is larger and never does.
    runs = [(few_negatives(2), TrainConfig(variant="da", iters=40, batch_size=3, eta_z=eta_z,
                                           eps=0.1, seed=32), init_model("linear-sigmoid", 2, 32)),
            (tailed(50, 2, 33), TrainConfig(variant="df", iters=40, batch_size=3, eta_z=eta_z,
                                            eps=0.2, seed=33), init_model("linear-sigmoid", 2, 33))]
    states = assert_each_run_matches_train(runs)
    absent = [rec["mean_cost_neg"] is None for rec in states[0].history]
    assert any(absent) and not all(absent)


def test_stack_of_long_batches():
    # Batches longer than NumPy's 128-element pairwise-sum block.
    runs = [(gen_synthetic(400 + 100 * i, 2, seed=50 + i),
             TrainConfig(variant=variant, iters=15, batch_size=300, eps=0.05, seed=50 + i),
             init_model("mlp1-tanh-sigmoid(8)", 2, 50 + i))
            for i, variant in enumerate(("da", "df", "da"))]
    assert_each_run_matches_train(runs)


def test_identical_runs_stay_identical():
    ds = tailed(200, 2, 60)
    run = (ds, TrainConfig(variant="da", iters=30, batch_size=16, eps=0.05, seed=60),
           init_model("mlp1-tanh-sigmoid(8)", 2, 60))
    first, second = train_stacked([run, run])
    assert _same_run(first, second) and _same_run(first, train(*run))


@pytest.mark.parametrize("lambda0", [1, 0])
@pytest.mark.parametrize("variant", ["da", "df"])
def test_int_settings_train_as_their_floats(variant, lambda0):
    # Ints where the config's defaults are floats train as those floats:
    # the multipliers stay float64, so an update to 0.995 is not cut to 0.
    ds, model = tailed(150, 2, 80), init_model("mlp1-tanh-sigmoid(8)", 2, 80)
    base = dict(variant=variant, iters=40, batch_size=16, eps=0.05, seed=80)
    ints = TrainConfig(lambda0=lambda0, eta_z=1, eta_w=1, **base)
    floats = TrainConfig(lambda0=float(lambda0), eta_z=1.0, eta_w=1.0, **base)
    want = train(ds, floats, model)
    assert any(lam % 1.0 for rec in want.history for lam in
               (rec.get("lam"), rec.get("lam_pos"), rec.get("lam_neg")) if lam is not None)
    assert _same_run(train(ds, ints, model), want)
    assert all(_same_run(s, want) for s in train_stacked([(ds, ints, model),
                                                          (ds, floats, model)]))


class TestStackValidation:
    @staticmethod
    def run(d=2, arch="linear-sigmoid", **kw):
        cfg = dict(variant="df", iters=5, batch_size=8, eps=0.1)
        cfg.update(kw)
        return tailed(60, d, 70), TrainConfig(**cfg), init_model(arch, d, 70)

    def test_empty_run_list(self):
        with pytest.raises(ValueError, match="runs"):
            train_stacked([])

    @pytest.mark.parametrize("field, other", [
        ("arch", dict(arch="mlp1-tanh-sigmoid(8)")),
        ("input_dim", dict(d=3)),
        ("iters", dict(iters=6)),
        ("batch_size", dict(batch_size=9)),
        ("steps", dict(steps=3)),
    ])
    def test_shape_mismatch_names_the_field(self, field, other):
        with pytest.raises(ValueError, match=f"must share {field}: run 0 has .*, run 1 has"):
            train_stacked([self.run(), self.run(**other)])

    def test_hidden_width_is_part_of_the_arch(self):
        with pytest.raises(ValueError, match="must share arch"):
            train_stacked([self.run(arch="mlp1-tanh-sigmoid(4)"),
                           self.run(arch="mlp1-tanh-sigmoid(8)")])

    @pytest.mark.parametrize("off", [dict(eta_z=0.0), dict(variant="aucm-baseline")])
    def test_attack_mix_names_the_field(self, off):
        for runs in ([self.run(), self.run(**off)], [self.run(**off), self.run()]):
            with pytest.raises(ValueError, match="must share attack .*eta_z"):
                train_stacked(runs)

    def test_per_run_checks_still_apply(self):
        ds, cfg, model = self.run()
        with pytest.raises(ValueError, match="input_dim"):
            train_stacked([self.run(), (ds, cfg, init_model("linear-sigmoid", 3, 0))])
        with pytest.raises(ValueError, match="exceeds dataset size"):
            train_stacked([self.run(batch_size=61), self.run(batch_size=61)])
