import gc
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from drauc import (AttackConfig, AuxParams, Dataset, DualState, TrainConfig,
                   attack_batch, auc_mann_whitney, evaluate, forward, gen_synthetic,
                   init_model, sample_batch, score, split_epsilon,
                   surrogate_loss, surrogate_loss_grads, train, train_stacked, vjp_params,
                   write_report)
from drauc.model import _Passes
from drauc.training import BLOCK, GROUP_SUFFIXES, VARIANTS, History
from drauc.verification import (check_domain_preservation, check_lambda_direction,
                                check_separable_training, check_trainer_determinism)


class TestSplitEpsilon:
    def test_k_one_gives_equal_radii(self):
        assert split_epsilon(0.5, 0.2, 1.0) == (0.5, 0.5)

    def test_hand_computed_split(self):
        eps_pos, eps_neg = split_epsilon(0.5, 0.2, 0.5)
        assert eps_pos == pytest.approx(0.25, abs=1e-15)
        assert eps_neg == pytest.approx(0.5625, abs=1e-15)
        assert 0.2 * eps_pos + 0.8 * eps_neg == pytest.approx(0.5, abs=1e-15)

    def test_zero_budget(self):
        assert split_epsilon(0.0, 0.3, 1.3) == (0.0, 0.0)

    def test_budget_identity_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            eps = float(rng.uniform(0, 2))
            p = float(rng.uniform(0.05, 0.9))
            k = float(rng.uniform(0.5, 1.5))
            if k * p >= 1.0:
                continue
            ep, en = split_epsilon(eps, p, k)
            assert p * ep + (1 - p) * en == pytest.approx(eps, rel=1e-15, abs=1e-15)

    def test_guards(self):
        with pytest.raises(ValueError):
            split_epsilon(-0.1, 0.2, 1.0)
        with pytest.raises(ValueError):
            split_epsilon(0.5, 0.2, 0.4)
        with pytest.raises(ValueError):
            split_epsilon(0.5, 0.8, 1.5)  # k * p >= 1
        with pytest.raises(ValueError, match="^k must be a real number, got True$"):
            split_epsilon(0.1, 0.2, True)  # not read as k = 1.0


def assert_rows_of(ds, idx, batch_size):
    # Training takes the batch's rows with mode="clip", which would read the
    # last row for an out-of-range index instead of raising, so every index
    # must already lie in [0, n), each once.
    assert idx.dtype.kind == "i" and idx.shape == (batch_size,)
    assert 0 <= idx.min() and idx.max() < ds.n and np.unique(idx).size == batch_size


class TestSampleBatch:
    def test_single_positive_always_included(self):
        feats = np.random.default_rng(1).uniform(0, 1, size=(50, 1))
        labels = np.zeros(50, dtype=int)
        labels[17] = 1
        ds = Dataset.from_arrays(feats, labels)
        rng = np.random.default_rng(2)
        for _ in range(200):
            idx = sample_batch(ds, 8, rng)
            assert_rows_of(ds, idx, 8)
            assert (ds.labels[idx] == 1).any()

    def test_full_batch_is_whole_dataset(self):
        ds = gen_synthetic(20, 1, seed=3)
        idx = sample_batch(ds, 20, np.random.default_rng(0))
        assert sorted(idx) == list(range(20))

    def test_every_batch_has_positive_property(self):
        ds = make_tailed_dataset()
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            idx = sample_batch(ds, 10, rng)
            assert_rows_of(ds, idx, 10)
            assert (ds.labels[idx] == 1).any()

    def test_errors(self):
        ds = gen_synthetic(20, 1, seed=3)
        with pytest.raises(ValueError):
            sample_batch(ds, 21, np.random.default_rng(0))
        all_neg = Dataset.from_arrays(ds.features, np.zeros(20, dtype=int))
        with pytest.raises(ValueError):
            sample_batch(all_neg, 5, np.random.default_rng(0))


def make_tailed_dataset(seed=5):
    from drauc import make_long_tailed
    return make_long_tailed(gen_synthetic(400, 2, seed=seed), 0.1, seed=seed)


def separable_dataset():
    feats = np.concatenate([np.full(20, 0.9), np.full(20, 0.1)])[:, None]
    labels = np.concatenate([np.ones(20, dtype=int), np.zeros(20, dtype=int)])
    return Dataset.from_arrays(feats, labels)


class TestTrainers:
    def test_both_classes_required(self):
        feats = np.random.default_rng(0).uniform(0, 1, (10, 1))
        ds = Dataset.from_arrays(feats, np.ones(10, dtype=int))
        with pytest.raises(ValueError):
            train(ds, TrainConfig(variant="df"), init_model("linear-sigmoid", 1, 0))

    def test_deterministic_reruns(self):
        res = check_trainer_determinism(iters=50, seed=11)
        assert res.passed, res.detail

    def test_domain_preservation_every_iteration(self):
        res = check_domain_preservation(iters=80, seed=12)
        assert res.passed, res.detail

    def test_history_holds_every_iterate(self):
        # Each row of thetas holds the iterate its iteration started from,
        # untouched by the in-place updates that follow; a run keeps them
        # only on request.
        ds = make_tailed_dataset()
        m = init_model("linear-sigmoid", 2, 15)
        cfg = TrainConfig(variant="df", iters=5, batch_size=16, seed=15)
        assert train(ds, cfg, m).history.thetas is None
        state = train(ds, cfg, m, keep_thetas=True)
        thetas = state.history.thetas
        assert thetas.shape == (5, m.params.size) and np.array_equal(thetas[0], m.params)
        assert not any(np.shares_memory(thetas, p) for p in (m.params, state.model.params))
        assert all(not np.array_equal(s, t) for s, t in zip(thetas, thetas[1:]))

    def test_lambda_moves_against_cost_gap(self):
        res = check_lambda_direction(iters=40, seed=14)
        assert res.passed, res.detail

    def test_separable_instance_reaches_perfect_auc(self):
        res = check_separable_training(seed=115)
        assert res.passed, res.detail

    def test_baseline_reaches_perfect_auc_within_200(self):
        ds = separable_dataset()
        cfg = TrainConfig(variant="aucm-baseline", iters=200, batch_size=8, seed=16)
        state = train(ds, cfg, init_model("linear-sigmoid", 1, 16))
        assert evaluate(state.model, state.aux, ds)["nominal_auc"] == 1.0
        batch_auc = state.history.column("batch_auc")
        assert np.all(np.isfinite(batch_auc) & (0.0 <= batch_auc) & (batch_auc <= 1.0))

    def test_da_split_budgets_recorded(self):
        ds = make_tailed_dataset()
        cfg = TrainConfig(variant="da", iters=10, batch_size=16, eps=0.4,
                          k_split=0.8, seed=17)
        state = train(ds, cfg, init_model("linear-sigmoid", 2, 17))
        ep, en = state.dual.eps
        assert ep == pytest.approx(0.8 * 0.4, abs=1e-15)
        assert ds.p_hat * ep + (1 - ds.p_hat) * en == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_budget_per_group_suffix(self, variant):
        # Checkpoints name a variant's multipliers and radii by its suffixes.
        cfg = TrainConfig(variant=variant, iters=3, batch_size=16, eps=0.4, seed=18)
        state = train(make_tailed_dataset(), cfg, init_model("linear-sigmoid", 2, 18))
        suffixes = GROUP_SUFFIXES[variant]
        assert len(state.dual.lam) == len(state.dual.eps) == len(suffixes)
        assert all({"lam" + s, "mean_cost" + s} <= set(state.history.fields) for s in suffixes)
        assert state.history.values.shape == (cfg.iters, 5 + 2 * len(suffixes))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="nope")
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(eta_w=0.0)
        with pytest.raises(ValueError):
            TrainConfig(eta_z=-0.1)
        TrainConfig(eta_z=0.0)  # attack disabled is allowed
        for field, value in (("eta_z", math.nan), ("eta_w", math.inf),
                             ("eps", math.nan), ("lambda0", math.nan),
                             ("k_split", -math.inf), ("lambda_max", math.inf)):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                TrainConfig(**{field: value})
        for lambda0 in (-0.5, 2.0):
            with pytest.raises(ValueError, match="lambda0"):
                TrainConfig(lambda0=lambda0, lambda_max=1.0)
        TrainConfig(lambda0=0.0)
        TrainConfig(lambda0=1.0, lambda_max=1.0)  # both bounds allowed
        # A count or seed that is not an integer, a bool included, is refused
        # by name when the config is built, not at its first use nor as 1.
        for field, value in (("iters", 2.5), ("iters", True), ("batch_size", np.float64(64.0)),
                             ("steps", False), ("seed", 1.5)):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
                TrainConfig(**{field: value})
        # A float field refuses a bool by name, not as 1.0 or 0.0.
        for field, value in (("eta_w", True), ("eps", True), ("lambda0", False),
                             ("lambda_max", np.True_)):
            with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
                TrainConfig(**{field: value})
        TrainConfig(iters=np.int64(3), batch_size=np.int32(8), steps=np.uint8(2),
                    seed=np.int64(1))


def reference_sample_batch(dataset, batch_size, rng):
    """sample_batch as first written: recounts the positives on every call."""
    if dataset.n_pos == 0:
        raise ValueError("dataset has no positive examples")
    idx = rng.choice(dataset.n, size=batch_size, replace=False)
    if not (dataset.labels[idx] == 1).any():
        slot = int(rng.integers(batch_size))
        pick = int(rng.integers(dataset.n_pos))
        idx[slot] = dataset.pos_indices()[pick]
    return idx


def reference_train(dataset, cfg, initial_model):
    """The training loop as first written: a model rebuilt and the loss built
    twice per iteration, ndarray.mean, and zero costs, group masks and a
    zero penalty with the attack off."""
    p_hat = dataset.p_hat
    eta_z, eps = (0.0, 0.0) if cfg.variant == "aucm-baseline" else (cfg.eta_z, cfg.eps)
    if cfg.variant == "da":
        budgets = np.array(split_epsilon(eps, p_hat, cfg.k_split))
        row_group = (dataset.labels == 0).astype(np.intp)
    else:
        budgets = np.array([eps])
        row_group = np.zeros(dataset.n, dtype=np.intp)
    suffixes = GROUP_SUFFIXES[cfg.variant]
    lam = np.full(budgets.size, cfg.lambda0, dtype=np.float64)
    attack_cfg = AttackConfig(steps=cfg.steps, step_size=eta_z) if eta_z > 0.0 else None

    rng = np.random.default_rng(cfg.seed)
    theta = initial_model.params.copy()
    a = b = alpha = 0.0
    history = []
    for t in range(1, cfg.iters + 1):
        idx = reference_sample_batch(dataset, cfg.batch_size, rng)
        x_batch = dataset.features[idx]
        y_batch = dataset.labels[idx]
        group = row_group[idx]
        model_t = replace(initial_model, params=theta)
        aux_t = AuxParams(a, b, alpha)
        pos_mask = y_batch == 1

        lam_rows = lam[group]
        x_adv = x_batch
        if attack_cfg is not None:
            _, x_adv = attack_batch(model_t, aux_t, p_hat, lam_rows,
                                    x_batch, y_batch, attack_cfg)

        costs = ((x_adv - x_batch) ** 2).sum(axis=1)
        mean_costs = [float(c.mean()) if c.size else None
                      for c in (costs[group == g] for g in range(budgets.size))]
        f_adv, cache = forward(model_t, x_adv)
        g_adv = surrogate_loss(aux_t, p_hat, f_adv, y_batch)
        d_f, d_a, d_b, d_alpha = surrogate_loss_grads(aux_t, p_hat, f_adv, y_batch)

        objective = float((lam * budgets).sum()) + float((g_adv - lam_rows * costs).mean())

        f_nom = f_adv if attack_cfg is None else score(model_t, x_batch)
        if pos_mask.any() and (~pos_mask).any():
            batch_auc = auc_mann_whitney(f_nom[pos_mask], f_nom[~pos_mask])
        else:
            batch_auc = 0.5

        grad_theta = vjp_params(model_t, cache, d_f).mean(axis=0)

        record = {"iteration": t, "objective": objective, "alpha": alpha, "a": a,
                  "b": b, "batch_auc": batch_auc, "theta": theta}
        record.update(zip(["lam" + s for s in suffixes], lam.tolist()))
        record.update(zip(["mean_cost" + s for s in suffixes], mean_costs))
        history.append(record)

        alpha = float(min(max(alpha + cfg.eta_alpha * d_alpha.mean(), -1.0), 1.0))
        for g, mean_cost in enumerate(mean_costs):
            if mean_cost is not None:
                lam[g] = min(max(lam[g] - cfg.eta_lambda * (budgets[g] - mean_cost),
                                 0.0), cfg.lambda_max)
        theta = theta - cfg.eta_w * grad_theta
        a = float(min(max(a - cfg.eta_w * d_a.mean(), 0.0), 1.0))
        b = float(min(max(b - cfg.eta_w * d_b.mean(), 0.0), 1.0))

    dual = DualState(lambda_max=cfg.lambda_max, lam=tuple(lam.tolist()),
                     eps=tuple(budgets.tolist()))
    return replace(initial_model, params=theta), AuxParams(a, b, alpha), dual, history


def same_bits(u, v):
    """Same type, shape and bit pattern: -0.0 differs from 0.0."""
    return type(u) is type(v) and np.shape(u) == np.shape(v) and (
        np.asarray(u).tobytes() == np.asarray(v).tobytes())


def reference_report(records):
    """write_report's history lines as first written, from records: a line
    per field but the iteration, theta and None, floats at 17 digits."""
    return "".join(f"history.{rec['iteration']}.{key}={format(v, '.17g')}\n"
                   for rec in records for key, v in rec.items()
                   if key not in ("iteration", "theta") and v is not None)


def few_negatives_dataset():
    # One negative in seven rows: a batch of three often lacks it.
    feats = np.random.default_rng(21).uniform(0, 1, size=(7, 2))
    return Dataset.from_arrays(feats, np.array([1, 1, 0, 1, 1, 1, 1]))


class TestLoopBitwise:
    """train walks the reference loop's trajectory bit for bit."""

    CASES = ([(variant, eta_z, 0.1) for variant in ("df", "da", "aucm-baseline")
              for eta_z in (0.05, 0.0)]
             + [("da", 0.0, 0.3), ("df", 0.2, 0.002)])

    def assert_matches(self, ds, cfg, model):
        state = train(ds, cfg, model, keep_thetas=True)
        ref_model, ref_aux, ref_dual, ref_history = reference_train(ds, cfg, model)
        h = state.history
        fields = [key for key in ref_history[0] if key not in ("iteration", "theta")]
        assert h.fields == tuple(fields)  # in the report's order
        # A record's None is a NaN in values.
        assert same_bits(h.values, np.array([[np.nan if rec[key] is None else rec[key]
                                              for key in fields] for rec in ref_history]))
        assert same_bits(h.thetas, np.stack([rec["theta"] for rec in ref_history]))
        fh = io.StringIO()
        write_report(fh, {}, {}, h)
        assert fh.getvalue() == reference_report(ref_history)
        assert same_bits(state.model.params, ref_model.params)
        assert all(same_bits(getattr(state.aux, k), getattr(ref_aux, k))
                   for k in ("a", "b", "alpha"))
        assert state.dual.lambda_max == ref_dual.lambda_max
        assert same_bits(state.dual.lam, ref_dual.lam)
        assert same_bits(state.dual.eps, ref_dual.eps)
        return state

    @pytest.mark.parametrize("variant, eta_z, eps", CASES)
    def test_matches_reference(self, variant, eta_z, eps):
        ds = make_tailed_dataset()
        cfg = TrainConfig(variant=variant, iters=60, batch_size=16, eta_z=eta_z,
                          eps=eps, seed=31)
        self.assert_matches(ds, cfg, init_model("mlp1-tanh-sigmoid(4)", 2, 31))

    @pytest.mark.parametrize("iters", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
    @pytest.mark.parametrize("eta_z", [0.05, 0.0])
    def test_matches_reference_at_block_edges(self, iters, eta_z):
        # Batches are drawn, and batch AUCs ranked, a block at a time.
        cfg = TrainConfig(variant="da", iters=iters, batch_size=16, eta_z=eta_z, eps=0.1,
                          seed=33)
        self.assert_matches(make_tailed_dataset(), cfg, init_model("linear-sigmoid", 2, 33))

    def test_matches_reference_on_both_step_paths(self, monkeypatch):
        # From lambda0 8 the ascent's penalty step nearly overshoots (2 * eta_z
        # * lam near 1): in some iterations a row's best iterate is not its
        # last and the step makes its own pass on x_adv; in the rest it reads
        # the ascent's last pass.
        ds, model = make_tailed_dataset(), init_model("mlp1-tanh-sigmoid(4)", 2, 31)
        cfg = TrainConfig(variant="da", iters=60, batch_size=16, eta_z=0.05, eps=0.002,
                          eta_lambda=10.0, lambda0=8.0, seed=31)
        calls, forward_pass = [], _Passes.forward
        monkeypatch.setattr(_Passes, "forward",
                            lambda self, batch: calls.append(1) or forward_pass(self, batch))
        train(ds, cfg, model)
        monkeypatch.undo()
        assert 0 < len(calls) < cfg.iters
        self.assert_matches(ds, cfg, model)

    @pytest.mark.parametrize("variant, eta_z", [("da", 0.0), ("da", 0.1), ("df", 0.0)])
    def test_matches_reference_with_absent_negatives(self, variant, eta_z):
        cfg = TrainConfig(variant=variant, iters=40, batch_size=3, eta_z=eta_z,
                          eps=0.1, seed=32)
        state = self.assert_matches(few_negatives_dataset(), cfg,
                                    init_model("linear-sigmoid", 2, 32))
        if variant == "da":
            absent = np.isnan(state.history.column("mean_cost_neg"))
            assert absent.any() and not absent.all()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("arch", ["mlp1-tanh-sigmoid(8)", "linear-sigmoid"])
@pytest.mark.parametrize("variant", ["da", "df"])
def test_batch_auc_replays_from_data(variant, arch, d):
    # The loop's only use of its rng is sample_batch, so the batches replay;
    # each record's batch_auc is the AUC of its batch under its theta.
    from drauc import make_long_tailed
    ds = make_long_tailed(gen_synthetic(400, d, seed=40 + d), 0.1, seed=40 + d)
    cfg = TrainConfig(variant=variant, iters=200, batch_size=32, eps=0.5, seed=41)
    model = init_model(arch, d, 41)
    h = train(ds, cfg, model, keep_thetas=True).history
    rng = np.random.default_rng(cfg.seed)
    for t, (theta, batch_auc) in enumerate(zip(h.thetas, h.column("batch_auc").tolist()), 1):
        idx = sample_batch(ds, cfg.batch_size, rng)
        f = score(replace(model, params=theta), ds.features[idx])
        pos = ds.labels[idx] == 1
        assert auc_mann_whitney(f[pos], f[~pos]) == batch_auc, t
    # The multipliers start at 1 and end at 0: both ascent paths ran.
    lams = [h.column(key)[-1] for key in h.fields if key.startswith("lam")]
    assert lams and not any(lams)


@pytest.mark.parametrize("bad_run", [0, 1])
def test_stacked_params_are_refused_with_their_run(bad_run):
    # Each run brings one model's (P,) vector; an (R, P) stack is refused.
    ds = gen_synthetic(20, 2, seed=0)
    model = init_model("linear-sigmoid", 2, seed=0)
    stacked = replace(model, params=np.stack([model.params] * 2))
    runs = [(ds, TrainConfig(iters=1), stacked if r == bad_run else model) for r in range(2)]
    message = rf"^run {bad_run}: params must be one model's \(P,\) vector$"
    with pytest.raises(ValueError, match=message):
        train_stacked(runs)


@pytest.mark.parametrize("keep_thetas", [False, True])
def test_history_memory_is_its_columns(keep_thetas):
    # A run of T iterations holds a (T, k) array of its k scalar fields and,
    # if it keeps its iterates, a (T, P) array of them: k (or k + P) float64
    # values per iteration.  From T = 1,000 to 2,000 the held bytes
    # may grow by 10% over those values; at T = 1,000 they may reach 10%
    # over the arrays plus 64 KB for the final state.  Held bytes linear in
    # T that pass both stay within that same bound at every T >= 1,000.
    from drauc import make_long_tailed
    ds = make_long_tailed(gen_synthetic(400, 2, seed=90), 0.1, seed=90)
    model = init_model("mlp1-tanh-sigmoid(8)", 2, 90)
    held = []
    for iters in (1000, 2000):
        cfg = TrainConfig(variant="aucm-baseline", iters=iters, batch_size=16, seed=90)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = train(ds, cfg, model, keep_thetas=keep_thetas)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        fields = state.history.fields
        del state
    k, P = len(fields), model.params.size
    assert (k, P) == (7, 33)
    per_iteration = (k + P if keep_thetas else k) * 8
    assert held[1] - held[0] <= 1.1 * 1000 * per_iteration
    assert held[0] <= 1.1 * 1000 * per_iteration + 64 * 1024


def test_unknown_history_column_names_the_fields():
    h = History(("objective", "lam"), np.zeros((2, 2)))
    with pytest.raises(KeyError, match=r"no history field 'nope'; this run's fields are "
                                       r"\('objective', 'lam'\)"):
        h.column("nope")
