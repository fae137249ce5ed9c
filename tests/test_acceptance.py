"""Acceptance suite: one test per criterion, each printing a pass line with
its elapsed time.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from drauc import (AttackConfig, TrainConfig, auc_mann_whitney, barycenter_attack,
                   closed_form_aux, corrupt, estimate_robust_auc, gen_synthetic,
                   init_model, load_checkpoint, load_csv, make_long_tailed,
                   min_cost_flip_search, save_csv, score, split_epsilon, train,
                   train_stacked)
from drauc.cli import run_command
from drauc.verification import (check_ablation_equivalence,
                                check_closed_form_optimality,
                                check_model_gradients, check_saddle_identity,
                                check_weak_duality)


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.perf_counter()

    def done(self, label):
        elapsed = time.perf_counter() - self.start
        print(f"[PASS] {label} ({elapsed:.2f}s, budget {self.budget:g}s)")
        assert elapsed < self.budget, f"{label} exceeded its runtime budget"


def assert_passes(result):
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_saddle_identity():
    sw = Stopwatch(1.0)
    assert_passes(check_saddle_identity(datasets=100, seed=101))
    sw.done("criterion 1: saddle identity on 100 random datasets")


def test_criterion_2_closed_form_optimality():
    sw = Stopwatch(30.0)
    assert_passes(check_closed_form_optimality(datasets=20, seed=102))
    sw.done("criterion 2: grid search never beats the closed form by > 1e-5")


def test_criterion_3_gradient_validation():
    sw = Stopwatch(10.0)
    assert_passes(check_model_gradients(trials=1000, seed=103))
    sw.done("criterion 3: analytic gradients match finite differences (1e-5)")


def test_criterion_4_weak_duality():
    sw = Stopwatch(60.0)
    assert_passes(check_weak_duality(instances=50, seed=104))
    sw.done("criterion 4: weak and near-strong duality on 50 tiny instances")


def test_criterion_5_barycenter_example(capsys):
    sw = Stopwatch(10.0)
    atk = barycenter_attack(0.99, 0.01, 1, 99)
    assert atk.target == 0.0198
    assert atk.cost == pytest.approx(0.0095080, abs=1e-6)
    assert atk.cost == pytest.approx(0.01 * 0.99 * 0.98**2, abs=1e-15)
    strict = auc_mann_whitney([atk.target], [atk.target] * 99, "strict")
    assert strict == 0.0
    min_cost, _, _ = min_cost_flip_search(0.99, 0.01, 1, 99, 1001)
    assert atk.bound - 1e-12 <= min_cost <= atk.bound + 1e-5
    assert run_command(["attack-oracle", "--preset", "example1"]) == 0
    out = capsys.readouterr().out
    assert "0.009702" in out  # the quoted-value discrepancy is documented
    sw.done("criterion 5: barycenter attack reproduces the collapsed example")


def test_criterion_6_ablation_equivalence():
    sw = Stopwatch(10.0)
    ds = make_long_tailed(gen_synthetic(400, 2, seed=106), 0.1, seed=106)
    model = init_model("mlp1-tanh-sigmoid(8)", 2, 106)
    assert_passes(check_ablation_equivalence(iters=200, seed=106, dataset=ds,
                                             model=model))
    sw.done("criterion 6: df, da, baseline bitwise-identical at eta_z=0, eps=0")


def test_criterion_7_robustness_direction():
    sw = Stopwatch(300.0)
    seeds = range(5)
    train_sets = {s: make_long_tailed(gen_synthetic(2000, 2, seed=s), 0.1, seed=s) for s in seeds}

    def run_variant(variant):
        # The five seeds of one variant train as one stack.
        runs = [(train_sets[s],
                 TrainConfig(variant=variant, iters=2000, batch_size=128,
                             eps=0.5 if variant == "da" else 0.0, k_split=1.0, seed=s),
                 init_model("mlp1-tanh-sigmoid(8)", 2, s))
                for s in seeds]
        results = []
        for s, state in zip(seeds, train_stacked(runs)):
            test = gen_synthetic(2000, 2, seed=s + 1000)
            test_cor = corrupt(test, 0.2, seed=s + 2000)

            def auc(dset):
                f = score(state.model, dset.features)
                return auc_mann_whitney(f[dset.labels == 1], f[dset.labels == 0])

            results.append((auc(test), auc(test_cor)))
        return results

    results = {v: run_variant(v) for v in ("aucm-baseline", "da")}
    nom = {v: np.median([r[0] for r in res]) for v, res in results.items()}
    cor = {v: np.median([r[1] for r in res]) for v, res in results.items()}
    assert cor["da"] >= cor["aucm-baseline"], (cor, nom)
    assert abs(nom["da"] - nom["aucm-baseline"]) <= 0.03, (cor, nom)
    print(f"  corrupted medians: da {cor['da']:.4f} vs baseline "
          f"{cor['aucm-baseline']:.4f}; nominal gap "
          f"{abs(nom['da'] - nom['aucm-baseline']):.4f}")
    sw.done("criterion 7: per-class robust training beats the baseline "
            "under corruption")


def test_criterion_8_budget_identity():
    sw = Stopwatch(1.0)
    rng = np.random.default_rng(108)
    checked = 0
    while checked < 300:
        eps = float(rng.uniform(0, 2))
        p = float(rng.uniform(0.02, 0.95))
        k = float(rng.uniform(0.5, 1.5))
        if k * p >= 1.0:
            continue
        ep, en = split_epsilon(eps, p, k)
        assert p * ep + (1 - p) * en == pytest.approx(eps, rel=1e-15, abs=1e-15)
        checked += 1
    sw.done("criterion 8: budget split identity to machine precision")


def test_criterion_9_determinism_and_persistence(tmp_path):
    sw = Stopwatch(30.0)
    args = ["train", "--variant", "da", "--eps", "0.5", "--k", "1.0",
            "--ratio", "0.1", "--seed", "7", "--n", "300", "--iters-T", "40",
            "--batch", "16"]
    assert run_command(args + ["--out", str(tmp_path / "a.txt")]) == 0
    assert run_command(args + ["--out", str(tmp_path / "b.txt")]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    ck = load_checkpoint(tmp_path / "a.txt")
    from drauc import save_checkpoint
    save_checkpoint(ck, tmp_path / "c.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "c.txt").read_bytes()

    ds = gen_synthetic(150, 3, seed=109)
    save_csv(ds, tmp_path / "ds.csv")
    back = load_csv(tmp_path / "ds.csv")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    save_csv(back, tmp_path / "ds2.csv")
    assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "ds2.csv").read_bytes()
    sw.done("criterion 9: bitwise determinism and round-trip persistence")


def test_criterion_10_monotone_robust_estimate():
    sw = Stopwatch(30.0)
    ds = gen_synthetic(240, 2, seed=110)
    cfg = TrainConfig(variant="df", iters=300, batch_size=32, seed=110)
    state = train(ds, cfg, init_model("linear-sigmoid", 2, 110))
    scores = score(state.model, ds.features)
    aux = closed_form_aux(scores[ds.labels == 1], scores[ds.labels == 0])
    nominal = auc_mann_whitney(scores[ds.labels == 1], scores[ds.labels == 0])
    attack = AttackConfig(steps=10, step_size=0.05)
    values = [estimate_robust_auc(state.model, ds, eps, aux, attack)
              for eps in (0.0, 0.05, 0.1, 0.2)]
    assert values[0] == nominal
    assert all(values[i] >= values[i + 1] for i in range(3)), values
    sw.done("criterion 10: robust AUC estimate non-increasing in the budget")
