import argparse
import re
from dataclasses import fields

import numpy as np
import pytest

from drauc import (TrainConfig, auc_mann_whitney, gen_synthetic, init_model,
                   load_checkpoint, load_csv, parse_report, score, train)
from drauc.cli import build_parser, run_command


def run(args):
    return run_command(args)


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "ds.csv"
        assert run(["gen-data", "--out", str(out), "--n", "60", "--d", "2",
                    "--seed", "5"]) == 0
        ds = load_csv(out)
        assert ds.n == 60 and ds.d == 2
        assert "p_hat" in capsys.readouterr().out

    def test_ratio_subsamples(self, tmp_path):
        out = tmp_path / "lt.csv"
        assert run(["gen-data", "--out", str(out), "--n", "200", "--ratio", "0.1",
                    "--seed", "5"]) == 0
        ds = load_csv(out)
        assert ds.p_hat == pytest.approx(11 / 111)


def train_args(tmp_path, name, extra=()):
    return ["train", "--variant", "da", "--eps", "0.5", "--k", "1.0",
            "--ratio", "0.1", "--seed", "7", "--n", "200", "--iters-T", "20",
            "--batch", "16", "--out", str(tmp_path / name)] + list(extra)


class TestTrain:
    def test_identical_runs_identical_checkpoints(self, tmp_path):
        assert run(train_args(tmp_path, "a.txt")) == 0
        assert run(train_args(tmp_path, "b.txt")) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_checkpoint_and_report_contents(self, tmp_path):
        assert run(train_args(tmp_path, "ck.txt")) == 0
        ck = load_checkpoint(tmp_path / "ck.txt")
        assert ck.variant == "da"
        assert ck.iteration == 20
        assert ck.dual.eps[0] == 0.5 and len(ck.dual.lam) == 2
        report = parse_report((tmp_path / "ck.txt.report").read_text())
        assert 0.0 <= float(report["final_nominal_auc"]) <= 1.0
        assert "history.20.objective" in report
        assert float(report["wall_clock_seconds"]) > 0.0

    def test_trains_from_csv(self, tmp_path):
        data = tmp_path / "ds.csv"
        assert run(["gen-data", "--out", str(data), "--n", "80", "--seed", "2"]) == 0
        assert run(["train", "--data", str(data), "--variant", "aucm",
                    "--iters-T", "10", "--batch", "8", "--seed", "2",
                    "--out", str(tmp_path / "ck.txt")]) == 0
        ck = load_checkpoint(tmp_path / "ck.txt")
        assert ck.variant == "aucm-baseline"

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant=df\niters_T=10\nbatch=8\nseed=3\nn=100\n")
        out = tmp_path / "ck.txt"
        assert run(["train", "--config", str(cfg), "--seed", "9",
                    "--out", str(out)]) == 0
        ck = load_checkpoint(out)
        assert ck.variant == "df"
        assert ck.seed == 9          # flag beats file
        assert ck.iteration == 10    # file beats default

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_key=1\n")
        assert run(["train", "--config", str(cfg),
                    "--out", str(tmp_path / "ck.txt")]) == 2

    def test_unknown_gen_data_key_rejected(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n=60\niters_T=5\n")  # a train key, not a gen-data one
        assert run(["gen-data", "--config", str(cfg),
                    "--out", str(tmp_path / "ds.csv")]) == 2
        assert not (tmp_path / "ds.csv").exists()

    def test_non_finite_knob_rejected_before_training(self, tmp_path, capsys):
        out = tmp_path / "ck.txt"
        assert run(["train", "--n", "200", "--iters-T", "30", "--batch", "16",
                    "--variant", "da", "--eta-z", "nan", "--out", str(out)]) == 2
        assert "eta_z" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_default(self, tmp_path):
        out = tmp_path / "ck.txt"
        assert run(["train", "--n", "100", "--iters-T", "2", "--seed", "1",
                    "--out", str(out)]) == 0
        assert load_checkpoint(out).cfg["batch"] == "64"
        assert TrainConfig().batch_size == 64

    def test_config_file_equals_flags(self, tmp_path):
        settings = {"variant": "da", "arch": "mlp1-tanh-sigmoid(4)", "eps": "0.3",
                    "k": "0.8", "eta_z": "0.1", "eta_lambda": "0.2", "eta_w": "0.05",
                    "eta_alpha": "0.2", "steps_K": "3", "iters_T": "25", "batch": "8",
                    "ratio": "0.1", "seed": "5", "lambda0": "0.5", "lambda_max": "50",
                    "n": "300", "d": "3", "mu_pos": "0.6", "mu_neg": "0.4",
                    "sigma": "0.2", "report_sigmas": "0.1,0.3", "report_eps": "0.05"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        by_file, by_flags = tmp_path / "file.ckpt", tmp_path / "flags.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(by_file)]) == 0
        flags = [x for k, v in settings.items() for x in ("--" + k.replace("_", "-"), v)]
        assert run(["train", *flags, "--out", str(by_flags)]) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()
        ck = load_checkpoint(by_file)
        assert {k: ck.cfg[k] for k in ("k", "steps_K", "batch", "ratio", "seed")} == \
            {"k": "0.8", "steps_K": "3", "batch": "8", "ratio": "0.1", "seed": "5"}
        assert ck.variant == "da" and ck.iteration == 25 and ck.model.input_dim == 3

    @pytest.mark.parametrize("variant, suffixes", [
        ("da", ("_pos", "_neg")), ("df", ("",)), ("aucm", ("",))],
        ids=["da", "df", "aucm"])
    def test_dual_key_layout(self, tmp_path, variant, suffixes):
        out = tmp_path / "ck.txt"
        assert run(["train", "--variant", variant, "--eps", "0.2", "--n", "100",
                    "--iters-T", "3", "--batch", "8", "--seed", "2",
                    "--out", str(out)]) == 0
        keys = [line.split("=", 1)[0] for line in out.read_text().splitlines()]
        start = keys.index("lambda_max") + 1
        assert keys[start:keys.index("scaler_min")] == \
            [name + s for name in ("lam", "eps") for s in suffixes]
        report = parse_report((tmp_path / "ck.txt.report").read_text())
        for name in ("lam", "mean_cost"):
            present = {f"history.1.{name}{s}" for s in ("", "_pos", "_neg")} & set(report)
            assert present == {f"history.1.{name}{s}" for s in suffixes}

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRAUC_SEED", "31")
        out = tmp_path / "ck.txt"
        assert run(["train", "--n", "100", "--iters-T", "5", "--batch", "8",
                    "--out", str(out)]) == 0
        assert load_checkpoint(out).seed == 31


class TestEval:
    def test_reports_aucs(self, tmp_path, capsys):
        data = tmp_path / "ds.csv"
        run(["gen-data", "--out", str(data), "--n", "120", "--seed", "4"])
        run(["train", "--data", str(data), "--iters-T", "30", "--batch", "16",
             "--seed", "4", "--out", str(tmp_path / "ck.txt")])
        capsys.readouterr()
        assert run(["eval", "--ckpt", str(tmp_path / "ck.txt"),
                    "--data", str(data), "--sigmas", "0.2", "--eps", "0.05",
                    "--out", str(tmp_path / "eval.txt")]) == 0
        report = parse_report((tmp_path / "eval.txt").read_text())
        for key in ("nominal_auc", "corrupted_auc_0.2", "robust_auc_0.05"):
            assert 0.0 <= float(report[key]) <= 1.0
        assert float(report["robust_auc_0.05"]) <= float(report["nominal_auc"])

    def test_uses_checkpoint_scaler(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        lo, hi = np.array([2.0, -1.0]), np.array([12.0, 3.0])

        def write(path, labels, unit):
            raw = lo + unit * (hi - lo)
            path.write_text("y,x1,x2\n" + "".join(
                f"{label}," + ",".join(format(v, ".17g") for v in row) + "\n"
                for label, row in zip(labels, raw)))
            return raw

        labels = (np.arange(80) % 4 == 0).astype(int)
        unit = rng.uniform(0.0, 1.0, size=(80, 2))
        unit[0], unit[1] = 0.0, 1.0  # the training range is exactly [lo, hi]
        write(tmp_path / "train.csv", labels, unit)
        ck_path = tmp_path / "ck.txt"
        assert run(["train", "--data", str(tmp_path / "train.csv"), "--iters-T", "30",
                    "--batch", "16", "--seed", "4", "--out", str(ck_path)]) == 0
        # Held-out rows inside a narrower range, plus one value past hi.
        test_labels = (np.arange(40) % 4 == 0).astype(int)
        test_unit = rng.uniform(0.2, 0.8, size=(40, 2))
        test_unit[5, 0] = 1.25
        raw = write(tmp_path / "test.csv", test_labels, test_unit)
        capsys.readouterr()
        assert run(["eval", "--ckpt", str(ck_path), "--data", str(tmp_path / "test.csv"),
                    "--sigmas", "", "--eps", ""]) == 0
        out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        ck = load_checkpoint(ck_path)
        feats = np.clip((raw - ck.scaler_min) / (ck.scaler_max - ck.scaler_min), 0.0, 1.0)
        scores = score(ck.model, feats)
        expect = auc_mann_whitney(scores[test_labels == 1], scores[test_labels == 0])
        assert out["clipped_values"] == "1"
        assert float(out["nominal_auc"]) == expect

    def test_matches_train_report(self, tmp_path, capsys):
        # Same data, seed and ascent: eval reproduces train's report AUCs.
        data, ck = tmp_path / "d.csv", tmp_path / "ck.txt"
        assert run(["gen-data", "--out", str(data), "--n", "300", "--ratio", "0.2",
                    "--seed", "4"]) == 0
        assert run(["train", "--data", str(data), "--variant", "da", "--eps", "0.01",
                    "--iters-T", "50", "--batch", "16", "--steps-K", "10",
                    "--eta-z", "0.05", "--seed", "4", "--report-sigmas", "0.1",
                    "--report-eps", "0.01,0.002", "--out", str(ck)]) == 0
        assert run(["eval", "--ckpt", str(ck), "--data", str(data), "--sigmas", "0.1",
                    "--eps", "0.01,0.002", "--attack-steps", "10",
                    "--attack-step-size", "0.05", "--seed", "4",
                    "--out", str(tmp_path / "eval.txt")]) == 0
        report = parse_report((tmp_path / "ck.txt.report").read_text())
        evaluated = parse_report((tmp_path / "eval.txt").read_text())
        assert report["final_nominal_auc"] == evaluated["nominal_auc"]
        for key in ("corrupted_auc_0.1", "robust_auc_0.01", "robust_auc_0.002"):
            assert report[key] == evaluated[key]

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        assert run(["eval", "--ckpt", str(tmp_path / "nope.txt"),
                    "--data", str(tmp_path / "nope.csv")]) == 2

    def test_version_mismatch_is_error(self, tmp_path):
        data = tmp_path / "ds.csv"
        run(["gen-data", "--out", str(data), "--n", "60", "--seed", "4"])
        ck = tmp_path / "ck.txt"
        run(["train", "--data", str(data), "--iters-T", "5", "--batch", "8",
             "--seed", "4", "--out", str(ck)])
        ck.write_text(ck.read_text().replace("format_version=1",
                                             "format_version=0"))
        assert run(["eval", "--ckpt", str(ck), "--data", str(data)]) == 2

    @pytest.mark.parametrize("flag, value, name", [("--eps", "nan", "eps"),
                                                   ("--eps", "inf", "eps"),
                                                   ("--sigmas", "nan", "sigma")])
    def test_non_finite_budget_or_noise_is_error(self, tmp_path, capsys, flag,
                                                 value, name):
        data = tmp_path / "ds.csv"
        run(["gen-data", "--out", str(data), "--n", "60", "--seed", "4"])
        ck = tmp_path / "ck.txt"
        run(["train", "--data", str(data), "--iters-T", "5", "--batch", "8",
             "--seed", "4", "--out", str(ck)])
        capsys.readouterr()
        assert run(["eval", "--ckpt", str(ck), "--data", str(data),
                    flag, f"0.05,{value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name} must be finite" in captured.err


    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_attack_step_size_is_error(self, tmp_path, capsys, value):
        # A NaN or infinite step left every iterate behind the start, so each
        # robust AUC printed the nominal one.
        data = tmp_path / "ds.csv"
        run(["gen-data", "--out", str(data), "--n", "60", "--seed", "4"])
        ck = tmp_path / "ck.txt"
        run(["train", "--data", str(data), "--iters-T", "5", "--batch", "8",
             "--seed", "4", "--out", str(ck)])
        capsys.readouterr()
        assert run(["eval", "--ckpt", str(ck), "--data", str(data), "--eps", "0.05",
                    "--attack-step-size", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step_size must be finite" in captured.err


class TestAttackOracle:
    def test_example1_preset(self, capsys):
        assert run(["attack-oracle", "--preset", "example1"]) == 0
        out = capsys.readouterr().out
        parsed = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(parsed["target"]) == 0.0198
        assert float(parsed["cost"]) == pytest.approx(0.0095080, abs=1e-6)
        assert float(parsed["strict_auc_after_attack"]) == 0.0
        assert "0.009702" in parsed["note"]

    def test_two_point_preset(self, capsys):
        assert run(["attack-oracle", "--preset", "two-point"]) == 0
        out = capsys.readouterr().out
        assert "worst_case_mean_loss=1.0625" in out

    def test_custom_instance(self, capsys):
        assert run(["attack-oracle", "--preset", "custom", "--x-pos", "1.0",
                    "--x-neg", "0.0", "--n-pos", "5", "--n-neg", "5"]) == 0
        out = capsys.readouterr().out
        assert "target=0.5" in out
        assert "cost=0.25" in out

    def test_custom_requires_flags(self, capsys):
        assert run(["attack-oracle", "--preset", "custom"]) == 2

    def test_two_point_nan_budget_rejected(self, capsys):
        assert run(["attack-oracle", "--preset", "two-point", "--eps", "nan"]) == 2
        assert "eps must be >= 0" in capsys.readouterr().err


class TestVerifyAndGradCheck:
    def test_verify_quick_passes(self, capsys):
        assert run(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_verify_prints_check_times(self, capsys):
        assert run(["verify", "--quick"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"
        for line in lines[:-1]:
            assert re.fullmatch(r"\[PASS\] [\w.]+: .+ \(\d+\.\d\d s\)", line), line

    def test_grad_check_passes(self, capsys):
        assert run(["grad-check", "--arch", "linear-sigmoid", "--trials", "50",
                    "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "passed=True" in out

    def test_grad_check_impossible_tol_fails(self, capsys):
        assert run(["grad-check", "--arch", "linear-sigmoid", "--trials", "20",
                    "--tol", "1e-18", "--seed", "0"]) == 1


# The train flag of each TrainConfig field.
TRAIN_CONFIG_FLAGS = {
    "variant": "--variant", "iters": "--iters-T", "batch_size": "--batch",
    "eta_z": "--eta-z", "eta_lambda": "--eta-lambda", "eta_w": "--eta-w",
    "eta_alpha": "--eta-alpha", "steps": "--steps-K", "eps": "--eps",
    "k_split": "--k", "lambda0": "--lambda0", "seed": "--seed",
    "lambda_max": "--lambda-max",
}
OTHER_TRAIN_FLAGS = ["--arch", "--n", "--d", "--mu-pos", "--mu-neg", "--sigma",
                     "--ratio", "--data", "--out", "--report", "--report-sigmas",
                     "--report-eps", "--config"]


class TestKnobTable:
    def test_every_train_config_field_has_one_flag(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = [opt for action in sub.choices["train"]._actions
                 for opt in action.option_strings if opt not in ("-h", "--help")]
        assert sorted(TRAIN_CONFIG_FLAGS) == sorted(f.name for f in fields(TrainConfig))
        assert sorted(flags) == sorted([*TRAIN_CONFIG_FLAGS.values(), *OTHER_TRAIN_FLAGS])
        assert len(flags) == 26

    def test_each_flag_sets_its_field(self, tmp_path):
        # Distinct values, so a flag wired to the wrong field changes the run.
        cfg = TrainConfig(variant="da", iters=3, batch_size=6, eta_z=0.07,
                          eta_lambda=0.3, eta_w=0.02, eta_alpha=0.4, steps=2, eps=0.25,
                          k_split=0.9, lambda0=0.75, seed=4, lambda_max=0.8)
        argv = [x for f in fields(cfg)
                for x in (TRAIN_CONFIG_FLAGS[f.name], str(getattr(cfg, f.name)))]
        out = tmp_path / "ck.txt"
        assert run(["train", "--n", "60", "--arch", "linear-sigmoid", *argv,
                    "--out", str(out)]) == 0
        state = train(gen_synthetic(60, 2, seed=4), cfg, init_model("linear-sigmoid", 2, 4))
        ck = load_checkpoint(out)
        assert np.array_equal(ck.model.params, state.model.params)
        assert (ck.aux.a, ck.aux.b, ck.aux.alpha) == (state.aux.a, state.aux.b, state.aux.alpha)
        assert ck.dual == state.dual and ck.iteration == 3


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run(["train", "--no-such-flag", "1"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["dance"]) == 2

    def test_missing_data_file(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "missing.csv"),
                    "--out", str(tmp_path / "ck.txt")]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
