import re

import numpy as np
import pytest

from drauc import auc_mann_whitney, load_checkpoint, load_csv, parse_report, score
from drauc.cli import run_command


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
        assert ck.eps_pos == 0.5 and ck.lam_pos is not None
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
        scores = score(ck.model(), feats)
        expect = auc_mann_whitney(scores[test_labels == 1], scores[test_labels == 0])
        assert out["clipped_values"] == "1"
        assert float(out["nominal_auc"]) == expect

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
