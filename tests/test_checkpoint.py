import numpy as np
import pytest

from drauc import (AuxParams, Checkpoint, CheckpointError, DataFormatError,
                   DualState, ScoringModel, format_report, load_checkpoint,
                   parse_report, save_checkpoint, score)


def sample_checkpoint(**overrides):
    fields = dict(
        model=ScoringModel("mlp1-tanh-sigmoid", np.array(
            [0.1, -0.2, 0.3, 1e-17, 0.5, 1/3, -0.7, 0.123456789012345678, 0.9]), 2, 2),
        aux=AuxParams(a=0.25, b=0.5, alpha=-0.125),
        variant="da",
        dual=DualState(lambda_max=1e3, lam=(0.75, 1.5), eps=(0.4, 0.525)),
        scaler_min=np.array([0.01, -1.5]),
        scaler_max=np.array([0.99, 2.5]),
        seed=7,
        iteration=42,
        cfg={"eta_z": "0.05", "variant": "da"},
    )
    fields.update(overrides)
    return Checkpoint(**fields)


class TestRoundTrip:
    def test_bitwise_identity(self, tmp_path):
        ck = sample_checkpoint()
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert np.array_equal(back.model.params, ck.model.params)
        assert np.array_equal(back.scaler_min, ck.scaler_min)
        assert np.array_equal(back.scaler_max, ck.scaler_max)
        for name in ("a", "b", "alpha"):
            assert getattr(back.aux, name) == getattr(ck.aux, name)
        assert back.dual.lam == ck.dual.lam and back.dual.eps == ck.dual.eps
        assert back.dual.lambda_max == ck.dual.lambda_max
        assert (back.model.arch_descriptor, back.variant, back.seed, back.iteration) == \
            (ck.model.arch_descriptor, ck.variant, ck.seed, ck.iteration)
        assert back.cfg == ck.cfg
        assert len(back.dual.lam) == len(back.dual.eps) == 2

    def test_file_bytes_stable(self, tmp_path):
        ck = sample_checkpoint()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_checkpoint(ck, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_aux_dual_reconstruction(self, tmp_path):
        ck = sample_checkpoint()
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        model = back.model
        assert model.arch == "mlp1-tanh-sigmoid"
        assert model.hidden_width == 2
        aux = back.aux
        assert (aux.a, aux.b, aux.alpha) == (0.25, 0.5, -0.125)
        dual = back.dual
        assert dual.lam[0] == 0.75 and dual.eps[1] == 0.525

    def test_model_scores_from_theta(self):
        # The stored layout: W row-major (2x2), c, v, output bias.
        ck = sample_checkpoint()
        t = ck.model.params
        x = np.array([[0.1, 0.9], [0.5, 0.5], [1.0, 0.0]])
        hidden = np.tanh(x @ t[:4].reshape(2, 2).T + t[4:6])
        expect = 1.0 / (1.0 + np.exp(-np.clip(hidden @ t[6:8] + t[8], -500.0, 500.0)))
        assert np.array_equal(score(ck.model, x), expect)

    @pytest.mark.parametrize("variant, dual_lines, lam, eps", [
        ("df", "lam=0.25\neps=0.5\n", (0.25,), (0.5,)),
        ("da", "lam_pos=0\nlam_neg=1\neps_pos=0.5\neps_neg=0.5\n", (0.0, 1.0), (0.5, 0.5)),
    ], ids=["df", "da"])
    def test_version_1_layouts_load_and_resave_unchanged(self, tmp_path, variant,
                                                         dual_lines, lam, eps):
        text = ("format_version=1\narch=linear-sigmoid\ninput_dim=1\ntheta=0.5,-1\n"
                f"a=0.25\nb=0.75\nalpha=0\nvariant={variant}\nlambda_max=1000\n"
                + dual_lines +
                "scaler_min=0\nscaler_max=1\nseed=7\niteration=3\ncfg.batch=64\n")
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        p1.write_text(text)
        back = load_checkpoint(p1)
        assert (back.dual.lam, back.dual.eps, back.dual.lambda_max) == (lam, eps, 1000.0)
        save_checkpoint(back, p2)
        assert p2.read_text() == text


class TestValidation:
    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(), path)
        path.write_text(path.read_text().replace("format_version=1", "format_version=0"))
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(path)

    def test_tampered_theta_length(self, tmp_path):
        ck = sample_checkpoint()
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        text = path.read_text()
        tampered = text.replace("theta=0.1", "theta=0.1,0.25")
        path.write_text(tampered)
        with pytest.raises(CheckpointError, match="theta"):
            load_checkpoint(path)

    def test_missing_field(self, tmp_path):
        ck = sample_checkpoint()
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("alpha=")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="alpha"):
            load_checkpoint(path)

    def test_incomplete_per_class_keys_name_missing_key(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(), path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("lam_neg=")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="lam_neg"):
            load_checkpoint(path)

    def test_mixed_dual_keys_rejected(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(), path)
        path.write_text(path.read_text().replace("lam_pos=", "lam=0.5\nlam_pos="))
        with pytest.raises(CheckpointError, match="'lam'"):
            load_checkpoint(path)

    def test_multiplier_outside_box_rejected(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(), path)
        path.write_text(path.read_text().replace("lam_neg=1.5", "lam_neg=2000"))
        with pytest.raises(CheckpointError, match="outside"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, field", [
        ("theta=0.10000000000000001,", "theta=nan,", "'theta'"),
        ("scaler_max=0.98999999999999999,", "scaler_max=inf,", "'scaler_max'"),
        ("scaler_min=0.01,-1.5", "scaler_min=1,3", "'scaler_min'"),
        ("a=0.25", "a=7", "a=7"),
        ("lambda_max=1000", "lambda_max=inf", "lambda_max"),
        ("eps_pos=0.40000000000000002", "eps_pos=nan", r"eps\[0\]"),
    ], ids=["theta-nan", "scaler-inf", "scaler-reversed", "a-outside-box",
            "lambda-max-inf", "eps-nan"])
    def test_invalid_value_names_its_field(self, tmp_path, old, new, field):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    def test_non_numeric_field(self, tmp_path):
        ck = sample_checkpoint()
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        path.write_text(path.read_text().replace("a=0.25", "a=hello"))
        with pytest.raises(CheckpointError, match="'a'"):
            load_checkpoint(path)


class TestReport:
    def test_format_and_parse(self):
        text = format_report(
            {"variant": "df", "seed": 3},
            {"final_nominal_auc": 0.9375, "note": "ok"},
            [{"iteration": 1, "objective": -0.5, "lam": 1.0, "theta": np.zeros(2),
              "skipped": None}],
        )
        parsed = parse_report(text)
        assert parsed["config.variant"] == "df"
        assert float(parsed["final_nominal_auc"]) == 0.9375
        assert parsed["note"] == "ok"
        assert float(parsed["history.1.objective"]) == -0.5
        assert "history.1.theta" not in parsed
        assert "history.1.skipped" not in parsed

    def test_line_without_equals_names_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_report("a=1\nno equals here\n")
