import io
import re
import tracemalloc

import numpy as np
import pytest

from drauc import (AuxParams, Checkpoint, CheckpointError, DataFormatError,
                   DualState, ScoringModel, load_checkpoint, parse_report,
                   save_checkpoint, score, write_report)
from drauc.training import GROUP_SUFFIXES, VARIANTS, History


def sample_checkpoint(**overrides):
    fields = dict(
        model=ScoringModel("mlp1-tanh-sigmoid(2)", np.array(
            [0.1, -0.2, 0.3, 1e-17, 0.5, 1/3, -0.7, 0.123456789012345678, 0.9]), 2),
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
        assert (back.model.arch, back.variant, back.seed, back.iteration) == \
            (ck.model.arch, ck.variant, ck.seed, ck.iteration)
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
        assert model.arch == "mlp1-tanh-sigmoid(2)"
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_round_trips_bitwise(self, tmp_path, variant):
        n = len(GROUP_SUFFIXES[variant])
        ck = sample_checkpoint(variant=variant,
                               dual=DualState(lam=(1 / 3, 0.75)[:n], eps=(0.1, 0.525)[:n]))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_checkpoint(ck, p1)
        back = load_checkpoint(p1)
        assert back.variant == variant and back.dual == ck.dual
        save_checkpoint(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

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

    @pytest.mark.parametrize("arch", ["resnet20", "mlp1-tanh-sigmoid", "mlp1-tanh-sigmoid(0)"])
    def test_unknown_arch_names_its_field(self, tmp_path, arch):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(), path)
        path.write_text(path.read_text().replace("arch=mlp1-tanh-sigmoid(2)", f"arch={arch}"))
        with pytest.raises(CheckpointError, match="^field 'arch': "):
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
        with pytest.raises(CheckpointError, match=r"^multipliers: lam\[1\] must be finite "
                                                  r"and in \[0, 1000\.0\], got 2000\.0$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, field", [
        ("theta=0.10000000000000001,", "theta=nan,", "'theta'"),
        ("scaler_max=0.98999999999999999,", "scaler_max=inf,", "'scaler_max'"),
        ("scaler_min=0.01,-1.5", "scaler_min=1,3", "'scaler_min'"),
        ("a=0.25", "a=7", r"^auxiliaries: a must be finite and in \[0, 1\], got 7\.0$"),
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

    @pytest.mark.parametrize("overrides, old, new, field", [
        ({}, "variant=da", "variant=bogus", "'variant'"),
        ({}, "variant=da", "variant=df", "'variant'"),
        ({}, "variant=da", "variant=aucm-baseline", "'variant'"),
        (dict(variant="df", dual=DualState(lam=(0.75,), eps=(0.4,))),
         "variant=df", "variant=da", "'variant'"),
        ({}, "iteration=42", "iteration=0", "'iteration'"),
        ({}, "iteration=42", "iteration=-5", "'iteration'"),
    ], ids=["variant-unknown", "df-with-per-class-keys", "aucm-with-per-class-keys",
            "da-with-single-budget-keys", "iteration-zero", "iteration-negative"])
    def test_variant_and_iteration_name_their_field(self, tmp_path, overrides, old,
                                                    new, field):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(**overrides), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("overrides, old, new, message", [
        ({}, "variant=da", "variant=df", "field 'lam_pos' does not fit field 'variant' 'df'"),
        ({}, "variant=da", "variant=aucm-baseline",
         "field 'lam_pos' does not fit field 'variant' 'aucm-baseline'"),
        ({}, "lam_pos=", "lam=0.5\nlam_pos=", "field 'lam' does not fit field 'variant' 'da'"),
        # The keys are checked in their layout's order, not the file's.
        (dict(variant="df", dual=DualState(lam=(0.75,), eps=(0.4,))), "iteration=42",
         "iteration=42\neps_neg=0.5\nlam_pos=0.5",
         "field 'lam_pos' does not fit field 'variant' 'df'"),
    ], ids=["df", "aucm", "da-with-lam", "layout-order"])
    def test_key_of_another_layout_is_named_with_the_variant(self, tmp_path, overrides, old,
                                                            new, message):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(**overrides), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("variant, lam, eps", [
        ("df", (0.75, 1.5), (0.4, 0.525)),
        ("da", (0.75,), (0.4,)),
        ("da", (0.75, 1.5), (0.4,)),
        ("bogus", (0.75,), (0.4,)),
    ], ids=["df-with-two", "da-with-one", "da-with-one-radius", "unknown"])
    def test_save_refuses_a_dual_state_the_variant_does_not_name(self, tmp_path, variant,
                                                                lam, eps):
        path = tmp_path / "ck.txt"
        ck = sample_checkpoint(variant=variant, dual=DualState(lam=lam, eps=eps))
        with pytest.raises(CheckpointError, match="^field 'variant' "):
            save_checkpoint(ck, path)
        assert not path.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("model", ScoringModel("linear-sigmoid", np.array([0.5, np.nan, 0.0]), 2),
         "field 'theta' contains a non-finite entry"),
        ("scaler_min", np.array([0.01, -np.inf]),
         "field 'scaler_min' contains a non-finite entry"),
        ("scaler_max", np.array([0.99, np.inf]),
         "field 'scaler_max' contains a non-finite entry"),
        ("scaler_min", np.zeros(5), "scaler length does not match input_dim"),
        ("scaler_min", np.array([0.01, 3.0]), "field 'scaler_min' exceeds 'scaler_max'"),
        ("iteration", 0, "field 'iteration' must be >= 1, got 0"),
        ("seed", 1.5, "field 'seed' must be an integer, got 1.5"),
    ], ids=["theta-nan", "scaler_min--inf", "scaler_max-inf", "scaler-length",
            "scaler-reversed", "iteration-zero", "seed-float"])
    def test_save_refuses_a_field_load_refuses(self, tmp_path, field, value, message):
        # Set after the checkpoint is built, so saving's own check must refuse it.
        ck = sample_checkpoint()
        setattr(ck, field, value)
        path = tmp_path / "ck.txt"
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            save_checkpoint(ck, path)
        assert not path.exists()

    def test_non_numeric_field(self, tmp_path):
        ck = sample_checkpoint()
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        path.write_text(path.read_text().replace("a=0.25", "a=hello"))
        with pytest.raises(CheckpointError, match="'a'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line", ["a=0.5", "cfg.eta_z=0.1"])
    def test_repeated_key_names_it(self, tmp_path, line):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(), path)
        path.write_text(path.read_text() + line + "\n")
        key = line.split("=")[0]
        with pytest.raises(CheckpointError, match=f"key '{key}' repeats line"):
            load_checkpoint(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(), path)
        lines = path.read_text().splitlines()
        first = lines.index("a=0.25") + 1
        path.write_text("\n".join(lines + ["a=0.5"]) + "\n")
        with pytest.raises(CheckpointError,
                           match=f"^line {len(lines) + 1}: key 'a' repeats line {first}$"):
            load_checkpoint(path)

    def test_malformed_line_names_its_line(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(sample_checkpoint(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["no equals here"] + lines[3:]) + "\n")
        with pytest.raises(CheckpointError, match="^line 4: no '=' in line 'no equals here'$"):
            load_checkpoint(path)


class _ByteCounter:
    """A text sink that keeps only the number of bytes written to it."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))


def report_text(config, metrics, history=None):
    fh = io.StringIO()
    write_report(fh, config, metrics, history)
    return fh.getvalue()


class TestReport:
    def test_format_and_parse(self):
        text = report_text(
            {"variant": "df", "seed": 3},
            {"final_nominal_auc": 0.9375, "note": "ok"},
            History(("objective", "lam", "mean_cost"), np.array([[-0.5, 1.0, np.nan]]),
                    np.zeros((1, 2))),
        )
        parsed = parse_report(text)
        assert parsed["config.variant"] == "df"
        assert float(parsed["final_nominal_auc"]) == 0.9375
        assert parsed["note"] == "ok"
        assert float(parsed["history.1.objective"]) == -0.5
        assert float(parsed["history.1.lam"]) == 1.0
        assert "history.1.theta" not in parsed
        assert "history.1.mean_cost" not in parsed

    def test_exact_bytes(self):
        # Config keys sorted, metrics and fields in their order, an absent
        # group's (NaN) mean cost and theta skipped, any other NaN written,
        # ints as they are and floats at 17 digits.
        text = report_text(
            {"seed": 3, "arch": "linear-sigmoid"},
            {"final_nominal_auc": 0.1, "clipped_values": 0},
            History(("objective", "lam", "mean_cost_neg"),
                    np.array([[1 / 3, 0.0, np.nan], [-2.5e-300, 7.0, 0.125],
                              [np.nan, np.nan, np.nan]]), np.ones((3, 3))),
        )
        assert text == ("config.arch=linear-sigmoid\n"
                        "config.seed=3\n"
                        "final_nominal_auc=0.10000000000000001\n"
                        "clipped_values=0\n"
                        "history.1.objective=0.33333333333333331\n"
                        "history.1.lam=0\n"
                        "history.2.objective=-2.5e-300\n"
                        "history.2.lam=7\n"
                        "history.2.mean_cost_neg=0.125\n"
                        "history.3.objective=nan\n"
                        "history.3.lam=nan\n")

    def test_writing_needs_constant_memory(self):
        # Each iteration's lines go to the stream as they are formatted, so
        # the peak does not grow with the history (joined into one string,
        # these 10,000 iterations' 70,000 lines took about 12 MB).
        t = np.arange(1.0, 10_001.0)
        history = History(("objective", "alpha", "a", "b", "batch_auc", "lam", "cost"),
                          np.stack([t / 7, -t / 3, 1 / t, t / 11, 0.5 + 1 / (t + 2), t / 13,
                                    1 / (t + 5)], axis=1),
                          np.zeros((t.size, 9)))
        sink = _ByteCounter()
        tracemalloc.start()
        try:
            write_report(sink, {"variant": "df"}, {"final_nominal_auc": 0.5}, history)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.bytes > 2_000_000
        assert peak < 256 * 1024

    def test_line_without_equals_names_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_report("a=1\nno equals here\n")

    def test_repeated_key_names_both_lines(self):
        # The last value used to win without a word.
        with pytest.raises(DataFormatError, match="^line 3: key 'a' repeats line 1$"):
            parse_report("a=1\nb=2\na=3\n")


@pytest.mark.parametrize("old, new, message", [
    ("theta=0.10000000000000001,", "theta=0.1,x,",
     "field 'theta' contains a non-numeric entry"),
    ("input_dim=2", "input_dim=two", "field 'input_dim' is not an integer"),
    ("scaler_min=0.01,-1.5", "scaler_min=0.01", "scaler length does not match input_dim"),
], ids=["theta-non-numeric", "input-dim-not-int", "scaler-short"])
def test_malformed_field_is_refused_with_its_message(tmp_path, old, new, message):
    path = tmp_path / "ck.txt"
    save_checkpoint(sample_checkpoint(), path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)
