import itertools
import re
import warnings

import numpy as np
import pytest

from drauc import (AuxParams, DataFormatError, Dataset, TrainConfig, corrupt, evaluate,
                   gen_synthetic, grad_check, init_model, load_csv, make_long_tailed,
                   save_csv, ScoringModel)
from drauc.data import seeded_rng

SEEDED = {
    "gen_synthetic": lambda seed: gen_synthetic(10, 2, seed=seed),
    "make_long_tailed": lambda seed: make_long_tailed(gen_synthetic(40, 2), 0.1, seed=seed),
    "corrupt": lambda seed: corrupt(gen_synthetic(10, 2), 0.1, seed=seed),
    "TrainConfig": lambda seed: TrainConfig(seed=seed),
    "init_model": lambda seed: init_model("linear-sigmoid", 2, seed),
    "grad_check": lambda seed: grad_check("linear-sigmoid", trials=1, seed=seed),
    "seeded_rng": seeded_rng,
}


@pytest.mark.parametrize("entry", SEEDED)
def test_negative_seed_names_seed(entry):
    SEEDED[entry](0)
    SEEDED[entry](np.int64(3))  # a NumPy integer is an integer
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        SEEDED[entry](-1)
    # Refused with the field's name, not NumPy's TypeError or a silent 1.
    for seed in (1.5, 2.0, True, np.float64(1.0), np.True_):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            SEEDED[entry](seed)


class TestGenSynthetic:
    def test_normalization_contract(self):
        ds = gen_synthetic(100, 3, seed=0)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert np.allclose(ds.features.min(axis=0), 0.0)
        assert np.allclose(ds.features.max(axis=0), 1.0)

    def test_deterministic(self):
        a = gen_synthetic(50, 2, seed=9)
        b = gen_synthetic(50, 2, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_half_and_half(self):
        ds = gen_synthetic(101, 2, seed=0)
        assert ds.n_pos == 50 and ds.n_neg == 51
        assert ds.p_hat == 50 / 101

    def test_collapsed_blobs_are_separable(self):
        ds = gen_synthetic(60, 2, sigma=1e-6, seed=1)
        scorer = ScoringModel("linear-sigmoid", np.array([1.0, 1.0, 0.0]), 2)
        assert evaluate(scorer, AuxParams(0.0, 0.0, 0.0), ds)["nominal_auc"] == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen_synthetic(3, 2, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(10, 0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(10, 2, sigma=0.0, seed=0)

    @pytest.mark.parametrize("name, value, message", [
        ("mu_pos", np.nan, "must be finite, got nan"),
        ("mu_neg", np.inf, "must be finite, got inf"),
        ("mu_pos", -np.inf, "must be finite, got -inf"),
        # Counts name themselves, not NumPy's TypeError; a bool is no sigma.
        ("n", 10.5, "must be an integer, got 10.5"), ("d", True, "must be an integer, got True"),
        ("sigma", True, "must be a real number, got True")])
    def test_bad_argument_names_itself(self, name, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic warns
            with pytest.raises(ValueError, match=f"^{name} {re.escape(message)}$"):
                gen_synthetic(**{"n": 10, "d": 2, "seed": 0, name: value})


class TestMakeLongTailed:
    def test_keep_count_arithmetic(self):
        feats = np.random.default_rng(0).uniform(0, 1, size=(200, 2))
        labels = np.concatenate([np.ones(100, dtype=int), np.zeros(100, dtype=int)])
        ds = Dataset.from_arrays(feats, labels)
        lt = make_long_tailed(ds, 0.1, seed=0)
        assert lt.n_pos == 11  # floor(0.1 * 100 / 0.9)
        assert lt.n_neg == 100
        assert lt.p_hat == 11 / 111

    def test_ratio_at_current_p_hat_keeps_everything(self):
        ds = gen_synthetic(40, 2, seed=2)
        same = make_long_tailed(ds, ds.p_hat, seed=5)
        assert np.array_equal(same.features, ds.features)
        assert np.array_equal(same.labels, ds.labels)

    def test_zero_positive_guard(self):
        feats = np.random.default_rng(1).uniform(0, 1, size=(102, 1))
        labels = np.concatenate([np.ones(2, dtype=int), np.zeros(100, dtype=int)])
        ds = Dataset.from_arrays(feats, labels)
        with pytest.raises(ValueError):
            make_long_tailed(ds, 0.001, seed=0)

    def test_ratio_above_current_rejected(self):
        ds = gen_synthetic(40, 2, seed=3)
        with pytest.raises(ValueError):
            make_long_tailed(ds, 0.9, seed=0)

    def test_negatives_untouched(self):
        ds = gen_synthetic(100, 2, seed=4)
        lt = make_long_tailed(ds, 0.2, seed=4)
        assert np.array_equal(ds.features[ds.labels == 0],
                              lt.features[lt.labels == 0])

    def test_p_hat_recomputed(self):
        ds = gen_synthetic(100, 2, seed=5)
        lt = make_long_tailed(ds, 0.25, seed=5)
        assert lt.p_hat == (lt.labels == 1).mean()


class TestCorrupt:
    def test_sigma_zero_is_identity(self):
        ds = gen_synthetic(30, 2, seed=6)
        same = corrupt(ds, 0.0, seed=1)
        assert np.array_equal(same.features, ds.features)

    def test_outputs_clipped(self):
        ds = gen_synthetic(30, 2, seed=7)
        noisy = corrupt(ds, 5.0, seed=1)
        assert noisy.features.min() >= 0.0 and noisy.features.max() <= 1.0
        assert np.array_equal(noisy.labels, ds.labels)

    def test_deterministic(self):
        ds = gen_synthetic(30, 2, seed=8)
        a = corrupt(ds, 0.2, seed=3)
        b = corrupt(ds, 0.2, seed=3)
        assert np.array_equal(a.features, b.features)

    def test_negative_sigma_rejected(self):
        ds = gen_synthetic(30, 2, seed=8)
        with pytest.raises(ValueError):
            corrupt(ds, -0.1, seed=0)

    def test_non_finite_sigma_rejected(self):
        ds = gen_synthetic(30, 2, seed=8)
        for sigma, message in ((float("nan"), "sigma must be finite"),
                               (float("inf"), "sigma must be finite"),
                               (True, "sigma must be a real number, got True")):
            with pytest.raises(ValueError, match=message):
                corrupt(ds, sigma, seed=0)


class TestCsvRoundTrip:
    def test_save_load_bitwise(self, tmp_path):
        ds = gen_synthetic(60, 3, seed=10)
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.p_hat == ds.p_hat

    def test_file_bytes_stable(self, tmp_path):
        ds = gen_synthetic(60, 2, seed=11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(ds, p1)
        save_csv(load_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_bytes_match_per_row_format(self, tmp_path):
        ds = gen_synthetic(20000, 3, seed=13)
        path = tmp_path / "big.csv"
        save_csv(ds, path)
        rows = ["y,x1,x2,x3"] + [f"{int(label)}," + ",".join(format(v, ".17g") for v in feat)
                                 for label, feat in zip(ds.labels, ds.features)]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode("utf-8")

    def test_constant_column_maps_to_half(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("y,x1,x2\n1,3.0,0.2\n0,3.0,0.8\n", encoding="utf-8")
        ds = load_csv(path)
        assert np.all(ds.features[:, 0] == 0.5)
        assert ds.scaler_min[0] == ds.scaler_max[0] == 3.0

    def test_normalization_idempotent(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("y,x1\n1,5.0\n0,1.0\n0,3.0\n", encoding="utf-8")
        once = load_csv(path)
        save_csv(once, path)
        twice = load_csv(path)
        assert np.array_equal(once.features, twice.features)


class TestCsvErrors:
    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,x1\n1,0.5\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1"):
            load_csv(path)

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1,0.1\n0,0.2\n1,0.3\n2,0.4\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 5"):
            load_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1,oops\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,x2\n1,0.1,0.2\n0,0.3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path)

    def test_non_finite_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,x2\n1,0.2,0.3\n0,nan,0.5\n0,0.9,0.1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3: non-finite value 'nan' in column x1"):
            load_csv(path)
        path.write_text("y,x1,x2\n1,0.2,0.3\n0,0.4,0.5\n0,0.9,-inf\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 4"):
            load_csv(path)

    def test_empty_data(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_csv(path)


# One faulty row per kind for a two-feature file, and the error it raises.
ROW_FAULTS = {
    "ragged": ("0,0.5", "ragged row: expected 3 fields, got 2"),
    "label-text": ("yes,0.5,0.5", "non-numeric label 'yes'"),
    "label-value": ("2,0.5,0.5", "label value 2 is not 0 or 1"),
    "field-text": ("1,0.5,oops", "non-numeric field 'oops' in column x2"),
}


class TestCsvErrorPrecedence:
    @pytest.mark.parametrize("first, second", itertools.product(ROW_FAULTS, repeat=2))
    def test_first_bad_line_is_named(self, tmp_path, first, second):
        rows = ["1,0.1,0.2", ROW_FAULTS[first][0], "0,0.3,0.4", ROW_FAULTS[second][0],
                "1,0.5,0.6"]
        message = f"line 3: {ROW_FAULTS[first][1]}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            _load(tmp_path, "y,x1,x2\n" + "\n".join(rows) + "\n")

    @pytest.mark.parametrize("row, message", [
        ("yes,oops,0.5", "non-numeric label 'yes'"),
        ("2,oops,0.5", "label value 2 is not 0 or 1"),
        ("1,oops,nope", "non-numeric field 'oops' in column x1"),
        ("1,nan,nope", "non-numeric field 'nope' in column x2"),
    ])
    def test_a_rows_first_fault_is_named(self, tmp_path, row, message):
        with pytest.raises(DataFormatError, match=f"^{re.escape('line 3: ' + message)}$"):
            _load(tmp_path, f"y,x1,x2\n1,0.1,0.2\n{row}\n0,0.3,0.4\n")

    def test_parse_fault_beats_earlier_non_finite_value(self, tmp_path):
        text = "y,x1,x2\n1,0.1,0.2\n0,nan,0.4\n0,0.3,0.4\n1,0.5,oops\n"
        with pytest.raises(DataFormatError,
                           match="^line 5: non-numeric field 'oops' in column x2$"):
            _load(tmp_path, text)

    def test_blank_middle_line_is_a_ragged_row(self, tmp_path):
        text = "y,x1,x2\n1,0.1,0.2\n0,0.3,0.4\n\n1,0.5,0.6\n"
        with pytest.raises(DataFormatError,
                           match="^line 4: ragged row: expected 3 fields, got 1$"):
            _load(tmp_path, text)


def _reference_load(text, scaler=None):
    """load_csv's result for a valid file, one float() per field."""
    rows = text.split("\n")[1:-1]
    d = rows[0].count(",")
    labels = np.empty(len(rows), dtype=int)
    raw = np.empty((len(rows), d))
    for i, row in enumerate(rows):
        parts = row.split(",")
        labels[i] = int(float(parts[0]))
        for j, field in enumerate(parts[1:]):
            raw[i, j] = float(field)
    mn, mx = scaler if scaler is not None else (raw.min(axis=0), raw.max(axis=0))
    scaled = np.empty_like(raw)
    for j in range(d):
        span = mx[j] - mn[j]
        scaled[:, j] = 0.5 if span == 0.0 else (raw[:, j] - mn[j]) / span
    features = np.clip(scaled, 0.0, 1.0)
    return features, labels, mn, mx, int((features != scaled).sum())


# Fields float() accepts beyond plain decimals, and labels it reads as 0 or 1.
FLOAT_SPELLINGS = ("y,x1,x2,x3\n"
                   "1.0, 0.25,+3,5\n"
                   "-0,1_0,-0.0,5\n"
                   "1e0,5e-324,1e300,5\n"
                   "0,7.,0.5,5\r\n"
                   "1,0.75,-2,5\n")


@pytest.mark.parametrize("scaler", [None, (np.array([0.0, -1.0, 4.0]),
                                           np.array([4.0, 2.0, 4.0]))],
                         ids=["own-ranges", "given-scaler"])
def test_parse_matches_per_field_reference(tmp_path, scaler):
    path = tmp_path / "d.csv"
    path.write_text(FLOAT_SPELLINGS)
    ds = load_csv(path, scaler)
    features, labels, mn, mx, clipped = _reference_load(FLOAT_SPELLINGS, scaler)
    assert ds.features.dtype == features.dtype
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.dtype == labels.dtype
    assert ds.labels.tobytes() == labels.tobytes()
    assert ds.scaler_min.tobytes() == mn.tobytes()
    assert ds.scaler_max.tobytes() == mx.tobytes()
    assert ds.clipped == clipped
    assert (clipped > 0) == (scaler is not None)


class TestDatasetValidation:
    def test_rejects_out_of_box_features(self):
        with pytest.raises(ValueError):
            Dataset.from_arrays(np.array([[1.5]]), np.array([1]))

    def test_rejects_nan_features(self):
        with pytest.raises(ValueError, match="NaN"):
            Dataset.from_arrays(np.array([[np.nan]]), np.array([1]))
        with pytest.raises(ValueError, match="NaN"):
            Dataset.from_arrays(np.array([[0.2, np.nan], [0.5, 0.7]]), np.array([1, 0]))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            Dataset.from_arrays(np.array([[0.5]]), np.array([2]))

    def test_p_hat_cached_consistently(self):
        ds = gen_synthetic(80, 2, seed=12)
        assert ds.p_hat == (ds.labels == 1).mean()


def _load(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    return load_csv(path)


# A CSV wider than a given scaler is a `drauc eval` path, tested in test_cli.py.
@pytest.mark.parametrize("build, error, message", [
    (lambda tmp: Dataset.from_arrays(np.zeros(3), [0, 1, 1]), ValueError,
     "features must be a 2-D array"),
    (lambda tmp: Dataset.from_arrays(np.zeros((3, 2)), [0, 1]), ValueError,
     "labels must match the number of feature rows"),
    (lambda tmp: _load(tmp, ""), DataFormatError, "line 1: empty file"),
    (lambda tmp: _load(tmp, "y,x1\n1,0.5\nyes,0.25\n"), DataFormatError,
     "line 3: non-numeric label 'yes'"),
    (lambda tmp: Dataset.from_arrays([[0.1], [0.2], [0.3]], [0.5, 1.7, 0.0]), ValueError,
     "labels must be 0 or 1"),
    (lambda tmp: Dataset.from_arrays([[0.1], [0.2], [0.3]], [np.nan, 1.0, 0.0]), ValueError,
     "labels must be 0 or 1"),
], ids=["features-1d", "labels-short", "csv-empty", "csv-label-text", "labels-fractional",
        "labels-nan"])
def test_bad_input_is_refused_with_its_message(tmp_path, build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(tmp_path)
