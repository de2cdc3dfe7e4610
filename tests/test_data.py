import numpy as np
import pytest

from riskfed.data import (
    LabeledDataset,
    generate_synthetic,
    load_csv,
    temporal_split,
    write_csv,
)
from riskfed.errors import ConfigurationError, DataError


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        a = generate_synthetic(50, 4, 3, seed=9)
        b = generate_synthetic(50, 4, 3, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.sectors, b.sectors)

    def test_distinct_seeds_differ(self):
        a = generate_synthetic(50, 4, 3, seed=9)
        b = generate_synthetic(50, 4, 3, seed=10)
        assert not np.array_equal(a.features, b.features)

    def test_label_balance(self):
        data = generate_synthetic(10000, 5, 2, seed=1)
        positives = int(np.count_nonzero(data.labels == 1.0))
        # binomial 3-sigma bound around n/2
        assert abs(positives - 5000) <= 3 * np.sqrt(10000 * 0.25)

    def test_linearly_learnable(self):
        # oracle: full-batch least-squares fit must exceed 75% train accuracy
        data = generate_synthetic(10000, 130, 1, seed=3)
        xb = np.hstack([data.features, np.ones((len(data), 1))])
        w, *_ = np.linalg.lstsq(xb, data.labels, rcond=None)
        acc = np.mean(data.labels * (xb @ w) > 0)
        assert acc > 0.75

    def test_sector_tags_within_range(self):
        data = generate_synthetic(200, 3, 4, seed=5)
        assert set(np.unique(data.sectors)) <= set(range(4))


class TestCsvRoundTrip:
    def test_small_file_order_preserved(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "feature_0,feature_1,label\n"
            "0.5,-1.25,1\n"
            "3.0,2e-1,-1\n",
            encoding="utf-8",
        )
        data = load_csv(path)
        assert len(data) == 2
        np.testing.assert_allclose(data.features, [[0.5, -1.25], [3.0, 0.2]])
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])
        np.testing.assert_array_equal(data.sectors, [0, 0])

    def test_zero_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,feature_1,label\n1.0,2.0,0\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "feature_0,feature_1,label\n1.0,2.0,1\nx,2.0,1\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,feature_1,label\nnan,2.0,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_infinite_cell_names_row(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"feature_0,feature_1,label\n1.0,2.0,1\n1.0,{cell},1\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.csv: row 3 has a non-finite cell"):
            load_csv(path)

    def test_first_bad_row_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,feature_1,label\nnan,2.0,1\nx,2.0,1\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.csv: row 2 has a non-finite cell"):
            load_csv(path)

    def test_non_integer_sector_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,feature_1,label,sector\n0.1,0.2,1,x\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.csv: row 2 sector"):
            load_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,1\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_csv(path)

    def test_round_trip_byte_identical(self, tmp_path):
        data = generate_synthetic(20, 3, 2, seed=11)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(data, first)
        write_csv(load_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_exact_values(self, tmp_path):
        data = generate_synthetic(15, 4, 2, seed=13)
        path = tmp_path / "d.csv"
        write_csv(data, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)
        np.testing.assert_array_equal(back.sectors, data.sectors)


class TestLabeledDataset:
    @pytest.mark.parametrize("features, labels, message", [
        ([[1.0, np.nan]], [1.0], "non-finite"),
        ([[1.0, np.inf]], [-1.0], "non-finite"),
        ([[1.0, 2.0]], [0.0], "-1 or \\+1"),
        ([[1.0, 2.0]], [1.0, 1.0], "length"),
        ([1.0, 2.0], [1.0, 1.0], "2-D"),
    ])
    def test_constructor_checks_every_field(self, features, labels, message):
        with pytest.raises(DataError, match=message):
            LabeledDataset(features=np.asarray(features), labels=np.asarray(labels),
                           sectors=np.zeros(len(labels), dtype=np.int64))

    def test_rows_are_views_and_subset_copies(self):
        data = generate_synthetic(n=20, d=3, num_sectors=2, seed=1)
        view = data.rows(4, 9)
        assert np.shares_memory(view.features, data.features)
        np.testing.assert_array_equal(view.labels, data.labels[4:9])
        np.testing.assert_array_equal(view.sectors, data.sectors[4:9])
        picked = data.subset([7, 2, 2])
        assert not np.shares_memory(picked.features, data.features)
        assert picked.features.flags.c_contiguous
        np.testing.assert_array_equal(picked.features, data.features[[7, 2, 2]])
        np.testing.assert_array_equal(picked.sectors, data.sectors[[7, 2, 2]])


class TestTemporalSplit:
    def _sequential(self, n):
        return LabeledDataset(
            features=np.arange(2 * n, dtype=np.float64).reshape(n, 2),
            labels=np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
            sectors=np.zeros(n, dtype=np.int64),
        )

    def test_eighty_twenty(self):
        train, test = temporal_split(self._sequential(10), 0.8)
        assert len(train) == 8
        assert len(test) == 2
        np.testing.assert_array_equal(test.features,
                                      [[16.0, 17.0], [18.0, 19.0]])

    def test_fifty_fifty(self):
        train, test = temporal_split(self._sequential(10), 0.5)
        assert len(train) == 5
        assert len(test) == 5

    def test_floor_arithmetic(self):
        train, test = temporal_split(self._sequential(3), 0.9)
        assert len(train) == 2
        assert len(test) == 1

    def test_concatenation_recovers_input(self):
        data = self._sequential(17)
        train, test = temporal_split(data, 0.7)
        recovered = np.vstack([train.features, test.features])
        np.testing.assert_array_equal(recovered, data.features)

    def test_empty_side_rejected(self):
        with pytest.raises(ConfigurationError):
            temporal_split(self._sequential(2), 0.05)
        with pytest.raises(ConfigurationError):
            temporal_split(self._sequential(10), 1.0)
