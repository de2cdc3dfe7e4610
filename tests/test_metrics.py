import numpy as np
import pytest

from riskfed.errors import DataError
from riskfed.metrics import RoundRecord, accuracy, write_metrics_csv

from conftest import make_dataset


def record(round_index, loss=0.25, acc=0.5):
    return RoundRecord(round=round_index, global_train_loss=loss,
                       test_accuracy=acc, participants=3, completed=2,
                       step_norm=0.125)


class TestAccuracy:
    def test_zero_weights_ties_count_wrong(self, dataset_factory):
        data = dataset_factory([[1.0, 2.0], [3.0, 4.0]], [1, -1])
        assert accuracy(np.zeros(3), data) == 0.0

    def test_perfect_separator(self, dataset_factory):
        data = dataset_factory([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.5], [-2.0, 0.0]],
                               [1, 1, -1, -1])
        assert accuracy(np.array([1.0, 0.0, 0.0]), data) == 1.0

    def test_three_of_five(self, dataset_factory):
        # scores 1, 2, -1, 1, -1 vs labels 1, 1, 1, -1, -1: hits at 0, 1, 4
        data = dataset_factory([[1.0], [2.0], [-1.0], [1.0], [-1.0]],
                               [1, 1, 1, -1, -1])
        assert accuracy(np.array([1.0, 0.0]), data) == pytest.approx(0.6)

    def test_duplication_invariance(self, dataset_factory):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((7, 3))
        labels = rng.choice([-1.0, 1.0], 7)
        w = rng.standard_normal(4)
        single = accuracy(w, dataset_factory(features, labels))
        doubled = accuracy(w, dataset_factory(np.vstack([features, features]),
                                              np.concatenate([labels, labels])))
        assert single == doubled

    def test_empty_rejected(self, dataset_factory):
        data = dataset_factory([[1.0, 0.0]], [1])
        with pytest.raises(DataError):
            accuracy(np.zeros(3), data.subset([]))


class TestMetricsCsv:
    def test_empty_sink_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv([], path)
        text = path.read_text(encoding="utf-8")
        assert text == (
            "round,train_loss,test_accuracy,participants,completed,step_norm\n"
        )

    def test_two_rows_three_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv([record(1), record(2)], path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [record(i, loss=float(rng.random()), acc=float(rng.random()))
                for i in range(1, 6)]
        blobs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_metrics_csv(rows, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_float_round_trip(self, tmp_path):
        rows = [record(1, loss=1 / 3, acc=2 / 7), record(2, loss=np.pi, acc=0.1)]
        path = tmp_path / "m.csv"
        write_metrics_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        for line, r in zip(lines, rows):
            parts = line.split(",")
            assert int(parts[0]) == r.round
            assert float(parts[1]) == r.global_train_loss
            assert float(parts[2]) == r.test_accuracy
            assert float(parts[5]) == r.step_norm
