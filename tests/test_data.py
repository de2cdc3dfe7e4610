import csv
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskfed.data
from riskfed.data import (
    LabeledDataset,
    generate_synthetic,
    load_csv,
    split_points,
    temporal_split,
    write_csv,
)
from riskfed.errors import ConfigurationError, DataError

from oracles import synthetic_features


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(2, 8), st.integers(1, 6),
       st.integers(0, 2**63),
       st.floats(min_value=5e-324, max_value=1e300, allow_subnormal=True))
def test_generated_rows_keep_the_dataset_invariants(n, d, num_sectors, seed, signal):
    # the ranges validate lets through, up to a signal of 1e300: the
    # generator is the second producer of datasets and checks nothing
    data = generate_synthetic(n, d, num_sectors, seed=seed, signal=signal)
    assert data.features.shape == (n, d) and data.features.dtype == np.float64
    assert data.features.flags.c_contiguous
    assert np.isfinite(data.features).all()
    assert data.labels.shape == (n,) and set(np.unique(data.labels)) <= {-1.0, 1.0}
    assert data.sectors.shape == (n,) and data.sectors.dtype == np.int64
    assert set(np.unique(data.sectors)) <= set(range(num_sectors))


def assert_equals_one_shot(n, d, num_sectors, seed, signal):
    features, labels, sectors = synthetic_features(n, d, num_sectors, seed, signal)
    data = generate_synthetic(n, d, num_sectors, seed=seed, signal=signal)
    np.testing.assert_array_equal(data.features, features, strict=True)
    np.testing.assert_array_equal(data.labels, labels, strict=True)
    np.testing.assert_array_equal(data.sectors, sectors, strict=True)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 2**63), st.floats(0.01, 100.0))
def test_streamed_generator_equals_one_shot_draw(data, n, d, num_sectors, seed, signal):
    # blocks of 1 and 3 records, and one block longer than n, give the
    # features of one whole standard_normal draw bit for bit
    rows = data.draw(st.sampled_from([1, 3, n + 1]))
    with mock.patch.object(riskfed.data, "STREAM_ROWS", rows):
        assert_equals_one_shot(n, d, num_sectors, seed, signal)


def test_generator_past_one_block_equals_one_shot_draw():
    # the module's own block size, with a partial last block
    assert_equals_one_shot(2 * riskfed.data.STREAM_ROWS + 5, 3, 4, seed=8, signal=1.5)


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

    @pytest.mark.parametrize("label", ["-1\x00", "1\x00\x00", "-12", "11", "\xa01",
                                       "-1\u2003", "\x1c1"])
    def test_label_that_starts_like_a_good_one_names_row(self, tmp_path, label):
        # numpy drops trailing NULs from a text field and cuts what is too wide,
        # and str.strip() would drop a non-ASCII space or a "\x1c"
        path = tmp_path / "bad.csv"
        path.write_text(f"feature_0,label\n0.5,1\n0.5,{label}\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"bad\.csv: row 3 label must be -1 or 1, "
                                            rf"got {re.escape(repr(label))}"):
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

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "-1e309"])
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
        # the second passes int() but does not fit the int64 sectors array
        path = tmp_path / "bad.csv"
        for sector in ("x", "99999999999999999999"):
            path.write_text(f"feature_0,feature_1,label,sector\n0.1,0.2,1,{sector}\n",
                            encoding="utf-8")
            with pytest.raises(DataError,
                               match=rf"bad\.csv: row 2 sector must be an integer, "
                                     rf"got '{sector}'"):
                load_csv(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(generate_synthetic(200, 2, 2, seed=3), plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_csv(plain), load_csv(bom)
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.sectors, want.sectors)

    def test_cell_past_the_csv_field_limit_cannot_be_read(self, tmp_path):
        # the cell reads as 1.0, but csv caps a cell at field_size_limit()
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,label\n" + "0" * csv.field_size_limit() + "1,1\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.csv: cannot read: field larger"):
            load_csv(path)

    @pytest.mark.parametrize("text, reason", [
        ("", "empty file, header row required"),
        ("feature_0,label\r\n", "no data rows"),
    ])
    def test_file_without_rows_rejected_without_a_warning(self, tmp_path, text, reason):
        # as a run sees it, with warnings shown rather than raised: loadtxt
        # warns on a body with no rows
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match=rf"bad\.csv: {reason}$"):
                load_csv(path)
        assert caught == []

    @pytest.mark.parametrize("header", [
        "feature_0\xa0,label", "feature_0,\u2003label", "feature_0,label,sector\xa0",
        "feature_0,label\x1c"])
    def test_header_padded_with_other_than_ascii_spaces_rejected(self, tmp_path, header):
        # a header cell is read as a number cell is: only ASCII spaces pad it
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n0.5,1\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.csv: header must be feature_0\.\."):
            load_csv(path)

    def test_header_padded_with_ascii_spaces_read(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text(" feature_0\t,label ,\vsector\n0.5,1,3\n", encoding="utf-8")
        data = load_csv(path)
        np.testing.assert_array_equal(data.features, [[0.5]])
        np.testing.assert_array_equal(data.sectors, [3])

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


# load_csv is the one check of outside data: a good row, or a row with one
# fault of a kind the rules name. float() and int() would read "1_0.5" as
# 10.5, "\u0663" (Arabic-Indic three) as 3 and "\xa01.5" as 1.5, but the
# grammar allows only ASCII digits with no "_"; str.strip() would read the
# label "\xa01" as 1, but only ASCII spaces pad a cell. numpy drops the NUL of
# "-1\x00" from a text field, and a field too narrow would cut "-12".
GOOD_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
FAULTS = {
    "cell": ["nan", "inf", "-inf", "1e400", "x", "", "1_0.5", "\u0663", "\xa01.5"],
    "label": ["0", "+1", "1.0", "-12", "-1\x00", "\xa01", "-1\u2003"],
    "sector": ["x", "2.5", "99999999999999999999", "3_0", "\u0663"],
}


@st.composite
def csv_rows(draw):
    """d, whether a sector column is present, the data rows as the cells csv
    reads, the file's text, and the numbers of the rows that hold a fault
    (the header is row 1). In some files labels and sectors are padded with
    spaces, and in some cells are quoted, which the rules allow; a blank
    line is a row of no cells and a trailing comma adds an empty one."""
    d = draw(st.integers(1, 3))
    has_sector = draw(st.booleans())
    kinds = [None, "cell", "label", "short", "blank", "trailing comma"]
    kinds += ["sector"] * has_sector
    labels, sectors = ["-1", "1"], ["0", "7", "-2", "+3"]
    if draw(st.booleans()):
        labels, sectors = labels + [" 1", "-1 "], sectors + [" 7", "+3 "]
    rows, bad = [], []
    for rownum in range(2, 2 + draw(st.integers(1, 4))):
        row = draw(st.lists(GOOD_CELLS, min_size=d, max_size=d))
        row.append(draw(st.sampled_from(labels)))
        if has_sector:
            row.append(draw(st.sampled_from(sectors)))
        kind = draw(st.sampled_from(kinds))
        if kind == "short":
            row.pop()
        elif kind == "blank":
            row = []
        elif kind == "trailing comma":
            row.append("")
        elif kind:
            at = {"cell": draw(st.integers(0, d - 1)), "label": d, "sector": d + 1}[kind]
            row[at] = draw(st.sampled_from(FAULTS[kind]))
        if kind:
            bad.append(rownum)
        rows.append(row)
    header = [f"feature_{j}" for j in range(d)] + ["label"] + ["sector"] * has_sector
    quoted = st.sampled_from(['"{}"', "{}"] if draw(st.booleans()) else ["{}"])
    lines = [",".join(draw(quoted).format(c) for c in r) for r in [header] + rows]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return d, has_sector, rows, eol.join(lines) + eol, bad


@settings(max_examples=300, deadline=None)
@given(csv_rows())
def test_load_csv_returns_valid_rows_or_names_the_first_bad_one(tmp_path_factory, case):
    d, has_sector, rows, text, bad = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    if bad:
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert f"data.csv: row {bad[0]} " in str(info.value)
        return
    data = load_csv(path)
    n = len(rows)
    assert data.features.shape == (n, d) and data.features.dtype == np.float64
    assert data.features.flags.c_contiguous
    assert np.isfinite(data.features).all()
    # by bits: assert_array_equal holds -0.0 equal to 0.0
    want = np.array([[float(c) for c in r[:d]] for r in rows])
    np.testing.assert_array_equal(data.features.view(np.int64), want.view(np.int64))
    assert data.labels.shape == (n,) and data.labels.dtype == np.float64
    np.testing.assert_array_equal(data.labels, [float(r[d]) for r in rows])
    assert data.sectors.shape == (n,) and data.sectors.dtype == np.int64
    np.testing.assert_array_equal(
        data.sectors, [int(r[d + 1]) if has_sector else 0 for r in rows])


def _write_six_decimals(data, path):
    """data in the format of the benchmark's records: "\n" line ends and the
    repr of each feature rounded to six decimals."""
    features = np.rint(data.features * 1e6) / 1e6
    header = [f"feature_{j}" for j in range(data.dim)] + ["label", "sector"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, y, s in zip(features.tolist(), data.labels.tolist(),
                             data.sectors.tolist()):
            fh.write(",".join(map(repr, row)) + f",{int(y)},{s}\n")


@pytest.mark.parametrize("write", [write_csv, _write_six_decimals])
def test_clean_file_skips_the_row_loop(tmp_path, monkeypatch, write):
    # a one-pass parse that declined every file would pass every other test
    path = tmp_path / "clean.csv"
    write(generate_synthetic(1000, 6, 3, seed=17), path)

    def row_loop(*args):
        raise AssertionError("a clean file reached the row loop")

    monkeypatch.setattr(riskfed.data, "_read_records", row_loop)
    data = load_csv(path)
    # the oracle: each cell of the file read by float() or int()
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    rows = [line.split(",") for line in lines]
    features = np.array([[float(c) for c in r[:6]] for r in rows])
    assert data.features.flags.c_contiguous and data.features.dtype == np.float64
    np.testing.assert_array_equal(data.features.view(np.int64), features.view(np.int64))
    assert data.labels.dtype == np.float64
    np.testing.assert_array_equal(data.labels, [float(r[6]) for r in rows])
    assert data.sectors.dtype == np.int64
    np.testing.assert_array_equal(data.sectors, [int(r[7]) for r in rows])


class TestLabeledDataset:
    def test_rows_are_views(self):
        data = generate_synthetic(n=20, d=3, num_sectors=2, seed=1)
        view = data.rows(4, 9)
        assert np.shares_memory(view.features, data.features)
        np.testing.assert_array_equal(view.labels, data.labels[4:9])
        np.testing.assert_array_equal(view.sectors, data.sectors[4:9])


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
        # both parts are views of the input, and together they are all of it
        data = self._sequential(17)
        train, test = temporal_split(data, 0.7)
        for name in ("features", "labels", "sectors"):
            whole = getattr(data, name)
            parts = (getattr(train, name), getattr(test, name))
            assert all(np.shares_memory(part, whole) for part in parts), name
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_empty_side_rejected(self):
        with pytest.raises(ConfigurationError):
            temporal_split(self._sequential(2), 0.05)
        with pytest.raises(ConfigurationError):
            temporal_split(self._sequential(10), 1.0)


@st.composite
def split_cases(draw):
    """Client sizes and a fraction in (0, 1). Half the fractions are m/n
    for one client's n, whose product with n often lands an ulp below m,
    as 0.29 * 100 = 28.999999999999996 does."""
    sizes = draw(st.lists(st.integers(1, 10**6) | st.integers(1, 12), min_size=1,
                          max_size=6))
    n = draw(st.sampled_from(sizes))
    if n > 1 and draw(st.booleans()):
        return sizes, draw(st.integers(1, n - 1)) / n
    return sizes, draw(st.floats(0, 1, exclude_min=True, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_split_points_floor_each_client_or_name_the_first_empty_side(case):
    sizes, fraction = case
    want = [math.floor(fraction * n) for n in sizes]
    bad = [k for k, (n, cut) in enumerate(zip(sizes, want)) if not 1 <= cut < n]
    if bad:
        k = bad[0]
        with pytest.raises(ConfigurationError) as info:
            split_points(sizes, fraction)
        assert str(info.value) == (f"client {k}: split of {sizes[k]} records at "
                                   f"fraction {fraction} leaves an empty side")
        return
    cuts = split_points(sizes, fraction)
    assert cuts.dtype == np.int64
    assert cuts.tolist() == want


def test_split_points_floor_below_an_integer():
    assert 0.29 * 100 < 29
    assert split_points([100, 200], 0.29).tolist() == [28, 57]
