import dataclasses
import re

import numpy as np
import pytest

from proxilearn import kpv, pmmr
from proxilearn.data import GROUPS, Dataset, DoCurve, SchemaError
from proxilearn.kernels import KernelSpecs
from proxilearn.synthdata import gen_main


class TestDataset:
    def test_coerces_shapes(self):
        data = Dataset(a=[1.0, 2.0], x=np.empty((2, 0)), z=[[1.0], [2.0]],
                       w=[[0.0], [1.0]], y=[0.5, 0.6])
        assert data.a.shape == (2, 1)
        assert data.n == 2

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(a=[1.0, 2.0], x=np.empty((2, 0)), z=[[1.0]],
                    w=[[0.0], [1.0]], y=[0.5, 0.6])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(a=[np.nan], x=np.empty((1, 0)), z=[[0.0]], w=[[0.0]],
                    y=[1.0])

    def test_split_half_partitions(self):
        data = gen_main(21, seed=0).data
        s1, s2 = data.split_half(seed=3)
        assert s1.n == 10 and s2.n == 11
        merged = np.sort(np.concatenate([s1.a[:, 0], s2.a[:, 0]]))
        np.testing.assert_array_equal(merged, np.sort(data.a[:, 0]))

    def test_split_deterministic(self):
        data = gen_main(30, seed=0).data
        a1, _ = data.split_half(seed=3)
        a2, _ = data.split_half(seed=3)
        np.testing.assert_array_equal(a1.a, a2.a)

    def test_csv_round_trip(self, tmp_path):
        data = gen_main(17, seed=5).data
        path = tmp_path / "d.csv"
        data.to_csv(path)
        loaded = Dataset.from_csv(path)
        np.testing.assert_array_equal(loaded.a, data.a)
        np.testing.assert_array_equal(loaded.z, data.z)
        np.testing.assert_array_equal(loaded.w, data.w)
        np.testing.assert_array_equal(loaded.y, data.y)
        assert loaded.x.shape == (17, 0)

    def test_from_csv_matches_cell_by_cell_parse(self, tmp_path):
        # Values written in other spellings still parse as float() does.
        path = tmp_path / "d.csv"
        cells = [["0.1", " -2.5e-300 ", "1_000", "+3", "-0.0"],
                 ["4.9e-324", "1e308", "7.", "  8  ", "0"]]
        path.write_text("A,Z1,W1,W2,Y\n"
                        + "".join(",".join(r) + "\n" for r in cells))
        loaded = Dataset.from_csv(path)
        table = np.column_stack([loaded.a, loaded.z, loaded.w, loaded.y])
        expected = np.array([[float(c) for c in r] for r in cells])
        assert table.tobytes() == expected.tobytes()

    def test_to_csv_writes_repr_of_each_value(self, tmp_path):
        data = gen_main(9, seed=4).data
        path = tmp_path / "d.csv"
        data.to_csv(path)
        table = np.column_stack([data.a, data.x, data.z, data.w, data.y])
        expected = ",".join(data.column_names()) + "\r\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\r\n" for row in table)
        assert path.read_bytes() == expected.encode()

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty file"):
            Dataset.from_csv(path)

    def test_two_outcome_columns_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,Z1,W1,Y1,Y2\n1,2,3,4,5\n")
        with pytest.raises(SchemaError, match="expected a single Y column"):
            Dataset.from_csv(path)

    def test_header_only_csv_has_no_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,Z1,W1,Y\n")
        data = Dataset.from_csv(path)
        assert data.n == 0 and data.w.shape == (0, 1)

    @pytest.mark.parametrize("body, where", [
        ("1,2,3,4\n1,2,3\n", "row 3 has 3 cells"),
        ("1,2,3\n1,2,3\n", "row 2 has 3 cells"),
        ("1,2,3,4\n\n", "row 3 has 0 cells"),
        ("1,2,,4\n", "row 2, column 'W1'"),
    ])
    def test_bad_rows_reported_with_location(self, tmp_path, body, where):
        path = tmp_path / "bad.csv"
        path.write_text("A,Z1,W1,Y\n" + body)
        with pytest.raises(SchemaError, match=where):
            Dataset.from_csv(path)

    def test_header_names(self):
        data = gen_main(3, seed=0).data
        assert data.column_names() == ["A", "Z1", "Z2", "W1", "W2", "Y"]

    def test_groups_name_the_fields_in_order(self):
        # Datasets, bandwidth specs and CSV columns share one group order.
        assert tuple(f.name for f in dataclasses.fields(Dataset)) == (
            *GROUPS, "y")
        assert tuple(f.name for f in dataclasses.fields(KernelSpecs)) == (
            GROUPS)

    def test_csv_round_trip_with_every_group(self, tmp_path):
        rng = np.random.default_rng(6)
        data = Dataset(a=rng.normal(size=(5, 2)), x=rng.normal(size=(5, 2)),
                       z=rng.normal(size=5), w=rng.normal(size=(5, 3)),
                       y=rng.normal(size=5))
        assert data.column_names() == ["A1", "A2", "X1", "X2", "Z1", "W1",
                                       "W2", "W3", "Y"]
        path = tmp_path / "d.csv"
        data.to_csv(path)
        loaded = Dataset.from_csv(path)
        for g in (*GROUPS, "y"):
            np.testing.assert_array_equal(getattr(loaded, g),
                                          getattr(data, g))
        np.testing.assert_array_equal(loaded.subset([4, 0]).x, data.x[[4, 0]])

    def test_missing_column_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,Z1,W1\n1,2,3\n")
        with pytest.raises(SchemaError, match="missing column group 'Y'"):
            Dataset.from_csv(path)

    def test_non_numeric_cell_reported_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,Z1,W1,Y\n1,2,3,4\n1,oops,3,4\n")
        with pytest.raises(SchemaError, match="row 3, column 'Z1'"):
            Dataset.from_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,Q1,W1,Y\n1,2,3,4\n")
        with pytest.raises(SchemaError, match="unknown column"):
            Dataset.from_csv(path)

    @pytest.mark.parametrize("header, repeated", [
        ("A,Z1,W1,W1,Y", "'W1' (same as 'W1')"),
        ("A,A1,Z1,W1,Y", "'A1' (same as 'A')"),
        ("A,Z01,Z1,W1,Y", "'Z1' (same as 'Z01')"),
    ])
    def test_repeated_column_rejected(self, tmp_path, header, repeated):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1,2,3,4,5\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"repeated column {repeated}")):
            Dataset.from_csv(path)


class TestDoCurve:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            DoCurve(grid=[0.0, 1.0], estimate=[1.0])

    def test_truth_length_checked(self):
        with pytest.raises(ValueError, match="truth length"):
            DoCurve(grid=[0.0, 1.0], estimate=[1.0, 2.0], truth=[0.0])

    def test_finite_required(self):
        with pytest.raises(ValueError, match="finite"):
            DoCurve(grid=[0.0], estimate=[np.inf])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_truth_required(self, bad):
        with pytest.raises(ValueError, match="truth must be finite"):
            DoCurve(grid=[0.0, 1.0], estimate=[1.0, 2.0], truth=[0.0, bad])


@pytest.fixture(scope="module")
def fitted():
    data = gen_main(80, seed=0).data
    return data, kpv.fit_kpv(data), pmmr.fit_pmmr(data)


# One call per function that evaluates query points, the bad value placed
# in a different variable group each time. "pmmr_curve_weights" is PMMR's
# curve weights over adjustment rows, which ``pmmr_ate`` computes.
QUERY_CALLS = {
    "kpv_h": lambda d, k, p, bad: kpv.kpv_h(k, [bad, 0.5], None, d.w[:2]),
    "pmmr_h": lambda d, k, p, bad: pmmr.pmmr_h(p, 0.5, [0.1, bad]),
    "stage1_embedding": lambda d, k, p, bad: kpv.stage1_embedding(
        k.stage1, d.a[:2], None, [[0.0, 1.0], [bad, 0.0]]),
    "kpv_curve_weights": lambda d, k, p, bad: kpv.kpv_curve_weights(
        k, None, np.vstack([d.w[:3], [bad, 0.0]])),
    "pmmr_curve_weights": lambda d, k, p, bad: pmmr.pmmr_ate(
        p, [0.0], None, np.vstack([d.w[:3], [0.0, bad]])),
}

# The same functions with three treatment (or W) queries and five X
# queries: X has no columns, so only its row count is wrong.
SHORT_X_CALLS = {
    "kpv_h": lambda d, k, p, x: kpv.kpv_h(k, d.a[:3], x, d.w[:3]),
    "pmmr_h": lambda d, k, p, x: pmmr.pmmr_h(p, d.a[:3], d.w[:3], x),
    "stage1_embedding": lambda d, k, p, x: kpv.stage1_embedding(
        k.stage1, d.a[:3], x, d.z[:3]),
    "kpv_curve_weights": lambda d, k, p, x: kpv.kpv_curve_weights(
        k, x, d.w[:3]),
    "pmmr_curve_weights": lambda d, k, p, x: pmmr.pmmr_ate(
        p, [0.0], x, d.w[:3]).estimate,
}

# The functions that take treatment queries, with three of them and a
# proxy group (W or Z, named first) of ``rows`` rows.
SHORT_PROXY_CALLS = {
    "kpv_h": ("w", lambda d, k, p, rows: kpv.kpv_h(
        k, d.a[:3], None, d.w[:rows])),
    "pmmr_h": ("w", lambda d, k, p, rows: pmmr.pmmr_h(
        p, d.a[:3], d.w[:rows])),
    "stage1_embedding": ("z", lambda d, k, p, rows: kpv.stage1_embedding(
        k.stage1, d.a[:3], None, d.z[:rows])),
}


class TestQueryRule:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", QUERY_CALLS)
    def test_nonfinite_query_rejected(self, fitted, call, bad):
        with pytest.raises(ValueError, match="non-finite"):
            QUERY_CALLS[call](*fitted, bad)

    @pytest.mark.parametrize("call", SHORT_X_CALLS)
    def test_zero_width_query_count_checked(self, fitted, call):
        with pytest.raises(ValueError, match="x query count differs from "
                                             "treatment count"):
            SHORT_X_CALLS[call](*fitted, np.empty((5, 0)))
        assert np.isfinite(SHORT_X_CALLS[call](*fitted,
                                               np.empty((3, 0)))).all()

    @pytest.mark.parametrize("call", SHORT_PROXY_CALLS)
    def test_proxy_query_count_checked(self, fitted, call):
        group, run = SHORT_PROXY_CALLS[call]
        with pytest.raises(ValueError, match=f"^{group} query count differs "
                                             f"from treatment count$"):
            run(*fitted, 2)
        assert np.isfinite(run(*fitted, 3)).all()
