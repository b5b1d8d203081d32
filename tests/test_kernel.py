"""RBF kernel derivation from gram matrices, plus export round trips."""

import json
import math

import numpy as np
import pytest

from mpgram.errors import DataError, DomainError
from mpgram.kernel import export_matrix, import_matrix, rbf_direct, rbf_from_gram


def gram_of(samples: np.ndarray) -> np.ndarray:
    return samples.T @ samples


class TestRbf:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, (5, 8))
        k = rbf_from_gram(gram_of(x), sigma=1.3)
        assert np.all(np.diag(k.entries) == 1.0)

    def test_orthonormal_pair(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = rbf_from_gram(gram_of(x), sigma=1.0)
        assert k.entries[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_matches_direct_distance_formula(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (6, 20))
        k = rbf_from_gram(gram_of(x), sigma=0.9)
        assert np.max(np.abs(k.entries - rbf_direct(x, 0.9))) <= 1e-12

    def test_entries_in_unit_interval_and_symmetric(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-3, 3, (4, 15))
        k = rbf_from_gram(gram_of(x), sigma=2.0)
        assert np.all(k.entries > 0.0)
        assert np.all(k.entries <= 1.0)
        assert np.array_equal(k.entries, k.entries.T)

    def test_sigma_must_be_positive(self):
        with pytest.raises(DomainError):
            rbf_from_gram(np.eye(3), sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(DomainError, match="sigma must be positive"):
            rbf_from_gram(np.eye(3), sigma=sigma)

    def test_asymmetric_gram_rejected(self):
        g = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DataError, match="symmetric"):
            rbf_from_gram(g, sigma=1.0)

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (5, 10))
        g = gram_of(x)
        k1 = rbf_from_gram(g, sigma=0.5).entries
        k2 = rbf_from_gram(g, sigma=1.0).entries
        off = ~np.eye(10, dtype=bool)
        assert np.all(k2[off] > k1[off])


class TestExport:
    def test_single_entry_csv(self, tmp_path):
        k = rbf_from_gram(np.array([[4.0]]), sigma=1.0)
        path = tmp_path / "k.csv"
        export_matrix(k, path)
        assert path.read_text().strip() == "1"

    def test_csv_row_count(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (3, 7))
        k = rbf_from_gram(gram_of(x), sigma=1.0)
        path = tmp_path / "k.csv"
        export_matrix(k, path)
        assert len(path.read_text().strip().splitlines()) == 7

    def test_json_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (4, 6))
        k = rbf_from_gram(gram_of(x), sigma=1.7)
        path = tmp_path / "k.json"
        export_matrix(k, path, fmt="json")
        back = import_matrix(path, fmt="json")
        assert back.sigma == k.sigma
        assert np.array_equal(back.entries, k.entries)

    def test_csv_round_trip_close(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (4, 6))
        k = rbf_from_gram(gram_of(x), sigma=1.7)
        path = tmp_path / "k.csv"
        export_matrix(k, path)
        back = import_matrix(path, fmt="csv")
        assert np.array_equal(back.entries, k.entries)  # %.17g round-trips doubles

    def test_json_schema_fields(self, tmp_path):
        k = rbf_from_gram(np.eye(2), sigma=1.0)
        path = tmp_path / "k.json"
        export_matrix(k, path, fmt="json")
        doc = json.loads(path.read_text())
        assert doc["n"] == 2
        assert doc["sigma"] == 1.0
        assert len(doc["rows"]) == 2

    def test_csv_kernel_exports_strict_json(self, tmp_path):
        # CSV carries no sigma; JSON (RFC 8259) has no NaN, so it goes as null
        k = rbf_from_gram(np.array([[2.0, 1.0], [1.0, 3.0]]), sigma=1.0)
        export_matrix(k, tmp_path / "k.csv")
        export_matrix(import_matrix(tmp_path / "k.csv"), tmp_path / "k.json", fmt="json")

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        with open(tmp_path / "k.json") as fh:
            doc = json.load(fh, parse_constant=no_constant)
        assert doc["sigma"] is None
        back = import_matrix(tmp_path / "k.json", fmt="json")
        assert np.array_equal(back.entries, k.entries)
        assert math.isnan(back.sigma)

    def test_csv_that_is_not_text_raises_data_error(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_bytes(b"1,2\n\xff\xfe,3\n")
        with pytest.raises(DataError, match="^could not convert string .* at line 2, column 1.$"):
            import_matrix(path)

    def test_unknown_format(self, tmp_path):
        k = rbf_from_gram(np.eye(2), sigma=1.0)
        with pytest.raises(DataError):
            export_matrix(k, tmp_path / "k.xml", fmt="xml")

    ROWS_MESSAGE = "^JSON kernel file's rows are not rectangular lists of numbers$"
    SIGMA_MESSAGE = "^JSON kernel file's sigma is not a number or null: "

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"sigma": 1.0, "rows": [[1.0]]}\xff', "^not a JSON kernel file: 'utf-8' codec"),
            (b"1,2\n3,4\n", "^not a JSON kernel file: Extra data"),
            (b'{"rows": [[1.0]]}', "^JSON kernel file has no 'sigma'$"),
            (b'{"sigma": 1.0}', "^JSON kernel file has no 'rows'$"),
            (b"[[1.0]]", "^JSON kernel file has no 'sigma' or 'rows'$"),
            (b'{"sigma": 1.0, "rows": [[1.0, 2.0], [3.0]]}', ROWS_MESSAGE),
            (b'{"sigma": 1.0, "rows": [["a"]]}', ROWS_MESSAGE),
            (b'{"sigma": 1.0, "rows": 5}', ROWS_MESSAGE),
            (b'{"sigma": 1.0, "rows": []}', ROWS_MESSAGE),
            (b'{"sigma": 1.0, "rows": [1.0]}', ROWS_MESSAGE),
            (b'{"sigma": 1.0, "rows": [[true]]}', ROWS_MESSAGE),
            (b'{"sigma": "x", "rows": [[1.0]]}', SIGMA_MESSAGE + "'x'$"),
            (b'{"sigma": true, "rows": [[1.0]]}', SIGMA_MESSAGE + "True$"),
        ],
        ids=["not-utf8", "not-json", "no-sigma", "no-rows", "not-an-object", "ragged-rows",
             "string-entry", "number-rows", "empty-rows", "flat-rows", "bool-entry",
             "string-sigma", "bool-sigma"],
    )
    def test_bad_json_kernel_raises_data_error(self, tmp_path, content, message):
        path = tmp_path / "k.json"
        path.write_bytes(content)
        with pytest.raises(DataError, match=message):
            import_matrix(path, fmt="json")

    def test_missing_json_kernel_raises_data_error(self, tmp_path):
        with pytest.raises(DataError, match="^No such file or directory$"):
            import_matrix(tmp_path / "absent.json", fmt="json")
