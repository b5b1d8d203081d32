"""RBF kernel derivation from gram matrices, plus export round trips."""

import json
import math

import numpy as np
import pytest

from mpgram.errors import DataError, DomainError
from mpgram.kernel import KernelMatrix, export_matrix, rbf_direct, rbf_from_gram
from mpgram.matrix import load_real_csv


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
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["sigma"] == k.sigma
        assert np.array_equal(np.array(doc["rows"]), k.entries)

    def test_csv_round_trip_close(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (4, 6))
        k = rbf_from_gram(gram_of(x), sigma=1.7)
        path = tmp_path / "k.csv"
        export_matrix(k, path)
        assert np.array_equal(load_real_csv(path), k.entries)  # %.17g round-trips doubles

    def test_json_schema_fields(self, tmp_path):
        k = rbf_from_gram(np.eye(2), sigma=1.0)
        path = tmp_path / "k.json"
        export_matrix(k, path, fmt="json")
        doc = json.loads(path.read_text())
        assert doc["n"] == 2
        assert doc["sigma"] == 1.0
        assert len(doc["rows"]) == 2

    @pytest.mark.parametrize("fmt, text", [
        ("csv", "1,0.10000000000000001,4.9406564584124654e-324\n"
                "0.10000000000000001,1,0.33333333333333331\n"
                "4.9406564584124654e-324,0.33333333333333331,1\n"),
        ("json", '{"n": 3, "sigma": 2.5, "rows": [[1.0, 0.1, 5e-324], '
                 '[0.1, 1.0, 0.3333333333333333], [5e-324, 0.3333333333333333, 1.0]]}'),
    ])
    def test_export_bytes_are_pinned(self, tmp_path, fmt, text):
        # CSV writes 17 significant digits, JSON the shortest repr; a subnormal stays one
        k = KernelMatrix(np.array([[1.0, 0.1, 5e-324], [0.1, 1.0, 1 / 3], [5e-324, 1 / 3, 1.0]]),
                         sigma=2.5)
        path = tmp_path / f"k.{fmt}"
        export_matrix(k, path, fmt=fmt)
        assert path.read_bytes() == text.encode()

    def test_json_export_of_underflowed_entries_is_strict_and_bitwise(self, tmp_path):
        # far samples under a small sigma give entries that underflow to 0.0 or a
        # subnormal; each is a JSON number that reads back as the same double
        x = np.array([[0.0, 1.0, 38.0, 40.0]])
        k = rbf_from_gram(gram_of(x), sigma=1.0)
        assert k.entries[0, 3] == 0.0 and 0.0 < k.entries[0, 2] < np.finfo(float).tiny
        path = tmp_path / "k.json"
        export_matrix(k, path, fmt="json")

        def reject(name):
            raise AssertionError(f"not strict JSON: {name}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert np.array_equal(np.array(doc["rows"]), k.entries)

    def test_csv_and_json_carry_the_same_entries(self, tmp_path):
        rng = np.random.default_rng(7)
        k = rbf_from_gram(gram_of(rng.uniform(-1, 1, (3, 5))), sigma=0.8)
        export_matrix(k, tmp_path / "k.csv")
        export_matrix(k, tmp_path / "k.json", fmt="json")
        rows = json.loads((tmp_path / "k.json").read_text())["rows"]
        assert np.array_equal(load_real_csv(tmp_path / "k.csv"), np.array(rows))

    def test_unknown_format(self, tmp_path):
        k = rbf_from_gram(np.eye(2), sigma=1.0)
        with pytest.raises(DataError):
            export_matrix(k, tmp_path / "k.xml", fmt="xml")
