import json
import math
import re

import numpy as np
import pytest

from razor.attribution import (
    REASON_PREDICTION_CHANGED,
    REASON_PREDICTION_CORRECT,
    REASON_SUBSET_TOO_LARGE,
    attribution_mass,
    is_shortcut,
    mass_inequality_holds,
    load_attribution_records,
    make_record,
)
from razor.errors import DataError


def record_with(vectors, predicted_full=1, true_label=0, subsets=None):
    return make_record("doc", vectors, predicted_full, true_label, subsets)


class TestAttributionMass:
    def test_all_zero_vectors(self):
        rec = record_with([[0.0, 0.0]] * 4)
        assert attribution_mass({0, 1, 2}, rec) == 0.0

    def test_empty_subset(self):
        rec = record_with([[1.0, 2.0]] * 3)
        assert attribution_mass(set(), rec) == 0.0

    def test_singleton_is_vector_norm(self):
        rec = record_with([[3.0, 4.0], [1.0, 0.0]])
        assert attribution_mass({0}, rec) == pytest.approx(5.0, abs=1e-12)

    def test_vector_sum_norm(self):
        rec = record_with([[3.0, 0.0], [0.0, 4.0], [9.0, 9.0]])
        assert attribution_mass({0, 1}, rec) == pytest.approx(5.0, abs=1e-12)

    def test_out_of_range_position(self):
        rec = record_with([[1.0]] * 2)
        with pytest.raises(DataError):
            attribution_mass({5}, rec)

    def test_subadditive_on_disjoint_sets(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            m = int(rng.integers(2, 10))
            ell = int(rng.integers(1, 6))
            rec = record_with(rng.normal(size=(m, ell)).tolist())
            positions = list(range(m))
            rng.shuffle(positions)
            cut = int(rng.integers(1, m))
            a, b = set(positions[:cut]), set(positions[cut:])
            assert attribution_mass(a | b, rec) <= attribution_mass(a, rec) + attribution_mass(
                b, rec
            ) + 1e-9


class TestMassInequality:
    def test_dominant_aligned_subset(self):
        rec = record_with([[5.0, 0.0], [4.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.2, 0.0]])
        assert mass_inequality_holds({0, 1}, rec) is True

    def test_zero_subset_nonzero_complement(self):
        rec = record_with([[0.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
        assert mass_inequality_holds({0}, rec) is False

    def test_empty_complement_rejected(self):
        rec = record_with([[1.0], [2.0]])
        with pytest.raises(DataError):
            mass_inequality_holds({0, 1}, rec)

    def test_empty_subset_rejected(self):
        rec = record_with([[1.0], [2.0]])
        with pytest.raises(DataError):
            mass_inequality_holds(set(), rec)

    def test_constructed_instances_always_hold(self):
        # subsets built with aligned vectors whose per-token norms dominate
        # the complement's, alongside predictions satisfying the shortcut
        # conditions; the mean-mass inequality must then hold every time
        rng = np.random.default_rng(4242)
        for _ in range(300):
            rec, subset = build_shortcut_instance(rng)
            assert is_shortcut(subset, rec).is_shortcut
            assert mass_inequality_holds(subset, rec) is True


def build_shortcut_instance(rng):
    """Random attribution record engineered so the shortcut conditions hold
    and subset per-token norms dominate complement per-token norms."""
    m = int(rng.integers(3, 24))
    ell = int(rng.integers(1, 8))
    subset_size = int(rng.integers(1, m // 2 + 1))  # |subset| <= |complement|
    direction = rng.normal(size=ell)
    direction /= np.linalg.norm(direction)
    low = rng.uniform(0.0, 1.0, size=m)  # complement scales
    high = rng.uniform(1.0, 3.0, size=m)  # subset scales, never smaller
    positions = rng.permutation(m)
    subset = set(int(p) for p in positions[:subset_size])
    vectors = np.empty((m, ell))
    for j in range(m):
        scale = high[j] if j in subset else low[j]
        vectors[j] = scale * direction
    true_label = int(rng.integers(0, 2))
    predicted = 1 - true_label
    rec = make_record(
        "synthetic",
        vectors.tolist(),
        predicted_full=predicted,
        true_label=true_label,
        subset_predictions={frozenset(subset): predicted},
    )
    return rec, subset


class TestIsShortcut:
    def base(self, subsets):
        # 5 tokens; prediction 1 disagrees with truth 0
        return make_record("doc", [[1.0, 0.0]] * 5, 1, 0, subsets)

    def test_all_conditions_hold(self):
        rec = self.base({frozenset({0, 1}): 1})
        verdict = is_shortcut({0, 1}, rec)
        assert verdict.is_shortcut and verdict.reason is None

    def test_verdict_is_true_only_for_a_shortcut(self):
        rec = self.base({frozenset({0, 1}): 1, frozenset({0}): 0})
        assert bool(is_shortcut({0, 1}, rec)) is True
        assert bool(is_shortcut({0}, rec)) is False

    def test_subset_prediction_differs(self):
        rec = self.base({frozenset({0, 1}): 0})
        verdict = is_shortcut({0, 1}, rec)
        assert not verdict.is_shortcut
        assert verdict.reason == REASON_PREDICTION_CHANGED

    def test_prediction_agrees_with_truth(self):
        rec = make_record("doc", [[1.0]] * 5, 1, 1, {frozenset({0}): 1})
        verdict = is_shortcut({0}, rec)
        assert not verdict.is_shortcut
        assert verdict.reason == REASON_PREDICTION_CORRECT

    def test_subset_larger_than_complement(self):
        rec = self.base({frozenset({0, 1, 2}): 1})
        verdict = is_shortcut({0, 1, 2}, rec)
        assert not verdict.is_shortcut
        assert verdict.reason == REASON_SUBSET_TOO_LARGE

    def test_conditions_checked_in_order(self):
        # both condition one and condition three fail; the first wins
        rec = self.base({frozenset({0, 1, 2}): 0})
        assert is_shortcut({0, 1, 2}, rec).reason == REASON_PREDICTION_CHANGED

    def test_missing_subset_prediction(self):
        rec = self.base({})
        with pytest.raises(DataError, match="no recorded prediction"):
            is_shortcut({0}, rec)


NOT_POSITIONS = [0.9, True, np.float64(1.0)]


def not_a_position(value):
    return rf"record 'doc': position {re.escape(repr(value))} is not an integer"


class TestPositionsAreIntegers:
    """Library callers get the check the file readers make: a position is
    an integer, never a float or a bool that ``int()`` would quietly read."""

    def rec(self):
        return make_record("doc", [[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]], 1, 0, {frozenset({0}): 1})

    @pytest.mark.parametrize("value", NOT_POSITIONS)
    @pytest.mark.parametrize("check", [attribution_mass, mass_inequality_holds, is_shortcut])
    def test_library_calls_reject(self, check, value):
        with pytest.raises(DataError, match=not_a_position(value)):
            check({value}, self.rec())

    @pytest.mark.parametrize("value", NOT_POSITIONS)
    def test_subset_keys_reject(self, value):
        with pytest.raises(DataError, match=not_a_position(value)):
            make_record("doc", [[1.0]] * 3, 1, 0, {frozenset({value}): 1})

    def test_numpy_integers_are_positions(self):
        rec = make_record("doc", [[3.0, 4.0], [1.0, 0.0]], 1, 0, {frozenset({np.int64(0)}): 1})
        assert attribution_mass({np.int64(0)}, rec) == attribution_mass({0}, rec) == 5.0
        assert is_shortcut({np.int32(0)}, rec).is_shortcut


class TestFiniteAttributions:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(DataError, match=r"'doc'.*\battributions\b"):
            record_with([[value, 1.0], [0.5, 0.5]])


class TestLoadRecords:
    def write(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_round_trip_fields(self, tmp_path):
        path = tmp_path / "attr.jsonl"
        self.write(
            path,
            [
                {
                    "doc_id": "d1",
                    "attributions": [[1.0, 2.0], [0.5, 0.5], [0.0, 1.0]],
                    "predicted_full": 1,
                    "true_label": 0,
                    "subsets": [{"positions": [0], "predicted": 1}],
                }
            ],
        )
        records = load_attribution_records(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.doc_id == "d1"
        assert rec.n_tokens == 3
        assert rec.subset_predictions == {frozenset({0}): 1}
        assert attribution_mass({0}, rec) == pytest.approx(math.sqrt(5.0))

    def test_integer_doc_id_read_as_decimal_string(self, tmp_path):
        path = tmp_path / "attr.jsonl"
        row = {"doc_id": 42, "attributions": [[1.0], [2.0]], "predicted_full": 1, "true_label": 0}
        self.write(path, [row])
        assert load_attribution_records(path)[0].doc_id == "42"

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "attr.jsonl"
        self.write(
            path,
            [
                {
                    "doc_id": "d1",
                    "attributions": [[1.0, 2.0], [0.5]],
                    "predicted_full": 1,
                    "true_label": 0,
                }
            ],
        )
        with pytest.raises(DataError, match="dimension"):
            load_attribution_records(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "attr.jsonl"
        self.write(path, [{"doc_id": "d1", "attributions": [[1.0]]}])
        with pytest.raises(DataError, match="line 1"):
            load_attribution_records(path)

    def test_subset_position_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "attr.jsonl"
        self.write(
            path,
            [
                {
                    "doc_id": "d1",
                    "attributions": [[1.0], [2.0]],
                    "predicted_full": 1,
                    "true_label": 0,
                    "subsets": [{"positions": [7], "predicted": 1}],
                }
            ],
        )
        with pytest.raises(DataError, match="out of range"):
            load_attribution_records(path)
