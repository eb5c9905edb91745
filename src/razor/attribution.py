"""Formal shortcut checking over externally supplied per-token attributions.

A token subset is flagged as a shortcut when (1) the classifier's prediction
on the subset alone matches its prediction on the full document, (2) that
prediction disagrees with the ground truth, and (3) the subset is no larger
than its complement. The attribution-mass inequality compares the mean mass
of the subset against its complement.

Predictions and attribution vectors are inputs, never computed here, so the
checker works with any upstream attribution method.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Optional

import numpy as np

from .corpus import is_json_int, is_json_number, json_id, read_json_lines
from .errors import DataError

REASON_PREDICTION_CHANGED = "prediction-changed"
REASON_PREDICTION_CORRECT = "prediction-correct"
REASON_SUBSET_TOO_LARGE = "subset-too-large"


@dataclass(frozen=True, eq=False)
class AttributionRecord:
    """Per-token attribution vectors and recorded predictions for one document.

    ``subset_predictions`` maps each named token subset (a frozenset of
    0-based positions) to the class predicted from that subset alone.
    """

    doc_id: str
    token_attributions: np.ndarray  # shape (m, ell)
    predicted_full: int
    true_label: int
    subset_predictions: Mapping[frozenset[int], int]

    @property
    def n_tokens(self) -> int:
        return int(self.token_attributions.shape[0])


def make_record(
    doc_id: str,
    token_attributions,
    predicted_full: int,
    true_label: int,
    subset_predictions: Optional[Mapping[frozenset[int], int]] = None,
) -> AttributionRecord:
    try:
        arr = np.asarray(token_attributions, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(
            f"record {doc_id!r}: attribution vectors must be numbers sharing one dimension"
        ) from None
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(
            f"record {doc_id!r}: attributions must be a non-empty matrix of "
            f"per-token vectors sharing one dimension"
        )
    if not np.isfinite(arr).all():
        raise DataError(f"record {doc_id!r}: attributions must be finite numbers")
    preds = {
        _check_positions(subset, arr.shape[0], doc_id): predicted
        for subset, predicted in (subset_predictions or {}).items()
    }
    return AttributionRecord(doc_id, arr, int(predicted_full), int(true_label), preds)


def json_positions(value) -> frozenset[int]:
    """Token positions read from JSON: a list of integers, as a set. Raises
    DataError for any other value (``0.9`` and ``true`` are not positions)."""
    if isinstance(value, list) and all(map(is_json_int, value)):
        return frozenset(value)
    raise DataError(f"positions {value!r} are not a list of integers")


def _check_positions(subset: Iterable[int], n_tokens: int, doc_id: str) -> frozenset[int]:
    """``subset`` as a set of positions in range, each an integer as
    ``operator.index`` reads one (``0.9`` and ``True`` are not positions)."""
    positions = frozenset(_position(p, doc_id) for p in subset)
    for p in positions:
        if p < 0 or p >= n_tokens:
            raise DataError(
                f"record {doc_id!r}: position {p} out of range for {n_tokens} tokens"
            )
    return positions


def _position(value, doc_id: str) -> int:
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DataError(f"record {doc_id!r}: position {value!r} is not an integer")


def attribution_mass(subset: Iterable[int], record: AttributionRecord) -> float:
    """L2 norm of the summed attribution vectors of ``subset``; 0 for the empty set."""
    positions = _check_positions(subset, record.n_tokens, record.doc_id)
    if not positions:
        return 0.0
    total = record.token_attributions[sorted(positions)].sum(axis=0)
    return float(np.linalg.norm(total))


def mass_inequality_holds(subset: Iterable[int], record: AttributionRecord) -> bool:
    """True when the subset's mean attribution mass is at least the complement's."""
    positions = _check_positions(subset, record.n_tokens, record.doc_id)
    if not positions:
        raise DataError(f"record {record.doc_id!r}: subset must be non-empty")
    complement = frozenset(range(record.n_tokens)) - positions
    if not complement:
        raise DataError(
            f"record {record.doc_id!r}: subset covers all tokens; complement is empty"
        )
    return attribution_mass(positions, record) / len(positions) >= attribution_mass(
        complement, record
    ) / len(complement)


@dataclass(frozen=True)
class ShortcutVerdict:
    is_shortcut: bool
    reason: Optional[str] = None  # first failing condition, None when shortcut

    def __bool__(self) -> bool:
        return self.is_shortcut


def is_shortcut(subset: Iterable[int], record: AttributionRecord) -> ShortcutVerdict:
    """Check the three shortcut conditions in order; report the first failure.

    Reasons: ``prediction-changed`` (subset prediction differs from the full
    one), ``prediction-correct`` (full prediction agrees with ground truth,
    so nothing is being shortcut), ``subset-too-large`` (subset exceeds its
    complement).
    """
    positions = _check_positions(subset, record.n_tokens, record.doc_id)
    if positions not in record.subset_predictions:
        raise DataError(
            f"record {record.doc_id!r}: no recorded prediction for subset "
            f"{sorted(positions)}"
        )
    if record.subset_predictions[positions] != record.predicted_full:
        return ShortcutVerdict(False, REASON_PREDICTION_CHANGED)
    if record.predicted_full == record.true_label:
        return ShortcutVerdict(False, REASON_PREDICTION_CORRECT)
    if len(positions) > record.n_tokens - len(positions):
        return ShortcutVerdict(False, REASON_SUBSET_TOO_LARGE)
    return ShortcutVerdict(True, None)


def load_attribution_records(path: str | Path) -> list[AttributionRecord]:
    """Read JSONL attribution records:
    {"doc_id", "attributions": [[...], ...], "predicted_full": int,
     "true_label": int, "subsets": [{"positions": [...], "predicted": int}, ...]}
    Attribution values must be finite JSON numbers. The file is read by
    :func:`read_json_lines`, so a bad record is a DataError naming the file
    and the line.
    """

    def parse(row: dict) -> AttributionRecord:
        try:
            doc_id = json_id(row["doc_id"], "doc_id")
            attributions = row["attributions"]
            predicted_full, true_label = row["predicted_full"], row["true_label"]
        except KeyError as exc:
            raise DataError(f"bad record ({exc})") from None
        for name, value in (("predicted_full", predicted_full), ("true_label", true_label)):
            if not is_json_int(value):
                raise DataError(f"{name} {value!r} is not an integer")
        entries = row.get("subsets", [])
        if not isinstance(entries, list):
            raise DataError("subsets must be a list")
        subsets: dict[frozenset[int], int] = {}
        for entry in entries:
            try:
                positions = json_positions(entry["positions"])
                predicted = entry["predicted"]
            except (KeyError, TypeError) as exc:
                raise DataError(f"bad subset entry ({exc})") from None
            if not is_json_int(predicted):
                raise DataError(f"subset predicted {predicted!r} is not an integer")
            subsets[positions] = predicted
        record = make_record(doc_id, attributions, predicted_full, true_label, subsets)
        # numpy reads true and "1" as numbers; make_record has checked the nesting
        if not all(map(is_json_number, chain.from_iterable(attributions))):
            raise DataError(f"record {doc_id!r}: attributions must be finite numbers")
        return record

    with open(path, "rb") as fh:
        return read_json_lines(path, fh, parse)
