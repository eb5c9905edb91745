import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from razor.corpus import Dataset, make_document


def doc(doc_id, text, label, context=None):
    return make_document(doc_id, text, label, context_text=context)


def dataset_from(rows, label_names=None, schema="single"):
    """rows: list of (id, text, label) or (id, text, label, context)."""
    documents = tuple(doc(*row) for row in rows)
    if label_names is None:
        label_names = {d.label: f"label{d.label}" for d in documents}
    return Dataset(documents, label_names, schema)


def doc_frequency(table):
    """Token -> document frequency, for the tokens the table's snapshot holds."""
    df = table.df.tolist()
    return {token: df[i] for token, i in table.vocab.items() if df[i]}


@pytest.fixture
def tiny_binary():
    """Two docs per class, mixed vocabulary."""
    return dataset_from(
        [
            ("a1", "the cat sat on the mat", 0),
            ("a2", "a dog slept near the door", 0),
            ("b1", "the cat did not sit anywhere", 1),
            ("b2", "no dog was seen near the gate", 1),
        ]
    )
