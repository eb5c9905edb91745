import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from razor.corpus import Dataset, make_document
from razor.errors import BackendError
from razor.surface import DEFAULT_LAMBDA, ClassLedger, embedding_rows, shortcut_scores


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


def embedding_matrix(dataset, stats=None, lam=DEFAULT_LAMBDA):
    """The (n, lam) embeddings of ``dataset``, stacked from the block walk's
    rows; a document too short to embed keeps a zero row."""
    vectors = np.zeros((len(dataset), lam))
    for rows, block in embedding_rows(dataset, stats, lam):
        vectors[rows] = block
    return vectors


def scores_by_id(space, ledger=None):
    """``shortcut_scores``' ranked rows and scores as {id: score}, in ranked
    order; ``ledger`` defaults to the space's own."""
    rows, scores = shortcut_scores(space, ClassLedger(space) if ledger is None else ledger)
    return {space.ids[i]: score for i, score in zip(rows.tolist(), scores.tolist())}


class Recording:
    """A backend wrapper recording each generate and verify request as
    (role, doc id), in call order, in ``entries``. ``calls`` is the wrapped
    backend's own log."""

    def __init__(self, backend):
        self.backend = backend
        self.calls = backend.calls
        self.entries = []

    def generate(self, prompt, doc, *args, **kwargs):
        self.entries.append(("generate", doc.id))
        return self.backend.generate(prompt, doc, *args, **kwargs)

    def verify(self, prompt, candidate, doc, *args):
        self.entries.append(("verify", doc.id))
        return self.backend.verify(prompt, candidate, doc, *args)


class FailOnVerify:
    """Wraps a backend: its ``n``-th request of ``role`` (1-based) raises
    BackendError instead of reaching the backend. Requests are counted under
    a lock, so exactly one fails under parallel workers too."""

    role = "verify"

    def __init__(self, backend, n: int):
        self.backend, self.n, self.calls = backend, n, backend.calls
        self._requests = Counter()
        self._lock = threading.Lock()

    def _reach(self, role: str):
        with self._lock:
            self._requests[role] += 1
            failing = role == self.role and self._requests[role] == self.n
        if failing:
            raise BackendError(f"injected failure at {role} call {self.n}")
        return getattr(self.backend, role)

    def generate(self, *args, **kwargs):
        return self._reach("generate")(*args, **kwargs)

    def verify(self, *args):
        return self._reach("verify")(*args)


class FailOnGenerate(FailOnVerify):
    role = "generate"


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
