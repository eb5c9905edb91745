"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions with plain Python loops and
math functions, deliberately avoiding the package's own code paths (and
numpy, where practical) so that agreement between the two is meaningful.
"""

import math
import unicodedata
from collections import Counter


def tokenize_reference(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip leading and trailing Unicode
    punctuation (categories P*) from each token one character at a time,
    and drop tokens left empty."""
    tokens = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            tokens.append(raw[start:end])
    return tokens


def pe_reference(pos: int, k: int, lam: int) -> float:
    """Scalar positional-encoding component."""
    angle = pos / (10000.0 ** (2.0 * k / lam))
    return math.sin(angle) if k % 2 == 0 else math.cos(angle)


def tau_reference(pos: int, lam: int) -> list[float]:
    return [pe_reference(pos, k, lam) for k in range(lam)]


def tfidf_reference(
    token: str, doc_tokens: list[str], all_docs: list[list[str]], unseen_df=None
) -> float:
    """``unseen_df`` is the df of a token that occurs in none of ``all_docs``
    (a rewrite candidate's new token)."""
    n = doc_tokens.count(token)
    if n == 0:
        return 0.0
    df = sum(1 for toks in all_docs if token in toks) or unseen_df
    return (n / len(doc_tokens)) * math.log(len(all_docs) / df)


def embed_reference(
    doc_tokens: list[str], all_docs: list[list[str]], lam: int, unseen_df=None
) -> list[float]:
    """Weighted positional sum divided by (token count - 1), scalar loops only."""
    vec = [0.0] * lam
    for j, token in enumerate(doc_tokens):
        w = tfidf_reference(token, doc_tokens, all_docs, unseen_df)
        for k in range(lam):
            vec[k] += w * pe_reference(j, k, lam)
    return [v / (len(doc_tokens) - 1) for v in vec]


def cosine(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def naive_shortcut_score(vector, opposite_vectors) -> float:
    """1 - mean pairwise cosine, straight from the definition."""
    total = sum(cosine(vector, other) for other in opposite_vectors)
    return 1.0 - total / len(opposite_vectors)


def naive_objective(vectors_by_class: dict) -> float:
    """Sum of cosines over all cross-class document pairs (every unordered
    class pair), as an explicit double loop."""
    labels = sorted(vectors_by_class)
    total = 0.0
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            for u in vectors_by_class[a]:
                for v in vectors_by_class[b]:
                    total += cosine(u, v)
    return total


def _ngrams(tokens, n):
    counts = Counter()
    for i in range(len(tokens) - n + 1):
        counts[tuple(tokens[i : i + n])] += 1
    return counts


def bleu_reference(candidates: list[str], references: list[str], max_n: int = 4) -> float:
    """Corpus BLEU via multiset intersections, 0-100 scale, no smoothing."""
    stats = Counter()
    for cand_text, ref_text in zip(candidates, references):
        cand = cand_text.split()
        ref = ref_text.split()
        for n in range(1, max_n + 1):
            cand_ngrams = _ngrams(cand, n)
            stats["guess", n] += sum(cand_ngrams.values())
            stats["match", n] += sum((cand_ngrams & _ngrams(ref, n)).values())
        stats["cand_len"] += len(cand)
        stats["ref_len"] += len(ref)

    if stats["guess", 1] == 0:
        return 0.0
    score = 1.0
    for n in range(1, max_n + 1):
        if stats["guess", n] == 0 or stats["match", n] == 0:
            return 0.0
        score *= stats["match", n] / stats["guess", n]
    score **= 1.0 / max_n
    if stats["cand_len"] < stats["ref_len"]:
        score *= math.exp(1.0 - stats["ref_len"] / stats["cand_len"])
    return 100.0 * score


def eager_replacement(candidates, original_score, verdict):
    """The replacement rule with every candidate verified first. Among the
    (text, score) pairs, score None for an unscoreable candidate, that
    ``verdict(text)`` accepts, the lowest score wins, ties to the smallest
    text, and only when it is strictly below ``original_score``. Returns
    (winning text or None to keep the original, verifier calls made)."""
    accepted = [(score, text) for text, score in candidates if verdict(text) and score is not None]
    if not accepted:
        return None, len(candidates)
    score, text = min(accepted)
    return (text if score < original_score else None), len(candidates)
