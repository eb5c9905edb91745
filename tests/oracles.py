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


def bleu_scalar(candidate_corpus, reference_corpus, max_n: int = 4) -> float:
    """Corpus BLEU counted one pair and one order at a time with a Counter of
    tuple slices, ending in the package's own float steps (log-sum, brevity
    penalty, 0-100 scale), so the package must equal it bit for bit."""
    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand_text, ref_text in zip(candidate_corpus, reference_corpus):
        cand = cand_text.split()
        ref = ref_text.split()
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            cand_ngrams = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
            ref_ngrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            totals[n - 1] += sum(cand_ngrams.values())
            matches[n - 1] += sum(
                min(count, ref_ngrams.get(gram, 0)) for gram, count in cand_ngrams.items()
            )

    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for match, total in zip(matches, totals):
        if match == 0 or total == 0:
            return 0.0
        log_sum += math.log(match / total) / max_n
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum)


def term_report_reference(docs, labels, term: str) -> tuple[dict, dict, dict]:
    """A term's report numbers, one document at a time: per label of
    ``labels``, the occurrences of tokens whose casefolded form is the
    term's, the documents holding one, and the documents. ``docs`` is a list
    of (text, label); a text is tokenized with :func:`tokenize_reference`."""
    folded = term.casefold()
    occurrences = dict.fromkeys(labels, 0)
    holding = dict.fromkeys(labels, 0)
    documents = dict.fromkeys(labels, 0)
    for text, label in docs:
        found = [tok for tok in tokenize_reference(text) if tok.casefold() == folded]
        occurrences[label] += len(found)
        holding[label] += 1 if found else 0
        documents[label] += 1
    return occurrences, holding, documents


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
