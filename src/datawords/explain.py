"""Key-sentence justifications for a (unit, label) pair.

Every sentence of a unit, ordinary text and DataWords alike, is scored
with the label's weight vector; the top scorers are the justification.
The bias is excluded: it shifts all sentences equally and would only
obscure the ranking. DataWords sentences are reported with their natural
rendering so a reviewer sees "Temperature was very high [104.3]" rather
than the raw token.

A unit's sentences are vectorized in one pass, however many of its
predicted labels are explained: the bundle keeps the last unit's sentence
rows, one CSR block as the vectorizer returns it. Per label, the block's
own feature indices are looked up once, with one ``searchsorted``, in the
label's column of the bundle's weight matrix, the one that classifies,
which gathers a weight for every entry of the block; the column is never
expanded to a dense vector of the full dimension. A sentence's score is
then the dot product of its slice of values and its slice of weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Sentence
from .model import AugmentedUnit, ModelBundle

JUSTIFICATION_FILTERS = ("all", "text_only", "datawords_only")


@dataclass(frozen=True)
class Justification:
    """One ranked supporting sentence for a prediction."""

    sentence: Sentence
    score: float
    rank: int
    rendering: str


def score_sentences(
    bundle: ModelBundle,
    label: str,
    unit: AugmentedUnit,
) -> list[tuple[Sentence, float]]:
    """Score each of the unit's sentences with the label's weights (bias
    excluded).

    All sentences are returned, including zero-score out-of-vocabulary
    ones, in document order. Raises KeyError for a label the bundle does
    not know. The unit's sentence vectors are kept on the bundle, so
    scoring further labels of the same unit does not vectorize again.
    """
    j = bundle.column(label)
    indptr, features, values = bundle.sentence_vectors(unit)
    W = bundle.weights
    lo, hi = W.indptr[j], W.indptr[j + 1]
    indices = W.indices[lo:hi]
    # the column's weight at each entry of the block, 0.0 where it has none
    pos = np.searchsorted(indices, features)
    hit = pos < indices.size
    hit[hit] = indices[pos[hit]] == features[hit]
    weights = np.zeros(features.size, dtype=np.float64)
    weights[hit] = W.data[lo:hi][pos[hit]]
    # one dot per sentence slice keeps each score's bits those of the
    # sentence scored alone
    ptr = indptr.tolist()
    return [
        (sent, float(np.dot(values[a:b], weights[a:b])) if b > a else 0.0)
        for sent, a, b in zip(unit.sentences, ptr[:-1], ptr[1:])
    ]


def top_justifications(
    scored: Sequence[tuple[Sentence, float]],
    k: int = 3,
    sentence_filter: str = "all",
) -> list[Justification]:
    """Best k sentences after filtering by kind.

    Sorting is total: score descending, then (doc_index, sent_index)
    ascending, so shuffling the input never changes the output. Fewer than
    k survivors simply yield a shorter list; k below 1 raises ValueError.
    """
    if k < 1:
        raise ValueError(f"justification count must be at least 1, got {k}")
    if sentence_filter not in JUSTIFICATION_FILTERS:
        raise ValueError(f"unknown justification filter: {sentence_filter!r}")
    if sentence_filter == "text_only":
        pool = [(s, sc) for s, sc in scored if s.kind == "text"]
    elif sentence_filter == "datawords_only":
        pool = [(s, sc) for s, sc in scored if s.kind == "dataword"]
    else:
        pool = list(scored)
    pool.sort(key=lambda pair: (-pair[1], pair[0].doc_index, pair[0].sent_index))
    out = []
    for rank, (sent, score) in enumerate(pool[:k], start=1):
        rendering = sent.display if sent.display is not None else sent.text
        out.append(Justification(sentence=sent, score=float(score), rank=rank, rendering=rendering))
    return out
