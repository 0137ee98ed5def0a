"""Key-sentence justifications for a (unit, label) pair.

Every sentence of a unit, ordinary text and DataWords alike, is scored
with the label's weight vector; the top scorers are the justification.
The bias is excluded: it shifts all sentences equally and would only
obscure the ranking. DataWords sentences are reported with their natural
rendering so a reviewer sees "Temperature was very high [104.3]" rather
than the raw token.

A unit's sentences are scored in one product of their tf-idf matrix over
the bundle's ``features`` with its dense ``weights``, the product
``predict_units`` makes, kept for the unit's further labels
(``ModelBundle.sentence_scores``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    not know. The unit's scores are kept on the bundle, so scoring further
    labels of the same unit does not vectorize again.
    """
    j = bundle.column(label)
    return list(zip(unit.sentences, bundle.sentence_scores(unit)[:, j].tolist()))


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
