"""Fixed-length sparse tf-idf vectors over tokenized documents.

tf uses sublinear scaling (1 + ln count), idf the smoothed form
ln((1 + N) / (1 + df)) + 1, and vectors are L2-normalized by default.
Encoded structured-value tokens enter the vocabulary like any other word,
which is the whole point: one representation for text and data.

Two modes:

* indexed (default): vocabulary built from training documents, dimension
  equals vocabulary size;
* hashed: tokens map to 2**bits slots via multiplicative hashing with
  sign-less count accumulation, for corpora whose vocabulary would not
  fit in memory.

One pass, ``_tfidf_rows``, turns a list of texts into their tf-idf rows
as CSR arrays: each text is tokenized by itself, one sort groups and
counts every row's features, tf-idf is computed over the whole array, and
each row is scaled by the norm of its own slice. Training and prediction
make one pass over all of their units' texts, and explanation one per unit
over its sentences. ``vectorize_document`` is the one-row case, and
``stack_vectors`` stacks such rows into a matrix.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .corpus import tokenize
from .errors import ConfigError

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_KNUTH = 2654435761
# Distinct (token, bits) pairs whose slots are kept; the hash is pure.
_HASH_SLOT_CACHE = 1 << 16


@dataclass
class Vocabulary:
    """Token index assignments and document frequencies from training docs."""

    index: dict[str, int]
    df: dict[str, int]
    document_count: int

    def __len__(self) -> int:
        return len(self.index)

    def tokens_by_index(self) -> list[str]:
        return sorted(self.index, key=self.index.__getitem__)


def build_vocabulary(train_docs: Sequence[str], min_df: int = 1) -> Vocabulary:
    """Scan training documents; indices are assigned in first-seen order.

    min_df defaults to 1 so rare structured-value tokens are never
    silently dropped.
    """
    docs = list(train_docs)
    if not docs:
        raise ConfigError("cannot build a vocabulary from an empty training set")
    index: dict[str, int] = {}
    df: Counter = Counter()
    for doc in docs:
        seen = set()
        for tok in tokenize(doc):
            if tok not in index:
                index[tok] = len(index)
            seen.add(tok)
        df.update(seen)
    if min_df > 1:
        kept = [t for t in sorted(index, key=index.__getitem__) if df[t] >= min_df]
        index = {t: i for i, t in enumerate(kept)}
        df = Counter({t: df[t] for t in kept})
    return Vocabulary(index=index, df=dict(df), document_count=len(docs))


@functools.lru_cache(maxsize=_HASH_SLOT_CACHE)
def _hash_slot(token: str, bits: int) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return ((h * _KNUTH) & 0xFFFFFFFF) >> (32 - bits)


@dataclass
class TfIdfModel:
    """Frozen vectorization state: vocabulary (or hash setup) plus idf weights."""

    vocabulary: Vocabulary | None
    idf: np.ndarray
    l2_normalize: bool = True
    hash_bits: int | None = None
    document_count: int = 0
    hashed_df: dict[int, int] = field(default_factory=dict)

    @property
    def mode(self) -> str:
        return "hashed" if self.hash_bits is not None else "indexed"

    @property
    def dimension(self) -> int:
        if self.hash_bits is not None:
            return 1 << self.hash_bits
        return len(self.vocabulary)


def fit_idf(vocab: Vocabulary, l2_normalize: bool = True) -> TfIdfModel:
    """idf(t) = ln((1 + N) / (1 + df(t))) + 1; always finite and positive."""
    n = vocab.document_count
    idf = np.empty(len(vocab), dtype=np.float64)
    for tok, ix in vocab.index.items():
        idf[ix] = math.log((1.0 + n) / (1.0 + vocab.df[tok])) + 1.0
    return TfIdfModel(
        vocabulary=vocab, idf=idf, l2_normalize=l2_normalize, document_count=n
    )


def _hashed_idf(bits: int, n: int, df: Iterable[tuple[int, int]]) -> np.ndarray:
    """fit_idf's idf of each of the 2**bits hash slots, from (slot, document
    count) pairs over ``n`` documents, read once bits are in [1, 30]."""
    if not (1 <= bits <= 30):
        raise ConfigError(f"hash bits must be in [1, 30], got {bits}")
    dim = 1 << bits
    idf = np.full(dim, math.log(1.0 + n) + 1.0, dtype=np.float64)
    for slot, count in df:
        if not (0 <= slot < dim):
            raise ConfigError(f"hashed df slot {slot} outside [0, {dim})")
        idf[slot] = math.log((1.0 + n) / (1.0 + count)) + 1.0
    return idf


def fit_hashed_idf(
    train_docs: Sequence[str], bits: int, l2_normalize: bool = True
) -> TfIdfModel:
    """Hashed-mode counterpart of build_vocabulary + fit_idf."""
    docs = list(train_docs)
    if not docs:
        raise ConfigError("cannot fit a hashed model on an empty training set")
    df: Counter = Counter()

    def counted():  # hashes only after _hashed_idf has checked bits
        for doc in docs:
            df.update({_hash_slot(t, bits) for t in tokenize(doc)})
        yield from df.items()

    n = len(docs)
    return TfIdfModel(
        vocabulary=None,
        idf=_hashed_idf(bits, n, counted()),
        l2_normalize=l2_normalize,
        hash_bits=bits,
        document_count=n,
        hashed_df=dict(sorted(df.items())),
    )


@dataclass
class DocumentVector:
    """Sparse vector: strictly increasing indices, no stored zeros."""

    indices: np.ndarray
    values: np.ndarray
    dimension: int

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dimension, dtype=np.float64)
        dense[self.indices] = self.values
        return dense


def _tfidf_rows(
    model: TfIdfModel, texts: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tf-idf rows of ``texts`` as CSR arrays ``(indptr, indices, values)``:
    OOV tokens dropped, indices strictly increasing within a row, and an
    empty or all-OOV text an empty row."""
    if model.hash_bits is not None:
        bits = model.hash_bits
        per_text = ([_hash_slot(tok, bits) for tok in tokenize(text)] for text in texts)
    else:
        lookup = model.vocabulary.index.get
        per_text = ([ix for ix in map(lookup, tokenize(text)) if ix is not None] for text in texts)
    features: list[int] = []
    lengths: list[int] = []
    for row in per_text:
        features.extend(row)
        lengths.append(len(row))
    dim = model.dimension
    row_ids = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    keys, counts = np.unique(row_ids * dim + np.asarray(features, dtype=np.int64),
                             return_counts=True)
    key_rows, indices = np.divmod(keys, dim)
    indptr = np.searchsorted(key_rows, np.arange(len(lengths) + 1))
    values = (1.0 + np.log(counts.astype(np.float64))) * model.idf[indices]
    if model.l2_normalize:
        bounds = indptr.tolist()
        row_values = (values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
        # One BLAS dot per row, over the row's own slice, keeps each norm's
        # bits those of the text vectorized alone; a zero norm divides by 1.0.
        norms = [math.sqrt(float(np.dot(v, v))) or 1.0 for v in row_values]
        values /= np.array(norms)[key_rows]
    return indptr, indices, values


def vectorize_document(model: TfIdfModel, text: str) -> DocumentVector:
    """Map text to a sparse tf-idf vector; OOV tokens are ignored and
    empty or all-OOV text yields the zero vector."""
    _, indices, values = _tfidf_rows(model, [text])
    return DocumentVector(indices=indices, values=values, dimension=model.dimension)


def stack_vectors(vectors: Iterable[DocumentVector], dimension: int) -> sparse.csr_matrix:
    """Assemble row vectors into one CSR matrix."""
    vecs = list(vectors)
    indptr = np.cumsum([0] + [v.nnz for v in vecs], dtype=np.int64)
    indices = np.concatenate([np.empty(0, np.int64)] + [v.indices for v in vecs])
    data = np.concatenate([np.empty(0, np.float64)] + [v.values for v in vecs])
    return sparse.csr_matrix((data, indices, indptr), shape=(len(vecs), dimension))
