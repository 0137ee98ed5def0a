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

One pass turns a list of texts into their CSR tf-idf matrix, the one
every consumer reads: one loop tokenizes each text by itself and maps
each token to its feature id, one sort groups and counts every row's
features, tf-idf is computed over the whole array, and each row is scaled
by the norm of its own slice. ``_tfidf_rows`` makes this pass with a
fitted model. Fitting makes it too: the loop gives each new token the next
vocabulary index (or its hash slot), the document frequencies are counted
from the grouped pairs, and ``_fit_tfidf`` weighs the same pairs, so
training tokenizes each text once. ``build_vocabulary`` and
``fit_hashed_idf`` are the fitting half. Training and prediction make one
pass over all of their units' texts, and explanation one per unit over its
sentences. ``vectorize_document`` reads the one-row case, and
``stack_vectors`` stacks such rows into a matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
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
    return _fit_indexed(list(train_docs), min_df)[0]


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


def _hash_dim(bits: int) -> int:
    """2**bits, once bits are in [1, 30]."""
    if not (1 <= bits <= 30):
        raise ConfigError(f"hash bits must be in [1, 30], got {bits}")
    return 1 << bits


def _hashed_idf(bits: int, n: int, df: Iterable[tuple[int, int]]) -> np.ndarray:
    """fit_idf's idf of each of the 2**bits hash slots, from (slot, document
    count) pairs over ``n`` documents."""
    dim = _hash_dim(bits)
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
    return _fit_hashed(list(train_docs), bits, l2_normalize)[0]


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


class _FirstSeen(dict):
    """Token -> index, a token new to it taking the next index."""

    def __missing__(self, token: str) -> int:
        self[token] = index = len(self)
        return index


def _hashed_ids(bits: int):
    """``_token_ids``' map of a text's tokens to their hash slots."""
    same_bits = repeat(bits)
    return lambda tokens: map(_hash_slot, tokens, same_bits)


def _token_ids(texts: Iterable[str], ids) -> tuple[int, np.ndarray, np.ndarray]:
    """The one loop that tokenizes: ``ids`` maps each text's tokens to their
    feature ids, leaving out a token without one. Returns the number of
    texts, then each id's row and the id, as int64 arrays in text and
    token order."""
    features: list[int] = []
    lengths: list[int] = []
    for text in texts:
        start = len(features)
        features.extend(ids(tokenize(text)))
        lengths.append(len(features) - start)
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    return len(lengths), rows, np.asarray(features, dtype=np.int64)


def _count(rows: np.ndarray, features: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """The distinct (row, feature) pairs, sorted, from one sort: each pair's
    row, its feature and how often it occurs."""
    keys, counts = np.unique(rows * dim + features, return_counts=True)
    return *np.divmod(keys, dim), counts


def _weigh(
    model: TfIdfModel, n: int, key_rows: np.ndarray, indices: np.ndarray, counts: np.ndarray
) -> sparse.csr_matrix:
    """The CSR matrix of ``n`` rows from their counted (row, feature) pairs:
    tf-idf over the whole array, then each row scaled by the norm of its
    own slice."""
    indptr = np.searchsorted(key_rows, np.arange(n + 1))
    values = (1.0 + np.log(counts.astype(np.float64))) * model.idf[indices]
    if model.l2_normalize:
        bounds = indptr.tolist()
        row_values = (values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
        # One BLAS dot per row, over the row's own slice, keeps each norm's
        # bits those of the text vectorized alone; a zero norm divides by 1.0.
        norms = [math.sqrt(float(np.dot(v, v))) or 1.0 for v in row_values]
        values /= np.array(norms)[key_rows]
    return sparse.csr_matrix((values, indices, indptr), shape=(n, model.dimension))


def _tfidf_rows(model: TfIdfModel, texts: Sequence[str]) -> sparse.csr_matrix:
    """The (texts x dimension) tf-idf matrix of ``texts``: OOV tokens
    dropped, indices strictly increasing within a row, and an empty or
    all-OOV text an empty row."""
    if model.hash_bits is not None:
        ids = _hashed_ids(model.hash_bits)
    else:
        get = model.vocabulary.index.get

        def ids(tokens):
            return [ix for ix in map(get, tokens) if ix is not None]

    n, rows, features = _token_ids(texts, ids)
    return _weigh(model, n, *_count(rows, features, model.dimension))


def _fit_indexed(docs: list[str], min_df: int) -> tuple[Vocabulary, tuple[np.ndarray, ...]]:
    """build_vocabulary's vocabulary of ``docs``, and the docs' counted
    (row, feature) pairs under it."""
    if not docs:
        raise ConfigError("cannot build a vocabulary from an empty training set")
    index = _FirstSeen()
    _, rows, features = _token_ids(docs, lambda tokens: map(index.__getitem__, tokens))
    key_rows, indices, counts = _count(rows, features, len(index))
    df = np.bincount(indices, minlength=len(index))
    tokens = list(index)
    if min_df > 1:  # drop the rarer tokens and renumber the rest in order
        kept = df >= min_df
        tokens = [t for t, keep in zip(tokens, kept.tolist()) if keep]
        df = df[kept]
        pair_kept = kept[indices]
        indices = (np.cumsum(kept) - 1)[indices[pair_kept]]
        key_rows, counts = key_rows[pair_kept], counts[pair_kept]
    vocab = Vocabulary(
        index={t: i for i, t in enumerate(tokens)},
        df=dict(zip(tokens, df.tolist())),
        document_count=len(docs),
    )
    return vocab, (key_rows, indices, counts)


def _fit_hashed(
    docs: list[str], bits: int, l2_normalize: bool
) -> tuple[TfIdfModel, tuple[np.ndarray, ...]]:
    """fit_hashed_idf's model of ``docs``, and the docs' counted (row,
    feature) pairs under it."""
    if not docs:
        raise ConfigError("cannot fit a hashed model on an empty training set")
    dim = _hash_dim(bits)  # checked before any token is hashed
    _, rows, features = _token_ids(docs, _hashed_ids(bits))
    pairs = _count(rows, features, dim)
    slots, df = np.unique(pairs[1], return_counts=True)
    hashed_df = dict(zip(slots.tolist(), df.tolist()))
    model = TfIdfModel(
        vocabulary=None,
        idf=_hashed_idf(bits, len(docs), hashed_df.items()),
        l2_normalize=l2_normalize,
        hash_bits=bits,
        document_count=len(docs),
        hashed_df=hashed_df,
    )
    return model, pairs


def _fit_tfidf(
    texts: Sequence[str], hash_bits: int | None, min_df: int, l2_normalize: bool
) -> tuple[TfIdfModel, sparse.csr_matrix]:
    """A tf-idf model fit on ``texts`` and the texts' matrix under it: what
    ``build_vocabulary`` (or ``fit_hashed_idf``), ``fit_idf`` and
    ``_tfidf_rows`` give, from one tokenization of each text."""
    docs = list(texts)
    if hash_bits is None:
        vocab, pairs = _fit_indexed(docs, min_df)
        model = fit_idf(vocab, l2_normalize)
    else:
        model, pairs = _fit_hashed(docs, hash_bits, l2_normalize)
    return model, _weigh(model, len(docs), *pairs)


def vectorize_document(model: TfIdfModel, text: str) -> DocumentVector:
    """Map text to a sparse tf-idf vector; OOV tokens are ignored and
    empty or all-OOV text yields the zero vector."""
    row = _tfidf_rows(model, [text])
    return DocumentVector(indices=row.indices.astype(np.int64), values=row.data,
                          dimension=model.dimension)


def stack_vectors(vectors: Iterable[DocumentVector], dimension: int) -> sparse.csr_matrix:
    """Assemble row vectors into one CSR matrix."""
    vecs = list(vectors)
    indptr = np.cumsum([0] + [v.nnz for v in vecs], dtype=np.int64)
    indices = np.concatenate([np.empty(0, np.int64)] + [v.indices for v in vecs])
    data = np.concatenate([np.empty(0, np.float64)] + [v.values for v in vecs])
    return sparse.csr_matrix((data, indices, indptr), shape=(len(vecs), dimension))
