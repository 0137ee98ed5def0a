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
  fit in memory. Each width keeps a dict of the slots it has worked out
  (``_slot_map``).

One pass turns a sequence of token lists, one per text, into their CSR
tf-idf matrix, the one every consumer reads: one loop maps each list's
tokens to their feature ids, one sort groups and counts every row's
features, tf-idf is computed over the whole array, and each row is scaled
by the norm of its own slice. The token lists are read as they come, so a
caller can stream them and no list outlives the pass. ``_tfidf_rows``
makes this pass with a fitted model. ``_fit`` makes it to fit a model of
either mode: the loop gives each new token the next vocabulary index (or
its hash slot), the document frequencies are counted from the grouped
pairs, and ``_fit_tfidf`` weighs the same pairs, so training reads each
text's tokens once. The callers tokenize: training and prediction read
each unit's tokens (``model._unit_tokens``), which are the document's
tokens and its DataWords' tokens lowercased, with no text joined and
split again; explanation reads the tokens of each of a unit's sentences.
``build_vocabulary``, ``fit_hashed_idf`` and ``vectorize_document`` take
texts and tokenize them first. Prediction and explanation pass the
bundle's sorted ``features``, the ones it holds a weight row for: an
entry of another feature is dropped, and each kept entry's column becomes
its feature's position among them. ``vectorize_document`` reads the
one-row case, and ``stack_vectors`` stacks such rows into a matrix.

A model is stored as a bundle's ``tfidf`` object, which only this module
knows: ``TfIdfModel.to_header`` writes it and ``TfIdfModel.from_header``
reads it back, checked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .corpus import tokenize
from .errors import ConfigError
from .jsontypes import (BOOL, COUNT, INTEGER, LIST, OBJECT, POSITIVE, STRING, Kind, check,
                        count_upto)

if TYPE_CHECKING:
    from scipy import sparse

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_KNUTH = 2654435761
# Distinct tokens whose slots each hash width keeps; the hash is pure.
_HASH_SLOT_CACHE = 1 << 16
# A bundle's token, whose refusal has its own words.
_TOKEN = STRING._replace(words="strings")
# A bundle's tf-idf mode; any other value is refused, not read as hashed.
_MODE = Kind(lambda v: v in ("indexed", "hashed"), "'indexed' or 'hashed'")


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
    return _fit(map(tokenize, train_docs), None, min_df, True)[0].vocabulary


def _hash_slot(token: str, bits: int) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return ((h * _KNUTH) & 0xFFFFFFFF) >> (32 - bits)


@dataclass(eq=False)
class TfIdfModel:
    """Frozen vectorization state: vocabulary (or hash setup) plus idf
    weights. Models compare by identity, as numpy arrays have no one truth
    value."""

    vocabulary: Vocabulary | None
    idf: np.ndarray
    l2_normalize: bool = True
    hash_bits: int | None = None
    document_count: int = 0
    hashed_df: dict[int, int] = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        if self.hash_bits is not None:
            return 1 << self.hash_bits
        return len(self.vocabulary)

    def to_header(self) -> dict:
        """The bundle's ``tfidf`` object, which ``from_header`` reads back."""
        if self.hash_bits is not None:
            return {"mode": "hashed", "normalize": self.l2_normalize,
                    "document_count": self.document_count, "bits": self.hash_bits,
                    "df": [[int(slot), int(c)] for slot, c in sorted(self.hashed_df.items())]}
        vocab = self.vocabulary
        return {"mode": "indexed", "normalize": self.l2_normalize,
                "document_count": vocab.document_count,
                "tokens": [[t, vocab.df[t]] for t in vocab.tokens_by_index()],
                "idf": [float(v) for v in self.idf]}

    @classmethod
    def from_header(cls, tf: Mapping) -> TfIdfModel:
        """The model of a bundle's ``tfidf`` object, checked by type:
        ``mode`` "indexed" or "hashed", ``normalize`` a bool,
        ``document_count`` and ``bits`` integers, ``tokens`` distinct
        strings, each df count an integer in [0, document_count], and each
        indexed ``idf`` entry a finite positive number, one per token;
        ``_hashed_model`` checks bits and slots."""
        normalize = check(check(tf, OBJECT, "tfidf")["normalize"], BOOL, "tfidf.normalize")
        n = check(tf["document_count"], COUNT, "tfidf.document_count")
        df_kind = count_upto(n)
        if check(tf["mode"], _MODE, "tfidf.mode") == "indexed":
            tokens = check(tf["tokens"], LIST, "tfidf.tokens")
            index: dict[str, int] = {}
            for t, _ in tokens:
                if check(t, _TOKEN, "tfidf.tokens") in index:
                    raise ValueError(f"tfidf.tokens repeats {t!r}")
                index[t] = len(index)
            df = {t: check(d, df_kind, f"tfidf.tokens df of {t!r}") for t, d in tokens}
            idf = check(tf["idf"], LIST, "tfidf.idf")
            if len(idf) != len(tokens):
                raise ValueError(f"tfidf.idf has {len(idf)} entries for {len(tokens)} tokens")
            return cls(
                vocabulary=Vocabulary(index=index, df=df, document_count=n),
                idf=np.array([check(v, POSITIVE, f"tfidf.idf[{i}]") for i, v in enumerate(idf)],
                             dtype=np.float64),
                l2_normalize=normalize,
                document_count=n,
            )
        bits = check(tf["bits"], INTEGER, "tfidf.bits")
        hashed_df: dict[int, int] = {}
        for slot, c in check(tf["df"], LIST, "tfidf.df"):
            check(slot, INTEGER, "tfidf.df slot")
            hashed_df[slot] = check(c, df_kind, f"tfidf.df count of slot {slot}")
        return _hashed_model(bits, n, hashed_df, normalize)


def _idf(n: int, size: int, ids, df) -> np.ndarray:
    """Both modes' idf of ``size`` features over ``n`` documents, ``df`` the
    document counts of features ``ids`` and 0 for the rest: one ``math.log``
    per distinct count (``np.log`` may differ in the last bit)."""
    counts, inverse = np.unique(np.asarray(df, dtype=np.int64), return_inverse=True)
    idf = np.full(size, math.log(1.0 + n) + 1.0)
    idf[np.asarray(ids, dtype=np.int64)] = np.array(
        [math.log((1.0 + n) / (1.0 + c)) + 1.0 for c in counts.tolist()])[inverse]
    return idf


def fit_idf(vocab: Vocabulary, l2_normalize: bool = True) -> TfIdfModel:
    """idf(t) = ln((1 + N) / (1 + df(t))) + 1; always finite and positive."""
    n = vocab.document_count
    idf = _idf(n, len(vocab), list(vocab.index.values()), [vocab.df[t] for t in vocab.index])
    return TfIdfModel(vocabulary=vocab, idf=idf, l2_normalize=l2_normalize, document_count=n)


def _hash_dim(bits: int) -> int:
    """2**bits, once bits are in [1, 30]."""
    if not (1 <= bits <= 30):
        raise ConfigError(f"hash bits must be in [1, 30], got {bits}")
    return 1 << bits


def _hashed_model(bits: int, n: int, df: dict[int, int], l2_normalize: bool) -> TfIdfModel:
    """The hashed tf-idf model of ``n`` documents, ``df`` the document
    count of each hash slot that has one; its idf is fit_idf's, for each
    of the 2**bits slots."""
    dim = _hash_dim(bits)
    slots = np.asarray(list(df))  # not int64: a slot may be beyond its range
    outside = slots[(slots < 0) | (slots >= dim)]
    if outside.size:
        raise ConfigError(f"hashed df slot {outside[0]} outside [0, {dim})")
    return TfIdfModel(
        vocabulary=None,
        idf=_idf(n, dim, slots, list(df.values())),
        l2_normalize=l2_normalize,
        hash_bits=bits,
        document_count=n,
        hashed_df=df,
    )


def fit_hashed_idf(
    train_docs: Sequence[str], bits: int, l2_normalize: bool = True
) -> TfIdfModel:
    """Hashed-mode counterpart of build_vocabulary + fit_idf."""
    return _fit(map(tokenize, train_docs), bits, 1, l2_normalize)[0]


@dataclass(eq=False)
class DocumentVector:
    """Sparse vector: strictly increasing indices, no stored zeros; vectors
    compare by identity."""

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


class _Slots(dict):
    """Token -> its hash slot at ``bits``, each worked out by ``_hash_slot``
    the first time it is read. Once ``_HASH_SLOT_CACHE`` tokens are kept,
    the next new one starts the map afresh."""

    def __init__(self, bits: int):
        super().__init__()
        self.bits = bits

    def __missing__(self, token: str) -> int:
        if len(self) >= _HASH_SLOT_CACHE:
            self.clear()
        self[token] = slot = _hash_slot(token, self.bits)
        return slot


# The one slot map of each hash width, kept for the process.
_slot_map = functools.cache(_Slots)


def _hashed_ids(bits: int):
    """``_token_ids``' map of a text's tokens to their hash slots."""
    slot = _slot_map(bits).__getitem__
    return lambda tokens: map(slot, tokens)


def _token_ids(token_lists: Iterable[Iterable[str]], ids) -> tuple[int, np.ndarray, np.ndarray]:
    """The one loop over the texts' tokens, each text's read as it comes:
    ``ids`` maps them to their feature ids, leaving out a token without
    one. Returns the number of texts, then each id's row and the id, as
    int64 arrays in text and token order."""
    features: list[int] = []
    lengths: list[int] = []
    for tokens in token_lists:
        start = len(features)
        features.extend(ids(tokens))
        lengths.append(len(features) - start)
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    return len(lengths), rows, np.asarray(features, dtype=np.int64)


def _count(rows: np.ndarray, features: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """The distinct (row, feature) pairs, sorted, from one sort: each pair's
    row, its feature and how often it occurs."""
    keys, counts = np.unique(rows * dim + features, return_counts=True)
    return *np.divmod(keys, dim), counts


def _weigh(
    model: TfIdfModel, n: int, key_rows: np.ndarray, indices: np.ndarray, counts: np.ndarray,
    used: np.ndarray | None = None,
) -> sparse.csr_matrix:
    """The CSR matrix of ``n`` rows from their counted (row, feature) pairs:
    tf-idf over the whole array, then each row scaled by the norm of its
    own slice. Given the sorted feature ids ``used``, only the entries of
    features in ``used`` are kept, each in the column of its feature's
    position there, in a matrix of ``len(used)`` columns; the values and
    norms are those over every feature."""
    from scipy import sparse

    indptr = np.searchsorted(key_rows, np.arange(n + 1))
    values = (1.0 + np.log(counts.astype(np.float64))) * model.idf[indices]
    if model.l2_normalize:
        bounds = indptr.tolist()
        row_values = (values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
        # One BLAS dot per row, over the row's own slice, keeps each norm's
        # bits those of the text vectorized alone; a zero norm divides by 1.0.
        norms = [math.sqrt(float(np.dot(v, v))) or 1.0 for v in row_values]
        values /= np.array(norms)[key_rows]
    if used is None:
        return sparse.csr_matrix((values, indices, indptr), shape=(n, model.dimension))
    columns = np.searchsorted(used, indices)
    # take() cannot read an empty ``used``, which holds no feature
    held = used.take(columns, mode="clip") == indices if len(used) else columns < 0
    if not held.all():
        values, columns = values[held], columns[held]
        indptr = np.concatenate(([0], np.cumsum(held)))[indptr]
    return sparse.csr_matrix((values, columns, indptr), shape=(n, len(used)))


def _tfidf_rows(
    model: TfIdfModel, token_lists: Iterable[Iterable[str]], used: np.ndarray | None = None
) -> sparse.csr_matrix:
    """The (texts x dimension) tf-idf matrix of the texts whose tokens
    ``token_lists`` gives, one list per text: OOV tokens dropped, indices
    strictly increasing within a row, and an empty or all-OOV text an
    empty row. Given ``used``, its columns are ``_weigh``'s positions in
    ``used`` instead."""
    if model.hash_bits is not None:
        ids = _hashed_ids(model.hash_bits)
    else:
        get = model.vocabulary.index.get

        def ids(tokens):
            return [ix for ix in map(get, tokens) if ix is not None]

    n, rows, features = _token_ids(token_lists, ids)
    return _weigh(model, n, *_count(rows, features, model.dimension), used)


def _fit(
    token_lists: Iterable[Iterable[str]], hash_bits: int | None, min_df: int, l2_normalize: bool
) -> tuple[TfIdfModel, tuple[np.ndarray, ...]]:
    """The tf-idf model fit on the texts whose tokens ``token_lists`` gives,
    indexed or hashed, and the texts' counted (row, feature) pairs under
    it. Each text's tokens are read once; an indexed model gives each new
    token the next index, and with ``min_df`` above 1 drops the rarer
    tokens and renumbers the rest in order."""
    if hash_bits is None:
        index = _FirstSeen()
        n, rows, features = _token_ids(token_lists, lambda tokens: map(index.__getitem__, tokens))
        dim = len(index)
    else:
        dim = _hash_dim(hash_bits)  # checked before any token is hashed
        n, rows, features = _token_ids(token_lists, _hashed_ids(hash_bits))
    if not n:
        raise ConfigError("cannot fit a tf-idf model on an empty training set")
    key_rows, indices, counts = _count(rows, features, dim)
    if hash_bits is not None:
        slots, df = np.unique(indices, return_counts=True)
        df = dict(zip(slots.tolist(), df.tolist()))
        return _hashed_model(hash_bits, n, df, l2_normalize), (key_rows, indices, counts)
    df = np.bincount(indices, minlength=dim)
    tokens = list(index)
    if min_df > 1:
        kept = df >= min_df
        tokens = [t for t, keep in zip(tokens, kept.tolist()) if keep]
        df = df[kept]
        pair_kept = kept[indices]
        indices = (np.cumsum(kept) - 1)[indices[pair_kept]]
        key_rows, counts = key_rows[pair_kept], counts[pair_kept]
    vocab = Vocabulary(
        index={t: i for i, t in enumerate(tokens)},
        df=dict(zip(tokens, df.tolist())),
        document_count=n,
    )
    return fit_idf(vocab, l2_normalize), (key_rows, indices, counts)


def _fit_tfidf(
    token_lists: Iterable[Iterable[str]], hash_bits: int | None, min_df: int, l2_normalize: bool
) -> tuple[TfIdfModel, sparse.csr_matrix]:
    """A tf-idf model fit on the texts whose tokens ``token_lists`` gives
    and the texts' matrix under it: what ``build_vocabulary`` (or
    ``fit_hashed_idf``), ``fit_idf`` and ``_tfidf_rows`` give, from one
    read of each text's tokens."""
    model, pairs = _fit(token_lists, hash_bits, min_df, l2_normalize)
    return model, _weigh(model, model.document_count, *pairs)


def vectorize_document(model: TfIdfModel, text: str) -> DocumentVector:
    """Map text to a sparse tf-idf vector; OOV tokens are ignored and
    empty or all-OOV text yields the zero vector."""
    row = _tfidf_rows(model, [tokenize(text)])
    return DocumentVector(indices=row.indices.astype(np.int64), values=row.data,
                          dimension=model.dimension)


def stack_vectors(vectors: Iterable[DocumentVector], dimension: int) -> sparse.csr_matrix:
    """Assemble row vectors into one CSR matrix."""
    from scipy import sparse

    vecs = list(vectors)
    indptr = np.cumsum([0] + [v.nnz for v in vecs], dtype=np.int64)
    indices = np.concatenate([np.empty(0, np.int64)] + [v.indices for v in vecs])
    data = np.concatenate([np.empty(0, np.float64)] + [v.values for v in vecs])
    return sparse.csr_matrix((data, indices, indptr), shape=(len(vecs), dimension))
