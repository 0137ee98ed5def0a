"""Per-label linear models over augmented documents, with threshold fitting.

Training runs the whole pipeline: structured-record collection, measurement
selection, roll-up, statistics, DataWords encoding, augmentation,
vocabulary and tf-idf fitting, then one ridge regressor per label with an
F1-maximizing decision threshold. Everything needed to score new
encounters is frozen into a ModelBundle: the EncodingSpec (source,
patterns, roll-up, thresholds, ablation mode, unit) the training config
was encoded with, the training-time statistics, selected variables and
tf-idf model, each label's bias and threshold, and one (dimension x labels)
sparse weight matrix that prediction and explanation both read. Training
and prediction build units through the same ``_encode``, so prediction
re-runs the exact same encoding. A bundle is one JSON document in format
"2": a readable header, then per label its bias, threshold and weight
column, the column as base64 of little-endian int32 indices and float64
values. Loading it checks the spec through EncodingSpec and the labels
and weights against the tf-idf model.

A PipelineConfig is a frozen EncodingSpec plus the training and evaluation
settings; ``spec`` projects it onto its encoding fields. ``_encode`` hands
each DataWord to its document's unit in one pass.

The regressor minimizes sum((w.x + b - y)^2) + lambda * ||w||^2 with an
unpenalized bias. ``fit_labels`` is the one ridge solve, ``_ridge``;
``fit_label`` is its one-label case. Every label shares X and lambda, so
the solve keeps the k columns X actually uses and centers them once,
which removes the bias (b = mean(y) - mean(x).w). With k <= n units it
factors the k x k centered normal matrix, otherwise the n x n centered
Gram matrix, and then w = X^T alpha. When min(n, k) is too large for two
dense min(n, k)^2 arrays it runs one conjugate-gradient solve per label
on the centered normal equations instead (start at zero, relative
tolerance 1e-10, iteration cap 10 * k, a logged warning naming the label
column if it stops short). Dense solves round differently with the BLAS
thread count, which importing the package pins to one.

Training fits its tf-idf model and builds X in one pass that tokenizes
each unit's text once (``vectorize._fit_tfidf``). The solve returns the
dense (k x labels) weights Wk over the used columns; training scores its
units with them, S = X[:, cols] Wk + b, and stores them as the sparse W.
``fit_thresholds`` then fits every label's F1 threshold from one sort of
S's columns; ``fit_threshold`` is its one-column case.
"""

from __future__ import annotations

import base64
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .corpus import Encounter, Sentence, split_sentences
from .encoding import (
    ABLATION_MODES,
    TEXT_MODES,
    DataWordSentence,
    EncodeTable,
    ThresholdSpec,
    VariableStats,
    augment_document,
    compute_stats,
    encode_records,
)
from .errors import ConfigError, DataError, InputError, UnsupportedVersionError
from .extraction import (
    PROVENANCES,
    MeasurementFilter,
    PatternConfig,
    RollupPolicy,
    StructuredRecord,
    _rolled,
    allowed_variables,
    default_pattern_config,
    extract_encounter,
    read_json_object,
    variable_counts,
)
from .jsontypes import (
    BOOL,
    COUNT,
    FINITE,
    INTEGER,
    LIST,
    NONEMPTY,
    NONNEGATIVE,
    NUMBER,
    OBJECT,
    POSITIVE,
    STRING,
    STRINGS,
    check,
    count_upto,
    nullable,
)
from .vectorize import (
    TfIdfModel,
    Vocabulary,
    _fit_tfidf,
    _hashed_idf,
    _tfidf_rows,
    stack_vectors,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = "2"
# The tokenizer every bundle is written with (``corpus.tokenize``).
TOKENIZER = {"kind": "word", "lowercase": True}

EXTRACTION_SOURCES = ("patterns", "external", "db", "none")
UNIT_KINDS = ("document", "encounter")


@dataclass(frozen=True)
class EncodingSpec:
    """Everything that decides how an encounter becomes classification units.

    Training takes it from ``PipelineConfig.spec`` and stores it in the
    bundle, and prediction encodes with the bundle's copy, so an encounter
    maps to the same DataWords sentences on both sides.
    """

    extraction_source: str = "patterns"
    pattern_config: PatternConfig | None = None
    rollup_policy: RollupPolicy = field(default_factory=RollupPolicy)
    rollup_provenances: tuple[str, ...] | None = ("database",)
    threshold_spec: ThresholdSpec = field(default_factory=ThresholdSpec.defaults)
    ablation_mode: str = "text_plus_datawords"
    unit: str = "document"

    def __post_init__(self):
        if self.ablation_mode not in ABLATION_MODES:
            raise ConfigError(f"unknown ablation mode: {self.ablation_mode!r}")
        if self.unit not in UNIT_KINDS:
            raise ConfigError(f"unknown classification unit: {self.unit!r}")
        if self.extraction_source not in EXTRACTION_SOURCES:
            raise ConfigError(f"unknown extraction source: {self.extraction_source!r}")
        prov = self.rollup_provenances
        if prov is not None and not (isinstance(prov, tuple) and all(p in PROVENANCES for p in prov)):
            raise ConfigError(
                f"rollup_provenances must be None or a tuple of names from {PROVENANCES}, "
                f"got {prov!r}"
            )

    def resolved_pattern_config(self) -> PatternConfig:
        return self.pattern_config if self.pattern_config is not None else default_pattern_config()


@dataclass(frozen=True)
class PipelineConfig(EncodingSpec):
    """Everything that parameterizes training, prediction, and evaluation:
    the encoding fields it inherits, then the training and evaluation ones.

    ``spec`` projects it onto its EncodingSpec. ``threads`` is accepted for
    compatibility and excluded from the config digest: training solves
    every label in one shared solve, so outputs never depend on it.
    """

    lam: float = 1.0
    min_positive: int = 1
    min_df: int = 1
    l2_normalize: bool = True
    hash_bits: int | None = None
    measurement_filter: MeasurementFilter = field(default_factory=MeasurementFilter)
    external_records: tuple[StructuredRecord, ...] | None = None
    folds: int = 4
    seed: int = 42
    threads: int = 1

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.lam) and self.lam > 0):  # a bundle must load it back
            raise ConfigError(f"lambda must be a finite positive number, got {self.lam}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.hash_bits is not None and not (1 <= self.hash_bits <= 30):
            raise ConfigError(f"hash bits must be in [1, 30], got {self.hash_bits}")
        if self.hash_bits is not None and self.min_df > 1:
            raise ConfigError("min_df must be 1 with hash_bits, as the hashed vectorizer keeps "
                              f"every slot; got {self.min_df}")

    @property
    def spec(self) -> EncodingSpec:
        return EncodingSpec(**{f.name: getattr(self, f.name) for f in fields(EncodingSpec)})

    def digest_dict(self) -> dict:
        """Stable description of the run for the report digest."""
        return {
            "ablation_mode": self.ablation_mode,
            "unit": self.unit,
            "lambda": self.lam,
            "min_positive": self.min_positive,
            "min_df": self.min_df,
            "l2_normalize": self.l2_normalize,
            "hash_bits": self.hash_bits,
            "extraction_source": self.extraction_source,
            "pattern_config": (
                self.pattern_config.to_dict() if self.pattern_config is not None else None
            ),
            "measurement_filter": self.measurement_filter.to_dict(),
            "rollup": list(self.rollup_policy.aggregates),
            "rollup_provenances": (
                list(self.rollup_provenances) if self.rollup_provenances is not None else None
            ),
            "threshold_spec": self.threshold_spec.to_dict(),
            "folds": self.folds,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class AugmentedUnit:
    """One classification unit: the document text its ablation mode keeps
    ("" in the DataWords-only modes) and the DataWords sentences it appends.

    The classified ``text`` and the explained ``sentences`` both derive
    from these two; ``sentences`` is built when first read.
    """

    encounter_id: str
    doc_index: int | None
    document: str
    datawords: tuple[DataWordSentence, ...]
    gold: frozenset[str]

    @property
    def text(self) -> str:
        return augment_document(self.document, self.datawords)

    @cached_property
    def sentences(self) -> tuple[Sentence, ...]:
        """The document's sentences, then one per DataWord, numbered on
        under the unit's document index (0 for an encounter unit)."""
        di = 0 if self.doc_index is None else self.doc_index
        text = split_sentences(self.document, doc_index=di)
        return tuple(text) + tuple(
            Sentence(text=dw.text, doc_index=di, sent_index=len(text) + i,
                     kind="dataword", display=dw.display)
            for i, dw in enumerate(self.datawords)
        )


@dataclass(frozen=True)
class LabelModel:
    """Bias and decision threshold for one label; its weights are the
    label's column of ``ModelBundle.weights``."""

    label: str
    bias: float
    threshold: float


class PredictionItem(NamedTuple):
    label: str
    score: float
    predicted: bool


@dataclass(frozen=True)
class PredictionSet:
    """Scored labels for one unit, sorted by descending score."""

    encounter_id: str
    doc_index: int | None
    items: tuple[PredictionItem, ...]

    def predicted_labels(self) -> set[str]:
        return {it.label for it in self.items if it.predicted}


# ---------------------------------------------------------------------------
# ridge regression
# ---------------------------------------------------------------------------


def _as_matrix(X) -> sparse.csr_matrix:
    if sparse.issparse(X):
        return X.tocsr()
    vecs = list(X)
    if not vecs:
        raise InputError("need at least one sample")
    return stack_vectors(vecs, vecs[0].dimension)


def fit_label(X, y: Sequence[float], lam: float) -> tuple[np.ndarray, float]:
    """Ridge fit for one label; returns (weights, bias).

    X is a list of DocumentVector or a sparse matrix; y holds 0/1 targets.
    This is ``fit_labels`` on the single column y, its weights returned as
    a dense vector over X's full dimension.
    """
    W, b = fit_labels(X, np.asarray(y, dtype=np.float64)[:, None], lam)
    return W.toarray().ravel(), float(b[0])


# Largest min(units, used columns) solved densely; two float64 arrays of
# this side take about 270 MB. Larger problems use per-label CG.
_DENSE_SOLVE_MAX = 4096
# Relative residual at which a conjugate-gradient solve stops.
_CG_TOL = 1e-10


def _cg(Xs, x_mean: np.ndarray, rhs: np.ndarray, lam: float, column: int) -> np.ndarray:
    """Conjugate gradient on (Xs'Xs - n x_mean x_mean' + lam I) w = rhs,
    the centered normal equations, from w = 0. The matrix is positive
    definite, as lam > 0. Stopping short of ``_CG_TOL`` at 10 * columns
    iterations logs a warning naming the label column."""
    n, k = Xs.shape
    w = np.zeros(k, dtype=np.float64)
    rhs_norm = math.sqrt(float(np.dot(rhs, rhs)))
    if rhs_norm == 0.0:
        return w
    r = rhs.copy()
    p = r.copy()
    rs = float(np.dot(r, r))
    iterations = 0
    while math.sqrt(rs) > _CG_TOL * rhs_norm and iterations < 10 * k:
        Ap = Xs.T @ (Xs @ p) - (n * float(np.dot(x_mean, p))) * x_mean + lam * p
        alpha = rs / float(np.dot(p, Ap))
        w += alpha * p
        r -= alpha * Ap
        rs_new = float(np.dot(r, r))
        p = r + (rs_new / rs) * p
        rs = rs_new
        iterations += 1
    if math.sqrt(rs) > _CG_TOL * rhs_norm:
        logger.warning(
            "fit_labels: conjugate gradient for label column %d stopped after %d "
            "iterations at relative residual %.3g (tol %.3g)",
            column,
            iterations,
            math.sqrt(rs) / rhs_norm,
            _CG_TOL,
        )
    return w


def fit_labels(X, Y, lam: float) -> tuple[sparse.csc_matrix, np.ndarray]:
    """Ridge fits for every label at once; returns (W, b).

    X is a list of DocumentVector or a sparse (n x d) matrix and Y an
    (n x labels) array of 0/1 targets. W is a (d x labels) CSC matrix
    without stored zeros and b the unpenalized biases. ``_ridge`` solves;
    W holds its dense weights over X's used columns.
    """
    if lam <= 0:
        raise InputError(f"lambda must be positive, got {lam}")
    Xm = _as_matrix(X)
    Yv = np.asarray(Y, dtype=np.float64)
    if Yv.ndim != 2 or Xm.shape[0] != Yv.shape[0]:
        raise InputError(f"targets must be ({Xm.shape[0]} x labels), got shape {Yv.shape}")
    cols, _, Wk, b = _ridge(Xm, Yv, lam)
    return _weight_matrix(cols, Wk, Xm.shape[1]), b


def _ridge(
    X: sparse.csr_matrix, Y: np.ndarray, lam: float
) -> tuple[np.ndarray, sparse.csr_matrix, np.ndarray, np.ndarray]:
    """fit_labels' solve over a checked CSR X and float targets Y. Returns
    the k columns ``cols`` that X uses, ``Xs = X[:, cols]``, the dense
    (k x labels) weights ``Wk`` over them and the biases b, so that
    ``Xs @ Wk + b`` scores X."""
    n = X.shape[0]
    cols = np.unique(X.indices)
    k = cols.size
    Xs = X[:, cols]
    x_mean = np.asarray(Xs.sum(axis=0)).ravel() / n
    y_mean = Y.mean(axis=0)
    if min(n, k) > _DENSE_SOLVE_MAX:
        rhs = Xs.T @ (Y - y_mean)
        Wk = np.empty((k, Y.shape[1]))
        for j in range(Y.shape[1]):
            Wk[:, j] = _cg(Xs, x_mean, rhs[:, j], lam, j)
    elif k <= n:
        A = (Xs.T @ Xs).toarray()
        A -= np.outer(n * x_mean, x_mean)
        A.flat[:: k + 1] += lam
        Wk = np.linalg.solve(A, Xs.T @ (Y - y_mean))
    else:
        # H K H + lam I, with H = I - 11'/n, built in place on K = Xs Xs'.
        A = (Xs @ Xs.T).toarray()
        row_mean = A.mean(axis=1)
        A -= row_mean[:, None]
        A -= row_mean[None, :]
        A += row_mean.mean()
        A.flat[:: n + 1] += lam
        Wk = Xs.T @ np.linalg.solve(A, Y - y_mean)
    return cols, Xs, Wk, y_mean - x_mean @ Wk


def _weight_matrix(cols: np.ndarray, Wk: np.ndarray, d: int) -> sparse.csc_matrix:
    """The (d x labels) CSC matrix of the dense weights ``Wk`` over the
    columns ``cols``, without stored zeros."""
    Wc = sparse.csc_matrix(Wk)
    return sparse.csc_matrix((Wc.data, cols[Wc.indices], Wc.indptr), shape=(d, Wk.shape[1]))


def fit_threshold(scores: Sequence[float], y: Sequence[int]) -> float:
    """Threshold maximizing F1 of "predict iff score >= threshold".

    Candidates are the midpoints of adjacent sorted unique scores plus
    (min - 1) and (max + 1); ties go to the lowest threshold. With no
    positive targets the label can never be predicted and the sentinel
    +inf is returned. This is ``fit_thresholds`` on one column.
    """
    s = np.asarray(scores, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if s.size == 0:
        raise InputError("cannot fit a threshold on empty scores")
    if s.size != yv.size:
        raise InputError(f"scores and targets misaligned: {s.size} vs {yv.size}")
    return float(fit_thresholds(s.reshape(-1, 1), yv.reshape(-1, 1))[0])


def fit_thresholds(S, Y) -> np.ndarray:
    """``fit_threshold`` of every column of the (n x labels) scores S and
    targets Y, from one sort; returns one threshold per column.

    Every column is sorted in one 2-D sort. Any sort will do, as the
    counts of positives are read only where a run of equal scores starts.
    Candidate p sits below sorted position p: (min - 1) at 0, the midpoint
    of its two neighbours where a run starts, (max + 1) at n. The scores
    from the first one at or above a candidate on are predicted, and that
    first position is p unless the candidate is not above the score below
    it: a midpoint of two adjacent floats rounds onto the lower one, max +
    1 == max once |max| >= 2**53, or a sum overflows to -inf. (A sum that
    overflows to +inf needs max >= 2**53, so its column has such a
    candidate too.) A column with one counts the scores below each of its
    candidates by binary search, as ``np.searchsorted`` does. Scores must
    not be NaN.
    """
    S = np.asarray(S, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if S.ndim != 2 or S.shape != Y.shape:
        raise InputError(f"scores and targets misaligned: {S.shape} vs {Y.shape}")
    n = S.shape[0]
    if n == 0:
        raise InputError("cannot fit a threshold on empty scores")
    Yt = np.ascontiguousarray(Y.T)
    n_pos = Yt.sum(axis=1)
    thresholds = np.full(S.shape[1], math.inf)
    live = np.flatnonzero(n_pos)  # a label without positives keeps +inf
    St = S.T[live]
    order = np.argsort(St, axis=1)
    s = np.take_along_axis(St, order, axis=1)
    pos_below = np.zeros((live.size, n + 1), dtype=np.int64)
    np.cumsum(np.take_along_axis(Yt[live] == 1.0, order, axis=1), axis=1, out=pos_below[:, 1:])
    del St, order
    cands = np.empty((live.size, n + 1))
    cands[:, 0] = s[:, 0] - 1.0
    np.add(s[:, :-1], s[:, 1:], out=cands[:, 1:n])
    cands[:, 1:n] /= 2.0
    cands[:, n] = s[:, -1] + 1.0
    starts = np.ones(cands.shape, dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=starts[:, 1:n])
    first = np.arange(n + 1)
    below = pos_below
    stray = np.flatnonzero((starts[:, 1:] & (cands[:, 1:] <= s)).any(axis=1))
    if stray.size:
        first = np.broadcast_to(first, cands.shape).copy()
        for r in stray:
            first[r] = np.searchsorted(s[r], cands[r], side="left")
        below = np.take_along_axis(pos_below, first, axis=1)
    del s
    tp = (pos_below[:, -1:] - below).astype(np.float64)
    del pos_below, below
    npred = (n - first).astype(np.float64)
    # tp = 0 wherever a denominator is 0, so those F1 values come out 0
    precision = tp / np.maximum(npred, 1.0)
    recall = np.divide(tp, n_pos[live, None], out=tp)
    total = precision + recall
    f1 = np.multiply(2.0, precision, out=precision)
    f1 *= recall
    f1 /= np.where(total > 0.0, total, 1.0)
    f1[~starts] = -1.0  # not a candidate
    # argmax takes the first maximum, i.e. the lowest threshold
    thresholds[live] = cands[np.arange(live.size), f1.argmax(axis=1)]
    return thresholds


# ---------------------------------------------------------------------------
# record collection and unit assembly (shared by training and prediction)
# ---------------------------------------------------------------------------


def _key_external(records: Iterable[StructuredRecord]) -> dict[str, list[StructuredRecord]]:
    keyed: dict[str, list[StructuredRecord]] = {}
    for rec in records:
        keyed.setdefault(rec.encounter_id or "", []).append(rec)
    return keyed


def _reads_external(spec: EncodingSpec) -> bool:
    """Whether ``_collect_records`` reads external records under ``spec``."""
    return spec.ablation_mode != "text_only" and spec.extraction_source in ("external", "db")


def _keyed_external(
    spec: EncodingSpec, records: Iterable[StructuredRecord] | None
) -> Mapping[str, list[StructuredRecord]]:
    """The records indexed by encounter id, when ``spec`` reads them."""
    return _key_external(records or ()) if _reads_external(spec) else {}


def _collect_records(
    encounter: Encounter, spec: EncodingSpec, external: Mapping[str, list[StructuredRecord]]
) -> list[StructuredRecord]:
    """The encounter's embedded records and its source's; none in text_only."""
    if spec.ablation_mode == "text_only":
        return []
    records = list(encounter.structured)
    if spec.extraction_source == "patterns":
        records.extend(extract_encounter(encounter, spec.resolved_pattern_config()))
    elif _reads_external(spec):
        records.extend(external.get(encounter.encounter_id, []))
    return records


class _EncounterRecords(NamedTuple):
    """An encounter's records as far as no training set decides them:
    ``counts``, its collected records per variable, which the measurement
    filter ranks, and ``rolled``, the records left after the ablation
    mode's numeric filter, rolled up, each after its source variable."""

    counts: Counter
    rolled: list[tuple[str, StructuredRecord]]


def _encounter_records(
    encounter: Encounter, spec: EncodingSpec, external: Mapping[str, list[StructuredRecord]]
) -> _EncounterRecords:
    """The encounter's records collected, counted, less the numeric ones in
    ``nonnumeric_datawords_only``, and rolled up."""
    records = _collect_records(encounter, spec, external)
    counts = variable_counts(records)
    if spec.ablation_mode == "nonnumeric_datawords_only":
        records = [r for r in records if not r.is_numeric]
    return _EncounterRecords(
        counts, list(_rolled(records, spec.rollup_policy, spec.rollup_provenances)))


def _selected_records(
    records: _EncounterRecords, selected: set[str] | None
) -> list[StructuredRecord]:
    """The rolled records whose source variable is selected; all of them
    when ``selected`` is None. Roll-up groups readings by (encounter,
    variable), so this is what rolling up the selected records gives."""
    return [rec for variable, rec in records.rolled if selected is None or variable in selected]


def _encode(
    encounter: Encounter,
    spec: EncodingSpec,
    records: list[StructuredRecord],
    stats: Mapping[str, VariableStats],
) -> list[AugmentedUnit]:
    """The encounter's units, encoding all of ``records``.

    A document unit takes the DataWords of its own document plus the
    unattributed ones; an encounter unit takes them all, after all of its
    documents' text. One attributed to an index outside the documents joins
    no unit.
    """
    dws = encode_records(records, spec.threshold_spec, stats)
    if spec.unit == "document":
        per_doc: list[list[DataWordSentence]] = [[] for _ in encounter.documents]
        for dw in dws:
            di = dw.source.doc_index
            if di is None:
                for group in per_doc:
                    group.append(dw)
            elif 0 <= di < len(per_doc):
                per_doc[di].append(dw)
        groups = list(zip(range(len(per_doc)), encounter.documents, map(tuple, per_doc)))
    else:
        groups = [(None, "\n".join(encounter.documents), tuple(dws))]
    keep_text = spec.ablation_mode in TEXT_MODES
    return [
        AugmentedUnit(
            encounter_id=encounter.encounter_id,
            doc_index=doc_index,
            document=document if keep_text else "",
            datawords=datawords,
            gold=encounter.codes,
        )
        for doc_index, document, datawords in groups
    ]


# ---------------------------------------------------------------------------
# the bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelBundle:
    """Self-contained model state: everything prediction needs.

    ``weights`` is the (dimension x labels) CSC matrix, indices sorted,
    whose column j holds ``label_models[j]``'s weights. Its CSR view, which
    prediction and explanation multiply by, the per-label arrays and the
    ``EncodeTable`` that ``prepare_units`` encodes from are built once here.
    """

    tfidf: TfIdfModel
    variable_stats: dict[str, VariableStats]
    spec: EncodingSpec
    label_models: tuple[LabelModel, ...]
    weights: sparse.csc_matrix
    selected_variables: tuple[str, ...] | None = None
    lam: float = 1.0
    # Derived read-side state; never compared, serialized, or copied by
    # dataclasses.replace.
    _columns: dict = field(init=False, repr=False, compare=False)
    _scoring: tuple = field(init=False, repr=False, compare=False)
    _encode_table: EncodeTable = field(init=False, repr=False, compare=False)
    _sentence_scores: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        W, d, n = self.weights, self.tfidf.dimension, len(self.label_models)
        if not (sparse.issparse(W) and W.format == "csc" and W.shape == (d, n)
                and W.has_sorted_indices):
            raise ValueError(f"weights must be a {d} x {n} CSC matrix, indices sorted")
        columns: dict[str, int] = {}
        for j, lm in enumerate(self.label_models):
            if columns.setdefault(lm.label, j) != j:
                raise ValueError(f"label {lm.label!r}: repeats an earlier label")
        labels = np.array([lm.label for lm in self.label_models], dtype=object)
        rank = np.empty(n, dtype=np.int64)
        rank[sorted(range(n), key=labels.__getitem__)] = np.arange(n)
        scoring = (
            W.tocsr(),
            np.array([lm.bias for lm in self.label_models], dtype=np.float64),
            np.array([lm.threshold for lm in self.label_models], dtype=np.float64),
            labels,
            rank,
        )
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_scoring", scoring)
        object.__setattr__(self, "_encode_table",
                           EncodeTable(self.spec.threshold_spec, self.variable_stats))

    @property
    def labels(self) -> list[str]:
        return [lm.label for lm in self.label_models]

    def column(self, label: str) -> int:
        """The label's column of ``weights``; KeyError for an unknown label."""
        return self._columns[label]

    def sentence_scores(self, unit: AugmentedUnit) -> np.ndarray:
        """The unit's (sentences x labels) scores, bias excluded: its
        sentences' tf-idf matrix times the CSR view of ``weights``, the
        product ``predict_units`` makes.

        The last unit's block is kept, keyed by the unit's identity, so
        explaining several labels of one unit vectorizes and multiplies
        once.
        """
        cached = self._sentence_scores
        if cached is None or cached[0] is not unit:
            X = _tfidf_rows(self.tfidf, [s.text for s in unit.sentences])
            cached = (unit, (X @ self._scoring[0]).toarray())
            object.__setattr__(self, "_sentence_scores", cached)
        return cached[1]


@dataclass
class CorpusUnits:
    """Units plus the training-derived state they were encoded with."""

    units: list[AugmentedUnit]
    stats: dict[str, VariableStats]
    selected: set[str] | None


def build_corpus_units(
    encounters: Sequence[Encounter],
    config: PipelineConfig,
    *,
    _records: Mapping[str, _EncounterRecords] | None = None,
) -> CorpusUnits:
    """Collect records, filter, roll up, compute stats, encode, augment.

    This is the training-side half of the pipeline; everything it derives
    comes from the given encounters only. Each encounter's records are
    collected, counted and rolled up (``_encounter_records``); the
    measurement filter then selects variables from the summed counts, and
    the rolled records of the selected variables give the statistics and
    the encounter's units, encoded from one ``EncodeTable``. Records are
    keyed by encounter id, so an id that repeats raises DataError.
    ``run_cv`` passes ``_records``, every encounter's records worked up
    once per run.
    """
    encounters = list(encounters)
    if not encounters:
        raise ConfigError("cannot process an empty corpus")
    ids = [e.encounter_id for e in encounters]
    seen: set[str] = set()
    for eid in ids:
        if eid in seen:
            raise DataError(f"duplicate encounter_id {eid!r}")
        seen.add(eid)

    spec = config.spec
    if _records is None:
        external = _keyed_external(spec, config.external_records)
        _records = {e.encounter_id: _encounter_records(e, spec, external) for e in encounters}

    filt = config.measurement_filter
    if filt.mode == "all":
        selected = None
    else:
        counts = Counter()
        for eid in ids:
            counts.update(_records[eid].counts)
        selected = allowed_variables(counts, filt)

    processed = {eid: _selected_records(_records[eid], selected) for eid in ids}
    stats = compute_stats(r for eid in ids for r in processed[eid])
    # explicit cuts are strictly increasing, so only cuts from statistics,
    # of a variable with zero spread, can be degenerate
    for name in sorted(stats):
        cuts = spec.threshold_spec.resolve_cuts(name, stats)
        if cuts[0] == cuts[3]:
            logger.warning("degenerate cuts for %r (zero spread); binning carries no "
                           "information", name)
    table = EncodeTable(spec.threshold_spec, stats)
    units = [u for e in encounters for u in _encode(e, spec, processed[e.encounter_id], table)]
    return CorpusUnits(units=units, stats=stats, selected=selected)


def train_all(
    encounters: Sequence[Encounter],
    config: PipelineConfig,
    *,
    _records: Mapping[str, _EncounterRecords] | None = None,
) -> ModelBundle:
    """Run the full training pipeline and return a frozen bundle.

    Statistics, vocabulary, idf weights, measurement-selection sets, and
    thresholds are all computed from the given encounters only, so a
    cross-validation harness can call this per fold without leakage.
    The vocabulary (or hashed df) and X come from one tokenization of each
    unit's text. The training scores are S = Xs Wk + b, over the used
    columns ``_ridge`` solved for. scipy's sparse-by-dense product adds
    each score's terms in X's entry order from 0.0, as ``predict_units``
    does with the sparse W, and the +-0.0 terms of Wk's zeros change no
    sum, so S holds the scores prediction reproduces. ``fit_thresholds`` then fits every
    label's threshold on them at once. ``_records`` goes to
    ``build_corpus_units``.
    """
    corpus_units = build_corpus_units(encounters, config, _records=_records)
    units = corpus_units.units
    stats = corpus_units.stats
    selected = corpus_units.selected

    tfidf, X = _fit_tfidf([u.text for u in units], config.hash_bits, config.min_df,
                          config.l2_normalize)

    label_counts = Counter(code for u in units for code in u.gold)
    labels = sorted(c for c, n in label_counts.items() if n >= config.min_positive)
    if not labels:
        raise ConfigError(
            "no usable labels: no code reaches the minimum positive count "
            f"({config.min_positive})"
        )

    column = {label: j for j, label in enumerate(labels)}
    Y = np.zeros((len(units), len(labels)), dtype=np.float64)
    for i, unit in enumerate(units):
        for code in unit.gold:
            if code in column:
                Y[i, column[code]] = 1.0

    cols, Xs, Wk, b = _ridge(X, Y, config.lam)
    thresholds = fit_thresholds(Xs @ Wk + b, Y)
    models = tuple(
        LabelModel(label=label, bias=float(b[j]), threshold=float(thresholds[j]))
        for j, label in enumerate(labels)
    )

    return ModelBundle(
        tfidf=tfidf,
        variable_stats=stats,
        spec=config.spec,
        label_models=models,
        weights=_weight_matrix(cols, Wk, X.shape[1]),
        selected_variables=tuple(sorted(selected)) if selected is not None else None,
        lam=config.lam,
    )


def prepare_units(
    bundle: ModelBundle,
    encounter: Encounter,
    external_records: (
        Sequence[StructuredRecord] | Mapping[str, list[StructuredRecord]] | None
    ) = None,
    *,
    _records: Mapping[str, _EncounterRecords] | None = None,
) -> list[AugmentedUnit]:
    """Rebuild an encounter's units with the bundle's frozen state.

    This is the prediction-side half of the train/predict symmetry
    contract: an encounter encodes here exactly as it would have encoded
    as a member of the bundle's training set. A caller preparing many
    encounters passes the external records already indexed by encounter
    id (``_keyed_external``), so they are indexed once, not per encounter.
    ``run_cv`` passes ``_records`` instead, as it does to ``train_all``.
    The records are encoded from the bundle's ``EncodeTable``.
    """
    spec = bundle.spec
    if _records is None:
        if isinstance(external_records, Mapping):
            external = external_records
        else:
            external = _keyed_external(spec, external_records)
        _records = {encounter.encounter_id: _encounter_records(encounter, spec, external)}
    selected = set(bundle.selected_variables) if bundle.selected_variables is not None else None
    records = _selected_records(_records[encounter.encounter_id], selected)
    return _encode(encounter, spec, records, bundle._encode_table)


def predict_units(bundle: ModelBundle, units: Sequence[AugmentedUnit]) -> list[PredictionSet]:
    """Score already-prepared units against every label in the bundle.

    One call builds X for every unit's text with one tf-idf pass, as
    ``train_all`` does, and computes S = X W + b with scipy's sparse
    product over the bundle's CSR view of W. That product adds each
    score's terms in X's entry order, starting from 0.0, so a score does
    not depend on the batch it is in; callers should pass every unit they
    have at once. Each unit's items come out sorted by descending score,
    then label, from one ``np.lexsort`` over the batch.
    """
    W, biases, thresholds, labels, rank = bundle._scoring
    S = (_tfidf_rows(bundle.tfidf, [unit.text for unit in units]) @ W).toarray() + biases
    order = np.lexsort((np.broadcast_to(rank, S.shape), -S))
    scores = np.take_along_axis(S, order, axis=1)
    hits = scores >= thresholds[order]
    return [
        PredictionSet(
            encounter_id=unit.encounter_id,
            doc_index=unit.doc_index,
            items=tuple(map(PredictionItem, names, row_scores, row_hits)),
        )
        for unit, names, row_scores, row_hits in zip(
            units, labels[order].tolist(), scores.tolist(), hits.tolist()
        )
    ]


def predict(
    bundle: ModelBundle,
    encounter: Encounter,
    external_records: Sequence[StructuredRecord] | None = None,
) -> list[PredictionSet]:
    """Score every label for each of the encounter's units.

    Unknown tokens are ignored and missing structured data is tolerated;
    a label with the +inf threshold sentinel is never predicted.
    """
    units = prepare_units(bundle, encounter, external_records)
    return predict_units(bundle, units)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _bundle_header(bundle: ModelBundle) -> dict:
    """Every bundle field except the per-label models, in file order."""
    tfidf, spec = bundle.tfidf, bundle.spec
    if tfidf.mode == "indexed":
        tokens = tfidf.vocabulary.tokens_by_index()
        tfidf_obj = {
            "mode": "indexed",
            "normalize": tfidf.l2_normalize,
            "document_count": tfidf.vocabulary.document_count,
            "tokens": [[t, tfidf.vocabulary.df[t]] for t in tokens],
            "idf": [float(v) for v in tfidf.idf],
        }
    else:
        tfidf_obj = {
            "mode": "hashed",
            "normalize": tfidf.l2_normalize,
            "document_count": tfidf.document_count,
            "bits": tfidf.hash_bits,
            "df": [[int(slot), int(c)] for slot, c in sorted(tfidf.hashed_df.items())],
        }
    return {
        "format_version": FORMAT_VERSION,
        "tokenizer": TOKENIZER,
        "unit": spec.unit,
        "ablation_mode": spec.ablation_mode,
        "lambda": bundle.lam,
        "tfidf": tfidf_obj,
        "variable_stats": {
            name: [st.count, float(st.mean), float(st.std)]
            for name, st in sorted(bundle.variable_stats.items())
        },
        "threshold_spec": spec.threshold_spec.to_dict(),
        "selected_variables": (
            list(bundle.selected_variables) if bundle.selected_variables is not None else None
        ),
        "extraction": {
            "source": spec.extraction_source,
            "patterns": spec.pattern_config.to_dict() if spec.pattern_config is not None else None,
        },
        "rollup": {
            "aggregates": list(spec.rollup_policy.aggregates),
            "provenances": (
                list(spec.rollup_provenances) if spec.rollup_provenances is not None else None
            ),
        },
    }


# On-disk dtypes of a weight column; a dimension is at most 2**30.
_INDEX_DTYPE = np.dtype("<i4")
_VALUE_DTYPE = np.dtype("<f8")
# The JSON kinds of bundle fields whose refusals have their own words.
_BASE64 = STRING._replace(words="a base64 string")
_TOKEN = STRING._replace(words="strings")
_THRESHOLD = nullable(NUMBER, "a number or null")
_SELECTED = nullable(STRINGS, "null or a list of strings")


def _b64_array(a: np.ndarray, dtype: np.dtype) -> str:
    return base64.b64encode(np.asarray(a, dtype=dtype).tobytes()).decode("ascii")


def _label_entry(bundle: ModelBundle, j: int) -> dict:
    lm, W = bundle.label_models[j], bundle.weights
    lo, hi = W.indptr[j], W.indptr[j + 1]
    return {
        "code": lm.label,
        "bias": float(lm.bias),
        "threshold": None if math.isinf(lm.threshold) else float(lm.threshold),
        "indices": _b64_array(W.indices[lo:hi], _INDEX_DTYPE),
        "values": _b64_array(W.data[lo:hi], _VALUE_DTYPE),
    }


def _bundle_to_dict(bundle: ModelBundle) -> dict:
    return {
        **_bundle_header(bundle),
        "labels": [_label_entry(bundle, j) for j in range(len(bundle.label_models))],
    }


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    """Serialize to a single JSON document with round-trip float precision.

    The bytes equal ``json.dumps(_bundle_to_dict(bundle), separators=(",",
    ":")) + "\\n"``, but each label is encoded and written on its own, so the
    whole document is never held in memory.
    """
    header = json.dumps(_bundle_header(bundle), separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header[:-1] + ',"labels":[')
        for j in range(len(bundle.label_models)):
            if j:
                fh.write(",")
            fh.write(json.dumps(_label_entry(bundle, j), separators=(",", ":")))
        fh.write("]}\n")


def _array_from_b64(entry: Mapping, key: str, dtype: np.dtype) -> np.ndarray:
    code = entry["code"]
    raw = check(entry[key], _BASE64, f"label {code!r}: {key}")
    try:
        data = base64.b64decode(raw, validate=True)
    except ValueError as exc:
        raise ValueError(f"label {code!r}: {key} is not valid base64 ({exc})") from exc
    if len(data) % dtype.itemsize:
        raise ValueError(
            f"label {code!r}: {key} holds {len(data)} bytes, "
            f"not a whole number of {dtype.itemsize}-byte items"
        )
    return np.frombuffer(data, dtype=dtype)


def _label_from_entry(entry: Mapping, dimension: int) -> tuple[LabelModel, np.ndarray, np.ndarray]:
    """One saved label and its weight column's (indices, values), checked so
    that scoring cannot fail or go NaN: a nonempty string code, whole int32
    indices and float64 values of equal count, indices strictly increasing
    in [0, dimension), finite weights, a finite number for the bias, and a
    finite number or null (never predicted) for the threshold. Raises
    ValueError naming the label and the first violation."""
    code = check(entry, OBJECT, "label entry")["code"]
    check(code, NONEMPTY, f"label {code!r}: code")
    indices = _array_from_b64(entry, "indices", _INDEX_DTYPE)
    values = _array_from_b64(entry, "values", _VALUE_DTYPE).astype(np.float64)
    if indices.size != values.size:
        raise ValueError(f"label {code!r}: {indices.size} weight indices for {values.size} values")
    out_of_range = indices[(indices < 0) | (indices >= dimension)]
    if out_of_range.size:
        raise ValueError(
            f"label {code!r}: weight index {out_of_range[0]} outside [0, {dimension})"
        )
    if np.any(np.diff(indices) <= 0):
        raise ValueError(f"label {code!r}: weight indices must be strictly increasing")
    if not np.isfinite(values).all():
        raise ValueError(f"label {code!r}: weights must be finite")
    bias = check(entry["bias"], NUMBER, f"label {code!r}: bias")
    if not math.isfinite(bias):
        raise ValueError(f"label {code!r}: bias must be finite, got {bias}")
    thr = check(entry["threshold"], _THRESHOLD, f"label {code!r}: threshold")
    if thr is not None and not math.isfinite(thr):
        raise ValueError(f"label {code!r}: threshold must be finite or null, got {thr}")
    threshold = math.inf if thr is None else float(thr)
    return LabelModel(label=code, bias=float(bias), threshold=threshold), indices, values


def _tfidf_from_header(tf: Mapping) -> TfIdfModel:
    """The bundle's tf-idf model, its header checked by type: ``normalize``
    a bool, ``document_count`` and ``bits`` integers, ``tokens`` distinct
    strings, each df count an integer in [0, document_count], and each
    indexed ``idf`` entry a finite positive number, one per token."""
    normalize = check(check(tf, OBJECT, "tfidf")["normalize"], BOOL, "tfidf.normalize")
    n = check(tf["document_count"], COUNT, "tfidf.document_count")
    df_kind = count_upto(n)
    if tf["mode"] == "indexed":
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
        return TfIdfModel(
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
    return TfIdfModel(
        vocabulary=None,
        idf=_hashed_idf(bits, n, hashed_df.items()),
        l2_normalize=normalize,
        hash_bits=bits,
        document_count=n,
        hashed_df=hashed_df,
    )


def load_bundle(path: str | Path) -> ModelBundle:
    """Load a saved bundle; predictions after a round trip are bit-exact.

    A bundle of another format version, such as format "1", raises
    UnsupportedVersionError: it has to be retrained. Every field is checked
    by its JSON kind (``jsontypes``) and against what ``train_all`` can
    write, so contents that would make prediction fail, go NaN or differ
    from what was trained raise DataError naming the field or the label.
    A bundle without ``tokenizer`` loads with the one tokenizer there is.
    """
    obj = read_json_object(path, "bundle", DataError)
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"bundle {path}: unsupported format_version {version!r} "
            f"(supported: {FORMAT_VERSION!r}); retrain the model to write a supported bundle"
        )
    tokenizer = obj.get("tokenizer", TOKENIZER)
    if tokenizer != TOKENIZER:
        raise DataError(f"bundle {path}: unsupported tokenizer {tokenizer!r}")
    try:
        tfidf = _tfidf_from_header(obj["tfidf"])
        stats = {
            name: VariableStats(
                name=name,
                count=check(c, COUNT, f"variable_stats.{name} count"),
                mean=float(check(m, FINITE, f"variable_stats.{name} mean")),
                std=float(check(s, NONNEGATIVE, f"variable_stats.{name} std")),
            )
            for name, (c, m, s) in check(obj["variable_stats"], OBJECT, "variable_stats").items()
        }
        lam = float(check(obj["lambda"], POSITIVE, "lambda"))
        extraction = check(obj["extraction"], OBJECT, "extraction")
        patterns = extraction.get("patterns")
        roll = check(obj["rollup"], OBJECT, "rollup")
        provenances = roll["provenances"]
        spec = EncodingSpec(
            extraction_source=extraction["source"],
            pattern_config=PatternConfig.from_dict(patterns) if patterns is not None else None,
            rollup_policy=RollupPolicy(
                tuple(check(roll["aggregates"], STRINGS, "rollup.aggregates"))),
            rollup_provenances=tuple(provenances) if LIST.test(provenances) else provenances,
            threshold_spec=ThresholdSpec.from_dict(obj["threshold_spec"]),
            ablation_mode=obj["ablation_mode"],
            unit=obj["unit"],
        )
        selected = check(obj["selected_variables"], _SELECTED, "selected_variables")
        if not check(obj["labels"], LIST, "labels"):
            raise ValueError("labels is empty, and training never writes a bundle without labels")
        entries = [_label_from_entry(entry, tfidf.dimension) for entry in obj["labels"]]
        weights = sparse.csc_matrix(
            (np.concatenate([np.empty(0)] + [values for *_, values in entries]),
             np.concatenate([np.empty(0, np.int32)] + [indices for _, indices, _ in entries]),
             np.cumsum([0] + [indices.size for _, indices, _ in entries])),
            shape=(tfidf.dimension, len(entries)),
        )
        return ModelBundle(
            tfidf=tfidf,
            variable_stats=stats,
            spec=spec,
            label_models=tuple(lm for lm, _, _ in entries),
            weights=weights,
            selected_variables=tuple(selected) if selected is not None else None,
            lam=lam,
        )
    except ConfigError as exc:
        raise DataError(f"bundle {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bundle {path}: malformed contents ({exc})") from exc
