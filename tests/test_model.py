import base64
import json
import logging
import math
import tempfile
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from datawords import corpus as corpus_module
from datawords import encoding, extraction, model
from datawords.corpus import Encounter, load_corpus, tokenize
from datawords.encoding import ABLATION_MODES
from datawords.errors import ConfigError, DataError, InputError, UnsupportedVersionError
from datawords.evaluation import PlantedRule, SynthSpec, generate_synthetic, run_cv
from datawords.extraction import MeasurementFilter, StructuredRecord, load_db_measurements
from datawords.model import (
    UNIT_KINDS,
    AugmentedUnit,
    EncodingSpec,
    LabelModel,
    ModelBundle,
    PipelineConfig,
    build_corpus_units,
    _bundle_to_dict,
    fit_label,
    fit_labels,
    fit_threshold,
    fit_thresholds,
    load_bundle,
    predict,
    predict_units,
    prepare_units,
    save_bundle,
    train_all,
)
from datawords.vectorize import (
    _tfidf_rows,
    build_vocabulary,
    fit_hashed_idf,
    fit_idf,
    stack_vectors,
    vectorize_document,
)


def ridge_oracle(X_dense, y, lam):
    """Dense normal-equations solution with an unpenalized bias,
    independent of the CG solver."""
    n, d = X_dense.shape
    Xa = np.hstack([X_dense, np.ones((n, 1))])
    D = np.eye(d + 1) * lam
    D[d, d] = 0.0
    sol = np.linalg.solve(Xa.T @ Xa + D, Xa.T @ y)
    return sol[:d], sol[d]


def exhaustive_threshold_oracle(scores, y):
    """Try every candidate threshold with a plain python loop."""
    uniq = sorted(set(scores))
    cands = [uniq[0] - 1.0, uniq[-1] + 1.0]
    cands += [(a + b) / 2.0 for a, b in zip(uniq, uniq[1:])]
    best = (-1.0, None)
    for t in sorted(cands):
        tp = sum(1 for s, g in zip(scores, y) if s >= t and g == 1)
        fp = sum(1 for s, g in zip(scores, y) if s >= t and g == 0)
        fn = sum(1 for s, g in zip(scores, y) if s < t and g == 1)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        if f1 > best[0]:
            best = (f1, t)
    return best


def f1_at(scores, y, t):
    tp = sum(1 for s, g in zip(scores, y) if s >= t and g == 1)
    fp = sum(1 for s, g in zip(scores, y) if s >= t and g == 0)
    fn = sum(1 for s, g in zip(scores, y) if s < t and g == 1)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def as_rows(X_dense):
    from datawords.vectorize import DocumentVector

    rows = []
    for row in X_dense:
        nz = np.nonzero(row)[0]
        rows.append(
            DocumentVector(indices=nz.astype(np.int64), values=row[nz], dimension=X_dense.shape[1])
        )
    return rows


def quadratic_threshold_oracle(scores, y):
    """The (#unique scores x n) comparison-matrix threshold fit that
    fit_threshold's sort-and-count version must reproduce exactly."""
    s = np.asarray(scores, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    n_pos = float(yv.sum())
    if n_pos == 0.0:
        return math.inf
    uniq = np.unique(s)
    cands = np.concatenate([[uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0]])
    pred = s[None, :] >= cands[:, None]
    tp = (pred & (yv == 1.0)[None, :]).sum(axis=1).astype(np.float64)
    fp = pred.sum(axis=1).astype(np.float64) - tp
    fn = n_pos - tp
    best_f1, best_t = -1.0, cands[0]
    for i in range(len(cands)):
        precision = tp[i] / (tp[i] + fp[i]) if tp[i] + fp[i] > 0 else 0.0
        recall = tp[i] / (tp[i] + fn[i]) if tp[i] + fn[i] > 0 else 0.0
        f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
        if f1 > best_f1:
            best_f1, best_t = f1, cands[i]
    return float(best_t)


def sparse_problem(rng, n, d, labels=4):
    """Sparse X whose last column is never used, plus 0/1 targets with one
    label that has no positives and one that is all positives."""
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.6)
    X[:, -1] = 0.0
    Y = rng.integers(0, 2, size=(n, labels)).astype(float)
    Y[:, 0] = 0.0
    Y[:, 1] = 1.0
    return X, Y


class TestFitLabel:
    def test_all_zero_targets(self):
        X = np.array([[1.0, 2.0], [0.5, 0.0]])
        w, b = fit_label(as_rows(X), [0.0, 0.0], lam=1.0)
        assert np.allclose(w, 0.0) and b == 0.0

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 6))
            lam = float(rng.choice([0.1, 1.0, 10.0]))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w, b = fit_label(as_rows(X), y, lam=lam)
            w_ref, b_ref = ridge_oracle(X, y, lam)
            assert np.max(np.abs(w - w_ref)) <= 1e-8
            assert abs(b - b_ref) <= 1e-8

    def test_gradient_at_solution_vanishes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, d = 12, 6
            lam = 0.7
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w, b = fit_label(as_rows(X), y, lam=lam)
            resid = X @ w + b - y
            grad_w = 2.0 * (X.T @ resid) + 2.0 * lam * w
            grad_b = 2.0 * resid.sum()
            assert np.linalg.norm(np.concatenate([grad_w, [grad_b]])) <= 1e-6

            # finite differences agree with the analytic gradient
            def objective(wv, bv):
                r = X @ wv + bv - y
                return float(r @ r + lam * (wv @ wv))

            eps = 1e-6
            probe = rng.normal(size=d)
            probe /= np.linalg.norm(probe)
            fd = (objective(w + eps * probe, b) - objective(w - eps * probe, b)) / (2 * eps)
            analytic = float(grad_w @ probe)
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))

    def test_dimension_mismatch(self):
        X = np.array([[1.0, 0.0]])
        with pytest.raises(InputError):
            fit_label(as_rows(X), [1.0, 0.0], lam=1.0)

    def test_stopping_short_of_tol_warns(self, caplog, monkeypatch):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 5))
        y = rng.integers(0, 2, size=8).astype(float)
        monkeypatch.setattr(model, "_DENSE_SOLVE_MAX", 0)
        monkeypatch.setattr(model, "_CG_TOL", 0.0)
        with caplog.at_level(logging.WARNING, logger="datawords.model"):
            w, b = fit_label(as_rows(X), y, lam=1.0)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert "iterations" in message and "relative residual" in message
        assert "label column 0" in message
        w_ref, b_ref = ridge_oracle(X, y, 1.0)
        assert np.max(np.abs(w - w_ref)) <= 1e-8 and abs(b - b_ref) <= 1e-8
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="datawords.model"):
            fit_labels(sparse.csr_matrix(X), np.column_stack([y, 1.0 - y]), lam=1.0)
        assert ["label column 0" in r.getMessage() for r in caplog.records] == [True, False]
        assert "label column 1" in caplog.records[1].getMessage()

    def test_converged_fit_does_not_warn(self, caplog):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 5))
        y = rng.integers(0, 2, size=8).astype(float)
        with caplog.at_level(logging.WARNING, logger="datawords.model"):
            fit_label(as_rows(X), y, lam=1.0)
        assert caplog.records == []


class TestFitLabels:
    # (n, d) with d - 1 used columns: k <= n solves the primal system,
    # n < k the dual one
    SHAPES = [(12, 5), (9, 10), (5, 14), (1, 4), (3, 1)]

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_against_dense_oracle(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        for lam in (0.1, 1.0, 10.0):
            X, Y = sparse_problem(rng, n, d)
            W, b = fit_labels(sparse.csr_matrix(X), Y, lam)
            assert W.shape == (d, Y.shape[1])
            Wd = W.toarray()
            for j in range(Y.shape[1]):
                w_ref, b_ref = ridge_oracle(X, Y[:, j], lam)
                assert np.max(np.abs(Wd[:, j] - w_ref)) <= 1e-8
                assert abs(b[j] - b_ref) <= 1e-8
                w_cg, b_cg = fit_label(as_rows(X), Y[:, j], lam)
                assert np.max(np.abs(Wd[:, j] - w_cg)) <= 1e-8
                assert abs(b[j] - b_cg) <= 1e-8
            assert not np.any(Wd[X.any(axis=0) == 0])

    def test_label_without_positives(self):
        X, Y = sparse_problem(np.random.default_rng(1), 10, 6)
        Xs = sparse.csr_matrix(X)
        W, b = fit_labels(Xs, Y, 1.0)
        assert W.indptr[1] == 0 and b[0] == 0.0
        assert fit_threshold(Xs @ W[:, 0].toarray().ravel() + b[0], Y[:, 0]) == math.inf

    def test_label_all_positive(self):
        X, Y = sparse_problem(np.random.default_rng(2), 10, 6)
        W, b = fit_labels(sparse.csr_matrix(X), Y, 1.0)
        assert np.max(np.abs(W[:, 1].toarray())) <= 1e-8
        assert abs(b[1] - 1.0) <= 1e-8

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_fallback_matches_dense(self, n, d, monkeypatch):
        X, Y = sparse_problem(np.random.default_rng(3), n, d)
        dense_W, dense_b = fit_labels(sparse.csr_matrix(X), Y, 0.5)
        # below every min(n, k), so even a problem with no used column runs CG
        monkeypatch.setattr(model, "_DENSE_SOLVE_MAX", -1)
        W, b = fit_labels(sparse.csr_matrix(X), Y, 0.5)
        for j in range(Y.shape[1]):
            w_ref, b_ref = ridge_oracle(X, Y[:, j], 0.5)
            assert np.max(np.abs(W[:, j].toarray().ravel() - w_ref)) <= 1e-8
            assert abs(b[j] - b_ref) <= 1e-8
        assert np.max(np.abs((W - dense_W).toarray())) <= 1e-8
        assert np.max(np.abs(b - dense_b)) <= 1e-8

    def test_accepts_document_vectors(self):
        X, Y = sparse_problem(np.random.default_rng(4), 8, 5)
        W1, b1 = fit_labels(as_rows(X), Y, 1.0)
        W2, b2 = fit_labels(sparse.csr_matrix(X), Y, 1.0)
        assert (W1 != W2).nnz == 0 and np.array_equal(b1, b2)

    def test_target_shape_mismatch(self):
        X, Y = sparse_problem(np.random.default_rng(5), 8, 5)
        with pytest.raises(InputError):
            fit_labels(sparse.csr_matrix(X), Y[:-1], 1.0)
        with pytest.raises(InputError):
            fit_labels(sparse.csr_matrix(X), Y[:, 0], 1.0)
        with pytest.raises(InputError):
            fit_labels(sparse.csr_matrix(X), Y, 0.0)


class TestFitThreshold:
    def test_perfect_separation_midpoint(self):
        t = fit_threshold([0.9, 0.8, 0.2], [1, 1, 0])
        assert t == pytest.approx(0.5)
        assert f1_at([0.9, 0.8, 0.2], [1, 1, 0], t) == 1.0

    def test_all_negative_gives_sentinel(self):
        assert fit_threshold([0.3, 0.1], [0, 0]) == math.inf

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            fit_threshold([], [])

    def test_misaligned_rejected(self):
        with pytest.raises(InputError):
            fit_threshold([0.5], [1, 0])

    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            scores = list(np.round(rng.normal(size=n), 3))
            y = list(rng.integers(0, 2, size=n))
            if sum(y) == 0:
                assert fit_threshold(scores, y) == math.inf
                continue
            t = fit_threshold(scores, y)
            best_f1, _ = exhaustive_threshold_oracle(scores, y)
            assert f1_at(scores, y, t) == pytest.approx(best_f1, abs=0)

    def test_tie_breaks_toward_lowest(self):
        # any threshold below all scores predicts everything; with all
        # positives every candidate has F1 = 1, so the lowest wins
        t = fit_threshold([0.1, 0.2], [1, 1])
        assert t == pytest.approx(0.1 - 1.0)

    @given(
        st.integers(1, 25).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.sampled_from([-1.0, 0.0, 0.25, 1.0, float(np.nextafter(1.0, 2.0))])
                    | st.floats(-10.0, 10.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
            )
        )
    )
    @example(([1.0, float(np.nextafter(1.0, 2.0))], [0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_matches_quadratic_oracle(self, case):
        scores, y = case
        assert fit_threshold(scores, y) == quadratic_threshold_oracle(scores, y)



def per_column_threshold_oracle(scores, y):
    """fit_threshold as it was before thresholds were fit in one batch: one
    column, one stable sort, and a binary search per candidate."""
    s = np.asarray(scores, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    n_pos = float(yv.sum())
    if n_pos == 0.0:
        return math.inf
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    pos_below = np.concatenate([[0], np.cumsum(yv[order] == 1.0)])
    uniq = np.unique(s)
    cands = np.concatenate(
        [[uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0]]
    )
    first = np.searchsorted(s_sorted, cands, side="left")
    tp = (pos_below[-1] - pos_below[first]).astype(np.float64)
    npred = (s.size - first).astype(np.float64)
    precision = tp / np.maximum(npred, 1.0)
    recall = tp / n_pos
    total = precision + recall
    f1 = 2.0 * precision * recall / np.where(total > 0.0, total, 1.0)
    return float(cands[int(np.argmax(f1))])


# Column centres: small ones, and magnitudes where u + 1 == u (>= 2**53)
# or where the sum of two neighbours overflows to +-inf.
_CENTRES = [0.0, -0.0, 0.25, -3.0, 2.0**53, -(2.0**53), 2.0**60, -(2.0**62), 1.5e308, -1.5e308]


@st.composite
def threshold_batches(draw):
    """(n x labels) scores and 0/1 targets. Each column draws from a centre,
    its float neighbours (np.nextafter) and the centre +-1, so ties and
    adjacent floats are common; some columns are constant, some targets
    have no positive, and n may be 1."""
    n = draw(st.integers(1, 12))
    columns, targets = [], []
    for _ in range(draw(st.integers(1, 5))):
        c = draw(st.sampled_from(_CENTRES))
        up, down = np.nextafter(c, np.inf), np.nextafter(c, -np.inf)
        near = [c, up, down, np.nextafter(up, np.inf), c + 1.0, c - 1.0, c * 0.5]
        value = st.sampled_from([float(v) for v in near]) | st.floats(-10.0, 10.0)
        if draw(st.booleans()):
            columns.append([draw(value)] * n)
        else:
            columns.append(draw(st.lists(value, min_size=n, max_size=n)))
        targets.append(draw(st.just([0] * n) | st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return np.array(columns, dtype=np.float64).T, np.array(targets, dtype=np.float64).T


class TestFitThresholds:
    @given(threshold_batches())
    @example((np.array([[1.0, 1.0], [float(np.nextafter(1.0, 2.0)), 1.0]]),
              np.array([[0.0, 1.0], [1.0, 0.0]])))
    @example((np.array([[2.0**53], [2.0**53 + 2.0]]), np.array([[0.0], [1.0]])))
    @example((np.array([[1.5e308, -3.0], [1.7e308, 5.0], [1.6e308, 5.0]]),
              np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])))
    @settings(max_examples=400, deadline=None)
    def test_each_column_matches_the_per_column_oracle(self, case):
        S, Y = case
        with np.errstate(over="ignore"):
            got = fit_thresholds(S, Y)
            want = [per_column_threshold_oracle(S[:, j], Y[:, j]) for j in range(S.shape[1])]
            one = [fit_threshold(S[:, j], Y[:, j]) for j in range(S.shape[1])]
        assert got.shape == (S.shape[1],)
        assert [float(t).hex() for t in got] == [t.hex() for t in want] == [t.hex() for t in one]

    def test_misaligned_or_empty_rejected(self):
        with pytest.raises(InputError, match="misaligned"):
            fit_thresholds(np.zeros((3, 2)), np.zeros((3, 1)))
        with pytest.raises(InputError, match="misaligned"):
            fit_thresholds(np.zeros(3), np.zeros(3))
        with pytest.raises(InputError, match="empty"):
            fit_thresholds(np.zeros((0, 2)), np.zeros((0, 2)))


def trivial_corpus():
    return [
        Encounter(encounter_id="e1", documents=("fever and chills today.",),
                  codes=frozenset({"A01"})),
        Encounter(encounter_id="e2", documents=("routine checkup, all clear.",),
                  codes=frozenset()),
    ]


def text_only_config(**kw):
    return PipelineConfig(ablation_mode="text_only", extraction_source="none", **kw)


class TestPipelineConfig:
    @pytest.mark.parametrize("bits", [-1, 0, 31])
    def test_hash_bits_out_of_range_rejected_at_construction(self, bits):
        with pytest.raises(ConfigError, match="hash bits"):
            PipelineConfig(hash_bits=bits)

    @pytest.mark.parametrize("bits", [None, 1, 30])
    def test_hash_bits_in_range_accepted(self, bits):
        assert PipelineConfig(hash_bits=bits).hash_bits == bits

    @pytest.mark.parametrize(
        "field, message",
        [
            ("unit", "unknown classification unit: 'bogus'"),
            ("ablation_mode", "unknown ablation mode: 'bogus'"),
            ("extraction_source", "unknown extraction source: 'bogus'"),
            ("rollup_provenances", "rollup_provenances must be None or a tuple"),
        ],
    )
    def test_unknown_encoding_value_rejected(self, field, message):
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(**{field: "bogus"})
        spec = PipelineConfig().spec
        with pytest.raises(ConfigError, match=message):
            replace(spec, **{field: "bogus"})

    @pytest.mark.parametrize("provenances", [("bogus",), ["database"], ("database", 1)])
    def test_rollup_provenances_must_be_known_names_in_a_tuple(self, provenances):
        with pytest.raises(ConfigError, match="rollup_provenances must be None or a tuple"):
            PipelineConfig(rollup_provenances=provenances)

    @pytest.mark.parametrize("provenances", [None, (), ("database", "text_extraction")])
    def test_rollup_provenances_accepted(self, provenances):
        assert PipelineConfig(rollup_provenances=provenances).spec.rollup_provenances == provenances

    def test_spec_follows_the_flat_fields(self):
        cfg = replace(text_only_config(), unit="encounter", rollup_provenances=None)
        assert cfg.spec == EncodingSpec(
            extraction_source="none", pattern_config=None, rollup_policy=cfg.rollup_policy,
            rollup_provenances=None, threshold_spec=cfg.threshold_spec,
            ablation_mode="text_only", unit="encounter",
        )
        assert train_all(trivial_corpus(), cfg).spec == cfg.spec

    def test_a_frozen_encoding_spec_with_its_defaults(self):
        cfg = PipelineConfig()
        assert isinstance(cfg, EncodingSpec) and type(cfg.spec) is EncodingSpec
        assert cfg.spec == EncodingSpec()
        with pytest.raises(FrozenInstanceError):
            cfg.lam = 2.0


class TestTrainAll:
    def test_smallest_case(self):
        bundle = train_all(trivial_corpus(), text_only_config())
        assert bundle.labels == ["A01"]

    def test_determinism_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "b1.json", tmp_path / "b2.json"
        save_bundle(train_all(trivial_corpus(), text_only_config()), p1)
        save_bundle(train_all(trivial_corpus(), text_only_config()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_labels_rejected(self):
        encs = [Encounter(encounter_id="e1", documents=("x.",)),
                Encounter(encounter_id="e2", documents=("y.",))]
        with pytest.raises(ConfigError):
            train_all(encs, text_only_config())

    def test_planted_signal_top_weight_is_dataword(self):
        spec = SynthSpec(seed=9, documents=120,
                         rules=(PlantedRule("L1", "Temp", "very_high", 1.0, 0.4),))
        encs = generate_synthetic(spec)
        bundle = train_all(encs, PipelineConfig(ablation_mode="text_plus_datawords"))
        column = bundle.weights[:, bundle.column("L1")]
        tokens = bundle.tfidf.vocabulary.tokens_by_index()
        top_token = tokens[int(column.indices[np.argmax(column.data)])]
        assert top_token.startswith("dw__temp__")

    def test_schedule_independence(self, tmp_path):
        spec = SynthSpec(seed=2, documents=60,
                         rules=(PlantedRule("L1", "Temp", "high", 0.9, 0.5),
                                PlantedRule("L2", "Pulse", "low", 0.9, 0.5)))
        encs = generate_synthetic(spec)
        cfg1 = PipelineConfig(threads=1)
        cfg4 = PipelineConfig(threads=4)
        p1, p4 = tmp_path / "t1.json", tmp_path / "t4.json"
        save_bundle(train_all(encs, cfg1), p1)
        save_bundle(train_all(encs, cfg4), p4)
        assert p1.read_bytes() == p4.read_bytes()

    def test_min_positive_drops_rare_labels(self):
        encs = trivial_corpus()
        with pytest.raises(ConfigError):
            train_all(encs, text_only_config(min_positive=2))

    def test_repeated_encounter_id_refused(self):
        # keyed by id, the first x's Temp record would be lost to the second's
        encs = [Encounter(encounter_id="x", documents=("Temp = 99.",), codes=frozenset({"A"})),
                Encounter(encounter_id="x", documents=("HR 50.",), codes=frozenset({"A"})),
                Encounter(encounter_id="y", documents=("HR 60.",), codes=frozenset({"A"})),
                Encounter(encounter_id="z", documents=("Temp = 98.",), codes=frozenset({"A"}))]
        message = r"^duplicate encounter_id 'x'$"
        with pytest.raises(DataError, match=message):
            build_corpus_units(encs, PipelineConfig())
        with pytest.raises(DataError, match=message):
            train_all(encs, PipelineConfig())
        assert len(build_corpus_units(encs[1:], PipelineConfig()).units) == 3


class TestPredict:
    def test_training_positive_replayed(self):
        encs = trivial_corpus()
        bundle = train_all(encs, text_only_config())
        psets = predict(bundle, encs[0])
        assert len(psets) == 1
        assert "A01" in psets[0].predicted_labels()
        negative = predict(bundle, encs[1])[0]
        assert "A01" not in negative.predicted_labels()

    def test_empty_text_scores_equal_bias(self):
        bundle = train_all(trivial_corpus(), text_only_config())
        empty = Encounter(encounter_id="probe", documents=("",))
        pset = predict(bundle, empty)[0]
        lm = bundle.label_models[bundle.column("A01")]
        assert pset.items[0].score == pytest.approx(lm.bias)
        assert pset.items[0].predicted == (lm.bias >= lm.threshold)

    def test_sentinel_threshold_never_predicts(self):
        bundle = train_all(trivial_corpus(), text_only_config())
        lm = replace(bundle.label_models[bundle.column("A01")], threshold=math.inf)
        bundle2 = replace(bundle, label_models=(lm,))
        pset = predict(bundle2, trivial_corpus()[0])[0]
        assert pset.predicted_labels() == set()

    def test_scores_sorted_descending(self):
        spec = SynthSpec(seed=4, documents=40,
                         rules=(PlantedRule("L1", "Temp", "high", 1.0, 0.5),
                                PlantedRule("L2", "Pulse", "low", 1.0, 0.5)))
        encs = generate_synthetic(spec)
        bundle = train_all(encs, PipelineConfig())
        pset = predict(bundle, encs[0])[0]
        scores = [it.score for it in pset.items]
        assert scores == sorted(scores, reverse=True)

    def test_one_prediction_set_per_document(self):
        enc = Encounter(encounter_id="e1", documents=("fever.", "stable."),
                        codes=frozenset({"A01"}))
        filler = Encounter(encounter_id="e2", documents=("other text.",), codes=frozenset())
        bundle = train_all([enc, filler], text_only_config())
        psets = predict(bundle, enc)
        assert [(p.encounter_id, p.doc_index) for p in psets] == [("e1", 0), ("e1", 1)]


class TestTrainPredictSymmetry:
    def test_unit_encoding_matches_training(self):
        spec = SynthSpec(seed=6, documents=30,
                         rules=(PlantedRule("L1", "Temp", "very_high", 1.0, 0.6),))
        encs = generate_synthetic(spec)
        cfg = PipelineConfig()
        bundle = train_all(encs, cfg)
        train_units = build_corpus_units(encs, cfg).units
        for enc, train_unit in zip(encs, train_units):
            replay = prepare_units(bundle, enc)[0]
            assert replay.text == train_unit.text
            assert [s.text for s in replay.sentences] == [s.text for s in train_unit.sentences]

    @pytest.mark.parametrize("hash_bits", [None, 12], ids=["indexed", "hashed"])
    def test_thresholds_refit_on_predicted_scores(self, hash_bits):
        spec = SynthSpec(seed=21, documents=60,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.5),
                                PlantedRule("L2", "HR", "low", 0.9, 0.5)))
        encs = generate_synthetic(spec)
        cfg = PipelineConfig(hash_bits=hash_bits)
        bundle = train_all(encs, cfg)
        units = build_corpus_units(encs, cfg).units
        psets = predict_units(bundle, units)
        for lm in bundle.label_models:
            scores = [next(it.score for it in p.items if it.label == lm.label) for p in psets]
            y = [int(lm.label in u.gold) for u in units]
            assert fit_threshold(scores, y).hex() == lm.threshold.hex()

    @pytest.mark.parametrize("unit", ["document", "encounter"])
    @pytest.mark.parametrize("mode", ["text_plus_datawords", "nonnumeric_datawords_only"])
    def test_db_units_replay_exactly(self, db_synth_corpus, unit, mode):
        corpus_path, db_path = db_synth_corpus
        encs = load_corpus(corpus_path)
        # a categorical variable encodes without statistics, so it shows
        # whether prediction applies the training-side selection
        records = tuple(load_db_measurements(db_path)) + tuple(
            StructuredRecord(name="Culture", value="negative", kind="test_result",
                             provenance="database", encounter_id=e.encounter_id)
            for e in encs[:5]
        )
        cfg = PipelineConfig(extraction_source="db", external_records=records, unit=unit,
                             ablation_mode=mode, rollup_provenances=None,
                             measurement_filter=MeasurementFilter(mode="top_n", n=1))
        bundle = train_all(encs, cfg)
        replay = [u for enc in encs for u in prepare_units(bundle, enc, records)]
        assert replay == build_corpus_units(encs, cfg).units



def word_encounters(seed, n, words_per_doc, vocabulary):
    """``n`` one-document encounters of words drawn from ``vocabulary`` words.
    Every encounter has code ALL, so that label's targets are constant and
    its weights come out exactly zero; every second has A, every third B."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocabulary)]
    return [
        Encounter(encounter_id=f"e{i}",
                  documents=(" ".join(rng.choice(words, size=words_per_doc)) + ".",),
                  codes=frozenset(["ALL"] + ["A"] * (i % 2 == 0) + ["B"] * (i % 3 == 0)))
        for i in range(n)
    ]


def train_capturing_scores(monkeypatch, encounters, config):
    """train_all's bundle and the score matrix S it fit the thresholds on."""
    seen = {}
    original = model.fit_thresholds

    def capture(S, Y):
        seen["S"] = S.copy()
        return original(S, Y)

    monkeypatch.setattr(model, "fit_thresholds", capture)
    return train_all(encounters, config), seen["S"]


class TestTrainingScores:
    """Training scores S = Xs Wk + b bit for bit as (X @ W).toarray() + b,
    the sparse product prediction makes."""

    @pytest.mark.parametrize("regime, n, words, vocabulary, hash_bits", [
        ("dual", 8, 30, 400, None),
        ("primal", 60, 12, 10, None),
        ("dual", 10, 25, 300, 8),
        ("primal", 80, 10, 400, 4),
    ], ids=["dual", "primal", "hashed-dual", "hashed-primal"])
    def test_scores_equal_the_sparse_product(self, monkeypatch, regime, n, words, vocabulary,
                                             hash_bits):
        encounters = word_encounters(n, n, words, vocabulary)
        config = PipelineConfig(ablation_mode="text_only", hash_bits=hash_bits)
        bundle, S = train_capturing_scores(monkeypatch, encounters, config)
        units = build_corpus_units(encounters, config).units
        X = _tfidf_rows(bundle.tfidf, [u.text for u in units])
        used = np.unique(X.indices).size
        assert (X.shape[0] < used) == (regime == "dual")
        W = bundle.weights
        all_column = bundle.column("ALL")
        assert W.indptr[all_column] == W.indptr[all_column + 1]  # Wk's column is all zeros
        b = np.array([lm.bias for lm in bundle.label_models])
        want = (X @ W).toarray() + b
        assert S.shape == want.shape
        assert np.array_equal(S.view(np.int64), want.view(np.int64))


def test_min_df_training_matches_public_reference():
    """train_all with min_df=2 against the same fit built from public
    functions: build_vocabulary, fit_idf, vectorize_document, fit_labels
    and one fit_threshold per label."""
    spec = SynthSpec(seed=8, documents=50, rules=(
        PlantedRule("L1", "Temp", "very_high", 0.9, 0.5),
        PlantedRule("L2", "HR", "low", 0.9, 0.5)))
    encounters = generate_synthetic(spec) + word_encounters(3, 12, 6, 5000)
    config = PipelineConfig(min_df=2)
    bundle = train_all(encounters, config)

    units = build_corpus_units(encounters, config).units
    texts = [u.text for u in units]
    vocab = build_vocabulary(texts, min_df=2)
    assert 0 < len(vocab) < len(build_vocabulary(texts))
    tfidf = fit_idf(vocab)
    X = stack_vectors([vectorize_document(tfidf, t) for t in texts], tfidf.dimension)
    labels = sorted({c for u in units for c in u.gold})
    Y = np.array([[float(label in u.gold) for label in labels] for u in units])
    W, b = fit_labels(X, Y, config.lam)
    S = (X @ W).toarray() + b

    assert bundle.tfidf.vocabulary.index == vocab.index
    assert list(bundle.tfidf.vocabulary.index) == list(vocab.index)
    assert bundle.tfidf.vocabulary.df == vocab.df
    assert bundle.tfidf.idf.tobytes() == tfidf.idf.tobytes()
    assert bundle.labels == labels
    got = bundle.weights
    assert np.array_equal(got.indptr, W.indptr) and np.array_equal(got.indices, W.indices)
    assert got.data.tobytes() == W.data.tobytes()
    assert [lm.bias.hex() for lm in bundle.label_models] == [float(v).hex() for v in b]
    assert [lm.threshold.hex() for lm in bundle.label_models] == [
        fit_threshold(S[:, j], Y[:, j]).hex() for j in range(len(labels))]


def test_external_records_keyed_only_where_read(db_synth_corpus, monkeypatch):
    """The external records are indexed by encounter only when the ablation
    mode and the extraction source read them: never in text_only or with
    the patterns source; else once per build_corpus_units, prepare_units
    and run_cv call, as run_cv's folds reuse the records it collected."""
    corpus_path, db_path = db_synth_corpus
    encounters = load_corpus(corpus_path)
    records = tuple(load_db_measurements(db_path))
    calls = []
    original = model._key_external

    def counting(recs):
        calls.append(1)
        return original(recs)

    monkeypatch.setattr(model, "_key_external", counting)
    cases = [("text_only", "db", False), ("text_only", "external", False),
             ("text_plus_datawords", "patterns", False), ("text_plus_datawords", "db", True),
             ("datawords_only", "external", True)]
    for mode, source, reads in cases:
        config = PipelineConfig(ablation_mode=mode, extraction_source=source,
                                external_records=records, rollup_provenances=None, folds=3)
        bundle = train_all(encounters, config)
        counted = []
        for step in (lambda: build_corpus_units(encounters, config),
                     lambda: prepare_units(bundle, encounters[0], records),
                     lambda: run_cv(encounters, config)):
            calls.clear()
            step()
            counted.append(len(calls))
        assert counted == ([1, 1, 1] if reads else [0, 0, 0]), (mode, source)


class TestUnitSentences:
    """DataWords sentences follow the unit's text sentences, numbered on
    under the unit's document index; an encounter unit numbers all of its
    sentences, its documents' in order and then its DataWords, under 0."""

    ENC = Encounter(encounter_id="e1", documents=("Fever. Temp = 104 now.", "Stable."),
                    codes=frozenset({"A01"}))

    def layout(self, unit):
        units = build_corpus_units([self.ENC], PipelineConfig(unit=unit)).units
        return [[(s.kind, s.doc_index, s.sent_index) for s in u.sentences] for u in units]

    def test_document_units(self):
        assert self.layout("document") == [
            [("text", 0, 0), ("text", 0, 1), ("dataword", 0, 2)],
            [("text", 1, 0)],
        ]

    def test_encounter_unit(self):
        assert self.layout("encounter") == [
            [("text", 0, 0), ("text", 0, 1), ("text", 0, 2), ("dataword", 0, 3)],
        ]


# Encounters of several documents, with pattern-extracted records (which
# name their document) and embedded database records (which name none).
MULTI_DOC = [
    Encounter(encounter_id="m1",
              documents=("Fever. Temp = 104 now.", "History of lung cancer. Stable!", "HR 50"),
              codes=frozenset({"A01"}),
              structured=(StructuredRecord(name="Smoking", value="never", kind="condition",
                                           provenance="database"),
                          StructuredRecord(name="Weight", value=70, provenance="database"))),
    Encounter(encounter_id="m2", documents=("Temp = 98.6. No complaints.", "Diabetes noted."),
              codes=frozenset({"B02"}),
              structured=(StructuredRecord(name="Weight", value=90, provenance="database"),)),
]


@pytest.mark.parametrize("mode", ABLATION_MODES)
@pytest.mark.parametrize("unit", UNIT_KINDS)
def test_unit_sentences_derive_from_its_text(unit, mode):
    """A unit's sentences hold exactly the tokens of its classified text:
    its kept document's sentences, then one sentence per DataWord, in
    (doc_index, sent_index) order."""
    units = build_corpus_units(MULTI_DOC, PipelineConfig(unit=unit, ablation_mode=mode)).units
    provenances = {dw.source.provenance for u in units for dw in u.datawords}
    assert provenances == (set() if mode == "text_only" else {"text_extraction", "database"})
    for u in units:
        sentences = u.sentences
        assert tokenize(u.text) == [t for s in sentences for t in tokenize(s.text)]
        split = len(sentences) - len(u.datawords)
        assert [(s.kind, s.display) for s in sentences[split:]] == [
            ("dataword", dw.display) for dw in u.datawords]
        assert all(s.kind == "text" for s in sentences[:split])
        keys = [(s.doc_index, s.sent_index) for s in sentences]
        assert keys == sorted(set(keys))


@given(st.integers(1, 4), st.lists(st.one_of(st.none(), st.integers(-2, 6)), max_size=12))
@settings(max_examples=100, deadline=None)
@example(3, [None, 0, 2, 5, None, 1, -1, 2])
def test_document_units_group_as_the_per_document_filter(n_docs, doc_indices):
    """One pass over the DataWords gives each document unit what filtering
    them all by ``doc_index in (di, None)`` gives, in the same order; an
    index outside the documents joins no unit."""
    records = [StructuredRecord(name=f"V{i}", value="x", kind="condition", doc_index=di)
               for i, di in enumerate(doc_indices)]
    enc = Encounter(encounter_id="e", documents=tuple(f"doc {i}" for i in range(n_docs)))
    units = model._encode(enc, PipelineConfig(extraction_source="none").spec, records, {})
    assert [[dw.source.name for dw in u.datawords] for u in units] == [
        [r.name for r in records if r.doc_index in (di, None)] for di in range(n_docs)]


def test_training_splits_no_sentences_and_text_only_encodes_no_record(monkeypatch):
    """Exact structured-record work per call: each encounter is extracted
    and rolled up once per train_all, build_corpus_units, prepare_units or
    run_cv call, and run_cv encodes it once per fold. text_only extracts
    and encodes nothing. Nothing splits sentences until they are read."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "encode_records":
                calls["records"] += len(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(corpus_module, "split_sentences")
    count(model, "split_sentences")
    count(model, "encode_records")
    count(extraction, "extract_patterns")
    count(model, "_rolled")
    synth = generate_synthetic(SynthSpec(seed=5, documents=16, rules=(
        PlantedRule("L1", "Temp", "very_high", 0.9, 0.5),)))
    multi_docs = sum(len(e.documents) for e in MULTI_DOC)

    def structured_calls():
        return [calls.pop(name, 0)
                for name in ("encode_records", "records", "extract_patterns", "_rolled")]

    for mode in ABLATION_MODES:
        config = PipelineConfig(ablation_mode=mode, folds=2)
        bundle = train_all(MULTI_DOC, config)
        trained = structured_calls()
        build_corpus_units(synth, config)
        once = structured_calls()
        run_cv(synth, config)
        cv = structured_calls()
        prepare_units(bundle, MULTI_DOC[0])
        prepared = structured_calls()
        extracts = mode != "text_only"
        assert trained == [2, trained[1], multi_docs if extracts else 0, 2], mode
        assert once == [16, once[1], 16 if extracts else 0, 16], mode
        assert cv == [2 * 16, 2 * once[1], 16 if extracts else 0, 16], mode
        assert prepared == [1, prepared[1], 3 if extracts else 0, 1], mode
        # MULTI_DOC holds records of both kinds, synth numeric ones only
        if mode == "text_only":
            assert trained[1] == once[1] == prepared[1] == 0
        else:
            assert trained[1] and prepared[1], mode
            assert bool(once[1]) == (mode != "nonnumeric_datawords_only"), mode
        assert calls["split_sentences"] == 0
    units = build_corpus_units(MULTI_DOC, PipelineConfig()).units
    for u in units + units:
        u.sentences
    assert calls["split_sentences"] == len(units)  # built once, when first read


def test_encode_tables_built_where_statistics_are_made(monkeypatch):
    """One EncodeTable per build_corpus_units call and one per bundle, so
    one of each per run_cv fold; encode_records builds none of its own, and
    a bundle's table keeps what it worked out across prepare_units calls."""
    built, entries = [], []

    class Counted(encoding.EncodeTable):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

        def _variable(self, name):
            entries.append(name)
            return super()._variable(name)

    monkeypatch.setattr(encoding, "EncodeTable", Counted)
    monkeypatch.setattr(model, "EncodeTable", Counted)
    synth = generate_synthetic(SynthSpec(seed=5, documents=16, rules=(
        PlantedRule("L1", "Temp", "very_high", 0.9, 0.5),)))
    run_cv(synth, PipelineConfig(folds=3))
    assert len(built) == 2 * 3
    bundle = train_all(MULTI_DOC, PipelineConfig())
    built.clear()
    first = prepare_units(bundle, MULTI_DOC[0])
    worked_out = len(entries)
    assert prepare_units(bundle, MULTI_DOC[0]) == first
    assert len(entries) == worked_out and built == []


def test_nonnumeric_ablation_keeps_the_selection_and_stores_no_statistics():
    """The measurement filter counts every record collected, numeric ones
    too, so the nonnumeric ablation selects the variables text plus
    DataWords selects and drops the numeric ones from that selection. A
    mode without numeric DataWords stores no statistics, and text only
    collects no record to select."""
    config = PipelineConfig(
        measurement_filter=MeasurementFilter(mode="top_n_excluding_top_m", n=4, m=1))
    bundles = {mode: train_all(MULTI_DOC, replace(config, ablation_mode=mode))
               for mode in ABLATION_MODES}
    assert bundles["text_plus_datawords"].selected_variables == ("Pulse", "Smoking", "Temp",
                                                                 "Weight")
    assert (bundles["nonnumeric_datawords_only"].selected_variables
            == bundles["text_plus_datawords"].selected_variables)
    assert bundles["text_only"].selected_variables == ()
    units = build_corpus_units(
        MULTI_DOC, replace(config, ablation_mode="nonnumeric_datawords_only")).units
    assert {dw.source.name for u in units for dw in u.datawords} == {"Smoking"}
    assert [mode for mode, b in bundles.items() if b.variable_stats] == [
        "text_plus_datawords", "datawords_only"]


def test_degenerate_cuts_warn_once_per_variable(caplog):
    """Many records of one flat variable give one warning, naming it; a
    variable with spread gives none."""
    encounters = [
        Encounter(encounter_id=f"e{i}", documents=(f"Flat = 5. Temp = {97 + i}.",),
                  codes=frozenset({"A"}))
        for i in range(50)
    ]
    with caplog.at_level(logging.WARNING, logger="datawords"):
        units = build_corpus_units(encounters, PipelineConfig(
            pattern_config=extraction.PatternConfig(aliases={"Flat": "Flat", "Temp": "Temp"})
        )).units
    assert sum(len(u.datawords) for u in units) == 100
    assert [r.getMessage() for r in caplog.records] == [
        "degenerate cuts for 'Flat' (zero spread); binning carries no information"]


class TestIdfRescaling:
    def test_ranking_stable_under_idf_scaling(self):
        # with L2 normalization on, scaling every idf by c > 0 leaves the
        # normalized vectors (hence any refit model's ranking) unchanged
        docs = ["a b c", "b c d", "a d e", "c e"]
        vocab = build_vocabulary(docs)
        model = fit_idf(vocab)
        scaled = fit_idf(vocab)
        scaled.idf = scaled.idf * 3.7
        y = np.array([1.0, 0.0, 1.0, 0.0])

        def scores_for(m):
            rows = [vectorize_document(m, d) for d in docs]
            X = stack_vectors(rows, m.dimension)
            w, b = fit_label(X, y, lam=1.0)
            return X @ w + b

        base = scores_for(model)
        resc = scores_for(scaled)
        assert list(np.argsort(-base)) == list(np.argsort(-resc))


class TestBundleRoundTrip:
    def make_bundle_and_probe(self):
        spec = SynthSpec(seed=8, documents=50,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.4),))
        encs = generate_synthetic(spec)
        bundle = train_all(encs, PipelineConfig())
        return bundle, encs

    def test_round_trip_predictions_identical(self, tmp_path):
        bundle, encs = self.make_bundle_and_probe()
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        for enc in encs:
            before = predict(bundle, enc)
            after = predict(loaded, enc)
            assert before == after

    def test_unsupported_version(self, tmp_path):
        bundle, _ = self.make_bundle_and_probe()
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        obj = json.loads(path.read_text())
        obj["format_version"] = "99"
        path.write_text(json.dumps(obj))
        with pytest.raises(UnsupportedVersionError):
            load_bundle(path)

    def test_format_1_must_be_retrained(self, tmp_path):
        bundle, _ = self.make_bundle_and_probe()
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        obj = json.loads(path.read_text())
        obj["format_version"] = "1"
        path.write_text(json.dumps(obj))
        with pytest.raises(UnsupportedVersionError, match=r"format_version '1'.*retrain"):
            load_bundle(path)

    def test_truncated_file_is_parse_error(self, tmp_path):
        bundle, _ = self.make_bundle_and_probe()
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataError):
            load_bundle(path)

    def test_streamed_save_matches_whole_document(self, tmp_path):
        bundle, _ = self.make_bundle_and_probe()
        for b in (bundle, replace(bundle, label_models=(), weights=bundle.weights[:, :0])):
            path = tmp_path / "bundle.json"
            save_bundle(b, path)
            whole = json.dumps(_bundle_to_dict(b), separators=(",", ":")) + "\n"
            assert path.read_bytes() == whole.encode("utf-8")

    def test_save_is_deterministic(self, tmp_path):
        bundle, _ = self.make_bundle_and_probe()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(bundle, p1)
        save_bundle(bundle, p2)
        assert p1.read_bytes() == p2.read_bytes()


def score_bits(psets):
    """Prediction sets with every score as its exact hex form."""
    return [
        (p.encounter_id, p.doc_index, [(it.label, it.score.hex(), it.predicted) for it in p.items])
        for p in psets
    ]


class TestPredictUnitsBatch:
    @pytest.fixture(params=[None, 12], ids=["indexed", "hashed"])
    def bundle_and_units(self, request):
        spec = SynthSpec(seed=21, documents=60,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.5),
                                PlantedRule("L2", "HR", "low", 0.9, 0.5)))
        encs = generate_synthetic(spec)
        bundle = train_all(encs[:40], PipelineConfig(hash_bits=request.param))
        units = [u for enc in encs[40:] for u in prepare_units(bundle, enc)]
        return bundle, units

    def test_batch_equals_one_call_per_unit(self, bundle_and_units):
        bundle, units = bundle_and_units
        one_by_one = [p for u in units for p in predict_units(bundle, [u])]
        assert score_bits(predict_units(bundle, units)) == score_bits(one_by_one)

    def test_empty_batch(self, bundle_and_units):
        bundle, _ = bundle_and_units
        assert predict_units(bundle, []) == []

    def test_zero_vector_unit_scores_its_biases(self, bundle_and_units):
        bundle, units = bundle_and_units
        zero = AugmentedUnit(encounter_id="z", doc_index=0, document="... !!", datawords=(),
                             gold=frozenset())
        assert vectorize_document(bundle.tfidf, zero.text).nnz == 0
        batch = units[:3] + [zero] + units[3:6]
        alone = [p for u in batch for p in predict_units(bundle, [u])]
        assert score_bits(predict_units(bundle, batch)) == score_bits(alone)
        biases = {lm.label: lm.bias for lm in bundle.label_models}
        assert all(it.score == biases[it.label] for it in alone[3].items)


_PROBE_WORDS = ("fever", "cough", "rash", "pain", "stable", "dw_temp_high")
_probe_texts = st.lists(st.sampled_from(_PROBE_WORDS + ("unseen",)), max_size=6).map(" ".join)
# a few repeated values make tied scores likely; zero is stored explicitly
_weight = st.sampled_from([0.0, 0.25, -0.5, 1.0]) | st.floats(-4.0, 4.0)


@st.composite
def scoring_cases(draw):
    """A bundle, indexed or hashed, normalized or not, whose labels are in
    drawn (mostly unsorted) order and whose weight columns may store zeros;
    plus units that include zero vectors (empty or all-OOV texts)."""
    docs = draw(st.lists(_probe_texts.filter(bool), min_size=1, max_size=5))
    normalize = draw(st.booleans())
    bits = draw(st.none() | st.integers(1, 4))
    if bits is None:
        tfidf = fit_idf(build_vocabulary(docs), normalize)
    else:
        tfidf = fit_hashed_idf(docs, bits, normalize)
    d = tfidf.dimension
    labels = draw(st.lists(st.text("ABCab", min_size=1, max_size=3), min_size=1, max_size=6,
                           unique=True))
    # None: no stored weight
    cells = draw(st.lists(st.lists(st.none() | _weight, min_size=d, max_size=d),
                          min_size=len(labels), max_size=len(labels)))
    weights = sparse.csc_matrix(
        ([w for col in cells for w in col if w is not None],
         [i for col in cells for i, w in enumerate(col) if w is not None],
         np.cumsum([0] + [sum(w is not None for w in col) for col in cells])),
        shape=(d, len(labels)),
    )
    bias = st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-4.0, 4.0)
    models = tuple(LabelModel(label=label, bias=draw(bias), threshold=draw(bias | st.just(math.inf)))
                   for label in labels)
    bundle = ModelBundle(tfidf=tfidf, variable_stats={}, spec=EncodingSpec(),
                         label_models=models, weights=weights)
    units = [AugmentedUnit(encounter_id=f"e{i}", doc_index=0, document=text, datawords=(),
                           gold=frozenset())
             for i, text in enumerate(draw(st.lists(_probe_texts, min_size=1, max_size=6)))]
    return bundle, units


def predict_oracle(bundle, unit):
    """Each label's score summed in pure Python, over the unit's entries in
    order from 0.0 and then plus the bias, and whether it is predicted."""
    vec = vectorize_document(bundle.tfidf, unit.text)
    W = bundle.weights.toarray()
    out = {}
    for j, lm in enumerate(bundle.label_models):
        acc = 0.0
        for f, v in zip(vec.indices.tolist(), vec.values.tolist()):
            acc += v * float(W[f, j])
        score = acc + lm.bias
        out[lm.label] = (score.hex(), score >= lm.threshold)
    return out


@settings(max_examples=80, deadline=None)
@given(case=scoring_cases())
def test_predict_units_matches_oracle_in_any_batch(case):
    bundle, units = case
    batch = predict_units(bundle, units)
    for unit, pset in zip(units, batch):
        oracle = predict_oracle(bundle, unit)
        assert {it.label: (it.score.hex(), it.predicted) for it in pset.items} == oracle
        assert list(pset.items) == sorted(pset.items, key=lambda it: (-it.score, it.label))
    one_by_one = [p for u in units for p in predict_units(bundle, [u])]
    assert score_bits(batch) == score_bits(one_by_one)


class TestWeightMatrix:
    @pytest.fixture(scope="class")
    def bundle(self):
        corpus = trivial_corpus() + [
            Encounter(encounter_id="e3", documents=("cough since monday.",),
                      codes=frozenset({"B02"})),
        ]
        return train_all(corpus, text_only_config())

    def test_one_column_per_label(self, bundle):
        W = bundle.weights
        assert W.format == "csc" and W.shape == (bundle.tfidf.dimension, 2)
        assert W.has_sorted_indices and np.all(W.data != 0)
        assert [bundle.column(label) for label in bundle.labels] == [0, 1]

    @pytest.mark.parametrize(
        "field, value",
        [("weights", None), ("label_models", ()), ("tfidf", None), ("lam", 2.0)],
    )
    def test_fields_cannot_be_assigned(self, bundle, field, value):
        with pytest.raises(FrozenInstanceError):
            setattr(bundle, field, value)

    def test_label_model_cannot_be_assigned(self, bundle):
        with pytest.raises(FrozenInstanceError):
            bundle.label_models[0].threshold = math.inf

    @pytest.mark.parametrize(
        "weights",
        [
            lambda W: W[:, :1],
            lambda W: W[:-1, :],
            lambda W: sparse.hstack([W, W], format="csc"),
            lambda W: W.tocsr(),
            lambda W: W.toarray(),
        ],
        ids=["fewer_columns", "fewer_rows", "more_columns", "csr", "dense"],
    )
    def test_weights_of_wrong_shape_or_format_refused(self, bundle, weights):
        with pytest.raises(ValueError, match=r"weights must be a \d+ x 2 CSC matrix, indices sorted"):
            replace(bundle, weights=weights(bundle.weights))

    def test_unsorted_column_refused(self, bundle):
        W = sparse.csc_matrix(
            ([1.0, 2.0], [1, 0], [0, 2, 2]), shape=(bundle.tfidf.dimension, 2)
        )
        with pytest.raises(ValueError, match="indices sorted"):
            replace(bundle, weights=W)

    def test_repeated_label_refused(self, bundle):
        lms = bundle.label_models
        with pytest.raises(ValueError, match=f"label {lms[0].label!r}: repeats an earlier label"):
            replace(bundle, label_models=(lms[0], replace(lms[1], label=lms[0].label)))

    def test_new_bundle_with_fewer_labels_scores_its_columns(self, bundle):
        units = [u for e in trivial_corpus() for u in prepare_units(bundle, e)]
        smaller = replace(bundle, label_models=bundle.label_models[1:],
                          weights=bundle.weights[:, 1:])
        assert smaller.labels == bundle.labels[1:]
        before = {(p.encounter_id, it.label): it.score.hex()
                  for p in predict_units(bundle, units) for it in p.items}
        for unit, pset in zip(units, predict_units(smaller, units)):
            dense = vectorize_document(bundle.tfidf, unit.text).to_dense()
            for it in pset.items:
                lm = smaller.label_models[smaller.column(it.label)]
                oracle = float(dense @ bundle.weights.toarray()[:, 1]) + lm.bias
                assert it.score == pytest.approx(oracle, abs=1e-12)
                assert it.score.hex() == before[(unit.encounter_id, it.label)]


def edit_column(entry, edit):
    """Decode a saved label's weight column, apply ``edit(indices, values)``
    and store the result, re-encoded, in place."""
    indices = np.frombuffer(base64.b64decode(entry["indices"]), "<i4")
    values = np.frombuffer(base64.b64decode(entry["values"]), "<f8")
    indices, values = edit(indices, values)
    entry["indices"] = base64.b64encode(np.asarray(indices, "<i4").tobytes()).decode("ascii")
    entry["values"] = base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


@pytest.fixture(scope="module")
def small_bundle():
    spec = SynthSpec(seed=8, documents=30,
                     rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.4),))
    return train_all(generate_synthetic(spec), PipelineConfig())


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e300]
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)


@st.composite
def label_columns(draw, dimension):
    """A label model with a weight column (indices, values) of its own."""
    indices = sorted(draw(st.sets(st.integers(0, dimension - 1), max_size=12)))
    lm = LabelModel(
        label=draw(st.text(min_size=1, max_size=4)),
        bias=draw(_finite),
        threshold=draw(_finite | st.just(math.inf)),
    )
    return lm, indices, [draw(_finite) for _ in indices]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_label_columns_round_trip_bit_exact(small_bundle, data):
    # a bundle without labels is refused on load, so every drawn one has one
    columns = data.draw(st.lists(label_columns(small_bundle.tfidf.dimension), min_size=1,
                                 max_size=4, unique_by=lambda c: c[0].label))
    indptr = np.cumsum([0] + [len(idx) for _, idx, _ in columns])
    weights = sparse.csc_matrix(
        (np.array([v for _, _, val in columns for v in val], dtype=np.float64),
         np.array([i for _, idx, _ in columns for i in idx], dtype=np.int64), indptr),
        shape=(small_bundle.tfidf.dimension, len(columns)),
    )
    bundle = replace(small_bundle, label_models=tuple(lm for lm, _, _ in columns),
                     weights=weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.json"
        save_bundle(bundle, path)
        whole = json.dumps(_bundle_to_dict(bundle), separators=(",", ":")) + "\n"
        assert path.read_bytes() == whole.encode("utf-8")
        loaded = load_bundle(path)
    assert len(loaded.label_models) == len(columns)
    W = loaded.weights
    assert W.format == "csc" and W.shape == weights.shape
    assert W.data.dtype == np.float64
    assert W.indptr.tolist() == indptr.tolist()
    assert W.indices.tolist() == weights.indices.tolist()
    assert W.data.tobytes() == weights.data.tobytes()
    for got, (want, _, _) in zip(loaded.label_models, columns):
        assert got.label == want.label
        assert got.bias.hex() == want.bias.hex()
        assert got.threshold.hex() == want.threshold.hex()


class TestLoadBundleValidation:
    """Each corruption used to load and then fail or go NaN at predict time."""

    @pytest.fixture
    def saved(self, tmp_path):
        spec = SynthSpec(seed=8, documents=60,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.4),))
        encs = generate_synthetic(spec)
        path = tmp_path / "bundle.json"
        save_bundle(train_all(encs, PipelineConfig()), path)
        return path, json.loads(path.read_text())

    def rejects(self, path, obj, message):
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            load_bundle(path)

    def test_untouched_bundle_loads(self, saved):
        path, _ = saved
        assert load_bundle(path).labels == ["L1"]

    def test_idf_shorter_than_tokens(self, saved):
        path, obj = saved
        obj["tfidf"]["idf"] = obj["tfidf"]["idf"][:5]
        self.rejects(path, obj, r"tfidf.idf has 5 entries for \d+ tokens")

    def test_weight_index_beyond_dimension(self, saved):
        path, obj = saved
        edit_column(obj["labels"][0], lambda idx, val: (np.append(idx[:-1], 10**6), val))
        self.rejects(path, obj, r"label 'L1': weight index 1000000 outside \[0, \d+\)")

    def test_negative_weight_index(self, saved):
        path, obj = saved
        edit_column(obj["labels"][0], lambda idx, val: (np.append(-1, idx[1:]), val))
        self.rejects(path, obj, r"weight index -1 outside")

    @pytest.mark.parametrize("key", ["indices", "values"])
    def test_invalid_base64(self, saved, key):
        path, obj = saved
        obj["labels"][0][key] = "AAAAAAAA*AAA="  # decodes once the "*" is dropped
        self.rejects(path, obj, f"label 'L1': {key} is not valid base64")

    @pytest.mark.parametrize("key", ["indices", "values"])
    def test_non_string_column(self, saved, key):
        path, obj = saved
        obj["labels"][0][key] = [0, 1]
        self.rejects(path, obj, f"label 'L1': {key} must be a base64 string")

    @pytest.mark.parametrize("key, itemsize", [("indices", 4), ("values", 8)])
    def test_truncated_byte_length(self, saved, key, itemsize):
        path, obj = saved
        raw = base64.b64decode(obj["labels"][0][key])
        obj["labels"][0][key] = base64.b64encode(raw[:-1]).decode("ascii")
        self.rejects(
            path, obj,
            f"label 'L1': {key} holds {len(raw) - 1} bytes, not a whole number of {itemsize}-byte",
        )

    def test_index_value_count_mismatch(self, saved):
        path, obj = saved
        n = len(base64.b64decode(obj["labels"][0]["indices"])) // 4
        edit_column(obj["labels"][0], lambda idx, val: (idx, val[:-1]))
        self.rejects(path, obj, f"label 'L1': {n} weight indices for {n - 1} values")

    def test_weight_indices_out_of_order(self, saved):
        path, obj = saved
        edit_column(obj["labels"][0], lambda idx, val: (idx[[1, 0, *range(2, idx.size)]], val))
        self.rejects(path, obj, "strictly increasing")

    def test_non_finite_weight(self, saved):
        path, obj = saved
        edit_column(obj["labels"][0], lambda idx, val: (idx, np.append(np.nan, val[1:])))
        self.rejects(path, obj, "label 'L1': weights must be finite")

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_bias(self, saved, bad):
        path, obj = saved
        obj["labels"][0]["bias"] = bad
        self.rejects(path, obj, "bias must be finite")

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_threshold(self, saved, bad):
        path, obj = saved
        obj["labels"][0]["threshold"] = bad
        self.rejects(path, obj, "threshold must be finite or null")

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda labels: labels[0].update(code=["L1"]),
             r"label \['L1'\]: code must be a nonempty string"),
            (lambda labels: labels[0].update(code=""), "label '': code must be a nonempty string"),
            (lambda labels: labels[0].update(code=7), "label 7: code must be a nonempty string"),
            (lambda labels: labels[0].update(code=None),
             "label None: code must be a nonempty string"),
            (lambda labels: labels.append(dict(labels[0])), "label 'L1': repeats an earlier label"),
            (lambda labels: labels[0].update(bias="0.5"),
             "label 'L1': bias must be a number, got '0.5'"),
            (lambda labels: labels[0].update(bias=True), "label 'L1': bias must be a number"),
            (lambda labels: labels[0].update(bias=None), "label 'L1': bias must be a number"),
            (lambda labels: labels[0].update(bias=10**400), "int too large"),
            (lambda labels: labels[0].update(threshold="0.5"),
             "label 'L1': threshold must be a number or null, got '0.5'"),
            (lambda labels: labels[0].update(threshold=False),
             "label 'L1': threshold must be a number or null"),
            (lambda labels: labels[0].update(threshold=[0.5]),
             "label 'L1': threshold must be a number or null"),
        ],
        ids=["list_code", "empty_code", "integer_code", "null_code", "repeated_code",
             "string_bias", "boolean_bias", "null_bias", "huge_integer_bias",
             "string_threshold", "boolean_threshold", "list_threshold"],
    )
    def test_bad_label_entry(self, saved, corrupt, message):
        path, obj = saved
        corrupt(obj["labels"])
        self.rejects(path, obj, message)

    def test_integer_bias_and_threshold_load_as_floats(self, saved):
        path, obj = saved
        obj["labels"][0].update(bias=1, threshold=0)
        path.write_text(json.dumps(obj))
        lm = load_bundle(path).label_models[0]
        assert (lm.bias, lm.threshold) == (1.0, 0.0)
        assert type(lm.bias) is float and type(lm.threshold) is float

    def test_null_threshold_is_never_predicted(self, saved):
        path, obj = saved
        obj["labels"][0]["threshold"] = None
        path.write_text(json.dumps(obj))
        assert load_bundle(path).label_models[0].threshold == math.inf

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda obj: obj.update(unit="bogus"), "unknown classification unit: 'bogus'"),
            (lambda obj: obj.update(ablation_mode="bogus"), "unknown ablation mode: 'bogus'"),
            (lambda obj: obj["extraction"].update(source="bogus"),
             "unknown extraction source: 'bogus'"),
            (lambda obj: obj["rollup"].update(aggregates=["avg"]), "unknown roll-up aggregates"),
            (lambda obj: obj.update(tokenizer={"kind": "word", "lowercase": False}),
             "unsupported tokenizer"),
            (lambda obj: obj.update(selected_variables="Temp_mean"),
             "selected_variables must be null or a list of strings, got 'Temp_mean'"),
            (lambda obj: obj.update(selected_variables=["Temp_mean", 3]),
             "selected_variables must be null or a list of strings"),
            (lambda obj: obj["rollup"].update(provenances="database"),
             "rollup_provenances must be None or a tuple of names .*, got 'database'"),
            (lambda obj: obj["rollup"].update(provenances=["database", "ocr"]),
             "rollup_provenances must be None or a tuple of names"),
            (lambda obj: obj["rollup"].update(provenances={"database": 1}),
             "rollup_provenances must be None or a tuple of names"),
        ],
        ids=["unit", "ablation_mode", "extraction_source", "rollup_aggregate", "tokenizer",
             "string_selected_variables", "non_string_selected_variable",
             "string_rollup_provenances", "unknown_rollup_provenance", "object_rollup_provenances"],
    )
    def test_unknown_spec_value_or_tokenizer(self, saved, corrupt, message):
        path, obj = saved
        corrupt(obj)
        self.rejects(path, obj, message)

    def test_selected_variables_list_loads_as_tuple(self, saved):
        path, obj = saved
        obj["selected_variables"] = ["Temp_mean", "Pulse_max"]
        path.write_text(json.dumps(obj))
        assert load_bundle(path).selected_variables == ("Temp_mean", "Pulse_max")

    def test_missing_tokenizer_accepted(self, saved):
        path, obj = saved
        del obj["tokenizer"]
        path.write_text(json.dumps(obj))
        assert load_bundle(path).labels == ["L1"]

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda tf: tf["idf"].__setitem__(0, float("nan")),
             r"tfidf.idf\[0\] must be a finite positive number, got nan"),
            (lambda tf: tf["idf"].__setitem__(1, float("inf")),
             r"tfidf.idf\[1\] must be a finite positive number, got inf"),
            (lambda tf: tf["idf"].__setitem__(0, "1.6"),
             r"tfidf.idf\[0\] must be a finite positive number, got '1.6'"),
            (lambda tf: tf["idf"].__setitem__(2, -1.5),
             r"tfidf.idf\[2\] must be a finite positive number, got -1.5"),
            (lambda tf: tf["idf"].__setitem__(0, 0), r"tfidf.idf\[0\] .* got 0"),
            (lambda tf: tf["idf"].__setitem__(0, True), r"tfidf.idf\[0\] .* got True"),
            (lambda tf: tf.update(normalize="false"),
             "tfidf.normalize must be true or false, got 'false'"),
            (lambda tf: tf.update(normalize=1), "tfidf.normalize must be true or false, got 1"),
            (lambda tf: tf.update(document_count="60"),
             "tfidf.document_count must be an integer >= 0, got '60'"),
            (lambda tf: tf.update(document_count=60.0),
             "tfidf.document_count must be an integer >= 0, got 60.0"),
            (lambda tf: tf.update(document_count=-1),
             "tfidf.document_count must be an integer >= 0, got -1"),
            (lambda tf: tf["tokens"][0].__setitem__(1, "2"),
             r"tfidf.tokens df of '\w+' must be an integer in \[0, 60\], got '2'"),
            (lambda tf: tf["tokens"][0].__setitem__(1, 61),
             r"tfidf.tokens df of '\w+' must be an integer in \[0, 60\], got 61"),
            (lambda tf: tf["tokens"][0].__setitem__(0, 5), "tfidf.tokens must be strings, got 5"),
            (lambda tf: tf["tokens"][1].__setitem__(0, ["x"]),
             r"tfidf.tokens must be strings, got \['x'\]"),
            (lambda tf: tf["tokens"][1].__setitem__(0, tf["tokens"][0][0]),
             r"tfidf.tokens repeats '\w+'"),
        ],
        ids=["nan_idf", "inf_idf", "string_idf", "negative_idf", "zero_idf", "boolean_idf",
             "string_normalize", "integer_normalize", "string_document_count",
             "float_document_count", "negative_document_count", "string_df",
             "df_above_document_count", "integer_token", "list_token", "repeated_token"],
    )
    def test_bad_tfidf_header(self, saved, corrupt, message):
        path, obj = saved
        corrupt(obj["tfidf"])
        self.rejects(path, obj, message)

    @pytest.mark.parametrize(
        "lam, message",
        [(-5, "lambda must be a finite positive number, got -5"),
         (0, "got 0"), ("1.0", "got '1.0'"), (float("inf"), "got inf"),
         (float("nan"), "got nan"), (True, "got True")],
        ids=["negative", "zero", "string", "inf", "nan", "boolean"],
    )
    def test_bad_lambda(self, saved, lam, message):
        path, obj = saved
        obj["lambda"] = lam
        self.rejects(path, obj, message)

    def test_integer_lambda_loads_as_float(self, saved):
        path, obj = saved
        obj["lambda"] = 2
        path.write_text(json.dumps(obj))
        lam = load_bundle(path).lam
        assert lam == 2.0 and type(lam) is float

    @pytest.mark.parametrize(
        "position, value, message",
        [(0, "3", "count must be an integer >= 0, got '3'"),
         (0, True, "count must be an integer >= 0, got True"),
         (0, 3.0, "count must be an integer >= 0, got 3.0"),
         (1, "98.6", "mean must be a finite number, got '98.6'"),
         (2, None, "std must be a finite number >= 0, got None"),
         # JSON's NaN and Infinity literals parse; compute_stats writes none
         # of these, and each would change how Temp readings bin
         (1, math.nan, "mean must be a finite number, got nan"),
         (1, -math.inf, "mean must be a finite number, got -inf"),
         (2, math.nan, "std must be a finite number >= 0, got nan"),
         (2, math.inf, "std must be a finite number >= 0, got inf"),
         (2, -3.0, "std must be a finite number >= 0, got -3.0")],
        ids=["string_count", "boolean_count", "float_count", "string_mean", "null_std",
             "nan_mean", "minus_infinity_mean", "nan_std", "infinite_std", "negative_std"],
    )
    def test_bad_variable_stats(self, saved, position, value, message):
        path, obj = saved
        obj["variable_stats"]["Temp"][position] = value
        self.rejects(path, obj, f"variable_stats.Temp {message}")

    @pytest.fixture
    def saved_hashed(self, tmp_path):
        spec = SynthSpec(seed=8, documents=40,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.4),))
        path = tmp_path / "hashed.json"
        save_bundle(train_all(generate_synthetic(spec), PipelineConfig(hash_bits=8)), path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda tf: tf.update(bits="8"), "tfidf.bits must be an integer, got '8'"),
            (lambda tf: tf.update(bits=8.0), "tfidf.bits must be an integer, got 8.0"),
            (lambda tf: tf["df"][0].__setitem__(0, "3"),
             "tfidf.df slot must be an integer, got '3'"),
            (lambda tf: tf["df"][0].__setitem__(1, "2"),
             r"tfidf.df count of slot \d+ must be an integer in \[0, 40\], got '2'"),
            (lambda tf: tf["df"][0].__setitem__(1, -1), r"count of slot \d+ .* got -1"),
            (lambda tf: tf["df"][0].__setitem__(1, 41), r"count of slot \d+ .* got 41"),
            (lambda tf: tf.update(normalize="true"),
             "tfidf.normalize must be true or false, got 'true'"),
            (lambda tf: tf.update(document_count="40"),
             "tfidf.document_count must be an integer >= 0, got '40'"),
        ],
        ids=["string_bits", "float_bits", "string_slot", "string_df", "negative_df",
             "df_above_document_count", "string_normalize", "string_document_count"],
    )
    def test_bad_hashed_tfidf_header(self, saved_hashed, corrupt, message):
        path, obj = saved_hashed
        corrupt(obj["tfidf"])
        self.rejects(path, obj, message)

    def test_hashed_bundle_loads(self, saved_hashed):
        path, _ = saved_hashed
        bundle = load_bundle(path)
        assert bundle.tfidf.hash_bits == 8 and bundle.labels == ["L1"]

    def test_hashed_df_slot_beyond_table(self, tmp_path):
        spec = SynthSpec(seed=8, documents=40,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.4),))
        path = tmp_path / "hashed.json"
        save_bundle(train_all(generate_synthetic(spec), PipelineConfig(hash_bits=8)), path)
        obj = json.loads(path.read_text())
        obj["tfidf"]["df"][0][0] = 256
        self.rejects(path, obj, r"hashed df slot 256 outside \[0, 256\)")
        obj["tfidf"]["df"][0][0] = 0
        obj["tfidf"]["bits"] = 40
        self.rejects(path, obj, r"hash bits must be in \[1, 30\]")
