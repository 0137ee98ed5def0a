import math

import numpy as np
import pytest

from datawords.corpus import tokenize
from datawords.errors import ConfigError
from datawords.vectorize import (
    build_vocabulary,
    fit_hashed_idf,
    fit_idf,
    stack_vectors,
    vectorize_document,
)


def dense_tfidf_oracle(train_docs, doc, normalize=True):
    """Brute-force dense tf-idf, independent of the sparse implementation."""
    vocab = []
    for d in train_docs:
        for tok in tokenize(d):
            if tok not in vocab:
                vocab.append(tok)
    n = len(train_docs)
    df = {t: sum(1 for d in train_docs if t in tokenize(d)) for t in vocab}
    dense = np.zeros(len(vocab))
    toks = tokenize(doc)
    for i, t in enumerate(vocab):
        count = toks.count(t)
        if count > 0:
            tf = 1.0 + math.log(count)
            idf = math.log((1.0 + n) / (1.0 + df[t])) + 1.0
            dense[i] = tf * idf
    if normalize:
        norm = np.linalg.norm(dense)
        if norm > 0:
            dense = dense / norm
    return dense


class TestVocabulary:
    def test_counts_and_first_seen_order(self):
        vocab = build_vocabulary(["a b", "b c"])
        assert vocab.index == {"a": 0, "b": 1, "c": 2}
        assert vocab.df == {"a": 1, "b": 2, "c": 1}
        assert vocab.document_count == 2

    def test_dataword_tokens_enter_vocabulary(self):
        vocab = build_vocabulary(["dw__Temp__mid_range."])
        assert "dw__temp__mid_range" in vocab.index

    def test_empty_documents_allowed(self):
        vocab = build_vocabulary(["", ""])
        assert len(vocab) == 0 and vocab.document_count == 2

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError):
            build_vocabulary([])

    def test_min_df_reindexes_densely(self):
        vocab = build_vocabulary(["a b", "b c"], min_df=2)
        assert vocab.index == {"b": 0}


class TestIdf:
    def test_formula_values(self):
        vocab = build_vocabulary(["a b", "b c"])
        model = fit_idf(vocab)
        assert model.idf[vocab.index["b"]] == pytest.approx(1.0)
        assert model.idf[vocab.index["a"]] == pytest.approx(math.log(3.0 / 2.0) + 1.0)

    def test_formula_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            df = int(rng.integers(1, n + 1))
            docs = ["tok" if i < df else "other" for i in range(n)]
            vocab = build_vocabulary(docs)
            model = fit_idf(vocab)
            expected = math.log((1.0 + n) / (1.0 + df)) + 1.0
            assert abs(model.idf[vocab.index["tok"]] - expected) <= 1e-12

    def test_idf_positive(self):
        vocab = build_vocabulary(["a a a", "a", "a b"])
        model = fit_idf(vocab)
        assert np.all(model.idf > 0)


class TestVectorizeDocument:
    def test_hand_computed_example(self):
        vocab = build_vocabulary(["a b", "b c"])
        model = fit_idf(vocab)
        vec = vectorize_document(model, "a b")
        dense = vec.to_dense()
        assert dense[vocab.index["a"]] == pytest.approx(0.8148, abs=1e-4)
        assert dense[vocab.index["b"]] == pytest.approx(0.5797, abs=1e-4)

    def test_oov_gives_zero_vector(self):
        model = fit_idf(build_vocabulary(["a b", "b c"]))
        vec = vectorize_document(model, "zzz")
        assert vec.nnz == 0 and vec.dimension == 3

    def test_single_component_normalizes_to_one(self):
        model = fit_idf(build_vocabulary(["a b", "b c"]))
        vec = vectorize_document(model, "b b b")
        assert vec.nnz == 1
        assert vec.values[0] == pytest.approx(1.0)

    def test_unit_norm_for_nonempty(self):
        model = fit_idf(build_vocabulary(["a b c", "c d e", "e f"]))
        vec = vectorize_document(model, "a c e e f")
        assert np.linalg.norm(vec.to_dense()) == pytest.approx(1.0)

    def test_indices_strictly_increasing_no_zeros(self):
        model = fit_idf(build_vocabulary(["c b a", "a d"]))
        vec = vectorize_document(model, "d a c")
        assert list(vec.indices) == sorted(set(vec.indices))
        assert np.all(vec.values != 0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        tokens = [f"t{i}" for i in range(12)]
        for _ in range(20):
            n_docs = int(rng.integers(1, 7))
            docs = [
                " ".join(rng.choice(tokens, size=rng.integers(0, 15)))
                for _ in range(n_docs)
            ]
            model = fit_idf(build_vocabulary(docs))
            probe = " ".join(rng.choice(tokens, size=rng.integers(0, 15)))
            got = vectorize_document(model, probe).to_dense()
            want = dense_tfidf_oracle(docs, probe)
            assert got.shape == want.shape
            if got.size:
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_deterministic_across_runs(self):
        docs = ["a b c", "c d", "d e f g"]
        m1 = fit_idf(build_vocabulary(docs))
        m2 = fit_idf(build_vocabulary(docs))
        assert m1.vocabulary.index == m2.vocabulary.index
        assert np.array_equal(m1.idf, m2.idf)


class TestHashedMode:
    def test_fixed_dimension_and_norm(self):
        model = fit_hashed_idf(["a b c", "d e"], bits=6)
        assert model.dimension == 64
        vec = vectorize_document(model, "a b q")
        assert np.linalg.norm(vec.to_dense()) == pytest.approx(1.0)

    def test_deterministic(self):
        m1 = fit_hashed_idf(["a b", "c"], bits=8)
        m2 = fit_hashed_idf(["a b", "c"], bits=8)
        assert np.array_equal(m1.idf, m2.idf)
        v1 = vectorize_document(m1, "a c x")
        v2 = vectorize_document(m2, "a c x")
        assert np.array_equal(v1.to_dense(), v2.to_dense())

    def test_bits_validated(self):
        with pytest.raises(ConfigError):
            fit_hashed_idf(["a"], bits=0)


class TestStackVectors:
    def test_matrix_shape_and_content(self):
        model = fit_idf(build_vocabulary(["a b", "b c"]))
        vecs = [vectorize_document(model, d) for d in ("a b", "zzz", "c")]
        X = stack_vectors(vecs, model.dimension)
        assert X.shape == (3, 3)
        assert np.array_equal(np.asarray(X.todense())[0], vecs[0].to_dense())
        assert np.asarray(X.todense())[1].sum() == 0.0
