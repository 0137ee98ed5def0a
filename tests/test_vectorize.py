import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datawords import vectorize
from datawords.corpus import Sentence, tokenize
from datawords.errors import ConfigError
from datawords.model import PipelineConfig
from datawords.vectorize import (
    _fit_tfidf,
    _hash_slot,
    _tfidf_rows,
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


def counter_vector(model, text):
    """One text's (indices, values) as vectorize_document built them before
    all rows came from one pass: a sorted Counter of the text's features,
    two arrays made with np.fromiter, and the norm of the whole array."""
    counts = Counter()
    for tok in tokenize(text):
        if model.hash_bits is not None:
            counts[_hash_slot(tok, model.hash_bits)] += 1
        elif tok in model.vocabulary.index:
            counts[model.vocabulary.index[tok]] += 1
    if not counts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    items = sorted(counts.items())
    indices = np.fromiter((ix for ix, _ in items), dtype=np.int64, count=len(items))
    tf = 1.0 + np.log(np.fromiter((c for _, c in items), dtype=np.float64, count=len(items)))
    values = tf * model.idf[indices]
    if model.l2_normalize:
        norm = math.sqrt(float(np.dot(values, values)))
        if norm > 0.0:
            values = values / norm
    return indices, values


# Greek words whose capital sigma lowers to a final or a medial sigma
# depending on what follows it, and enough Latin words for rows of more
# than 16 distinct features, where BLAS ddot switches to its unrolled kernel.
VOCAB_WORDS = ["ΑΣ", "ΟΔΟΣ", "σοφός", "ΣΟΦΟΣ", "ας", "β"] + [f"w{i}" for i in range(24)]
OOV_WORDS = ["zzz", "qq", "ΑΣΣ"]
SEPARATORS = [" ", ". ", ".", "!", "?", ", ", "\n"]


@st.composite
def text_strategy(draw, words, min_size=0):
    toks = draw(st.lists(st.sampled_from(words), min_size=min_size, max_size=24))
    out = ""
    for tok in toks:
        out += tok + draw(st.sampled_from(SEPARATORS))
    return out


@st.composite
def model_and_texts(draw):
    """A fitted tf-idf model, indexed or hashed, normalized or not, and a
    unit's texts: empty, all-OOV, repeated-token and mixed ones, plus one
    with at least 20 distinct vocabulary words."""
    train = draw(st.lists(text_strategy(VOCAB_WORDS), min_size=1, max_size=6))
    train.append(" ".join(VOCAB_WORDS))  # every vocabulary word is known
    normalize = draw(st.booleans())
    bits = draw(st.none() | st.integers(min_value=4, max_value=16))
    if bits is None:
        model = fit_idf(build_vocabulary(train), l2_normalize=normalize)
    else:
        model = fit_hashed_idf(train, bits=bits, l2_normalize=normalize)
    word = st.sampled_from(VOCAB_WORDS)
    texts = draw(st.lists(
        st.one_of(
            text_strategy(VOCAB_WORDS + OOV_WORDS),
            text_strategy(OOV_WORDS),
            st.builds(lambda w, n: " ".join([w] * n), word, st.integers(1, 6)),
            st.just(""),
        ),
        max_size=8,
    ))
    wide = draw(st.lists(word, min_size=20, max_size=len(VOCAB_WORDS), unique=True))
    texts.insert(draw(st.integers(0, len(texts))), " ".join(wide))
    return model, texts


def hex_row(indices, values):
    return [int(i) for i in indices], [float(v).hex() for v in values]


class TestOnePassCore:
    """The CSR core against the per-text Counter path it replaced, bit for bit."""

    @given(model_and_texts())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_counter_oracle(self, case):
        model, texts = case
        X = _tfidf_rows(model, texts)
        indptr, indices, values = X.indptr, X.indices, X.data
        assert X.shape == (len(texts), model.dimension) and values.dtype == np.float64
        for i, text in enumerate(texts):
            lo, hi = indptr[i], indptr[i + 1]
            want = hex_row(*counter_vector(model, text))
            assert hex_row(indices[lo:hi], values[lo:hi]) == want
            vec = vectorize_document(model, text)
            assert hex_row(vec.indices, vec.values) == want
            assert vec.indices.dtype == np.int64 and vec.dimension == model.dimension

    @given(model_and_texts())
    @settings(max_examples=50, deadline=None)
    def test_sentence_layout_points_at_each_row(self, case):
        model, texts = case
        sentences = [Sentence(text=t, doc_index=0, sent_index=i) for i, t in enumerate(texts)]
        X = _tfidf_rows(model, [s.text for s in sentences])
        indptr, indices, values = X.indptr, X.indices, X.data
        assert X.shape == (len(texts), model.dimension)
        for i, text in enumerate(texts):
            lo, hi = indptr[i], indptr[i + 1]
            vec = vectorize_document(model, text)
            assert hex_row(indices[lo:hi], values[lo:hi]) == hex_row(vec.indices, vec.values)

    def test_final_sigma_follows_each_text(self):
        # "ΑΣ.Β" lowers to "ασ.β" as one text but "ας." as a sentence of its own
        model = fit_idf(build_vocabulary(["ασ ας β"]))
        X = _tfidf_rows(model, ["ΑΣ.Β", "ΑΣ.", "Β"])
        indptr, indices = X.indptr, X.indices
        index = model.vocabulary.index
        rows = [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(3)]
        assert rows == [sorted([index["ασ"], index["β"]]), [index["ας"]], [index["β"]]]

    def test_no_texts_gives_no_rows(self):
        model = fit_idf(build_vocabulary(["a b"]))
        X = _tfidf_rows(model, [])
        assert X.shape == (0, model.dimension)
        assert X.indptr.tolist() == [0] and X.indices.size == 0 and X.data.size == 0


def fit_matrix(texts, config):
    """The config's tf-idf model fit on ``texts``, and the texts' matrix."""
    return _fit_tfidf(texts, config.hash_bits, config.min_df, config.l2_normalize)


def reference_vocabulary(docs, min_df):
    """build_vocabulary as it was before fitting shared the one pass: a set
    of tokens per document, and the kept tokens renumbered in order."""
    index, df = {}, Counter()
    for doc in docs:
        seen = set()
        for tok in tokenize(doc):
            if tok not in index:
                index[tok] = len(index)
            seen.add(tok)
        df.update(seen)
    kept = [t for t in sorted(index, key=index.__getitem__) if df[t] >= min_df]
    return {t: i for i, t in enumerate(kept)}, {t: df[t] for t in kept}


def reference_hashed_df(docs, bits):
    """fit_hashed_idf's document frequencies as it counted them before: a set
    of slots per document, sorted by slot."""
    df = Counter()
    for doc in docs:
        df.update({_hash_slot(t, bits) for t in tokenize(doc)})
    return dict(sorted(df.items()))


# Words seen in one training text only, so min_df 2 or 3 drops them, and a
# text made of them alone is all-OOV under the fitted vocabulary.
RARE_WORDS = ["r1", "r2", "r3", "ΣΣ"]


@st.composite
def training_texts(draw):
    texts = draw(st.lists(
        st.one_of(text_strategy(VOCAB_WORDS), text_strategy(VOCAB_WORDS + RARE_WORDS),
                  text_strategy(RARE_WORDS, min_size=1), st.just("")),
        min_size=1, max_size=8))
    return texts


class TestOnePassFit:
    """Fitting the model and building X from one tokenization per text gives
    what fitting and then vectorizing give, bit for bit."""

    # min_df is 1 wherever hash_bits is set, as PipelineConfig refuses more
    @given(training_texts(),
           st.tuples(st.integers(1, 3), st.none()) | st.tuples(st.just(1), st.integers(1, 16)),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_model_and_matrix_match_the_two_pass_fit(self, texts, fit, normalize):
        min_df, bits = fit
        config = PipelineConfig(min_df=min_df, hash_bits=bits, l2_normalize=normalize)
        model, X = fit_matrix(texts, config)
        if bits is None:
            vocab = build_vocabulary(texts, min_df=min_df)
            want = fit_idf(vocab, l2_normalize=normalize)
            index, df = reference_vocabulary(texts, min_df)
            assert list(vocab.index.items()) == list(index.items()) and vocab.df == df
            assert list(model.vocabulary.index.items()) == list(index.items())
            assert model.vocabulary.df == df
            assert model.vocabulary.document_count == len(texts)
        else:
            want = fit_hashed_idf(texts, bits, l2_normalize=normalize)
            df = reference_hashed_df(texts, bits)
            assert list(want.hashed_df.items()) == list(df.items())
            assert list(model.hashed_df.items()) == list(df.items())
            assert model.hash_bits == bits
        assert model.document_count == want.document_count == len(texts)
        assert model.l2_normalize == normalize
        assert model.idf.tobytes() == want.idf.tobytes()
        ref = _tfidf_rows(want, texts)
        assert X.shape == ref.shape == (len(texts), want.dimension)
        assert np.array_equal(X.indptr, ref.indptr) and np.array_equal(X.indices, ref.indices)
        assert X.data.tobytes() == ref.data.tobytes()

    def test_hashed_fit_keeps_singleton_tokens_so_min_df_is_refused(self):
        texts = ["r1 a b", "a b", "r2 b", "r3"]  # r1, r2 and r3 occur in one text each
        with pytest.raises(ConfigError, match="min_df must be 1 with hash_bits"):
            PipelineConfig(hash_bits=16, min_df=2)
        model, X = fit_matrix(texts, PipelineConfig(hash_bits=16))
        slots = {t: _hash_slot(t, 16) for t in ("a", "b", "r1", "r2", "r3")}
        assert len(set(slots.values())) == len(slots)
        assert {t: model.hashed_df[slot] for t, slot in slots.items()} == {
            "a": 2, "b": 3, "r1": 1, "r2": 1, "r3": 1}
        for row, token in ((0, "r1"), (2, "r2"), (3, "r3")):
            assert slots[token] in X.indices[X.indptr[row]:X.indptr[row + 1]]
        indexed, _ = fit_matrix(texts, PipelineConfig(min_df=2))
        assert list(indexed.vocabulary.index) == ["a", "b"]

    def test_min_df_drops_rare_tokens_and_leaves_all_oov_rows_empty(self):
        # capital sigma lowers to the final sigma at a word's end
        texts = ["ΑΣ r1 ΟΔΟΣ", "b ας r1", "r2 r2 σοφός", "", "οδος b ΣΟΦΟΣ"]
        model, X = fit_matrix(texts, PipelineConfig(min_df=2))
        assert list(model.vocabulary.index.items()) == [("ας", 0), ("r1", 1), ("οδος", 2),
                                                         ("b", 3)]
        assert model.vocabulary.df == {"ας": 2, "r1": 2, "οδος": 2, "b": 2}
        assert X.indptr.tolist() == [0, 3, 6, 6, 6, 8]
        assert X.indices.tolist() == [0, 1, 2, 0, 1, 3, 2, 3]

    @pytest.mark.parametrize("bits", [0, 31, 40])
    def test_hash_bits_checked_before_any_token_is_hashed(self, monkeypatch, bits):
        hashed = []
        monkeypatch.setattr(vectorize, "_hash_slot", lambda token, b: hashed.append(token))
        with pytest.raises(ConfigError, match=rf"^hash bits must be in \[1, 30\], got {bits}$"):
            fit_hashed_idf(["a b", "c"], bits=bits)
        assert hashed == []
