import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from datawords import model
from datawords.corpus import Encounter, Sentence
from datawords.encoding import DataWordSentence, ThresholdSpec
from datawords.evaluation import PlantedRule, SynthSpec, generate_synthetic
from datawords.explain import Justification, score_sentences, top_justifications
from datawords.extraction import StructuredRecord
from datawords.model import (
    AugmentedUnit,
    LabelModel,
    ModelBundle,
    PipelineConfig,
    predict,
    prepare_units,
    train_all,
)
from datawords.vectorize import build_vocabulary, fit_hashed_idf, fit_idf, vectorize_document


def one_hot_bundle(train_docs, hot_token, label="L1", normalize=True):
    """Bundle with a single unit weight on one token."""
    vocab = build_vocabulary(train_docs)
    tfidf = fit_idf(vocab, l2_normalize=normalize)
    ix = vocab.index[hot_token]
    return ModelBundle(
        tfidf=tfidf,
        variable_stats={},
        spec=PipelineConfig(extraction_source="none").spec,
        label_models=(LabelModel(label=label, bias=0.25, threshold=0.1),),
        weights=sparse.csc_matrix(([1.0], ([ix], [0])), shape=(len(vocab), 1)),
    )


def unit_of(document, datawords=()):
    return AugmentedUnit(encounter_id="e", doc_index=0, document=document,
                         datawords=tuple(datawords), gold=frozenset())


FEVER = DataWordSentence(tokens=("dw__Temp__very_high_range",),
                         source=StructuredRecord(name="Temp", value=104.3),
                         bin_label="very_high", display_name="Temperature")
UNIT = unit_of("fever noted today. patient resting.", [FEVER])


class TestScoreSentences:
    def test_one_hot_dataword_wins(self):
        bundle = one_hot_bundle([UNIT.text], "dw__temp__very_high_range")
        scored = score_sentences(bundle, "L1", UNIT)
        assert len(scored) == 3
        best = max(scored, key=lambda p: p[1])
        assert best[0].text == "dw__Temp__very_high_range."
        assert best[0].kind == "dataword"
        assert best[0].display == "Temperature was very high [104.3]"
        others = [sc for s, sc in scored if s.text != best[0].text]
        assert all(sc < best[1] for sc in others)

    def test_all_oov_scores_zero(self):
        bundle = one_hot_bundle([UNIT.text], "fever")
        scored = score_sentences(bundle, "L1", unit_of("unrelated words entirely. nothing here."))
        assert [sc for _, sc in scored] == [0.0, 0.0]

    def test_bias_excluded(self):
        bundle = one_hot_bundle([UNIT.text], "fever")
        scored = score_sentences(bundle, "L1", unit_of("zzz."))
        assert scored[0][1] == 0.0  # bias 0.25 must not leak in

    def test_unknown_label_raises(self):
        bundle = one_hot_bundle([UNIT.text], "fever")
        with pytest.raises(KeyError):
            score_sentences(bundle, "NOPE", UNIT)

    def test_matches_dense_dot_oracle(self):
        rng = np.random.default_rng(13)
        docs = ["alpha beta gamma. delta epsilon.", "beta zeta. eta theta iota."]
        vocab = build_vocabulary(docs)
        tfidf = fit_idf(vocab)
        w = rng.normal(size=len(vocab))
        bundle = ModelBundle(
            tfidf=tfidf, variable_stats={},
            spec=PipelineConfig(extraction_source="none").spec,
            label_models=(LabelModel(label="L1", bias=0.0, threshold=0.0),),
            weights=sparse.csc_matrix(w[:, None]),
        )
        scored = score_sentences(bundle, "L1", unit_of(docs[0]))
        for sent, score in scored:
            dense = vectorize_document(tfidf, sent.text).to_dense()
            assert abs(score - float(dense @ w)) <= 1e-12

    def test_accepts_prepared_units(self):
        encs = [
            Encounter(encounter_id="e1", documents=("fever today.",), codes=frozenset({"A"})),
            Encounter(encounter_id="e2", documents=("all clear.",), codes=frozenset()),
        ]
        bundle = train_all(encs, PipelineConfig(ablation_mode="text_only",
                                                extraction_source="none"))
        unit = prepare_units(bundle, encs[0])[0]
        scored = score_sentences(bundle, "A", unit)
        assert [s.text for s, _ in scored] == ["fever today."]


class TestTopJustifications:
    def scored(self):
        s1 = Sentence(text="fever noted.", doc_index=0, sent_index=0)
        s2 = Sentence(text="dw__Temp__very_high_range.", doc_index=0, sent_index=2,
                      kind="dataword", display="Temperature was very high [104.3]")
        s3 = Sentence(text="patient resting.", doc_index=0, sent_index=1)
        return [(s1, 0.4), (s2, 0.9), (s3, 0.1)]

    def test_filter_datawords_only(self):
        out = top_justifications(self.scored(), k=1, sentence_filter="datawords_only")
        assert len(out) == 1
        assert out[0].sentence.kind == "dataword"
        assert out[0].rendering == "Temperature was very high [104.3]"

    def test_filter_text_only(self):
        out = top_justifications(self.scored(), k=5, sentence_filter="text_only")
        assert all(j.sentence.kind == "text" for j in out)
        assert [j.rank for j in out] == [1, 2]

    def test_k_larger_than_pool(self):
        out = top_justifications(self.scored(), k=10)
        assert len(out) == 3
        assert [j.rank for j in out] == [1, 2, 3]
        scores = [j.score for j in out]
        assert scores == sorted(scores, reverse=True)

    def test_tie_breaks_by_position(self):
        s_a = Sentence(text="a.", doc_index=0, sent_index=1)
        s_b = Sentence(text="b.", doc_index=0, sent_index=0)
        out = top_justifications([(s_a, 0.5), (s_b, 0.5)], k=2)
        assert [j.sentence.text for j in out] == ["b.", "a."]

    def test_permutation_invariance(self):
        scored = self.scored()
        base = top_justifications(scored, k=3)
        for seed in range(5):
            shuffled = scored[:]
            random.Random(seed).shuffle(shuffled)
            assert top_justifications(shuffled, k=3) == base

    def test_rendering_defaults_to_text(self):
        out = top_justifications(self.scored(), k=1, sentence_filter="text_only")
        assert out[0].rendering == out[0].sentence.text

    def test_unknown_filter(self):
        with pytest.raises(ValueError):
            top_justifications(self.scored(), k=1, sentence_filter="everything")

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_raises(self, k):
        with pytest.raises(ValueError, match=f"at least 1, got {k}"):
            top_justifications(self.scored(), k=k)


class TestSumConsistency:
    def test_sentence_scores_sum_to_document_score(self):
        # sentences use disjoint token types, so with normalization off the
        # document vector is the sum of its sentence vectors
        doc = "alpha beta. gamma delta epsilon. zeta."
        rng = np.random.default_rng(17)
        one_hot = one_hot_bundle([doc], "alpha", normalize=False)
        w = rng.normal(size=len(one_hot.tfidf.vocabulary))
        bundle = replace(one_hot, weights=sparse.csc_matrix(w[:, None]))
        scored = score_sentences(bundle, "L1", unit_of(doc))
        from datawords.vectorize import vectorize_document

        doc_score = float(vectorize_document(bundle.tfidf, doc).to_dense() @ w)
        assert sum(sc for _, sc in scored) == pytest.approx(doc_score, abs=1e-9)


class TestDataWordsAreFirstClass:
    def test_dataword_can_hold_rank_one_with_filter_all(self):
        bundle = one_hot_bundle([UNIT.text], "dw__temp__very_high_range")
        scored = score_sentences(bundle, "L1", UNIT)
        out = top_justifications(scored, k=1, sentence_filter="all")
        assert out[0].sentence.kind == "dataword"

    def test_justifications_on_trained_pipeline(self):
        # two positives share only the fever DataWords tokens, so the
        # model concentrates weight there and the encoded sentence should
        # top the justification list
        encs = [
            Encounter(
                encounter_id="e1",
                documents=("Patient febrile overnight. Temp = 104.3 recorded.",),
                codes=frozenset({"A01"}),
            ),
            Encounter(
                encounter_id="e2",
                documents=("Looks unwell this morning. Temp = 105.1 noted.",),
                codes=frozenset({"A01"}),
            ),
            Encounter(encounter_id="e3", documents=("Temp = 98.6 fine.",), codes=frozenset()),
            Encounter(encounter_id="e4", documents=("another routine note.",), codes=frozenset()),
        ]
        spec = ThresholdSpec(explicit={"Temp": (95.0, 97.7, 100.4, 103.0)}, auto={})
        cfg = PipelineConfig(threshold_spec=spec)
        bundle = train_all(encs, cfg)
        unit = prepare_units(bundle, encs[0])[0]
        pset = predict(bundle, encs[0])[0]
        assert "A01" in pset.predicted_labels()
        scored = score_sentences(bundle, "A01", unit)
        out = top_justifications(scored, k=1)
        assert isinstance(out[0], Justification)
        assert out[0].sentence.kind == "dataword"
        assert out[0].sentence.text.startswith("dw__Temp__")


def dense_dot_scores(bundle, label, sentences):
    """Sentence scores computed from scratch with a dense weight vector,
    each summed in pure Python over the sentence's entries in order from
    0.0, as test_model's predict_oracle sums a unit's label scores."""
    dense = bundle.weights.toarray()[:, bundle.labels.index(label)]
    out = []
    for sent in sentences:
        vec = vectorize_document(bundle.tfidf, sent.text)
        acc = 0.0
        for f, v in zip(vec.indices.tolist(), vec.values.tolist()):
            acc += v * float(dense[f])
        out.append(acc)
    return [x.hex() for x in out]


def hexes(scored):
    return [score.hex() for _, score in scored]


@pytest.fixture(scope="module")
def two_bundles():
    spec = SynthSpec(seed=31, documents=60,
                     rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.5),
                            PlantedRule("L2", "HR", "low", 0.9, 0.5)))
    encs = generate_synthetic(spec)
    b1 = train_all(encs[:30], PipelineConfig())
    b2 = train_all(encs[30:], PipelineConfig(hash_bits=10))
    u1 = prepare_units(b1, encs[40])[0]
    u2 = prepare_units(b1, encs[41])[0]
    return b1, b2, u1, u2


class TestSentenceScoreCache:
    def test_alternating_units_and_bundles_match_fresh_scores(self, two_bundles):
        b1, b2, u1, u2 = two_bundles
        order = [(b1, u1), (b1, u2), (b2, u1), (b1, u1), (b2, u2), (b2, u1), (b1, u2), (b1, u2)]
        for bundle, unit in order:
            for label in reversed(bundle.labels):
                expected = dense_dot_scores(bundle, label, unit.sentences)
                assert hexes(score_sentences(bundle, label, unit)) == expected

    def test_equal_but_distinct_unit_is_revectorized(self, two_bundles):
        b1, _, u1, u2 = two_bundles
        score_sentences(b1, "L1", u1)
        lookalike = AugmentedUnit(encounter_id=u1.encounter_id, doc_index=u1.doc_index,
                                  document=u2.document, datawords=u2.datawords, gold=u1.gold)
        assert hexes(score_sentences(b1, "L1", lookalike)) == dense_dot_scores(
            b1, "L1", u2.sentences)

    def test_bundle_given_a_new_model_drops_old_scores(self, two_bundles):
        b1, b2, u1, _ = two_bundles
        bundle = replace(b1)
        score_sentences(bundle, "L1", u1)
        swapped = replace(bundle, tfidf=b2.tfidf, label_models=b2.label_models,
                          weights=b2.weights)
        assert hexes(score_sentences(swapped, "L1", u1)) == dense_dot_scores(b2, "L1", u1.sentences)
        assert hexes(score_sentences(bundle, "L1", u1)) == dense_dot_scores(b1, "L1", u1.sentences)


WORDS = ["ΑΣ", "ΟΔΟΣ", "σοφός", "ας", "β", "dw__Temp__high_range"] + [f"w{i}" for i in range(20)]


@st.composite
def scored_unit(draw):
    """A bundle of two labels with random sparse weight columns, indexed or
    hashed, normalized or not, and a unit whose document holds, one to a
    line, token-free, all-OOV, repeated-token and wide (20 or more distinct
    words) sentences."""
    normalize = draw(st.booleans())
    bits = draw(st.none() | st.integers(min_value=4, max_value=12))
    train = [" ".join(WORDS), " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=12)))]
    if bits is None:
        tfidf = fit_idf(build_vocabulary(train), l2_normalize=normalize)
    else:
        tfidf = fit_hashed_idf(train, bits=bits, l2_normalize=normalize)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(tfidf.dimension, 2)) * (rng.random((tfidf.dimension, 2)) < 0.7)
    word = st.sampled_from(WORDS + ["zzz"])
    texts = draw(st.lists(
        st.one_of(
            st.builds(" ".join, st.lists(word, max_size=24)),
            st.builds(lambda w, n: " ".join([w] * n), word, st.integers(1, 5)),
            st.just("zzz qq."),
            st.just("!"),
        ),
        min_size=1, max_size=8,
    ))
    texts.append(" ".join(draw(st.lists(st.sampled_from(WORDS), min_size=20, unique=True))))
    bundle = ModelBundle(
        tfidf=tfidf, variable_stats={},
        spec=PipelineConfig(extraction_source="none").spec,
        label_models=(LabelModel(label="L1", bias=0.0, threshold=0.0),
                      LabelModel(label="L2", bias=0.0, threshold=0.0)),
        weights=sparse.csc_matrix(dense),
    )
    unit = AugmentedUnit(encounter_id="e", doc_index=0, document="\n".join(texts), datawords=(),
                         gold=frozenset())
    return bundle, unit


class TestOnePassScores:
    @given(scored_unit())
    @settings(max_examples=100, deadline=None)
    def test_scores_bit_equal_to_dense_dot_oracle(self, case):
        bundle, unit = case
        for label in ("L1", "L2", "L1"):
            scored = score_sentences(bundle, label, unit)
            assert [s for s, _ in scored] == list(unit.sentences)
            assert hexes(scored) == dense_dot_scores(bundle, label, unit.sentences)


class TestVectorizeOncePerUnit:
    def test_one_vectorizer_call_per_unit_for_k_labels(self, two_bundles, monkeypatch):
        b1, _, u1, u2 = two_bundles
        bundle = replace(b1)
        calls = []
        original = model._tfidf_rows

        def counting(tfidf, texts):
            calls.append(list(texts))
            return original(tfidf, texts)

        monkeypatch.setattr(model, "_tfidf_rows", counting)
        labels = bundle.labels * 3
        assert len(labels) > 1
        for unit in (u1, u2):
            for label in labels:
                score_sentences(bundle, label, unit)
        assert calls == [[s.text for s in u1.sentences], [s.text for s in u2.sentences]]


@st.composite
def one_sentence_unit(draw):
    """A bundle from ``scored_unit`` with drawn biases, and a unit whose
    document is one sentence of one or more words and has no DataWords."""
    bundle, _ = draw(scored_unit())
    bias = st.floats(-4.0, 4.0)
    bundle = replace(bundle, label_models=tuple(
        LabelModel(label=lm.label, bias=draw(bias), threshold=0.0)
        for lm in bundle.label_models))
    words = draw(st.lists(st.sampled_from(WORDS + ["zzz"]), min_size=1, max_size=30))
    unit = AugmentedUnit(encounter_id="e", doc_index=0, document=" ".join(words), datawords=(),
                         gold=frozenset())
    return bundle, unit


class TestSentenceScoreIsPredictionScore:
    @given(one_sentence_unit())
    @settings(max_examples=200, deadline=None)
    def test_score_plus_bias_equals_predict_units_bit_for_bit(self, case):
        bundle, unit = case
        (sentence,) = unit.sentences
        assert sentence.text == unit.text
        predicted = {it.label: it.score for it in model.predict_units(bundle, [unit])[0].items}
        for lm in bundle.label_models:
            ((_, score),) = score_sentences(bundle, lm.label, unit)
            assert (score + lm.bias).hex() == predicted[lm.label].hex()
