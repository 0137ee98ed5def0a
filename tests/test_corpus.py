import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datawords.corpus import (
    Encounter, Sentence, kfold_split, load_corpus, save_corpus, split_sentences, tokenize,
)
from datawords.errors import ConfigError, DataError


def write_corpus(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n", encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_single_line(self, tmp_path):
        path = write_corpus(
            tmp_path,
            [{"encounter_id": "e1", "documents": ["Temp = 98.8."], "codes": ["A01"]}],
        )
        encounters = load_corpus(path)
        assert len(encounters) == 1
        enc = encounters[0]
        assert enc.encounter_id == "e1"
        assert enc.documents == ("Temp = 98.8.",)
        assert enc.codes == frozenset({"A01"})
        assert enc.structured == ()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_corpus(path) == []

    def test_duplicate_id_names_line(self, tmp_path):
        path = write_corpus(
            tmp_path,
            [
                {"encounter_id": "e1", "documents": ["a"]},
                {"encounter_id": "e1", "documents": ["b"]},
            ],
        )
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"encounter_id": "e1", "documents": ["a"]}\n{oops\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_documents_required_nonempty(self, tmp_path):
        path = write_corpus(tmp_path, [{"encounter_id": "e1", "documents": []}])
        with pytest.raises(DataError, match="line 1"):
            load_corpus(path)

    def test_duplicate_codes_rejected(self, tmp_path):
        path = write_corpus(
            tmp_path, [{"encounter_id": "e1", "documents": ["a"], "codes": ["A", "A"]}]
        )
        with pytest.raises(DataError, match="duplicates"):
            load_corpus(path)

    def test_structured_entries(self, tmp_path):
        path = write_corpus(
            tmp_path,
            [
                {
                    "encounter_id": "e1",
                    "documents": ["note"],
                    "structured": [
                        {"name": "Temp", "value": 98.8, "unit": "F"},
                        {"name": "Prior", "value": "diabetes", "kind": "condition"},
                    ],
                }
            ],
        )
        enc = load_corpus(path)[0]
        assert len(enc.structured) == 2
        temp, prior = enc.structured
        assert temp.value == 98.8 and temp.kind == "measurement" and temp.unit == "F"
        assert prior.value == "diabetes" and prior.kind == "condition"
        assert temp.provenance == "database"

    def test_blank_line_is_skipped_but_counted(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        good = '{"encounter_id": "e1", "documents": ["a"]}\n'
        path.write_text(good + "\n  \n" + good.replace("e1", "e2"), encoding="utf-8")
        assert [e.encounter_id for e in load_corpus(path)] == ["e1", "e2"]
        path.write_text(good + "\n{oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3: invalid JSON"):
            load_corpus(path)

    def test_save_round_trips_structured_records(self, tmp_path):
        path = write_corpus(
            tmp_path,
            [
                {
                    "encounter_id": "e1",
                    "documents": ["note", "another"],
                    "codes": ["B02", "A01"],
                    "structured": [
                        {"name": "Temp", "value": 98.8, "unit": "F"},
                        {"name": "Prior", "value": "diabetes", "kind": "condition"},
                        {"name": "K", "value": 4},
                    ],
                },
                {"encounter_id": "e2", "documents": ["plain"]},
            ],
        )
        encounters = load_corpus(path)
        saved, again = tmp_path / "saved.jsonl", tmp_path / "again.jsonl"
        save_corpus(encounters, saved)
        assert load_corpus(saved) == encounters
        save_corpus(load_corpus(saved), again)
        assert again.read_bytes() == saved.read_bytes()

    def test_unknown_fields_ignored(self, tmp_path):
        path = write_corpus(
            tmp_path, [{"encounter_id": "e1", "documents": ["a"], "extra": {"x": 1}}]
        )
        assert load_corpus(path)[0].encounter_id == "e1"


def reference_split_sentences(text, doc_index=0):
    """The per-character splitter that the regex replaced, kept as the oracle."""
    sentences, buf = [], []

    def flush():
        piece = "".join(buf).strip()
        buf.clear()
        if piece:
            sentences.append(Sentence(text=piece, doc_index=doc_index, sent_index=len(sentences)))

    for ch in text:
        if ch in ".!?":
            buf.append(ch)
            flush()
        elif ch == "\n":
            flush()
        else:
            buf.append(ch)
    flush()
    return sentences


class TestSplitSentences:
    def test_period_splitting(self):
        got = [s.text for s in split_sentences("Fever noted. BP stable.")]
        assert got == ["Fever noted.", "BP stable."]

    def test_dataword_lines_split_individually(self):
        text = "dw__Temp__high_range.\ndw__Temp__very_high_range."
        got = [s.text for s in split_sentences(text)]
        assert got == ["dw__Temp__high_range.", "dw__Temp__very_high_range."]

    def test_empty(self):
        assert split_sentences("") == []

    def test_indices_sequential(self):
        sents = split_sentences("One. Two! Three?", doc_index=3)
        assert [(s.doc_index, s.sent_index) for s in sents] == [(3, 0), (3, 1), (3, 2)]
        assert all(s.kind == "text" for s in sents)

    def test_terminator_kept_on_left(self):
        sents = split_sentences("Alert and oriented? Yes.")
        assert sents[0].text.endswith("?")
        assert sents[1].text == "Yes."

    @given(st.text(alphabet="abc .!?\n\t", max_size=200))
    @settings(max_examples=200)
    def test_only_whitespace_dropped(self, text):
        joined = "".join(s.text for s in split_sentences(text))
        strip = lambda t: "".join(t.split())
        assert strip(joined) == strip(text)

    # Terminators, newline, \r and \x85 (which str.strip removes but the
    # splitter does not split on), spaces, word characters, and a sigma.
    @given(st.text(alphabet=".!?\n\r\x85 \t\u00a0\u3000abZ_9\u03a3", max_size=200),
           st.integers(0, 5))
    @settings(max_examples=500)
    def test_same_sentences_as_per_character_reference(self, text, doc_index):
        assert split_sentences(text, doc_index) == reference_split_sentences(text, doc_index)


class TestTokenize:
    def test_numbers_split_on_punctuation(self):
        assert tokenize("Temp = 98.8") == ["temp", "98", "8"]

    def test_datawords_survive_as_single_tokens(self):
        assert tokenize("dw__Temp__mid_range.") == ["dw__temp__mid_range"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whole_text_is_not_its_sentences_joined(self):
        # str.lower maps a capital sigma to final sigma by what follows it,
        # and a terminator is case-ignorable, so a unit's tokens are not the
        # concatenation of its sentences' tokens.
        text = "\u0391\u03a3.\u0392"
        assert tokenize(text) == ["\u03b1\u03c3", "\u03b2"]
        assert [tokenize(s.text) for s in split_sentences(text)] == [["\u03b1\u03c2"], ["\u03b2"]]

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


def make_encounters(n):
    return [Encounter(encounter_id=f"e{i}", documents=("text.",)) for i in range(n)]


class TestKFoldSplit:
    def test_balanced_and_deterministic(self):
        encs = make_encounters(8)
        split1 = kfold_split(encs, 4, seed=7)
        split2 = kfold_split(encs, 4, seed=7)
        assert split1.assignment == split2.assignment
        sizes = [len(split1.test_ids(f)) for f in range(4)]
        assert sizes == [2, 2, 2, 2]

    def test_size_spread_at_most_one(self):
        split = kfold_split(make_encounters(5), 4, seed=0)
        sizes = sorted(len(split.test_ids(f)) for f in range(4))
        assert sizes == [1, 1, 1, 2]

    def test_too_few_encounters(self):
        with pytest.raises(ConfigError):
            kfold_split(make_encounters(3), 4, seed=0)

    def test_k_below_two(self):
        with pytest.raises(ConfigError):
            kfold_split(make_encounters(5), 1, seed=0)

    def test_duplicate_ids_refused(self):
        encs = make_encounters(4) + [Encounter(encounter_id="e1", documents=("other.",))]
        with pytest.raises(DataError, match="corpus contains duplicate encounter ids"):
            kfold_split(encs, 2, seed=0)

    def test_stable_under_reordering(self):
        encs = make_encounters(10)
        forward = kfold_split(encs, 3, seed=5)
        backward = kfold_split(list(reversed(encs)), 3, seed=5)
        assert forward.assignment == backward.assignment

    def test_seed_changes_assignment(self):
        encs = make_encounters(30)
        a = kfold_split(encs, 3, seed=1).assignment
        b = kfold_split(encs, 3, seed=2).assignment
        assert a != b

    @given(st.integers(min_value=4, max_value=60), st.integers(min_value=2, max_value=4),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_fold_integrity(self, n, k, seed):
        encs = make_encounters(n)
        split = kfold_split(encs, k, seed)
        assert set(split.assignment) == {e.encounter_id for e in encs}
        sizes = [len(split.test_ids(f)) for f in range(k)]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
