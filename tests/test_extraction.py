import dataclasses
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from datawords import extraction
from datawords.corpus import Encounter, load_corpus
from datawords.errors import ConfigError, DataError
from datawords.evaluation import PlantedRule, SynthSpec, generate_synthetic
from datawords.extraction import (
    RECORD_KINDS,
    MeasurementFilter,
    PatternConfig,
    RollupPolicy,
    StructuredRecord,
    allowed_variables,
    default_pattern_config,
    extract_encounter,
    extract_patterns,
    load_db_measurements,
    load_external_extractions,
    rollup,
)
from datawords.model import PipelineConfig, build_corpus_units, prepare_units, train_all


def simple_config():
    return PatternConfig.from_dict(
        {
            "aliases": {"Temp": "Temp"},
            "lexicon": [
                {"phrase": "lung cancer", "name": "Previous_condition",
                 "value": "lung_cancer", "kind": "condition"}
            ],
        }
    )


class TestExtractPatterns:
    def test_numeric_alias_match(self):
        records = extract_patterns("Temp = 102.1 today", simple_config())
        assert len(records) == 1
        rec = records[0]
        assert rec.name == "Temp"
        assert rec.value == 102.1
        assert rec.kind == "measurement"
        text = "Temp = 102.1 today"
        assert text[rec.span[0] : rec.span[1]] == "Temp = 102.1"

    def test_lexicon_match(self):
        records = extract_patterns("history of lung cancer", simple_config())
        assert len(records) == 1
        rec = records[0]
        assert rec.name == "Previous_condition"
        assert rec.value == "lung_cancer"
        assert rec.kind == "condition"

    def test_no_match(self):
        assert extract_patterns("no vitals recorded", simple_config()) == []

    def test_case_insensitive(self):
        records = extract_patterns("temp was 99.1", simple_config())
        assert len(records) == 1 and records[0].name == "Temp"

    def test_explicit_numeric_pattern(self):
        config = PatternConfig.from_dict(
            {"numeric_patterns": [{"variable": "SpO2", "pattern": r"sat\s+(\d+)%"}]}
        )
        records = extract_patterns("sat 94% on room air", config)
        assert records[0].name == "SpO2" and records[0].value == 94.0

    def test_spans_never_overlap(self):
        config = simple_config()
        text = "Temp = 98.6 then Temp = 102.1 and lung cancer history"
        records = extract_patterns(text, config)
        spans = sorted(r.span for r in records)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_pattern_without_group_rejected(self):
        with pytest.raises(ConfigError):
            PatternConfig.from_dict(
                {"numeric_patterns": [{"variable": "X", "pattern": r"\d+"}]}
            )

    @pytest.mark.parametrize(
        "text, name, value, span",
        [("Na+ 140", "Sodium", 140.0, (0, 7)), ("SpO2 %sat 95", "SpO2", 95.0, (5, 12))],
    )
    def test_surface_with_non_word_edge_matches(self, text, name, value, span):
        config = PatternConfig(aliases={"Na+": "Sodium", "%sat": "SpO2"})
        (record,) = extract_patterns(text, config)
        assert (record.name, record.value, record.span) == (name, value, span)

    def test_number_too_large_for_a_float_is_dropped(self):
        assert extract_patterns("Temp = 1" + "0" * 400 + " now", simple_config()) == []
        (record,) = extract_patterns("Temp = 1" + "0" * 200 + " now", simple_config())
        assert record.value == 1e200

    def test_records_carry_the_given_stamp(self):
        text = "Temp 99.1, lung cancer"
        assert {(r.encounter_id, r.doc_index) for r in extract_patterns(text, simple_config())} \
            == {(None, None)}
        stamped = extract_patterns(text, simple_config(), "e9", 2)
        assert [(r.name, r.encounter_id, r.doc_index) for r in stamped] == [
            ("Temp", "e9", 2), ("Previous_condition", "e9", 2)]

    def test_deterministic(self):
        text = "Temp 100.2, later Temp 101.5, known lung cancer"
        a = extract_patterns(text, simple_config())
        b = extract_patterns(text, simple_config())
        assert a == b


def reference_extract_patterns(text, config):
    """The three-loop extractor that the compiled matcher table replaced,
    kept as the oracle: it compiles one regex per alias and per lexicon
    phrase on every call, then resolves overlaps leftmost-longest. A
    surface matches where no word character touches either end of it."""
    number = r"([-+]?\d+(?:\.\d+)?)"
    candidates = []
    for surface, canonical in config.aliases.items():
        pat = re.compile(
            rf"(?<!\w){re.escape(surface)}(?!\w)\s*(?:=|:|is|was|of)?\s*{number}", re.IGNORECASE
        )
        for match in pat.finditer(text):
            candidates.append((match.start(), match.end(), StructuredRecord(
                name=canonical, value=float(match.group(1)), kind="measurement",
                provenance="text_extraction", span=(match.start(), match.end()))))
    for variable, pat in config.numeric_patterns:
        for match in pat.finditer(text):
            try:
                value = float(match.group(1))
            except (TypeError, ValueError):
                continue
            candidates.append((match.start(), match.end(), StructuredRecord(
                name=variable, value=value, kind="measurement",
                provenance="text_extraction", span=(match.start(), match.end()))))
    for phrase, name, value, kind in config.lexicon:
        pat = re.compile(rf"(?<!\w){re.escape(phrase)}(?!\w)", re.IGNORECASE)
        for match in pat.finditer(text):
            candidates.append((match.start(), match.end(), StructuredRecord(
                name=name, value=value, kind=kind if kind in RECORD_KINDS else "other",
                provenance="text_extraction", span=(match.start(), match.end()))))
    candidates.sort(key=lambda c: (c[0], -(c[1] - c[0]), c[2].name))
    selected = []
    cursor = 0
    for start, end, record in candidates:
        if start >= cursor:
            selected.append(record)
            cursor = end
    return selected


# Overlapping surfaces: "HR 80" is an alias match, a numeric-pattern match and
# a lexicon phrase of the same name and span (an exact tie), and also an
# "HR_any" match that wins that span by name; "heart rate" contains "heart"
# and "rate"; "sat" and "level" patterns can match with a missing or
# non-numeric group; "HR 80" read as 8 ties the "HR" alias exactly, with
# another value. The scan must find every start the matchers can use:
# "HR"/"hr" differ only in case and "HR HR" repeats "HR" (in "x HR HR HR",
# "x hr" wins over the first "hr hr", and a matcher that did not resume
# after its own last match would add a second one); "Na+" and "%sat"
# start or end with a non-word character; the Kelvin sign matches "k" and
# "K", and the long s matches "s" and "S", under IGNORECASE. A stop tries
# only the matchers whose surface is a prefix of the longest one there:
# "Lab1" is a prefix of "LAB10" across a word edge, so in "lab10 5" it is
# tried and fails, and "Temp high" begins with the alias "Temp".
ALIAS_POOL = [("Temp", "Temp"), ("Temperature", "Temp"), ("T", "Temp"), ("HR", "Pulse"),
              ("Heart rate", "Pulse"), ("rate", "Rate"), ("BP", "BP"), ("hr", "Rate"),
              ("HR HR", "Pulse"), ("Na+", "Sodium"), ("%sat", "SpO2"), ("k", "Potassium"),
              ("\u212a", "Kelvin"), ("s", "Sign"), ("\u017fat", "SpO2"), ("Lab1", "Lab1"),
              ("LAB10", "Lab10")]
NUMERIC_POOL = [("Pulse", r"\bHR\s*(\d+)"), ("Rate", r"rate\s+(\d+)"),
                ("Temp", r"(\d+(?:\.\d+)?)\s*F\b"), ("SpO2", r"sat(?:\s+(\d+))?"),
                ("Level", r"level\s+(\w+)"), ("HR_any", r"\bHR\s*(\d+)"),
                ("Pulse", r"\bHR\s*(\d)\d\b")]
LEXICON_POOL = [("HR 80", "Pulse", "fast", "measurement"), ("heart", "Organ", "heart", "condition"),
                ("heart rate", "Vital", "hr", "weird_kind"), ("temp", "Temp", "noted", "condition"),
                ("lung cancer", "Previous_condition", "lung_cancer", "condition"),
                ("cancer", "Previous_condition", "cancer", "condition"),
                ("na+", "Sodium", "high", "test_result"), ("\u212a", "Unit", "kelvin", "other"),
                ("%sat", "SpO2", "low", "test_result"),
                ("hr hr", "Pulse", "double", "measurement"), ("x hr", "Finding", "x_hr", "other"),
                ("Temp high", "Temp", "high", "measurement"), ("lab1", "Lab1", "seen", "other")]
TOKENS = ["Temp", "temp", "Temperature", "T", "HR", "hr", "Heart", "heart", "rate", "Rate", "80",
          "98.6", "-3", "+4.5", "F", "sat", "level", "abc", "12", "lung", "cancer", "BP", "=",
          ":", "is", "was", "of", ",", ".", "x", "Na+", "na", "+", "%sat", "%", "SAT", "k", "K",
          "\u212a", "s", "S", "\u017f", "\u017fat", "Lab1", "LAB10", "lab10", "0", "high"]
SEPARATORS = [" ", "", "  ", "\n", ":"]
LAB_ALIASES = [(f"Lab{i:02d}", f"Lab{i:02d}") for i in range(40)]


def pool_config(aliases, numeric, lexicon):
    return PatternConfig.from_dict({
        "aliases": dict(aliases),
        "numeric_patterns": [{"variable": v, "pattern": p} for v, p in numeric],
        "lexicon": [{"phrase": p, "name": n, "value": v, "kind": k} for p, n, v, k in lexicon],
    })


POOLS = dict(
    aliases=st.lists(st.sampled_from(ALIAS_POOL), unique=True),
    numeric=st.lists(st.sampled_from(NUMERIC_POOL), unique=True),
    lexicon=st.lists(st.sampled_from(LEXICON_POOL), unique=True),
    words=st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(SEPARATORS)), max_size=30),
)


class TestCompiledExtractor:
    @settings(max_examples=300, deadline=None)
    @given(**POOLS)
    @example(aliases=ALIAS_POOL, numeric=NUMERIC_POOL, lexicon=LEXICON_POOL,
             words=[("HR", " "), ("80", " "), ("heart", " "), ("rate", " "), ("12", "")])
    @example(aliases=ALIAS_POOL, numeric=[], lexicon=LEXICON_POOL,
             words=[("HR", " "), ("HR", " "), ("80", " "), ("hr", " "), ("HR", " "), ("81", "")])
    @example(aliases=[], numeric=[], lexicon=LEXICON_POOL,
             words=[("x", " "), ("HR", " "), ("HR", " "), ("HR", "")])
    @example(aliases=[("HR", "Pulse")], numeric=NUMERIC_POOL[-1:], lexicon=[],
             words=[("HR", " "), ("80", "")])
    @example(aliases=[("%sat", "SpO2"), ("Na+", "Sodium")], numeric=[], lexicon=[],
             words=[("80", ""), ("%sat", " "), ("95", " "), ("Na+", ""), ("140", "")])
    @example(aliases=[("k", "Potassium"), ("\u017fat", "SpO2")], numeric=[], lexicon=[],
             words=[("\u212a", " "), ("4", " "), ("SAT", " "), ("97", "")])
    @example(aliases=[], numeric=NUMERIC_POOL, lexicon=[],
             words=[("HR", " "), ("80", " "), ("sat", " "), ("level", " "), ("abc", "")])
    @example(aliases=ALIAS_POOL, numeric=NUMERIC_POOL, lexicon=LEXICON_POOL, words=[])
    @example(aliases=ALIAS_POOL, numeric=[], lexicon=LEXICON_POOL,
             words=[("lab10", " "), ("5", " "), ("Lab1", ""), ("0", " "), ("4", " "), ("Lab1", " "),
                    ("3", " "), ("temp", " "), ("high", " "), ("Temp", " "), ("high", ""),
                    ("80", "")])
    # the shape of the train_wide benchmark: 40 aliases that all begin "Lab"
    @example(aliases=LAB_ALIASES, numeric=[], lexicon=[],
             words=[("Lab26", " "), ("=", " "), ("148.2", ". "), ("lab39", " "), ("130.9", " "),
                    ("Lab10", ""), ("0", " "), ("4", " "), ("Lab1", " "), ("5", " "),
                    ("LAB10", ":"), ("80", "")])
    def test_same_records_as_three_loop_reference(self, aliases, numeric, lexicon, words):
        config = pool_config(aliases, numeric, lexicon)
        text = "".join(w + sep for w, sep in words)
        assert extract_patterns(text, config) == reference_extract_patterns(text, config)

    @settings(max_examples=200, deadline=None)
    @given(**POOLS)
    @example(aliases=ALIAS_POOL, numeric=[], lexicon=LEXICON_POOL,
             words=[(w, " ") for w in TOKENS])
    def test_each_stop_tries_exactly_the_surfaces_that_match_there(self, aliases, numeric,
                                                                  lexicon, words):
        config = pool_config(aliases, numeric, lexicon)
        text = "".join(w + sep for w, sep in words)
        for hit in config.scan.finditer(text) if config.scan else ():
            group = config.ident.match(text, hit.start()).lastindex
            assert [i for i, _ in config.tried[group]] == [
                i for i, m in enumerate(config.matchers) if m.surface is not None
                and re.match(re.escape(m.surface), text[hit.start():], re.IGNORECASE)]

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2), (2,)])
    def test_exact_tie_goes_to_the_first_matcher(self, order):
        # alias, numeric pattern and lexicon phrase all match "HR 80" as "Pulse"
        parts = [[ALIAS_POOL[3]], [NUMERIC_POOL[0]], [LEXICON_POOL[0]]]
        config = pool_config(*[parts[i] if i in order else [] for i in range(3)])
        (record,) = extract_patterns("HR 80", config)
        assert record.span == (0, 5)
        assert record.value == ("fast" if order == (2,) else 80.0)
        assert [record] == reference_extract_patterns("HR 80", config)

    def test_default_config_matches_reference_on_synthetic_documents(self):
        spec = SynthSpec(seed=3, documents=300, rules=(
            PlantedRule("L1", "Temp", "very_high", 0.9, 0.4),
            PlantedRule("L2", "HR", "low", 0.9, 0.4),
        ))
        config = default_pattern_config()
        docs = [doc for enc in generate_synthetic(spec) for doc in enc.documents]
        found = 0
        for doc in docs:
            records = extract_patterns(doc, config)
            assert records == reference_extract_patterns(doc, config)
            found += len(records)
        assert found > len(docs) // 2

    def test_no_compile_and_no_config_built_while_encoding(self, monkeypatch):
        spec = SynthSpec(seed=2, documents=40,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.5),))
        encs = generate_synthetic(spec)
        cfg = PipelineConfig()
        bundle = train_all(encs, cfg)  # builds the shared default config if not yet built
        compiled, built = [], []
        real_compile, real_post_init = re.compile, PatternConfig.__post_init__
        monkeypatch.setattr(re, "compile", lambda *a, **k: compiled.append(a) or real_compile(*a, **k))
        monkeypatch.setattr(PatternConfig, "__post_init__",
                            lambda self: built.append(self) or real_post_init(self))
        config = default_pattern_config()
        records = [r for enc in encs for doc in enc.documents for r in extract_patterns(doc, config)]
        assert records and compiled == []
        build_corpus_units(encs, cfg)
        for enc in encs:
            prepare_units(bundle, enc)
        assert built == []

    def test_scan_stops_where_a_surface_can_start(self):
        config = pool_config([("k", "Potassium"), ("Na+", "Sodium")], [], [])
        text = "\u212a 4, xk 4, K+Na+ 140"
        assert [hit.start() for hit in config.scan.finditer(text)] == [0, 11, 13]
        # one ident group per surface, longest first, each naming its matchers
        assert config.ident.pattern == r"(Na\+)|(k)"
        assert config.tried == {1: ((1, config.matchers[1].regex),),
                                2: ((0, config.matchers[0].regex),)}
        # only a surface that starts with a non-word character adds a branch
        assert config.scan.pattern == r"(?=\b(?:k|Na\+))"
        config = pool_config([("k", "Potassium"), ("Na+", "Sodium"), ("%sat", "SpO2")], [], [])
        text += ", x%sat 9 %sat 8"
        assert [hit.start() for hit in config.scan.finditer(text)] == [0, 11, 13, 30]
        assert pool_config([], NUMERIC_POOL[:1], []).scan is None

    def test_each_stop_tries_only_the_matchers_whose_surface_is_there(self):
        config = pool_config([("Temp", "Temp"), ("Temperature", "Temp"), ("T", "Temp"),
                              ("k", "Potassium"), ("\u212a", "Kelvin")], [], [])
        text = "Temperature 98, Temp 99, T 97, K 4, k 3, \u212a 5, temps 1"
        tried = []
        for hit in config.scan.finditer(text):
            group = config.ident.match(text, hit.start()).lastindex
            assert [regex for _, regex in config.tried[group]] == [
                config.matchers[i].regex for i, _ in config.tried[group]]
            tried.append([i for i, _ in config.tried[group]])
        # Temperature, Temp, T; Temp, T; T; then k and the Kelvin sign, which
        # match each other's K; "temps" is a stop where "Temp" is tried and fails
        assert tried == [[0, 1, 2], [0, 2], [2], [3, 4], [3, 4], [3, 4], [0, 2]]
        assert [(r.name, r.value) for r in extract_patterns(text, config)] == [
            ("Temp", 98.0), ("Temp", 99.0), ("Temp", 97.0), ("Kelvin", 4.0),
            ("Kelvin", 3.0), ("Kelvin", 5.0)]
        assert extract_patterns(text, config) == reference_extract_patterns(text, config)

    def test_extract_encounter_calls_extract_patterns_once_per_document(self, monkeypatch):
        # perfbench times extraction by wrapping this module attribute.
        calls = []
        real = extraction.extract_patterns

        def stub(text, config, *stamp):
            calls.append(text)
            return real(text, config, *stamp)

        monkeypatch.setattr(extraction, "extract_patterns", stub)
        enc = Encounter(encounter_id="e7", documents=("Temp 99.1", "x", "HR 61"))
        records = extract_encounter(enc, default_pattern_config())
        assert calls == list(enc.documents)
        assert len(records) == 2

    def test_extract_encounter_stamps_id_and_document(self):
        enc = Encounter(encounter_id="e7", documents=("Temp 99.1", "x", "HR 61"))
        records = extract_encounter(enc, default_pattern_config())
        assert [(r.name, r.encounter_id, r.doc_index) for r in records] == [
            ("Temp", "e7", 0), ("Pulse", "e7", 2)]


class TestPatternConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"aliases": {"Temp": ""}},
            {"aliases": {"": "Temp"}},
            {"aliases": {"Temp": 5}},
            {"numeric_patterns": [("SpO2", r"sat\s+(\d+)")]},
            {"numeric_patterns": [("SpO2", re.compile(r"sat\s+\d+"))]},
            {"numeric_patterns": [("", re.compile(r"sat\s+(\d+)"))]},
            {"lexicon": [("", "Previous_condition", "x", "condition")]},
            {"lexicon": [("asthma", "", "x", "condition")]},
            {"lexicon": [(5, "Previous_condition", "x", "condition")]},
        ],
        ids=["empty_canonical", "empty_surface", "non_string_canonical", "uncompiled_pattern",
             "pattern_without_group", "empty_variable", "empty_phrase", "empty_name",
             "non_string_phrase"],
    )
    def test_constructor_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            PatternConfig(**kwargs)

    @pytest.mark.parametrize(
        "raw",
        [[], {"aliases": [["Temp"]]}, {"numeric_patterns": [{"variable": "X"}]},
         {"numeric_patterns": [{"variable": "X", "pattern": "("}]}, {"lexicon": ["asthma"]}],
        ids=["not_an_object", "bad_alias_pairs", "missing_pattern", "bad_regex", "bare_phrase"],
    )
    def test_from_dict_rejects_malformed(self, raw):
        with pytest.raises(ConfigError, match="malformed pattern config"):
            PatternConfig.from_dict(raw)

    def test_frozen_and_default_shared(self):
        config = default_pattern_config()
        assert default_pattern_config() is config
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.aliases = {}

    def test_table_order_kinds_and_round_trip(self):
        raw = {
            "aliases": {"HR": "Pulse"},
            "numeric_patterns": [{"variable": "SpO2", "pattern": r"sat\s+(\d+)%"}],
            "lexicon": [{"phrase": "asthma", "name": "Dx", "value": "asthma", "kind": "weird"},
                        {"phrase": "copd", "name": "Dx", "value": "copd", "kind": None}],
        }
        config = PatternConfig.from_dict(raw)
        assert [(m.name, m.kind, m.value) for m in config.matchers] == [
            ("Pulse", "measurement", None), ("SpO2", "measurement", None),
            ("Dx", "other", "asthma"), ("Dx", "other", "copd")]
        assert config.to_dict() == raw
        assert PatternConfig.from_dict(config.to_dict()) == config


class TestRecordFiles:
    def write(self, tmp_path, rows):
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        return path

    def test_numeric_record(self, tmp_path):
        path = self.write(
            tmp_path,
            [{"encounter_id": "e1", "doc_index": 0, "name": "Temp",
              "value": 104.3, "kind": "measurement"}],
        )
        records = load_external_extractions(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.provenance == "external_extractor"
        assert rec.value == 104.3 and rec.doc_index == 0

    def test_categorical_test_result(self, tmp_path):
        path = self.write(
            tmp_path,
            [{"encounter_id": "e1", "name": "lime_disease_test",
              "value": "negative", "kind": "test_result"}],
        )
        rec = load_external_extractions(path)[0]
        assert rec.value == "negative" and rec.kind == "test_result"

    def test_missing_name_is_parse_error(self, tmp_path):
        path = self.write(tmp_path, [{"encounter_id": "e1", "value": 1.0}])
        with pytest.raises(DataError, match="line 1"):
            load_external_extractions(path)

    def test_unknown_kind_maps_to_other(self, tmp_path):
        path = self.write(
            tmp_path, [{"encounter_id": "e1", "name": "X", "value": "y", "kind": "weird"}]
        )
        assert load_external_extractions(path)[0].kind == "other"

    def test_db_rows_not_aggregated(self, tmp_path):
        rows = [
            {"encounter_id": "e1", "name": "Glucose", "value": v} for v in (90, 110, 130)
        ]
        path = self.write(tmp_path, rows)
        records = load_db_measurements(path)
        assert [r.value for r in records] == [90, 110, 130]
        assert all(r.provenance == "database" for r in records)

    def test_db_non_numeric_is_categorical(self, tmp_path):
        path = self.write(tmp_path, [{"encounter_id": "e1", "name": "Culture", "value": "negative"}])
        rec = load_db_measurements(path)[0]
        assert rec.kind == "other" and rec.value == "negative"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_db_measurements(path) == []


COUNTS = {"A": 500, "B": 120, "C": 90}


class TestSelectMeasurements:
    def test_count_range(self):
        filt = MeasurementFilter(mode="count_range", min_count=100, max_count=500)
        assert allowed_variables(COUNTS, filt) == {"A", "B"}

    def test_top_n(self):
        assert allowed_variables(COUNTS, MeasurementFilter(mode="top_n", n=1)) == {"A"}

    def test_top_n_excluding_top_m(self):
        filt = MeasurementFilter(mode="top_n_excluding_top_m", n=1, m=1)
        assert allowed_variables(COUNTS, filt) == {"B"}

    @pytest.mark.parametrize(
        "filt",
        [MeasurementFilter(), MeasurementFilter(mode="count_range", min_count=100, max_count=500)],
        ids=["all", "count_range"],
    )
    def test_filter_is_subset_idempotent(self, filt):
        kept = allowed_variables(COUNTS, filt)
        assert kept <= set(COUNTS)
        assert allowed_variables({n: COUNTS[n] for n in kept}, filt) == kept

    def test_invalid_filter(self):
        with pytest.raises(ConfigError):
            MeasurementFilter(mode="top_n", n=0)
        with pytest.raises(ConfigError):
            MeasurementFilter(mode="count_range", min_count=5, max_count=1)


def reference_rollup(records, policy, provenances=None):
    """The two-pass roll-up with one if-chain per aggregate that the
    one-pass table replaced, kept as the oracle."""

    def aggregate(agg, values):
        ordered, mid = sorted(values), len(values) // 2
        return {
            "mean": lambda: sum(values) / len(values),
            "median": lambda: (ordered[mid] if len(ordered) % 2
                               else (ordered[mid - 1] + ordered[mid]) / 2.0),
            "min": lambda: min(values),
            "max": lambda: max(values),
            "first": lambda: values[0],
            "last": lambda: values[-1],
            "count": lambda: float(len(values)),
        }[agg]()

    targets = [r.is_numeric and (provenances is None or r.provenance in provenances)
               for r in records]
    groups = {}
    for rec, target in zip(records, targets):
        if target:
            groups.setdefault((rec.encounter_id, rec.name), []).append(rec)
    out, emitted = [], set()
    for rec, target in zip(records, targets):
        key = (rec.encounter_id, rec.name)
        if not target:
            out.append(rec)
        elif key not in emitted:
            emitted.add(key)
            group = groups[key]
            values = [float(r.value) for r in group]
            out.extend(
                StructuredRecord(name=f"{rec.name}_{agg}", value=aggregate(agg, values),
                                 kind=group[0].kind, provenance=group[0].provenance,
                                 encounter_id=group[0].encounter_id, unit=group[0].unit)
                for agg in policy.aggregates
            )
    return out


@st.composite
def rollup_cases(draw):
    readings = st.tuples(
        st.sampled_from(["e1", "e2", None]),
        st.sampled_from(["Glucose", "Temp"]),
        st.one_of(st.floats(min_value=-1e6, max_value=1e6), st.integers(-5, 5),
                  st.sampled_from(["high", "low"])),
        st.sampled_from(extraction.PROVENANCES),
        st.sampled_from([None, "mg/dL"]),
    )
    records = [
        StructuredRecord(name=name, value=value, provenance=prov, encounter_id=eid, unit=unit,
                         kind="other" if isinstance(value, str) else "measurement")
        for eid, name, value, prov, unit in draw(st.lists(readings, max_size=15))
    ]
    aggregates = draw(st.sets(st.sampled_from(extraction.AGGREGATES), min_size=1))
    provenances = draw(st.one_of(st.none(), st.sets(st.sampled_from(extraction.PROVENANCES))
                                 .map(lambda p: tuple(sorted(p)))))
    return records, RollupPolicy(tuple(aggregates)), provenances


def bits(out):
    return [(r, r.value.hex() if isinstance(r.value, float) else r.value) for r in out]


# Names that rolled names collide with: "X" rolls up to "X_mean", which is
# also read as a variable of its own.
COLLIDING_NAMES = ["X", "X_mean", "X_min", "Y", "Y_last", "X_mean_max"]


@st.composite
def commutation_cases(draw):
    readings = st.tuples(
        st.sampled_from(["e1", "e2"]),
        st.sampled_from(COLLIDING_NAMES),
        st.one_of(st.floats(min_value=-1e6, max_value=1e6), st.integers(-5, 5),
                  st.sampled_from(["high", "low"])),
        st.sampled_from(extraction.PROVENANCES),
    )
    records = [
        StructuredRecord(name=name, value=value, provenance=prov, encounter_id=eid,
                         kind="other" if isinstance(value, str) else "measurement")
        for eid, name, value, prov in draw(st.lists(readings, max_size=20))
    ]
    aggregates = draw(st.sets(st.sampled_from(extraction.AGGREGATES), min_size=1))
    provenances = draw(st.one_of(st.none(), st.sets(st.sampled_from(extraction.PROVENANCES))
                                 .map(lambda p: tuple(sorted(p)))))
    selected = draw(st.none() | st.sets(st.sampled_from(COLLIDING_NAMES)))
    return records, RollupPolicy(tuple(aggregates)), provenances, selected


class TestRollup:
    @given(rollup_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_two_pass_reference(self, case):
        records, policy, provenances = case
        got = rollup(records, policy, provenances)
        want = reference_rollup(records, policy, provenances)
        assert bits(got) == bits(want)

    @given(commutation_cases())
    @settings(max_examples=300, deadline=None)
    def test_filtering_by_source_variable_commutes_with_rollup(self, case):
        """Rolling up and then keeping the records whose source variable is
        selected gives what rolling up the selected records gives, in the
        same order; ``rollup`` is the rolled records without their sources.
        A selected set of None keeps everything."""
        records, policy, provenances, selected = case
        rolled = list(extraction._rolled(records, policy, provenances))
        assert bits(rec for _, rec in rolled) == bits(rollup(records, policy, provenances))
        kept = [r for r in records if selected is None or r.name in selected]
        assert (bits(rec for variable, rec in rolled if selected is None or variable in selected)
                == bits(rollup(kept, policy, provenances)))

    def test_policy_takes_the_canonical_order(self):
        assert RollupPolicy(tuple(reversed(extraction.AGGREGATES))).aggregates == (
            "mean", "median", "min", "max", "first", "last", "count")

    def glucose(self, values):
        return [
            StructuredRecord(name="Glucose", value=v, provenance="database", encounter_id="e1")
            for v in values
        ]

    def test_mean_min_max(self):
        out = rollup(self.glucose([90, 110, 130]), RollupPolicy(("mean", "min", "max")))
        by_name = {r.name: r.value for r in out}
        assert by_name == {"Glucose_mean": 110.0, "Glucose_min": 90.0, "Glucose_max": 130.0}

    def test_single_reading_identity(self):
        out = rollup(
            [StructuredRecord(name="Temp", value=98.8, encounter_id="e1")],
            RollupPolicy(("mean",)),
        )
        assert len(out) == 1 and out[0].name == "Temp_mean" and out[0].value == 98.8

    def test_categorical_passes_through(self):
        rec = StructuredRecord(name="Prior", value="diabetes", kind="condition", encounter_id="e1")
        out = rollup([rec], RollupPolicy(("mean", "min", "max")))
        assert out == [rec]

    def test_groups_by_encounter(self):
        records = [
            StructuredRecord(name="Glucose", value=90.0, encounter_id="e1"),
            StructuredRecord(name="Glucose", value=130.0, encounter_id="e2"),
        ]
        out = rollup(records, RollupPolicy(("mean",)))
        assert [(r.encounter_id, r.value) for r in out] == [("e1", 90.0), ("e2", 130.0)]

    def test_provenance_scoping(self):
        records = [
            StructuredRecord(name="Temp", value=99.0, provenance="text_extraction",
                             encounter_id="e1", doc_index=0),
            StructuredRecord(name="Glucose", value=90.0, provenance="database", encounter_id="e1"),
            StructuredRecord(name="Glucose", value=110.0, provenance="database", encounter_id="e1"),
        ]
        out = rollup(records, RollupPolicy(("mean",)), provenances=("database",))
        assert [r.name for r in out] == ["Temp", "Glucose_mean"]
        assert out[1].value == 100.0

    def test_median_first_last_count(self):
        out = rollup(self.glucose([130, 90, 110]), RollupPolicy(("median", "first", "last", "count")))
        by_name = {r.name: r.value for r in out}
        assert by_name == {
            "Glucose_median": 110.0,
            "Glucose_first": 130.0,
            "Glucose_last": 110.0,
            "Glucose_count": 3.0,
        }

    def test_empty_policy_rejected(self):
        with pytest.raises(ConfigError):
            RollupPolicy(())

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_aggregate_bounds(self, values):
        out = rollup(self.glucose(values), RollupPolicy(("mean", "median", "min", "max")))
        by_name = {r.name: r.value for r in out}
        assert len(out) == 4
        assert by_name["Glucose_min"] <= by_name["Glucose_mean"] + 1e-9
        assert by_name["Glucose_mean"] <= by_name["Glucose_max"] + 1e-9
        assert by_name["Glucose_min"] <= by_name["Glucose_median"] <= by_name["Glucose_max"]


MALFORMED_ENTRIES = [
    pytest.param({"value": 1.0}, "'name'", id="name-missing"),
    pytest.param({"name": "", "value": 1.0}, "'name'", id="name-empty"),
    pytest.param({"name": 7, "value": 1.0}, "'name'", id="name-not-string"),
    pytest.param({"name": "X", "value": True}, "'value'", id="value-bool"),
    pytest.param({"name": "X", "value": None}, "'value'", id="value-none"),
    pytest.param({"name": "X"}, "'value'", id="value-missing"),
    pytest.param({"name": "X", "value": [1]}, "'value'", id="value-list"),
    pytest.param({"name": "X", "value": float("nan")}, "finite", id="value-nan"),
    pytest.param({"name": "X", "value": float("-inf")}, "finite", id="value-inf"),
    pytest.param({"name": "X", "value": 1.0, "unit": 5}, "'unit'", id="unit-not-string"),
]


def write_lines(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


class TestSharedRecordParser:
    """Corpus ``structured`` entries and records-file lines share one parser."""

    @pytest.mark.parametrize("entry, field", MALFORMED_ENTRIES)
    def test_corpus_entry_rejected_naming_line(self, tmp_path, entry, field):
        path = write_lines(tmp_path / "corpus.jsonl", [
            {"encounter_id": "e1", "documents": ["a"], "structured": [{"name": "T", "value": 1}]},
            {"encounter_id": "e2", "documents": ["b"], "structured": [entry]},
        ])
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: line 2: structured entry: .*{field}"):
            load_corpus(path)

    @pytest.mark.parametrize("entry, field", MALFORMED_ENTRIES)
    @pytest.mark.parametrize("loader", [load_db_measurements, load_external_extractions])
    def test_record_line_rejected_naming_line(self, tmp_path, loader, entry, field):
        path = write_lines(tmp_path / "records.jsonl", [
            {"encounter_id": "e1", "name": "T", "value": 1},
            {"encounter_id": "e2", **entry},
        ])
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: line 2: .*{field}"):
            loader(path)

    def test_corpus_entry_takes_line_id_and_no_location(self, tmp_path):
        entry = {"name": "Temp", "value": 99.1, "encounter_id": "elsewhere",
                 "doc_index": 3, "span": [0, 4]}
        path = write_lines(tmp_path / "corpus.jsonl",
                           [{"encounter_id": "e1", "documents": ["a"], "structured": [entry]}])
        rec = load_corpus(path)[0].structured[0]
        assert rec == StructuredRecord(name="Temp", value=99.1, kind="measurement",
                                       provenance="database", encounter_id="e1")

    def test_record_line_keeps_location(self, tmp_path):
        path = write_lines(tmp_path / "records.jsonl", [
            {"encounter_id": "e1", "name": "Temp", "value": 99.1, "doc_index": 3, "span": [0, 4]}
        ])
        rec = load_external_extractions(path)[0]
        assert (rec.encounter_id, rec.doc_index, rec.span) == ("e1", 3, (0, 4))
