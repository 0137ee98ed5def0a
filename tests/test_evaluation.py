import json
import re
from collections import Counter

import numpy as np
import pytest

from datawords import model
from datawords.corpus import Encounter, kfold_split, load_corpus
from datawords.encoding import ABLATION_MODES
from datawords.errors import ConfigError, InputError
from datawords.evaluation import (
    MetricsReport,
    PlantedRule,
    SynthSpec,
    config_digest,
    confusion_counts,
    generate_synthetic,
    micro_metrics,
    per_document_metrics,
    run_cv,
)
from datawords.extraction import MeasurementFilter, RollupPolicy, load_db_measurements
from datawords.model import PipelineConfig, PredictionItem, PredictionSet, predict, train_all


def pset(labels, encounter_id="e", doc_index=0):
    items = tuple(PredictionItem(label=l, score=1.0, predicted=True) for l in labels)
    return PredictionSet(encounter_id=encounter_id, doc_index=doc_index, items=items)


class TestConfusionCounts:
    def test_definition(self):
        counts = confusion_counts([pset({"A", "B"})], [{"A", "C"}])
        assert counts["A"] == (1, 0, 0)
        assert counts["B"] == (0, 1, 0)
        assert counts["C"] == (0, 0, 1)

    def test_empty_predictions(self):
        counts = confusion_counts([pset(set())], [{"A"}])
        assert counts["A"] == (0, 0, 1)

    def test_perfect_predictions(self):
        preds = [pset({"A"}), pset({"B", "C"})]
        counts = confusion_counts(preds, [{"A"}, {"B", "C"}])
        for label in ("A", "B", "C"):
            tp, fp, fn = counts[label]
            assert fp == 0 and fn == 0 and tp >= 1

    def test_misaligned(self):
        with pytest.raises(InputError):
            confusion_counts([pset({"A"})], [{"A"}, {"B"}])


class TestMicroMetrics:
    def test_arithmetic(self):
        p, r, f1 = micro_metrics({"A": (2, 1, 1)})
        assert (p, r, f1) == (pytest.approx(2 / 3), pytest.approx(2 / 3), pytest.approx(2 / 3))

    def test_all_zero_convention(self):
        assert micro_metrics({}) == (0.0, 0.0, 0.0)
        assert micro_metrics({"A": (0, 0, 0)}) == (0.0, 0.0, 0.0)

    def test_formula_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            counts = {
                f"L{i}": tuple(int(x) for x in rng.integers(0, 20, size=3))
                for i in range(int(rng.integers(1, 6)))
            }
            p, r, f1 = micro_metrics(counts)
            tp = sum(c[0] for c in counts.values())
            fp = sum(c[1] for c in counts.values())
            fn = sum(c[2] for c in counts.values())
            ep = tp / (tp + fp) if tp + fp else 0.0
            er = tp / (tp + fn) if tp + fn else 0.0
            ef = 2 * ep * er / (ep + er) if ep + er else 0.0
            assert (p, r, f1) == (ep, er, ef)

    def test_f1_bounded_by_max(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            counts = {"A": tuple(int(x) for x in rng.integers(0, 30, size=3))}
            p, r, f1 = micro_metrics(counts)
            assert f1 <= max(p, r) + 1e-15


class TestPerDocumentMetrics:
    def test_macro_average(self):
        preds = [pset({"A"}), pset(set())]
        gold = [{"A"}, {"A"}]
        p, r, f1 = per_document_metrics(preds, gold)
        assert f1 == pytest.approx(0.5)

    def test_single_document_identity(self):
        preds = [pset({"A", "B"})]
        gold = [{"A"}]
        p, r, f1 = per_document_metrics(preds, gold)
        assert p == pytest.approx(0.5) and r == pytest.approx(1.0)
        assert f1 == pytest.approx(2 * 0.5 / 1.5)

    def test_loop_oracle(self):
        rng = np.random.default_rng(6)
        labels = ["A", "B", "C", "D"]
        for _ in range(50):
            n = int(rng.integers(1, 10))
            preds, gold = [], []
            for i in range(n):
                preds.append(pset({l for l in labels if rng.random() < 0.4}, doc_index=i))
                gold.append({l for l in labels if rng.random() < 0.4})
            got = per_document_metrics(preds, gold)
            ps, rs, fs = [], [], []
            for pr, g in zip(preds, gold):
                pl = pr.predicted_labels()
                tp = len(pl & g)
                p = tp / len(pl) if pl else 0.0
                r = tp / len(g) if g else 0.0
                fs.append(2 * p * r / (p + r) if p + r else 0.0)
                ps.append(p)
                rs.append(r)
            want = (sum(ps) / n, sum(rs) / n, sum(fs) / n)
            assert got == want

    def test_misaligned_refused(self):
        with pytest.raises(InputError, match="predictions and gold misaligned: 2 vs 1"):
            per_document_metrics([pset({"A"}), pset(set())], [{"A"}])

    def test_empty_scores_zero(self):
        assert per_document_metrics([], []) == (0.0, 0.0, 0.0)


def separable_corpus(n=16):
    """Label X1 holds iff the token 'xmarker' appears."""
    encounters = []
    for i in range(n):
        has = i % 2 == 0
        text = ("xmarker present here." if has else "plain note only.") + f" filler{i}."
        encounters.append(
            Encounter(
                encounter_id=f"s{i}",
                documents=(text,),
                codes=frozenset({"X1"}) if has else frozenset(),
            )
        )
    return encounters


class TestRunCV:
    def test_separable_corpus_perfect_f1(self):
        cfg = PipelineConfig(ablation_mode="text_only", extraction_source="none")
        report = run_cv(separable_corpus(), cfg)
        assert report.micro == (1.0, 1.0, 1.0)
        assert report.fold_count == 4

    def test_deterministic_report_bytes(self):
        cfg = PipelineConfig(ablation_mode="text_only", extraction_source="none")
        r1 = run_cv(separable_corpus(), cfg)
        r2 = run_cv(separable_corpus(), cfg)
        assert r1.to_json_bytes() == r2.to_json_bytes()

    def test_digest_reflects_config(self):
        c1 = PipelineConfig(ablation_mode="text_only")
        c2 = PipelineConfig(ablation_mode="text_plus_datawords")
        assert config_digest(c1) != config_digest(c2)
        c3 = PipelineConfig(ablation_mode="text_only", threads=8)
        assert config_digest(c1) == config_digest(c3)  # threads excluded

    def test_datawords_mode_beats_text_only_on_planted_corpus(self):
        spec = SynthSpec(seed=42, documents=400,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.95, 0.3),))
        encs = generate_synthetic(spec)
        f1_text = run_cv(encs, PipelineConfig(ablation_mode="text_only")).micro[2]
        f1_both = run_cv(encs, PipelineConfig(ablation_mode="text_plus_datawords")).micro[2]
        assert f1_both > f1_text

    def test_report_fields(self):
        cfg = PipelineConfig(ablation_mode="text_only", extraction_source="none", folds=2)
        report = run_cv(separable_corpus(8), cfg)
        obj = json.loads(report.to_json_bytes())
        assert obj["fold_count"] == 2
        assert obj["seed"] == 42
        assert "X1" in obj["labels"]
        assert len(obj["folds"]) == 2
        assert "timings" not in obj
        csv = report.label_table_csv()
        assert csv.splitlines()[0] == "label,tp,fp,fn,precision,recall,f1"
        assert any(line.startswith("X1,") for line in csv.splitlines()[1:])

    def test_too_few_encounters(self):
        cfg = PipelineConfig(ablation_mode="text_only", extraction_source="none", folds=4)
        with pytest.raises(ConfigError):
            run_cv(separable_corpus(3), cfg)


MEASURE_RE = re.compile(r"Temp = (\d+\.\d+)\.")


def rule_fired(document, lo=148.0, hi=152.0):
    m = MEASURE_RE.search(document)
    if not m:
        return False
    return lo <= float(m.group(1)) <= hi


class TestGenerateSynthetic:
    def test_strength_one_exact_rule(self):
        spec = SynthSpec(seed=1, documents=100,
                         rules=(PlantedRule("L1", "Temp", "very_high", 1.0, 0.4),))
        for enc in generate_synthetic(spec):
            assert ("L1" in enc.codes) == rule_fired(enc.documents[0])

    def test_same_seed_identical(self):
        spec = SynthSpec(seed=5, documents=50,
                         rules=(PlantedRule("L1", "Temp", "high", 0.8, 0.3),))
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a == b

    def test_strength_agreement_rate(self):
        spec = SynthSpec(seed=3, documents=1000,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.3),))
        encs = generate_synthetic(spec)
        agree = sum(("L1" in e.codes) == rule_fired(e.documents[0]) for e in encs)
        # binomial(1000, 0.9): five sigma is about 47
        assert abs(agree - 900) < 50

    def test_base_rate_controls_measurement_frequency(self):
        spec = SynthSpec(seed=7, documents=1000,
                         rules=(PlantedRule("L1", "Temp", "very_high", 1.0, 0.3),))
        encs = generate_synthetic(spec)
        with_measurement = sum(bool(MEASURE_RE.search(e.documents[0])) for e in encs)
        assert abs(with_measurement - 300) < 75

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            PlantedRule("L1", "Temp", "sideways", 0.9, 0.3)
        with pytest.raises(ConfigError):
            PlantedRule("L1", "Temp", "high", 1.5, 0.3)
        with pytest.raises(ConfigError):
            SynthSpec(seed=1, documents=0, rules=())

    def test_fold_validation(self):
        spec = SynthSpec(seed=1, documents=10,
                         rules=(PlantedRule("L1", "Temp", "high", 1.0, 0.5),))
        with pytest.raises(ConfigError):
            spec.validate_for_folds(4)

    def test_from_dict(self):
        spec = SynthSpec.from_dict(
            {
                "seed": 9,
                "documents": 40,
                "rules": [
                    {"label": "L1", "variable": "Temp", "bin": "very_high",
                     "strength": 0.95, "base_rate": 0.3}
                ],
            }
        )
        assert spec.rules[0].label == "L1"
        with pytest.raises(ConfigError):
            SynthSpec.from_dict({"seed": 1, "documents": 10})


class TestFoldIsolation:
    def test_vocabulary_never_sees_test_fold(self):
        # a token unique to one encounter must be absent from the models of
        # the fold where that encounter is held out
        from datawords.corpus import kfold_split
        from datawords.model import train_all

        encs = separable_corpus(8)
        cfg = PipelineConfig(ablation_mode="text_only", extraction_source="none", folds=2)
        split = kfold_split(encs, 2, cfg.seed)
        by_id = {e.encounter_id: e for e in encs}
        for fold in range(2):
            train = [by_id[i] for i in split.train_ids(fold)]
            bundle = train_all(train, cfg)
            vocab = bundle.tfidf.vocabulary.index
            for eid in split.test_ids(fold):
                unique_token = f"filler{eid[1:]}"
                assert unique_token not in vocab


def run_cv_per_encounter(encounters, config):
    """Reference cross-validation that scores one held-out encounter per
    ``predict`` call, each indexing the external records again."""
    split = kfold_split(encounters, config.folds, config.seed)
    by_id = {e.encounter_id: e for e in encounters}
    preds, gold, folds = [], [], []
    for fold in range(config.folds):
        bundle = train_all([by_id[i] for i in split.train_ids(fold)], config)
        fold_preds, fold_gold = [], []
        for enc in (by_id[i] for i in split.test_ids(fold)):
            for p in predict(bundle, enc, config.external_records):
                fold_preds.append(p)
                fold_gold.append(enc.codes)
        p, r, f1 = micro_metrics(confusion_counts(fold_preds, fold_gold))
        folds.append({"fold": fold, "test_units": len(fold_preds),
                      "micro": {"precision": p, "recall": r, "f1": f1}})
        preds += fold_preds
        gold += fold_gold
    counts = confusion_counts(preds, gold)
    table = {label: c + micro_metrics({label: c}) for label, c in counts.items()}
    return MetricsReport(
        fold_count=config.folds,
        seed=config.seed,
        ablation_mode=config.ablation_mode,
        config_digest=config_digest(config),
        micro=micro_metrics(counts),
        per_document=per_document_metrics(preds, gold),
        label_table=table,
        folds=folds,
    )


DB_CONFIGS = {
    "indexed_document": dict(unit="document"),
    "hashed_encounter": dict(
        unit="encounter",
        hash_bits=14,
        measurement_filter=MeasurementFilter(mode="top_n", n=1),
        rollup_policy=RollupPolicy(("mean", "min", "max", "last")),
    ),
}


class TestBatchedRunCV:
    def db_config(self, db, name, mode="text_plus_datawords"):
        return PipelineConfig(
            extraction_source="db",
            external_records=tuple(load_db_measurements(db)),
            ablation_mode=mode,
            folds=3,
            seed=4,
            **DB_CONFIGS[name],
        )

    @pytest.mark.parametrize("name", sorted(DB_CONFIGS))
    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_report_bytes_equal_per_encounter_reference(self, db_synth_corpus, name, mode):
        corpus, db = db_synth_corpus
        encounters = load_corpus(corpus)
        config = self.db_config(db, name, mode)
        report = run_cv(encounters, config)
        assert report.to_json_bytes() == run_cv_per_encounter(encounters, config).to_json_bytes()

    def test_patterns_source_matches_reference(self):
        spec = SynthSpec(seed=3, documents=40,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.5),))
        encounters = generate_synthetic(spec)
        config = PipelineConfig(folds=4, seed=9)
        assert (run_cv(encounters, config).to_json_bytes()
                == run_cv_per_encounter(encounters, config).to_json_bytes())

    @pytest.mark.parametrize("filt", [
        MeasurementFilter(),
        MeasurementFilter(mode="top_n", n=2),
        MeasurementFilter(mode="top_n_excluding_top_m", n=2, m=1),
        MeasurementFilter(mode="count_range", min_count=1, max_count=10),
    ], ids=["all", "top_n", "top_n_excluding_top_m", "count_range"])
    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_records_worked_up_once_match_reference(self, mode, filt):
        """Numeric and categorical pattern records, rolled up from every
        provenance, under each measurement filter: the folds select from the
        records run_cv rolled up once as per-fold training selects them."""
        spec = SynthSpec(seed=8, documents=40, rules=(
            PlantedRule("L1", "Temp", "very_high", 0.9, 0.6),
            PlantedRule("L2", "HR", "low", 0.9, 0.6)),
            filler_vocab=("stable", "noted", "diabetes", "pneumonia", "lung", "cancer"))
        encounters = generate_synthetic(spec)
        config = PipelineConfig(ablation_mode=mode, measurement_filter=filt,
                                rollup_provenances=None, folds=3, seed=2)
        assert (run_cv(encounters, config).to_json_bytes()
                == run_cv_per_encounter(encounters, config).to_json_bytes())

    def test_external_records_indexed_once_per_run(self, db_synth_corpus, monkeypatch):
        corpus, db = db_synth_corpus
        encounters = load_corpus(corpus)
        config = self.db_config(db, "indexed_document")
        calls = []
        original = model._key_external

        def counting(records):
            calls.append(1)
            return original(records)

        # run_cv indexes once, as it collects every encounter's records once;
        # each fold's train_all and prepare_units take those records
        monkeypatch.setattr(model, "_key_external", counting)
        run_cv(encounters, config)
        assert len(encounters) > 4 * config.folds
        assert len(calls) == 1

    def test_patterns_source_extracts_each_encounter_once(self, monkeypatch):
        spec = SynthSpec(seed=3, documents=40,
                         rules=(PlantedRule("L1", "Temp", "very_high", 0.9, 0.5),))
        encounters = generate_synthetic(spec)
        calls = Counter()
        original = model.extract_encounter

        def counting(encounter, patterns):
            calls[encounter.encounter_id] += 1
            return original(encounter, patterns)

        monkeypatch.setattr(model, "extract_encounter", counting)
        run_cv(encounters, PipelineConfig(folds=4, seed=9))
        assert calls == Counter(e.encounter_id for e in encounters)
