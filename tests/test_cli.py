import base64
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import datawords
from datawords import cli
from datawords.cli import main
from datawords.corpus import kfold_split, load_corpus, save_corpus
from datawords.evaluation import confusion_counts, micro_metrics
from datawords.explain import score_sentences, top_justifications
from datawords.extraction import load_db_measurements
from datawords.model import PredictionItem, PredictionSet, load_bundle, predict_units, prepare_units

SYNTH_SPEC = {
    "seed": 42,
    "documents": 80,
    "rules": [
        {"label": "L1", "variable": "Temp", "bin": "very_high",
         "strength": 0.95, "base_rate": 0.4}
    ],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def write_corpus(path, lines):
    path.write_text("\n".join(json.dumps(o) for o in lines) + "\n", encoding="utf-8")
    return str(path)


def set_last_weight_index(entry, index):
    """Re-encode a saved label's index column with its last index replaced."""
    indices = bytearray(base64.b64decode(entry["indices"]))
    indices[-4:] = index.to_bytes(4, "little", signed=True)
    entry["indices"] = base64.b64encode(bytes(indices)).decode("ascii")


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture
def synth_corpus(tmp_path):
    spec = write_json(tmp_path / "spec.json", SYNTH_SPEC)
    corpus = tmp_path / "synth.jsonl"
    assert main(["synth", "--spec", spec, "--out", str(corpus)]) == 0
    return str(corpus)


FEVER_CORPUS = [
    {"encounter_id": "e1", "documents": ["Fever spiking overnight. Temp = 104.3 now."],
     "codes": ["A01"]},
    {"encounter_id": "e2", "documents": ["Looks unwell this morning. Temp = 105.2 tonight."],
     "codes": ["A01"]},
    {"encounter_id": "e3", "documents": ["Temp = 98.6 fine."], "codes": []},
    {"encounter_id": "e4", "documents": ["another routine note."], "codes": []},
]

FEVER_THRESHOLDS = {
    "Temp": {"cuts": [95.0, 97.7, 100.4, 103.0], "display": "Temperature"}
}


class TestSynth:
    def test_writes_requested_corpus(self, synth_corpus):
        encounters = load_corpus(synth_corpus)
        assert len(encounters) == 80

    def test_deterministic(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SYNTH_SPEC)
        out1, out2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
        assert main(["synth", "--spec", spec, "--out", str(out1)]) == 0
        assert main(["synth", "--spec", spec, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_too_small_for_folds_exits_2(self, tmp_path):
        small = dict(SYNTH_SPEC, documents=10)
        spec = write_json(tmp_path / "spec.json", small)
        rc = main(["synth", "--spec", spec, "--out", str(tmp_path / "c.jsonl"), "--folds", "4"])
        assert rc == 2


class TestExtract:
    def test_patterns_source(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS[:1])
        out = tmp_path / "ext.jsonl"
        assert main(["extract", "--corpus", corpus, "--out", str(out)]) == 0
        rows = read_jsonl(out)
        assert any(r["name"] == "Temp" and r["value"] == 104.3 for r in rows)
        assert all("encounter_id" in r for r in rows)

    def test_source_none_exits_2(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS[:1])
        rc = main(["extract", "--corpus", corpus, "--out", str(tmp_path / "x"), "--source", "none"])
        assert rc == 2

    def test_external_pass_through(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS[:1])
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            json.dumps({"encounter_id": "e1", "name": "Pulse", "value": 88, "kind": "weird"})
            + "\n"
            + json.dumps({"encounter_id": "ghost", "name": "Pulse", "value": 1})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "norm.jsonl"
        rc = main(["extract", "--corpus", corpus, "--out", str(out),
                   "--source", "external", "--extractions", str(raw)])
        assert rc == 0
        rows = read_jsonl(out)
        assert len(rows) == 1  # ghost encounter dropped
        assert rows[0]["kind"] == "other"  # unknown kind normalized

    def test_missing_corpus_exits_2(self, tmp_path):
        rc = main(["extract", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x")])
        assert rc == 2


class TestTrain:
    def test_round_trip_with_predict(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        thresholds = write_json(tmp_path / "th.json", FEVER_THRESHOLDS)
        bundle = tmp_path / "bundle.json"
        rc = main(["train", "--corpus", corpus, "--out", str(bundle),
                   "--thresholds", thresholds])
        assert rc == 0
        preds = tmp_path / "preds.jsonl"
        rc = main(["predict", "--corpus", corpus, "--bundle", str(bundle),
                   "--out", str(preds)])
        assert rc == 0
        rows = read_jsonl(preds)
        assert len(rows) == 4
        by_id = {r["encounter_id"]: r for r in rows}
        top = by_id["e1"]["predictions"][0]
        assert top["label"] == "A01" and top["predicted"] is True

    def test_zero_codes_exits_2(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "c.jsonl",
            [{"encounter_id": "e1", "documents": ["x."], "codes": []}],
        )
        rc = main(["train", "--corpus", corpus, "--out", str(tmp_path / "b.json")])
        assert rc == 2

    @pytest.mark.parametrize("lam", ["inf", "nan", "0", "-1"])
    def test_lambda_a_bundle_could_not_load_exits_2(self, tmp_path, capsys, lam):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        out = tmp_path / "b.json"
        rc = main(["train", "--corpus", corpus, "--out", str(out), "--lambda", lam])
        assert rc == 2
        assert "lambda must be a finite positive number" in capsys.readouterr().err
        assert not out.exists()

    def test_corpus_of_blank_lines_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n  \n\n", encoding="utf-8")
        out = tmp_path / "b.json"
        assert main(["train", "--corpus", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot process an empty corpus" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source, mode", [
        pytest.param("text", "text_plus_datawords", id="text"),
        pytest.param("records", "text_plus_datawords", id="records"),
        pytest.param("text", "text_only", id="text-text_only"),
        pytest.param("text", "nonnumeric_datawords_only", id="text-nonnumeric_datawords_only"),
    ])
    def test_reading_too_large_for_float_arithmetic_exits_1(self, tmp_path, capsys, source,
                                                             mode):
        """Only a mode that encodes numeric DataWords computes statistics,
        so only such a mode refuses the reading."""
        lines = [dict(line) for line in FEVER_CORPUS]
        if source == "text":
            lines[2]["documents"] = ["Temp = 1" + "0" * 200 + " now."]
            args, name = [], "Temp"
        else:
            recs = write_corpus(tmp_path / "recs.jsonl", [
                {"encounter_id": line["encounter_id"], "name": "K",
                 "value": 1e200 if i == 2 else 4.0}
                for i, line in enumerate(lines)])
            args, name = ["--source", "db", "--extractions", recs], "K_mean"
        corpus = write_corpus(tmp_path / "c.jsonl", lines)
        out = tmp_path / "b.json"
        rc = main(["train", "--corpus", corpus, "--out", str(out), "--mode", mode, *args])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if mode != "text_plus_datawords":
            assert rc == 0, err
            assert json.loads(out.read_text())["variable_stats"] == {}
            return
        assert rc == 1
        assert f"numeric variable {name!r}: readings too large for float arithmetic" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, bad, name", [
        pytest.param("text_plus_datawords", [{"name": "K", "value": 1e308}] * 2, "K_mean",
                     id="roll-up-not-finite"),
        pytest.param("datawords_only", [{"name": "Cond", "value": "???"}], "Cond",
                     id="value-sanitizes-to-nothing"),
    ])
    def test_record_that_cannot_become_a_dataword_is_skipped(self, tmp_path, mode, bad, name):
        """A bundle trained on finite K readings and a good Cond, then a
        records file whose records of encounter e0 cannot be encoded: two
        readings of 1e308 roll up to an infinite K_mean, or a Cond value
        sanitizes to nothing. A run that reads it skips the record with a
        warning on stderr naming it and e0, and writes a row for every
        unit. Training refuses non-finite readings in its statistics, so
        only the Cond file is trained on too."""
        lines = [{"encounter_id": f"e{i}", "documents": [f"note {i}."], "codes": ["A"] * (i % 2)}
                 for i in range(4)]
        corpus = write_corpus(tmp_path / "c.jsonl", lines)
        good = write_corpus(tmp_path / "good.jsonl", [
            {"encounter_id": f"e{i}", "name": n, "value": v}
            for i in range(4) for n, v in (("K", 4.0 + i), ("Cond", "stable"))])
        bad = write_corpus(tmp_path / "bad.jsonl", [{"encounter_id": "e0", **rec} for rec in bad])
        bundle, preds = tmp_path / "b.json", tmp_path / "p.jsonl"
        train = ["train", "--source", "db", "--mode", mode]
        assert main([*train, "--corpus", corpus, "--extractions", good,
                     "--out", str(bundle)]) == 0
        runs = [["predict", "--bundle", str(bundle), "--out", str(preds)]]
        if mode == "datawords_only":
            runs.append([*train, "--out", str(tmp_path / "b2.json")])
        src = str(Path(datawords.__file__).resolve().parent.parent)
        for run in runs:
            result = subprocess.run(
                [sys.executable, "-m", "datawords", *run, "--corpus", corpus,
                 "--extractions", bad],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            assert f"skipping record {name!r} of encounter 'e0'" in result.stderr
        assert len(read_jsonl(preds)) == len(lines)

    def test_number_too_large_for_a_float_is_not_extracted(self, tmp_path):
        lines = [dict(line) for line in FEVER_CORPUS]
        lines[3]["documents"] = ["Temp = 1" + "0" * 400 + " now."]
        corpus = write_corpus(tmp_path / "c.jsonl", lines)
        bundle, preds = tmp_path / "b.json", tmp_path / "p.jsonl"
        assert main(["train", "--corpus", corpus, "--out", str(bundle)]) == 0
        assert main(["predict", "--corpus", corpus, "--bundle", str(bundle),
                     "--out", str(preds)]) == 0
        assert len(read_jsonl(preds)) == len(lines)

    def test_deterministic_bundle_bytes(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
        assert main(["train", "--corpus", corpus, "--out", str(b1)]) == 0
        assert main(["train", "--corpus", corpus, "--out", str(b2)]) == 0
        assert b1.read_bytes() == b2.read_bytes()


class TestPredict:
    def test_empty_corpus_gives_empty_output(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        bundle = tmp_path / "bundle.json"
        assert main(["train", "--corpus", corpus, "--out", str(bundle)]) == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        rc = main(["predict", "--corpus", str(empty), "--bundle", str(bundle), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""

    def test_unsupported_bundle_version_exits_2(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        bundle = tmp_path / "bundle.json"
        assert main(["train", "--corpus", corpus, "--out", str(bundle)]) == 0
        obj = json.loads(bundle.read_text())
        obj["format_version"] = "99"
        bundle.write_text(json.dumps(obj))
        rc = main(["predict", "--corpus", corpus, "--bundle", str(bundle),
                   "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2

    def test_format_1_bundle_exits_2_asking_to_retrain(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        bundle = tmp_path / "bundle.json"
        assert main(["train", "--corpus", corpus, "--out", str(bundle)]) == 0
        obj = json.loads(bundle.read_text())
        obj["format_version"] = "1"
        bundle.write_text(json.dumps(obj))
        capsys.readouterr()
        rc = main(["predict", "--corpus", corpus, "--bundle", str(bundle),
                   "--out", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "format_version '1'" in err and "retrain" in err
        assert "Traceback" not in err

    def test_missing_bundle_exits_2(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        rc = main(["predict", "--corpus", corpus, "--bundle", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2


class TestExplain:
    def trained(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        thresholds = write_json(tmp_path / "th.json", FEVER_THRESHOLDS)
        bundle = tmp_path / "bundle.json"
        assert main(["train", "--corpus", corpus, "--out", str(bundle),
                     "--thresholds", thresholds]) == 0
        return corpus, str(bundle)

    def test_dataword_justification_with_rendering(self, tmp_path):
        corpus, bundle = self.trained(tmp_path)
        out = tmp_path / "just.jsonl"
        rc = main(["explain", "--corpus", corpus, "--bundle", bundle, "--out", str(out)])
        assert rc == 0
        rows = read_jsonl(out)
        e1 = [r for r in rows if r["encounter_id"] == "e1" and r["label"] == "A01"]
        assert len(e1) == 1
        top = e1[0]["justifications"][0]
        assert top["kind"] == "dataword"
        assert top["rendering"] == "Temperature was very high [104.3]"

    def test_text_only_filter_excludes_datawords(self, tmp_path):
        corpus, bundle = self.trained(tmp_path)
        out = tmp_path / "just.jsonl"
        rc = main(["explain", "--corpus", corpus, "--bundle", bundle, "--out", str(out),
                   "--filter", "text_only"])
        assert rc == 0
        for row in read_jsonl(out):
            assert all(j["kind"] == "text" for j in row["justifications"])

    def test_topk_larger_than_sentence_count(self, tmp_path):
        corpus, bundle = self.trained(tmp_path)
        out = tmp_path / "just.jsonl"
        rc = main(["explain", "--corpus", corpus, "--bundle", bundle, "--out", str(out),
                   "--topk", "50"])
        assert rc == 0
        rows = read_jsonl(out)
        e1 = [r for r in rows if r["encounter_id"] == "e1" and r["label"] == "A01"][0]
        # e1 has three text sentences ("104.3" splits on its period) + one DataWords line
        assert len(e1["justifications"]) == 4

    def test_units_already_explained_are_freed(self, tmp_path, monkeypatch):
        # a unit's sentences are built when it is explained; holding every
        # explained unit until the last row is written would keep them all
        corpus, bundle = self.trained(tmp_path)
        refs, alive = [], []
        real_units, real_score = cli._predictside_units, cli.score_sentences

        def units(*args):
            prepared = real_units(*args)
            refs.extend(weakref.ref(u) for u in prepared)
            return prepared

        def score(bundle, label, unit):
            scored = real_score(bundle, label, unit)
            k = next(i for i, ref in enumerate(refs) if ref() is unit)
            alive.append((k, [i for i, ref in enumerate(refs[:k]) if ref() is not None]))
            return scored

        monkeypatch.setattr(cli, "_predictside_units", units)
        monkeypatch.setattr(cli, "score_sentences", score)
        out = tmp_path / "just.jsonl"
        assert main(["explain", "--corpus", corpus, "--bundle", bundle, "--out", str(out)]) == 0
        assert len({k for k, _ in alive}) >= 2
        assert alive == [(k, []) for k, _ in alive]
        assert len(read_jsonl(out)) == len(alive)

    @pytest.mark.parametrize("topk", ["0", "-1"])
    def test_topk_below_one_exits_2(self, tmp_path, capsys, topk):
        corpus, bundle = self.trained(tmp_path)
        out = tmp_path / "just.jsonl"
        capsys.readouterr()
        rc = main(["explain", "--corpus", corpus, "--bundle", bundle, "--out", str(out),
                   "--topk", topk])
        assert rc == 2
        assert f"setting 'topk' must be at least 1, got {topk}" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def test_default_mode_list_writes_two_reports(self, tmp_path, capsys, synth_corpus):
        out = tmp_path / "reports"
        capsys.readouterr()
        rc = main(["evaluate", "--corpus", synth_corpus, "--out", str(out)])
        assert rc == 0
        assert (out / "report_text_only.json").exists()
        assert (out / "report_text_plus_datawords.json").exists()
        times = [line for line in capsys.readouterr().err.splitlines() if "[time]" in line]
        assert len(times) == 1 and times[0].startswith("[time] evaluate: ")

    def test_too_few_encounters_exits_2(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS[:2])
        rc = main(["evaluate", "--corpus", corpus, "--out", str(tmp_path / "r"),
                   "--folds", "3"])
        assert rc == 2

    @pytest.mark.parametrize("folds", ["0", "1", str(len(FEVER_CORPUS) + 1)])
    def test_bad_fold_count_leaves_no_out_directory(self, tmp_path, folds):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        out = tmp_path / "reports"
        rc = main(["evaluate", "--corpus", corpus, "--out", str(out), "--folds", folds])
        assert rc == 2
        assert not out.exists()

    def test_failing_mode_leaves_no_out_directory(self, tmp_path, capsys):
        """text_only computes no statistics and passes; text_plus_datawords
        refuses the Temp reading. Every mode runs before anything is
        written, so not even text_only's report is left behind."""
        lines = FEVER_CORPUS + [
            {"encounter_id": "e5", "documents": ["Temp = 1" + "0" * 200 + " now."],
             "codes": ["A01"]},
            {"encounter_id": "e6", "documents": ["a quiet night."], "codes": []},
        ]
        corpus = write_corpus(tmp_path / "c.jsonl", lines)
        out = tmp_path / "reports"
        rc = main(["evaluate", "--corpus", corpus, "--out", str(out), "--folds", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "numeric variable 'Temp': readings too large for float arithmetic" in err
        assert "[time]" not in err
        assert not out.exists()

    def test_fixed_seed_identical_bytes(self, tmp_path, synth_corpus):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["evaluate", "--corpus", synth_corpus, "--mode", "text_plus_datawords"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        name = "report_text_plus_datawords.json"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_label_table_csv(self, tmp_path, synth_corpus):
        out = tmp_path / "reports"
        rc = main(["evaluate", "--corpus", synth_corpus, "--out", str(out),
                   "--mode", "text_plus_datawords", "--label-table"])
        assert rc == 0
        csv = (out / "labels_text_plus_datawords.csv").read_text()
        assert csv.splitlines()[0] == "label,tp,fp,fn,precision,recall,f1"


class TestPipelineEquivalence:
    def test_evaluate_equals_composed_commands(self, tmp_path, synth_corpus):
        """evaluate == extract -> train -> predict composed per fold."""
        out = tmp_path / "reports"
        rc = main(["evaluate", "--corpus", synth_corpus, "--out", str(out),
                   "--mode", "text_plus_datawords"])
        assert rc == 0
        report = json.loads((out / "report_text_plus_datawords.json").read_text())

        encounters = load_corpus(synth_corpus)
        split = kfold_split(encounters, 4, 42)
        by_id = {e.encounter_id: e for e in encounters}
        preds, gold = [], []
        for fold in range(4):
            train_path = tmp_path / f"train{fold}.jsonl"
            test_path = tmp_path / f"test{fold}.jsonl"
            save_corpus([by_id[i] for i in split.train_ids(fold)], train_path)
            save_corpus([by_id[i] for i in split.test_ids(fold)], test_path)

            train_ext = tmp_path / f"train_ext{fold}.jsonl"
            test_ext = tmp_path / f"test_ext{fold}.jsonl"
            assert main(["extract", "--corpus", str(train_path), "--out", str(train_ext)]) == 0
            assert main(["extract", "--corpus", str(test_path), "--out", str(test_ext)]) == 0

            bundle = tmp_path / f"bundle{fold}.json"
            assert main(["train", "--corpus", str(train_path), "--out", str(bundle),
                         "--source", "external", "--extractions", str(train_ext)]) == 0

            pred_path = tmp_path / f"preds{fold}.jsonl"
            assert main(["predict", "--corpus", str(test_path), "--bundle", str(bundle),
                         "--out", str(pred_path), "--extractions", str(test_ext)]) == 0

            for row in read_jsonl(pred_path):
                items = tuple(
                    PredictionItem(label=p["label"], score=p["score"], predicted=p["predicted"])
                    for p in row["predictions"]
                )
                preds.append(PredictionSet(encounter_id=row["encounter_id"],
                                           doc_index=row["doc_index"], items=items))
                gold.append(by_id[row["encounter_id"]].codes)

        p, r, f1 = micro_metrics(confusion_counts(preds, gold))
        assert p == report["micro"]["precision"]
        assert r == report["micro"]["recall"]
        assert f1 == report["micro"]["f1"]


class TestStatsAndEncode:
    def test_stats_output(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        out = tmp_path / "stats.json"
        assert main(["stats", "--corpus", corpus, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["Temp"]["count"] == 3
        assert obj["Temp"]["mean"] == pytest.approx((104.3 + 105.2 + 98.6) / 3)

    def test_encode_output(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        out = tmp_path / "aug.jsonl"
        assert main(["encode", "--corpus", corpus, "--out", str(out)]) == 0
        rows = read_jsonl(out)
        assert len(rows) == 4
        e1 = rows[0]
        assert e1["encounter_id"] == "e1" and e1["doc_index"] == 0
        assert any(d["text"].startswith("dw__Temp__") for d in e1["datawords"])
        assert e1["text"].endswith(e1["datawords"][-1]["text"])

    def test_encode_datawords_only_mode(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        out = tmp_path / "aug.jsonl"
        rc = main(["encode", "--corpus", corpus, "--out", str(out),
                   "--mode", "datawords_only"])
        assert rc == 0
        for row in read_jsonl(out):
            for line in row["text"].splitlines():
                assert line.startswith("dw__")


class TestDbSource:
    def test_db_measurements_roll_up_into_training(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "c.jsonl",
            [
                {"encounter_id": "e1", "documents": ["note one."], "codes": ["H"]},
                {"encounter_id": "e2", "documents": ["note two."], "codes": ["H"]},
                {"encounter_id": "e3", "documents": ["note three."], "codes": []},
                {"encounter_id": "e4", "documents": ["note four."], "codes": []},
            ],
        )
        db = tmp_path / "db.jsonl"
        rows = []
        for eid, values in (("e1", [150, 155]), ("e2", [152]), ("e3", [100]), ("e4", [99])):
            rows.extend({"encounter_id": eid, "name": "Glucose", "value": v} for v in values)
        db.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")

        aug = tmp_path / "aug.jsonl"
        rc = main(["encode", "--corpus", corpus, "--out", str(aug),
                   "--source", "db", "--extractions", str(db)])
        assert rc == 0
        e1 = read_jsonl(aug)[0]
        names = {d["text"].split("__")[1] for d in e1["datawords"]}
        assert names == {"Glucose_mean", "Glucose_min", "Glucose_max"}


class TestBatchedReadPath:
    def test_explain_equals_per_encounter_rows(self, tmp_path, db_synth_corpus):
        corpus, db = db_synth_corpus
        bundle_path = tmp_path / "bundle.json"
        assert main(["train", "--corpus", corpus, "--out", str(bundle_path),
                     "--source", "db", "--extractions", db]) == 0
        out = tmp_path / "just.jsonl"
        assert main(["explain", "--corpus", corpus, "--bundle", str(bundle_path),
                     "--out", str(out), "--extractions", db]) == 0

        bundle = load_bundle(bundle_path)
        records = load_db_measurements(db)
        expected = []
        for enc in load_corpus(corpus):
            units = prepare_units(bundle, enc, records)
            for unit, pset in zip(units, predict_units(bundle, units)):
                for item in pset.items:
                    if not item.predicted:
                        continue
                    just = top_justifications(score_sentences(bundle, item.label, unit), k=3)
                    expected.append({
                        "encounter_id": unit.encounter_id,
                        "doc_index": unit.doc_index,
                        "label": item.label,
                        "justifications": [
                            {"rank": j.rank, "kind": j.sentence.kind, "score": j.score,
                             "text": j.sentence.text, "rendering": j.rendering}
                            for j in just
                        ],
                    })
        lines = [json.dumps(row, separators=(",", ":")) + "\n" for row in expected]
        assert any(j["kind"] == "dataword" for row in expected for j in row["justifications"])
        assert out.read_text(encoding="utf-8") == "".join(lines)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda obj: obj["tfidf"].update(idf=obj["tfidf"]["idf"][:5]),
             "tfidf.idf has 5 entries"),
            (lambda obj: set_last_weight_index(obj["labels"][0], 10**6),
             "weight index 1000000 outside"),
            (lambda obj: obj.update(unit="sentence"), "unknown classification unit: 'sentence'"),
            (lambda obj: obj.update(ablation_mode="text"), "unknown ablation mode: 'text'"),
            (lambda obj: obj["extraction"].update(source="pattern"),
             "unknown extraction source: 'pattern'"),
            (lambda obj: obj.update(selected_variables="Temp_mean"),
             "selected_variables must be null or a list of strings"),
            (lambda obj: obj["rollup"].update(provenances="database"),
             "rollup_provenances must be None or a tuple"),
            (lambda obj: obj["labels"][0].update(code=["x"]),
             "label ['x']: code must be a nonempty string"),
            (lambda obj: obj["labels"].append(dict(obj["labels"][0], bias=0.0)),
             "label 'A01': repeats an earlier label"),
            (lambda obj: obj["labels"][0].update(bias="0.5"),
             "label 'A01': bias must be a number, got '0.5'"),
            (lambda obj: obj["labels"][0].update(threshold="0.5"),
             "label 'A01': threshold must be a number or null, got '0.5'"),
        ],
        ids=["truncated_idf", "weight_index_out_of_range", "unknown_unit",
             "unknown_ablation_mode", "unknown_extraction_source",
             "string_selected_variables", "string_rollup_provenances",
             "list_code", "repeated_code", "string_bias", "string_threshold"],
    )
    def test_predict_on_bad_bundle_exits_with_message(self, tmp_path, capsys, corrupt, message):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        bundle = tmp_path / "bundle.json"
        assert main(["train", "--corpus", corpus, "--out", str(bundle)]) == 0
        obj = json.loads(bundle.read_text())
        corrupt(obj)
        bundle.write_text(json.dumps(obj))
        capsys.readouterr()
        rc = main(["predict", "--corpus", corpus, "--bundle", str(bundle),
                   "--out", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert rc == 1
        assert message in err
        assert "Traceback" not in err


    def test_predict_on_nan_idf_bundle_exits_1(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        bundle = tmp_path / "bundle.json"
        assert main(["train", "--corpus", corpus, "--out", str(bundle)]) == 0
        obj = json.loads(bundle.read_text())
        obj["tfidf"]["idf"][0] = float("nan")
        bundle.write_text(json.dumps(obj))
        capsys.readouterr()
        out = tmp_path / "p.jsonl"
        rc = main(["predict", "--corpus", corpus, "--bundle", str(bundle), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "tfidf.idf[0] must be a finite positive number, got nan" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestOutputIdempotence:
    def test_extract_predict_explain_bytes_stable(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        thresholds = write_json(tmp_path / "th.json", FEVER_THRESHOLDS)
        bundle = tmp_path / "bundle.json"
        assert main(["train", "--corpus", corpus, "--out", str(bundle),
                     "--thresholds", thresholds]) == 0
        pairs = []
        for cmd, extra in (
            ("extract", []),
            ("predict", ["--bundle", str(bundle)]),
            ("explain", ["--bundle", str(bundle)]),
        ):
            o1, o2 = tmp_path / f"{cmd}1.jsonl", tmp_path / f"{cmd}2.jsonl"
            assert main([cmd, "--corpus", corpus, "--out", str(o1)] + extra) == 0
            assert main([cmd, "--corpus", corpus, "--out", str(o2)] + extra) == 0
            pairs.append((o1, o2))
        for o1, o2 in pairs:
            assert o1.read_bytes() == o2.read_bytes()


COMMANDS = ("extract", "stats", "encode", "train", "predict", "explain", "evaluate", "synth")

# A config that every subcommand runs with, one value for each setting; the
# full_config fixture fills in the input paths, and run_with_config the out.
FULL_CONFIG = {
    "bundle": "", "corpus": "", "extractions": "", "filter": "all", "folds": 2,
    "hash_bits": 10, "l2_normalize": True, "lam": 2.0, "measurement_filter": {"mode": "all"},
    "min_df": 1, "min_positive": 1, "mode": "text_plus_datawords",
    "modes": ["text_plus_datawords"], "out": "", "patterns": "", "rollup": ["mean"],
    "rollup_provenances": ["database"], "seed": 3, "source": "patterns", "spec": "",
    "threads": 1, "thresholds": "", "topk": 2, "unit": "document",
}

# Settings whose field may be None take JSON null.
NULLABLE = ("hash_bits", "rollup_provenances")


def config_mutations(key, value):
    """(kind, value) pairs that no subcommand may accept for ``key`` in
    place of the valid ``value``; an integer is also a number."""
    wrong = {bool: [1, "true"], int: [2.5, "2", True], float: ["2.0", False], str: [7, True],
             list: [7], dict: ["all"]}[type(value)]
    out = [("wrong_type", w) for w in wrong]
    if key not in NULLABLE:
        out.append(("null", None))
    if isinstance(value, list):
        out.append(("string_for_list", value[0]))
    if isinstance(value, str):
        out.append(("list_for_string", [value]))
    if isinstance(value, dict):
        out.append(("nested_object", {k: {"value": v} for k, v in value.items()}))
    else:
        out.append(("nested_object", {"value": value}))
    return out


CONFIG_MUTATIONS = [
    (key, kind, bad) for key, value in FULL_CONFIG.items()
    for kind, bad in config_mutations(key, value)
]


def run_with_config(config, command):
    """Run one subcommand with ``config`` as its only argument and return
    its exit code and standard error. A string ``out`` is replaced by a
    path in a fresh directory, and a failed run must not have written it."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if isinstance(config["out"], str):
            config = {**config, "out": str(out)}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", write_json(Path(tmp) / "cfg.json", config)])
        assert rc == 0 or not out.exists()
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def full_config(tmp_path_factory):
    """FULL_CONFIG with its input files written and a bundle trained."""
    root = tmp_path_factory.mktemp("full_config")
    spec = write_json(root / "spec.json", {**SYNTH_SPEC, "documents": 24})
    corpus = root / "corpus.jsonl"
    bundle = root / "bundle.json"
    assert main(["synth", "--spec", spec, "--out", str(corpus)]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(bundle)]) == 0
    (root / "records.jsonl").write_text("", encoding="utf-8")
    return {
        **FULL_CONFIG, "bundle": str(bundle), "corpus": str(corpus), "spec": spec,
        "extractions": str(root / "records.jsonl"),
        "patterns": write_json(root / "patterns.json", {"aliases": {"Temp": "Temp"}}),
        "thresholds": write_json(root / "thresholds.json", FEVER_THRESHOLDS),
    }


class TestConfigFile:
    def test_flags_override_config_file(self, tmp_path, synth_corpus):
        cfg = write_json(tmp_path / "cfg.json",
                         {"corpus": synth_corpus, "folds": 2, "seed": 7})
        out = tmp_path / "reports"
        rc = main(["evaluate", "--config", cfg, "--out", str(out),
                   "--mode", "text_plus_datawords", "--folds", "4"])
        assert rc == 0
        report = json.loads((out / "report_text_plus_datawords.json").read_text())
        assert report["fold_count"] == 4  # flag wins
        assert report["seed"] == 7  # config file fills the gap

    def test_invalid_config_file_exits_2(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{nope", encoding="utf-8")
        rc = main(["evaluate", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 2

    @pytest.mark.parametrize("provenances", ["database", ["database", "ocr"], {"database": 1}])
    def test_bad_rollup_provenances_exit_2(self, tmp_path, capsys, provenances):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        cfg = write_json(tmp_path / "cfg.json", {"rollup_provenances": provenances})
        rc = main(["train", "--config", cfg, "--corpus", corpus,
                   "--out", str(tmp_path / "b.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "rollup_provenances must be None or a tuple" in err
        assert "Traceback" not in err
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_hashed_config_with_min_df_exits_2(self, tmp_path, capsys, command):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        cfg = write_json(tmp_path / "cfg.json", {"hash_bits": 12, "min_df": 2})
        out = tmp_path / ("b.json" if command == "train" else "reports")
        rc = main([command, "--config", cfg, "--corpus", corpus, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: min_df must be 1 with hash_bits, as the hashed vectorizer keeps " \
               "every slot; got 2" in err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"measurement_filter": "all"}, "measurement_filter must be an object, got 'all'"),
            ({"measurement_filter": {"mode": "top_n", "n": "3"}},
             "measurement_filter n must be an integer, got '3'"),
            ({"hash_bits": "8"}, "setting 'hash_bits' must be an integer, got '8'"),
            ({"lam": "x"}, "setting 'lam' must be a number, got 'x'"),
            ({"min_df": "a"}, "setting 'min_df' must be an integer, got 'a'"),
            ({"l2_normalize": "false"}, "setting 'l2_normalize' must be true or false"),
            ({"thresholds": {"Temp": {}}}, "setting 'thresholds' must be a string"),
            ({"rollup": "mean"}, "setting 'rollup' must be a list of aggregate names, got 'mean'"),
            ({"lam": None}, "setting 'lam' must be a number, got None"),
            ({"min_df": None}, "setting 'min_df' must be an integer, got None"),
            ({"min_positive": None}, "setting 'min_positive' must be an integer, got None"),
            ({"threads": None}, "setting 'threads' must be an integer, got None"),
            ({"topk": None}, "setting 'topk' must be an integer, got None"),
            ({"l2_normalize": None}, "setting 'l2_normalize' must be true or false, got None"),
            ({"seed": None}, "setting 'seed' must be an integer, got None"),
            ({"corpus": 7}, "setting 'corpus' must be a string, got 7"),
            ({"out": 7}, "setting 'out' must be a string, got 7"),
            ({"bundle": 7}, "setting 'bundle' must be a string, got 7"),
            ({"spec": 7}, "setting 'spec' must be a string, got 7"),
            ({"extractions": 7}, "setting 'extractions' must be a string, got 7"),
            ({"threads": 0}, "threads must be >= 1, got 0"),
        ],
        ids=["filter_string", "filter_n_string", "hash_bits_string", "lam_string",
             "min_df_string", "l2_normalize_string", "thresholds_object", "rollup_string",
             "lam_null", "min_df_null", "min_positive_null", "threads_null", "topk_null",
             "l2_normalize_null", "seed_null", "corpus_number", "out_number", "bundle_number",
             "spec_number", "extractions_number", "threads_zero"],
    )
    def test_mistyped_setting_exits_2(self, tmp_path, capsys, setting, message):
        # corpus and out come from the file, so that the setting can replace them
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        out = tmp_path / "b.json"
        cfg = write_json(tmp_path / "cfg.json", {"corpus": corpus, "out": str(out), **setting})
        rc = main(["train", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "modes, shown",
        [([], "[]"), ("text_only", "'text_only'"), (["text_only", 1], "['text_only', 1]")],
        ids=["empty_list", "string", "non_string_entry"],
    )
    def test_modes_must_be_a_nonempty_list_of_names(self, tmp_path, capsys, synth_corpus,
                                                    modes, shown):
        cfg = write_json(tmp_path / "cfg.json", {"corpus": synth_corpus, "modes": modes})
        out = tmp_path / "reports"
        rc = main(["evaluate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"setting 'modes' must be a nonempty list of mode names, got {shown}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "train", "evaluate"])
    def test_run_without_corpus_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--out", str(out)]) == 2
        assert "missing required setting: --corpus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, message", [
        pytest.param("train", "--corpus", "Is a directory", id="corpus-directory"),
        pytest.param("train", "--config", "Is a directory", id="config-directory"),
        pytest.param("train", "--out", "Is a directory", id="train-out-directory"),
        pytest.param("evaluate", "--out", "File exists", id="evaluate-out-file"),
        pytest.param("evaluate", "--out", "Not a directory", id="evaluate-out-under-file"),
    ])
    def test_unusable_path_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, command, flag,
                                             message):
        """A path that exists but is the wrong kind of thing is refused with
        the system's reason, before any cross-validation runs, and nothing
        is written."""
        def no_cv(*args, **kwargs):
            raise AssertionError("run_cv called before the path was refused")

        monkeypatch.setattr(cli, "run_cv", no_cv)
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        bad = tmp_path / "bad"
        if message == "Is a directory":
            bad.mkdir()
        else:
            bad.write_text("", encoding="utf-8")
        if message == "Not a directory":
            bad = bad / "reports"
        args = {"--corpus": corpus, "--out": str(tmp_path / "out"), "--folds": "2", flag: str(bad)}
        before = sorted(tmp_path.rglob("*"))
        assert main([command, *(word for item in args.items() for word in item)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: {message}" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "command, setting, message",
        [("explain", {"filter": "bogus"}, "unknown justification filter: 'bogus'"),
         ("evaluate", {"modes": ["text_only", "bogus"]}, "unknown ablation mode: 'bogus'")],
        ids=["explain-filter", "evaluate-modes"],
    )
    def test_unknown_filter_or_mode_in_config_exits_2(self, tmp_path, capsys, command, setting,
                                                      message):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        bundle = tmp_path / "b.json"
        assert main(["train", "--corpus", corpus, "--out", str(bundle)]) == 0
        cfg = write_json(tmp_path / "cfg.json",
                         {"corpus": corpus, "bundle": str(bundle), **setting})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        cfg = write_json(tmp_path / "cfg.json", {"lam": 2.0, "lambda": 50})
        rc = main(["train", "--config", cfg, "--corpus", corpus,
                   "--out", str(tmp_path / "b.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown setting(s) 'lambda'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "b.json").exists()

    def test_one_config_serves_train_predict_and_explain(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", FEVER_CORPUS)
        bundle = tmp_path / "b.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "corpus": corpus, "lam": 2.0, "min_df": 1, "unit": "document", "rollup": ["mean"],
            "measurement_filter": {"mode": "all"}, "folds": 2, "seed": 3, "topk": 2,
            "filter": "all", "bundle": str(bundle),
        })
        assert main(["train", "--config", cfg, "--out", str(bundle)]) == 0
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "p.jsonl")]) == 0
        assert main(["explain", "--config", cfg, "--out", str(tmp_path / "e.jsonl")]) == 0
        assert load_bundle(bundle).lam == 2.0

    def test_config_keys_are_exactly_the_keys_the_subcommands_read(self, monkeypatch,
                                                                   full_config):
        read = set()

        class Recording(dict):
            def __contains__(self, key):
                read.add(key)
                return super().__contains__(key)

            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        def recorded(args, *required):
            read.update(required)
            return Recording(real(args, *required))

        real = cli._settings
        monkeypatch.setattr(cli, "_settings", recorded)
        without_mode = {k: v for k, v in full_config.items() if k != "mode"}  # reads modes
        for config, command in [(full_config, c) for c in COMMANDS] + [(without_mode, "evaluate")]:
            rc, err = run_with_config(config, command)
            assert rc == 0, err
        assert read == set(cli.SETTINGS)
        assert set(full_config) == set(cli.SETTINGS)

    @settings(max_examples=40, deadline=timedelta(seconds=10))
    @given(command=st.sampled_from(COMMANDS), mutation=st.sampled_from(CONFIG_MUTATIONS))
    def test_mutated_config_value_exits_with_message(self, full_config, command, mutation):
        key, _kind, value = mutation
        # the package checks these when it builds a PipelineConfig, which
        # predict, explain and synth do not
        assume(key not in ("measurement_filter", "rollup_provenances")
               or command not in ("predict", "explain", "synth"))
        rc, err = run_with_config({**full_config, key: value}, command)
        assert rc in (1, 2)
        assert "error:" in err
        assert "Traceback" not in err


def test_python_dash_m_datawords_runs_the_cli(tmp_path):
    spec = write_json(tmp_path / "spec.json", SYNTH_SPEC)
    in_process, via_module = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["synth", "--spec", spec, "--out", str(in_process)]) == 0
    src = str(Path(datawords.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "datawords", "synth", "--spec", spec, "--out", str(via_module)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert via_module.read_bytes() == in_process.read_bytes()
    times = [line for line in result.stderr.splitlines() if "[time]" in line]
    assert len(times) == 1 and times[0].startswith("[time] synth: ")


def test_bundle_bytes_independent_of_blas_threads(tmp_path):
    # The package pins BLAS on import, which only works before numpy loads,
    # and this test process has loaded it already; so train in fresh
    # interpreters. The corpus is large enough (~200 units and features)
    # for a multithreaded BLAS to round the dense solve differently.
    spec = write_json(tmp_path / "spec.json", {**SYNTH_SPEC, "documents": 200})
    corpus = tmp_path / "synth.jsonl"
    assert main(["synth", "--spec", spec, "--out", str(corpus)]) == 0
    src = str(Path(datawords.__file__).resolve().parent.parent)
    bundles = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"bundle_blas{blas_threads}.json"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas_threads,
               "OMP_NUM_THREADS": blas_threads, "MKL_NUM_THREADS": blas_threads}
        subprocess.run(
            [sys.executable, "-m", "datawords.cli", "train", "--corpus", str(corpus),
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        bundles.append(out.read_bytes())
    assert bundles[0] == bundles[1]
