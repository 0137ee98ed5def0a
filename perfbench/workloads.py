"""The benchmark workloads: what each times and how its outputs are checked.

Every workload is a batch job with one caller, so each is a closed loop:
the next call starts when the previous one returns. Each job calls the
library's public functions the way the `datawords` subcommands do
(`evaluate`, `train`, `predict`, `explain`), including writing their JSON
outputs, with `PipelineConfig.threads=1`.

A job returns a `Rep`; the harness times it, hashes the files it wrote and
hands all repetitions to `checks`, which returns (name, passed, detail)
triples. Checks never run inside the timed region.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from datawords import corpus, evaluation, explain, extraction, model

import gen

MODES = ("text_only", "text_plus_datawords")


@dataclass
class Rep:
    """One repetition of a workload's job."""

    units: int
    ops: int
    files: tuple[str, ...]
    values: dict = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    wall: float = 0.0
    scaled: float = 0.0
    sha256: dict[str, str] = field(default_factory=dict)


def _no_span(name):
    return nullcontext()


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def _f1(predictions, gold) -> float:
    counts = evaluation.confusion_counts(predictions, gold)
    return evaluation.micro_metrics(counts)[2]


class Workload:
    name = ""
    size = 0
    # names under which the job's median seconds and units/s are printed
    job_name = "job_s"
    rate_name = "units_per_s"
    # seconds for latencies; the harness swaps in one that leaves out the
    # time its speed probe takes
    clock = staticmethod(time.perf_counter)

    def __init__(self, inputs: Path, out: Path):
        self.inputs = inputs
        self.out = out

    def pattern_config(self) -> extraction.PatternConfig:
        return extraction.PatternConfig.from_file(self.inputs / "patterns.json")

    def run(self, span=_no_span) -> Rep:
        raise NotImplementedError

    def checks(self, reps: list[Rep]) -> list[tuple[str, bool, str]]:
        return []

    def report(self, reps: list[Rep]) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures, by name: (value, unit)."""
        return {}


class CvHashedDb(Workload):
    """The paper's uplift experiment, text-only vs text+DataWords cross-validation,
    over a database dump: roll-up and selection, hashed vectorizer, encounter units."""

    name = "cv_hashed_db"
    size = 250
    job_name = "cv_s"
    f1_floor = 0.5

    def run(self, span=_no_span) -> Rep:
        with span("bench.job"):
            encounters = corpus.load_corpus(self.inputs / "corpus.jsonl")
            records = extraction.load_db_measurements(self.inputs / "db.jsonl")
            config = model.PipelineConfig(
                unit="encounter",
                hash_bits=18,
                extraction_source="db",
                external_records=tuple(records),
                measurement_filter=extraction.MeasurementFilter(mode="top_n_excluding_top_m", n=7, m=1),
                rollup_policy=extraction.RollupPolicy(("mean", "min", "max", "last")),
                threads=1,
            )
            f1 = {}
            for mode in MODES:
                report = evaluation.run_cv(encounters, replace(config, ablation_mode=mode))
                (self.out / f"report_{mode}.json").write_bytes(report.to_json_bytes())
                f1[mode] = report.micro[2]
        return Rep(
            units=len(encounters) * len(MODES),
            ops=len(MODES),
            files=tuple(f"report_{m}.json" for m in MODES),
            values={
                "micro_f1": f1["text_plus_datawords"],
                "datawords_uplift_f1": f1["text_plus_datawords"] - f1["text_only"],
                "encounters": len(encounters),
                "records": len(records),
            },
        )

    def checks(self, reps):
        v = reps[-1].values
        per_encounter = v["records"] / v["encounters"]
        return [
            ("uplift_positive", v["datawords_uplift_f1"] > 0, f"{v['datawords_uplift_f1']:.4f}"),
            ("micro_f1_floor", v["micro_f1"] >= self.f1_floor, f"{v['micro_f1']:.4f} >= {self.f1_floor}"),
            ("shape_records_per_encounter", per_encounter > 10, f"{per_encounter:.1f}"),
        ]

    def report(self, reps):
        v = reps[-1].values
        return {
            "micro_f1": (v["micro_f1"], "1"),
            "datawords_uplift_f1": (v["datawords_uplift_f1"], "1"),
        }


class TrainWide(Workload):
    """Training at a realistic label count, with fewer units than features."""

    name = "train_wide"
    size = 500
    job_name = "train_s"
    labels = gen.TRAIN_WIDE_SHAPE[0] * len(gen.BINS)

    def config(self) -> model.PipelineConfig:
        return model.PipelineConfig(pattern_config=self.pattern_config(), threads=1)

    def run(self, span=_no_span) -> Rep:
        with span("bench.job"):
            encounters = corpus.load_corpus(self.inputs / "corpus.jsonl")
            bundle = model.train_all(encounters, self.config())
            model.save_bundle(bundle, self.out / "bundle.json")
        self.bundle = bundle
        return Rep(
            units=len(encounters),
            ops=1,
            files=("bundle.json",),
            values={"dimension": bundle.tfidf.dimension, "labels": len(bundle.label_models)},
        )

    def checks(self, reps):
        v = reps[-1].values
        out = [
            ("shape_labels", v["labels"] == self.labels, f"{v['labels']} labels"),
            ("shape_units_below_features", reps[-1].units < v["dimension"],
             f"{reps[-1].units} units, {v['dimension']} features"),
        ]
        loaded = model.load_bundle(self.out / "bundle.json")
        heldout = corpus.load_corpus(self.inputs / "heldout.jsonl")
        after = [p for enc in heldout for p in model.predict(loaded, enc)]
        before = [p for enc in heldout for p in model.predict(self.bundle, enc)]
        out.append(("round_trip_predictions", after == before, f"{len(after)} held-out units"))

        config = replace(self.config(), threads=2)
        encounters = corpus.load_corpus(self.inputs / "corpus.jsonl")
        model.save_bundle(model.train_all(encounters, config), self.out / "bundle_threads2.json")
        same = (self.out / "bundle.json").read_bytes() == (self.out / "bundle_threads2.json").read_bytes()
        out.append(("bundle_threads_1_vs_2", same, "bundle bytes with threads=1 and threads=2"))
        return out


class PredictExplain(Workload):
    """The read side: load a bundle, then predict and explain one encounter at a time."""

    name = "predict_explain"
    size = 400
    job_name = "predict_explain_s"
    rate_name = "predict_units_per_s"
    labels = gen.PREDICT_EXPLAIN_SHAPE[0] * len(gen.BINS)
    f1_floor = 0.25
    topk = 3

    def run(self, span=_no_span) -> Rep:
        latencies = []
        predictions, pred_rows, just_rows = [], [], []
        with span("bench.job"):
            bundle = model.load_bundle(self.inputs / "bundle.json")
            encounters = corpus.load_corpus(self.inputs / "heldout.jsonl")
            for enc in encounters:
                start = self.clock()
                with span("bench.encounter"):
                    units = model.prepare_units(bundle, enc)
                    psets = model.predict_units(bundle, units)
                    for unit, pset in zip(units, psets):
                        pred_rows.append(_prediction_row(pset))
                        for item in pset.items:
                            if item.predicted:
                                scored = explain.score_sentences(bundle, item.label, unit)
                                just = explain.top_justifications(scored, k=self.topk)
                                just_rows.append(_justification_row(unit, item.label, just))
                latencies.append(self.clock() - start)
                predictions.extend(psets)
            _write_jsonl(self.out / "predictions.jsonl", pred_rows)
            _write_jsonl(self.out / "justifications.jsonl", just_rows)
        gold = {e.encounter_id: e.codes for e in encounters}
        predicted = sum(len(p.predicted_labels()) for p in predictions)
        scores = [it["score"] for row in pred_rows for it in row["predictions"]]
        scores += [j["score"] for row in just_rows for j in row["justifications"]]
        return Rep(
            units=len(pred_rows),
            ops=len(encounters),
            files=("predictions.jsonl", "justifications.jsonl"),
            latencies=latencies,
            values={
                "labels": len(bundle.label_models),
                "predicted": predicted,
                "justification_rows": len(just_rows),
                "finite": all(math.isfinite(s) for s in scores),
                "micro_f1": _f1(predictions, [gold[p.encounter_id] for p in predictions]),
            },
        )

    def checks(self, reps):
        v = reps[-1].values
        per_unit = v["predicted"] / reps[-1].units
        return [
            ("shape_labels", v["labels"] == self.labels, f"{v['labels']} labels"),
            ("justification_rows_match_predictions", v["justification_rows"] == v["predicted"],
             f"{v['justification_rows']} rows, {v['predicted']} predicted labels ({per_unit:.2f}/unit)"),
            ("scores_finite", v["finite"], ""),
            ("micro_f1_floor", v["micro_f1"] >= self.f1_floor, f"{v['micro_f1']:.4f} >= {self.f1_floor}"),
        ]

    def report(self, reps):
        latencies = sorted(x for r in reps for x in r.latencies)
        return {
            "encounter_latency_p50_ms": (1e3 * percentile(latencies, 0.50), "ms"),
            "encounter_latency_p99_ms": (1e3 * percentile(latencies, 0.99), "ms"),
            "encounter_latency_samples": (len(latencies), "count"),
            "micro_f1": (reps[-1].values["micro_f1"], "1"),
        }


def _prediction_row(pset) -> dict:
    return {
        "encounter_id": pset.encounter_id,
        "doc_index": pset.doc_index,
        "predictions": [
            {"label": it.label, "score": it.score, "predicted": it.predicted} for it in pset.items
        ],
    }


def _justification_row(unit, label, just) -> dict:
    return {
        "encounter_id": unit.encounter_id,
        "doc_index": unit.doc_index,
        "label": label,
        "justifications": [
            {"rank": j.rank, "kind": j.sentence.kind, "score": j.score,
             "text": j.sentence.text, "rendering": j.rendering}
            for j in just
        ],
    }


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


WORKLOADS = {w.name: w for w in (TrainWide, PredictExplain, CvHashedDb)}
