"""Cross-validation harness, multi-label metrics, and synthetic corpora.

Reports carry both micro-averaged metrics (pooled true/false positive
counts over all (unit, label) pairs) and per-document macro averages,
because the two answer different questions and published figures rarely
say which one they used. Every F1 in a report is computed as
2PR / (P + R) from the precision and recall stored next to it, so the
identity can be checked exactly.

Report bytes are fully determined by the corpus, the configuration
digest, and the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Encounter, kfold_split, tokenize
from .encoding import TEXT_MODES
from .errors import ConfigError, InputError
from .jsontypes import COUNT, INTEGER, LIST, NONEMPTY, NONEMPTY_STRINGS, NUMBER, OBJECT, check
from .model import (
    PipelineConfig,
    PredictionSet,
    _encounter_records,
    predict_units,
    prepare_units,
    train_all,
)

SYNTH_BINS = ("very_low", "low", "mid", "high", "very_high")

# Fraction of embedded measurements whose value lands in the planted bin.
# Kept below 1/2 so the in-bin value cluster stays clear of the
# mean + 1 sigma cut that the automatic thresholds will derive per fold.
_IN_BIN_RATE = 1.0 / 3.0

# Sampling windows on a common scale centered at 100.
_IN_WINDOWS = {
    "very_low": (48.0, 52.0),
    "low": (68.0, 72.0),
    "mid": (98.0, 102.0),
    "high": (128.0, 132.0),
    "very_high": (148.0, 152.0),
}
_OUT_WINDOW = (95.0, 105.0)
_OUT_WINDOW_FOR_MID = (148.0, 152.0)

_FILLER_WORDS = (
    "patient", "stable", "noted", "exam", "followup", "denies", "reports",
    "alert", "oriented", "continue", "plan", "normal", "daily", "chronic",
    "acute", "mild", "moderate", "severe", "left", "right", "bilateral",
    "history", "presents", "with", "without", "pain", "improved", "unchanged",
    "monitor", "discharge", "admitted", "review", "labs", "pending", "clear",
    "lungs", "heart", "rate", "regular", "rhythm", "abdomen", "soft",
    "tender", "extremities", "edema", "neuro", "intact", "medications",
    "resumed", "diet", "tolerated", "ambulating", "assistance", "family",
    "updated", "consult", "placed", "orders", "morning", "evening", "dose",
    "increased", "decreased", "held", "started", "completed", "course",
)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _prf(tp: float, fp: float, fn: float) -> tuple[float, float, float]:
    p = _safe_div(tp, tp + fp)
    r = _safe_div(tp, tp + fn)
    f1 = _safe_div(2.0 * p * r, p + r)
    return p, r, f1


def confusion_counts(
    predictions: Sequence[PredictionSet],
    gold: Sequence[Iterable[str]],
) -> dict[str, tuple[int, int, int]]:
    """Per-label (tp, fp, fn) over aligned prediction/gold pairs.

    Gold labels the models never saw still accumulate false negatives.
    """
    if len(predictions) != len(gold):
        raise InputError(
            f"predictions and gold misaligned: {len(predictions)} vs {len(gold)}"
        )
    counts: dict[str, list[int]] = {}

    def cell(label: str) -> list[int]:
        return counts.setdefault(label, [0, 0, 0])

    for pred, gold_labels in zip(predictions, gold):
        predicted = pred.predicted_labels()
        gold_set = set(gold_labels)
        for label in predicted & gold_set:
            cell(label)[0] += 1
        for label in predicted - gold_set:
            cell(label)[1] += 1
        for label in gold_set - predicted:
            cell(label)[2] += 1
    return {label: (c[0], c[1], c[2]) for label, c in counts.items()}


def micro_metrics(counts: Mapping[str, tuple[int, int, int]]) -> tuple[float, float, float]:
    """Pooled precision, recall, F1 with the 0/0 -> 0 convention."""
    tp = sum(c[0] for c in counts.values())
    fp = sum(c[1] for c in counts.values())
    fn = sum(c[2] for c in counts.values())
    return _prf(tp, fp, fn)


def per_document_metrics(
    predictions: Sequence[PredictionSet],
    gold: Sequence[Iterable[str]],
) -> tuple[float, float, float]:
    """Arithmetic mean of per-unit precision, recall, and F1."""
    if len(predictions) != len(gold):
        raise InputError(
            f"predictions and gold misaligned: {len(predictions)} vs {len(gold)}"
        )
    if not predictions:
        return 0.0, 0.0, 0.0
    ps, rs, f1s = [], [], []
    for pred, gold_labels in zip(predictions, gold):
        predicted = pred.predicted_labels()
        gold_set = set(gold_labels)
        tp = len(predicted & gold_set)
        p, r, f1 = _prf(tp, len(predicted) - tp, len(gold_set) - tp)
        ps.append(p)
        rs.append(r)
        f1s.append(f1)
    n = float(len(predictions))
    return sum(ps) / n, sum(rs) / n, sum(f1s) / n


@dataclass
class MetricsReport:
    """Aggregated cross-validation results plus per-fold breakdown."""

    fold_count: int
    seed: int
    ablation_mode: str
    config_digest: str
    micro: tuple[float, float, float]
    per_document: tuple[float, float, float]
    label_table: dict[str, tuple[int, int, int, float, float, float]]
    folds: list[dict]

    def to_dict(self) -> dict:
        return {
            "report_version": "1",
            "fold_count": self.fold_count,
            "seed": self.seed,
            "ablation_mode": self.ablation_mode,
            "config_digest": self.config_digest,
            "micro": {
                "precision": self.micro[0],
                "recall": self.micro[1],
                "f1": self.micro[2],
            },
            "per_document": {
                "precision": self.per_document[0],
                "recall": self.per_document[1],
                "f1": self.per_document[2],
            },
            "labels": {
                label: {
                    "tp": row[0],
                    "fp": row[1],
                    "fn": row[2],
                    "precision": row[3],
                    "recall": row[4],
                    "f1": row[5],
                }
                for label, row in sorted(self.label_table.items())
            },
            "folds": self.folds,
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n").encode("utf-8")

    def label_table_csv(self) -> str:
        lines = ["label,tp,fp,fn,precision,recall,f1"]
        for label, row in sorted(self.label_table.items()):
            lines.append(f"{label},{row[0]},{row[1]},{row[2]},{row[3]},{row[4]},{row[5]}")
        return "\n".join(lines) + "\n"


def config_digest(config: PipelineConfig) -> str:
    payload = json.dumps(config.digest_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_cv(encounters: Sequence[Encounter], config: PipelineConfig) -> MetricsReport:
    """Seeded k-fold cross-validation of the full pipeline.

    Per fold, every training-derived quantity (statistics, vocabulary,
    idf, measurement selection, thresholds) comes from the other folds
    only. Confusion counts aggregate across folds; per-document metrics
    pool every held-out unit. The work that no fold decides is done once
    per run, in one ``_encounter_records`` call: each encounter's records
    are collected (extracted, with the patterns source; from the external
    records, indexed once, with the external and db sources), counted and
    rolled up. Each fold's ``train_all`` and ``prepare_units`` take those
    records, select from them and encode them, and each fold's held-out
    units are scored in one batch. In the modes that keep the text, each
    document is tokenized once per run too, next to that call; each
    fold's ``train_all`` and ``predict_units`` read every unit's tokens
    from those and its DataWords' tokens, so no text is tokenized per fold.
    """
    encounters = list(encounters)
    split = kfold_split(encounters, config.folds, config.seed)
    by_id = {e.encounter_id: e for e in encounters}
    records = _encounter_records(encounters, config.spec, config.external_records)
    tokens = ({e.encounter_id: [tokenize(doc) for doc in e.documents] for e in encounters}
              if config.ablation_mode in TEXT_MODES else None)

    all_predictions: list[PredictionSet] = []
    all_gold: list[frozenset[str]] = []
    fold_rows: list[dict] = []

    for fold in range(config.folds):
        train_encs = [by_id[eid] for eid in split.train_ids(fold)]
        test_encs = [by_id[eid] for eid in split.test_ids(fold)]
        bundle = train_all(train_encs, config, _records=records, _tokens=tokens)
        units = [u for enc in test_encs for u in prepare_units(bundle, enc, _records=records)]
        fold_preds = predict_units(bundle, units, _tokens=tokens)
        fold_gold = [u.gold for u in units]

        fold_counts = confusion_counts(fold_preds, fold_gold)
        p, r, f1 = micro_metrics(fold_counts)
        fold_rows.append(
            {
                "fold": fold,
                "test_units": len(fold_preds),
                "micro": {"precision": p, "recall": r, "f1": f1},
            }
        )
        all_predictions.extend(fold_preds)
        all_gold.extend(fold_gold)

    counts = confusion_counts(all_predictions, all_gold)
    table = {}
    for label, (tp, fp, fn) in counts.items():
        p, r, f1 = _prf(tp, fp, fn)
        table[label] = (tp, fp, fn, p, r, f1)

    return MetricsReport(
        fold_count=config.folds,
        seed=config.seed,
        ablation_mode=config.ablation_mode,
        config_digest=config_digest(config),
        micro=micro_metrics(counts),
        per_document=per_document_metrics(all_predictions, all_gold),
        label_table=table,
        folds=fold_rows,
    )


# ---------------------------------------------------------------------------
# synthetic corpora with planted structured-data signal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantedRule:
    """Label assignment rule: label holds iff the variable's value falls in
    the target bin, flipped with probability (1 - strength)."""

    label: str
    variable: str
    bin: str
    strength: float
    base_rate: float

    def __post_init__(self):
        if self.bin not in SYNTH_BINS:
            raise ConfigError(f"unknown bin {self.bin!r} in planted rule")
        if not (0.0 <= self.strength <= 1.0):
            raise ConfigError(f"signal strength must be in [0, 1], got {self.strength}")
        if not (0.0 <= self.base_rate <= 1.0):
            raise ConfigError(f"base rate must be in [0, 1], got {self.base_rate}")


# The JSON kind of each field of a spec's planted rule.
_RULE_KINDS = {"label": NONEMPTY, "variable": NONEMPTY, "bin": NONEMPTY,
               "strength": NUMBER, "base_rate": NUMBER}


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a deterministic synthetic corpus."""

    seed: int
    documents: int
    rules: tuple[PlantedRule, ...]
    filler_vocab: tuple[str, ...] = _FILLER_WORDS

    def __post_init__(self):
        if self.documents < 1:
            raise ConfigError("synthetic corpus needs at least one document")
        if not self.filler_vocab:
            raise ConfigError("filler vocabulary must be nonempty")

    def validate_for_folds(self, fold_count: int) -> None:
        if self.documents < 4 * fold_count:
            raise ConfigError(
                f"synthetic corpus needs at least {4 * fold_count} documents "
                f"for {fold_count} folds, got {self.documents}"
            )

    @classmethod
    def from_dict(cls, d: Mapping) -> "SynthSpec":
        """A spec from its JSON object, each field checked by its JSON kind;
        ``filler_vocab`` defaults to the built-in filler words."""
        try:
            rules = tuple(
                PlantedRule(**{key: check(check(r, OBJECT, "rule").get(key), kind, f"rule {key}")
                               for key, kind in _RULE_KINDS.items()})
                for r in check(d.get("rules"), LIST, "rules")
            )
            return cls(
                seed=check(d.get("seed"), COUNT, "seed"),
                documents=check(d.get("documents"), INTEGER, "documents"),
                rules=rules,
                filler_vocab=tuple(check(d.get("filler_vocab", list(_FILLER_WORDS)),
                                         NONEMPTY_STRINGS, "filler_vocab")),
            )
        except ValueError as exc:
            raise ConfigError(f"malformed synthetic spec: {exc}") from exc


def _filler_token(rng: np.random.Generator, vocab: Sequence[str]) -> str:
    # numeric filler overlaps the measurement value range on purpose, so
    # raw digit tokens alone are a weak predictor
    if rng.random() < 0.15:
        return str(int(rng.integers(90, 161)))
    return vocab[int(rng.integers(0, len(vocab)))]


def generate_synthetic(spec: SynthSpec) -> list[Encounter]:
    """Deterministic filler documents with embedded measurement phrases.

    Each document embeds each rule's measurement with probability
    base_rate; the value lands in the rule's bin for about a third of
    embeddings. The label is assigned iff the value fell in the bin, then
    flipped with probability (1 - strength), so label/rule agreement over
    the corpus is approximately the signal strength.
    """
    rng = np.random.default_rng(spec.seed)
    encounters: list[Encounter] = []
    for i in range(spec.documents):
        n_sentences = int(rng.integers(3, 7))
        sentences = []
        for _ in range(n_sentences):
            length = int(rng.integers(4, 9))
            words = [_filler_token(rng, spec.filler_vocab) for _ in range(length)]
            sentences.append(" ".join(words) + ".")

        codes = set()
        for rule in spec.rules:
            fired = False
            if rng.random() < rule.base_rate:
                in_bin = rng.random() < _IN_BIN_RATE
                if in_bin:
                    lo, hi = _IN_WINDOWS[rule.bin]
                else:
                    lo, hi = _OUT_WINDOW_FOR_MID if rule.bin == "mid" else _OUT_WINDOW
                value = float(rng.uniform(lo, hi))
                phrase = f"{rule.variable} = {value:.1f}."
                pos = int(rng.integers(0, len(sentences) + 1))
                sentences.insert(pos, phrase)
                fired = in_bin
            flip = rng.random() < (1.0 - rule.strength)
            if fired != flip:
                codes.add(rule.label)

        encounters.append(
            Encounter(
                encounter_id=f"synth-{i:04d}",
                documents=(" ".join(sentences),),
                codes=frozenset(codes),
            )
        )
    return encounters
