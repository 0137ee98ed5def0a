"""Seeded input generation for the benchmark workloads.

Each workload gets its inputs as files, exactly as a user of the
`datawords` command line would hand them over: a corpus in the JSON-lines
format, optionally a database dump in the JSON-lines record format, a
pattern config, and (for `predict_explain`) a trained model bundle. The
same seed always yields byte-identical files.

Run standalone (the benchmark does this once per set-up repetition, in a
fresh process, so set-up memory never counts toward the measured run):

    python3 perfbench/gen.py WORKLOAD SEED SIZE OUTDIR
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

from datawords import corpus, evaluation, model
from datawords.extraction import PatternConfig

BINS = evaluation.SYNTH_BINS

# Planted vitals rules of the db workload. Every variable is also an alias of
# the built-in pattern config, so the same text works with pattern extraction.
VITALS_RULES = (
    ("FEVER", "Temp", "very_high"),
    ("TACHY", "Pulse", "high"),
    ("HYPERGLY", "Glucose", "very_high"),
    ("HYPOX", "SpO2", "very_low"),
    ("LOWRR", "RR", "low"),
)

# The db dump adds these lab variables on top of the planted vitals. The
# first is read most often, so `top_n_excluding_top_m` with m=1 drops it.
EXTRA_LABS = ("LabNoiseA", "LabNoiseB", "LabNoiseC")

_PHRASE_RE = re.compile(r"\b(\w+) = (\d+\.\d)\.")


def filler_vocab(rng: np.random.Generator, size: int, reserved: set[str]) -> tuple[str, ...]:
    """`size` distinct lowercase words, none of which is in `reserved`."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: dict[str, None] = {}
    while len(words) < size:
        length = int(rng.integers(5, 10))
        word = "".join(rng.choice(letters, size=length))
        if word not in reserved:
            words[word] = None
    return tuple(words)


def lab_pattern_config(variables: int) -> dict:
    """Pattern config with one alias per generated lab variable."""
    return {"aliases": {f"Lab{i:02d}": f"Lab{i:02d}" for i in range(variables)}}


def lab_rules(variables: int, base_rate: float, strength: float) -> tuple[evaluation.PlantedRule, ...]:
    """One planted rule per (lab variable, bin): variables x 5 labels."""
    return tuple(
        evaluation.PlantedRule(f"Lab{i:02d}_{b}", f"Lab{i:02d}", b, strength, base_rate)
        for i in range(variables)
        for b in BINS
    )


def _reserved(pattern_config: dict) -> set[str]:
    words = {s.lower() for s in pattern_config.get("aliases", {})}
    for item in pattern_config.get("lexicon", []):
        words.update(item["phrase"].lower().split())
    return words


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _synthetic(seed: int, documents: int, rules, vocab=None) -> list[corpus.Encounter]:
    kwargs = {"filler_vocab": vocab} if vocab is not None else {}
    spec = evaluation.SynthSpec(seed=seed, documents=documents, rules=tuple(rules), **kwargs)
    return evaluation.generate_synthetic(spec)


def _vitals_rules():
    return [evaluation.PlantedRule(lbl, var, b, 0.95, 0.3) for lbl, var, b in VITALS_RULES]


def _wide(seed: int, size: int, heldout: int, shape: tuple[int, int, float, float], out: Path):
    """Corpus of `size` training units plus `heldout` units from the same
    distribution, over a generated filler vocabulary and lab variables."""
    variables, vocab_size, base_rate, strength = shape
    patterns = lab_pattern_config(variables)
    _write_json(out / "patterns.json", patterns)
    rng = np.random.default_rng([seed, 7])
    vocab = filler_vocab(rng, vocab_size, _reserved(patterns))
    encounters = _synthetic(seed, size + heldout, lab_rules(variables, base_rate, strength), vocab)
    corpus.save_corpus(encounters[:size], out / "corpus.jsonl")
    corpus.save_corpus(encounters[size:], out / "heldout.jsonl")


# Shapes of the wide workloads: (lab variables, filler words, base rate,
# signal strength). train_wide keeps units < features (the dual regime of the
# ridge solve) at 200 labels; its 5% label flips make every label occur in
# the training units for any seed. predict_explain uses a smaller vocabulary
# and exact labels so that its 100 labels are actually predicted on held-out
# units and explain has work.
TRAIN_WIDE_SHAPE = (40, 600, 0.05, 0.95)
TRAIN_WIDE_HELDOUT = 50
PREDICT_EXPLAIN_SHAPE = (20, 300, 0.15, 1.0)
PREDICT_EXPLAIN_TRAIN = 600


def gen_train_wide(seed: int, size: int, out: Path) -> None:
    _wide(seed, size, TRAIN_WIDE_HELDOUT, TRAIN_WIDE_SHAPE, out)


def gen_predict_explain(seed: int, size: int, out: Path) -> None:
    """`size` held-out encounters to score, and a bundle trained on
    PREDICT_EXPLAIN_TRAIN units of the same distribution (training is
    set-up, not timed)."""
    _wide(seed, PREDICT_EXPLAIN_TRAIN, size, PREDICT_EXPLAIN_SHAPE, out)
    config = model.PipelineConfig(
        pattern_config=PatternConfig.from_file(out / "patterns.json"), threads=1
    )
    bundle = model.train_all(corpus.load_corpus(out / "corpus.jsonl"), config)
    model.save_bundle(bundle, out / "bundle.json")


def gen_cv_hashed_db(seed: int, size: int, out: Path) -> None:
    """Documents grouped into encounters of 1-4. Every planted reading in the
    text is also written to a database dump, with 1-3 repeated readings, next
    to readings of extra lab variables."""
    docs = _synthetic(seed, size, _vitals_rules())
    rng = np.random.default_rng([seed, 11])
    encounters = []
    records = []
    i = 0
    while i < len(docs):
        group = docs[i : i + int(rng.integers(1, 5))]
        i += len(group)
        eid = f"enc-{len(encounters):05d}"
        codes = frozenset().union(*(d.codes for d in group))
        texts = tuple(d.documents[0] for d in group)
        encounters.append(corpus.Encounter(encounter_id=eid, documents=texts, codes=codes))
        for di, text in enumerate(texts):
            for name, value in _PHRASE_RE.findall(text):
                value = float(value)
                for _ in range(1 + int(rng.integers(1, 4))):
                    records.append({"encounter_id": eid, "name": name, "value": value, "doc_index": di})
                    value = round(value + float(rng.uniform(-0.5, 0.5)), 1)
        for lab, (lo, hi) in zip(EXTRA_LABS, ((3, 7), (1, 3), (1, 3))):
            for _ in range(int(rng.integers(lo, hi))):
                records.append({"encounter_id": eid, "name": lab, "value": round(float(rng.uniform(90, 110)), 1)})
    corpus.save_corpus(encounters, out / "corpus.jsonl")
    with open(out / "db.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


GENERATORS = {
    "train_wide": gen_train_wide,
    "predict_explain": gen_predict_explain,
    "cv_hashed_db": gen_cv_hashed_db,
}


def main(argv: list[str]) -> int:
    workload, seed, size, out = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](seed, size, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
