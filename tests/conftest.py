import json
import os

import pytest
from hypothesis import settings

from datawords.corpus import save_corpus
from datawords.evaluation import PlantedRule, SynthSpec, generate_synthetic
from datawords.extraction import default_pattern_config, extract_patterns

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and a
# failure prints the blob that replays it locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def db_synth_corpus(tmp_path):
    """A synthetic corpus plus a database dump of its measurements.

    Every measurement the default patterns find in a document becomes two
    db readings (the value and the value + 0.5) of the same encounter, so a
    db-sourced pipeline sees the planted signal through external records.
    Returns (corpus path, db path) as strings.
    """
    spec = SynthSpec(
        seed=5,
        documents=48,
        rules=(
            PlantedRule("L1", "Temp", "very_high", 0.95, 0.5),
            PlantedRule("L2", "HR", "low", 0.9, 0.5),
        ),
    )
    encounters = generate_synthetic(spec)
    patterns = default_pattern_config()
    rows = []
    for enc in encounters:
        for doc in enc.documents:
            for rec in extract_patterns(doc, patterns):
                for value in (rec.value, rec.value + 0.5):
                    rows.append({"encounter_id": enc.encounter_id, "name": rec.name, "value": value})
    corpus = tmp_path / "db_corpus.jsonl"
    save_corpus(encounters, corpus)
    db = tmp_path / "db.jsonl"
    db.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(corpus), str(db)
