"""scipy loads where a sparse matrix is first built, not with the package.

This test process has loaded scipy already (``test_model`` imports it at
collection), so each check runs in a new interpreter and reads that
interpreter's ``sys.modules``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import datawords
from datawords.model import fit_label
from datawords.vectorize import DocumentVector, build_vocabulary, fit_idf, vectorize_document

SRC = str(Path(datawords.__file__).resolve().parent.parent)
# The README session's synthetic corpus spec.
README_SPEC = {
    "seed": 42, "documents": 400,
    "rules": [{"label": "L1", "variable": "Temp", "bin": "very_high",
               "strength": 0.95, "base_rate": 0.3}],
}
LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
# Rows of (feature ids, values) over 6 features, and 0/1 targets.
ROWS = [([0, 2], [0.5, 1.0]), ([1, 2, 5], [0.25, 0.5, 2.0]), ([3], [1.5]),
        ([0, 4, 5], [1.0, 0.75, 0.5])]
TARGETS = [1, 0, 1, 0]
TEXTS = ["Fever was high today.", "Patient stable, no fever.", "High heart rate and fever."]


def run_fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter and return the JSON object it
    prints on its last line of standard output."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_scipy(tmp_path):
    out = run_fresh(f"""
        import json, sys
        import datawords
        print(json.dumps({{"scipy": {LOADED_SCIPY}}}))
    """, tmp_path)
    assert out["scipy"] == []


def run_commands(commands: list[list[str]], cwd: Path) -> list[str]:
    """The scipy modules loaded after ``cli.main`` ran each command, in
    order, in one new interpreter."""
    (cwd / "spec.json").write_text(json.dumps(README_SPEC))
    out = run_fresh(f"""
        import json, sys
        from datawords.cli import main
        for argv in {commands!r}:
            assert main(argv) == 0, argv
        print(json.dumps({{"scipy": {LOADED_SCIPY}}}))
    """, cwd)
    return out["scipy"]


TEXT_COMMANDS = [
    ["synth", "--spec", "spec.json", "--out", "corpus.jsonl"],
    ["extract", "--corpus", "corpus.jsonl", "--out", "records.jsonl"],
    ["stats", "--corpus", "corpus.jsonl", "--out", "stats.json"],
    ["encode", "--corpus", "corpus.jsonl", "--out", "augmented.jsonl"],
]


def test_text_commands_load_no_scipy(tmp_path):
    assert run_commands(TEXT_COMMANDS, tmp_path) == []
    for name in ("corpus.jsonl", "records.jsonl", "stats.json", "augmented.jsonl"):
        assert (tmp_path / name).stat().st_size > 0


def test_train_loads_scipy(tmp_path):
    """The check above can fail: training builds a sparse matrix."""
    train = ["train", "--corpus", "corpus.jsonl", "--out", "bundle.json"]
    assert "scipy.sparse" in run_commands([*TEXT_COMMANDS[:1], train], tmp_path)


def test_first_fit_label_loads_scipy_and_gives_the_in_process_fit(tmp_path):
    out = run_fresh(f"""
        import json, sys
        from datawords.model import fit_label
        from datawords.vectorize import DocumentVector
        import numpy as np
        X = [DocumentVector(np.array(i, np.int64), np.array(v), 6) for i, v in {ROWS!r}]
        before = {LOADED_SCIPY}
        w, b = fit_label(X, {TARGETS!r}, 0.5)
        print(json.dumps({{"before": before, "after": {LOADED_SCIPY},
                           "w": [x.hex() for x in w.tolist()], "b": b.hex()}}))
    """, tmp_path)
    assert out["before"] == [] and "scipy.sparse" in out["after"]
    X = [DocumentVector(np.array(i, np.int64), np.array(v), 6) for i, v in ROWS]
    w, b = fit_label(X, TARGETS, 0.5)
    assert out["w"] == [x.hex() for x in w.tolist()] and out["b"] == b.hex()


def test_first_vectorize_document_loads_scipy_and_gives_the_in_process_vector(tmp_path):
    out = run_fresh(f"""
        import json, sys
        from datawords.vectorize import build_vocabulary, fit_idf, vectorize_document
        texts = {TEXTS!r}
        model = fit_idf(build_vocabulary(texts))
        before = {LOADED_SCIPY}
        dense = vectorize_document(model, texts[2]).to_dense()
        print(json.dumps({{"before": before, "after": {LOADED_SCIPY},
                           "dense": [x.hex() for x in dense.tolist()]}}))
    """, tmp_path)
    assert out["before"] == [] and "scipy.sparse" in out["after"]
    dense = vectorize_document(fit_idf(build_vocabulary(TEXTS)), TEXTS[2]).to_dense()
    assert out["dense"] == [x.hex() for x in dense.tolist()]

