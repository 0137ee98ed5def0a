"""Every reader of outside input checks its fields through one rule.

``datawords.jsontypes`` decides what each JSON value is. A mistyped field
in a corpus, records file, bundle, threshold spec, synthetic spec or
``--config`` file makes the CLI exit 1 (data files and bundles) or 2
(config and spec files) with a message naming the field, no traceback and
no output file.
"""

import contextlib
import copy
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datawords.cli import main
from datawords.jsontypes import (
    BOOL,
    COUNT,
    INTEGER,
    NAMES,
    NONEMPTY,
    NONEMPTY_STRINGS,
    NUMBER,
    NUMBERS,
    OBJECT,
    POSITIVE,
    SCALAR,
    STRING,
    STRINGS,
    check,
    count_upto,
    nullable,
)


class Removed:
    """Stands for a field taken out of its object."""

    def __repr__(self):
        return "<removed>"


REMOVED = Removed()
MUTANTS = (None, 7, 1.5, True, "x", [], {}, ["a"], [1], REMOVED)

SPEC = {
    "seed": 3, "documents": 24, "filler_vocab": ["note", "stable", "pain", "rest"],
    "rules": [{"label": "L1", "variable": "Temp", "bin": "very_high",
               "strength": 0.95, "base_rate": 0.5}],
}
THRESHOLDS = {
    "Temp": {"cuts": [95.0, 97.7, 100.4, 103.0], "display": "Temperature"},
    "Pulse": {"auto": {"k_low": 2.0, "k_mid": 1.5}},
    "default": {"auto": {"k_low": 1.7, "k_mid": 1.0}},
}
PATTERNS = {
    "aliases": {"Temp": "Temp", "HR": "Pulse"},
    "numeric_patterns": [{"variable": "SpO2", "pattern": r"sat\s+(\d+)%"}],
    "lexicon": [{"phrase": "stable", "name": "State", "value": "stable", "kind": "other"}],
}
RECORDS = [
    {"encounter_id": "synth-0000", "name": "Temp", "value": 99.1, "doc_index": 0,
     "kind": "measurement", "unit": "F", "span": [0, 4]},
    {"encounter_id": "synth-0001", "name": "State", "value": "stable"},
]
STRUCTURED = [{"name": "Glucose", "value": 110, "unit": "mg/dL", "kind": "measurement"}]

# Each input file: its name, and the arguments of the run that reads it
# (``{file}`` is the file, ``{dir}`` the directory of the unmutated inputs).
RUNS = {
    "bundle.json": ["predict", "--corpus", "{dir}/corpus.jsonl", "--bundle", "{file}"],
    "records.jsonl": ["extract", "--corpus", "{dir}/corpus.jsonl", "--source", "db",
                      "--extractions", "{file}"],
    "corpus.jsonl": ["train", "--corpus", "{file}", "--patterns", "{dir}/patterns.json"],
    "patterns.json": ["extract", "--corpus", "{dir}/corpus.jsonl", "--patterns", "{file}"],
    "thresholds.json": ["train", "--corpus", "{dir}/corpus.jsonl", "--thresholds", "{file}"],
    "spec.json": ["synth", "--spec", "{file}"],
    "config.json": ["train", "--config", "{file}"],
}


def write(path, obj):
    """A ``.jsonl`` file holds one object per line, any other file one value."""
    lines = obj if path.suffix == ".jsonl" else [obj]
    path.write_text("".join(json.dumps(o) + "\n" for o in lines), encoding="utf-8")
    return path


def run(argv):
    """Exit code and standard error of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every input file, valid, and the parsed contents of each."""
    root = tmp_path_factory.mktemp("inputs")
    write(root / "spec.json", SPEC)
    write(root / "patterns.json", PATTERNS)
    write(root / "thresholds.json", THRESHOLDS)
    write(root / "records.jsonl", RECORDS)
    rc, err = run(["synth", "--spec", str(root / "spec.json"),
                   "--out", str(root / "corpus.jsonl")])
    assert rc == 0, err
    corpus = [json.loads(line) for line in (root / "corpus.jsonl").read_text().splitlines()]
    corpus[0]["structured"] = STRUCTURED
    write(root / "corpus.jsonl", corpus)
    config = {"corpus": str(root / "corpus.jsonl"), "patterns": str(root / "patterns.json"),
              "thresholds": str(root / "thresholds.json"), "lam": 2.0, "min_df": 1,
              "measurement_filter": {"mode": "top_n", "n": 5}, "rollup": ["mean", "max"],
              "rollup_provenances": ["database"], "l2_normalize": True}
    write(root / "config.json", config)
    rc, err = run(["train", "--config", str(root / "config.json"),
                   "--out", str(root / "bundle.json")])
    assert rc == 0, err
    parsed = {}
    for name in RUNS:
        text = (root / name).read_text()
        parsed[name] = ([json.loads(line) for line in text.splitlines()]
                        if name.endswith(".jsonl") else json.loads(text))
    return root, parsed


def paths(value, path=()):
    """``path`` and the path of every field under ``value``: each key of an
    object and the first item of a list."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from paths(value[0], path + (0,))


def field(contents, path):
    for step in path:
        contents = contents[step]
    return contents


def mutated(contents, path, mutant):
    """A copy of ``contents`` with the field at ``path`` set to ``mutant``."""
    out = copy.deepcopy(contents)
    parent = field(out, path[:-1])
    if mutant is REMOVED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutant
    return out


def run_reader(inputs, name, file):
    """Run the reader of ``name`` on ``file``. Returns the exit code and
    standard error, and checks that a failed run wrote no output."""
    out = file.parent / "out"
    argv = [a.format(file=file, dir=inputs[0]) for a in RUNS[name]] + ["--out", str(out)]
    rc, err = run(argv)
    assert rc == 0 or not out.exists(), argv
    return rc, err


def run_mutant(inputs, name, path, mutant):
    """Run the reader of ``name`` on the file with one field mutated; a
    ``.jsonl`` file is mutated in its first line."""
    contents = inputs[1][name]
    path = (0, *path) if name.endswith(".jsonl") else path
    with tempfile.TemporaryDirectory() as tmp:
        file = write(Path(tmp) / name, mutated(contents, path, mutant) if path else mutant)
        return run_reader(inputs, name, file)


def kind(value):
    """A value's JSON kind; true and false are not numbers."""
    return "number" if type(value) in (int, float) else type(value).__name__


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(data=st.data())
def test_mutated_field_exits_with_message(inputs, data):
    """One field of one input file set to another value or removed. Any
    run that fails exits 1 or 2 with a message and writes nothing, and no
    run raises. A value of another JSON kind than the field's is refused,
    null and removal aside, which optional fields take; a record ``value``
    takes a number or a string."""
    name = data.draw(st.sampled_from(sorted(RUNS)), label="file")
    contents = inputs[1][name]
    contents = contents[0] if name.endswith(".jsonl") else contents
    path = data.draw(st.sampled_from(list(paths(contents))), label="path")
    mutant = data.draw(st.sampled_from(MUTANTS if path else MUTANTS[:-1]), label="mutant")
    rc, err = run_mutant(inputs, name, path, mutant)
    assert "Traceback" not in err
    retyped = mutant is not None and mutant is not REMOVED and path[-1:] != ("value",)
    if rc != 0 or (retyped and kind(mutant) != kind(field(contents, path))):
        assert rc in (1, 2), (rc, err)
        assert "error:" in err


# Each input that once loaded coerced, loaded wrong or died with a
# traceback: the file, the field and its value, the exit code and the
# message the run must print.
REPROS = [
    *[("bundle.json", (key,), value, 1, f"{words} must be an object")
      for key, words in [("variable_stats", "variable_stats"), ("extraction", "extraction"),
                         ("threshold_spec", "threshold spec")]
      for value in (7, "x", [], None)],
    ("bundle.json", ("rollup", "aggregates"), "mean", 1,
     "rollup.aggregates must be a list of strings, got 'mean'"),
    ("bundle.json", ("labels",), [], 1, "labels is empty"),
    ("bundle.json", ("labels",), {}, 1, "labels must be a list, got {}"),
    ("bundle.json", ("extraction", "patterns", "lexicon", 0, "value"), None, 1,
     "lexicon 'stable' value must be a string, got None"),
    ("thresholds.json", ("Temp",), {"auto": 5}, 2, "threshold 'Temp' auto must be an object"),
    ("thresholds.json", ("Temp",), {"cuts": "abcd"}, 2,
     "threshold 'Temp' cuts must be a list of finite numbers, got 'abcd'"),
    ("thresholds.json", ("Temp",), {"auto": {"k_low": None}}, 2,
     "threshold 'Temp' auto k_low must be a finite positive number, got None"),
    ("thresholds.json", ("Temp", "cuts"), [1, 2, "3", 4], 2, "threshold 'Temp' cuts must be"),
    ("thresholds.json", ("Temp", "cuts"), [True, 2, 3, 4], 2, "threshold 'Temp' cuts must be"),
    ("thresholds.json", ("Temp",), {"auto": {"k_low": "2"}}, 2,
     "threshold 'Temp' auto k_low must be a finite positive number, got '2'"),
    ("thresholds.json", ("Temp", "display"), 5, 2,
     "threshold 'Temp' display must be a string, got 5"),
    ("corpus.jsonl", ("codes",), ["A01", ""], 1,
     "line 1: 'codes' must be a list of nonempty strings, got ['A01', '']"),
    ("records.jsonl", ("doc_index",), True, 1,
     "line 1: 'doc_index' must be an integer >= 0, got True"),
    ("records.jsonl", ("span",), [True, 5], 1, "line 1: 'span' must be"),
    ("patterns.json", ("lexicon", 0, "value"), None, 2,
     "lexicon 'stable' value must be a string, got None"),
    ("patterns.json", ("lexicon", 0, "value"), {"a": 1}, 2,
     "lexicon 'stable' value must be a string, got {'a': 1}"),
    ("spec.json", ("filler_vocab",), "ab", 2,
     "filler_vocab must be a nonempty list of strings, got 'ab'"),
    ("spec.json", ("filler_vocab",), [1, 2], 2,
     "filler_vocab must be a nonempty list of strings, got [1, 2]"),
    ("spec.json", ("seed",), 1.9, 2, "seed must be an integer >= 0, got 1.9"),
    ("spec.json", ("seed",), True, 2, "seed must be an integer >= 0, got True"),
    ("spec.json", ("documents",), "40", 2, "documents must be an integer, got '40'"),
    ("spec.json", ("rules", 0, "label"), 5, 2, "rule label must be a nonempty string, got 5"),
    ("spec.json", ("rules", 0, "base_rate"), 1.5, 2, "base rate must be in [0, 1], got 1.5"),
    ("config.json", ("measurement_filter",), {"mode": "top_n_excluding_top_m", "n": 2, "m": -1},
     2, "top_n_excluding_top_m filter needs n >= 1 and m >= 0"),
    pytest.param("config.json", ("lam",), 10**400, 2,
                 "lambda must be a finite positive number, got inf", id="config-lam-400-digits"),
]


@pytest.mark.parametrize("name, path, value, code, message", REPROS)
def test_repro_exits_naming_the_field(inputs, name, path, value, code, message):
    rc, err = run_mutant(inputs, name, path, value)
    assert rc == code, err
    assert message in err
    assert "Traceback" not in err


class TestKinds:
    @pytest.mark.parametrize("kind", [INTEGER, COUNT, NUMBER, POSITIVE, SCALAR, NUMBERS])
    def test_a_bool_is_never_a_number(self, kind):
        assert not kind.test(True) and not kind.test(False) and not NUMBERS.test([1, True])

    @pytest.mark.parametrize("kind", [STRINGS, NAMES, NONEMPTY_STRINGS, OBJECT, NUMBERS])
    def test_a_string_is_never_a_list(self, kind):
        assert not kind.test("ab") and not kind.test("")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400, 0, -1])
    def test_positive_is_finite_and_above_zero(self, value):
        assert not POSITIVE.test(value)
        assert POSITIVE.test(5e-324) and POSITIVE.test(3)

    def test_check_words_and_null(self):
        assert check(3, count_upto(3), "n") == 3
        with pytest.raises(ValueError, match=r"^n must be an integer in \[0, 3\], got 4$"):
            check(4, count_upto(3), "n")
        assert check(None, nullable(STRING), "unit") is None
        with pytest.raises(ValueError, match="^unit must be a string, got 5$"):
            check(5, nullable(STRING), "unit")
        with pytest.raises(ValueError, match="^flag must be true or false, got 'true'$"):
            check("true", BOOL, "flag")
        with pytest.raises(ValueError, match="^name must be a nonempty string, got ''$"):
            check("", NONEMPTY, "name")


# A data file or bundle that cannot be read exits 1, a config or spec file 2.
UNREADABLE_EXIT = {name: 1 if name.endswith(".jsonl") or name == "bundle.json" else 2
                 for name in RUNS}


@pytest.mark.parametrize("name, data, message", [
    ("corpus.jsonl", b'{"encounter_id": "e1", "documents": ["caf\xe9 fever."], "codes": ["A"]}\n',
     "{file}: line 1: not valid UTF-8"),
    ("config.json", b'{"lam": 1.0, "mode": "text_\xe9only"}\n',
     "config file {file}: not valid UTF-8"),
    # past the 4300 digits Python converts, json raises a bare ValueError
    ("config.json", b'{"lam": ' + b"9" * 5000 + b"}\n", "config file {file}: invalid JSON"),
], ids=["corpus-byte-e9", "config-byte-e9", "config-5000-digits"])
def test_repro_unreadable_file_exits_naming_it(inputs, tmp_path, name, data, message):
    (tmp_path / name).write_bytes(data)
    rc, err = run_reader(inputs, name, tmp_path / name)
    assert rc == UNREADABLE_EXIT[name], err
    assert message.format(file=tmp_path / name) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line, message", [
    (json.dumps({**RECORDS[1], "value": True}), "line 2: 'value' must be"),
    ('{"encounter_id": "synth-0001",', "line 2: invalid JSON"),
], ids=["bad-field", "bad-json"])
def test_bad_records_line_names_its_file(inputs, tmp_path, line, message):
    """Training reads the corpus and the records file; a bad line of the
    records file is reported under that file's name."""
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(RECORDS[0]) + "\n" + line + "\n", encoding="utf-8")
    out = tmp_path / "bundle.json"
    rc, err = run(["train", "--corpus", str(inputs[0] / "corpus.jsonl"), "--source", "db",
                   "--extractions", str(records), "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert f"error: {records}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(RUNS))
def test_byte_not_utf8_in_any_input_exits_with_message(inputs, tmp_path, name):
    """Byte 0xe9 (Latin-1 "e" acute) put into the first string of a valid file."""
    (tmp_path / name).write_bytes((inputs[0] / name).read_bytes().replace(b'"', b'"\xe9', 1))
    rc, err = run_reader(inputs, name, tmp_path / name)
    assert rc == UNREADABLE_EXIT[name], err
    assert f"{tmp_path / name}" in err and "not valid UTF-8" in err
    assert "Traceback" not in err
