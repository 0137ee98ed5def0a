"""Corpus loading, sentence splitting, tokenization, and fold assignment.

The corpus format is UTF-8 JSON-lines, one object per encounter:

    {"encounter_id": "e1",
     "documents": ["free text ..."],
     "codes": ["A01", "B20"],
     "structured": [{"name": "Temp", "value": 98.8, "unit": "F"}]}

``codes`` and ``structured`` are optional; unknown fields are ignored.
All operations here are pure and deterministic.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError, DataError
from .extraction import StructuredRecord, _parse_record_line, read_json_lines
from .jsontypes import LIST, NAMES, NONEMPTY, NONEMPTY_STRINGS, OBJECT, check

_TOKEN_RE = re.compile(r"\w+")
# A sentence runs up to and including a terminator, or up to a newline or
# the end of the text; the newline itself belongs to no sentence.
_SENTENCE_RE = re.compile(r"[^.!?\n]*[.!?]|[^.!?\n]+")


class Sentence(NamedTuple):
    """One sentence of a (possibly augmented) document.

    ``kind`` is "dataword" only for sentences produced by the structured
    -value encoder; ``display`` carries their natural-language rendering.
    """

    text: str
    doc_index: int
    sent_index: int
    kind: str = "text"
    display: str | None = None


@dataclass(frozen=True)
class Encounter:
    """One patient encounter: documents, gold label set, structured values."""

    encounter_id: str
    documents: tuple[str, ...]
    codes: frozenset[str] = field(default_factory=frozenset)
    structured: tuple[StructuredRecord, ...] = ()

    def __post_init__(self):
        if not self.encounter_id:
            raise DataError("encounter_id must be nonempty")
        if not self.documents:
            raise DataError(f"encounter {self.encounter_id!r}: documents must be nonempty")


@dataclass(frozen=True)
class FoldSplit:
    """Assignment of encounter ids to folds, balanced to within one."""

    fold_count: int
    assignment: dict[str, int]

    def train_ids(self, fold: int) -> list[str]:
        return [eid for eid, f in self.assignment.items() if f != fold]

    def test_ids(self, fold: int) -> list[str]:
        return [eid for eid, f in self.assignment.items() if f == fold]


def tokenize(text: str) -> list[str]:
    """Lowercase and split into maximal runs of letters, digits, underscores.

    Underscore is part of the token alphabet so encoded structured-value
    tokens like ``dw__Temp__mid_range`` survive as single tokens.
    """
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text: str, doc_index: int = 0) -> list[Sentence]:
    """Split text into sentences on '.', '!', '?', and newline.

    The terminator stays attached to the left sentence; surrounding
    whitespace is stripped; empty pieces are dropped. No abbreviation
    handling, by design: the rule must be reproducible on noisy notes.
    """
    pieces = [piece.strip() for piece in _SENTENCE_RE.findall(text)]
    return [
        Sentence(text=piece, doc_index=doc_index, sent_index=i)
        for i, piece in enumerate(filter(None, pieces))
    ]


def load_corpus(path: str | Path) -> list[Encounter]:
    """Load and validate a corpus file, preserving file order.

    Raises DataError naming the file and the offending line for malformed
    records, duplicate encounter ids, duplicate codes, or invalid field
    types.
    """
    encounters: list[Encounter] = []
    seen: dict[str, int] = {}
    for lineno, enc in read_json_lines(path, _parse_encounter):
        first = seen.setdefault(enc.encounter_id, lineno)
        if first != lineno:
            raise DataError(
                f"{path}: line {lineno}: duplicate encounter_id {enc.encounter_id!r} "
                f"(first seen on line {first})"
            )
        encounters.append(enc)
    return encounters


def _parse_encounter(obj) -> Encounter:
    """One corpus line's encounter; raises ValueError naming the field."""
    eid = check(check(obj, OBJECT, "encounter").get("encounter_id"), NONEMPTY, "'encounter_id'")
    codes = check(obj.get("codes", []), NAMES, "'codes'")
    if len(set(codes)) != len(codes):
        raise ValueError("'codes' contains duplicates")
    return Encounter(
        encounter_id=eid,
        documents=tuple(check(obj.get("documents"), NONEMPTY_STRINGS, "'documents'")),
        codes=frozenset(codes),
        structured=tuple(
            _parse_record_line(entry, "database", eid)
            for entry in check(obj.get("structured", []), LIST, "'structured'")
        ),
    )


def save_corpus(encounters: Iterable[Encounter], path: str | Path) -> None:
    """Write encounters in the JSON-lines corpus format (deterministic bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        for enc in encounters:
            obj = {
                "encounter_id": enc.encounter_id,
                "documents": list(enc.documents),
                "codes": sorted(enc.codes),
            }
            if enc.structured:
                obj["structured"] = [
                    {
                        "name": r.name,
                        "value": r.value,
                        **({"unit": r.unit} if r.unit else {}),
                        "kind": r.kind,
                    }
                    for r in enc.structured
                ]
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def kfold_split(encounters: Sequence[Encounter], k: int, seed: int) -> FoldSplit:
    """Assign whole encounters to k folds, sizes balanced to within one.

    Encounter ids are ordered by a seeded hash and dealt round-robin, so
    the split is reproducible and stable under corpus reordering.
    """
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")
    if len(encounters) < k:
        raise ConfigError(f"need at least {k} encounters for {k} folds, got {len(encounters)}")
    ids = [e.encounter_id for e in encounters]
    if len(set(ids)) != len(ids):
        raise DataError("corpus contains duplicate encounter ids")

    def sort_key(eid: str):
        digest = hashlib.sha256(f"{seed}|{eid}".encode("utf-8")).hexdigest()
        return (digest, eid)

    ordered = sorted(ids, key=sort_key)
    assignment = {eid: pos % k for pos, eid in enumerate(ordered)}
    return FoldSplit(fold_count=k, assignment=assignment)
