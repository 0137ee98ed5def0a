"""Structured-value acquisition: pattern extraction, adapter files, DB dumps.

Three sources produce the same record type:

* a built-in pattern/lexicon extractor run over free text,
* JSON-lines files written by external extraction engines,
* JSON-lines dumps of database measurements.

Downstream steps (measurement selection, roll-up, encoding) treat all of
them uniformly.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import secrets
import stat
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import ConfigError, DataError
from .jsontypes import COUNT, INTEGER, LIST, NONEMPTY, OBJECT, SCALAR, STRING, Kind, check, nullable

if TYPE_CHECKING:
    from .corpus import Encounter

RECORD_KINDS = ("measurement", "condition", "medication", "test_result", "other")
PROVENANCES = ("text_extraction", "external_extractor", "database")

# Each roll-up aggregate of a group's float readings, in the canonical
# order that policies are normalized to.
_AGGREGATE_OF = {
    "mean": lambda values: sum(values) / len(values),
    "median": statistics.median,
    "min": min,
    "max": max,
    "first": lambda values: values[0],
    "last": lambda values: values[-1],
    "count": lambda values: float(len(values)),
}
AGGREGATES = tuple(_AGGREGATE_OF)

_OPTIONAL_INTEGER = nullable(INTEGER)
_OPTIONAL_COUNT = nullable(COUNT)
_OPTIONAL_STRING = nullable(STRING)
_SPAN = nullable(Kind(lambda v: LIST.test(v) and len(v) == 2 and all(INTEGER.test(x) for x in v)
                     and v[0] <= v[1], "[start, end], integers with start <= end"))


class StructuredRecord(NamedTuple):
    """One named value pulled from text, an extractor file, or a database.

    ``value`` is a number for measurements and a string for categorical
    data (conditions, medications, test results). A named tuple, as one is
    built per record: it compares and hashes as the tuple of its fields,
    and costs about a quarter of a frozen dataclass's ``__init__`` to build.
    """

    name: str
    value: float | int | str
    kind: str = "measurement"
    provenance: str = "text_extraction"
    encounter_id: str | None = None
    doc_index: int | None = None
    span: tuple[int, int] | None = None
    unit: str | None = None

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.value, (int, float)) and not isinstance(self.value, bool)

    @property
    def number(self) -> float:
        """A numeric record's value as a float; an integer too large for
        one reads as the infinity it overflows to."""
        try:
            return float(self.value)
        except OverflowError:
            return math.inf if self.value > 0 else -math.inf


@dataclass(frozen=True)
class MeasurementFilter:
    """Which variables to keep, judged by per-occurrence name counts."""

    mode: str = "all"
    min_count: int | None = None
    max_count: int | None = None
    n: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.mode == "all":
            return
        if self.mode == "count_range":
            if self.min_count is None or self.max_count is None or self.min_count > self.max_count:
                raise ConfigError("count_range filter needs min_count <= max_count")
        elif self.mode == "top_n":
            if not self.n or self.n < 1:
                raise ConfigError("top_n filter needs n >= 1")
        elif self.mode == "top_n_excluding_top_m":
            if not self.n or self.n < 1 or self.m is None or self.m < 0:
                raise ConfigError("top_n_excluding_top_m filter needs n >= 1 and m >= 0")
        else:
            raise ConfigError(f"unknown measurement filter mode: {self.mode!r}")

    @classmethod
    def from_dict(cls, d: Mapping) -> "MeasurementFilter":
        try:
            check(d, OBJECT, "measurement_filter")
            counts = {key: check(d.get(key), _OPTIONAL_INTEGER, f"measurement_filter {key}")
                      for key in ("min_count", "max_count", "n", "m")}
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(mode=d.get("mode", "all"), **counts)

    def to_dict(self) -> dict:
        out = {"mode": self.mode}
        for key in ("min_count", "max_count", "n", "m"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass(frozen=True)
class RollupPolicy:
    """Aggregates emitted per (encounter, variable) group of numeric readings."""

    aggregates: tuple[str, ...] = ("mean", "min", "max")

    def __post_init__(self):
        if not self.aggregates:
            raise ConfigError("roll-up policy needs at least one aggregate")
        bad = [a for a in self.aggregates if a not in AGGREGATES]
        if bad:
            raise ConfigError(f"unknown roll-up aggregates: {bad}")
        # normalize to canonical order so output ordering is stable
        wanted = set(self.aggregates)
        object.__setattr__(self, "aggregates", tuple(a for a in AGGREGATES if a in wanted))


_DEFAULT_NUMBER = r"([-+]?\d+(?:\.\d+)?)"
_WORD = re.compile(r"\w")


class _Matcher(NamedTuple):
    """One compiled extractor entry; ``value`` None means the number in group 1.
    ``surface`` is the alias or lexicon phrase that its regex starts with, at
    a word edge (``_edged``), and None for a numeric pattern."""

    regex: re.Pattern
    name: str
    kind: str
    value: str | None
    surface: str | None


def _edged(surface: str) -> str:
    """The escaped surface with no word character touching either end: ``\\b``
    at an end that is a word character, a lookaround at one such as ``+``."""
    head = r"\b" if _WORD.match(surface) else r"(?<!\w)"
    tail = r"\b" if _WORD.match(surface[-1]) else r"(?!\w)"
    return head + re.escape(surface) + tail


@dataclass(frozen=True)
class PatternConfig:
    """Alias table, numeric patterns, and categorical lexicon for extraction.

    Building one validates it and compiles its matcher table once: one
    entry per alias, then one per numeric pattern, then one per lexicon
    phrase. The table order decides exact ties. It also compiles ``scan``,
    a zero-width regex that stops wherever some alias surface or lexicon
    phrase starts with no word character before it (None when there is
    neither), and ``ident``, one group per distinct surface, longest
    first, so that the ``lastindex`` of its match at a stop names the
    longest surface there. ``tried`` maps each group to the table index
    and regex of the alias and lexicon matchers whose surface is a
    case-insensitive prefix of that longest one, in table order: the only
    matchers that can match at such a stop. A config is shared by every
    call.
    """

    aliases: dict[str, str] = field(default_factory=dict)
    numeric_patterns: tuple[tuple[str, re.Pattern], ...] = ()
    lexicon: tuple[tuple[str, str, str, str], ...] = ()
    matchers: tuple[_Matcher, ...] = field(init=False, repr=False, compare=False)
    scan: re.Pattern | None = field(init=False, repr=False, compare=False)
    ident: re.Pattern | None = field(init=False, repr=False, compare=False)
    tried: dict[int, tuple[tuple[int, re.Pattern], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "numeric_patterns", tuple(self.numeric_patterns))
        object.__setattr__(self, "lexicon", tuple(self.lexicon))
        matchers = []
        try:
            for surface, canonical in self.aliases.items():
                check(surface, NONEMPTY, "alias")
                check(canonical, NONEMPTY, f"alias {surface!r}")
                regex = re.compile(
                    rf"{_edged(surface)}\s*(?:=|:|is|was|of)?\s*{_DEFAULT_NUMBER}", re.IGNORECASE
                )
                matchers.append(_Matcher(regex, canonical, "measurement", None, surface))
            for variable, pat in self.numeric_patterns:
                check(variable, NONEMPTY, "numeric pattern variable")
                if not isinstance(pat, re.Pattern) or pat.groups < 1:
                    raise ValueError(f"numeric pattern for {variable!r} needs a compiled regex "
                                     "with a capture group")
                matchers.append(_Matcher(pat, variable, "measurement", None, None))
            for phrase, name, value, kind in self.lexicon:
                check(phrase, NONEMPTY, "lexicon phrase")
                check(name, NONEMPTY, f"lexicon {phrase!r} name")
                check(value, STRING, f"lexicon {phrase!r} value")
                check(kind, _OPTIONAL_STRING, f"lexicon {phrase!r} kind")
                regex = re.compile(_edged(phrase), re.IGNORECASE)
                kind = kind if kind in RECORD_KINDS else "other"
                matchers.append(_Matcher(regex, name, kind, value, phrase))
        except ValueError as exc:
            raise ConfigError(f"malformed pattern config: {exc}") from exc
        scan = ident = None
        tried = {}
        surfaces = list(dict.fromkeys(m.surface for m in matchers if m.surface is not None))
        if surfaces:
            # Surfaces that all start with a word character give one \b branch.
            word = [re.escape(s) for s in surfaces if _WORD.match(s)]
            other = [re.escape(s) for s in surfaces if not _WORD.match(s)]
            branches = [rf"\b(?:{'|'.join(word)})"] if word else []
            if other:
                branches.append(rf"(?<!\w)(?:{'|'.join(other)})")
            scan = re.compile(rf"(?={'|'.join(branches)})", re.IGNORECASE)
            # Capture groups stay out of scan, where they would cost sre its
            # literal-prefix search.
            surfaces.sort(key=len, reverse=True)
            ident = re.compile("|".join(f"({re.escape(s)})" for s in surfaces), re.IGNORECASE)
            # Surface s is a case-insensitive prefix of surface t when re
            # equates their characters one by one. Naming each character by
            # the first one that re equates with it makes that a tuple
            # prefix, found by dict lookups rather than by testing every
            # pair of surfaces.
            chars = list(dict.fromkeys("".join(surfaces)))
            same = re.compile("|".join(f"({re.escape(c)})" for c in chars), re.IGNORECASE)
            fold = {c: same.fullmatch(c).lastindex for c in chars}
            by_key: dict[tuple[int, ...], list[int]] = {}
            for i, m in enumerate(matchers):
                if m.surface is not None:
                    by_key.setdefault(tuple(map(fold.get, m.surface)), []).append(i)
            for group, longest in enumerate(surfaces, 1):
                key = tuple(map(fold.get, longest))
                tried[group] = tuple((i, matchers[i].regex) for i in sorted(
                    i for n in range(1, len(key) + 1) for i in by_key.get(key[:n], ())))
        object.__setattr__(self, "matchers", tuple(matchers))
        object.__setattr__(self, "scan", scan)
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "tried", tried)

    @classmethod
    def from_dict(cls, d: Mapping) -> "PatternConfig":
        """A config from its JSON object; its entries' own fields are
        checked when the config is built."""
        try:
            check(d, OBJECT, "pattern config")
            patterns, lexicon = (
                [check(item, OBJECT, f"{key} entry") for item in check(d.get(key, []), LIST, key)]
                for key in ("numeric_patterns", "lexicon")
            )
            return cls(
                aliases=dict(check(d.get("aliases", {}), OBJECT, "aliases")),
                numeric_patterns=[
                    (item.get("variable"), re.compile(
                        check(item.get("pattern"), STRING, "numeric pattern"), re.IGNORECASE))
                    for item in patterns
                ],
                lexicon=[
                    (item.get("phrase"), item.get("name"), item.get("value"),
                     item.get("kind", "condition"))
                    for item in lexicon
                ],
            )
        except (ValueError, re.error) as exc:
            raise ConfigError(f"malformed pattern config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "PatternConfig":
        return cls.from_dict(read_json_object(path, "pattern config"))

    def to_dict(self) -> dict:
        return {
            "aliases": dict(self.aliases),
            "numeric_patterns": [
                {"variable": var, "pattern": pat.pattern} for var, pat in self.numeric_patterns
            ],
            "lexicon": [
                {"phrase": p, "name": n, "value": v, "kind": k} for p, n, v, k in self.lexicon
            ],
        }


@functools.cache
def default_pattern_config() -> PatternConfig:
    """A small vitals-and-conditions config usable without any setup; built
    once per process and shared, since a PatternConfig is frozen."""
    return PatternConfig.from_dict(
        {
            "aliases": {
                "Temp": "Temp",
                "Temperature": "Temp",
                "BP": "BP",
                "Pulse": "Pulse",
                "HR": "Pulse",
                "RR": "RR",
                "Glucose": "Glucose",
                "SpO2": "SpO2",
                "Weight": "Weight",
            },
            "lexicon": [
                {"phrase": "lung cancer", "name": "Previous_condition", "value": "lung_cancer", "kind": "condition"},
                {"phrase": "diabetes", "name": "Previous_condition", "value": "diabetes", "kind": "condition"},
                {"phrase": "hypertension", "name": "Previous_condition", "value": "hypertension", "kind": "condition"},
                {"phrase": "pneumonia", "name": "Previous_condition", "value": "pneumonia", "kind": "condition"},
            ],
        }
    )


def extract_patterns(text: str, config: PatternConfig, encounter_id: str | None = None,
                     doc_index: int | None = None) -> list[StructuredRecord]:
    """Run the built-in extractor over one document's text, stamping each
    record with the given encounter id and document index.

    Candidate matches come from the config's matcher table: alias-derived
    numeric patterns, explicit numeric patterns, and lexicon phrases. The
    config's scan runs once over the text. At each stop, ``ident`` names
    the longest surface there, and only the alias and lexicon matchers
    whose surface is a case-insensitive prefix of it are tried, each from
    the end of its own last match on, so they find what one ``finditer``
    per matcher finds: a surface that matches at the stop is a prefix of
    the text there, and so of the longest surface.
    Numeric patterns have no surface and run their own ``finditer``.
    Overlaps are resolved leftmost-longest, then by name, then by table
    order, so the result spans never intersect. A number that parses to no
    finite float, such as one of 400 digits, is dropped.
    """
    matchers = config.matchers
    candidates: list[tuple[int, int, str, int, float | str]] = []

    def add(index: int, match: re.Match) -> None:
        matcher = matchers[index]
        value = matcher.value
        if value is None:
            try:
                value = float(match.group(1))
            except (TypeError, ValueError):
                return
            if not math.isfinite(value):
                return
        candidates.append((match.start(), match.end(), matcher.name, index, value))

    for index, matcher in enumerate(matchers):
        if matcher.surface is None:
            for match in matcher.regex.finditer(text):
                add(index, match)
    if config.scan is not None:
        resume = [0] * len(matchers)
        longest_at, tried = config.ident.match, config.tried
        for hit in config.scan.finditer(text):
            pos = hit.start()
            for index, regex in tried[longest_at(text, pos).lastindex]:
                if resume[index] <= pos:
                    match = regex.match(text, pos)
                    if match:
                        add(index, match)
                        resume[index] = match.end()

    candidates.sort(key=lambda c: (c[0], -c[1], c[2], c[3]))
    selected: list[StructuredRecord] = []
    cursor = 0
    for start, end, name, index, value in candidates:
        if start >= cursor:
            selected.append(
                StructuredRecord(
                    name=name,
                    value=value,
                    kind=matchers[index].kind,
                    provenance="text_extraction",
                    encounter_id=encounter_id,
                    doc_index=doc_index,
                    span=(start, end),
                )
            )
            cursor = end
    return selected


def extract_encounter(encounter: Encounter, config: PatternConfig) -> list[StructuredRecord]:
    """Pattern records of every document of the encounter, in document
    order, each stamped with the encounter id and its document's index."""
    return [
        rec
        for di, doc in enumerate(encounter.documents)
        for rec in extract_patterns(doc, config, encounter.encounter_id, di)
    ]


def _parse_record_line(
    obj, provenance: str, encounter_id: str | None = None
) -> StructuredRecord:
    """Check one record of a records file, or, when the corpus line's
    ``encounter_id`` is given, one entry of a corpus line's ``structured``
    list; corpus entries carry no ``doc_index`` or ``span``. Raises
    ValueError naming the field; the caller names the line."""
    at = "structured entry: " if encounter_id is not None else ""
    check(obj, OBJECT, f"{at}record")
    name = check(obj.get("name"), NONEMPTY, f"{at}'name'")
    value = check(obj.get("value"), SCALAR, f"{at}'value'")
    kind = check(obj.get("kind"), _OPTIONAL_STRING, f"{at}'kind'")
    if kind is None:
        kind = "other" if STRING.test(value) else "measurement"
    elif kind not in RECORD_KINDS:
        kind = "other"
    doc_index = span = None
    if encounter_id is None:
        encounter_id = check(obj.get("encounter_id"), NONEMPTY, "'encounter_id'")
        doc_index = check(obj.get("doc_index"), _OPTIONAL_COUNT, "'doc_index'")
        span = check(obj.get("span"), _SPAN, "'span'")
        span = None if span is None else tuple(span)
    return StructuredRecord(
        name=name,
        value=value,
        kind=kind,
        provenance=provenance,
        encounter_id=encounter_id,
        doc_index=doc_index,
        span=span,
        unit=check(obj.get("unit"), _OPTIONAL_STRING, f"{at}'unit'"),
    )


def read_json_object(path: str | Path, what: str, error: type[Exception] = ConfigError) -> dict:
    """Parse a JSON file that must hold one object, such as a config file,
    a spec or a bundle. Bytes that are not UTF-8, bad JSON or another
    top-level value is an ``error`` that names ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path}: not valid UTF-8 ({exc})") from exc
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise error(f"{what} {path}: invalid JSON ({exc})") from exc
    if not OBJECT.test(obj):
        raise error(f"{what} {path}: expected a JSON object")
    return obj


@contextmanager
def write_replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file for ``path``'s new contents.

    Where ``path`` is a regular file (or links to one) or does not exist
    yet, the contents go to a new file beside it, which takes the old
    file's permission bits, is flushed to disk and renamed onto it when the
    block ends, or removed when the block raises, so a failure inside the
    block leaves the old contents as they were. The renamed file is owned
    by this process, and hard links to the old file keep the old contents.
    Anything else, such as a device or a FIFO, or a folder where no new
    file can be made, is opened and written in place, as ``open(path,
    "w")`` does; a path that cannot be opened is an OSError naming it,
    raised before the block runs."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        mode = None
    fh = None
    if mode is None or stat.S_ISREG(mode):
        target = Path(os.path.realpath(path))
        temp = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
        try:
            fh = open(temp, "x", encoding="utf-8")
        except OSError:
            pass
    if fh is None:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, target)
    except BaseException:
        temp.unlink()
        raise


def read_json_lines(path: str | Path, parse) -> Iterator[tuple[int, object]]:
    """Each nonblank line's number and ``parse`` of its JSON value; a line
    ends at a line feed. A line that is not UTF-8 or not JSON, or a
    ValueError from ``parse``, is a DataError naming the file and the
    line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: not valid UTF-8 ({exc})") from exc
            if not line.strip():
                continue
            try:
                item = parse(json.loads(line))
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            yield lineno, item


def _load_record_file(path: str | Path, provenance: str) -> list[StructuredRecord]:
    records = read_json_lines(path, lambda obj: _parse_record_line(obj, provenance))
    return [rec for _, rec in records]


def load_external_extractions(path: str | Path) -> list[StructuredRecord]:
    """Load records written by an external extraction engine."""
    return _load_record_file(path, "external_extractor")


def load_db_measurements(path: str | Path) -> list[StructuredRecord]:
    """Load raw database measurements. Repeated readings are kept as-is;
    roll-up is a separate step."""
    return _load_record_file(path, "database")


def variable_counts(records: Iterable[StructuredRecord]) -> Counter:
    """Per-occurrence counts by variable name."""
    return Counter(r.name for r in records)


def allowed_variables(counts: Mapping[str, int], filt: MeasurementFilter) -> set[str]:
    """Variable names that pass the filter, given per-occurrence counts."""
    if filt.mode == "all":
        return set(counts)
    if filt.mode == "count_range":
        return {n for n, c in counts.items() if filt.min_count <= c <= filt.max_count}
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if filt.mode == "top_n":
        return {n for n, _ in ranked[: filt.n]}
    return {n for n, _ in ranked[filt.m : filt.m + filt.n]}


def rollup(
    records: Sequence[StructuredRecord],
    policy: RollupPolicy,
    provenances: tuple[str, ...] | None = None,
) -> list[StructuredRecord]:
    """Aggregate repeated numeric readings per (encounter, variable).

    Each group collapses to one record per aggregate, named
    ``{variable}_{aggregate}``. Categorical records pass through unchanged,
    as do numeric records whose provenance is outside ``provenances``
    (``None`` means roll up everything). One pass over the records lays out
    each record passed through and each group's readings, so aggregated
    records appear at the position of the group's first reading.
    """
    return [rec for _, rec in _rolled(records, policy, provenances)]


def _rolled(
    records: Sequence[StructuredRecord],
    policy: RollupPolicy,
    provenances: tuple[str, ...] | None,
) -> Iterator[tuple[str, StructuredRecord]]:
    """``rollup``'s records in its order, each after its source variable:
    the name of the record passed through, or of the group's readings."""
    slots: list[StructuredRecord | list[StructuredRecord]] = []
    groups: dict[tuple[str | None, str], list[StructuredRecord]] = {}
    for rec in records:
        if rec.is_numeric and (provenances is None or rec.provenance in provenances):
            group = groups.get((rec.encounter_id, rec.name))
            if group is None:
                group = groups[rec.encounter_id, rec.name] = []
                slots.append(group)
            group.append(rec)
        else:
            slots.append(rec)

    for slot in slots:
        if isinstance(slot, StructuredRecord):
            yield slot.name, slot
            continue
        values = [r.number for r in slot]
        first = slot[0]
        for agg in policy.aggregates:
            yield first.name, StructuredRecord(
                name=f"{first.name}_{agg}", value=_AGGREGATE_OF[agg](values), kind=first.kind,
                provenance=first.provenance, encounter_id=first.encounter_id, unit=first.unit)
