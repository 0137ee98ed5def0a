"""Turn structured records into DataWords sentences.

A numeric value is binned against per-variable cuts into one of five
ranges and becomes a one- or two-token sentence such as

    dw__Temp__mid_range.
    dw__Temp__high_range dw__Temp__very_high_range.

so that similar values collapse to identical text. Categorical values map
to a single token like ``dw__Previous_condition__lung_cancer.``. Each
record gets exactly one sentence, written on its own line so the sentence
splitter keeps per-record granularity for explanations.

Cuts come either from clinician-specified thresholds or automatically
from training statistics: (mean - 1.7 sd, mean - 1.0 sd, mean + 1.0 sd,
mean + 1.7 sd) by default. The extreme bins deliberately emit the
neighboring bin's token too, so a model can key on "high or above"
without learning two disjoint vocabularies.
"""

from __future__ import annotations

import logging
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ConfigError, DataError, DataWordsError, InputError, UnresolvedVariableError
from .extraction import StructuredRecord, read_json_object
from .jsontypes import NUMBERS, OBJECT, POSITIVE, STRING, check

logger = logging.getLogger(__name__)

BIN_LABELS = ("very_low", "low", "mid", "high", "very_high")

# token suffixes emitted per bin; extremes carry their neighbor's token
BIN_TOKENS = {
    "very_low": ("low_range", "very_low_range"),
    "low": ("low_range",),
    "mid": ("mid_range",),
    "high": ("high_range",),
    "very_high": ("high_range", "very_high_range"),
}

BIN_PHRASES = {
    "very_low": "very low",
    "low": "low",
    "mid": "in normal range",
    "high": "high",
    "very_high": "very high",
}

ABLATION_MODES = (
    "text_only",
    "text_plus_datawords",
    "datawords_only",
    "nonnumeric_datawords_only",
)
# The ablation modes that keep the document's text.
TEXT_MODES = ("text_only", "text_plus_datawords")

DEFAULT_K_LOW = 1.7
DEFAULT_K_MID = 1.0

_SANITIZE_RE = re.compile(r"[^0-9A-Za-z]+")


@dataclass(frozen=True)
class VariableStats:
    """Count, mean, and population standard deviation of one numeric variable."""

    name: str
    count: int
    mean: float
    std: float


def compute_stats(records: Iterable[StructuredRecord]) -> dict[str, VariableStats]:
    """Mean and population standard deviation per numeric variable.

    Must be fed training-side records only. Variables with no numeric
    readings are simply absent from the result. A variable whose mean or
    variance is not finite or overflows, as readings near 1e200 make it do,
    is a DataError naming it.
    """
    values: dict[str, list[float]] = {}
    for rec in records:
        if rec.is_numeric:
            values.setdefault(rec.name, []).append(rec.number)
    stats = {}
    for name, vals in values.items():
        n = len(vals)
        try:
            mean = sum(vals) / n
            var = sum((v - mean) ** 2 for v in vals) / n
        except OverflowError:
            mean = var = math.inf
        if not (math.isfinite(mean) and math.isfinite(var)):
            raise DataError(f"numeric variable {name!r}: readings too large for float arithmetic")
        stats[name] = VariableStats(name=name, count=n, mean=mean, std=math.sqrt(var))
    return stats


@dataclass(frozen=True)
class ThresholdSpec:
    """Per-variable binning thresholds.

    Each variable maps either to explicit cuts (c1 < c2 < c3 < c4) or to
    automatic sigma multipliers applied to training statistics. A default
    entry covers unlisted variables. Entries may carry a display name used
    in natural renderings.
    """

    explicit: dict[str, tuple[float, float, float, float]]
    auto: dict[str, tuple[float, float]]
    default_auto: tuple[float, float] = (DEFAULT_K_LOW, DEFAULT_K_MID)
    display_names: dict[str, str] | None = None

    def __post_init__(self):
        for name, cuts in self.explicit.items():
            if len(cuts) != 4 or not all(cuts[i] < cuts[i + 1] for i in range(3)):
                raise ConfigError(f"cuts for {name!r} must be four strictly increasing numbers")
        for name, (k_low, k_mid) in list(self.auto.items()) + [("default", self.default_auto)]:
            if not (k_low > k_mid > 0):
                raise ConfigError(
                    f"auto thresholds for {name!r} need k_low > k_mid > 0, got ({k_low}, {k_mid})"
                )

    @classmethod
    def defaults(cls) -> "ThresholdSpec":
        return cls(explicit={}, auto={}, display_names={})

    @classmethod
    def from_dict(cls, d: Mapping) -> "ThresholdSpec":
        explicit: dict[str, tuple[float, float, float, float]] = {}
        auto: dict[str, tuple[float, float]] = {}
        display: dict[str, str] = {}
        default_auto = (DEFAULT_K_LOW, DEFAULT_K_MID)
        try:
            for name, entry in check(d, OBJECT, "threshold spec").items():
                check(entry, OBJECT, f"threshold {name!r}")
                if "display" in entry:
                    display[name] = check(entry["display"], STRING, f"threshold {name!r} display")
                if "cuts" in entry:
                    cuts = check(entry["cuts"], NUMBERS, f"threshold {name!r} cuts")
                    if len(cuts) != 4:
                        raise ValueError(f"threshold {name!r} cuts must list four numbers")
                    explicit[name] = tuple(float(c) for c in cuts)
                elif "auto" in entry:
                    params = check(entry["auto"], OBJECT, f"threshold {name!r} auto")
                    pair = tuple(
                        float(check(params.get(key, k), POSITIVE, f"threshold {name!r} auto {key}"))
                        for key, k in (("k_low", DEFAULT_K_LOW), ("k_mid", DEFAULT_K_MID))
                    )
                    if name == "default":
                        default_auto = pair
                    else:
                        auto[name] = pair
                elif name != "default" and "display" not in entry:
                    raise ValueError(f"threshold {name!r} needs 'cuts' or 'auto'")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(explicit=explicit, auto=auto, default_auto=default_auto, display_names=display)

    @classmethod
    def from_file(cls, path: str | Path) -> "ThresholdSpec":
        return cls.from_dict(read_json_object(path, "threshold spec"))

    def to_dict(self) -> dict:
        out: dict[str, dict] = {}
        for name, cuts in sorted(self.explicit.items()):
            out[name] = {"cuts": list(cuts)}
        for name, (k_low, k_mid) in sorted(self.auto.items()):
            out[name] = {"auto": {"k_low": k_low, "k_mid": k_mid}}
        out.setdefault("default", {})["auto"] = {
            "k_low": self.default_auto[0],
            "k_mid": self.default_auto[1],
        }
        for name, disp in sorted((self.display_names or {}).items()):
            out.setdefault(name, {})["display"] = disp
        return out

    def resolve_cuts(
        self, name: str, stats: Mapping[str, VariableStats]
    ) -> tuple[float, float, float, float] | None:
        """Cuts for a variable: explicit, else auto from stats, else None."""
        if name in self.explicit:
            return self.explicit[name]
        st = stats.get(name)
        if st is None:
            return None
        k_low, k_mid = self.auto.get(name, self.default_auto)
        return (
            st.mean - k_low * st.std,
            st.mean - k_mid * st.std,
            st.mean + k_mid * st.std,
            st.mean + k_low * st.std,
        )

    def display_name(self, name: str) -> str:
        if self.display_names and name in self.display_names:
            return self.display_names[name]
        return _SANITIZE_RE.sub(" ", name).strip()


def _non_finite(value: float) -> InputError:
    return InputError(f"cannot bin non-finite value {value!r}")


def bin_value(value: float, cuts: Sequence[float]) -> str:
    """Place a value into one of the five range bins.

    Boundaries belong to the upper bin: every rule is "less than", so a
    value equal to a cut falls through to the next clause.
    """
    if not math.isfinite(value):
        raise _non_finite(value)
    c1, c2, c3, c4 = cuts
    if value < c1:
        return "very_low"
    if value < c2:
        return "low"
    if value < c3:
        return "mid"
    if value < c4:
        return "high"
    return "very_high"


def sanitize_name(name: str) -> str:
    """Collapse non-alphanumeric runs to single underscores, keeping case."""
    out = _SANITIZE_RE.sub("_", name).strip("_")
    if not out:
        raise InputError(f"variable name {name!r} sanitizes to nothing")
    return out


def sanitize_value(value: str) -> str:
    """Lowercase and collapse non-alphanumeric runs to single underscores."""
    out = _SANITIZE_RE.sub("_", value.lower()).strip("_")
    if not out:
        raise InputError(f"categorical value {value!r} sanitizes to nothing")
    return out


class DataWordSentence(NamedTuple):
    """The one-sentence text encoding of a single structured record."""

    tokens: tuple[str, ...]
    source: StructuredRecord
    bin_label: str | None
    display_name: str

    @property
    def text(self) -> str:
        return " ".join(self.tokens) + "."

    @property
    def display(self) -> str:
        return render_natural(self)


def _format_value(value: float | int | str) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_natural(sentence: DataWordSentence) -> str:
    """Human-readable rendering for a DataWords sentence.

    Numeric: "{display name} was {bin phrase} [{raw value}]", where the
    phrase reflects the highest bin when two tokens are present.
    Categorical: "{display name}: {value}".
    """
    rec = sentence.source
    if sentence.bin_label is not None:
        phrase = BIN_PHRASES[sentence.bin_label]
        return f"{sentence.display_name} was {phrase} [{_format_value(rec.value)}]"
    return f"{sentence.display_name}: {sanitize_value(str(rec.value))}"


def encode_record(
    record: StructuredRecord,
    spec: ThresholdSpec,
    stats: Mapping[str, VariableStats],
) -> DataWordSentence:
    """Encode one record as a DataWords sentence.

    Numeric records need cuts resolvable from the spec (explicit, or auto
    via stats), else UnresolvedVariableError, and a finite value, else
    InputError, as for a name or categorical value that sanitizes to
    nothing. Categorical records never consult stats.
    """
    name_token = sanitize_name(record.name)
    display = spec.display_name(record.name)
    if record.is_numeric:
        cuts = spec.resolve_cuts(record.name, stats)
        if cuts is None:
            raise UnresolvedVariableError(
                f"no cuts or statistics for numeric variable {record.name!r}"
            )
        label = bin_value(record.number, cuts)
        tokens = tuple(f"dw__{name_token}__{suffix}" for suffix in BIN_TOKENS[label])
        return DataWordSentence(tokens=tokens, source=record, bin_label=label, display_name=display)
    value_token = sanitize_value(str(record.value))
    return DataWordSentence(
        tokens=(f"dw__{name_token}__{value_token}",),
        source=record,
        bin_label=None,
        display_name=display,
    )


class EncodeTable(Mapping[str, VariableStats]):
    """Statistics, read as a mapping, together with what ``encode_record``
    derives from them and one threshold spec.

    Per variable name it keeps the name token, the display name, and the
    cuts as a list with the ``(bin label, token tuple)`` pair of each bin
    in ``BIN_LABELS`` order, or the refusal of the variable's records; per
    categorical (variable, value) it keeps the token or the refusal. A
    numeric record's pair is the one at ``bisect_right(cuts, value)``,
    which is ``bin_value``'s bin because resolved cuts never decrease:
    explicit cuts increase, and cuts from statistics are the mean less and
    plus a spread >= 0 times k_low > k_mid > 0. Each entry is worked out
    the first time a record needs it; it depends on its key alone, so
    threads that fill one at once store equal entries. A table is built
    where its statistics are made, one per training set and one per
    ``ModelBundle``, and lives as long as they do.
    """

    def __init__(self, spec: ThresholdSpec, stats: Mapping[str, VariableStats]):
        self.spec = spec
        self.stats = stats
        # name -> (name token or refusal, display name, cuts or refusal, bin pairs)
        self._variables: dict[str, tuple] = {}
        # (name, str(value)) -> token or refusal
        self._values: dict[tuple[str, str], str | InputError] = {}

    def __getitem__(self, name: str) -> VariableStats:
        return self.stats[name]

    def __iter__(self):
        return iter(self.stats)

    def __len__(self) -> int:
        return len(self.stats)

    def _variable(self, name: str) -> tuple:
        try:
            name_token = sanitize_name(name)
        except InputError as exc:
            return exc, None, None, None
        cuts = self.spec.resolve_cuts(name, self.stats)
        if cuts is None:
            cuts = UnresolvedVariableError(f"no cuts or statistics for numeric variable {name!r}")
        else:
            cuts = list(cuts)
        bins = tuple((label, tuple(f"dw__{name_token}__{suffix}" for suffix in BIN_TOKENS[label]))
                     for label in BIN_LABELS)
        return name_token, self.spec.display_name(name), cuts, bins

    def encode(self, record: StructuredRecord) -> DataWordSentence | DataWordsError:
        """``encode_record`` of the record, or the error it raises, returned."""
        name = record.name
        entry = self._variables.get(name)
        if entry is None:
            entry = self._variables[name] = self._variable(name)
        name_token, display, cuts, bins = entry
        if not isinstance(name_token, str):
            return name_token
        if record.is_numeric:
            if not isinstance(cuts, list):
                return cuts
            value = record.number
            if not math.isfinite(value):
                return _non_finite(value)
            label, tokens = bins[bisect_right(cuts, value)]
            return DataWordSentence(tokens, record, label, display)
        key = (name, str(record.value))
        token = self._values.get(key)
        if token is None:
            try:
                token = f"dw__{name_token}__{sanitize_value(key[1])}"
            except InputError as exc:
                token = exc
            self._values[key] = token
        if not isinstance(token, str):
            return token
        return DataWordSentence((token,), record, None, display)


def encode_records(
    records: Iterable[StructuredRecord],
    spec: ThresholdSpec,
    stats: Mapping[str, VariableStats],
) -> list[DataWordSentence]:
    """Encode many records as ``encode_record`` does, skipping each one it
    refuses.

    The records are encoded from ``stats`` when it is an ``EncodeTable``
    built for ``spec``, else from a table built for this call. The skipped
    records are warned about once per variable and kind of refusal, in one
    line that names the variable, the encounter and reason of the first
    such record, and how many there were.
    """
    if not (isinstance(stats, EncodeTable) and stats.spec is spec):
        stats = EncodeTable(spec, stats)
    out = []
    skipped: dict[tuple[str, type], list] = {}
    for rec in records:
        dw = stats.encode(rec)
        if isinstance(dw, DataWordSentence):
            out.append(dw)
        else:
            skipped.setdefault((rec.name, type(dw)), [rec.encounter_id, dw, 0])[2] += 1
    for (name, _), (encounter_id, exc, count) in skipped.items():
        logger.warning("skipping record %r of encounter %r: %s (%d of this kind)",
                       name, encounter_id, exc, count)
    return out


def augment_document(document: str, datawords: Sequence[DataWordSentence]) -> str:
    """A unit's classified text: the document, when nonempty, then each
    DataWords sentence on its own line so the sentence splitter isolates
    it."""
    return "\n".join(([document] if document else []) + [dw.text for dw in datawords])
