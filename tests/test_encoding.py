import logging
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datawords.corpus import Encounter, tokenize
from datawords.encoding import (
    BIN_LABELS,
    EncodeTable,
    ThresholdSpec,
    VariableStats,
    augment_document,
    bin_value,
    compute_stats,
    encode_record,
    encode_records,
    render_natural,
    sanitize_name,
    sanitize_value,
)
from datawords.errors import ConfigError, DataError, InputError, UnresolvedVariableError
from datawords.extraction import StructuredRecord
from datawords.model import PipelineConfig, _encode, _encounter_records, _selected_records

CLINICIAN_CUTS = (95.0, 97.7, 100.4, 103.0)


def temp_spec():
    return ThresholdSpec(
        explicit={"Temp": CLINICIAN_CUTS},
        auto={},
        display_names={"Temp": "Temperature"},
    )


def numeric(name, value):
    return StructuredRecord(name=name, value=value)


class TestComputeStats:
    def test_population_std(self):
        records = [numeric("Temp", v) for v in (1.0, 2.0, 3.0)]
        stats = compute_stats(records)
        assert stats["Temp"].mean == pytest.approx(2.0)
        assert stats["Temp"].std == pytest.approx(math.sqrt(2.0 / 3.0))
        assert stats["Temp"].count == 3

    def test_single_value_zero_std(self):
        stats = compute_stats([numeric("Temp", 98.8)])
        assert stats["Temp"].mean == 98.8 and stats["Temp"].std == 0.0

    def test_no_numeric_records_absent(self):
        stats = compute_stats([StructuredRecord(name="Glucose", value="high", kind="other")])
        assert "Glucose" not in stats

    @pytest.mark.parametrize("values", [(1e200, 1.0), (1e308, 1e308)],
                             ids=["variance-overflows", "mean-not-finite"])
    def test_too_large_for_float_arithmetic_names_the_variable(self, values):
        records = [numeric("Pulse", 60.0)] + [numeric("Temp", v) for v in values]
        with pytest.raises(DataError, match="numeric variable 'Temp': readings too large"):
            compute_stats(records)

    @given(st.lists(st.floats(min_value=-1e150, max_value=1e150), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_finite_bits_are_the_two_sum_formula(self, values):
        mean = sum(values) / len(values)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        got = compute_stats([numeric("X", v) for v in values])["X"]
        assert (got.mean.hex(), got.std.hex()) == (mean.hex(), std.hex())


class TestBinValue:
    def test_auto_cut_examples(self):
        cuts = (83.0, 90.0, 110.0, 117.0)
        assert bin_value(100.0, cuts) == "mid"
        assert bin_value(115.0, cuts) == "high"
        assert bin_value(120.0, cuts) == "very_high"

    def test_boundary_goes_to_upper_bin(self):
        cuts = (83.0, 90.0, 110.0, 117.0)
        assert bin_value(83.0, cuts) == "low"
        assert bin_value(90.0, cuts) == "mid"
        assert bin_value(117.0, cuts) == "very_high"

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            bin_value(float("nan"), (1.0, 2.0, 3.0, 4.0))

    def test_against_straight_line_oracle(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(2000):
            cuts = np.sort(rng.uniform(-100.0, 100.0, size=4))
            while len(set(cuts)) < 4:
                cuts = np.sort(rng.uniform(-100.0, 100.0, size=4))
            v = float(rng.uniform(-150.0, 150.0))
            expected_index = sum(v >= c for c in cuts)
            assert bin_value(v, tuple(cuts)) == BIN_LABELS[expected_index]


class TestEncodeRecord:
    def test_mid_range(self):
        s = encode_record(numeric("Temp", 98.8), temp_spec(), {})
        assert s.text == "dw__Temp__mid_range."

    def test_high_range(self):
        s = encode_record(numeric("Temp", 102.1), temp_spec(), {})
        assert s.text == "dw__Temp__high_range."

    def test_very_high_emits_two_tokens(self):
        s = encode_record(numeric("Temp", 104.3), temp_spec(), {})
        assert s.text == "dw__Temp__high_range dw__Temp__very_high_range."

    def test_very_low_emits_two_tokens(self):
        s = encode_record(numeric("Temp", 90.0), temp_spec(), {})
        assert s.tokens == ("dw__Temp__low_range", "dw__Temp__very_low_range")

    def test_categorical(self):
        rec = StructuredRecord(name="Previous_condition", value="lung cancer", kind="condition")
        s = encode_record(rec, temp_spec(), {})
        assert s.text == "dw__Previous_condition__lung_cancer."

    def test_auto_cuts_from_stats(self):
        stats = compute_stats([numeric("Pulse", v) for v in (60.0, 70.0, 80.0)])
        spec = ThresholdSpec.defaults()
        s = encode_record(numeric("Pulse", 70.0), spec, stats)
        assert s.text == "dw__Pulse__mid_range."

    def test_unresolved_variable(self):
        with pytest.raises(UnresolvedVariableError):
            encode_record(numeric("Unknown", 1.0), ThresholdSpec.defaults(), {})

    def test_encode_records_skips_unresolved(self, caplog):
        records = [numeric("Temp", 98.8), numeric("Unknown", 1.0)]
        with caplog.at_level(logging.WARNING):
            out = encode_records(records, temp_spec(), {})
        assert len(out) == 1
        assert "Unknown" in caplog.text

    def test_skipped_records_warn_once_per_variable_and_reason(self, caplog):
        records = ([numeric("Unknown", float(v)) for v in range(50)]
                   + [numeric("Temp", 98.8), numeric("Temp", math.inf),
                      StructuredRecord(name="Cond", value="???", kind="other", encounter_id="e0")])
        with caplog.at_level(logging.WARNING):
            out = encode_records(records, temp_spec(), {})
        assert len(out) == 1
        assert [r.getMessage() for r in caplog.records] == [
            "skipping record 'Unknown' of encounter None: no cuts or statistics for numeric "
            "variable 'Unknown' (50 of this kind)",
            "skipping record 'Temp' of encounter None: cannot bin non-finite value inf "
            "(1 of this kind)",
            "skipping record 'Cond' of encounter 'e0': categorical value '???' sanitizes to "
            "nothing (1 of this kind)",
        ]

    def test_degenerate_stats_warned_and_deterministic(self, caplog):
        """Training warns once per variable with degenerate cuts (see
        test_model), so encoding a record of one stays silent."""
        stats = compute_stats([numeric("Flat", 5.0)])
        spec = ThresholdSpec.defaults()
        with caplog.at_level(logging.WARNING):
            below = encode_record(numeric("Flat", 4.0), spec, stats)
            at = encode_record(numeric("Flat", 5.0), spec, stats)
            above = encode_record(numeric("Flat", 6.0), spec, stats)
        assert below.bin_label == "very_low"
        assert at.bin_label == "very_high"
        assert above.bin_label == "very_high"
        assert caplog.records == []

    def test_name_sanitization(self):
        rec = StructuredRecord(name="O2 sat (%)", value="low", kind="other")
        s = encode_record(rec, ThresholdSpec.defaults(), {})
        assert s.tokens == ("dw__O2_sat__low",)


class TestRenderNatural:
    def test_very_high_rendering(self):
        s = encode_record(numeric("Temp", 104.3), temp_spec(), {})
        assert render_natural(s) == "Temperature was very high [104.3]"
        assert s.display == "Temperature was very high [104.3]"

    def test_mid_rendering(self):
        s = encode_record(numeric("Temp", 98.8), temp_spec(), {})
        assert render_natural(s) == "Temperature was in normal range [98.8]"

    def test_integer_reading_renders_as_an_integer(self):
        s = encode_record(numeric("Temp", 104), temp_spec(), {})
        assert s.display == "Temperature was very high [104]"

    def test_categorical_rendering(self):
        rec = StructuredRecord(name="Previous_condition", value="lung_cancer", kind="condition")
        s = encode_record(rec, ThresholdSpec.defaults(), {})
        assert render_natural(s) == "Previous condition: lung_cancer"


class TestAugmentDocument:
    def sentences(self):
        spec = temp_spec()
        num = encode_record(numeric("Temp", 98.8), spec, {})
        cat = encode_record(
            StructuredRecord(name="Prior", value="diabetes", kind="condition"), spec, {}
        )
        return num, cat

    def test_document_then_datawords(self):
        num, cat = self.sentences()
        out = augment_document("Note text.", [num, cat])
        assert out == "Note text.\ndw__Temp__mid_range.\ndw__Prior__diabetes."

    def test_empty_document_gives_datawords_only(self):
        num, cat = self.sentences()
        assert augment_document("", [num, cat]) == "dw__Temp__mid_range.\ndw__Prior__diabetes."
        assert augment_document("", []) == ""

    def test_no_datawords_leaves_text(self):
        assert augment_document("Note.", []) == "Note."

    @pytest.mark.parametrize("mode, text", [
        ("text_only", "Note text."),
        ("text_plus_datawords", "Note text.\ndw__Temp__mid_range.\ndw__Prior__diabetes."),
        ("datawords_only", "dw__Temp__mid_range.\ndw__Prior__diabetes."),
        ("nonnumeric_datawords_only", "dw__Prior__diabetes."),
    ])
    def test_unit_text_per_mode(self, mode, text):
        records = (numeric("Temp", 98.8),
                   StructuredRecord(name="Prior", value="diabetes", kind="condition"))
        spec = PipelineConfig(ablation_mode=mode, extraction_source="none",
                              threshold_spec=temp_spec()).spec
        encounter = Encounter(encounter_id="e1", documents=("Note text.",), codes=frozenset(),
                              structured=records)
        kept = _selected_records(_encounter_records(encounter, spec, {}), None)
        [unit] = _encode(encounter, spec, kept, {})
        assert unit.text == text


# The table test's variables: "Temp" has explicit cuts, which win over its
# statistics, "Pulse" auto cuts from statistics, "Flat" statistics of zero
# spread, "Unknown" no statistics, and "%%" a name that sanitizes to nothing.
TABLE_SPEC = ThresholdSpec(explicit={"Temp": CLINICIAN_CUTS}, auto={"Pulse": (2.0, 0.5)},
                           display_names={"Temp": "Temperature"})
TABLE_STATS = {
    "Temp": VariableStats("Temp", 4, 0.0, 1.0),
    "Pulse": VariableStats("Pulse", 3, 70.0, 10.0),
    "Flat": VariableStats("Flat", 2, 5.0, 0.0),
}
TABLE_NAMES = ["Temp", "Pulse", "Flat", "Unknown", "%%", "O2 sat (%)"]
TABLE_CUTS = sorted({c for name in TABLE_NAMES
                     for c in TABLE_SPEC.resolve_cuts(name, TABLE_STATS) or ()})

table_records = st.builds(
    StructuredRecord,
    name=st.sampled_from(TABLE_NAMES),
    value=st.one_of(st.sampled_from(TABLE_CUTS), st.floats(), st.integers(-200, 200),
                    st.sampled_from(["lung cancer", "???", "", "High", "x"]), st.booleans()),
    encounter_id=st.sampled_from([None, "e1", "e2"]),
)


def reference_encode_records(records, spec, stats):
    """``encode_record`` of each record it encodes, and the warning lines
    that ``encode_records`` writes for the ones it refuses."""
    out, skipped = [], {}
    for rec in records:
        try:
            out.append(encode_record(rec, spec, stats))
        except (UnresolvedVariableError, InputError) as exc:
            skipped.setdefault((rec.name, type(exc)), [rec.encounter_id, exc, 0])[2] += 1
    return out, [f"skipping record {name!r} of encounter {eid!r}: {exc} ({n} of this kind)"
                 for (name, _), (eid, exc, n) in skipped.items()]


class TestEncodeTable:
    @given(st.lists(table_records, max_size=25), st.lists(table_records, max_size=10))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_table_path_matches_encode_record(self, caplog, first, second):
        """One table encodes two record lists, the second from entries the
        first filled in, as ``encode_record`` encodes each record, with the
        same warning lines; so does a table built for one call, from plain
        statistics or from a table built for another spec."""
        table = EncodeTable(TABLE_SPEC, TABLE_STATS)
        other = EncodeTable(ThresholdSpec.defaults(), TABLE_STATS)
        for records, stats in ((first, table), (second, table), (second, TABLE_STATS),
                               (first, other)):
            want, lines = reference_encode_records(records, TABLE_SPEC, TABLE_STATS)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="datawords.encoding"):
                got = encode_records(records, TABLE_SPEC, stats)
            assert got == want
            assert all(g.source is w.source for g, w in zip(got, want))
            assert [r.getMessage() for r in caplog.records] == lines

    def test_reads_as_its_statistics(self):
        table = EncodeTable(TABLE_SPEC, TABLE_STATS)
        assert dict(table) == TABLE_STATS and len(table) == 3
        assert table.get("Unknown") is None
        assert TABLE_SPEC.resolve_cuts("Pulse", table) == TABLE_SPEC.resolve_cuts(
            "Pulse", TABLE_STATS)


class TestThresholdSpec:
    def test_explicit_cuts_must_increase(self):
        with pytest.raises(ConfigError):
            ThresholdSpec(explicit={"X": (1.0, 1.0, 2.0, 3.0)}, auto={})

    def test_auto_params_validated(self):
        with pytest.raises(ConfigError):
            ThresholdSpec(explicit={}, auto={"X": (1.0, 1.7)})

    def test_from_dict_round_trip(self):
        spec = ThresholdSpec.from_dict(
            {
                "Temp": {"cuts": [95.0, 97.7, 100.4, 103.0], "display": "Temperature"},
                "Pulse": {"auto": {"k_low": 2.0, "k_mid": 1.5}},
                "default": {"auto": {"k_low": 1.7, "k_mid": 1.0}},
            }
        )
        again = ThresholdSpec.from_dict(spec.to_dict())
        assert again.explicit == spec.explicit
        assert again.auto == spec.auto
        assert again.default_auto == spec.default_auto
        assert again.display_names == spec.display_names

    def test_auto_cut_formula(self):
        stats = compute_stats([numeric("X", v) for v in (90.0, 100.0, 110.0)])
        spec = ThresholdSpec.defaults()
        cuts = spec.resolve_cuts("X", stats)
        mu, sigma = stats["X"].mean, stats["X"].std
        assert cuts == (mu - 1.7 * sigma, mu - 1.0 * sigma, mu + 1.0 * sigma, mu + 1.7 * sigma)


class TestSanitization:
    def test_name_keeps_case(self):
        assert sanitize_name("Previous condition") == "Previous_condition"

    def test_value_lowercases(self):
        assert sanitize_value("Lung Cancer") == "lung_cancer"

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            sanitize_name("!!!")


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def cuts_strategy(draw):
    vals = sorted(draw(st.lists(finite, min_size=4, max_size=4, unique=True)))
    return tuple(vals)


class TestBinningProperties:
    @given(cuts_strategy(), finite, finite)
    @settings(max_examples=300)
    def test_same_bin_collapse(self, cuts, v1, v2):
        spec = ThresholdSpec(explicit={"X": cuts}, auto={})
        if bin_value(v1, cuts) == bin_value(v2, cuts):
            s1 = encode_record(numeric("X", v1), spec, {})
            s2 = encode_record(numeric("X", v2), spec, {})
            assert s1.tokens == s2.tokens

    @given(cuts_strategy(), finite, finite)
    @settings(max_examples=300)
    def test_monotone_bin_index(self, cuts, v1, v2):
        lo, hi = sorted((v1, v2))
        assert BIN_LABELS.index(bin_value(lo, cuts)) <= BIN_LABELS.index(bin_value(hi, cuts))

    @given(cuts_strategy(), finite)
    @settings(max_examples=300)
    def test_double_token_rule(self, cuts, v):
        spec = ThresholdSpec(explicit={"X": cuts}, auto={})
        s = encode_record(numeric("X", v), spec, {})
        label = s.bin_label
        if label == "very_high":
            assert s.tokens == ("dw__X__high_range", "dw__X__very_high_range")
        elif label == "very_low":
            assert s.tokens == ("dw__X__low_range", "dw__X__very_low_range")
        else:
            assert len(s.tokens) == 1

    @given(cuts_strategy(), finite)
    @settings(max_examples=200)
    def test_token_round_trip_through_tokenizer(self, cuts, v):
        spec = ThresholdSpec(explicit={"X": cuts}, auto={})
        s = encode_record(numeric("X", v), spec, {})
        assert tokenize(s.text) == [t.lower() for t in s.tokens]
