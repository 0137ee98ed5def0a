"""Select database measurements by frequency and roll up repeated readings.

Database dumps carry many readings per variable; frequency filters pick
which variables enter the model and a roll-up policy collapses each
variable's readings into a few aggregates. Run:

    python3 demos/03_measurement_selection_rollup.py
"""

from collections import Counter

from datawords import MeasurementFilter, RollupPolicy, StructuredRecord, rollup
from datawords.extraction import allowed_variables, variable_counts

records = []
for i in range(12):
    records.append(StructuredRecord(name="Glucose", value=80.0 + 5 * i,
                                    provenance="database", encounter_id="e1"))
for v in (120.0, 135.0):
    records.append(StructuredRecord(name="BP_systolic", value=v,
                                    provenance="database", encounter_id="e1"))
records.append(StructuredRecord(name="Lactate", value=1.8,
                                provenance="database", encounter_id="e1"))

counts = variable_counts(records)
print("per-occurrence counts:", dict(Counter(counts).most_common()))

print("\n=== frequency filters ===")
for filt in (
    MeasurementFilter(mode="all"),
    MeasurementFilter(mode="count_range", min_count=2, max_count=100),
    MeasurementFilter(mode="top_n", n=1),
    MeasurementFilter(mode="top_n_excluding_top_m", n=1, m=1),
):
    keep = sorted(allowed_variables(counts, filt))
    print(f"{filt.mode:25s} -> {keep}")

keep = allowed_variables(counts, MeasurementFilter(mode="top_n", n=2))
filtered = [r for r in records if r.name in keep]
print(f"\ntop_n(2) keeps {len(filtered)} of {len(records)} records")

print("\n=== roll-up ===")
policy = RollupPolicy(("mean", "median", "min", "max", "count"))
for rec in rollup(filtered, policy, provenances=("database",)):
    print(f"{rec.name:22s} = {rec.value:g}")
