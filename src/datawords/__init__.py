"""Fuse free text with structured data by encoding values as DataWords.

Structured records become short synthetic sentences (``dw__Temp__mid_range.``)
appended to a document's text, so ordinary text modeling handles both
channels at once and explanations can point at either a text sentence or
a structured value.

Importing the package pins BLAS and OpenMP to one thread, because the ridge
solve's dense factorization rounds differently with the BLAS thread count
and bundles must not depend on the host's thread settings. The pin only
takes effect if numpy is not loaded yet: a caller that imports numpy before
this package must set ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 itself (or import ``datawords`` first).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

from .corpus import Encounter, FoldSplit, Sentence, kfold_split, load_corpus, save_corpus, split_sentences, tokenize
from .encoding import (
    ABLATION_MODES,
    DataWordSentence,
    ThresholdSpec,
    VariableStats,
    augment_document,
    bin_value,
    compute_stats,
    encode_record,
    encode_records,
    render_natural,
)
from .errors import ConfigError, DataError, DataWordsError, InputError, UnsupportedVersionError
from .evaluation import (
    MetricsReport,
    PlantedRule,
    SynthSpec,
    confusion_counts,
    generate_synthetic,
    micro_metrics,
    per_document_metrics,
    run_cv,
)
from .explain import Justification, score_sentences, top_justifications
from .extraction import (
    MeasurementFilter,
    PatternConfig,
    RollupPolicy,
    StructuredRecord,
    default_pattern_config,
    extract_patterns,
    load_db_measurements,
    load_external_extractions,
    rollup,
)
from .model import (
    AugmentedUnit,
    EncodingSpec,
    LabelModel,
    ModelBundle,
    PipelineConfig,
    PredictionSet,
    fit_label,
    fit_labels,
    fit_threshold,
    fit_thresholds,
    load_bundle,
    predict,
    prepare_units,
    save_bundle,
    train_all,
)
from .vectorize import (
    DocumentVector,
    TfIdfModel,
    Vocabulary,
    build_vocabulary,
    fit_idf,
    vectorize_document,
)

__version__ = "0.1.0"
