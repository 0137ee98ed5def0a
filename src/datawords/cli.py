"""Command-line entry point wiring the pipeline end to end.

Subcommands: extract, stats, encode, train, predict, explain, evaluate,
synth. Settings come from an optional JSON config file (--config) with
command-line flags taking precedence. All randomness flows from --seed.
A command that succeeds prints one "[time] <command>: <seconds>s" line to
standard error; timings never enter data outputs, so every output file is
byte-identical across reruns with the same inputs.

Exit codes: 0 success, 1 data error, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .corpus import load_corpus, save_corpus
from .encoding import ABLATION_MODES, ThresholdSpec
from .errors import ConfigError, DataWordsError
from .evaluation import SynthSpec, generate_synthetic, run_cv
from .explain import JUSTIFICATION_FILTERS, score_sentences, top_justifications
from .extraction import (
    MeasurementFilter,
    PatternConfig,
    RollupPolicy,
    extract_encounter,
    load_db_measurements,
    load_external_extractions,
    read_json_object,
)
from .jsontypes import BOOL, INTEGER, LIST, NONEMPTY_STRINGS, NUMBER, STRING, STRINGS, check, nullable
from .model import (
    EXTRACTION_SOURCES,
    UNIT_KINDS,
    PipelineConfig,
    _key_external,
    build_corpus_units,
    load_bundle,
    predict_units,
    prepare_units,
    save_bundle,
    train_all,
)


def _float(value: int | float) -> float:
    """``value`` as a float; an integer too large for one gives inf with its
    sign, which PipelineConfig refuses as it refuses --lambda inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# Every setting that a flag or a --config file can give: the JSON kind its
# value must have and, for one that sets a PipelineConfig field, the field
# and the parse of the value (None passes it as it is). JSON null passes
# only where the setting may be None. One file may serve several
# subcommands, so only a key that none of them reads is refused. A kind of
# None hands the value unchecked to the package, which checks it. A field
# that no given setting sets keeps its PipelineConfig default.
SETTINGS = {
    "bundle": (STRING, None, None),
    "corpus": (STRING, None, None),
    "extractions": (STRING, None, None),
    "filter": (STRING, None, None),
    "folds": (INTEGER, "folds", None),
    "hash_bits": (nullable(INTEGER), "hash_bits", None),
    "l2_normalize": (BOOL, "l2_normalize", None),
    # a JSON integer gives the float lambda that --lambda gives
    "lam": (NUMBER, "lam", _float),
    "measurement_filter": (None, "measurement_filter", MeasurementFilter.from_dict),
    "min_df": (INTEGER, "min_df", None),
    "min_positive": (INTEGER, "min_positive", None),
    "mode": (STRING, "ablation_mode", None),
    "modes": (NONEMPTY_STRINGS._replace(words="a nonempty list of mode names"), None, None),
    "out": (STRING, None, None),
    "patterns": (STRING, "pattern_config", PatternConfig.from_file),
    "rollup": (STRINGS._replace(words="a list of aggregate names"), "rollup_policy",
               lambda names: RollupPolicy(tuple(names))),
    "rollup_provenances": (None, "rollup_provenances", lambda p: tuple(p) if LIST.test(p) else p),
    "seed": (INTEGER, "seed", None),
    "source": (STRING, "extraction_source", None),
    "spec": (STRING, None, None),
    "threads": (INTEGER, "threads", None),
    "thresholds": (STRING, "threshold_spec", ThresholdSpec.from_file),
    "topk": (INTEGER, None, None),
    "unit": (STRING, "unit", None),
}


def _settings(args, *required: str) -> dict:
    """The --config file's settings with the given flags laid over them,
    each checked against SETTINGS; a key the table lacks is refused, and so
    is a run without each of the ``required`` settings."""
    settings = read_json_object(args.config, "config file") if args.config else {}
    unknown = [key for key in settings if key not in SETTINGS]
    if unknown:
        raise ConfigError(
            f"config file {args.config}: unknown setting(s) {', '.join(map(repr, unknown))}"
        )
    flags = {key: getattr(args, key, None) for key in SETTINGS}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    try:
        for key, value in settings.items():
            kind = SETTINGS[key][0]
            if kind is not None:
                check(value, kind, f"setting {key!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in required:
        _require(settings, key)
    return settings


def _require(settings: dict, key: str):
    if key not in settings:
        raise ConfigError(f"missing required setting: --{key}")
    return settings[key]


def _external_records(source: str | None, settings: dict):
    if source not in ("external", "db"):
        return None
    load = load_external_extractions if source == "external" else load_db_measurements
    return tuple(load(_require(settings, "extractions")))


def _predictside_units(settings: dict, bundle, encounters):
    """Every encounter's units, prepared with the records file that
    accompanies a bundle whose source is external or db, indexed once.
    Missing structured data is tolerated at predict time."""
    source = bundle.spec.extraction_source if settings.get("extractions") else None
    external = _key_external(_external_records(source, settings) or ())
    return [u for enc in encounters for u in prepare_units(bundle, enc, external)]


def _pipeline_config(settings: dict) -> PipelineConfig:
    fields = {
        field: parse(settings[key]) if parse else settings[key]
        for key, (_, field, parse) in SETTINGS.items()
        if field and key in settings
    }
    fields["external_records"] = _external_records(fields.get("extraction_source"), settings)
    return PipelineConfig(**fields)


def _record_to_json(rec) -> dict:
    obj = {"encounter_id": rec.encounter_id, "name": rec.name, "value": rec.value}
    if rec.doc_index is not None:
        obj["doc_index"] = rec.doc_index
    obj["kind"] = rec.kind
    if rec.unit is not None:
        obj["unit"] = rec.unit
    if rec.span is not None:
        obj["span"] = list(rec.span)
    return obj


def _write_jsonl(path: str, rows) -> int:
    """Write each row as one JSON line; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for count, row in enumerate(rows, 1):
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return count


def cmd_extract(args) -> int:
    settings = _settings(args, "corpus", "out")
    config = _pipeline_config(settings)
    if config.extraction_source == "none":
        raise ConfigError("extract requires a source (patterns, external, or db)")
    encounters = load_corpus(settings["corpus"])
    if config.extraction_source == "patterns":
        pattern_config = config.spec.resolved_pattern_config()
        records = (rec for enc in encounters for rec in extract_encounter(enc, pattern_config))
    else:
        # pass-through: validate, normalize, and keep records for this corpus
        ids = {e.encounter_id for e in encounters}
        records = (rec for rec in config.external_records or () if rec.encounter_id in ids)
    count = _write_jsonl(settings["out"], map(_record_to_json, records))
    print(f"wrote {count} records to {settings['out']}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    settings = _settings(args, "corpus", "out")
    encounters = load_corpus(settings["corpus"])
    config = _pipeline_config(settings)
    corpus_units = build_corpus_units(encounters, config)
    obj = {
        name: {"count": st.count, "mean": st.mean, "std": st.std}
        for name, st in sorted(corpus_units.stats.items())
    }
    with open(settings["out"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")
    print(f"wrote statistics for {len(obj)} variables to {settings['out']}", file=sys.stderr)
    return 0


def cmd_encode(args) -> int:
    settings = _settings(args, "corpus", "out")
    encounters = load_corpus(settings["corpus"])
    config = _pipeline_config(settings)
    corpus_units = build_corpus_units(encounters, config)
    rows = []
    for unit in corpus_units.units:
        rows.append(
            {
                "encounter_id": unit.encounter_id,
                "doc_index": unit.doc_index,
                "text": unit.text,
                "datawords": [{"text": dw.text, "display": dw.display} for dw in unit.datawords],
            }
        )
    _write_jsonl(settings["out"], rows)
    return 0


def cmd_train(args) -> int:
    settings = _settings(args, "corpus", "out")
    encounters = load_corpus(settings["corpus"])
    config = _pipeline_config(settings)
    bundle = train_all(encounters, config)
    save_bundle(bundle, settings["out"])
    print(
        f"trained {len(bundle.label_models)} label models "
        f"({bundle.tfidf.dimension} features) -> {settings['out']}",
        file=sys.stderr,
    )
    return 0


def cmd_predict(args) -> int:
    settings = _settings(args, "corpus", "bundle", "out")
    bundle = load_bundle(settings["bundle"])
    encounters = load_corpus(settings["corpus"])
    units = _predictside_units(settings, bundle, encounters)
    rows = (
        {
            "encounter_id": pset.encounter_id,
            "doc_index": pset.doc_index,
            "predictions": [
                {"label": it.label, "score": it.score, "predicted": it.predicted}
                for it in pset.items
            ],
        }
        for pset in predict_units(bundle, units)
    )
    _write_jsonl(settings["out"], rows)
    return 0


def cmd_explain(args) -> int:
    settings = _settings(args, "corpus", "bundle", "out")
    topk = settings.get("topk", 3)
    if topk < 1:
        raise ConfigError(f"setting 'topk' must be at least 1, got {topk}")
    sentence_filter = settings.get("filter", "all")
    if sentence_filter not in JUSTIFICATION_FILTERS:
        raise ConfigError(f"unknown justification filter: {sentence_filter!r}")
    bundle = load_bundle(settings["bundle"])
    encounters = load_corpus(settings["corpus"])
    units = _predictside_units(settings, bundle, encounters)
    psets = predict_units(bundle, units)

    def rows():
        # Each unit leaves the list as it is explained, so the sentences
        # its explanation builds are freed once its rows are written.
        for i, pset in enumerate(psets):
            unit, units[i] = units[i], None
            for item in pset.items:
                if item.predicted:
                    yield {
                        "encounter_id": unit.encounter_id,
                        "doc_index": unit.doc_index,
                        "label": item.label,
                        "justifications": [
                            {
                                "rank": j.rank,
                                "kind": j.sentence.kind,
                                "score": j.score,
                                "text": j.sentence.text,
                                "rendering": j.rendering,
                            }
                            for j in top_justifications(score_sentences(bundle, item.label, unit),
                                                        k=topk, sentence_filter=sentence_filter)
                        ],
                    }

    _write_jsonl(settings["out"], rows())
    return 0


def cmd_evaluate(args) -> int:
    settings = _settings(args, "corpus", "out")
    out_dir = Path(settings["out"])
    mode = settings.get("mode")
    modes = [mode] if mode else settings.get("modes", ["text_only", "text_plus_datawords"])
    for m in modes:
        if m not in ABLATION_MODES:
            raise ConfigError(f"unknown ablation mode: {m!r}")
    base = _pipeline_config({**settings, "mode": modes[0]})
    # every mode runs before anything is written, so a run that fails
    # leaves no report behind, nor an --out directory; a path mkdir would
    # refuse is refused before the first fold
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        code = errno.EEXIST if nearest == out_dir else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out_dir))
    encounters = load_corpus(settings["corpus"])
    reports = [run_cv(encounters, replace(base, ablation_mode=m)) for m in modes]
    out_dir.mkdir(parents=True, exist_ok=True)
    for m, report in zip(modes, reports):
        report_path = out_dir / f"report_{m}.json"
        with open(report_path, "wb") as fh:
            fh.write(report.to_json_bytes())
        if args.label_table:
            with open(out_dir / f"labels_{m}.csv", "w", encoding="utf-8") as fh:
                fh.write(report.label_table_csv())
        micro = report.micro
        print(
            f"{m}: micro P={micro[0]:.4f} R={micro[1]:.4f} F1={micro[2]:.4f} -> {report_path}",
            file=sys.stderr,
        )
    return 0


def cmd_synth(args) -> int:
    settings = _settings(args, "spec", "out")
    spec = SynthSpec.from_dict(read_json_object(settings["spec"], "synthetic spec"))
    spec.validate_for_folds(settings.get("folds", PipelineConfig.folds))
    encounters = generate_synthetic(spec)
    save_corpus(encounters, settings["out"])
    print(f"wrote {len(encounters)} encounters to {settings['out']}", file=sys.stderr)
    return 0


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--corpus", help="corpus JSON-lines file")
    p.add_argument("--out", help="output path")
    p.add_argument("--seed", type=int, help="random seed (default 42)")
    p.add_argument("--folds", type=int, help="fold count for cross-validation (default 4)")
    p.add_argument("--mode", choices=ABLATION_MODES, help="ablation mode")
    p.add_argument("--lambda", dest="lam", type=float, help="ridge strength (default 1.0)")
    p.add_argument("--topk", type=int, help="justifications per prediction (default 3)")
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility; all labels share one solve (default 1)")
    p.add_argument("--unit", choices=UNIT_KINDS, help="classification unit")
    p.add_argument("--source", choices=EXTRACTION_SOURCES,
                   help="structured-data source (default patterns)")
    p.add_argument("--patterns", help="pattern config JSON (default: built-in)")
    p.add_argument("--thresholds", help="threshold spec JSON (default: automatic cuts)")
    p.add_argument("--extractions", help="records file for external/db sources")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datawords",
        description="Text classification over text plus structured data encoded as DataWords",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "extract": (cmd_extract, "run extraction and write a records file"),
        "stats": (cmd_stats, "compute per-variable statistics"),
        "encode": (cmd_encode, "write augmented documents with their DataWords"),
        "train": (cmd_train, "train a model bundle"),
        "predict": (cmd_predict, "score a corpus with a bundle"),
        "explain": (cmd_explain, "emit key-sentence justifications"),
        "evaluate": (cmd_evaluate, "run k-fold cross-validation"),
        "synth": (cmd_synth, "generate a synthetic corpus"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_shared(p)
        if name == "explain":
            p.add_argument("--filter", choices=JUSTIFICATION_FILTERS,
                           help="restrict justification sentences (default all)")
        if name in ("predict", "explain"):
            p.add_argument("--bundle", help="trained bundle file")
        if name == "evaluate":
            p.add_argument("--label-table", action="store_true",
                           help="also write a per-label CSV next to each report")
        if name == "synth":
            p.add_argument("--spec", help="synthetic corpus spec JSON")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        rc = args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a path that cannot be used: a directory for a file, a file for a
        # directory, no permission
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except DataWordsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"[time] {args.command}: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
