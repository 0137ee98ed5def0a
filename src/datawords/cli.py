"""Command-line entry point wiring the pipeline end to end.

Subcommands: extract, stats, encode, train, predict, explain, evaluate,
synth. Settings come from an optional JSON config file (--config) with
command-line flags taking precedence. All randomness flows from --seed.
Stage timings go to standard error and never into data outputs, so every
output file is byte-identical across reruns with the same inputs.

Exit codes: 0 success, 1 data error, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .corpus import load_corpus, save_corpus
from .encoding import ABLATION_MODES, ThresholdSpec
from .errors import ConfigError, DataError, DataWordsError, InputError
from .evaluation import SynthSpec, generate_synthetic, run_cv
from .explain import JUSTIFICATION_FILTERS, score_sentences, top_justifications
from .extraction import (
    MeasurementFilter,
    PatternConfig,
    RollupPolicy,
    extract_encounter,
    load_db_measurements,
    load_external_extractions,
)
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


def _timed(stage: str, started: float) -> None:
    print(f"[time] {stage}: {time.perf_counter() - started:.3f}s", file=sys.stderr)


# Every key that some subcommand reads from a --config file. One file may
# serve several subcommands, so only a key that none of them reads is refused.
CONFIG_KEYS = (
    "bundle", "corpus", "extractions", "filter", "folds", "hash_bits", "l2_normalize", "lam",
    "measurement_filter", "min_df", "min_positive", "mode", "modes", "out", "patterns",
    "rollup", "rollup_provenances", "seed", "source", "spec", "threads", "thresholds", "topk",
    "unit",
)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    unknown = [key for key in cfg if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"config file {path}: unknown setting(s) {', '.join(map(repr, unknown))}")
    return cfg


def _setting(args, cfg: dict, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return default


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"missing required setting: {flag}")
    return value


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _typed_setting(args, cfg: dict, name: str, kind: type, default=None):
    """``_setting`` that refuses a value not of the JSON type ``kind``
    (a number setting takes integers too) with a ConfigError naming it."""
    value = _setting(args, cfg, name, default)
    allowed = (int, float) if kind is float else kind
    if value is not None and (
        not isinstance(value, allowed) or (kind is not bool and isinstance(value, bool))
    ):
        raise ConfigError(f"setting {name!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _external_records(source: str, path: str | None):
    if source == "external":
        return tuple(load_external_extractions(_require(path, "--extractions")))
    if source == "db":
        return tuple(load_db_measurements(_require(path, "--extractions")))
    return None


def _predictside_units(args, cfg: dict, bundle, encounters):
    """Every encounter's units, prepared with the records file that
    accompanies a bundle whose source is external or db, indexed once.
    Missing structured data is tolerated at predict time."""
    path = _setting(args, cfg, "extractions")
    records = None
    source = bundle.spec.extraction_source
    if source in ("external", "db") and path:
        records = _external_records(source, path)
    external = _key_external(records or ())
    return [u for enc in encounters for u in prepare_units(bundle, enc, external)]


def _pipeline_config(args, cfg: dict, mode: str | None = None) -> PipelineConfig:
    source = _typed_setting(args, cfg, "source", str, "patterns")
    patterns_path = _typed_setting(args, cfg, "patterns", str)
    thresholds_path = _typed_setting(args, cfg, "thresholds", str)
    filt_cfg = cfg.get("measurement_filter", {"mode": "all"})
    rollup_cfg = cfg.get("rollup")
    if rollup_cfg is not None and not (
        isinstance(rollup_cfg, list) and all(isinstance(a, str) for a in rollup_cfg)
    ):
        raise ConfigError(f"setting 'rollup' must be a list of aggregate names, got {rollup_cfg!r}")
    provenances = cfg.get("rollup_provenances", ["database"])
    return PipelineConfig(
        ablation_mode=mode or _typed_setting(args, cfg, "mode", str, "text_plus_datawords"),
        unit=_typed_setting(args, cfg, "unit", str, "document"),
        lam=float(_typed_setting(args, cfg, "lam", float, 1.0)),
        min_positive=_typed_setting(args, cfg, "min_positive", int, 1),
        min_df=_typed_setting(args, cfg, "min_df", int, 1),
        l2_normalize=_typed_setting(args, cfg, "l2_normalize", bool, True),
        hash_bits=_typed_setting(args, cfg, "hash_bits", int),
        extraction_source=source,
        pattern_config=PatternConfig.from_file(patterns_path) if patterns_path else None,
        measurement_filter=MeasurementFilter.from_dict(filt_cfg),
        rollup_policy=RollupPolicy(tuple(rollup_cfg)) if rollup_cfg else RollupPolicy(),
        rollup_provenances=tuple(provenances) if isinstance(provenances, list) else provenances,
        threshold_spec=(
            ThresholdSpec.from_file(thresholds_path)
            if thresholds_path
            else ThresholdSpec.defaults()
        ),
        external_records=_external_records(
            source, _typed_setting(args, cfg, "extractions", str)
        ),
        folds=_typed_setting(args, cfg, "folds", int, 4),
        seed=_typed_setting(args, cfg, "seed", int, 42),
        threads=_typed_setting(args, cfg, "threads", int, 1),
    )


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


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def cmd_extract(args) -> int:
    cfg = _load_config_file(args.config)
    corpus_path = _require(_setting(args, cfg, "corpus"), "--corpus")
    out_path = _require(_setting(args, cfg, "out"), "--out")
    source = _setting(args, cfg, "source", "patterns")
    if source == "none":
        raise ConfigError("extract requires a source (patterns, external, or db)")
    t0 = time.perf_counter()
    encounters = load_corpus(corpus_path)
    config = _pipeline_config(args, cfg)
    rows = []
    if source == "patterns":
        pattern_config = config.spec.resolved_pattern_config()
        for enc in encounters:
            rows.extend(_record_to_json(rec) for rec in extract_encounter(enc, pattern_config))
    else:
        # pass-through: validate, normalize, and keep records for this corpus
        ids = {e.encounter_id for e in encounters}
        for rec in config.external_records or ():
            if rec.encounter_id in ids:
                rows.append(_record_to_json(rec))
    _write_jsonl(out_path, rows)
    _timed("extract", t0)
    print(f"wrote {len(rows)} records to {out_path}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    cfg = _load_config_file(args.config)
    corpus_path = _require(_setting(args, cfg, "corpus"), "--corpus")
    out_path = _require(_setting(args, cfg, "out"), "--out")
    t0 = time.perf_counter()
    encounters = load_corpus(corpus_path)
    config = _pipeline_config(args, cfg)
    corpus_units = build_corpus_units(encounters, config)
    obj = {
        name: {"count": st.count, "mean": st.mean, "std": st.std}
        for name, st in sorted(corpus_units.stats.items())
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")
    _timed("stats", t0)
    print(f"wrote statistics for {len(obj)} variables to {out_path}", file=sys.stderr)
    return 0


def cmd_encode(args) -> int:
    cfg = _load_config_file(args.config)
    corpus_path = _require(_setting(args, cfg, "corpus"), "--corpus")
    out_path = _require(_setting(args, cfg, "out"), "--out")
    t0 = time.perf_counter()
    encounters = load_corpus(corpus_path)
    config = _pipeline_config(args, cfg)
    corpus_units = build_corpus_units(encounters, config)
    rows = []
    for unit in corpus_units.units:
        rows.append(
            {
                "encounter_id": unit.encounter_id,
                "doc_index": unit.doc_index,
                "text": unit.text,
                "datawords": [
                    {"text": s.text, "display": s.display}
                    for s in unit.sentences
                    if s.kind == "dataword"
                ],
            }
        )
    _write_jsonl(out_path, rows)
    _timed("encode", t0)
    return 0


def cmd_train(args) -> int:
    cfg = _load_config_file(args.config)
    corpus_path = _require(_setting(args, cfg, "corpus"), "--corpus")
    out_path = _require(_setting(args, cfg, "out"), "--out")
    t0 = time.perf_counter()
    encounters = load_corpus(corpus_path)
    config = _pipeline_config(args, cfg)
    bundle = train_all(encounters, config)
    save_bundle(bundle, out_path)
    _timed("train", t0)
    print(
        f"trained {len(bundle.label_models)} label models "
        f"({bundle.tfidf.dimension} features) -> {out_path}",
        file=sys.stderr,
    )
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config_file(args.config)
    corpus_path = _require(_setting(args, cfg, "corpus"), "--corpus")
    bundle_path = _require(_setting(args, cfg, "bundle"), "--bundle")
    out_path = _require(_setting(args, cfg, "out"), "--out")
    t0 = time.perf_counter()
    bundle = load_bundle(bundle_path)
    encounters = load_corpus(corpus_path)
    units = _predictside_units(args, cfg, bundle, encounters)
    rows = [
        {
            "encounter_id": pset.encounter_id,
            "doc_index": pset.doc_index,
            "predictions": [
                {"label": it.label, "score": it.score, "predicted": it.predicted}
                for it in pset.items
            ],
        }
        for pset in predict_units(bundle, units)
    ]
    _write_jsonl(out_path, rows)
    _timed("predict", t0)
    return 0


def cmd_explain(args) -> int:
    cfg = _load_config_file(args.config)
    corpus_path = _require(_setting(args, cfg, "corpus"), "--corpus")
    bundle_path = _require(_setting(args, cfg, "bundle"), "--bundle")
    out_path = _require(_setting(args, cfg, "out"), "--out")
    topk = _typed_setting(args, cfg, "topk", int, 3)
    sentence_filter = _setting(args, cfg, "filter", "all")
    if sentence_filter not in JUSTIFICATION_FILTERS:
        raise ConfigError(f"unknown justification filter: {sentence_filter!r}")
    t0 = time.perf_counter()
    bundle = load_bundle(bundle_path)
    encounters = load_corpus(corpus_path)
    units = _predictside_units(args, cfg, bundle, encounters)
    rows = []
    for unit, pset in zip(units, predict_units(bundle, units)):
        for item in pset.items:
            if not item.predicted:
                continue
            scored = score_sentences(bundle, item.label, unit)
            just = top_justifications(scored, k=topk, sentence_filter=sentence_filter)
            rows.append(
                {
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
                        for j in just
                    ],
                }
            )
    _write_jsonl(out_path, rows)
    _timed("explain", t0)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config_file(args.config)
    corpus_path = _require(_setting(args, cfg, "corpus"), "--corpus")
    out_dir = Path(_require(_setting(args, cfg, "out"), "--out"))
    mode = _setting(args, cfg, "mode")
    if mode:
        modes = [mode]
    else:
        modes = cfg.get("modes", ["text_only", "text_plus_datawords"])
        if not (isinstance(modes, list) and modes and all(isinstance(m, str) for m in modes)):
            raise ConfigError(f"setting 'modes' must be a nonempty list of mode names, got {modes!r}")
    for m in modes:
        if m not in ABLATION_MODES:
            raise ConfigError(f"unknown ablation mode: {m!r}")
    encounters = load_corpus(corpus_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = _pipeline_config(args, cfg, mode=modes[0])
    for m in modes:
        t0 = time.perf_counter()
        config = replace(base, ablation_mode=m)
        report = run_cv(encounters, config)
        report_path = out_dir / f"report_{m}.json"
        with open(report_path, "wb") as fh:
            fh.write(report.to_json_bytes())
        if args.label_table:
            with open(out_dir / f"labels_{m}.csv", "w", encoding="utf-8") as fh:
                fh.write(report.label_table_csv())
        for row in report.timings:
            print(
                f"[time] {m} fold {row['fold']}: train {row['train_seconds']:.3f}s, "
                f"predict {row['predict_seconds']:.3f}s",
                file=sys.stderr,
            )
        _timed(f"evaluate[{m}]", t0)
        micro = report.micro
        print(
            f"{m}: micro P={micro[0]:.4f} R={micro[1]:.4f} F1={micro[2]:.4f} -> {report_path}",
            file=sys.stderr,
        )
    return 0


def cmd_synth(args) -> int:
    cfg = _load_config_file(args.config)
    spec_path = _require(_setting(args, cfg, "spec"), "--spec")
    out_path = _require(_setting(args, cfg, "out"), "--out")
    folds = _typed_setting(args, cfg, "folds", int, 4)
    t0 = time.perf_counter()
    try:
        with open(spec_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"synthetic spec {spec_path}: invalid JSON ({exc})") from exc
    spec = SynthSpec.from_dict(raw)
    spec.validate_for_folds(folds)
    encounters = generate_synthetic(spec)
    save_corpus(encounters, out_path)
    _timed("synth", t0)
    print(f"wrote {len(encounters)} encounters to {out_path}", file=sys.stderr)
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except (DataError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataWordsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
