"""Command-line entry point wiring the modules into reproducible runs.

Subcommands: features extract, dataset plan, mask dump, model describe,
train, eval, predict, gradcheck.  Configuration precedence is CLI flag >
config file (INI) > dataclass defaults; every artifact-producing run
writes the fully resolved config beside its outputs.

Exit codes: 0 success; 1 gradcheck found a failure; 2 usage;
3 config error; 4 file/format error; 5 data or shape validation error;
6 training divergence; 141 stdout was closed by its reader.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import os
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import dataset as ds
from . import features as feat
from . import model as mdl
from . import training as trn
from .errors import (
    ConfigError,
    FileFormatError,
    MclnnError,
    TrainingDivergedError,
    ValidationError,
)
from .mask import BinaryMask, MaskSpec, generate_mask

OUT_ROOT_ENV = "MCLNN_OUT_ROOT"
FEATURE_SUFFIX = ".mclf"
MODEL_SUFFIX = ".mcln"

EXIT_OK = 0
EXIT_GRADCHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_DATA = 5
EXIT_DIVERGED = 6
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

# Section -> (attribute of ExperimentConfig, dataclass).  Each field of the
# dataclass is one configurable value; its default, type and bounds belong to
# the dataclass.  Reading the INI file, the flags and writing ``resolved.ini``
# all walk the rows that ``_rows`` derives from these fields.
_SECTIONS = {
    "features": ("features", feat.FeatureParams),
    "model": ("model_spec", mdl.ModelSpec),
    "training": ("training", trn.TrainConfig),
}
# A field's INI key is its name, except for these.
_RENAMED = {"sample_rate": "rate", "fft_size": "fft"}
# [paths] records what a run read and wrote; it is never read back.
_PATH_KEYS = {"in", "out", "features", "plan"}


@dataclass
class ExperimentConfig:
    features: feat.FeatureParams
    model_spec: mdl.ModelSpec | None
    training: trn.TrainConfig

    def to_ini(self, paths: dict[str, str] | None = None) -> str:
        parser = _ini()
        for section, (attr, _) in _SECTIONS.items():
            values = getattr(self, attr)
            if values is not None:
                rows = _rows(section)
                parser[section] = {key: _format(getattr(values, name)) for key, name, *_ in rows}
        if paths:
            parser["paths"] = {k: str(v) for k, v in sorted(paths.items())}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


def _ini() -> configparser.ConfigParser:
    # No interpolation: a '%' in a value, such as a path, is written and read as itself.
    return configparser.ConfigParser(interpolation=None)


def _format(value) -> str:
    if value is None:
        return ""
    return format_layers(value) if isinstance(value, tuple) else str(value)


def format_layers(layers) -> str:
    return ", ".join(
        f"{s.width}:{s.order}" + (f":{s.bandwidth}:{s.overlap}" if s.masked else "")
        for s in layers
    )


def parse_layers(text: str) -> tuple[mdl.LayerSpec, ...]:
    """Parse 'width:order' or 'width:order:bandwidth:overlap', comma-separated."""
    layers = []
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        parts = chunk.split(":")
        try:
            if len(parts) not in (2, 4):
                raise ValueError(f"expected 2 or 4 fields, got {len(parts)}")
            layers.append(mdl.LayerSpec(*map(int, parts)))
        except ValueError as exc:
            raise ConfigError(f"bad layer spec {chunk!r}: {exc}") from exc
    if not layers:
        raise ConfigError(f"no layers parsed from {text!r}")
    return tuple(layers)


def _rows(section: str) -> list[tuple]:
    """(INI key, field name, cast, default) for each configurable field of ``section``."""
    cls = _SECTIONS[section][1]
    hints = get_type_hints(cls)
    return [
        (_RENAMED.get(f.name, f.name), f.name, _cast(hints[f.name]), f.default)
        for f in fields(cls)
    ]


def _cast(hint):
    """The callable that reads one value of type ``hint``, from the INI file or a flag."""
    if hint == tuple[mdl.LayerSpec, ...]:
        return parse_layers
    # int, float, str, or one of them | None
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


def _read_ini(path: Path) -> configparser.ConfigParser:
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist or is not a file")
    parser = _ini()
    try:
        parser.read_string(ds.read_text(path, ConfigError), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    known = {section: {row[0] for row in _rows(section)} for section in _SECTIONS}
    known["paths"] = _PATH_KEYS
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = set(parser[section]) - known[section]
        if unknown:
            raise ConfigError(f"{path}: unknown keys in [{section}]: {sorted(unknown)}")
    return parser


def _parse(section: str, key: str, raw: str, cast, default):
    """One INI value as its field's type; empty means None, only where None is the default."""
    if raw == "":
        if default is None:
            return None
        raise ConfigError(f"[{section}] {key} is empty; only keys that default to None may be")
    try:
        return cast(raw)
    except (ValueError, ValidationError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _build(section: str, parser: configparser.ConfigParser, args):
    """The section's dataclass; each value is flag > INI > dataclass default."""
    kwargs = {}
    for key, name, cast, default in _rows(section):
        value = getattr(args, f"{section}.{key}", None)
        raw = parser.get(section, key, fallback=None)
        if value is None and raw is not None:
            value = _parse(section, key, raw, cast, default)
        if value is not None:
            kwargs[name] = value
        elif default is MISSING:
            raise ConfigError(f"[{section}] section is missing {key!r}")
    try:
        return _SECTIONS[section][1](**kwargs)
    except ValidationError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_experiment_config(args) -> ExperimentConfig:
    """Merge dataclass defaults, the optional INI file, preset, and CLI flags."""
    config_path = getattr(args, "config", None)
    parser = _read_ini(Path(config_path)) if config_path else _ini()
    features = _build("features", parser, args)
    spec: mdl.ModelSpec | None = None
    preset = getattr(args, "preset", None)
    if preset is not None:
        if preset not in mdl.PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(mdl.PRESETS)}")
        spec = mdl.PRESETS[preset]
    elif parser.has_section("model"):
        spec = _build("model", parser, args)
    return ExperimentConfig(features, spec, _build("training", parser, args))


def _resolve_out(raw: str | None, command: str) -> Path:
    if raw:
        return Path(raw)
    root = os.environ.get(OUT_ROOT_ENV)
    if root:
        return Path(root) / command
    raise ConfigError(f"--out is required (or set ${OUT_ROOT_ENV})")


# ---------------------------------------------------------------------------
# data plumbing shared by train / eval / predict
# ---------------------------------------------------------------------------


def _load_clips(directory: Path, clip_ids) -> list[feat.FeatureMatrix]:
    """The clips in ``clip_ids`` from ``directory``'s feature files, in file name order.

    Every header is read and checked first: a bad file anywhere, two
    holding one clip id, or a clip in ``clip_ids`` that no file holds
    raises before any frames are loaded."""
    if not directory.is_dir():
        raise ConfigError(f"feature directory {directory} does not exist")
    paths = sorted(directory.glob(f"*{FEATURE_SUFFIX}"))
    if not paths:
        raise ValidationError(f"no {FEATURE_SUFFIX} files under {directory}")
    path_of: dict[str, Path] = {}
    for path in paths:
        clip_id = feat.read_feature_header(path)["clip_id"]
        if clip_id in path_of:
            raise ValidationError(f"{path_of[clip_id]} and {path} both hold clip {clip_id!r}")
        path_of[clip_id] = path
    missing = sorted(set(clip_ids) - path_of.keys())
    if missing:
        raise ValidationError(
            f"{len(missing)} plan clips have no feature file under {directory}, e.g. {missing[:3]}"
        )
    return [feat.load_features(path) for clip_id, path in path_of.items() if clip_id in clip_ids]


def _read_class_names(path: str | None, class_count: int) -> tuple[str, ...]:
    if path is None:
        return tuple(str(i) for i in range(class_count))
    names = [line.strip() for line in ds.read_text(path).splitlines() if line.strip()]
    if len(names) != class_count:
        raise ConfigError(f"{path} lists {len(names)} classes, model expects {class_count}")
    return tuple(names)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_features_extract(args) -> int:
    config = load_experiment_config(args)
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise ConfigError(f"input directory {in_dir} does not exist")
    out_dir = _resolve_out(args.out, "features")

    class_dirs = sorted(p for p in in_dir.iterdir() if p.is_dir())
    if not class_dirs:
        raise ValidationError(f"{in_dir} has no class subdirectories")
    mapping = ds.class_mapping([p.name for p in class_dirs])
    # clip id -> (class name, audio file); a clip id names one feature file
    inputs: dict[str, tuple[str, Path]] = {}
    for class_dir in class_dirs:
        ds.check_name(class_dir.name, "class directory")
        for audio_path in sorted(
            p for p in class_dir.iterdir() if p.suffix.lower() in feat.AUDIO_SUFFIXES
        ):
            clip_id = f"{class_dir.name}__{audio_path.stem}"
            ds.check_name(clip_id, f"clip id of {audio_path}")
            if clip_id in inputs:
                raise ValidationError(
                    f"{inputs[clip_id][1]} and {audio_path} would both be clip {clip_id!r}; "
                    f"rename one"
                )
            inputs[clip_id] = (class_dir.name, audio_path)
    if not inputs:
        raise ValidationError(f"no .npz, .wav or .au clips found under {in_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for clip_id, (name, audio_path) in inputs.items():
            clip = feat.load_audio(audio_path)
            fm = feat.extract_features(clip, config.features, clip_id=clip_id, label=mapping[name])
            written.append(out_dir / f"{clip_id}{FEATURE_SUFFIX}")
            feat.save_features(fm, written[-1])
    except BaseException:
        # a run that fails part-way leaves none of its feature files behind,
        # a file cut off while being written included
        for path in written:
            path.unlink(missing_ok=True)
        raise
    manifest_rows = [f"{clip_id}\t{name}" for clip_id, (name, _) in inputs.items()]
    (out_dir / "manifest.tsv").write_text("\n".join(manifest_rows) + "\n")
    (out_dir / "classes.txt").write_text(
        "\n".join(sorted(mapping, key=mapping.get)) + "\n"
    )
    (out_dir / "resolved.ini").write_text(
        config.to_ini({"in": str(in_dir), "out": str(out_dir)})
    )
    print(f"extracted {len(manifest_rows)} clips into {out_dir}")
    return EXIT_OK


def cmd_dataset_plan(args) -> int:
    out_path = Path(args.out) if args.out else _resolve_out(None, "plan") / "plan.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if bool(args.train_list) != bool(args.test_list):
        raise ConfigError("--train-list and --test-list must be given together")
    clips = None
    if args.manifest:
        rows = ds.load_manifest(args.manifest)
        mapping = ds.class_mapping([c for _, c in rows])
        clips = [(clip, mapping[c]) for clip, c in rows]
    if args.train_list:
        train_ids = [l.strip() for l in ds.read_text(args.train_list).splitlines() if l.strip()]
        test_ids = [l.strip() for l in ds.read_text(args.test_list).splitlines() if l.strip()]
        plan = ds.fixed_split(
            train_ids, test_ids,
            validation_fraction=args.validation_fraction,
            seed=args.seed, labels=dict(clips) if clips else None,
        )
    elif clips is None:
        raise ConfigError("either --manifest (fold mode) or --train-list/--test-list is required")
    else:
        plan = ds.make_folds(clips, folds=args.folds, seed=args.seed)
    plan.save(out_path)
    counts = {b: len(plan.clips_in(b)) for b in plan.buckets()}
    print(f"wrote {out_path}: " + ", ".join(f"{b}={n}" for b, n in sorted(counts.items())))
    return EXIT_OK


def _mask_grid_text(mask: BinaryMask) -> str:
    rows = ["".join(str(int(v)) for v in row) for row in mask.entries]
    ones = [f"{r},{c}" for r, c in mask.one_positions()]
    return "\n".join(rows) + "\n\nones (row,col): " + " ".join(ones) + "\n"


def cmd_mask_dump(args) -> int:
    spec = MaskSpec(args.feature_length, args.hidden_width, args.bandwidth, args.overlap)
    text = _mask_grid_text(generate_mask(spec))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_model_describe(args) -> int:
    config = load_experiment_config(args)
    if config.model_spec is None:
        raise ConfigError("model describe needs --preset or a config file with a [model] section")
    spec = config.model_spec
    table = mdl.layer_table(spec)
    plan = mdl.frame_plan(spec)
    print(f"feature_length: {spec.feature_length}")
    print(f"layers: {format_layers(spec.layers)}")
    print(f"extra_frames: {spec.extra_frames}  dense_width: {spec.dense_width}  "
          f"classes: {spec.class_count}  activation: {spec.activation}")
    print(f"segment_size: {mdl.segment_size(spec)}")
    print(f"frame_plan: {plan}")
    print(f"parameters: {sum(map(math.prod, mdl.parameter_shapes(table).values()))}")
    for i, (_, _, shape, mask, _) in enumerate(table[: len(spec.layers)]):
        if mask is None:
            print(f"layer {i}: unmasked, weights {shape}")
        else:
            print(
                f"layer {i}: mask {mask.shape[0]}x{mask.shape[1]}, "
                f"density {mask.density():.4f}, weights {shape}"
            )
    return EXIT_OK


def cmd_train(args) -> int:
    config = load_experiment_config(args)
    spec = config.model_spec
    if spec is None:
        raise ConfigError("a model architecture is required: --preset or config [model] section")
    out_dir = _resolve_out(args.out, "train")
    out_dir.mkdir(parents=True, exist_ok=True)
    # the plan and the flags are checked before any feature file is read
    plan = ds.SplitPlan.load(args.plan)
    labels = _read_class_names(args.classes, spec.class_count)
    trn.bucket_roles(plan, args.test_fold, args.validation_fold)
    features = _load_clips(Path(args.features), plan.assignment)
    with warnings.catch_warnings():
        # a diverging run overflows; its TrainingDivergedError is the one report of it
        warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"mclnn\.")
        model, report = trn.run_experiment(
            features, plan, spec, config.training, labels, args.test_fold, args.validation_fold
        )

    mdl.save_model(model, out_dir / f"model{MODEL_SUFFIX}")
    (out_dir / "report.txt").write_text(report.to_text())
    (out_dir / "resolved.ini").write_text(config.to_ini({
        "features": str(args.features), "plan": str(args.plan), "out": str(out_dir),
    }))
    plan.save(out_dir / "plan.txt")
    summary = f"trained {len(report.epochs)} epochs; best epoch {report.best_epoch}"
    if report.test_accuracy is not None:
        summary += f"; test clip accuracy {report.test_accuracy:.4f}"
    print(summary)
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def _segment_hop(args) -> int | None:
    """``--hop`` of eval and predict: None (q) when not given, else at least 1."""
    if args.hop is not None and args.hop < 1:
        raise ConfigError(f"--hop must be >= 1, got {args.hop}")
    return args.hop


def cmd_eval(args) -> int:
    model = mdl.load_model(args.model)
    hop = _segment_hop(args)
    plan = ds.SplitPlan.load(args.plan)
    bucket = args.bucket
    clip_ids = set(plan.clips_in(bucket))
    if not clip_ids:
        raise ValidationError(
            f"plan has no clips in bucket {bucket!r}; the plan's buckets are "
            f"{', '.join(plan.buckets())} (pass --bucket)"
        )
    chosen = _load_clips(Path(args.features), clip_ids)
    by_clip = {fm.clip_id: trn.clip_segments(model, fm, hop) for fm in chosen}
    labels_by_clip = {fm.clip_id: fm.label for fm in chosen}
    result = trn.evaluate(model, by_clip, labels_by_clip)
    print(f"clips: {len(labels_by_clip)}  accuracy: {result.clip_accuracy:.4f}")
    print("\n".join(trn.confusion_lines(result.confusion, model.labels)))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{cid}\t{pred}" for cid, pred in sorted(result.per_clip.items())]
        out.write_text(f"# accuracy = {result.clip_accuracy!r}\n" + "\n".join(lines) + "\n")
        print(f"wrote {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = mdl.load_model(args.model)
    hop = _segment_hop(args)
    for path in map(Path, args.features_files):
        fm = feat.load_features(path)
        segments = trn.clip_segments(model, fm, hop)
        if not segments:
            print(f"{fm.clip_id or path.name}\t<too short>\t-")
            continue
        predicted, mean_probs = trn.predict_clip(model, segments)
        probs_text = " ".join(f"{p:.4f}" for p in mean_probs)
        print(f"{fm.clip_id or path.name}\t{model.labels[predicted]}\t{probs_text}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    config = load_experiment_config(args)
    spec = config.model_spec
    if spec is None:
        # small default: exercises masking, multiple layers, and pooling
        spec = mdl.ModelSpec(
            feature_length=8,
            layers=(
                mdl.LayerSpec(width=6, order=2, bandwidth=3, overlap=1),
                mdl.LayerSpec(width=6, order=2, bandwidth=3, overlap=1),
            ),
            extra_frames=3,
            dense_width=5,
            class_count=4,
        )
    model = mdl.build_model(spec, seed=config.training.seed)
    rng = np.random.default_rng(config.training.seed + 1)
    segment = rng.standard_normal((mdl.segment_size(spec), spec.feature_length))
    target = int(rng.integers(spec.class_count))
    report = trn.grad_check(model, segment, target, tolerance=args.tolerance)
    print(report.to_text(), end="")
    return EXIT_OK if report.passed else EXIT_GRADCHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_section_flags(p: argparse.ArgumentParser, section: str, keys=None) -> None:
    """``--<key>``, underscores as dashes, for each key of [section] (or each of ``keys``)."""
    for key, _, cast, _ in _rows(section):
        if keys is None or key in keys:
            choices = trn.OPTIMIZERS if key == "optimizer" else None
            # a choice is matched as written; argparse shows the choices as its metavar
            p.add_argument(
                "--" + key.replace("_", "-"), dest=f"{section}.{key}", choices=choices,
                type=None if choices else cast, metavar=None if choices else key.upper(),
                help=f"overrides [{section}] {key}",
            )


def _add_config_flags(p: argparse.ArgumentParser, keys=None) -> None:
    """--config, --preset and the [training] flags (all, or only ``keys``)."""
    p.add_argument("--config", help="INI config file")
    p.add_argument("--preset", help="built-in architecture preset (e.g. table3)")
    _add_section_flags(p, "training", keys)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help fails as any other output does:
    argparse's own ``print_help`` swallows an ``OSError`` from its write,
    so help on a closed, unbuffered stdout would exit 0, not 141."""

    def print_help(self, file=None):
        (sys.stdout if file is None else file).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mclnn",
        description="Masked conditional neural networks for temporal-signal classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_features = sub.add_parser("features", help="feature pipeline")
    f_sub = p_features.add_subparsers(dest="subcommand", required=True)
    p_extract = f_sub.add_parser("extract", help="audio dir -> per-clip feature files")
    p_extract.add_argument("--in", dest="in_dir", required=True,
                           help="directory of <class>/<clip>.npz|.wav|.au")
    p_extract.add_argument("--out", default=None)
    p_extract.add_argument("--config", help="INI config file")
    _add_section_flags(p_extract, "features")
    p_extract.set_defaults(func=cmd_features_extract)

    p_dataset = sub.add_parser("dataset", help="splits and folds")
    d_sub = p_dataset.add_subparsers(dest="subcommand", required=True)
    p_plan = d_sub.add_parser("plan", help="build a split plan")
    p_plan.add_argument("--manifest", help="clip<TAB>class rows")
    p_plan.add_argument("--folds", type=int, default=10)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--train-list", dest="train_list")
    p_plan.add_argument("--test-list", dest="test_list")
    p_plan.add_argument("--validation-fraction", dest="validation_fraction",
                        type=float, default=0.0)
    p_plan.add_argument("--out", default=None)
    p_plan.set_defaults(func=cmd_dataset_plan)

    p_mask = sub.add_parser("mask", help="band-pattern masks")
    m_sub = p_mask.add_subparsers(dest="subcommand", required=True)
    p_dump = m_sub.add_parser("dump", help="print a mask as a 0/1 grid")
    p_dump.add_argument("--feature-length", dest="feature_length", type=int, required=True)
    p_dump.add_argument("--hidden-width", dest="hidden_width", type=int, required=True)
    p_dump.add_argument("--bandwidth", type=int, required=True)
    p_dump.add_argument("--overlap", type=int, required=True)
    p_dump.add_argument("--out", default=None)
    p_dump.set_defaults(func=cmd_mask_dump)

    p_model = sub.add_parser("model", help="architecture tools")
    mo_sub = p_model.add_subparsers(dest="subcommand", required=True)
    p_describe = mo_sub.add_parser("describe", help="print spec, frame plan, parameter counts")
    _add_config_flags(p_describe, ())
    p_describe.set_defaults(func=cmd_model_describe)

    p_train = sub.add_parser("train", help="train a model from feature files and a plan")
    _add_config_flags(p_train)
    p_train.add_argument("--features", required=True, help="directory of feature files")
    p_train.add_argument("--plan", required=True, help="split plan file")
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--classes", default=None, help="class-name list, one per line")
    p_train.add_argument("--test-fold", dest="test_fold", type=int, default=None)
    p_train.add_argument("--validation-fold", dest="validation_fold", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a plan bucket")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--plan", required=True)
    p_eval.add_argument("--features", required=True)
    p_eval.add_argument("--bucket", default="test")
    p_eval.add_argument("--hop", type=int, default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_predict = sub.add_parser("predict", help="per-clip predictions for feature files")
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--hop", type=int, default=None)
    p_predict.add_argument("features_files", nargs="+", metavar="FEATURES")
    p_predict.set_defaults(func=cmd_predict)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_config_flags(p_grad, ("seed",))
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout raises here, not in the flush at exit
    except BrokenPipeError:
        # the reader of stdout has gone: stop quietly, as a process killed by
        # SIGPIPE would, and point stdout at the null device so that the
        # interpreter's own flush at exit has nowhere to fail
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_PIPE
    return code


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except TrainingDivergedError as exc:
        return _fail(exc, EXIT_DIVERGED)
    except (FileFormatError, OSError) as exc:
        return _fail(exc, EXIT_IO)
    except MclnnError as exc:
        return _fail(exc, EXIT_DATA)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
