"""Command-line entry point: synth, ingest, pretrain, finetune, evaluate, gradcheck, inspect-cache."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, Optional

import numpy as np

from . import encoder as enc
from .errors import ConfigMismatch, IcuseqError
from .ingest import Split, assign_splits, build_vocabularies, parse_events
from .masking import MaskingRates
from .metrics import MetricReport
from .synth import (
    GeneratorSpec,
    oracle_cont_target,
    oracle_label,
    read_task_file,
    write_corpus,
    write_task_file,
)
from .textvec import FileCacheProvider, StubProvider, atomic_write, read_cache
from .training import (
    Model,
    ModelConfig,
    Task,
    TrainConfig,
    evaluate,
    finetune,
    gradcheck_problem,
    pretrain,
)


def _floats_csv(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _class_weight(text: str) -> str | float:
    """``auto``, or the positive-class weight as a number."""
    return "auto" if text.strip() == "auto" else float(text)


def _seed(text: str) -> int:
    """A generator seed: numpy seeds with non-negative integers only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a seed must be non-negative, got {value}")
    return value


def _opt_int(text: str) -> Optional[int]:
    return None if str(text).strip().lower() in ("none", "") else int(text)


# dest -> (converter, default, required, help); None default means "no default"
_COMMON_DATA = {
    "events": (str, None, True, "event-line file (one JSON record per line)"),
    "split_seed": (_seed, 0, False, "seed for the patient-level split"),
    "ratios": (_floats_csv, (0.7, 0.15, 0.15), False, "train,val,test fractions"),
}
_COMMON_EMBED = {
    "embed_cache": (str, None, False, "embedding cache file (EHRV1 format)"),
    "embed_stub_seed": (_seed, 0, False, "seed for the deterministic embedding stub"),
    "embed_dim": (int, 32, False, "stub embedding dimension"),
    "embed_stub_fallback": (_bool, False, False, "fall back to the stub on cache misses"),
}

_SPECS: dict[str, dict[str, tuple]] = {
    "synth": {
        "patients": (int, 100, False, "number of patients (one stay each by default)"),
        "features": (int, 20, False, "number of dynamic features"),
        "rate": (float, 0.01, False, "per-feature events per minute"),
        "signal_incidence": (float, 0.1, False, "positive rate of the planted outcome"),
        "stay_hours": (float, 24.0, False, "mean stay length in hours"),
        "stay_jitter_hours": (float, 0.0, False, "uniform jitter around the stay length"),
        "cat_fraction": (float, 0.4, False, "fraction of categorical features"),
        "stays_per_patient": (int, 1, False, "stays generated per patient"),
        "seed": (_seed, 0, False, "generator seed"),
        "out": (str, None, True, "output event-line path"),
        "task_out": (str, None, False, "also write a planted-task description file"),
        "task_kind": (str, "binary", False, "task kind for --task-out (binary|regression)"),
    },
    "ingest": dict(_COMMON_DATA),
    "pretrain": {
        **_COMMON_DATA,
        **_COMMON_EMBED,
        "out": (str, None, True, "checkpoint output path"),
        "window_minutes": (int, 1440, False, "window length"),
        "max_seq_len": (int, 512, False, "maximum tokens per window"),
        "layers": (int, 6, False, "encoder layers"),
        "hidden": (int, 768, False, "encoder hidden size"),
        "heads": (int, 6, False, "attention heads"),
        "ffn_dim": (int, 64, False, "feed-forward inner dimension"),
        "dropout": (float, 0.1, False, "dropout rate"),
        "epochs": (int, 20, False, "training epochs"),
        "batch_size": (int, 32, False, "windows per batch"),
        "lr": (float, 5e-5, False, "peak learning rate"),
        "weight_decay": (float, 0.0, False, "decoupled weight decay"),
        "warmup_epochs": (_opt_int, None, False, "linear warmup epochs (default: 40% of total)"),
        "patience": (_opt_int, None, False, "early-stop patience in epochs"),
        "alpha": (float, 3.0, False, "continuous-value loss weight"),
        "beta": (float, 1.0, False, "value-loss block weight"),
        "mask_rate": (float, 0.15, False, "token selection probability"),
        "mask_both": (float, 0.5, False, "P(mask both slots | selected)"),
        "mask_value_only": (float, 0.25, False, "P(mask value only | selected)"),
        "mask_feature_only": (float, 0.25, False, "P(mask feature only | selected)"),
        "corrupt": (_floats_csv, (0.8, 0.1, 0.1), False, "mask,random,keep corruption split"),
        "seed": (_seed, 0, False, "training seed"),
        "metrics_out": (str, None, False, "write per-epoch CSV rows here"),
    },
    "finetune": {
        **_COMMON_DATA,
        **_COMMON_EMBED,
        "checkpoint": (str, None, True, "pre-trained checkpoint"),
        "task": (str, None, True, "planted-task description file"),
        "out": (str, None, False, "save the best fold's model here"),
        "folds": (int, 5, False, "cross-validation folds"),
        "unfrozen_layers": (_opt_int, 5, False, "top encoder layers receiving updates"),
        "unfreeze_embedder": (_bool, False, False, "also update the embedding composition"),
        "epochs": (int, 50, False, "maximum epochs per fold"),
        "batch_size": (int, 32, False, "samples per batch"),
        "lr": (float, 1e-3, False, "learning rate"),
        "weight_decay": (float, 0.0, False, "decoupled weight decay"),
        "warmup_epochs": (_opt_int, 0, False, "linear warmup epochs"),
        "patience": (_opt_int, 10, False, "early-stop patience in epochs"),
        "class_weight": (_class_weight, "auto", False, "positive-class weight (auto or a number)"),
        "seed": (_seed, 0, False, "training seed"),
        "results_out": (str, None, False, "write the metric report here"),
    },
    "evaluate": {
        **_COMMON_DATA,
        **_COMMON_EMBED,
        "checkpoint": (str, None, True, "fine-tuned task checkpoint"),
        "task": (str, None, True, "planted-task description file"),
        "results_out": (str, None, False, "write metrics here"),
    },
    "gradcheck": {
        "hidden": (int, 8, False, "hidden size of the tiny model"),
        "layers": (int, 1, False, "encoder layers"),
        "heads": (int, 2, False, "attention heads"),
        "ffn_dim": (int, 16, False, "feed-forward inner dimension"),
        "max_seq_len": (int, 6, False, "tokens per window"),
        "feat_vocab": (int, 12, False, "feature vocabulary size"),
        "val_vocab": (int, 7, False, "categorical value vocabulary size"),
        "d_pre": (int, 8, False, "pre-embedding dimension"),
        "window_minutes": (int, 16, False, "window length"),
        "epsilon": (float, 1e-4, False, "central-difference step"),
        "tolerance": (float, 1e-4, False, "relative-error bound"),
        "samples": (int, 6, False, "entries checked per parameter"),
        "alpha": (float, 3.0, False, "continuous-value loss weight"),
        "beta": (float, 1.0, False, "value-loss block weight"),
        "seed": (_seed, 0, False, "problem seed"),
    },
    "inspect-cache": {
        "embed_cache": (str, None, True, "embedding cache file"),
        "limit": (int, 10, False, "number of keys to list"),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icuseq", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", default=argparse.SUPPRESS,
                         help="key=value file; flags override it, it overrides defaults")
        for dest, (converter, _default, required, help_text) in spec.items():
            flag = "--" + dest.replace("_", "-")
            sub.add_argument(flag, dest=dest, type=converter, required=required,
                             default=argparse.SUPPRESS, help=help_text)
    return parser


def _read_config_file(path: str, spec: dict) -> dict:
    """``key=value`` lines of a UTF-8 file; bytes that are not UTF-8 or a NUL are a ``ConfigMismatch``."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError as exc:
        raise ConfigMismatch(f"{path}: not valid UTF-8: {exc.reason}") from exc
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "\0" in line:  # no path or number holds one, and open() refuses it
            raise ConfigMismatch(f"{path}:{line_no}: NUL character")
        if "=" not in line:
            raise ConfigMismatch(f"{path}:{line_no}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in spec:
            raise ConfigMismatch(f"{path}:{line_no}: unknown key {key!r}")
        converter = spec[key][0]
        try:
            values[key] = converter(raw.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigMismatch(f"{path}:{line_no}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags into one dict."""
    spec = _SPECS[args.command]
    resolved = {dest: default for dest, (_c, default, _r, _h) in spec.items()}
    explicit = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if getattr(args, "config", None):
        resolved.update(_read_config_file(args.config, spec))
    resolved.update(explicit)
    return resolved


def _log_config(command: str, cfg: dict) -> None:
    for key in sorted(cfg):
        print(f"config {command}.{key}={cfg[key]}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[dict], None] = {
        "synth": _cmd_synth,
        "ingest": _cmd_ingest,
        "pretrain": _cmd_pretrain,
        "finetune": _cmd_finetune,
        "evaluate": _cmd_evaluate,
        "gradcheck": _cmd_gradcheck,
        "inspect-cache": _cmd_inspect_cache,
    }[args.command]
    try:
        cfg = _resolve(args)
        _log_config(args.command, cfg)
        handler(cfg)
    except IcuseqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# handlers


def _from_options(cls, cfg: dict):
    """A ``cls`` dataclass whose fields named as options take their resolved values; the rest keep their defaults."""
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls) if f.name in cfg})


def _cmd_synth(cfg: dict) -> None:
    spec = _from_options(GeneratorSpec, cfg)
    write_corpus(cfg["out"], spec, cfg["seed"])
    print(f"wrote {cfg['out']}")
    if cfg["task_out"]:
        write_task_file(cfg["task_out"], spec, cfg["task_kind"], cfg["seed"])
        print(f"wrote {cfg['task_out']}")


def _load_corpus(cfg: dict):
    corpus = assign_splits(parse_events(cfg["events"]), cfg["ratios"], cfg["split_seed"])
    vocab = build_vocabularies(corpus)
    return corpus, vocab


def _cmd_ingest(cfg: dict) -> None:
    corpus, vocab = _load_corpus(cfg)
    print(f"stays: {len(corpus.stays)}")
    print(f"patients: {len(corpus.patient_ids)}")
    print(f"registries: {corpus.n_registries}")
    for split in Split:
        stays = corpus.stays_in(split)
        patients = {s.patient_id for s in stays}
        print(f"split {split.value}: {len(patients)} patients, {len(stays)} stays")
    print(f"feature vocabulary: {vocab.feature_size}")
    print(f"value vocabulary: {vocab.value_size}")


def _provider(cfg: dict):
    stub = StubProvider(cfg["embed_dim"], cfg["embed_stub_seed"])
    if cfg["embed_cache"]:
        fallback = stub if cfg["embed_stub_fallback"] else None
        return FileCacheProvider.from_file(cfg["embed_cache"], fallback=fallback)
    return stub


def _masking_rates(cfg: dict) -> MaskingRates:
    corrupt = cfg["corrupt"]
    if len(corrupt) != 3:
        raise ConfigMismatch("corruption split needs exactly three numbers")
    return MaskingRates(
        select=cfg["mask_rate"], both=cfg["mask_both"],
        value_only=cfg["mask_value_only"], feature_only=cfg["mask_feature_only"],
        corrupt_mask=corrupt[0], corrupt_random=corrupt[1], corrupt_keep=corrupt[2],
    )


_LOSS_CSV_HEADER = "epoch,split,l_f,l_cat,l_cont,l_total,lr"  # of the rows pretrain prints and --metrics-out holds


def _cmd_pretrain(cfg: dict) -> None:
    corpus, vocab = _load_corpus(cfg)
    provider = _provider(cfg)
    model_config = ModelConfig(
        encoder=_from_options(enc.EncoderConfig, cfg),
        d_pre=provider.dim, window_minutes=cfg["window_minutes"],
        feature_vocab=vocab.feature_size, value_vocab=vocab.value_size,
    )
    train_config = _from_options(TrainConfig, cfg)
    print(_LOSS_CSV_HEADER)
    result = pretrain(corpus, vocab, provider, model_config, train_config,
                      rates=_masking_rates(cfg), on_row=lambda row: print(row.csv()))
    result.model.save(cfg["out"])
    if cfg["metrics_out"]:
        lines = [_LOSS_CSV_HEADER] + [row.csv() for row in result.rows]
        atomic_write(cfg["metrics_out"], ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"best epoch {result.best_epoch} val_l_total {result.best_val_total:.6f}")
    print(f"wrote {cfg['out']}")


def _task_from_file(cfg: dict, window_minutes: int) -> Task:
    """The planted task, its oracle labels read from the window the model was built with."""
    kind, gen_spec, _ = read_task_file(cfg["task"])
    if gen_spec.window_minutes != window_minutes:
        raise ConfigMismatch(f"task file labels {gen_spec.window_minutes}-minute windows, "
                             f"the checkpoint has {window_minutes}-minute windows")
    if kind == "binary":
        return Task("binary", lambda stay: oracle_label(stay, gen_spec),
                    class_weight=cfg.get("class_weight", "auto"))
    if kind == "regression":
        return Task("regression", lambda stay: oracle_cont_target(stay, gen_spec))
    raise ConfigMismatch(f"task file kind {kind!r} is not runnable from the CLI")


def _cmd_finetune(cfg: dict) -> None:
    train_config = _from_options(TrainConfig, cfg)
    corpus, vocab = _load_corpus(cfg)
    provider = _provider(cfg)
    model = Model.load(cfg["checkpoint"], expect={
        "feature_vocab": vocab.feature_size,
        "value_vocab": vocab.value_size,
        "head_mode": "pretrain",
        "d_pre": provider.dim,
    })
    task = _task_from_file(cfg, model.config.window_minutes)
    result = finetune(model, task, corpus, vocab, provider, train_config, folds=cfg["folds"])
    _emit_report(result.report, cfg.get("results_out"))
    if cfg["out"]:
        result.best_model.save(cfg["out"])
        print(f"wrote {cfg['out']}")


def _cmd_evaluate(cfg: dict) -> None:
    corpus, vocab = _load_corpus(cfg)
    provider = _provider(cfg)
    model = Model.load(cfg["checkpoint"], expect={"head_mode": "task"})
    task = _task_from_file(cfg, model.config.window_minutes)
    metrics = evaluate(model, task, corpus, vocab, provider)
    text = "\n".join(f"{name}: {value:.6f}" for name, value in sorted(metrics.items()))
    print(text)
    if cfg.get("results_out"):
        atomic_write(cfg["results_out"], (text + "\n").encode("utf-8"))


def _emit_report(report: MetricReport, results_out: Optional[str]) -> None:
    print(report.summary())
    if results_out:
        atomic_write(results_out, (report.summary() + "\n").encode("utf-8"))


def _cmd_gradcheck(cfg: dict) -> None:
    model, loss_fn = gradcheck_problem(
        hidden=cfg["hidden"], layers=cfg["layers"], heads=cfg["heads"], ffn_dim=cfg["ffn_dim"],
        max_seq_len=cfg["max_seq_len"], feat_vocab=cfg["feat_vocab"], val_vocab=cfg["val_vocab"],
        d_pre=cfg["d_pre"], window_minutes=cfg["window_minutes"],
        alpha=cfg["alpha"], beta=cfg["beta"], seed=cfg["seed"],
    )
    report = enc.grad_check(loss_fn, model.parameters(), epsilon=cfg["epsilon"],
                            tolerance=cfg["tolerance"], samples_per_param=cfg["samples"],
                            rng=np.random.default_rng(cfg["seed"]))
    print(report.summary())
    print("gradcheck ok")


def _cmd_inspect_cache(cfg: dict) -> None:
    table = read_cache(cfg["embed_cache"])
    dims = {v.shape[0] for v in table.values()}
    print(f"entries: {len(table)}")
    print(f"dimension: {dims.pop() if dims else 0}")
    for key in sorted(table)[: cfg["limit"]]:
        print(f"  {key}")


if __name__ == "__main__":
    sys.exit(main())
