"""Run every CLI subcommand under ``sys.setprofile`` and record which code objects of ``icuseq`` were entered.

Usage: ``python tests/reach_cli.py WORKDIR`` with ``icuseq`` importable.
``WORKDIR`` must hold ``cache.bin``, an embedding cache of dimension 8.
The profiler is installed before ``icuseq`` is imported, so calls made at
import time count. The script writes ``WORKDIR/reach.json``: each
command's label and exit code, and the ``[file, first line, qualified
name]`` of every entered code object whose file lies in the package.
"""

from __future__ import annotations

import json
import os
import sys

entered: set = set()


def _profile(frame, event, _arg):
    if event == "call":
        entered.add(frame.f_code)


def _commands(work: str) -> list[tuple[str, int, list[str]]]:
    """(label, expected exit code, argv) of each run, in order."""
    def at(name: str) -> str:
        return os.path.join(work, name)

    events, cache = at("events.jsonl"), at("cache.bin")
    synth = ["synth", "--patients", "24", "--features", "6", "--rate", "0.01",
             "--signal-incidence", "0.4", "--seed", "5", "--out", events]
    data = ["--events", events, "--embed-dim", "8"]
    model = ["--hidden", "8", "--heads", "2", "--layers", "2", "--ffn-dim", "8", "--max-seq-len", "24"]
    short = ["--folds", "2", "--epochs", "2", "--batch-size", "8"]
    with open(at("pretrain.cfg"), "w", encoding="utf-8") as f:
        f.write("# tiny model\nbatch-size=8\nepochs=2\n")
    with open(at("bad.jsonl"), "w", encoding="utf-8") as f:
        f.write('{"patient_id": "p", "stay_id": "s"}\n')
    return [
        ("synth binary", 0, synth + ["--task-out", at("binary.json")]),
        ("synth regression", 0, synth + ["--task-out", at("regression.json"), "--task-kind", "regression"]),
        ("ingest", 0, ["ingest", "--events", events]),
        ("pretrain", 0, ["pretrain", "--config", at("pretrain.cfg"), *data, *model, "--out", at("pre.ckpt"),
                         "--ratios", "0.6,0.2,0.2", "--corrupt", "0.8,0.1,0.1",
                         "--metrics-out", at("metrics.csv"), "--patience", "0"]),
        ("finetune frozen", 0, ["finetune", *data, *short, "--checkpoint", at("pre.ckpt"),
                                "--task", at("binary.json"), "--unfrozen-layers", "1", "--out", at("task.ckpt")]),
        ("finetune no layer", 0, ["finetune", *data, *short, "--checkpoint", at("pre.ckpt"),
                                  "--task", at("binary.json"), "--unfrozen-layers", "0"]),
        ("finetune everything", 0, ["finetune", *data, *short, "--checkpoint", at("pre.ckpt"),
                                    "--task", at("binary.json"), "--unfreeze-embedder", "1",
                                    "--unfrozen-layers", "none"]),
        ("finetune class weight", 0, ["finetune", *data, *short, "--checkpoint", at("pre.ckpt"),
                                      "--task", at("binary.json"), "--class-weight", "2",
                                      "--results-out", at("folds.txt")]),
        ("evaluate", 0, ["evaluate", *data, "--checkpoint", at("task.ckpt"), "--task", at("binary.json")]),
        ("finetune regression", 0, ["finetune", *data, *short, "--checkpoint", at("pre.ckpt"),
                                    "--task", at("regression.json"), "--out", at("regression.ckpt")]),
        ("evaluate regression", 0, ["evaluate", *data, "--checkpoint", at("regression.ckpt"),
                                    "--task", at("regression.json"), "--results-out", at("mae.txt")]),
        ("cache with fallback", 0, ["pretrain", *data, *model, "--out", at("cached.ckpt"), "--epochs", "1",
                                    "--batch-size", "8", "--embed-cache", cache, "--embed-stub-fallback", "1"]),
        ("inspect-cache", 0, ["inspect-cache", "--embed-cache", cache]),
        ("gradcheck", 0, ["gradcheck"]),
        ("gradcheck mismatch", 1, ["gradcheck", "--tolerance", "0"]),
        ("malformed event line", 1, ["ingest", "--events", at("bad.jsonl")]),
        ("cache miss", 1, ["pretrain", *data, *model, "--out", at("missed.ckpt"), "--epochs", "1",
                           "--embed-cache", cache]),
    ]


def main(work: str) -> None:
    sys.setprofile(_profile)
    try:
        import icuseq
        from icuseq.cli import main as cli

        runs = [(label, expected, cli(argv)) for label, expected, argv in _commands(work)]
    finally:
        sys.setprofile(None)
    package = os.path.dirname(os.path.abspath(icuseq.__file__))
    reached = sorted({(os.path.relpath(c.co_filename, package), c.co_firstlineno, c.co_qualname)
                      for c in entered if os.path.dirname(os.path.abspath(c.co_filename)) == package})
    with open(os.path.join(work, "reach.json"), "w", encoding="utf-8") as f:
        json.dump({"runs": runs, "entered": reached}, f)


if __name__ == "__main__":
    main(sys.argv[1])
