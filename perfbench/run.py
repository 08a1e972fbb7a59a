#!/usr/bin/env python3
"""icuseq benchmark: one closed-loop pipeline workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain-dense --seed 0 --seconds 25 --trace 0

The run sets up the workload's corpus several times (``setup_s`` is the
median), runs one untimed warm-up round of pretrain -> finetune -> evaluate,
then repeats timed rounds until ``--seconds`` have passed and reports each
stage's throughput over all timed rounds.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics,
including the tracing overhead. A JSON detail record (environment, workload
shape, every round, the span tree) precedes the result, which is the last line
of standard output. The run fails with exit code 2 when ``src/icuseq`` cannot
be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS threads at the cores this process may use; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(min(limit, cores))
    return cores


def environment(cores: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "nproc": cores,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=60)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="synth, split and model seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its scratch directory on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cores = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import icuseq
    except ImportError as exc:
        print(f"error: cannot import icuseq from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(icuseq.__file__).resolve().parents:
        print(f"error: icuseq came from {icuseq.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    detail, result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), ROOT)
    detail["environment"] = environment(cores)
    print(json.dumps(detail, sort_keys=True))
    print(bench.summary(detail, result), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
