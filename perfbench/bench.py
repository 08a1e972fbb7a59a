"""One benchmark run: set-up, warm-up, timed rounds, checks and the reported metrics."""

from __future__ import annotations

import gc
import json
import math
import resource
import tempfile
from pathlib import Path
from time import perf_counter

import layers
from pipeline import (
    Checks,
    Outputs,
    RoundResult,
    expected_shape,
    median,
    run_round,
    shape_record,
    throughput,
    timed_set_up,
)
from tracer import Patcher, Tracer
from workloads import WORKLOADS, Workload

# units, directions and bounds of the metrics, and the workloads' rationale
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares under ``kind``, in its order."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


MIN_ROUNDS = 3  # timed rounds per untraced run
MIN_TRACE_ROUNDS = 2  # of each kind, untraced and traced, per traced run

__all__ = ["WORKLOADS", "SPEC", "run", "summary"]


def _finite(x: float):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def run(wl: Workload, seed: int, seconds: float, trace: bool, root) -> tuple[dict, dict]:
    """Run one workload; return the detail record and the result line."""
    checks = Checks()
    patcher = Patcher()
    outputs = Outputs()
    outputs.install(patcher)
    setup_tracer = Tracer()
    tracer = Tracer()  # traced rounds call the program only through the three stages
    counters = layers.LayerCounters()
    try:
        if trace:
            span_patcher = Patcher()
            layers.instrument_setup(span_patcher, setup_tracer)
            data, setup_times = timed_set_up(wl, seed, checks)
            span_patcher.restore()
        else:
            data, setup_times = timed_set_up(wl, seed, checks)
        if data is None:
            return _failed(wl, seed, checks, trace)
        shape = expected_shape(wl, data.corpus)

        rounds: list[tuple[bool, RoundResult, float]] = []  # (traced, result, wall seconds)
        # checkpoint scratch space inside the checkout, removed when the run ends
        with tempfile.TemporaryDirectory(prefix=".scratch-", dir=root) as scratch:
            t_start = perf_counter()
            deadline = t_start + seconds
            # the warm-up round is not timed; it also runs the costlier invariance checks
            warm = run_round(wl, seed, data, shape, outputs, checks, scratch)
            warm_wall = perf_counter() - t_start
            while warm.complete:
                traced = trace and len(rounds) % 2 == 1
                gc.collect()  # start every round from the same heap state
                t0 = perf_counter()
                if traced:
                    span_patcher = Patcher()
                    layers.instrument_round(span_patcher, tracer, counters, data.provider)
                    try:
                        res = run_round(wl, seed, data, shape, outputs, checks)
                    finally:
                        span_patcher.restore()
                else:
                    res = run_round(wl, seed, data, shape, outputs, checks)
                rounds.append((traced, res, perf_counter() - t0))
                if not res.complete:
                    break
                enough = (len(rounds) // 2 >= MIN_TRACE_ROUNDS) if trace else len(rounds) >= MIN_ROUNDS
                next_round = median([w for _t, _r, w in rounds])
                if enough and perf_counter() + next_round > deadline:
                    break
    finally:
        patcher.restore()

    measured = [r for t, r, _w in rounds if not t]
    all_rounds = [warm] + [r for _t, r, _w in rounds]
    checks.expect("rounds.deterministic",
                  len({(r.val_loss, r.test_auroc) for r in all_rounds}) == 1,
                  str([(r.val_loss, r.test_auroc) for r in all_rounds]))
    shape_rec = shape_record(wl, shape)
    detail = {
        "workload": wl.name,
        "why": {w["name"]: w["why"] for w in SPEC["workloads"]}[wl.name],
        "seed": seed,
        "trace": trace,
        "shape": shape_rec,
        "setup_times_s": setup_times,
        "warmup": _round_record(warm, warm_wall),
        "warmup_slowdown": warm_wall / median([w for _t, _r, w in rounds]) if rounds else None,
        "rounds": [dict(_round_record(r, w), traced=t) for t, r, w in rounds],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error_rate": checks.failed / checks.attempted,
        "failures": checks.failures,
        "test_auroc": median([r.test_auroc for r in measured]),
    }
    complete = bool(measured) and all(r.complete for _t, r, _w in rounds)
    if trace:
        traced_rounds = [r for t, r, _w in rounds if t]
        untraced_tps = throughput(measured)["pretrain_tokens_per_s"]
        traced_tps = throughput(traced_rounds)["pretrain_tokens_per_s"]
        values = layers.per_layer(setup_tracer, len(setup_times), tracer, counters,
                                  max(len(traced_rounds), 1), shape_rec,
                                  median([r.test_auroc for r in traced_rounds]),
                                  untraced_tps, traced_tps)
        detail["spans_by_stage"] = tracer.by_root()
        detail["span_edges"] = [[p, c, n] for (p, c), n in sorted(tracer.edges.items())]
        detail["layer_map"] = layers.PER_LAYER
    else:
        values = {
            "setup_s": median(setup_times),
            **throughput(measured),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pretrain_val_loss": median([r.val_loss for r in measured]),
        }
    metrics = {name: {"value": _finite(values[name]), "unit": unit}
               for name, unit in declared_units("per_layer" if trace else "end_to_end").items()}
    result = {
        "correct": complete and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return detail, result


def _round_record(r: RoundResult, wall: float) -> dict:
    return {
        "wall_s": wall,
        "pretrain_s": r.pretrain_s,
        "finetune_s": r.finetune_s,
        "evaluate_s": r.evaluate_s,
        "pretrain_tokens": r.pretrain_tokens,
        "finetune_samples": r.finetune_samples,
        "eval_windows": r.eval_windows,
        "pretrain_val_loss": r.val_loss,
        "test_auroc": r.test_auroc,
    }


def _failed(wl: Workload, seed: int, checks: Checks, trace: bool) -> tuple[dict, dict]:
    detail = {"workload": wl.name, "seed": seed, "trace": trace, "attempted": checks.attempted,
              "failed": checks.failed, "failures": checks.failures}
    metrics = {name: {"value": None, "unit": unit}
               for name, unit in declared_units("per_layer" if trace else "end_to_end").items()}
    return detail, {"correct": False, "attempted": checks.attempted, "failed": checks.failed,
                    "metrics": metrics}


def summary(detail: dict, result: dict) -> str:
    """Human-readable result: every metric, then each traced stage's wall time split by self time."""
    lines = [f"workload {detail['workload']} seed {detail['seed']}: "
             f"{result['failed']}/{result['attempted']} failed, correct={result['correct']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:40s} {m['value']!s:>22} {m['unit']}")
    for stage, self_times in detail.get("spans_by_stage", {}).items():
        top = sorted(self_times.items(), key=lambda kv: -kv[1])[:6]
        lines.append(f"  {stage}: {sum(self_times.values()):.3f} s traced = "
                     + ", ".join(f"{name} {sec:.3f}" for name, sec in top) + ", ...")
    return "\n".join(lines)
