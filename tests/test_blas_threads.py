"""Results do not depend on the number of BLAS threads.

One pre-training epoch runs in two fresh interpreters, with
``OPENBLAS_NUM_THREADS`` 1 and 2. Its loss rows and parameters must hash
the same. At hidden 256 every batch's (512, 256) @ (256, 256) products are
past OpenBLAS's size threshold for splitting a GEMM across threads, so the
second run really multiplies on two threads where the machine has two
cores; the test checks that it started the second thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import icuseq

SRC = Path(icuseq.__file__).resolve().parents[1]

EPOCH = """
import dataclasses, hashlib, json, os
from icuseq.encoder import EncoderConfig
from icuseq.ingest import assign_splits, build_vocabularies, parse_event_lines
from icuseq.synth import GeneratorSpec, generate_lines
from icuseq.textvec import StubProvider
from icuseq.training import ModelConfig, TrainConfig, pretrain

spec = GeneratorSpec(patients=16, features=10, rate=0.01, stay_hours=24.0)
corpus = assign_splits(parse_event_lines(generate_lines(spec, seed=4)), (0.5, 0.25, 0.25), seed=0)
vocab = build_vocabularies(corpus)
config = ModelConfig(EncoderConfig(layers=1, hidden=256, heads=4, ffn_dim=64, max_seq_len=64), d_pre=32,
                     window_minutes=1440, feature_vocab=vocab.feature_size, value_vocab=vocab.value_size)
result = pretrain(corpus, vocab, StubProvider(32, 0), config, TrainConfig(epochs=1, batch_size=8, lr=1e-3))
digest = hashlib.sha256(repr([dataclasses.astuple(r) for r in result.rows]).encode())
for name, tensor in sorted(result.model.parameters().items()):
    digest.update(name.encode() + tensor.data.tobytes())
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"sha256": digest.hexdigest(), "rows": len(result.rows), "threads": threads}))
"""


def test_one_epoch_is_the_same_on_one_and_two_blas_threads():
    runs = {}
    for n in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(n),
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        runs[n] = subprocess.Popen([sys.executable, "-c", EPOCH], env=env, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
    out = {}
    for n, proc in runs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr[-4000:]
        out[n] = json.loads(stdout)
    assert out[1]["rows"] == 2  # a train row and a val row
    assert out[1]["sha256"] == out[2]["sha256"]
    if out[1]["threads"] is not None and len(os.sched_getaffinity(0)) >= 2:
        assert out[2]["threads"] > out[1]["threads"]
