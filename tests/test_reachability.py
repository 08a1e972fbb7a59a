"""Every function and method written in ``icuseq`` is entered when the CLI runs, or the allowlist says why not.

``reach_cli.py`` runs every subcommand, with the flags that choose a code
path and two runs that fail, in a fresh interpreter under ``sys.setprofile``,
and reports the code objects of the package it entered. Every code object
compiled from ``src/icuseq``, nested functions, lambdas and comprehensions
included, must be among them. An allowlist entry exempts a function and
everything nested in it; an entry whose function is gone, or is entered
after all, fails the test too.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import icuseq
from icuseq.textvec import write_cache

HERE = Path(__file__).resolve().parent
PACKAGE = Path(icuseq.__file__).resolve().parent
PERFBENCH = "perfbench wraps it; goes with ROADMAP item 2"

# (file, qualified name) -> why no CLI run enters it
ALLOWED = {
    ("autodiff.py", "Tensor._parents"): PERFBENCH,
    ("autodiff.py", "softmax_masked"): PERFBENCH,
    ("training.py", "Model.clone"): PERFBENCH,
    ("masking.py", "MaskingPlan.n_feature_slots"): PERFBENCH,
    ("masking.py", "MaskingPlan.n_cat_slots"): PERFBENCH,
    ("masking.py", "MaskingPlan.n_cont_slots"): PERFBENCH,
    ("synth.py", "generate_lines"): PERFBENCH,
    ("autodiff.py", "_released"): "a marker that backward compares by identity; it is never called",
    ("textvec.py", "EmbeddingProvider.embed_text"): "the interface's abstract method; every provider overrides it",
    ("textvec.py", "write_cache"): "the cache format's only writer: the CLI reads caches, and this test "
                                   "writes its cache with it",
}


def defined() -> set[tuple[str, int, str]]:
    """(file, first line, qualified name) of every code object compiled from the package's sources."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            found.add((path.name, code.co_firstlineno, code.co_qualname))
            todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def allowed_by(entry: tuple[str, int, str]):
    """The allowlist key that exempts ``entry``, or None."""
    name, _, qualname = entry
    for file, allowed in ALLOWED:
        if file == name and (qualname == allowed or qualname.startswith(allowed + ".<locals>.")):
            return file, allowed
    return None


def test_every_function_is_entered_by_the_cli(tmp_path):
    write_cache(str(tmp_path / "cache.bin"), {"labevents: creatinine (serum)": np.ones(8, dtype=np.float32)})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(HERE / "reach_cli.py"), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads((tmp_path / "reach.json").read_text(encoding="utf-8"))
    assert [(label, code) for label, code, _ in report["runs"]] == \
        [(label, expected) for label, expected, _ in report["runs"]]

    entered = {tuple(e) for e in report["entered"]}
    everything = defined()
    assert entered <= everything
    never = everything - entered
    assert sorted(e for e in never if allowed_by(e) is None) == []
    assert len(ALLOWED) <= 14
    exempted = {allowed_by(e) for e in everything}
    assert sorted(set(ALLOWED) - exempted) == []  # an entry names no function
    assert sorted({allowed_by(e) for e in entered} - {None}) == []  # an entry's function runs after all
