"""The benchmark's traced run wraps icuseq names by attribute; each must still resolve.

``perfbench/layers.py`` lists the (owner, attribute) pairs it patches. A
rename or deletion in ``icuseq`` would first show as a failed traced
benchmark run; this test makes it fail here instead. The benchmark's files
are imported, never changed.
"""

import importlib
from pathlib import Path

import pytest

from icuseq import autodiff as ad

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("layers")


def test_every_span_target_resolves(layers):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in layers.SETUP_SPANS + layers.ROUND_SPANS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_every_traced_autodiff_op_resolves(layers):
    assert [op for op in layers.AUTODIFF_OPS if not callable(getattr(ad, op, None))] == []
