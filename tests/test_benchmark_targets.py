"""The names the traced benchmark run replaces exist in the package.

``perfbench/spans.py`` wraps package functions by module attribute name,
so a rename in the package breaks a traced run without failing any other
test.  These tests read its target list and never modify it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import mclnn.model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_is_a_package_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"mclnn.{module}.{attribute}"
        for module, attribute, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"mclnn.{module}"), attribute, None))
    ]
    assert len(spans.TARGETS) > 0
    assert missing == []


def test_model_forward_tape_names_each_conditional_layer_by_keyword(monkeypatch, small_model):
    # the tracer names a block_forward span from kwargs["name"]
    names = []
    original = mclnn.model.block_forward

    def recording(*args, **kwargs):
        names.append(kwargs["name"])
        return original(*args, **kwargs)

    monkeypatch.setattr(mclnn.model, "block_forward", recording)
    mclnn.model.model_forward_tape(small_model, np.zeros((2, 11, 8)))
    assert names == ["clnn0", "clnn1"]


def test_model_forward_run_names_each_conditional_layer_by_keyword(monkeypatch, small_model):
    # shared layers run over the whole run, the rest batched; both are named
    names = []
    original = mclnn.model.block_forward

    def recording(*args, **kwargs):
        names.append(kwargs["name"])
        return original(*args, **kwargs)

    monkeypatch.setattr(mclnn.model, "block_forward", recording)
    for hop in (1, 6, 7):
        names.clear()
        mclnn.model.model_forward_run(small_model, np.zeros((11 + 3 * hop, 8)), np.arange(4) * hop)
        assert names == ["clnn0", "clnn1"]


def test_both_forwards_run_the_dense_layers_through_dense_forward(monkeypatch, small_model):
    # the traced layers.dense_forward span replaces mclnn.model.dense_forward
    names = []
    original = mclnn.model.dense_forward

    def recording(*args, **kwargs):
        names.append(kwargs["name"])
        return original(*args, **kwargs)

    monkeypatch.setattr(mclnn.model, "dense_forward", recording)
    mclnn.model.model_forward_tape(small_model, np.zeros((2, 11, 8)))
    assert names == ["dense", "output"]
    names.clear()
    mclnn.model.model_forward_run(small_model, np.zeros((17, 8)), np.arange(4) * 2)
    assert names == ["dense", "output"]
