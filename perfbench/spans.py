"""In-memory spans around the package's public functions.

The package imports functions by name, so a span has to replace the name
in the module that calls it: ``mclnn.model.block_forward`` is what
``model_forward_tape`` calls, ``mclnn.training.backward`` is what ``train``
calls, and so on.  :data:`TARGETS` lists every (module, attribute) pair
the traced run replaces; :meth:`Tracer.uninstall` puts the originals back.

Spans are stored as parallel lists and written out only when the run ends.
Work is single-threaded, so spans nest strictly and a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
from collections import defaultdict

# (module, attribute, span name).  A span name is "<module>.<function>".
TARGETS = [
    ("model", "generate_mask", "mask.generate_mask"),
    ("layers", "effective_weights", "layers.effective_weights"),
    ("model", "block_forward", "layers.block_forward"),
    ("model", "global_mean_pool", "layers.global_mean_pool"),
    ("model", "dense_forward", "layers.dense_forward"),
    ("model", "softmax", "layers.softmax"),
    ("training", "backward", "layers.backward"),
    ("model", "model_forward_tape", "model.model_forward_tape"),
    ("training", "model_forward_tape", "model.model_forward_tape"),
    ("model", "build_model", "model.build_model"),
    ("model", "load_model", "model.load_model"),
    ("model", "save_model", "model.save_model"),
    ("training", "train", "training.train"),
    ("training", "cross_entropy", "training.cross_entropy"),
    ("training", "cross_entropy_grad", "training.cross_entropy_grad"),
    ("training", "evaluate", "training.evaluate"),
    ("training", "predict_clip", "training.predict_clip"),
    ("features", "load_audio", "features.load_audio"),
    ("features", "extract_features", "features.extract_features"),
    ("features", "resample", "features.resample"),
    ("features", "stft_power", "features.stft_power"),
    ("features", "mel_filterbank", "features.mel_filterbank"),
    ("features", "log_mel", "features.log_mel"),
    ("features", "fit_zscore", "features.fit_zscore"),
    ("features", "apply_zscore", "features.apply_zscore"),
    ("features", "load_features", "features.load_features"),
    ("features", "save_features", "features.save_features"),
    ("dataset", "segment_clip", "dataset.segment_clip"),
    ("container", "read", "container.read"),
    ("container", "write", "container.write"),
]

# Spans whose name gets the layer's record name appended ("clnn0", ...).
_NAMED_BY_KWARG = {"layers.block_forward": "name"}
# Container spans also count the bytes of the file they read or wrote.
_BYTE_COUNTED = {"container.read", "container.write"}


class Tracer:
    """Records spans for the functions it is installed on.

    ``clock`` returns the time in ns.  ``request`` is the id shared by
    every span that starts while it is set; the workload driver sets it
    per request, per training run or to ``"setup"``.  ``phase`` separates set-up spans from timed ones.
    During ``training.train`` the id gains an ``.epoch<k>`` suffix: each
    epoch makes ``epoch_forwards`` forward passes (one per training and
    validation segment), so the epoch follows from the forward count.
    When a ``train`` call ends with another count than ``train_forwards``,
    that assumption did not hold (a batched forward, say): the suffix is
    taken off that call's spans and the call is counted in
    ``epochs_unknown``.  Sums per span name do not depend on it.
    """

    def __init__(self, clock):
        self.clock = clock
        self.request = "setup"
        self.phase = "setup"
        self.epoch_forwards: int | None = None
        self.train_forwards: int | None = None
        self.epochs_unknown = 0
        self.names: list[str] = []
        self.requests: list[str] = []
        self.phases: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.bytes: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._forwards_in_train = 0
        self._train_depth = 0
        self._train_start = 0
        self._epoch_suffix = ""

    # -- installation ---------------------------------------------------

    def install(self, modules: dict, only: set[str] | None = None) -> None:
        """Replace every target (or only the span names in ``only``)."""
        for module_key, attr, name in TARGETS:
            if only is not None and name not in only:
                continue
            module = modules[module_key]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, original, name):
        kwarg = _NAMED_BY_KWARG.get(name)
        counted = name in _BYTE_COUNTED

        def wrapper(*args, **kwargs):
            span_name = f"{name}.{kwargs[kwarg]}" if kwarg else name
            index = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if counted:
                self.bytes[self.phase][name] += os.path.getsize(args[0])
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _open(self, name: str) -> int:
        if name == "training.train":
            self._train_depth += 1
            self._forwards_in_train = 0
            self._train_start = len(self.names)
        elif name == "model.model_forward_tape" and self._train_depth and self.epoch_forwards:
            epoch = self._forwards_in_train // self.epoch_forwards + 1
            self._forwards_in_train += 1
            self._epoch_suffix = f".epoch{epoch}"
        index = len(self.names)
        self.names.append(name)
        self.requests.append(self.request + self._epoch_suffix)
        self.phases.append(self.phase)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()
        if self.names[index] == "training.train":
            self._train_depth -= 1
            self._epoch_suffix = ""
            if self.epoch_forwards and self._forwards_in_train != self.train_forwards:
                for i in range(self._train_start, len(self.names)):
                    self.requests[i] = self.requests[i].split(".epoch", 1)[0]
                self.epochs_unknown += 1

    # -- results ----------------------------------------------------------

    def durations_ms(self, name: str, phase: str, request: str) -> list[float]:
        """Inclusive durations of the spans called ``name`` in ``phase`` and ``request``."""
        return [
            (self.ends[i] - self.starts[i]) / 1e6
            for i, n in enumerate(self.names)
            if n == name and self.phases[i] == phase and self.requests[i] == request
        ]

    def aggregate(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for i, name in enumerate(self.names):
            if self.phases[i] != phase:
                continue
            duration = self.ends[i] - self.starts[i]
            entry = totals[name]
            entry["calls"] += 1
            entry["ms"] += duration / 1e6
            entry["self_ms"] += (duration - child_ns[i]) / 1e6
        return totals

    def write(self, path) -> None:
        """One tab-separated line per span, in start order."""
        with open(path, "w") as handle:
            handle.write("index\tparent\trequest\tphase\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                handle.write(
                    f"{i}\t{self.parents[i]}\t{self.requests[i]}\t{self.phases[i]}\t"
                    f"{name}\t{self.starts[i]}\t{self.ends[i]}\n"
                )
