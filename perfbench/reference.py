"""Independent reference forward pass, written from the paper's formula.

For every window of ``2n + 1`` frames a conditional layer computes

    f(bias + sum_u x[u] @ (Z[u] * mask)),   u = -n .. n

with the band mask rebuilt here from its column-major linear indices
``a + (g - 1) * (l + bandwidth - overlap)``.  Windows are evaluated for
all segments of a clip at once with ``sliding_window_view`` and
``einsum``, so the summation order differs from the package's loop; the
two must still agree to well below 1e-9.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def band_mask(length: int, width: int, bandwidth: int, overlap: int) -> np.ndarray:
    stride = length + bandwidth - overlap
    flat = np.zeros(length * width)
    for start in range(0, length * width, stride):
        flat[start : start + bandwidth] = 1.0
    return flat.reshape(width, length).T


def _prelu(x: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, slopes * x)


def clip_probabilities(spec, params: dict, frames: np.ndarray, mean, std, q: int, hop: int):
    """Mean class probabilities over a clip's segments (PReLU models only)."""
    if spec.activation != "prelu":
        raise ValueError("the reference covers PReLU models only")
    x = (frames - mean) / std
    starts = range(0, x.shape[0] - q + 1, hop)
    block = np.stack([x[s : s + q] for s in starts])
    widths = [spec.feature_length] + [layer.width for layer in spec.layers]
    for i, layer in enumerate(spec.layers):
        weights = params[f"clnn{i}.weights"]
        if layer.bandwidth is not None:
            weights = weights * band_mask(widths[i], widths[i + 1], layer.bandwidth, layer.overlap)
        windows = sliding_window_view(block, 2 * layer.order + 1, axis=1)
        pre = np.einsum("stld,dle->ste", windows, weights, optimize=True) + params[f"clnn{i}.bias"]
        block = _prelu(pre, params[f"clnn{i}.slopes"])
    pooled = block.mean(axis=1)
    hidden = _prelu(pooled @ params["dense.weights"] + params["dense.bias"], params["dense.slopes"])
    logits = hidden @ params["output.weights"] + params["output.bias"]
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    return probs.mean(axis=0)
