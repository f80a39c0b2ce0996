"""Binary band-pattern connectivity masks.

A mask is an ``l x e`` matrix of 0/1 entries that gates the weight matrix
between a feature vector of length ``l`` and a hidden layer of width ``e``.
The 1s form diagonal bands of ``bandwidth`` consecutive feature positions
per hidden column; successive columns share ``overlap`` positions
(negative overlap leaves gaps and phase-shifts the bands).

Band placement works on the flat, column-major linear index of the matrix
(feature dimension fastest): index ``lx = a + (g - 1) * (l + (bandwidth -
overlap))`` for every ``a`` in ``[0, bandwidth)`` and band count ``g >= 1``,
keeping ``lx < l * e``.  A band that spills past the last feature row
therefore continues at row 0 of the next column, which is what produces
the shifted band phases seen with negative overlap.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["MaskSpec", "BinaryMask", "generate_linear_indices", "generate_mask"]


@dataclass(frozen=True)
class MaskSpec:
    """Parameters of one band-pattern mask.

    Attributes:
        feature_length: length ``l`` of the input feature vector (rows).
        hidden_width: hidden-layer node count ``e`` (columns).
        bandwidth: consecutive 1s per band, ``1 <= bandwidth <= l``.
        overlap: 1-positions shared between successive columns; may be
            negative, must stay below ``bandwidth``.
    """

    feature_length: int
    hidden_width: int
    bandwidth: int
    overlap: int

    def __post_init__(self):
        if self.feature_length < 1:
            raise ValidationError(f"feature_length must be >= 1, got {self.feature_length}")
        if self.hidden_width < 1:
            raise ValidationError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if not 1 <= self.bandwidth <= self.feature_length:
            raise ValidationError(
                f"bandwidth must satisfy 1 <= bandwidth <= feature_length "
                f"({self.feature_length}), got {self.bandwidth}"
            )
        if self.overlap >= self.bandwidth:
            raise ValidationError(
                f"overlap must be < bandwidth ({self.bandwidth}), got {self.overlap}; "
                f"columns cannot share more positions than a band holds"
            )

    @property
    def stride(self) -> int:
        """Flat-index distance between successive band starts."""
        return self.feature_length + (self.bandwidth - self.overlap)


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """An ``l x e`` 0/1 matrix together with the :class:`MaskSpec` behind it.

    Instances are only constructed by :func:`generate_mask`; the entries
    are canonical for their parameters.
    """

    entries: np.ndarray
    spec: MaskSpec

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape  # type: ignore[return-value]

    def density(self) -> float:
        """Fraction of active connections."""
        return float(self.entries.sum() / self.entries.size)

    def one_positions(self) -> list[tuple[int, int]]:
        """Sorted (row, column) coordinates of every 1."""
        rows, cols = np.nonzero(self.entries)
        return sorted(zip(rows.tolist(), cols.tolist()))


def generate_linear_indices(spec: MaskSpec) -> list[int]:
    """Flat column-major indices of every 1 in the mask, sorted ascending.

    The band count upper bound ``ceil(l*e / stride)`` can overshoot the
    matrix, so indices >= ``l*e`` are discarded; duplicates (possible when
    the stride revisits a cell) are removed.
    """
    l, e = spec.feature_length, spec.hidden_width
    cells = l * e
    band_count = math.ceil(cells / spec.stride)
    offsets = np.arange(spec.bandwidth, dtype=np.int64)
    starts = np.arange(band_count, dtype=np.int64) * spec.stride
    lx = (starts[:, None] + offsets[None, :]).ravel()
    lx = np.unique(lx[lx < cells])
    return lx.tolist()


def generate_mask(spec: MaskSpec) -> BinaryMask:
    """Build the canonical mask for ``spec``.

    Linear index ``lx`` maps to row ``lx % l`` and column ``lx // l``
    (column-major: the feature dimension varies fastest).
    """
    l, e = spec.feature_length, spec.hidden_width
    flat = np.zeros(l * e, dtype=np.float64)
    flat[generate_linear_indices(spec)] = 1.0
    entries = flat.reshape((e, l)).T.copy()
    entries.setflags(write=False)
    return BinaryMask(entries=entries, spec=spec)

