"""Uniform lattices with trapezoid quadrature weights.

Shared by the grid-posterior machinery and the divergence oracles.  A grid
is a tensor product of equally spaced axes; quadrature weights are the
product composite-trapezoid weights, so integrating the constant 1 returns
the exact box volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model_core import shifted_exp_sum


@dataclass(frozen=True)
class GridSpec:
    """Tensor-product lattice: per-dimension bounds and point counts."""

    lo: tuple
    hi: tuple
    points: tuple

    @classmethod
    def make(cls, lo, hi, points) -> "GridSpec":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        pts = np.atleast_1d(np.asarray(points, dtype=int))
        if pts.size == 1 and lo.size > 1:
            pts = np.repeat(pts, lo.size)
        if not (lo.size == hi.size == pts.size):
            raise InvalidInputError("lo, hi, points must share a length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InvalidInputError(
                f"grid bounds must be finite, got lo={lo.tolist()}, "
                f"hi={hi.tolist()}")
        if np.any(hi <= lo):
            raise InvalidInputError("grid needs hi > lo in every dimension")
        if np.any(pts < 2):
            raise InvalidInputError("grid needs at least 2 points per dimension")
        return cls(tuple(lo), tuple(hi), tuple(int(p) for p in pts))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(l, h, p)
                for l, h, p in zip(self.lo, self.hi, self.points)]

    def lattice(self) -> np.ndarray:
        """(P, dim) array of all lattice points, first axis slowest."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def weights(self) -> np.ndarray:
        """(P,) product trapezoid weights aligned with :meth:`lattice`."""
        per_dim = []
        for l, h, p in zip(self.lo, self.hi, self.points):
            w = np.full(p, (h - l) / (p - 1))
            w[0] *= 0.5
            w[-1] *= 0.5
            per_dim.append(w)
        total = per_dim[0]
        for w in per_dim[1:]:
            total = np.multiply.outer(total, w)
        return total.ravel()

    def refined(self) -> "GridSpec":
        """Same box with 2p-1 points per dimension (halved spacing)."""
        return GridSpec(self.lo, self.hi,
                        tuple(2 * p - 1 for p in self.points))


def log_trapezoid(log_values: np.ndarray, weights: np.ndarray):
    """log of sum_i w_i exp(log_values_i) over the last axis, max-shifted.

    A float for a 1-D input, one value per row for an (n, P) input.  A row
    whose max is not finite gives -inf, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m, s = shifted_exp_sum(np.asarray(log_values, dtype=float),
                               weights=weights)
        out = np.where(np.isfinite(s), m + np.log(s), -np.inf)[..., 0]
    return float(out) if out.ndim == 0 else out
