"""Polyline paths in R^n.

All curve inputs to the library are sampled polylines.  A closed polyline
stores each vertex once; the closing edge back to the first vertex is
implicit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Polyline:
    """An ordered list of points in R^n (n = 2, 3 or 4)."""

    points: np.ndarray  # shape (m, n)
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("polyline needs at least 2 points")
        if pts.shape[1] not in (2, 3, 4):
            raise ValueError("polyline points must live in R^2, R^3 or R^4")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline points must be finite")
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(steps == 0.0):
            raise ValueError("consecutive polyline points must be distinct")
        if self.closed and np.array_equal(pts[0], pts[-1]):
            raise ValueError("closed polyline must not repeat its first point")
        object.__setattr__(self, "points", pts)

    def vertices(self) -> np.ndarray:
        """Vertices for traversal; appends the first point when closed."""
        if self.closed:
            return np.vstack([self.points, self.points[:1]])
        return self.points

    def refined(self, factor: int = 2) -> "Polyline":
        """Insert ``factor - 1`` evenly spaced points on every edge."""
        verts = self.vertices()
        a, b = verts[:-1, None], verts[1:, None]
        out = (a + (b - a) * (np.arange(factor) / factor)[:, None]) \
            .reshape(-1, verts.shape[1])
        if not self.closed:
            out = np.vstack([out, verts[-1:]])
        return Polyline(out, closed=self.closed)


def circle(center, radius: float, n: int = 64, plane=(0, 1)) -> Polyline:
    """A closed planar circle sampled with ``n`` vertices.

    ``plane`` names the two coordinate axes spanning the circle; remaining
    coordinates are taken from ``center``.
    """
    center = np.asarray(center, dtype=float)
    t = 2.0 * np.pi * np.arange(n) / n
    pts = np.tile(center, (n, 1))
    pts[:, plane[0]] += radius * np.cos(t)
    pts[:, plane[1]] += radius * np.sin(t)
    return Polyline(pts, closed=True)
