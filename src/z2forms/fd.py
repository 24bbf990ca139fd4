"""Finite-difference oracles: Laplacians, gradients, Jacobians, curls.

These are test instruments, deliberately independent of the closed-form
evaluation paths they check.  A stencil is a table of offsets along each
axis and their weights (Fornberg, Math. Comp. 51, 1988).  It calls ``f``
once, on its points (offsets, dim, ..., dim) around points (..., dim); f
answers with values (offsets, dim, ...), plus any component axis.
"""
from __future__ import annotations

import numpy as np


def _axis_sums(f, point, step: float, offsets, weights) -> np.ndarray:
    """sum_m w_m f(point + m * step * e_i), axis i leading, from one call
    of f; the weights are applied left to right."""
    point = np.asarray(point, dtype=float)
    shifts = np.multiply.outer(offsets, step * np.eye(point.shape[-1]))
    values = np.asarray(f(point + np.expand_dims(
        shifts, tuple(range(2, point.ndim + 1)))))
    total = weights[0] * values[0]
    for w, v in zip(weights[1:], values[1:]):
        total = total + w * v
    return total


def fd_laplacian(f, point, step: float) -> float:
    """Central second-difference Laplacian (5/7/9-point in 2/3/4 dims)."""
    return sum(_axis_sums(f, point, step, (1, 0, -1), (1, -2, 1))) / step**2


def fd_laplacian_order4(f, point, step: float) -> float:
    """Fourth-order five-point-per-axis Laplacian."""
    return sum(_axis_sums(f, point, step, (2, 1, 0, -1, -2),
                          (-1, 16, -30, 16, -1)) / 12.0) / step**2


def fd_jacobian(fn, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a map: ``jac[..., i, j] = d_j fn_i``
    (``jac[..., j] = d_j fn`` for a scalar map)."""
    return np.moveaxis(_axis_sums(fn, point, step, (1, -1), (1, -1))
                       / (2.0 * step), 0, -1)


def fd_divergence(field, point, step: float) -> float:
    """Central-difference divergence of a covector/vector field."""
    return np.trace(fd_jacobian(field, point, step), axis1=-2, axis2=-1)


def fd_curl_components(field, point, step: float) -> np.ndarray:
    """All components (d_i f_j - d_j f_i), i < j, of the exterior derivative."""
    jac = fd_jacobian(field, point, step)
    i, j = np.triu_indices(jac.shape[-1], 1)
    return (np.swapaxes(jac, -1, -2) - jac)[..., i, j]


def rms(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean(values**2)))
