"""Finite-difference oracles: Laplacians, gradients, Jacobians, curls.

These are test instruments, deliberately independent of the closed-form
evaluation paths they check.
"""
from __future__ import annotations

import numpy as np


def fd_laplacian(f, point, step: float) -> float:
    """Central second-difference Laplacian (5/7/9-point in 2/3/4 dims).

    ``point`` may hold many points (N, dim): then ``f`` is called once per
    stencil offset on all of them and must answer with (N,) or
    (N, components) values.
    """
    point = np.asarray(point, dtype=float)
    n = point.shape[-1]
    center = f(point)
    total = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        total += f(point + e) - 2.0 * center + f(point - e)
    return total / step**2


def fd_gradient(f, point, step: float) -> np.ndarray:
    """Central first differences, O(step^2)."""
    return fd_jacobian(f, point, step)[0]


def fd_laplacian_order4(f, point, step: float) -> float:
    """Fourth-order five-point-per-axis Laplacian."""
    point = np.asarray(point, dtype=float)
    n = point.size
    center = f(point)
    total = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        total += (-f(point + 2 * e) + 16 * f(point + e) - 30 * center
                  + 16 * f(point - e) - f(point - 2 * e)) / 12.0
    return total / step**2


def fd_gradient_order4(f, point, step: float) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    n = point.size
    out = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        out[i] = (-f(point + 2 * e) + 8 * f(point + e)
                  - 8 * f(point - e) + f(point - 2 * e)) / (12.0 * step)
    return out


def fd_jacobian(fn, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector map: ``jac[i, j] = d_j fn_i``
    (one row for a scalar map)."""
    point = np.asarray(point, dtype=float)
    cols = []
    for i in range(point.size):
        e = np.zeros(point.size)
        e[i] = step
        cols.append((np.asarray(fn(point + e)) - np.asarray(fn(point - e)))
                    / (2.0 * step))
    return np.column_stack(cols)


def fd_divergence(field, point, step: float) -> float:
    """Central-difference divergence of a covector/vector field."""
    return np.trace(fd_jacobian(field, point, step))


def fd_curl_components(field, point, step: float) -> np.ndarray:
    """All components (d_i f_j - d_j f_i), i < j, of the exterior derivative."""
    jac = fd_jacobian(field, point, step)
    return (jac.T - jac)[np.triu_indices(len(jac), 1)]


def rms(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean(values**2)))
