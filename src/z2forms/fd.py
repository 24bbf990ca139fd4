"""Finite-difference oracles: Laplacians, gradients, Jacobians, curls.

These are test instruments, deliberately independent of the closed-form
evaluation paths they check.  Every stencil takes points (..., dim): ``f``
is called once per stencil offset on all of them and answers with values
(...) or (..., components).
"""
from __future__ import annotations

import numpy as np


def _axis_terms(f, point, step: float, term):
    """``term(g)`` for each axis i in turn, where ``g(m)`` is f at
    point + m * step * e_i."""
    point = np.asarray(point, dtype=float)
    for e in step * np.eye(point.shape[-1]):
        yield term(lambda m, e=e: f(point + m * e))


def fd_laplacian(f, point, step: float) -> float:
    """Central second-difference Laplacian (5/7/9-point in 2/3/4 dims)."""
    center = f(np.asarray(point, dtype=float))
    return sum(_axis_terms(f, point, step,
                           lambda g: g(1) - 2.0 * center + g(-1))) / step**2


def fd_laplacian_order4(f, point, step: float) -> float:
    """Fourth-order five-point-per-axis Laplacian."""
    center = f(np.asarray(point, dtype=float))
    return sum(_axis_terms(
        f, point, step, lambda g: (-g(2) + 16 * g(1) - 30 * center
                                   + 16 * g(-1) - g(-2)) / 12.0)) / step**2


def fd_gradient_order4(f, point, step: float) -> np.ndarray:
    return np.stack(list(_axis_terms(
        f, point, step, lambda g: (-g(2) + 8 * g(1) - 8 * g(-1) + g(-2))
        / (12.0 * step))), axis=-1)


def fd_jacobian(fn, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a map: ``jac[..., i, j] = d_j fn_i``
    (``jac[..., j] = d_j fn`` for a scalar map)."""
    return np.stack(list(_axis_terms(
        fn, point, step, lambda g: (np.asarray(g(1)) - np.asarray(g(-1)))
        / (2.0 * step))), axis=-1)


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
