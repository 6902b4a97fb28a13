"""Finite spectral state space: coefficient vectors, norms, path segments.

States are coefficient vectors in an orthonormal eigenbasis of a positive
self-adjoint operator, so the H norm is plain Euclidean, the V norm weights
mode k by sqrt(lambda_k), and the dual norm divides by it.  Time-gridded
paths carry a running left-Riemann sum of the squared V norm (the pathwise
dissipation budget).  That sum is always accumulated with the single
reduction in :func:`v_norm_sq_rows`, left to right, so the discrete
recurrence ``xi_sq[k+1] == xi_sq[k] + dt * v_norm_sq_rows(states[k])``
holds bit-exactly and budget triggers behave identically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A state is just a 1-D float64 coefficient vector.
GalerkinVector = np.ndarray


class NonFiniteStateError(RuntimeError):
    """A state picked up a NaN or Inf entry."""


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenvalues of the linear operator, nondecreasing and positive."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("basis needs at least one eigenvalue")
        if not np.all(np.isfinite(lam)) or not np.all(lam > 0.0):
            raise ValueError("eigenvalues must be finite and strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be nondecreasing")
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


def _check_dim(v: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (basis.dim,):
        raise ValueError(f"vector has shape {v.shape}, basis dim is {basis.dim}")
    return v


def h_norm(v: GalerkinVector) -> float:
    """Euclidean norm of the coefficient vector (the H norm)."""
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


def v_norm(v: GalerkinVector, basis: SpectralBasis) -> float:
    """Energy norm sqrt(sum lambda_k v_k^2)."""
    v = _check_dim(v, basis)
    return float(np.sqrt(np.dot(basis.eigenvalues, v * v)))


def dual_norm(f: GalerkinVector, basis: SpectralBasis) -> float:
    """Dual norm sqrt(sum f_k^2 / lambda_k)."""
    f = _check_dim(f, basis)
    return float(np.sqrt(np.dot(f * f, 1.0 / basis.eigenvalues)))


def v_norm_sq_rows(states: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Squared V norm of each row; the canonical reduction for xi sums."""
    states = np.asarray(states, dtype=float)
    return (states * states) @ basis.eigenvalues


@dataclass(frozen=True)
class PathSegment:
    """States on a uniform time grid plus the running dissipation sum.

    ``xi_sq[k]`` is the left-Riemann sum of the squared V norm over
    [t0, t0 + k dt].
    """

    basis: SpectralBasis
    t0: float
    dt: float
    states: np.ndarray   # (n_steps + 1, dim)
    xi_sq: np.ndarray    # (n_steps + 1,)

    def __post_init__(self):
        self.states.setflags(write=False)
        self.xi_sq.setflags(write=False)

    @classmethod
    def from_states(cls, basis: SpectralBasis, t0: float, dt: float,
                    states: np.ndarray) -> "PathSegment":
        states = np.ascontiguousarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] != basis.dim:
            raise ValueError("states must be (n_steps+1, basis.dim)")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if not np.all(np.isfinite(states)):
            bad = int(np.flatnonzero(~np.isfinite(states).all(axis=1))[0])
            raise NonFiniteStateError(f"non-finite state at grid index {bad}")
        inc = dt * v_norm_sq_rows(states[:-1], basis)
        # cumsum of [0, inc...] accumulates left to right, reproducing the
        # recurrence xi[k+1] = xi[k] + inc[k] exactly
        xi = np.cumsum(np.concatenate([[0.0], inc]))
        return cls(basis, float(t0), float(dt), states, xi)

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def grid(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.states.shape[0])


def zero_path(basis: SpectralBasis, t0: float, dt: float, n_steps: int) -> PathSegment:
    """Identically-zero path, the starting iterate of the fixed-point loop."""
    return PathSegment.from_states(basis, t0, dt, np.zeros((n_steps + 1, basis.dim)))
