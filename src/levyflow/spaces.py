"""Finite spectral state space: coefficient vectors, norms, path segments.

States are coefficient vectors in an orthonormal eigenbasis of a positive
self-adjoint operator, so the H norm is plain Euclidean, the V norm weights
mode k by sqrt(lambda_k), and the dual norm divides by it.  Time-gridded
paths carry a running left-Riemann sum of the squared V norm (the pathwise
dissipation budget).  That sum is always accumulated with the single
reduction in :func:`v_norm_sq_rows`, left to right, so the discrete
recurrence ``xi_sq[k+1] == xi_sq[k] + dt * v_norm_sq_rows(states[k])``
holds bit-exactly and budget triggers behave identically everywhere.
Every V norm is that reduction too, and every H norm the one in
:func:`h_norm_rows`, so level tests, cutoff factors, certificate ratios and
the trajectory CSV's norm columns read the same bits.  Every certificate
ratio divides through :func:`ratio`, so a zero bound or a NaN means the same
to each.
"""

from __future__ import annotations

import os
import threading
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


def h_norm_rows(states: np.ndarray) -> np.ndarray:
    """H norm of each row of (..., dim) states; the canonical reduction."""
    states = np.asarray(states, dtype=float)
    return np.sqrt(np.vecdot(states, states))


def h_norm(v: GalerkinVector) -> float:
    """Euclidean norm of the coefficient vector (the H norm)."""
    return float(h_norm_rows(v))


def v_norm(v: GalerkinVector, basis: SpectralBasis) -> float:
    """Energy norm sqrt(sum lambda_k v_k^2)."""
    return float(np.sqrt(v_norm_sq_rows(_check_dim(v, basis), basis)))


def dual_norm(f: GalerkinVector, basis: SpectralBasis) -> float:
    """Dual norm sqrt(sum f_k^2 / lambda_k)."""
    f = _check_dim(f, basis)
    return float(np.sqrt(np.dot(f * f, 1.0 / basis.eigenvalues)))


def v_norm_sq_rows(states: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Squared V norm of each row; the canonical reduction for xi sums."""
    states = np.asarray(states, dtype=float)
    return (states * states) @ basis.eigenvalues


def ratio(num, den) -> np.ndarray:
    """num / den elementwise, the one division of every certificate ratio:
    0/0 is 0, x/0 is inf for any other x, and a NaN in either stays NaN."""
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0, np.where(num == 0, 0.0, np.abs(num) * np.inf), num / den)


# what a BLAS reads for its thread count, the first set to a number counting
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS")


def blas_leaves_a_core() -> bool:
    """Whether the thread variables pin BLAS below the cores this process may
    run on, so that a helper thread has a core of its own.

    A BLAS left at its default runs one thread per core, and OpenBLAS's idle
    threads spin between products, so a helper thread beside them stalls
    the products that wait on them.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit():
            return 0 < int(value) < cores
    return False


def prefetched(draw, keys):
    """Yield ``draw(key)`` for each key in order, drawing the next key's value
    on one helper thread while the caller works on the current one.

    The draws run one at a time and in key order, the first on the caller's
    thread, so a shared random generator gives what a serial loop gives and
    a single key starts no thread.  A numpy bulk draw releases the GIL, so
    the helper overlaps the caller's work; no draw runs BLAS.  Only the
    drawing moves: whatever the caller does with a value (scoring on a
    layout's buffers, under its ``np.errstate``) stays on its thread.  A
    draw's exception reaches the caller as raised, and the helper is joined
    before the generator finishes or is closed, so no thread outlives it.
    Iterate it in a ``for`` statement and keep no other reference, so that
    an exception that leaves the loop closes it at once; drop each value
    before asking for the next, so that at most two are held.
    """
    helper, out, drawn = None, {}, False

    def run(key):
        try:
            out["value"] = draw(key)
        except BaseException as exc:  # re-raised on the caller's thread
            out["error"] = exc

    try:
        for key in keys:
            if not drawn:
                value, drawn = draw(key), True
                continue
            helper = threading.Thread(target=run, args=(key,), name="levyflow-draw")
            helper.start()
            yield value
            helper.join()
            if "error" in out:
                raise out.pop("error")
            value = out.pop("value")
        if drawn:
            yield value
    finally:
        if helper is not None:
            helper.join()


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
