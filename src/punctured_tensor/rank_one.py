"""Alternating power iteration for the best rank-one fit of a masked tensor.

The solver cycles u, v, w updates; its fixed points satisfy the first-order
system  tm(:, v, w) = sigma u,  tm(u, :, w) = sigma v,  tm(u, v, :) = sigma w
with sigma = |tm(u, v, w)|. The update order is fixed as u, v, w: different
orders can reach different (sign-equivalent) critical points from the same
start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import DimensionMismatchError, SignalTriple, Tensor3


class ConvergenceError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegeneratePointError(RuntimeError):
    """A zero vector was produced by a contraction; no direction to normalize."""


@dataclass(frozen=True)
class CriticalPoint:
    """A converged fixed point (sigma, u, v, w) with unit-norm factors."""

    sigma: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    residual: float = 0.0
    iterations: int = 0

    def stacked(self) -> np.ndarray:
        """The factors concatenated as a single vector of length N."""
        return np.concatenate([self.u, self.v, self.w])


@dataclass
class SolverConfig:
    tol: float = 1e-12
    max_iter: int = 10_000
    init: str = "planted"  # "planted" | "supplied"
    factors: tuple | None = None  # (u0, v0, w0) for init="supplied"
    reference: SignalTriple | None = None  # planted start / sign convention

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.init not in ("planted", "supplied"):
            raise ValueError(f"unknown init policy {self.init!r}")


def _normalize(vec, what: str) -> tuple[np.ndarray, float]:
    n = np.linalg.norm(vec)
    if not n > 1e-300:
        raise DegeneratePointError(f"zero contraction while updating {what}")
    return vec / n, float(n)


def _residual_max(A, A2, sigma, u, v, w):
    """Max-norm defect of the three first-order conditions."""
    M3 = A @ w
    r1 = np.max(np.abs(M3 @ v - sigma * u))
    r2 = np.max(np.abs(M3.T @ u - sigma * v))
    M1 = (u @ A2).reshape(A.shape[1], A.shape[2])
    r3 = np.max(np.abs(M1.T @ v - sigma * w))
    return max(r1, r2, r3)


def _initial_factors(tm: Tensor3, cfg: SolverConfig):
    n1, n2, n3 = tm.shape.dims
    if cfg.init == "planted":
        if cfg.reference is None:
            raise ValueError("planted init requires cfg.reference")
        cfg.reference.check_shape(tm.shape)
        return (cfg.reference.x.copy(), cfg.reference.y.copy(), cfg.reference.z.copy())
    if cfg.factors is None:
        raise ValueError("supplied init requires cfg.factors")
    u0, v0, w0 = cfg.factors
    u0, v0, w0 = (np.asarray(f, dtype=np.float64) for f in (u0, v0, w0))
    if u0.shape != (n1,) or v0.shape != (n2,) or w0.shape != (n3,):
        raise DimensionMismatchError("supplied factors do not match the shape")
    return tuple(f / np.linalg.norm(f) for f in (u0, v0, w0))


def solve_critical_point(tm: Tensor3, cfg: SolverConfig | None = None) -> CriticalPoint:
    """Run the cyclic power iteration on an (already masked) tensor.

    Starts from the planted signal (init="planted") or from caller-drawn
    factors (init="supplied"); random starts are drawn by the caller.

    Raises ConvergenceError if the residual is still above cfg.tol after
    cfg.max_iter sweeps and DegeneratePointError when a contraction vanishes.
    """
    cfg = cfg or SolverConfig()
    A = tm.values
    n1, n2, n3 = tm.shape.dims
    A2 = A.reshape(n1, n2 * n3)
    u, v, w = _initial_factors(tm, cfg)

    # Slack for the monotone-objective assertion grows with the number of
    # terms accumulated per contraction (floating-point summation noise).
    mono_slack = 1e-13 + 1e-15 * np.sqrt(A.size)

    sigma_prev = -np.inf
    residual = np.inf
    for it in range(1, cfg.max_iter + 1):
        M3 = A @ w
        u, _ = _normalize(M3 @ v, "u")
        v, _ = _normalize(M3.T @ u, "v")
        M1 = (u @ A2).reshape(n2, n3)
        w, sigma = _normalize(M1.T @ v, "w")

        if sigma < sigma_prev - mono_slack * max(1.0, sigma):
            raise ConvergenceError(
                f"objective decreased at iteration {it}: {sigma_prev} -> {sigma}"
            )
        near_fixed = abs(sigma - sigma_prev) <= 10.0 * cfg.tol * max(1.0, sigma)
        sigma_prev = sigma
        if near_fixed or it == cfg.max_iter or it % 200 == 0:
            residual = _residual_max(A, A2, sigma, u, v, w)
            if residual <= cfg.tol:
                if cfg.reference is not None and float(cfg.reference.x @ u) < 0:
                    u, v = -u, -v  # flipping a pair preserves the fixed point
                return CriticalPoint(sigma, u, v, w, residual=residual, iterations=it)

    raise ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )


def scan_restarts(tm: Tensor3, inits, sweeps: int):
    """Advance several initializations jointly for a fixed number of sweeps.

    Returns [(sigma, u, v, w), ...] sorted by descending sigma. The big
    contractions are batched into two matrix products per sweep, so the
    tensor is streamed through memory twice per sweep regardless of the
    number of restarts -- the per-restart cost is then small compared to a
    sequential scan. Intended for picking the best basin before a polishing
    run of solve_critical_point (the returned points are not converged).
    """
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    n1, n2, n3 = tm.shape.dims
    A = tm.values
    A3 = A.reshape(n1 * n2, n3)
    A1t = A.reshape(n1, n2 * n3).T
    U = np.stack([np.asarray(u, dtype=np.float64) for u, _, _ in inits], axis=1)
    V = np.stack([np.asarray(v, dtype=np.float64) for _, v, _ in inits], axis=1)
    W = np.stack([np.asarray(w, dtype=np.float64) for _, _, w in inits], axis=1)
    if U.shape[0] != n1 or V.shape[0] != n2 or W.shape[0] != n3:
        raise DimensionMismatchError("scan inits do not match the tensor shape")
    R = U.shape[1]
    for cols in (U, V, W):
        cols /= np.linalg.norm(cols, axis=0)
    sigma = np.zeros(R)
    for _ in range(sweeps):
        T3 = (A3 @ W).reshape(n1, n2, R)
        for r in range(R):
            U[:, r] = T3[:, :, r] @ V[:, r]
        U /= np.maximum(np.linalg.norm(U, axis=0), 1e-300)
        for r in range(R):
            V[:, r] = T3[:, :, r].T @ U[:, r]
        V /= np.maximum(np.linalg.norm(V, axis=0), 1e-300)
        T1 = (A1t @ U).reshape(n2, n3, R)
        for r in range(R):
            W[:, r] = T1[:, :, r].T @ V[:, r]
        sigma = np.linalg.norm(W, axis=0)
        W /= np.maximum(sigma, 1e-300)
    order = np.argsort(sigma)[::-1]
    return [(float(sigma[r]), U[:, r].copy(), V[:, r].copy(), W[:, r].copy())
            for r in order]


def first_order_residual(tm: Tensor3, cp: CriticalPoint) -> float:
    """Max-norm residual of the first-order conditions at (sigma, u, v, w)."""
    n1, n2, n3 = tm.shape.dims
    if cp.u.shape != (n1,) or cp.v.shape != (n2,) or cp.w.shape != (n3,):
        raise DimensionMismatchError("critical point does not match the tensor shape")
    A2 = tm.values.reshape(n1, n2 * n3)
    return float(_residual_max(tm.values, A2, cp.sigma, cp.u, cp.v, cp.w))


def alignments(cp: CriticalPoint, signal: SignalTriple) -> tuple[float, float, float]:
    """Absolute overlaps (|<x,u>|, |<y,v>|, |<z,w>|)."""
    if (
        signal.x.shape != cp.u.shape
        or signal.y.shape != cp.v.shape
        or signal.z.shape != cp.w.shape
    ):
        raise DimensionMismatchError("signal does not match the critical point")
    return (
        abs(float(signal.x @ cp.u)),
        abs(float(signal.y @ cp.v)),
        abs(float(signal.z @ cp.w)),
    )


def heuristic1_diagnostic(t: Tensor3, m, cp: CriticalPoint) -> float:
    """Empirical gap |(t.m)(u,v,w) - eps * t(u,v,w)|.

    Under the asymptotic mask-independence heuristic the gap vanishes as the
    dimensions grow; this is a testable diagnostic, not a proved fact.
    """
    from .tensor_core import contract_full, hadamard

    masked = contract_full(hadamard(t, m), cp.u, cp.v, cp.w)
    plain = contract_full(t, cp.u, cp.v, cp.w)
    return abs(masked - m.epsilon * plain)
