"""Alternating power iteration for the best rank-one fit of a masked tensor.

The solver cycles u, v, w updates; its fixed points satisfy the first-order
system  tm(:, v, w) = sigma u,  tm(u, :, w) = sigma v,  tm(u, v, :) = sigma w
with sigma = |tm(u, v, w)|. The update order is fixed as u, v, w: different
orders can reach different (sign-equivalent) critical points from the same
start. One sweep streams the tensor twice, for tm(:, :, w) and tm(u, :, :);
the residual check reuses those two contractions instead of making its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    DimensionMismatchError,
    SignalTriple,
    Tensor3,
    _contract,
    check_factors,
    contract_full,
    contract_one,
    hadamard,
)


class ConvergenceError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegeneratePointError(RuntimeError):
    """A start factor or a contraction is zero; no direction to normalize."""


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
    factors: tuple | None = None  # (u0, v0, w0) start; wins over reference
    reference: SignalTriple | None = None  # start when no factors; sign convention

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.factors is None and self.reference is None:
            raise ValueError("a start needs factors or a reference")


def _normalize(vec, what: str) -> tuple[np.ndarray, float]:
    n = np.linalg.norm(vec)
    if not n > 1e-300:
        raise DegeneratePointError(f"zero {what}")
    return vec / n, float(n)


def _residual_max(M3, M1, sigma, u, v, w):
    """Max-norm first-order defect from M3 = tm(:, :, w) and M1 = tm(u, :, :)."""
    r1 = np.max(np.abs(M3 @ v - sigma * u))
    r2 = np.max(np.abs(M3.T @ u - sigma * v))
    r3 = np.max(np.abs(M1.T @ v - sigma * w))
    return max(r1, r2, r3)


def _initial_factors(tm: Tensor3, cfg: SolverConfig):
    if cfg.factors is None:
        cfg.reference.check_shape(tm.shape)
        return cfg.reference.x, cfg.reference.y, cfg.reference.z
    return tuple(
        _normalize(f, f"start factor {name}")[0]
        for f, name in zip(check_factors(tm.shape, cfg.factors), "uvw")
    )


def solve_critical_point(tm: Tensor3, cfg: SolverConfig) -> CriticalPoint:
    """Run the cyclic power iteration on an (already masked) tensor.

    Starts from cfg.factors when they are given (normalized; random starts
    are drawn by the caller) and otherwise from the planted cfg.reference.
    A reference also fixes the sign convention <x, u> >= 0 of the result.

    Each sweep streams the tensor twice: tm(u, :, :), and tm(:, :, w) at the
    new w, which the residual check and the next sweep share; k sweeps make
    2k + 1 passes.

    Raises ConvergenceError if the residual is still above cfg.tol after
    cfg.max_iter sweeps and DegeneratePointError when a start factor or a
    contraction vanishes.
    """
    u, v, w = _initial_factors(tm, cfg)

    # Slack for the monotone-objective assertion grows with the number of
    # terms accumulated per contraction (floating-point summation noise).
    mono_slack = 1e-13 + 1e-15 * np.sqrt(tm.values.size)

    sigma_prev = -np.inf
    residual = np.inf
    M3 = contract_one(tm, 3, w)
    for it in range(1, cfg.max_iter + 1):
        u, _ = _normalize(M3 @ v, "contraction while updating u")
        v, _ = _normalize(M3.T @ u, "contraction while updating v")
        M1 = contract_one(tm, 1, u)
        w, sigma = _normalize(M1.T @ v, "contraction while updating w")
        M3 = contract_one(tm, 3, w)  # the residual's and the next sweep's

        if sigma < sigma_prev - mono_slack * max(1.0, sigma):
            raise ConvergenceError(
                f"objective decreased at iteration {it}: {sigma_prev} -> {sigma}"
            )
        near_fixed = abs(sigma - sigma_prev) <= 10.0 * cfg.tol * max(1.0, sigma)
        sigma_prev = sigma
        if near_fixed or it == cfg.max_iter or it % 200 == 0:
            residual = _residual_max(M3, M1, sigma, u, v, w)
            if residual <= cfg.tol:
                if cfg.reference is not None and float(cfg.reference.x @ u) < 0:
                    u, v = -u, -v  # flipping a pair preserves the fixed point
                return CriticalPoint(sigma, u, v, w, residual=residual, iterations=it)

    raise ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )


def _unit_columns(X: np.ndarray):
    """Scale the columns of X to unit norm in place.

    The floor is the smallest normal number of X's dtype (1e-300 underflows
    to 0 in float32), so a zero column stays zero instead of turning NaN.
    """
    X /= np.maximum(np.linalg.norm(X, axis=0), np.finfo(X.dtype).tiny)


def scan_restarts(tm: Tensor3, inits, sweeps: int):
    """Advance several initializations jointly for a fixed number of sweeps.

    Returns [(sigma, u, v, w), ...] sorted by descending sigma. The scan only
    ranks the restarts, so it runs in float32 on a private float32 copy of
    the tensor (ValueError if an entry overflows it): the starts are stacked
    as columns of n x R batches, and each sweep makes two batched
    contractions (modes 3 and 1) that stream the copy once each regardless
    of R; the per-restart products run as einsum over the trailing R axis.
    A lone start gets a zero column beside it (zero columns stay zero):
    numpy would multiply a one-column batch by gemv and reduce it along
    another axis, which rounds differently from the batch a restart shares
    with others. The returned factors are float64, renormalized, and sigma
    is tm(u, v, w) computed in float64 from them. The points are not
    converged: solve_critical_point polishes the best one. A restart whose
    contraction vanishes keeps zero factors and sigma 0.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    starts = [check_factors(tm.shape, s) for s in inits]
    R = len(starts)
    U, V, W = (np.stack(cols, axis=1) for cols in zip(*starts))
    if R == 1:
        U, V, W = (np.pad(cols, ((0, 0), (0, 1))) for cols in (U, V, W))
    for cols in (U, V, W):
        _unit_columns(cols)
    U, V, W = (cols.astype(np.float32) for cols in (U, V, W))
    with np.errstate(over="ignore"):
        A32 = tm.values.astype(np.float32)
    if not np.all(np.isfinite(A32)):
        raise ValueError(
            "tensor entries must be finite in float32: the float32 copy overflowed"
        )
    for _ in range(sweeps):
        T3 = _contract(A32, 3, W)
        U = np.einsum("ijr,jr->ir", T3, V)
        _unit_columns(U)
        V = np.einsum("ijr,ir->jr", T3, U)
        _unit_columns(V)
        W = np.einsum("jkr,jr->kr", _contract(A32, 1, U), V)
        _unit_columns(W)
    U, V, W = (cols[:, :R].astype(np.float64) for cols in (U, V, W))
    for cols in (U, V, W):
        _unit_columns(cols)
    sigma = np.einsum("ijr,ir,jr->r", contract_one(tm, 3, W), U, V)
    order = np.argsort(sigma)[::-1]
    return [(float(sigma[r]), U[:, r].copy(), V[:, r].copy(), W[:, r].copy())
            for r in order]


def first_order_residual(tm: Tensor3, cp: CriticalPoint) -> float:
    """Max-norm residual of the first-order conditions at (sigma, u, v, w)."""
    u, v, w = check_factors(tm.shape, (cp.u, cp.v, cp.w))
    M3, M1 = contract_one(tm, 3, w), contract_one(tm, 1, u)
    return float(_residual_max(M3, M1, cp.sigma, u, v, w))


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
    masked = contract_full(hadamard(t, m), cp.u, cp.v, cp.w)
    plain = contract_full(t, cp.u, cp.v, cp.w)
    return abs(masked - m.epsilon * plain)
