"""Best rank-one fit of a masked tensor: one power sweep, then a certified
shifted Newton finish.

The fit's critical points satisfy the first-order system
tm(:, v, w) = sigma u,  tm(u, :, w) = sigma v,  tm(u, v, :) = sigma w
with sigma = |tm(u, v, w)|. The sweep updates u, v, w in that fixed order
(different orders can reach different sign-equivalent critical points from
the same start); it normalizes the start and makes sigma > 0. Power sweeps
alone converge linearly, at about lambda_bulk / sigma per sweep, which
crawls below the recovery threshold, so every solve finishes by shifted
Newton steps: Phi(u, v, w) is the Jacobian of the first-order map, so a
step solves (Phi - (sigma + mu) I) delta = -r and renormalizes each block.
The shift mu keeps Phi - (sigma + mu) I negative definite on the tangent
space of the three spheres, so steps climb from far out, and a step is
judged by its gain in sigma alone, as in a trust-region ascent (Absil,
Baker & Gallivan 2007; More & Sorensen 1983). A point is returned only once
certified a local maximum: Phi < sigma on that tangent space (Lim 2005).
The step and the certificate are phi_spectrum's elimination of Phi's
largest zero diagonal block (a dense solve of size N - n_L, n_L the largest
mode), applied to the finish's own contractions without a PhiMatrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phi_spectrum import _certified, _elimination, _shifted_solve
from .tensor_core import (
    DimensionMismatchError,
    SignalTriple,
    Tensor3,
    _all_finite,
    check_factors,
    contract_one,
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
    iterations: int = 0  # power sweeps: 1 from solve_critical_point
    newton_steps: int = 0  # shifted Newton steps taken, kept or not

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
    n = math.sqrt(vec @ vec)
    if not n > 1e-300:
        raise DegeneratePointError(f"zero {what}")
    return vec / n, n


def _defect(M3, M1, sigma, u, v, w):
    """The first-order defect r = Phi x / 2 - sigma x at x = [u; v; w], from
    M3 = tm(:, :, w) and M1 = tm(u, :, :); its max-norm is the residual."""
    return np.concatenate(
        [M3 @ v - sigma * u, M3.T @ u - sigma * v, M1.T @ v - sigma * w])


def _initial_factors(tm: Tensor3, cfg: SolverConfig):
    if cfg.factors is None:
        cfg.reference.check_shape(tm.shape)
        return cfg.reference.x, cfg.reference.y, cfg.reference.z
    return tuple(
        _normalize(f, f"start factor {name}")[0]
        for f, name in zip(check_factors(tm.shape, cfg.factors), "uvw")
    )


def _newton_finish(tm, point, tol, passes, mono_slack):
    """Shifted Newton steps from point, a power-sweep state
    (sigma, u, v, w, M3, M1, r) with r = _defect(M3, M1, sigma, u, v, w),
    within a budget of tensor passes.

    A step at s = sigma + mu solves (Phi - s I) delta = -r by the shared
    elimination of Phi's largest zero block, taken once per kept point from
    its blocks (M3, tm(:, v, :), M1), and renormalizes each block of
    x + delta; it needs the certificate to admit s. A refused shift or a
    rejected step sets mu to max(4 mu, 1e-3 sigma). A step is kept if sigma
    does not decrease (within mono_slack), whatever the residual does (far
    from a critical point a climbing step may raise it); mu then falls to
    mu / 4, or to 0 below 1e-6 sigma. A kept point with max-norm residual at
    most tol is returned once certified (s = sigma). A step makes two passes
    and a kept point, as the start, one more, for its Phi; a step is taken
    only with room for Phi at its point. Returns (point, steps taken); point
    is None if the passes run out.
    """
    if passes < 1:
        return None, 0  # no pass for Phi, which the certificate needs
    sigma, u, v, w, M3, M1, r = point
    i, j = tm.shape.n1, tm.shape.n1 + tm.shape.n2
    x = np.concatenate([u, v, w])
    elim, used, steps, mu = _elimination(M3, contract_one(tm, 2, v), M1), 1, 0, 0.0
    while True:
        if np.max(np.abs(r)) <= tol:
            if _certified(elim, sigma, sigma, x):
                return (sigma, u, v, w, M3, M1, r), steps
            mu = mu or 1e-3 * sigma  # the certificate refused mu = 0
        if used + 3 > passes:
            return None, steps  # no room for a step and Phi at its point
        if _certified(elim, sigma, sigma + mu, x):
            step = x + _shifted_solve(elim, sigma + mu, -r)
            u1, v1, w1 = (_normalize(f, "Newton step")[0]
                          for f in (step[:i], step[i:j], step[j:]))
            M3n, M1n = contract_one(tm, 3, w1), contract_one(tm, 1, u1)
            sigma1 = float(v1 @ (M1n @ w1))
            r1 = _defect(M3n, M1n, sigma1, u1, v1, w1)
            steps, used = steps + 1, used + 2
            if sigma1 >= sigma - mono_slack * max(1.0, sigma):
                sigma, u, v, w, M3, M1, r = sigma1, u1, v1, w1, M3n, M1n, r1
                x = np.concatenate([u, v, w])
                elim, used = _elimination(M3, contract_one(tm, 2, v), M1), used + 1
                mu = mu / 4.0 if mu >= 4e-6 * sigma else 0.0
                continue
        mu = max(4.0 * mu, 1e-3 * sigma)  # a refused shift or a rejected step


def solve_critical_point(tm: Tensor3, cfg: SolverConfig) -> CriticalPoint:
    """One power sweep on an (already masked) tensor, then the shifted
    Newton finish, which returns only a certified local maximum.

    Starts from cfg.factors when they are given (normalized; random starts
    are drawn by the caller) and otherwise from the planted cfg.reference.
    A reference also fixes the sign convention <x, u> >= 0 of the result.

    The sweep streams the tensor three times: tm(:, :, w), tm(u, :, :) and
    tm(:, :, w) at the new w, which the residual and the finish share. A
    point within cfg.tol there is returned once certified, without a step.
    A solve makes at most 2 cfg.max_iter + 1 passes, as many as cfg.max_iter
    power sweeps; s steps, k of them kept, make 2s + k + 1 of them after the
    sweep's 3. iterations is 1 and newton_steps counts the steps, kept or not.

    Raises ConvergenceError if no certified point within cfg.tol is found in
    that budget (the residual is the sweep's) and DegeneratePointError when
    a start factor, a contraction or a Newton step's block vanishes.
    """
    u, v, w = _initial_factors(tm, cfg)

    # Slack for the finish's monotone-objective test grows with the number
    # of terms accumulated per contraction (floating-point summation noise).
    mono_slack = 1e-13 + 1e-15 * np.sqrt(tm.values.size)

    M3 = contract_one(tm, 3, w)
    u, _ = _normalize(M3 @ v, "contraction while updating u")
    v, _ = _normalize(M3.T @ u, "contraction while updating v")
    M1 = contract_one(tm, 1, u)
    w, sigma = _normalize(M1.T @ v, "contraction while updating w")
    M3 = contract_one(tm, 3, w)
    r = _defect(M3, M1, sigma, u, v, w)
    point, newton_steps = _newton_finish(
        tm, (sigma, u, v, w, M3, M1, r), cfg.tol, 2 * (cfg.max_iter - 1), mono_slack)
    if point is None:
        residual = float(np.max(np.abs(r)))
        raise ConvergenceError(
            f"no certified point within {2 * cfg.max_iter + 1} tensor passes "
            f"(max_iter {cfg.max_iter}; residual {residual:.3e})",
            residual=residual,
        )
    sigma, u, v, w, _, _, r = point
    if cfg.reference is not None and float(cfg.reference.x @ u) < 0:
        u, v = -u, -v  # flipping a pair preserves the fixed point
    return CriticalPoint(sigma, u, v, w, residual=float(np.max(np.abs(r))),
                         iterations=1, newton_steps=newton_steps)


def _unit_columns(X: np.ndarray):
    """Scale the columns of X to unit norm in place.

    The floor is the smallest normal number of X's dtype (1e-300 underflows
    to 0 in float32), so a zero column stays zero instead of turning NaN.
    """
    X /= np.maximum(np.linalg.norm(X, axis=0), np.finfo(X.dtype).tiny)


def _scan_sweep(A32, U, V, W):
    """One float32 sweep of the scan on the rows (R, n) of U, V and W: T3 =
    tm(:, :, w), batched over the mode-1 slabs as (n1, R, n2), gives u and v
    restart by restart; w = tm(u, v, :) is one Khatri-Rao (MTTKRP) product
    batched over the slabs and summed over them (Kolda & Bader 2009)."""
    T3 = np.matmul(W, A32.transpose(0, 2, 1))
    U = np.einsum("irj,rj->ri", T3, V)
    _unit_columns(U.T)
    V = np.einsum("irj,ri->rj", T3, U)
    _unit_columns(V.T)
    W = np.matmul(V[None] * U.T[:, :, None], A32).sum(axis=0)
    _unit_columns(W.T)
    return U, V, W


def scan_restarts(tm: Tensor3, inits, sweeps: int):
    """Advance several initializations jointly for a fixed number of sweeps.

    Returns [(sigma, u, v, w), ...] sorted by descending sigma. The scan only
    ranks the restarts, so it runs in float32 on a private float32 copy of
    the tensor (ValueError if an entry overflows it): the starts are stacked
    as the rows of R x n batches, and each sweep (_scan_sweep) streams the
    copy twice regardless of R. A lone start gets a zero row beside it (zero
    rows stay zero), since numpy would multiply a one-row batch by gemv: so
    padded, it rounds as in a batch of two or three. It need not round as in
    a wider batch: at some shapes the float32 gemm rounds a start differently
    once the batch has four or more rows (its sigma moved by 1.2e-8 at
    20x30x40 with R = 5). The returned factors are float64, renormalized,
    and sigma is tm(u, v, w) computed in float64 from them. The points are
    not converged: solve_critical_point polishes the best one. A restart
    whose contraction vanishes keeps zero factors and sigma 0.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    starts = [check_factors(tm.shape, s) for s in inits]
    if not starts:
        raise ValueError("the scan needs at least one start")
    R = len(starts)
    U, V, W = (np.stack(rows) for rows in zip(*starts))
    if R == 1:
        U, V, W = (np.pad(rows, ((0, 1), (0, 0))) for rows in (U, V, W))
    for rows in (U, V, W):
        _unit_columns(rows.T)
    U, V, W = (rows.astype(np.float32) for rows in (U, V, W))
    with np.errstate(over="ignore"):
        A32 = tm.values.astype(np.float32)
    if not _all_finite(A32):
        raise ValueError(
            "tensor entries must be finite in float32: the float32 copy overflowed"
        )
    for _ in range(sweeps):
        U, V, W = _scan_sweep(A32, U, V, W)
    U, V, W = (rows[:R].T.astype(np.float64) for rows in (U, V, W))
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
    return float(np.max(np.abs(_defect(M3, M1, cp.sigma, u, v, w))))


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

