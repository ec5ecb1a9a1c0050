"""Alternating power iteration for the best rank-one fit of a masked tensor.

The solver cycles u, v, w updates; its fixed points satisfy the first-order
system  tm(:, v, w) = sigma u,  tm(u, :, w) = sigma v,  tm(u, v, :) = sigma w
with sigma = |tm(u, v, w)|. The update order is fixed as u, v, w: different
orders can reach different (sign-equivalent) critical points from the same
start. One sweep streams the tensor twice, for tm(:, :, w) and tm(u, :, :);
the residual check reuses those two contractions instead of making its own.

The sweeps converge linearly. Where the rate they show leaves more sweeps to
go than a few Newton steps cost, the solve tries a Newton finish: the
Jacobian of the first-order map is Phi(u, v, w) itself, so each step solves
(Phi - sigma I) delta = -r and renormalizes each block. A Newton step
streams the tensor three times (tm(:, v, :) for Phi, then tm(:, :, w) and
tm(u, :, :) at the new point) and the certificate of its result once more.
Newton returns a point only once it is certified a local maximum: Phi <
sigma on the tangent space of the three spheres (Lim 2005).
"""

from __future__ import annotations

import math
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
    iterations: int = 0  # power sweeps
    newton_steps: int = 0  # Newton steps taken, kept or not

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


# Dense flops that take as long as streaming one tensor entry once: the
# exchange rate between a power sweep (two passes over the tensor) and a
# Newton step (dense algebra of size n1 + n2). Measured as B B^T plus the LU
# solve against one pass, with one OpenBLAS thread on a 2-core x86-64 host:
# 8 at 50x100x350, 10 at 200x200x200, 19 at 100x200x700.
PASS_FLOPS = 10.0


def _newton_budget(shape, sigma, residual, rate, tol, sweeps_left):
    """Newton steps worth trying at this check, or 0 to keep sweeping.

    The sweeps still needed are extrapolated from rate, the residual's
    contraction per sweep, and capped by the sweeps left before max_iter.
    Newton pays when they cost more than the steps that quadratic
    convergence from residual to tol needs, plus the certificate. The
    budget is the number of steps those sweeps would pay for.
    """
    if not 0.0 < residual < sigma:
        return 0  # no scale for quadratic convergence yet
    if rate < 1.0:
        sweeps_left = min(sweeps_left, math.log(tol / residual) / math.log(rate))
    m, n3 = shape.n1 + shape.n2, shape.n3
    dense = m * m * n3  # B B^T, for the Schur complement on the w block
    pass_ = PASS_FLOPS * shape.n1 * shape.n2 * n3
    step = 2.0 / 3.0 * m**3 + dense + 3.0 * pass_  # LU solve, 3 passes
    certificate = m**3 / 3.0 + dense + pass_  # Cholesky, 1 pass
    # Quadratic convergence squares residual / sigma with every step.
    doublings = math.log(tol / sigma) / math.log(residual / sigma)
    needed = max(1, math.ceil(math.log2(doublings)))
    spare = sweeps_left * 2.0 * pass_ - certificate
    return int(spare // step) if spare >= needed * step else 0


def _w_rows(tm, v, M1):
    """B = [tm(:, v, :); tm(u, :, :)]: Phi's rows of the u and v blocks in
    the columns of the w block (one pass, for tm(:, v, :))."""
    return np.vstack([contract_one(tm, 2, v), M1])


def _add_uv_block(K, M3):
    """Add [[0, M3], [M3^T, 0]], Phi's u, v corner for M3, to K in place."""
    n1 = M3.shape[0]
    K[:n1, n1:] += M3
    K[n1:, :n1] += M3.T


def _newton_step(B, M3, M1, sigma, u, v, w):
    """x + delta for (Phi - sigma I) delta = -r, with the w block eliminated.

    Phi's w diagonal block is zero, so the w rows read B^T d - sigma e = -r_w
    for delta = [d; e]: e = (B^T d + r_w) / sigma, and d solves the
    (n1 + n2)-sized system (A - sigma I + B B^T / sigma) d = -r_uv - B r_w / sigma,
    A = [[0, M3], [M3^T, 0]].
    """
    r_uv = np.concatenate([M3 @ v - sigma * u, M3.T @ u - sigma * v])
    r_w = M1.T @ v - sigma * w
    K = B @ B.T
    K /= sigma
    _add_uv_block(K, M3)
    K.flat[:: K.shape[0] + 1] -= sigma
    d = np.linalg.solve(K, -r_uv - B @ r_w / sigma)
    e = (B.T @ d + r_w) / sigma
    n1 = u.size
    return u + d[:n1], v + d[n1:], w + e


def _certified(B, M3, sigma, u, v, w) -> bool:
    """Whether C = sigma I - Phi + 2 sigma s s^T, s = [u; v; w] / sqrt(3), is
    positive definite (np.linalg.cholesky).

    Phi's eigenvalue 2 sigma on s turns into sigma in C and its -sigma pair
    into 2 sigma, so at a critical point C is positive definite exactly when
    Phi < sigma on the tangent space of the three spheres: a strict local
    maximum (Lim 2005). C's w diagonal block sigma I + a w w^T, a = 2 sigma / 3,
    is positive definite, so C is exactly when its Schur complement
    C_uv - C_uv,w (sigma I + a w w^T)^-1 C_uv,w^T is, of size n1 + n2.
    """
    a = 2.0 * sigma / 3.0
    s_uv = np.concatenate([u, v])
    C_uvw = np.multiply.outer(a * s_uv, w)
    C_uvw -= B
    g = C_uvw @ w
    S = np.multiply.outer(a * s_uv, s_uv)
    S -= (C_uvw @ C_uvw.T - a / (sigma + a) * np.multiply.outer(g, g)) / sigma
    _add_uv_block(S, -M3)
    S.flat[:: S.shape[0] + 1] += sigma
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton_finish(tm, point, tol, budget, mono_slack):
    """Newton steps from point, a power-sweep state
    (sigma, u, v, w, M3, M1, residual), then the certificate.

    A step is kept only if the max-norm residual falls and sigma does not
    decrease. Once the residual is at most tol the point must pass
    _certified. Returns (point or None, steps taken); None when a step or
    the certificate failed, or the budget ran out. A step whose solve fails
    (an exactly singular system or a zero block) makes one pass, not three.
    """
    sigma, u, v, w, M3, M1, residual = point
    for step in range(1, budget + 1):
        try:
            x = _newton_step(_w_rows(tm, v, M1), M3, M1, sigma, u, v, w)
            u1, v1, w1 = (_normalize(f, "Newton step")[0] for f in x)
        except (np.linalg.LinAlgError, DegeneratePointError):
            return None, step
        M3n, M1n = contract_one(tm, 3, w1), contract_one(tm, 1, u1)
        sigma1 = float(v1 @ (M1n @ w1))
        residual1 = _residual_max(M3n, M1n, sigma1, u1, v1, w1)
        if not (residual1 < residual
                and sigma1 >= sigma - mono_slack * max(1.0, sigma)):
            return None, step
        sigma, u, v, w, M3, M1, residual = sigma1, u1, v1, w1, M3n, M1n, residual1
        if residual <= tol:
            if _certified(_w_rows(tm, v, M1), M3, sigma, u, v, w):
                return (sigma, u, v, w, M3, M1, residual), step
            return None, step
    return None, budget


def solve_critical_point(tm: Tensor3, cfg: SolverConfig) -> CriticalPoint:
    """Run the cyclic power iteration on an (already masked) tensor, with a
    Newton finish where the sweeps would crawl.

    Starts from cfg.factors when they are given (normalized; random starts
    are drawn by the caller) and otherwise from the planted cfg.reference.
    A reference also fixes the sign convention <x, u> >= 0 of the result.

    Each sweep streams the tensor twice: tm(u, :, :), and tm(:, :, w) at the
    new w, which the residual check and the next sweep share; k sweeps make
    2k + 1 passes. At a residual check above cfg.tol, after an earlier
    check gave the residual's contraction rate, the solve tries Newton once
    if the sweeps still needed cost more than the steps (_newton_budget).
    s Newton steps add 3s passes, and 1 more when the certificate is tried.
    A certified Newton point is returned; otherwise the sweeps go on from
    the point where Newton began, exactly as if it had not been tried.
    iterations counts the power sweeps and newton_steps the steps taken.

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
    last_check = None  # (sweep, residual) of the last check above tol
    tried = False  # Newton is tried at most once per solve
    newton_steps = 0
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
            point = (sigma, u, v, w, M3, M1, residual)
            if residual > cfg.tol and not tried:
                if last_check is not None:
                    done, last = last_check
                    rate = (residual / last) ** (1.0 / (it - done))
                    budget = _newton_budget(tm.shape, sigma, residual, rate,
                                            cfg.tol, cfg.max_iter - it)
                    if budget:
                        tried = True
                        newton, newton_steps = _newton_finish(
                            tm, point, cfg.tol, budget, mono_slack)
                        point = newton or point
                last_check = (it, residual)
            sigma, u, v, w, _, _, residual = point
            if residual <= cfg.tol:
                if cfg.reference is not None and float(cfg.reference.x @ u) < 0:
                    u, v = -u, -v  # flipping a pair preserves the fixed point
                return CriticalPoint(sigma, u, v, w, residual=residual,
                                     iterations=it, newton_steps=newton_steps)

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
