"""Limiting-theory solvers: Stieltjes fixed point, spectral density, spike
equations and phase-transition thresholds.

The coupled fixed point reads, for each mode l,

    eps * m_l(z) * o_l(z) + z * m_l(z) + c_l = 0,

with o_l = mbar - m_l the sum of the other two modes and mbar = m1 + m2 + m3.
It is solved by Newton's method, whose Jacobian is diagonal plus rank one
and so is inverted in closed form. Summing o_l directly keeps the solve
accurate next to the atom at 0 (one ratio above 1/2), where one m_l grows
like 1 / Im z.

Right of the support edge everything is explicit in the one parameter
A = x + eps * mbar, symmetric in the three modes (see the real-axis branch
below): with s_l = sqrt(A^2 + 4 * eps * c_l),

    m_l = -2 * c_l / (A + s_l),   x = (s1 + s2 + s3 - A) / 2,
    q_l^2 = 1 - eps * m_l^2 / c_l = 2 * A / (A + s_l),

and the support edge is the one root of sum_l A / s_l = 1. The spike
equation x + eps * mbar = eps * beta * q1 * q2 * q3 becomes

    F(A) = A - eps * beta * q1 * q2 * q3 = 0.

F crosses zero at most once right of the edge and is positive at
A = eps * beta (every q_l < 1), so a spike exists exactly when F(A_edge) < 0.
This gives the closed-form thresholds

    beta_s = A_edge / (eps * q1 * q2 * q3(A_edge)),
    eps_s = (beta_s(eps = 1) / beta)^2   (dilation law),

and bracketed Newton steps in A for the edge, the branch and the spike.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np


class FixedPointError(RuntimeError):
    """Newton found no Herglotz solution of the Stieltjes fixed point."""


class OutsideSupportError(RuntimeError):
    """The real-axis branch does not exist here (point inside the support)."""


@dataclass(frozen=True)
class ModelParams:
    c1: float
    c2: float
    c3: float
    epsilon: float
    beta: float | None = None

    def __post_init__(self):
        if min(self.c1, self.c2, self.c3) <= 0:
            raise ValueError("mode ratios must be positive")
        if abs(self.c1 + self.c2 + self.c3 - 1.0) > 1e-12:
            raise ValueError("mode ratios must sum to 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.beta is not None and self.beta < 0:
            raise ValueError("beta must be nonnegative")

    @property
    def ratios(self):
        return (self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class StieltjesSolution:
    z: complex
    m1: complex
    m2: complex
    m3: complex
    residual: float

    @property
    def mbar(self) -> complex:
        return self.m1 + self.m2 + self.m3

    @property
    def values(self):
        return (self.m1, self.m2, self.m3)


@dataclass(frozen=True)
class DensityCurve:
    grid: np.ndarray
    density: np.ndarray
    eta: float


@dataclass(frozen=True)
class SpikePrediction:
    sigma_inf: float
    q1: float
    q2: float
    q3: float
    m_at_sigma: tuple | None
    feasible: bool
    residual: float = 0.0

    @property
    def q(self):
        return (self.q1, self.q2, self.q3)


INFEASIBLE = SpikePrediction(math.nan, 0.0, 0.0, 0.0, None, False)

def _residual(z, c, eps, m):
    """Largest |eps*m_l*o_l + z*m_l + c_l|, o_l the sum of the other modes.

    Summing the other two modes directly, instead of forming mbar - m_l,
    keeps the residual exact next to the atom at 0, where one m_l grows
    like 1 / Im z while the others stay small."""
    m1, m2, m3 = m
    c1, c2, c3 = c
    return max(
        abs(eps * m1 * (m2 + m3) + z * m1 + c1),
        abs(eps * m2 * (m1 + m3) + z * m2 + c2),
        abs(eps * m3 * (m1 + m2) + z * m3 + c3),
    )


def _newton(z, c, eps, m):
    """Newton's method on the coupled system from the start m = (m1, m2, m3).

    With e_l = eps*o_l + z, equation l reads m_l*e_l + c_l = 0 and the
    Jacobian is diag(d) + eps*m*1^T with d_l = e_l - eps*m_l, so each step
    is a closed-form Sherman-Morrison solve. Stops on a step of a few ulps
    of max|m_l| or after 60 steps. Returns the StieltjesSolution, or None on
    a zero divisor, divergence, the wrong Herglotz sign (sign(Im m_l) !=
    sign(Im z)) or a residual above 1e-11."""
    c1, c2, c3 = c
    m1, m2, m3 = m
    for _ in range(60):
        e1, e2, e3 = eps * (m2 + m3) + z, eps * (m1 + m3) + z, eps * (m1 + m2) + z
        d1, d2, d3 = e1 - eps * m1, e2 - eps * m2, e3 - eps * m3
        try:
            y1, y2, y3 = (m1 * e1 + c1) / d1, (m2 * e2 + c2) / d2, (m3 * e3 + c3) / d3
            w1, w2, w3 = eps * m1 / d1, eps * m2 / d2, eps * m3 / d3
            # The divisor 1 + w1 + w2 + w3 nearly cancels next to the atom
            # at 0, where one w_l tends to -1: add the largest w_l as
            # 1 + w_l = e_l / d_l instead.
            a1, a2, a3 = abs(w1), abs(w2), abs(w3)
            if a1 >= a2 and a1 >= a3:
                k = (y1 + y2 + y3) / (e1 / d1 + w2 + w3)
            elif a2 >= a3:
                k = (y1 + y2 + y3) / (w1 + e2 / d2 + w3)
            else:
                k = (y1 + y2 + y3) / (w1 + w2 + e3 / d3)
        except ZeroDivisionError:
            return None
        s1, s2, s3 = y1 - w1 * k, y2 - w2 * k, y3 - w3 * k
        m1, m2, m3 = m1 - s1, m2 - s2, m3 - s3
        big = max(abs(m1), abs(m2), abs(m3))
        if not math.isfinite(big):
            return None
        if max(abs(s1), abs(s2), abs(s3)) <= 4.0 * sys.float_info.epsilon * big:
            break
    m = (m1, m2, m3)
    if any(ml.imag * z.imag < 0.0 for ml in m):
        return None
    residual = _residual(z, c, eps, m)
    if not residual <= 1e-11:
        return None
    return StieltjesSolution(z, *m, residual)


# Im z shrinks by this factor per stage of a cold start.
_COLD_SHRINK = 1.0 / 16.0


def solve_stieltjes(z: complex, p: ModelParams, init=None) -> StieltjesSolution:
    """Solve the coupled fixed point at a complex point z (Im z != 0).

    Newton starts from `init`, a nearby solution's (m1, m2, m3). Without
    `init`, or when Newton fails from it, a continuation in Im z runs
    instead: start from -c/z' at Im z' = +-max(1, |Im z|), where that start
    is close, and shrink Im z' 16-fold (_COLD_SHRINK) per stage down to Im z
    with one Newton solve per stage. After a failed stage it halves Im z'
    from the last solved stage; FixedPointError is raised when the first
    stage or a halving stage fails.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("use real_branch_stieltjes on the real axis")
    # Python scalars throughout, so that a zero divisor raises in _newton.
    c, eps = tuple(map(float, p.ratios)), float(p.epsilon)
    sol = None if init is None else _newton(z, c, eps, tuple(map(complex, init)))
    if sol is not None:
        return sol
    eta = math.copysign(max(1.0, abs(z.imag)), z.imag)
    m = tuple(-cl / complex(z.real, eta) for cl in c)
    shrink, solved = _COLD_SHRINK, None
    while True:
        stage = complex(z.real, eta) if abs(eta) > 1.999 * abs(z.imag) else z
        sol = _newton(stage, c, eps, m)
        if sol is not None:
            if stage == z:
                return sol
            m, solved = sol.values, eta
        elif solved is None or shrink == 0.5:
            raise FixedPointError(f"no Newton convergence at z={stage}")
        else:
            shrink = 0.5
        eta = solved * shrink


# --- Real-axis branch -------------------------------------------------------
#
# Right of the support every m_l is real and negative. With A = x + eps*mbar,
# the mode-l equation eps*m_l*(mbar - m_l) + x*m_l + c_l = 0 becomes the same
# quadratic in every mode,
#
#     eps*m_l^2 - A*m_l - c_l = 0,   s_l = sqrt(A^2 + 4*eps*c_l),
#
# whose decaying root (m_l ~ -c_l/x at infinity) is m_l = -2*c_l/(A + s_l),
# free of cancellation. Then x + eps*mbar = A gives x = (s1 + s2 + s3 - A)/2,
# and the quadratic gives q_l^2 = 1 - eps*m_l^2/c_l = 2A/(A + s_l). Since
# dx/dA = (sum_l A/s_l - 1)/2 and sum_l A/s_l increases from 0 to 3, x(A) has
# one minimum, the support edge, at sum_l A/s_l = 1. It lies in
# (0, 2*sqrt(eps)): at A = 2*sqrt(eps) every A/s_l = 1/sqrt(1 + c_l) exceeds
# 1/sqrt(2). Right of the edge x(A) increases, and x(A) > A. Parametrizing by
# A removes the square-root singularity at the edge, so the edge and the
# branch values carry machine precision.


def _bisect(f, lo, hi):
    """Bisect f, negative left of its one sign change in [lo, hi] and
    nonnegative right of it, until the midpoint stops moving; returns that
    midpoint. f(lo) and f(hi) are never evaluated."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _newton_root(f, lo, hi):
    """The float that _bisect(f0, lo, hi) returns, in a few Newton steps:
    f(A) = (f0(A), f0'(A)), f0 < 0 left of its one sign change in (lo, hi)
    and f0(hi) >= 0. Newton runs from hi inside the bracket its signs shrink
    (bisecting when a step would leave it) until a step is at most 4 ulps or
    a midpoint rounds onto lo or hi: near a tangency |f0| is noise and steps
    need not shrink. f0 = 0 does not stop it, as f0 can round to 0 on several
    ulps. _bisect then finishes on a bracket found in doubling steps from the
    last iterate, so the float is the full bisection's wherever the computed
    sign of f0 changes once."""
    A = hi
    while True:
        fA, slope = f(A)
        lo, hi = (A, hi) if fA < 0.0 else (lo, A)
        step = A - fA / slope if slope > 0.0 else math.nan
        if abs(step - A) <= 4.0 * math.ulp(A):
            break
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if step in (lo, hi):
                break
        A = step
    w = 4.0 * math.ulp(A)
    while True:
        a, b = max(lo, A - w), min(hi, A + w)
        if lo < a and f(a)[0] >= 0.0:
            hi = a
        elif b < hi and f(b)[0] < 0.0:
            lo = b
        else:
            return _bisect(lambda A: f(A)[0], a, b)
        w *= 2.0


def _branch_at(A: float, c, eps: float):
    """(x, (m1, m2, m3), (q1, q2, q3)) on the decaying real branch at
    A = x + eps*mbar > 0."""
    s = [math.sqrt(A * A + 4.0 * eps * cl) for cl in c]
    x = 0.5 * (s[0] + s[1] + s[2] - A)
    m = tuple(-2.0 * cl / (A + sl) for cl, sl in zip(c, s))
    q = tuple(math.sqrt(2.0 * A / (A + sl)) for sl in s)
    return x, m, q


def _edge_slope(A: float, c, eps: float):
    """(2 dx/dA, its derivative) = (sum_l A/s_l - 1, sum_l 4*eps*c_l/s_l^3)
    at A; the edge is its one root."""
    (c1, c2, c3), AA, e4 = c, A * A, 4.0 * eps
    s1, s2, s3 = (math.sqrt(AA + e4 * c1), math.sqrt(AA + e4 * c2),
                  math.sqrt(AA + e4 * c3))
    return A / s1 + A / s2 + A / s3 - 1.0, e4 * (c1 / s1**3 + c2 / s2**3 + c3 / s3**3)


@functools.lru_cache(maxsize=256)
def _edge_point(c, eps: float):
    """(edge abscissa, A at the edge) for ratios c, cached."""
    A = _newton_root(lambda A: _edge_slope(A, c, eps), 0.0, 2.0 * math.sqrt(eps))
    return _branch_at(A, c, eps)[0], A


def support_edge(p: ModelParams) -> float:
    """Right edge of the limiting support (beta plays no role)."""
    return _edge_point(p.ratios, p.epsilon)[0]


def real_branch_stieltjes(x: float, p: ModelParams) -> StieltjesSolution:
    """Decaying real-axis branch at x, at or right of the support edge.

    The returned solution sits at the branch point nearest x (its z is
    x(A) at the root A of x(A) = x). Raises OutsideSupportError for x
    inside the support.
    """
    x = float(x)
    if x <= 0:
        raise ValueError("the real branch is evaluated right of the support, x > 0")
    c, eps = p.ratios, p.epsilon
    edge, A_edge = _edge_point(c, eps)
    if x < edge:
        raise OutsideSupportError(f"x={x} lies inside the support (edge {edge})")

    def gap(A):  # (x(A) - x, dx/dA)
        return _branch_at(A, c, eps)[0] - x, _edge_slope(A, c, eps)[0] / 2

    # At the edge, x(A) - x is flat and rounds to 0 on millions of ulps.
    A = A_edge if x == edge else _newton_root(gap, A_edge, x)
    z, m, _ = _branch_at(A, c, eps)
    return StieltjesSolution(z, *m, _residual(z, c, eps, m))


def limiting_density(
    p: ModelParams,
    x_min: float,
    x_max: float,
    n_points: int,
    eta: float = 1e-6,
) -> DensityCurve:
    """Density Im mbar(x + i eta) / pi on a uniform grid, warm-started."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    if not x_min < x_max:
        raise ValueError("x_min must be smaller than x_max")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    grid = np.linspace(x_min, x_max, n_points)
    density = np.empty(n_points)
    init = None
    for idx, x in enumerate(grid):
        try:
            sol = solve_stieltjes(complex(x, eta), p, init=init)
        except FixedPointError as exc:
            raise FixedPointError(
                f"density evaluation failed at grid point x={x}"
            ) from exc
        init = sol.values
        density[idx] = sol.mbar.imag / math.pi
    return DensityCurve(grid, density, eta)


def _spike_gap(A: float, c, eps: float, beta: float):
    """(F(A), F'(A)) for F(A) = A - eps*beta*q1*q2*q3 on the branch, where
    d ln q_l / dA = 2*eps*c_l / (A*s_l*(A + s_l))."""
    (c1, c2, c3), AA, e4, A2 = c, A * A, 4.0 * eps, 2.0 * A
    s1, s2, s3 = (math.sqrt(AA + e4 * c1), math.sqrt(AA + e4 * c2),
                  math.sqrt(AA + e4 * c3))
    q1, q2, q3 = (math.sqrt(A2 / (A + s1)), math.sqrt(A2 / (A + s2)),
                  math.sqrt(A2 / (A + s3)))
    g = eps * beta * q1 * q2 * q3
    dlog = c1 / (s1 * (A + s1)) + c2 / (s2 * (A + s2)) + c3 / (s3 * (A + s3))
    return A - g, 1.0 - g * 2.0 * eps / A * dlog


def solve_spike(p: ModelParams) -> SpikePrediction:
    """Root of the spike equation right of the support edge.

    F(A) = A - eps*beta*q1*q2*q3 crosses zero at most once right of the
    edge (checked by a property test over skewed ratios, small eps and beta
    around the threshold) and is positive at A = eps*beta, where every
    q_l < 1. So a root exists exactly when F(A_edge) < 0, i.e. when beta
    exceeds beta_threshold(p); _newton_root finds it on (A_edge, eps*beta).
    Below the threshold the infeasible marker (all q = 0) is returned. The
    residual substitutes the branch point into x + eps*mbar -
    eps*beta*q1*q2*q3, with q_l from 1 - eps*m_l^2/c_l.
    """
    if p.beta is None:
        raise ValueError("solve_spike needs beta set on the parameters")
    c, eps, beta = p.ratios, p.epsilon, p.beta
    A_edge = _edge_point(c, eps)[1]
    if _spike_gap(A_edge, c, eps, beta)[0] >= 0.0:
        return INFEASIBLE
    A = _newton_root(lambda A: _spike_gap(A, c, eps, beta), A_edge, eps * beta)
    sigma, m, q = _branch_at(A, c, eps)
    r1, r2, r3 = (math.sqrt(1.0 - eps * ml * ml / cl) for ml, cl in zip(m, c))
    residual = sigma + eps * (m[0] + m[1] + m[2]) - eps * beta * r1 * r2 * r3
    return SpikePrediction(sigma, *q, m, True, residual=abs(residual))


def beta_threshold(p: ModelParams, tol: float = 1e-9) -> float:
    """Smallest beta for which the spike equation has a root.

    By the single crossing of F (see solve_spike) this is the beta that puts
    the root on the support edge, F(A_edge) = 0:

        beta_s = A_edge / (eps * q1*q2*q3(A_edge)).

    `tol` is accepted for compatibility and has no effect.
    """
    A = _edge_point(p.ratios, p.epsilon)[1]
    q1, q2, q3 = _branch_at(A, p.ratios, p.epsilon)[2]
    return A / (p.epsilon * q1 * q2 * q3)


# Tensor order d of the equal-ratio closed forms below.
_D = 3


def beta_threshold_cubic(epsilon: float) -> float:
    """Closed-form statistical threshold in the equal-ratio setting."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    d = _D
    return math.sqrt((d - 1) / (epsilon * d)) * ((d - 1) / (d - 2)) ** ((d - 2) / 2.0)


def threshold_alignment_cubic() -> float:
    """Alignment limit right after the transition; independent of epsilon."""
    return math.sqrt((_D - 2) / (_D - 1))


def epsilon_threshold(beta: float, c, tol: float = 1e-6) -> float | None:
    """Smallest epsilon in (0, 1] with a feasible spike; None if even
    epsilon = 1 is below the transition.

    By the dilation law (eps, beta) ~ (1, sqrt(eps)*beta), the threshold is
    (beta_s(eps=1) / beta)^2. `tol` is accepted for compatibility and has
    no effect.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    beta_one = beta_threshold(ModelParams(*c, 1.0))
    if beta <= beta_one:
        return None
    return (beta_one / beta) ** 2


def universality_map(p: ModelParams) -> ModelParams:
    """Equivalent unpunctured parameters: epsilon' = 1, beta' = sqrt(eps)*beta."""
    beta = None if p.beta is None else math.sqrt(p.epsilon) * p.beta
    return ModelParams(p.c1, p.c2, p.c3, 1.0, beta=beta)
