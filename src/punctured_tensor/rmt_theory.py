"""Limiting-theory solvers: Stieltjes fixed point, spectral density, spike
equations and phase-transition thresholds.

The coupled fixed point reads, for each mode l,

    eps * m_l(z) * o_l(z) + z * m_l(z) + c_l = 0,

with o_l = mbar - m_l the sum of the other two modes and mbar = m1 + m2 + m3.
It is solved by Newton's method, whose Jacobian is diagonal plus rank one
and so is inverted in closed form. Summing o_l directly keeps the solve
accurate next to the atom at 0 (one ratio above 1/2), where one m_l grows
like 1 / Im z. The spike equation couples mbar on the real axis with the
alignment limits q_l^2 = 1 - eps * m_l(sigma)^2 / c_l:

    F = sigma + eps * mbar(sigma) - eps * beta * q1 * q2 * q3 = 0.

Right of the support edge everything is explicit in the branch parameter
t = m1 in (t_edge, 0) (see the real-axis branch below). F crosses zero at
most once along the branch and tends to +infinity as t -> 0-, so a spike
exists exactly when F(t_edge) < 0. This gives the closed-form thresholds

    beta_s = (edge + eps * mbar(edge)) / (eps * q1 * q2 * q3(edge)),
    eps_s = (beta_s(eps = 1) / beta)^2   (dilation law),

and one bracketed bisection in t for the spike itself.
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


def solve_stieltjes(z: complex, p: ModelParams, init=None) -> StieltjesSolution:
    """Solve the coupled fixed point at a complex point z (Im z != 0).

    Newton starts from `init`, a nearby solution's (m1, m2, m3). Without
    `init`, or when Newton fails from it, a continuation in Im z runs
    instead: start from -c/z' at Im z' = +-max(1, |Im z|), where that start
    is close, and halve Im z' down to Im z with one Newton solve per stage.
    FixedPointError is raised when a stage fails.
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
    while True:
        stage = complex(z.real, eta) if abs(eta) > 1.999 * abs(z.imag) else z
        sol = _newton(stage, c, eps, m)
        if sol is None:
            raise FixedPointError(f"no Newton convergence at z={stage}")
        if stage == z:
            return sol
        m = sol.values
        eta *= 0.5


# --- Real-axis branch -------------------------------------------------------
#
# Fixing m1 = t < 0, the difference of the mode-l equation and the mode-1
# equation eliminates the cross terms, leaving decoupled quadratics for m2
# and m3 and a closed form for the abscissa:
#
#     eps*m_l^2 - (eps*t - c1/t)*m_l - c_l = 0,   x = -c1/t - eps*(m2 + m3).
#
# The decaying branch (all m_l < 0, m_l ~ -c_l/x at infinity) is the minus
# root. x(t) is smooth with a unique interior minimum: the support edge.
# Parametrizing by t removes the square-root singularity at the edge, so the
# edge and the branch values carry machine precision.


def _branch_at(t: float, c, eps: float):
    """(m1, m2, m3, x) on the decaying real branch parametrized by m1 = t < 0."""
    c1, c2, c3 = c
    A = eps * t - c1 / t
    s2 = math.sqrt(A * A + 4.0 * eps * c2)
    s3 = math.sqrt(A * A + 4.0 * eps * c3)
    if A > 0:
        # (A - s) / (2 eps) would subtract nearly equal numbers here.
        m2, m3 = -2.0 * c2 / (A + s2), -2.0 * c3 / (A + s3)
    else:
        m2, m3 = (A - s2) / (2.0 * eps), (A - s3) / (2.0 * eps)
    x = -c1 / t - eps * (m2 + m3)
    return t, m2, m3, x


@functools.lru_cache(maxsize=256)
def _edge_point(c, eps: float):
    """(edge abscissa, branch parameter t at the edge) for ratios c, cached."""

    def x_of(t):
        return _branch_at(t, c, eps)[3]

    # Coarse geometric scan for a bracket around the minimum of x(t).
    scale = math.sqrt(c[0] / eps)
    ts = -scale * np.logspace(-4, 3, 400)
    xs = [x_of(float(t)) for t in ts]
    i = int(np.argmin(xs))
    a, b = float(ts[min(i + 1, len(ts) - 1)]), float(ts[max(i - 1, 0)])
    # Golden-section refinement; the minimum is quadratic, so the edge value
    # is accurate to machine precision long before t is.
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = x_of(x1), x_of(x2)
    for _ in range(120):
        if b - a < 1e-13 * max(1.0, abs(a)):
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = x_of(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = x_of(x2)
    t_edge = 0.5 * (a + b)
    return x_of(t_edge), t_edge


def support_edge(p: ModelParams) -> float:
    """Right edge of the limiting support (beta plays no role)."""
    return _edge_point(p.ratios, p.epsilon)[0]


def _branch_solution(p: ModelParams, t: float) -> StieltjesSolution:
    *m, x = _branch_at(t, p.ratios, p.epsilon)
    return StieltjesSolution(x, *m, _residual(x, p.ratios, p.epsilon, m))


def real_branch_stieltjes(x: float, p: ModelParams) -> StieltjesSolution:
    """Decaying real-axis branch at x, strictly right of the support edge.

    Raises OutsideSupportError for x at or inside the support.
    """
    x = float(x)
    if x <= 0:
        raise ValueError("the real branch is evaluated right of the support, x > 0")
    edge, t_edge = _edge_point(p.ratios, p.epsilon)
    if x < edge:
        raise OutsideSupportError(f"x={x} lies inside the support (edge {edge})")
    # x(t) increases from the edge value to +infinity as t rises to 0-.
    lo, hi = t_edge, -1e-300
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _branch_at(mid, p.ratios, p.epsilon)[3] < x:
            lo = mid
        else:
            hi = mid
        if hi - lo <= abs(lo) * 1e-16:
            break
    return _branch_solution(p, 0.5 * (lo + hi))


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


def _qs(sol: StieltjesSolution, p: ModelParams):
    return tuple(
        math.sqrt(max(0.0, 1.0 - p.epsilon * (m.real ** 2) / c))
        for m, c in zip(sol.values, p.ratios)
    )


def _spike_objective(t, p, beta):
    """F(t) = x + eps*mbar - eps*beta*q1*q2*q3 on the branch, and the branch."""
    sol = _branch_solution(p, t)
    q1, q2, q3 = _qs(sol, p)
    F = sol.z.real + p.epsilon * sol.mbar.real - p.epsilon * beta * q1 * q2 * q3
    return F, sol


def solve_spike(p: ModelParams) -> SpikePrediction:
    """Root of the spike equation right of the support edge.

    The spike equation F = 0 is solved on the branch parameter t = m1 in
    (t_edge, 0), where x(t) and m_l(t) are explicit. F tends to +infinity as
    t rises to 0- and crosses zero at most once on the branch (checked by a
    property test over skewed ratios, small eps and beta around the
    threshold), so a root exists exactly when F(t_edge) < 0, i.e. when beta
    exceeds beta_threshold(p). It is then bisected on [t_edge, 0-) until the
    midpoint stops moving. Below the threshold the infeasible marker (all
    q = 0) is returned.
    """
    if p.beta is None:
        raise ValueError("solve_spike needs beta set on the parameters")
    beta = p.beta
    lo, hi = _edge_point(p.ratios, p.epsilon)[1], 0.0
    if _spike_objective(lo, p, beta)[0] >= 0.0:
        return INFEASIBLE
    while True:  # F(lo) < 0 < F(hi); t = 0 itself is never evaluated
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _spike_objective(mid, p, beta)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    F_val, sol = _spike_objective(mid, p, beta)
    q1, q2, q3 = _qs(sol, p)
    return SpikePrediction(
        sol.z.real,
        q1,
        q2,
        q3,
        tuple(m.real for m in sol.values),
        True,
        residual=abs(F_val),
    )


def beta_threshold(p: ModelParams, tol: float = 1e-9) -> float:
    """Smallest beta for which the spike equation has a root.

    By the single crossing of F (see solve_spike) this is the beta that puts
    the root on the support edge, F(t_edge) = 0:

        beta_s = (edge + eps*mbar(edge)) / (eps * q1*q2*q3(edge)).

    `tol` is accepted for compatibility and has no effect.
    """
    sol = _branch_solution(p, _edge_point(p.ratios, p.epsilon)[1])
    q1, q2, q3 = _qs(sol, p)
    return (sol.z.real + p.epsilon * sol.mbar.real) / (p.epsilon * q1 * q2 * q3)


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
