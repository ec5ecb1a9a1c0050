import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from punctured_tensor import (
    ModelParams,
    beta_threshold,
    beta_threshold_cubic,
    epsilon_threshold,
    limiting_density,
    real_branch_stieltjes,
    solve_spike,
    solve_stieltjes,
    support_edge,
    threshold_alignment_cubic,
    universality_map,
)
from punctured_tensor import rmt_theory
from punctured_tensor.rmt_theory import (
    FixedPointError,
    OutsideSupportError,
    _bisect,
    _branch_at,
    _edge_point,
    _edge_slope,
    _newton,
    _newton_root,
    _spike_gap,
)

CUBIC = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
SKEW = (0.1, 0.2, 0.7)


def _params(c, eps, beta=None):
    return ModelParams(c[0], c[1], c[2], eps, beta=beta)


def _residual_by_substitution(sol, c, eps):
    """Plug (m1, m2, m3) back into the three coupled equations.

    The other two modes are summed directly: forming mbar - m_l would round
    at u * |mbar|, which next to the atom at 0 hides errors in small m_l."""
    m1, m2, m3 = sol.values
    others = (m2 + m3, m1 + m3, m1 + m2)
    return max(
        abs(eps * m * o + sol.z * m + cl) for m, o, cl in zip(sol.values, others, c)
    )


def _mp_stieltjes(z, c, eps, digits=40):
    """Reference solve at `digits` significant digits, independent of the
    solver under test: Newton with a dense 3x3 solve, continued from
    -c/z' at Im z' = 1 down to Im z by halving."""
    with mpmath.workdps(digits):
        c = [mpmath.mpf(cl) for cl in c]
        eps = mpmath.mpf(eps)
        eta = mpmath.mpf(1)
        m = [-cl / mpmath.mpc(z.real, eta) for cl in c]
        while True:
            eta = max(eta, mpmath.mpf(z.imag))
            zs = mpmath.mpc(z.real, eta)
            for _ in range(100):
                o = [m[1] + m[2], m[0] + m[2], m[0] + m[1]]
                G = mpmath.matrix(
                    [eps * m[l] * o[l] + zs * m[l] + c[l] for l in range(3)]
                )
                J = mpmath.matrix(
                    [[eps * o[l] + zs if k == l else eps * m[l] for k in range(3)]
                     for l in range(3)]
                )
                step = mpmath.lu_solve(J, G)
                m = [m[l] - step[l] for l in range(3)]
                if mpmath.norm(step) <= 10 ** mpmath.mpf(5 - digits) * max(map(abs, m)):
                    break
            if eta == z.imag:
                return [complex(ml) for ml in m]
            eta /= 2


def _mp_real_axis(c, eps, beta, digits=60):
    """Reference (edge, beta_s, sigma, q) at `digits` significant digits,
    independent of the solver under test: the real branch parametrized by
    t = m1 < 0, where A = eps*t - c1/t, m_l = (A - sqrt(A^2 + 4*eps*c_l)) /
    (2*eps) for l = 2, 3 and x = -c1/t - eps*(m2 + m3). The edge is the zero
    of dx/dt, found by bisection on its sign; sigma is the bisected root in t
    of x + eps*mbar - eps*beta*q1*q2*q3. sigma and q are None below the
    threshold."""
    with mpmath.workdps(digits):
        c1, c2, c3 = (mpmath.mpf(cl) for cl in c)
        eps, beta = mpmath.mpf(eps), mpmath.mpf(beta)

        def branch(t):
            A = eps * t - c1 / t
            s2 = mpmath.sqrt(A * A + 4 * eps * c2)
            s3 = mpmath.sqrt(A * A + 4 * eps * c3)
            m = (t, (A - s2) / (2 * eps), (A - s3) / (2 * eps))
            x = -c1 / t - eps * (m[1] + m[2])
            q = [mpmath.sqrt(1 - eps * ml * ml / cl) for ml, cl in zip(m, (c1, c2, c3))]
            return x, m, q, A, s2, s3

        def dx_dt(t):
            _, _, _, A, s2, s3 = branch(t)
            return c1 / t**2 - (2 - A / s2 - A / s3) * (eps + c1 / t**2) / 2

        def spike(t):
            x, m, q, *_ = branch(t)
            return x + eps * sum(m) - eps * beta * q[0] * q[1] * q[2]

        def bisect(f, lo, hi):
            for _ in range(4 * digits):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
            return (lo + hi) / 2

        scale = mpmath.sqrt(c1 / eps)
        lo, hi = -scale * 10**4, -scale / 10**6
        assert dx_dt(lo) < 0 < dx_dt(hi)
        t_edge = bisect(dx_dt, lo, hi)
        edge, m, q, *_ = branch(t_edge)
        beta_s = (edge + eps * sum(m)) / (eps * q[0] * q[1] * q[2])
        if not beta > beta_s:
            return edge, beta_s, None, None
        hi = t_edge / 2
        while spike(hi) <= 0:
            hi /= 2
        sigma, _, q, *_ = branch(bisect(spike, t_edge, hi))
        return edge, beta_s, sigma, q


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0.5, 0.5, 0.1, 0.5)
        with pytest.raises(ValueError):
            ModelParams(0.2, 0.3, 0.5, 0.0)
        with pytest.raises(ValueError):
            ModelParams(0.2, 0.3, 0.5, 0.5, beta=-1.0)
        with pytest.raises(ValueError):
            ModelParams(-0.1, 0.4, 0.7, 0.5)


class TestStieltjesComplex:
    @pytest.mark.parametrize("c", [CUBIC, SKEW])
    @pytest.mark.parametrize("eps", [0.25, 1.0])
    def test_substitution_residual(self, c, eps):
        p = _params(c, eps)
        gen = np.random.default_rng(0)
        for _ in range(20):
            z = complex(gen.uniform(-3, 3), 10.0 ** gen.uniform(-6, 0))
            sol = solve_stieltjes(z, p)
            assert _residual_by_substitution(sol, c, eps) < 1e-12

    def test_herglotz_property(self):
        # Im z > 0 forces Im m_l > 0 for each mode.
        p = _params(SKEW, 0.4)
        for x in (-1.0, 0.3, 2.0):
            sol = solve_stieltjes(complex(x, 1e-4), p)
            assert all(m.imag > 0 for m in sol.values)

    def test_decay_at_infinity(self):
        # m_l(z) ~ -c_l / z far from the support.
        p = _params(SKEW, 0.6)
        z = complex(50.0, 1.0)
        sol = solve_stieltjes(z, p)
        for m, cl in zip(sol.values, SKEW):
            assert abs(m - (-cl / z)) < 1e-3

    def test_failed_stage_falls_back_to_halving(self, monkeypatch):
        # A failed 1/16 stage resumes from the last solved stage by halving;
        # only a failed halving stage raises.
        c, eps, z = SKEW, 0.4, complex(0.3, 1e-5)
        stages = []

        def failing(fail_at):
            def newton(stage, *args):
                stages.append(stage.imag)
                return None if len(stages) in fail_at else _newton(stage, *args)
            return newton

        monkeypatch.setattr(rmt_theory, "_newton", failing({3}))
        sol = solve_stieltjes(z, _params(c, eps))
        assert stages[:5] == [1.0, 1.0 / 16, 1.0 / 256, 1.0 / 32, 1.0 / 64]
        ref = _halving_stieltjes(z, c, eps)
        for m, r in zip(sol.values, ref.values):
            assert abs(m - r) <= 1e-13 * abs(r)
        stages.clear()
        monkeypatch.setattr(rmt_theory, "_newton", failing({3, 5}))
        with pytest.raises(FixedPointError):
            solve_stieltjes(z, _params(c, eps))
        assert stages == [1.0, 1.0 / 16, 1.0 / 256, 1.0 / 32, 1.0 / 64]

    def test_rejects_real_z(self):
        with pytest.raises(ValueError):
            solve_stieltjes(3.0, _params(CUBIC, 0.5))

    # c3 > 1/2 puts an atom of mass 2*c3 - 1 at 0, where |m3| grows like
    # 1 / Im z while m1 and m2 stay small.
    ATOM = (0.375, 0.03125, 0.59375)

    @pytest.mark.parametrize("z", [1e-3j, 1e-6j, 0.01 + 1e-7j, 1e-9j, 1e-12j])
    def test_matches_mpmath_next_to_atom(self, z):
        sol = solve_stieltjes(z, _params(self.ATOM, 0.5))
        ref = _mp_stieltjes(z, self.ATOM, 0.5)
        for m, r in zip(sol.values, ref):
            assert abs(m - r) <= 1e-12 * abs(r)


class TestRealBranch:
    def test_cubic_edge_closed_form(self):
        # Equal ratios collapse the system to one cubic whose support is
        # [-2 sqrt(2 eps / 3), 2 sqrt(2 eps / 3)].
        for eps in (0.1, 0.25, 0.5, 1.0):
            edge = support_edge(_params(CUBIC, eps))
            assert abs(edge - 2.0 * math.sqrt(2.0 * eps / 3.0)) < 1e-12

    def test_substitution_residual_real(self):
        p = _params(SKEW, 0.4)
        edge = support_edge(p)
        for x in np.linspace(edge * 1.0001, edge + 3.0, 25):
            sol = real_branch_stieltjes(float(x), p)
            assert _residual_by_substitution(sol, SKEW, 0.4) < 1e-11
            assert all(m.imag == 0 and m.real < 0 for m in sol.values)

    def test_matches_complex_limit(self):
        # The real branch is the eta -> 0 limit of the complex solution.
        p = _params(SKEW, 0.7)
        x = support_edge(p) + 0.5
        real_sol = real_branch_stieltjes(x, p)
        cplx = solve_stieltjes(complex(x, 1e-9), p)
        for a, b in zip(real_sol.values, cplx.values):
            assert abs(a.real - b.real) < 1e-6

    @pytest.mark.parametrize(
        "c, eps", [(CUBIC, 0.25), (SKEW, 0.05), ((0.001, 0.499, 0.5), 0.01)]
    )
    def test_at_the_edge(self, c, eps):
        # x = edge itself lies on the branch.
        p = _params(c, eps)
        edge = support_edge(p)
        sol = real_branch_stieltjes(edge, p)
        assert abs(sol.z - edge) <= 4.0 * np.finfo(float).eps * edge
        assert _residual_by_substitution(sol, c, eps) < 1e-14

    def test_inside_support_raises(self):
        p = _params(CUBIC, 0.5)
        with pytest.raises(OutsideSupportError):
            real_branch_stieltjes(0.5 * support_edge(p), p)

    def test_decay_at_infinity_real(self):
        p = _params(CUBIC, 0.3)
        sol = real_branch_stieltjes(100.0, p)
        for m, cl in zip(sol.values, CUBIC):
            assert abs(m.real + cl / 100.0) < 1e-4

    @pytest.mark.parametrize("x", [10.0, 100.0, 1e4])
    def test_equal_ratios_give_equal_values(self, x):
        # Far right of the support the minus root of the branch quadratic
        # must not cancel: equal ratios give m1 == m2 == m3 up to rounding.
        sol = real_branch_stieltjes(x, _params(CUBIC, 0.3))
        for m in (sol.m2, sol.m3):
            assert abs(m - sol.m1) <= 4.0 * np.finfo(float).eps * abs(sol.m1)


class TestLimitingDensity:
    def test_semicircle_cubic(self):
        # Equal ratios give a semicircle of radius 2 sqrt(2 eps / 3).
        eps = 0.25
        r = 2.0 * math.sqrt(2.0 * eps / 3.0)
        p = _params(CUBIC, eps)
        curve = limiting_density(p, -1.2 * r, 1.2 * r, 601, eta=1e-6)
        semi = np.where(
            np.abs(curve.grid) <= r,
            2.0 * np.sqrt(np.maximum(r * r - curve.grid**2, 0.0)) / (math.pi * r * r),
            0.0,
        )
        # eta-smoothing rounds the square-root edge on a sqrt(eta) scale.
        assert np.max(np.abs(curve.density - semi)) < 2e-3
        interior = np.abs(curve.grid) < 0.9 * r
        assert np.max(np.abs(curve.density - semi)[interior]) < 1e-4

    def test_mass_with_atom(self):
        # Off the equal-ratio case a point mass 1 - 2(c1 + c2) sits at zero;
        # the continuous part away from zero carries the rest.
        p = _params(SKEW, 0.25)
        edge = support_edge(p)
        curve = limiting_density(p, -1.05 * edge, 1.05 * edge, 2001, eta=1e-7)
        keep = np.abs(curve.grid) > 0.02
        cont = float(np.trapezoid(curve.density[keep], curve.grid[keep]))
        expected = 2.0 * (SKEW[0] + SKEW[1])
        assert abs(cont - expected) < 0.01

    def test_vanishes_outside_support(self):
        p = _params(CUBIC, 0.5)
        edge = support_edge(p)
        curve = limiting_density(p, edge + 0.2, edge + 1.0, 50, eta=1e-8)
        assert np.max(curve.density) < 1e-5

    def test_grid_validation(self):
        p = _params(CUBIC, 0.5)
        with pytest.raises(ValueError):
            limiting_density(p, 1.0, 0.0, 10)
        with pytest.raises(ValueError):
            limiting_density(p, 0.0, 1.0, 1)
        for eta in (0.0, -1e-6):
            with pytest.raises(ValueError, match="eta must be positive"):
                limiting_density(p, 0.0, 1.0, 10, eta=eta)


class TestSpike:
    def test_cubic_closed_form_threshold(self):
        assert abs(beta_threshold_cubic(1.0) - 2.0 / math.sqrt(3.0)) < 1e-14
        assert abs(beta_threshold_cubic(0.25) - 4.0 / math.sqrt(3.0)) < 1e-14

    @pytest.mark.parametrize(
        "c, eps",
        [pytest.param(CUBIC, eps, id=str(eps)) for eps in (0.1, 0.25, 0.5, 1.0)]
        + [pytest.param(SKEW, eps, id=f"skew-{eps}") for eps in (0.25, 1.0)],
    )
    def test_bisection_matches_closed_form(self, c, eps):
        # Reference: the cubic closed form at equal ratios, otherwise a
        # bisection of beta on the feasibility that solve_spike reports.
        p = _params(c, eps)
        if c == CUBIC:
            reference = beta_threshold_cubic(eps)
        else:
            lo, hi = 0.3, 30.0
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                if solve_spike(replace(p, beta=mid)).feasible:
                    hi = mid
                else:
                    lo = mid
            reference = 0.5 * (lo + hi)
        assert abs(beta_threshold(p) - reference) <= 1e-6

    def test_spike_residual_and_growth(self):
        p = _params(SKEW, 0.4, beta=5.0)
        pred = solve_spike(p)
        assert pred.feasible
        assert pred.residual < 1e-10
        assert pred.sigma_inf > support_edge(p)
        # sigma_inf grows with beta.
        pred2 = solve_spike(_params(SKEW, 0.4, beta=6.0))
        assert pred2.sigma_inf > pred.sigma_inf

    def test_infeasible_below_threshold(self):
        eps = 0.25
        beta_s = beta_threshold_cubic(eps)
        pred = solve_spike(_params(CUBIC, eps, beta=0.9 * beta_s))
        assert not pred.feasible
        assert pred.q == (0.0, 0.0, 0.0)

    def test_alignment_at_transition(self):
        # Just above the threshold the alignment approaches sqrt(1/2),
        # independently of epsilon.
        target = threshold_alignment_cubic()
        assert abs(target - math.sqrt(0.5)) < 1e-15
        qs = []
        for eps in (0.25, 1.0):
            beta = beta_threshold_cubic(eps) * (1.0 + 1e-4)
            pred = solve_spike(_params(CUBIC, eps, beta=beta))
            assert pred.feasible
            qs.append(pred.q1)
            assert abs(pred.q1 - target) < 0.01
        assert abs(qs[0] - qs[1]) < 1e-6

    def test_strong_signal_alignment_goes_to_one(self):
        pred = solve_spike(_params(CUBIC, 1.0, beta=50.0))
        assert min(pred.q) > 0.999

    def test_requires_beta(self):
        with pytest.raises(ValueError):
            solve_spike(_params(CUBIC, 0.5))


class TestRealAxisReference:
    """The edge, beta_s and the spike against a 60-digit reference built on
    the t = m1 parametrization, to 8 machine epsilons (relative for the
    edge, beta_s and sigma, absolute for q)."""

    @pytest.mark.parametrize(
        "c, eps, beta",
        [
            ((0.001, 0.499, 0.5), 0.01, 25.0),
            (CUBIC, 0.25, 4.0),
            (SKEW, 0.25, 4.0),
            ((0.375, 0.03125, 0.59375), 0.5, 3.0),
            ((0.01, 0.09, 0.9), 0.05, 20.0),
            ((0.2, 0.3, 0.5), 1.0, 1.5),
            ((0.6, 0.3, 0.1), 0.7, 30.0),
            ((0.45, 0.45, 0.1), 0.1, 1.0),
        ],
    )
    def test_matches_mpmath(self, c, eps, beta):
        tol = 8.0 * np.finfo(float).eps
        p = _params(c, eps, beta=beta)
        edge, beta_s, sigma, q = _mp_real_axis(c, eps, beta)
        assert abs(support_edge(p) - edge) <= tol * edge
        assert abs(beta_threshold(p) - beta_s) <= tol * beta_s
        pred = solve_spike(p)
        assert pred.feasible == (sigma is not None)
        if pred.feasible:
            assert abs(pred.sigma_inf - sigma) <= tol * sigma
            assert all(abs(a - b) <= tol for a, b in zip(pred.q, q))


@st.composite
def _ratios(draw, lo=1e-3):
    """Mode ratios summing to 1, each at least lo, in any order."""
    c1 = draw(st.floats(lo, 1.0 - 2 * lo))
    c2 = draw(st.floats(lo, 1.0 - c1 - lo))
    return tuple(draw(st.permutations([c1, c2, 1.0 - c1 - c2])))


_EPS = st.floats(0.01, 1.0)
_BETA = st.floats(0.3, 30.0)
_PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


class TestSpikeProperties:
    """The spike and threshold solvers over the parameter box: c_min >= 1e-3,
    eps in [0.01, 1] and beta in [0.3, 30]."""

    @_PROPERTY
    @given(c=_ratios(), eps=_EPS, beta=_BETA)
    def test_single_crossing(self, c, eps, beta):
        # F changes sign at most once along the branch: no interior dip can
        # add roots that the edge test in solve_spike would miss. F is
        # evaluated by substitution into x + eps*mbar - eps*beta*q1*q2*q3,
        # with q_l from 1 - eps*m_l^2/c_l, at A = A_edge / scale from
        # A_edge to 1e8 * A_edge.
        p = _params(c, eps, beta=beta)
        A_edge = _edge_point(p.ratios, p.epsilon)[1]
        scale = np.concatenate(
            [np.linspace(1.0, 1e-3, 1000), np.geomspace(1e-3, 1e-8, 100)[1:]]
        )

        def objective(A):
            x, m, _ = _branch_at(A, c, eps)
            q = [math.sqrt(1.0 - eps * ml * ml / cl) for ml, cl in zip(m, c)]
            return x + eps * sum(m) - eps * beta * q[0] * q[1] * q[2]

        F = np.array([objective(A_edge / float(s)) for s in scale])
        assert np.count_nonzero(np.diff(F < 0.0)) <= 1
        assert F[-1] > 0.0
        assert solve_spike(p).feasible == (beta > beta_threshold(p))

    @_PROPERTY
    @given(c=_ratios(), eps=_EPS)
    def test_feasible_exactly_above_threshold(self, c, eps):
        p = _params(c, eps)
        beta_s = beta_threshold(p)
        assert not solve_spike(replace(p, beta=beta_s * (1.0 - 1e-6))).feasible
        above = solve_spike(replace(p, beta=beta_s * (1.0 + 1e-6)))
        assert above.feasible
        assert above.sigma_inf >= support_edge(p)

    @_PROPERTY
    @given(c=_ratios(), eps=_EPS)
    def test_dilation_law(self, c, eps):
        # beta_s(eps) * sqrt(eps) does not depend on eps.
        unpunctured = beta_threshold(_params(c, 1.0))
        punctured = beta_threshold(_params(c, eps)) * math.sqrt(eps)
        assert abs(punctured - unpunctured) <= 1e-10 * unpunctured


# Evaluations of f that one _newton_root solve may take; the full bisection
# takes 53 to 57.
_MAX_EVALS = 48


def _bounded_root(f, lo, hi):
    """_newton_root(f, lo, hi), failing after _MAX_EVALS evaluations of f,
    so that a loop that never ends fails instead."""
    calls = []

    def counted(A):
        calls.append(A)
        if len(calls) > _MAX_EVALS:
            raise AssertionError(f"more than {_MAX_EVALS} evaluations")
        return f(A)

    return _newton_root(counted, lo, hi)


def _assert_matches_bisection(f, lo, hi, scale):
    """_newton_root against the full bisection of f(.)[0] on (lo, hi).

    f(.)[0] is a difference of terms of size `scale`, so it rounds at a few
    ulps of `scale`, and its computed sign is noise within about
    ulp(scale) / f' of the root. The two roots agree to 4 ulps of A or of
    that band, whichever is wider (4 ulps except near a tangency)."""
    A = _bounded_root(f, lo, hi)
    ref = _bisect(lambda A: f(A)[0], lo, hi)
    band = math.ulp(scale) / f(ref)[1]
    assert abs(A - ref) <= 4.0 * max(math.ulp(ref), band), (A, ref, band)
    return A


class TestNewtonRoot:
    """_newton_root, the root finder of the edge, the branch and the spike,
    against the full bisection over the TestSpikeProperties box, with
    beta also at beta_s * (1 +- 1e-6)."""

    @_PROPERTY
    @given(c=_ratios(), eps=_EPS, beta=_BETA, near=st.sampled_from([0, 1e-6, -1e-6]))
    def test_matches_full_bisection(self, c, eps, beta, near):
        A_edge = _assert_matches_bisection(
            lambda A: _edge_slope(A, c, eps), 0.0, 2.0 * math.sqrt(eps), 1.0
        )
        assert A_edge == _edge_point(c, eps)[1]
        p = _params(c, eps)
        if near:
            beta = beta_threshold(p) * (1.0 + near)
        feasible = _spike_gap(A_edge, c, eps, beta)[0] < 0.0
        if feasible:  # counted before solve_spike runs, so a hang fails
            f = lambda A: _spike_gap(A, c, eps, beta)  # noqa: E731
            A = _assert_matches_bisection(f, A_edge, eps * beta, eps * beta)
        pred = solve_spike(replace(p, beta=beta))
        assert pred.feasible == feasible
        if feasible:
            assert pred.sigma_inf == _branch_at(A, c, eps)[0]

    def test_ends_near_the_threshold(self):
        # Here F' is about 6e-4 at the root and |F| about 1e-17: a Newton step
        # stays above 4 ulps, and the computed sign of F is noise over about
        # a thousand ulps, so the stop rule alone must end the loop.
        c = (0.0009994033831297955, 0.224884751097652, 0.7741158455192183)
        eps = 0.09504532206680555
        beta = beta_threshold(_params(c, eps)) * (1.0 + 1e-6)
        A_edge = _edge_point(c, eps)[1]
        f = lambda A: _spike_gap(A, c, eps, beta)  # noqa: E731
        A = _assert_matches_bisection(f, A_edge, eps * beta, eps * beta)
        pred = solve_spike(_params(c, eps, beta=beta))
        assert pred.sigma_inf == _branch_at(A, c, eps)[0]

    def test_branch_matches_full_bisection(self):
        # x(A) - x is flat at the edge, so the band widens as x nears it;
        # at the edge itself the branch point is the edge's own.
        for c, eps in ((SKEW, 0.4), (CUBIC, 0.25), ((0.001, 0.499, 0.5), 0.01)):
            p = _params(c, eps)
            edge, A_edge = _edge_point(c, eps)
            assert real_branch_stieltjes(edge, p).z == edge
            for x in (edge * 1.001, edge * 1.1, edge + 1.0, 1e3):

                def gap(A):
                    x_A, _, _ = _branch_at(A, c, eps)
                    return x_A - x, 0.5 * _edge_slope(A, c, eps)[0]

                A = _assert_matches_bisection(gap, A_edge, x, x)
                assert real_branch_stieltjes(x, p).z == _branch_at(A, c, eps)[0]


def _halving_stieltjes(z, c, eps):
    """The cold start before 1/16 stages, kept as the reference: from
    -c/z' at Im z' = +-max(1, |Im z|), halve Im z' down to Im z with one
    _newton solve per stage."""
    eta = math.copysign(max(1.0, abs(z.imag)), z.imag)
    m = tuple(-cl / complex(z.real, eta) for cl in c)
    while True:
        stage = complex(z.real, eta) if abs(eta) > 1.999 * abs(z.imag) else z
        sol = _newton(stage, c, eps, m)
        assert sol is not None, stage
        if stage == z:
            return sol
        m = sol.values
        eta *= 0.5


_STIELTJES_PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


class TestStieltjesProperties:
    """The Newton solve of the fixed point, cold-started, over the box
    c_min >= 1e-3, eps in [0.01, 1], x in [-3, 3] and Im z in [1e-6, 1]."""

    @_STIELTJES_PROPERTY
    @given(
        c=_ratios(),
        eps=_EPS,
        x=st.floats(-3.0, 3.0),
        log_eta=st.floats(-6.0, 0.0),
    )
    @example(c=(0.375, 0.03125, 0.59375), eps=0.5, x=0.0, log_eta=-3.0)
    @example(c=(0.375, 0.03125, 0.59375), eps=0.5, x=0.0, log_eta=-6.0)
    def test_residual_and_herglotz_sign(self, c, eps, x, log_eta):
        # The examples sit on the atom at 0 (c3 > 1/2), where |m3| ~ 1/Im z.
        sol = solve_stieltjes(complex(x, 10.0 ** log_eta), _params(c, eps))
        assert _residual_by_substitution(sol, c, eps) <= 1e-12
        assert all(m.imag > 0 for m in sol.values)

    @_STIELTJES_PROPERTY
    @given(c=_ratios(), eps=_EPS, gap=st.floats(1e-3, 3.0))
    def test_real_branch_is_complex_limit(self, c, eps, gap):
        p = _params(c, eps)
        x = support_edge(p) + gap
        real_sol = real_branch_stieltjes(x, p)
        cplx = solve_stieltjes(complex(x, 1e-9), p)
        for a, b in zip(real_sol.values, cplx.values):
            assert abs(a.real - b.real) <= 1e-8 * abs(a.real)

    @_STIELTJES_PROPERTY
    @given(
        c=_ratios(),
        eps=_EPS,
        x=st.floats(-3.0, 3.0),
        log_eta=st.floats(-6.0, 0.0),
    )
    def test_cold_start_matches_halving(self, c, eps, x, log_eta):
        # Within Im z of the cusp at 0 (c_max = 1/2), neither solve holds
        # 1e-13: test_cold_start_at_the_cusp checks the 40-digit reference.
        assume(abs(max(c) - 0.5) >= 1e-3 or abs(x) >= 0.05)
        z = complex(x, 10.0 ** log_eta)
        sol = solve_stieltjes(z, _params(c, eps))
        ref = _halving_stieltjes(z, c, eps)
        for m, r in zip(sol.values, ref.values):
            assert abs(m - r) <= 1e-13 * abs(r)

    @pytest.mark.parametrize("c, eps, z", [
        ((0.5, 0.125, 0.375), 1.0, 1e-5j),
        ((0.5, 0.4583454890617302, 0.04165451093826977), 0.7873224528374096,
         1.045486069552881e-06j),
        ((0.44631389240958597, 0.053678686355956295, 0.5000074212344577), 1.0,
         1.1684153334116912e-06j),
    ])
    def test_cold_start_at_the_cusp(self, c, eps, z):
        # At c_max = 1/2 the density grows like |x|^(-1/3) at 0, and within
        # Im z of it the fixed point is ill-conditioned: the cold start and
        # the halving continuation each miss the reference by up to 9e-13
        # and disagree by up to 1e-12, neither one the better.
        sol = solve_stieltjes(z, _params(c, eps))
        for m, r in zip(sol.values, _mp_stieltjes(z, c, eps)):
            assert abs(m - r) <= 2e-12 * abs(r)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(c=_ratios(0.02), eps=st.floats(0.05, 1.0))
    def test_density_mass(self, c, eps):
        # The density integrates to 1: a = max(0, 2*c_max - 1) sits in the
        # atom at 0, which shows up at eta > 0 as the Lorentzian
        # a*eta / (pi*(x^2 + eta^2)); the rest is continuous. At c_max = 1/2
        # the continuous part diverges like |x|^(-1/3) at 0, which the
        # 2001-point trapezoid cannot integrate (off by 0.03-0.05 there,
        # 2.6e-3 at c_max = 0.501), so that band is left out.
        assume(abs(max(c) - 0.5) >= 1e-3)
        p = _params(c, eps)
        edge = support_edge(p)
        eta = 1e-7
        curve = limiting_density(p, -1.05 * edge, 1.05 * edge, 2001, eta=eta)
        atom = max(0.0, 2.0 * max(c) - 1.0)
        lorentz = atom * eta / (math.pi * (curve.grid**2 + eta**2))
        mass = float(np.trapezoid(curve.density - lorentz, curve.grid))
        assert abs(mass - (1.0 - atom)) <= 5e-3


class TestUniversality:
    def test_map_fields(self):
        p = _params(SKEW, 0.25, beta=4.0)
        q = universality_map(p)
        assert q.epsilon == 1.0
        assert abs(q.beta - 2.0) < 1e-15
        assert q.ratios == p.ratios

    @pytest.mark.parametrize("seed", range(5))
    def test_alignments_and_sigma_dilation(self, seed):
        # q_l is invariant and sigma_inf picks up a sqrt(eps) factor under
        # (eps, beta) -> (1, sqrt(eps) beta).
        gen = np.random.default_rng(seed)
        raw = gen.uniform(0.1, 1.0, size=3)
        c = tuple(raw / raw.sum())
        eps = float(gen.uniform(0.15, 0.95))
        beta = float(gen.uniform(1.0, 3.0))
        p = _params(c, eps, beta=beta)
        while not solve_spike(p).feasible:
            beta *= 2.0
            p = _params(c, eps, beta=beta)
        a = solve_spike(p)
        b = solve_spike(universality_map(p))
        assert abs(a.q1 - b.q1) < 1e-8
        assert abs(a.q2 - b.q2) < 1e-8
        assert abs(a.q3 - b.q3) < 1e-8
        assert abs(a.sigma_inf - math.sqrt(eps) * b.sigma_inf) < 1e-8


class TestEpsilonThreshold:
    def test_skew_edge_setting(self):
        eps_s = epsilon_threshold(2.5, SKEW)
        assert eps_s is not None
        assert abs(eps_s - 0.17) < 0.01

    def test_none_when_beta_too_small(self):
        assert epsilon_threshold(0.5, CUBIC) is None

    def test_cubic_consistency(self):
        # At c cubic the epsilon threshold inverts the closed-form beta
        # threshold: beta_s(eps_s) == beta.
        beta = 3.0
        eps_s = epsilon_threshold(beta, CUBIC)
        assert abs(beta_threshold_cubic(eps_s) - beta) < 1e-4

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            epsilon_threshold(0.0, CUBIC)
