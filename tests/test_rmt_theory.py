import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from punctured_tensor.rmt_theory import (
    OutsideSupportError,
    _edge_point,
    _spike_objective,
)

CUBIC = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
SKEW = (0.1, 0.2, 0.7)


def _params(c, eps, beta=None):
    return ModelParams(c[0], c[1], c[2], eps, beta=beta)


def _residual_by_substitution(sol, c, eps):
    """Plug (m1, m2, m3) back into the three coupled equations."""
    res = 0.0
    mbar = sol.mbar
    for m, cl in zip(sol.values, c):
        res = max(res, abs(eps * m * (mbar - m) + sol.z * m + cl))
    return res


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

    def test_rejects_real_z(self):
        with pytest.raises(ValueError):
            solve_stieltjes(3.0, _params(CUBIC, 0.5))


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


@st.composite
def _ratios(draw):
    """Mode ratios summing to 1, each at least 1e-3, in any order."""
    c1 = draw(st.floats(1e-3, 1.0 - 2e-3))
    c2 = draw(st.floats(1e-3, 1.0 - c1 - 1e-3))
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
        # add roots that the edge test in solve_spike would miss.
        p = _params(c, eps, beta=beta)
        t_edge = _edge_point(p.ratios, p.epsilon)[1]
        scale = np.concatenate(
            [np.linspace(1.0, 1e-3, 1000), np.geomspace(1e-3, 1e-8, 100)[1:]]
        )
        F = np.array([_spike_objective(t_edge * s, p, beta)[0] for s in scale])
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


_STIELTJES_PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


class TestStieltjesProperties:
    """The fixed point at its constant damping, tolerance and iteration
    budget over the box c_min >= 1e-3, eps in [0.01, 1], x in [-3, 3] and
    Im z in [1e-6, 1]."""

    @_STIELTJES_PROPERTY
    @given(
        c=_ratios(),
        eps=_EPS,
        x=st.floats(-3.0, 3.0),
        log_eta=st.floats(-6.0, 0.0),
    )
    @example(c=(0.375, 0.03125, 0.59375), eps=0.5, x=0.0, log_eta=-3.0)
    def test_residual_and_herglotz_sign(self, c, eps, x, log_eta):
        sol = solve_stieltjes(complex(x, 10.0 ** log_eta), _params(c, eps))
        # Evaluating mbar - m_l rounds at u * |mbar|, so the residual has a
        # floor of about u * eps * |m_l| * |mbar|. It matters only near the
        # atom at 0 (c_max > 1/2), where |m_l| grows like 1 / Im z.
        big = max(abs(m) for m in sol.values)
        floor = 8.0 * np.finfo(float).eps * eps * big * abs(sol.mbar)
        assert _residual_by_substitution(sol, c, eps) <= 1e-12 + floor
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
