import numpy as np
import pytest

from punctured_tensor import (
    ConvergenceError,
    CriticalPoint,
    DegeneratePointError,
    RngSeed,
    Shape3,
    SignalTriple,
    SolverConfig,
    Tensor3,
    alignments,
    generate_spiked,
    hadamard,
    heuristic1_diagnostic,
    first_order_residual,
    sample_mask,
    solve_critical_point,
)
from punctured_tensor.tensor_core import DimensionMismatchError, contract_full


def _masked_instance(shape, beta, epsilon, seed):
    sig = SignalTriple.random(shape, beta, RngSeed(seed, 0))
    t = generate_spiked(shape, sig, RngSeed(seed, 1))
    m = sample_mask(shape, epsilon, RngSeed(seed, 2))
    return hadamard(t, m), t, m, sig


class TestExactRankOne:
    def test_noiseless_full_mask(self):
        # On beta x(x)y(x)z with no noise and full mask the planted point is
        # an exact fixed point: sigma == beta, factors recovered exactly.
        sh = Shape3(6, 7, 8)
        sig = SignalTriple.random(sh, 3.0, RngSeed(42))
        t = generate_spiked(sh, sig, RngSeed(0), noise=np.zeros(sh.dims))
        cp = solve_critical_point(t, SolverConfig(reference=sig))
        assert abs(cp.sigma - 3.0) < 1e-12
        assert max(np.max(np.abs(cp.u - sig.x)), np.max(np.abs(cp.v - sig.y)),
                   np.max(np.abs(cp.w - sig.z))) < 1e-10

    def test_random_init_recovers_noiseless(self):
        sh = Shape3(6, 7, 8)
        sig = SignalTriple.random(sh, 2.0, RngSeed(5))
        t = generate_spiked(sh, sig, RngSeed(0), noise=np.zeros(sh.dims))
        gen = RngSeed(6).generator()
        start = tuple(gen.standard_normal(n) for n in sh.dims)
        cp = solve_critical_point(
            t, SolverConfig(init="supplied", factors=start, reference=sig)
        )
        al = alignments(cp, sig)
        assert min(al) > 1.0 - 1e-10
        assert abs(cp.sigma - 2.0) < 1e-10


class TestFixedPointEquations:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_below_tol(self, seed):
        tm, _, _, sig = _masked_instance(Shape3(15, 20, 25), 4.0, 0.5, seed)
        cp = solve_critical_point(tm, SolverConfig(tol=1e-12, reference=sig))
        # first_order_residual is the independent defect check, recomputed from
        # scratch via mode contractions on the masked tensor.
        assert first_order_residual(tm, cp) <= 1e-12

    def test_sigma_equals_contraction(self):
        tm, _, _, sig = _masked_instance(Shape3(12, 14, 16), 5.0, 0.7, 3)
        cp = solve_critical_point(tm, SolverConfig(reference=sig))
        assert abs(cp.sigma - abs(contract_full(tm, cp.u, cp.v, cp.w))) < 1e-12

    def test_factors_unit_norm(self):
        tm, _, _, sig = _masked_instance(Shape3(10, 10, 10), 4.0, 0.5, 7)
        cp = solve_critical_point(tm, SolverConfig(reference=sig))
        for f in (cp.u, cp.v, cp.w):
            assert abs(np.linalg.norm(f) - 1.0) < 1e-12

    def test_sign_convention(self):
        tm, _, _, sig = _masked_instance(Shape3(10, 12, 14), 4.0, 0.5, 9)
        cp = solve_critical_point(tm, SolverConfig(reference=sig))
        assert float(sig.x @ cp.u) >= 0.0


class TestSolverControls:
    def test_convergence_error_carries_residual(self):
        tm, _, _, sig = _masked_instance(Shape3(15, 20, 25), 4.0, 0.5, 1)
        with pytest.raises(ConvergenceError) as err:
            solve_critical_point(tm, SolverConfig(max_iter=1, reference=sig))
        assert err.value.residual is not None and err.value.residual > 0

    def test_degenerate_zero_tensor(self):
        tm = Tensor3(np.zeros((4, 5, 6)))
        sig = SignalTriple.random(Shape3(4, 5, 6), 1.0, RngSeed(0))
        with pytest.raises(DegeneratePointError):
            solve_critical_point(tm, SolverConfig(reference=sig))

    def test_supplied_init(self):
        tm, _, _, sig = _masked_instance(Shape3(10, 11, 12), 4.0, 0.6, 4)
        base = solve_critical_point(tm, SolverConfig(reference=sig))
        cp = solve_critical_point(
            tm,
            SolverConfig(init="supplied", factors=(base.u, base.v, base.w)),
        )
        assert cp.iterations <= 3
        assert abs(cp.sigma - base.sigma) < 1e-11

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(init="warm")
        with pytest.raises(ValueError):
            solve_critical_point(
                Tensor3(np.ones((2, 2, 2))), SolverConfig(init="planted")
            )
        with pytest.raises(ValueError):
            solve_critical_point(
                Tensor3(np.ones((2, 2, 2))), SolverConfig(init="random")
            )

    def test_monotone_objective(self):
        # sigma recorded each sweep must be nondecreasing up to summation slack.
        tm, _, _, sig = _masked_instance(Shape3(20, 20, 20), 3.0, 0.4, 11)
        sigmas = []
        u, v, w = sig.x.copy(), sig.y.copy(), sig.z.copy()
        A = tm.values
        A2 = A.reshape(20, 400)
        for _ in range(60):
            M3 = A @ w
            u = M3 @ v
            u /= np.linalg.norm(u)
            v = M3.T @ u
            v /= np.linalg.norm(v)
            wv = ((u @ A2).reshape(20, 20)).T @ v
            sigma = np.linalg.norm(wv)
            w = wv / sigma
            sigmas.append(sigma)
        diffs = np.diff(sigmas)
        assert np.all(diffs >= -1e-12)


class TestAlignments:
    def test_matches_direct_dot(self):
        tm, _, _, sig = _masked_instance(Shape3(12, 12, 12), 5.0, 0.8, 2)
        cp = solve_critical_point(tm, SolverConfig(reference=sig))
        al = alignments(cp, sig)
        direct = (abs(sig.x @ cp.u), abs(sig.y @ cp.v), abs(sig.z @ cp.w))
        assert al == pytest.approx(direct, abs=0.0)
        assert all(0.0 <= a <= 1.0 + 1e-12 for a in al)

    def test_shape_mismatch(self):
        cp = CriticalPoint(1.0, np.ones(3) / np.sqrt(3), np.ones(4) / 2.0,
                           np.ones(5) / np.sqrt(5))
        sig = SignalTriple.random(Shape3(3, 4, 6), 1.0, RngSeed(0))
        with pytest.raises(DimensionMismatchError):
            alignments(cp, sig)


class TestHeuristicDiagnostic:
    def test_full_mask_is_exact(self):
        sh = Shape3(10, 11, 12)
        sig = SignalTriple.random(sh, 4.0, RngSeed(1))
        t = generate_spiked(sh, sig, RngSeed(2))
        m = sample_mask(sh, 1.0, RngSeed(3))
        cp = solve_critical_point(hadamard(t, m), SolverConfig(reference=sig))
        assert heuristic1_diagnostic(t, m, cp) < 1e-12

    def test_gap_shrinks_with_dimension(self):
        # The mask-independence heuristic predicts the gap vanishes as the
        # dimensions grow; check a decreasing trend of seed-averaged gaps.
        means = []
        for n in (10, 25, 60):
            gaps = []
            for seed in range(20):
                sh = Shape3(n, n, n)
                tm, t, m, sig = _masked_instance(sh, 4.0, 0.5, 1000 + seed)
                cp = solve_critical_point(tm, SolverConfig(reference=sig))
                gaps.append(heuristic1_diagnostic(t, m, cp))
            means.append(np.mean(gaps))
        assert means[2] < means[1] < means[0]
