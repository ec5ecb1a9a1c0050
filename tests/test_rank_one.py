import warnings

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
    scan_restarts,
    solve_critical_point,
)
from punctured_tensor import rank_one
from punctured_tensor.tensor_core import (
    DimensionMismatchError,
    contract_full,
    contract_one,
)

EPS32 = float(np.finfo(np.float32).eps)


def _masked_instance(shape, beta, epsilon, seed):
    sig = SignalTriple.random(shape, beta, RngSeed(seed, 0))
    t = generate_spiked(shape, sig, RngSeed(seed, 1))
    m = sample_mask(shape, epsilon, RngSeed(seed, 2))
    return hadamard(t, m), t, m, sig


def _noiseless(sig):
    """The pure spike beta * x (x) y (x) z."""
    return Tensor3(sig.beta * np.einsum("i,j,k->ijk", sig.x, sig.y, sig.z))


class TestExactRankOne:
    def test_noiseless_full_mask(self):
        # On beta x(x)y(x)z with no noise and full mask the planted point is
        # an exact fixed point: sigma == beta, factors recovered exactly.
        sh = Shape3(6, 7, 8)
        sig = SignalTriple.random(sh, 3.0, RngSeed(42))
        t = _noiseless(sig)
        cp = solve_critical_point(t, SolverConfig(reference=sig))
        assert abs(cp.sigma - 3.0) < 1e-12
        assert max(np.max(np.abs(cp.u - sig.x)), np.max(np.abs(cp.v - sig.y)),
                   np.max(np.abs(cp.w - sig.z))) < 1e-10

    def test_random_init_recovers_noiseless(self):
        sh = Shape3(6, 7, 8)
        sig = SignalTriple.random(sh, 2.0, RngSeed(5))
        t = _noiseless(sig)
        gen = RngSeed(6).generator()
        start = tuple(gen.standard_normal(n) for n in sh.dims)
        cp = solve_critical_point(t, SolverConfig(factors=start, reference=sig))
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

    def test_factor_lengths_checked(self):
        tm, _, _, _ = _masked_instance(Shape3(4, 5, 6), 2.0, 0.6, 5)
        bad = (np.ones(4), np.ones(5), np.ones(7))
        with pytest.raises(DimensionMismatchError):
            solve_critical_point(tm, SolverConfig(factors=bad))
        with pytest.raises(DimensionMismatchError):
            first_order_residual(tm, CriticalPoint(1.0, *bad))


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

    def test_zero_start_is_named(self):
        # An all-zero tensor: the scan keeps zero factors, and the solve
        # rejects that start before any product is taken, without numpy's
        # 0/0 warning.
        tm = Tensor3(np.zeros((4, 5, 6)))
        gen = RngSeed(3).generator()
        starts = [tuple(gen.standard_normal(n) for n in (4, 5, 6)) for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best = scan_restarts(tm, starts, 4)[0]
            with pytest.raises(DegeneratePointError, match="zero start factor u"):
                solve_critical_point(tm, SolverConfig(factors=best[1:]))

    def test_supplied_init(self):
        tm, _, _, sig = _masked_instance(Shape3(10, 11, 12), 4.0, 0.6, 4)
        base = solve_critical_point(tm, SolverConfig(reference=sig))
        cp = solve_critical_point(tm, SolverConfig(factors=(base.u, base.v, base.w)))
        assert cp.iterations <= 3
        assert abs(cp.sigma - base.sigma) < 1e-11

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig()  # neither factors nor a reference to start from

    def test_factors_win_over_reference(self):
        # Orthogonal components: both planted triples are exact fixed points
        # (sigma 3 and 2), so the result shows which one the solve started at.
        sh = Shape3(5, 6, 7)
        gen = RngSeed(3).generator()
        q = [np.linalg.qr(gen.standard_normal((n, 2)))[0] for n in sh.dims]
        first = SignalTriple(q[0][:, 0], q[1][:, 0], q[2][:, 0], 3.0)
        second = tuple(m[:, 1] for m in q)
        t = Tensor3(
            3.0 * np.einsum("i,j,k->ijk", first.x, first.y, first.z)
            + 2.0 * np.einsum("i,j,k->ijk", *second)
        )
        for cfg in (
            SolverConfig(factors=second),
            SolverConfig(factors=second, reference=first),
        ):
            cp = solve_critical_point(t, cfg)
            assert abs(cp.sigma - 2.0) < 1e-12
            assert abs(abs(float(second[0] @ cp.u)) - 1.0) < 1e-12
        cp = solve_critical_point(t, SolverConfig(reference=first))
        assert abs(cp.sigma - 3.0) < 1e-12

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


def _old_polish(tm, cfg):
    """Reference polish: the solver's sweeps and check gate, with every check
    rebuilding both contractions from fresh contract_one calls.

    Returns (sigma, u, v, w, residual, iterations) or raises ConvergenceError.
    """
    if cfg.factors is None:
        u, v, w = cfg.reference.x, cfg.reference.y, cfg.reference.z
    else:
        u, v, w = (f / np.linalg.norm(f) for f in cfg.factors)
    sigma_prev = -np.inf
    for it in range(1, cfg.max_iter + 1):
        M3 = contract_one(tm, 3, w)
        u = M3 @ v / np.linalg.norm(M3 @ v)
        v = M3.T @ u / np.linalg.norm(M3.T @ u)
        M1 = contract_one(tm, 1, u)
        w = M1.T @ v
        sigma = float(np.linalg.norm(w))
        w = w / sigma
        near_fixed = abs(sigma - sigma_prev) <= 10.0 * cfg.tol * max(1.0, sigma)
        sigma_prev = sigma
        if near_fixed or it == cfg.max_iter or it % 200 == 0:
            F3, F1 = contract_one(tm, 3, w), contract_one(tm, 1, u)
            residual = max(
                np.max(np.abs(F3 @ v - sigma * u)),
                np.max(np.abs(F3.T @ u - sigma * v)),
                np.max(np.abs(F1.T @ v - sigma * w)),
            )
            if residual <= cfg.tol:
                if cfg.reference is not None and float(cfg.reference.x @ u) < 0:
                    u, v = -u, -v
                return sigma, u, v, w, residual, it
    raise ConvergenceError("no convergence", residual=residual)


def _random_start(shape, seed):
    gen = RngSeed(seed, 9).generator()
    return tuple(gen.standard_normal(n) for n in shape)


class TestPolishReusesContractions:
    """One sweep streams the tensor twice; the residual check adds no pass."""

    def _cases(self):
        sh = Shape3(15, 20, 25)
        fast, _, _, sig = _masked_instance(sh, 4.0, 0.8, 0)
        starts = [_random_start(sh.dims, r) for r in range(4)]
        scanned = scan_restarts(fast, starts, 20)[0][1:]
        slow, _, _, _ = _masked_instance(sh, 2.0, 0.15, 2)
        slow_start = _random_start(sh.dims, 2)
        return [
            ("planted", fast, SolverConfig(tol=1e-10, reference=sig), None),
            ("scanned", fast, SolverConfig(tol=1e-4, factors=scanned), 2),
            ("slow", slow, SolverConfig(tol=1e-6, factors=slow_start), None),
        ]

    def test_bit_identical_to_old_loop(self):
        for name, tm, cfg, sweeps in self._cases():
            cp = solve_critical_point(tm, cfg)
            sigma, u, v, w, residual, iterations = _old_polish(tm, cfg)
            assert cp.sigma == sigma, name
            assert np.array_equal(cp.u, u), name
            assert np.array_equal(cp.v, v), name
            assert np.array_equal(cp.w, w), name
            assert cp.residual == residual, name
            assert cp.iterations == iterations, name
            if sweeps is not None:
                assert cp.iterations == sweeps, name
            if name == "slow":
                # Past the it % 200 check, which did not return.
                assert cp.iterations > 200

    @pytest.mark.parametrize("max_iter", [1, 250])
    def test_convergence_error_residual_unchanged(self, max_iter):
        tm, _, _, _ = _masked_instance(Shape3(15, 20, 25), 2.0, 0.15, 2)
        cfg = SolverConfig(
            tol=1e-8, max_iter=max_iter, factors=_random_start((15, 20, 25), 2)
        )
        with pytest.raises(ConvergenceError) as new:
            solve_critical_point(tm, cfg)
        with pytest.raises(ConvergenceError) as old:
            _old_polish(tm, cfg)
        assert new.value.residual == old.value.residual

    def test_tensor_passes(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return contract_one(*args, **kwargs)

        monkeypatch.setattr(rank_one, "contract_one", counted)
        for name, tm, cfg, _ in self._cases():
            calls.clear()
            cp = solve_critical_point(tm, cfg)
            assert len(calls) == 2 * cp.iterations + 1, name
            calls.clear()
            first_order_residual(tm, cp)
            assert sorted(calls) == [1, 3], name


def _scan64(tm, starts, sweeps):
    """Float64 reference scan: each start alone; returns the max-sigma one."""
    best = (-1.0,)
    for u, v, w in starts:
        u, v, w = (f / np.linalg.norm(f) for f in (u, v, w))
        for _ in range(sweeps):
            M3 = contract_one(tm, 3, w)
            u = M3 @ v / np.linalg.norm(M3 @ v)
            v = M3.T @ u / np.linalg.norm(M3.T @ u)
            w = contract_one(tm, 1, u).T @ v
            sigma = np.linalg.norm(w)
            w = w / sigma
        best = max(best, (sigma, u, v, w), key=lambda r: r[0])
    return best


class TestScanRestarts:
    def test_batch_matches_single_starts(self):
        tm, _, _, _ = _masked_instance(Shape3(8, 9, 10), 2.0, 0.6, 5)
        gen = RngSeed(8).generator()
        starts = [
            tuple(gen.standard_normal(n) for n in tm.shape.dims) for _ in range(5)
        ]
        ranked = scan_restarts(tm, starts, 7)
        sigmas = [r[0] for r in ranked]
        assert sigmas == sorted(sigmas, reverse=True)
        # Restarts advance independently: the batch is the single-start
        # scans, ranked by sigma.
        singles = sorted(
            (scan_restarts(tm, [s], 7)[0] for s in starts), key=lambda r: -r[0]
        )
        # The scan runs in float32; the factors may differ by a float32
        # rounding (2 eps32), sigma no more than 1e-12.
        for got, want in zip(ranked, singles):
            assert abs(got[0] - want[0]) <= 1e-12
            for a, b in zip(got[1:], want[1:]):
                assert a.dtype == np.float64
                assert np.max(np.abs(a - b)) <= 2 * EPS32
                assert abs(np.linalg.norm(a) - 1.0) <= 1e-15
            assert abs(got[0] - contract_full(tm, *got[1:])) <= 1e-12

    @pytest.mark.parametrize(
        "dims, beta, eps",
        [((10, 12, 14), 0.5, 0.5), ((15, 20, 25), 1.0, 0.4),
         ((8, 16, 30), 0.8, 0.6), ((12, 12, 12), 0.0, 1.0),
         ((20, 20, 20), 1.2, 0.3)],
    )
    def test_float32_pick_matches_float64_reference(self, dims, beta, eps):
        # After the float64 polish, the float32 scan's pick reaches the same
        # critical point as a float64 scan that runs each start on its own.
        # The instances sit near or below the threshold: polished on their
        # own, their 8 starts reach 3 to 5 different critical points.
        tm, _, _, _ = _masked_instance(Shape3(*dims), beta, eps, 0)
        gen = RngSeed(0, 9).generator()
        starts = [tuple(gen.standard_normal(n) for n in dims) for _ in range(8)]
        polished = [
            solve_critical_point(
                tm, SolverConfig(tol=1e-12, max_iter=100_000, factors=pick[1:])
            )
            for pick in (scan_restarts(tm, starts, 30)[0], _scan64(tm, starts, 30))
        ]
        a, b = polished
        assert abs(a.sigma - b.sigma) <= 1e-12
        overlap = min(
            abs(float(x @ y)) for x, y in zip((a.u, a.v, a.w), (b.u, b.v, b.w))
        )
        assert overlap > 1.0 - 1e-10

    def test_zero_tensor(self):
        # eps = 0 masks every entry: every restart keeps zero factors and
        # sigma 0 instead of turning into NaN.
        tm, _, _, _ = _masked_instance(Shape3(4, 5, 6), 2.0, 0.0, 5)
        assert not np.any(tm.values)
        gen = RngSeed(3).generator()
        starts = [tuple(gen.standard_normal(n) for n in (4, 5, 6)) for _ in range(3)]
        ranked = scan_restarts(tm, starts, 4)
        assert [r[0] for r in ranked] == [0.0, 0.0, 0.0]
        for r in ranked:
            assert all(np.all(np.isfinite(f)) for f in r[1:])

    def test_rejects_bad_input(self):
        tm, _, _, _ = _masked_instance(Shape3(4, 5, 6), 2.0, 0.6, 5)
        good = tuple(np.ones(n) for n in (4, 5, 6))
        with pytest.raises(DimensionMismatchError):
            scan_restarts(tm, [(np.ones(4), np.ones(5), np.ones(7))], 3)
        # Starts whose lengths differ from each other, not only from the dims.
        with pytest.raises(DimensionMismatchError):
            scan_restarts(tm, [good, (np.ones(4), np.ones(5), np.ones(7))], 3)
        with pytest.raises(ValueError):
            scan_restarts(tm, [good], 0)

    def test_rejects_tensor_that_overflows_float32(self):
        # The float64 tensor is finite, but its float32 ranking copy is not:
        # the error says so, and numpy's cast warning is not emitted.
        vals = np.zeros((4, 5, 6))
        vals[1, 2, 3] = 1e39
        good = tuple(np.ones(n) for n in (4, 5, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite") as err:
                scan_restarts(Tensor3(vals), [good], 3)
        assert "float32 copy overflowed" in str(err.value)


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
