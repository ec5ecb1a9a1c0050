import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    build_phi,
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

from conftest import dense

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

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_start_is_certified_within_five_passes(self, seed):
        # A start at a converged point is within tol after the sweep's 3
        # passes and needs only Phi's one more for the certificate: max_iter
        # 2 (5 passes) returns it without a step, max_iter 1 (3 passes)
        # leaves no pass for Phi and raises.
        tm, _, _, sig = _masked_instance(Shape3(10, 20, 70), 5.0, 0.6, seed)
        base = solve_critical_point(tm, SolverConfig(reference=sig))
        warm = SolverConfig(factors=(base.u, base.v, base.w))
        cp = solve_critical_point(tm, replace(warm, max_iter=2))
        assert cp.newton_steps == 0
        assert abs(cp.sigma - base.sigma) < 1e-12
        with pytest.raises(ConvergenceError, match="3 tensor passes"):
            solve_critical_point(tm, replace(warm, max_iter=1))

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
    """Reference polish: the power-sweep loop and residual-check gate that
    the solver ran before its Newton finish, with every check rebuilding
    both contractions from fresh contract_one calls.

    Returns (sigma, u, v, w, residual, iterations, sweep of the first
    residual check) or raises ConvergenceError.
    """
    if cfg.factors is None:
        u, v, w = cfg.reference.x, cfg.reference.y, cfg.reference.z
    else:
        u, v, w = (f / np.linalg.norm(f) for f in cfg.factors)
    sigma_prev = -np.inf
    first = None
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
            first = first or it
            F3, F1 = contract_one(tm, 3, w), contract_one(tm, 1, u)
            residual = max(
                np.max(np.abs(F3 @ v - sigma * u)),
                np.max(np.abs(F3.T @ u - sigma * v)),
                np.max(np.abs(F1.T @ v - sigma * w)),
            )
            if residual <= cfg.tol:
                if cfg.reference is not None and float(cfg.reference.x @ u) < 0:
                    u, v = -u, -v
                return sigma, u, v, w, residual, it, first
    raise ConvergenceError("no convergence", residual=residual)


def _random_start(shape, seed):
    gen = RngSeed(seed, 9).generator()
    return tuple(gen.standard_normal(n) for n in shape)


def _sigma_gap(tm, a, b):
    """|tm(u, v, w) at a's factors - the same at b's| for two points."""
    return abs(contract_full(tm, *a[1:4]) - contract_full(tm, *b[1:4]))


def _factor_gap(a, b):
    """Max-norm distance between the factors of two (sigma, u, v, w, ...) points."""
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a[1:4], b[1:4]))


class TestPolishReusesContractions:
    """One sweep streams the tensor three times; the residual adds no pass.
    A shifted Newton step streams it twice, and Phi at each point the
    Newton finish keeps, its start included, once more."""

    def _cases(self):
        """(name, tensor, config, Newton outcome): "certified" when the
        finish returns the sweep's point without a step, "finished" when it
        steps to its point."""
        sh = Shape3(15, 20, 25)
        fast, _, _, sig = _masked_instance(sh, 4.0, 0.8, 0)
        starts = [_random_start(sh.dims, r) for r in range(4)]
        scanned = scan_restarts(fast, starts, 20)[0][1:]
        slow, _, _, _ = _masked_instance(sh, 2.0, 0.15, 2)
        slow_start = _random_start(sh.dims, 2)
        weak, _, _, _ = _masked_instance(sh, 0.5, 0.8, 21)
        weak_start = _random_start(sh.dims, 21)
        return [
            ("planted", fast, SolverConfig(tol=1e-10, reference=sig), "finished"),
            ("scanned", fast, SolverConfig(tol=1e-4, factors=scanned), "certified"),
            ("slow", slow, SolverConfig(tol=1e-6, factors=slow_start), "finished"),
            ("crawl", weak, SolverConfig(tol=1e-6, factors=weak_start), "finished"),
        ]

    def test_bit_identical_to_old_loop(self):
        # Every solve hands over to the finish after one sweep, before the
        # old loop's first residual check. A point the finish certifies
        # without a step is the old loop's point after one sweep, bit for
        # bit. A point it steps to is no farther from the old loop's
        # tol-1e-14 point than the old loop's own point at the same tol;
        # sigma is tm(u, v, w) at each point's factors, so the comparison
        # does not mix the finish's formula with the sweep's norm.
        for name, tm, cfg, newton in self._cases():
            cp = solve_critical_point(tm, cfg)
            old = _old_polish(tm, cfg)
            sigma, u, v, w, residual, iterations, first = old
            assert (cp.newton_steps > 0) == (newton == "finished"), name
            assert cp.iterations == 1 < first <= iterations, name
            if newton == "finished":
                ref = _old_polish(tm, replace(cfg, tol=1e-14, max_iter=100_000))
                assert cp.residual <= cfg.tol, name
                got = (cp.sigma, cp.u, cp.v, cp.w)
                assert _sigma_gap(tm, got, ref) <= _sigma_gap(tm, old, ref), name
                assert _factor_gap(got, ref) <= _factor_gap(old, ref), name
            else:
                sigma, u, v, w, residual, _, _ = _old_polish(
                    tm, replace(cfg, max_iter=1))
                assert cp.sigma == sigma, name
                assert np.array_equal(cp.u, u), name
                assert np.array_equal(cp.v, v), name
                assert np.array_equal(cp.w, w), name
                assert cp.residual == residual, name
            if name == "slow":
                # The old loop goes past the it % 200 check, which did not return.
                assert iterations > 200

    def test_crawl_ends_in_half_the_passes(self, monkeypatch):
        # The seed-21 instance crawls: the old loop needs 174 sweeps at tol
        # 1e-6, and a single Newton try there is rejected. The shifted
        # finish keeps stepping and returns a certified local maximum in
        # under half the passes of those sweeps alone.
        (_, tm, cfg, _), = (c for c in self._cases() if c[0] == "crawl")
        old_sweeps = _old_polish(tm, cfg)[5]
        assert old_sweeps == 174
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return contract_one(*args, **kwargs)

        monkeypatch.setattr(rank_one, "contract_one", counted)
        cp = solve_critical_point(tm, cfg)
        assert cp.newton_steps > 0
        assert len(calls) < (2 * old_sweeps + 1) / 2
        assert first_order_residual(tm, cp) <= cfg.tol
        assert _tangent_top(tm, cp) < cp.sigma
    @pytest.mark.parametrize("max_iter", [1, 250])
    def test_convergence_error_residual_unchanged(self, max_iter):
        # tol 1e-18 is below the residual's rounding floor: the Newton
        # finish, which starts after the one sweep, cannot reach it and
        # runs out of passes, whatever max_iter; the solve raises with the
        # residual after that sweep.
        tm, _, _, _ = _masked_instance(Shape3(15, 20, 25), 2.0, 0.15, 2)
        cfg = SolverConfig(
            tol=1e-18, max_iter=max_iter, factors=_random_start((15, 20, 25), 2)
        )
        with pytest.raises(ConvergenceError) as new:
            solve_critical_point(tm, cfg)
        with pytest.raises(ConvergenceError) as old:
            _old_polish(tm, replace(cfg, max_iter=1))
        assert new.value.residual == old.value.residual
        assert f"{2 * max_iter + 1} tensor passes" in str(new.value)

    def test_finish_passes_count_against_max_iter(self, monkeypatch):
        # The crawl's finish starts after the sweep and needs 30 steps: 87
        # passes in all. With max_iter 40 the solve has 2 * 40 + 1 = 81, the
        # finish runs out, and the solve raises with the residual where the
        # finish began, having streamed the tensor no more often than 40
        # sweeps do; the finish stops only once a step and Phi at its point
        # (3 passes) no longer fit.
        (_, tm, cfg, _), = (c for c in self._cases() if c[0] == "crawl")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return contract_one(*args, **kwargs)

        monkeypatch.setattr(rank_one, "contract_one", counted)
        assert solve_critical_point(tm, cfg).newton_steps == 30
        assert len(calls) == 87
        calls.clear()
        with pytest.raises(ConvergenceError) as new:
            solve_critical_point(tm, replace(cfg, max_iter=40))
        assert 2 * 40 + 1 - 3 < len(calls) <= 2 * 40 + 1
        with pytest.raises(ConvergenceError) as old:
            _old_polish(tm, replace(cfg, max_iter=1))
        assert new.value.residual == old.value.residual
        # The last step's point is certified with no pass to spare: max_iter
        # 43 (87 passes) returns it after the same 30 steps, 42 raises.
        assert solve_critical_point(tm, replace(cfg, max_iter=43)).newton_steps == 30
        with pytest.raises(ConvergenceError):
            solve_critical_point(tm, replace(cfg, max_iter=42))
        # With max_iter 1 the sweep uses the whole budget: the finish has
        # no passes left and makes none.
        calls.clear()
        with pytest.raises(ConvergenceError):
            solve_critical_point(tm, replace(cfg, max_iter=1))
        assert len(calls) == 2 * 1 + 1

    def test_tensor_passes(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return contract_one(*args, **kwargs)

        monkeypatch.setattr(rank_one, "contract_one", counted)
        for name, tm, cfg, _ in self._cases():
            calls.clear()
            cp = solve_critical_point(tm, cfg)
            # The sweep's modes 3, 1 and 3. The Newton finish then takes
            # Phi's pass (mode 2) at its start, which serves the certificate
            # of a point returned without a step, and modes 3 and 1 per
            # step, and mode 2 again after each kept step; the last step is
            # kept, and Phi at its point serves the certificate.
            pattern = "3132"
            if cp.newton_steps:
                pattern += "(312?){%d}312" % (cp.newton_steps - 1)
            assert re.fullmatch(pattern, "".join(map(str, calls))), name
            calls.clear()
            first_order_residual(tm, cp)
            assert sorted(calls) == [1, 3], name


def _tangent_top(tm, cp):
    """Largest eigenvalue of Phi on the tangent space of the three spheres at
    cp: Phi projected on the complement of [u;0;0], [0;v;0] and [0;0;w]."""
    phi = dense(build_phi(tm, cp.u, cp.v, cp.w))
    N = phi.shape[0]
    radial = np.zeros((N, 3))
    lo = np.cumsum((0,) + tm.shape.dims)
    for k, f in enumerate((cp.u, cp.v, cp.w)):
        radial[lo[k] : lo[k + 1], k] = f
    Q = np.linalg.qr(np.hstack([radial, np.eye(N)]))[0][:, 3:N]
    return float(np.max(np.linalg.eigvalsh(Q.T @ phi @ Q)))


def _sweeps(tm, sig, count):
    """The solver's state after `count` power sweeps from the planted start:
    (sigma, u, v, w, tm(:, :, w), tm(u, :, :), residual)."""
    u, v, w = sig.x, sig.y, sig.z
    for _ in range(count):
        M3 = contract_one(tm, 3, w)
        u = M3 @ v / np.linalg.norm(M3 @ v)
        v = M3.T @ u / np.linalg.norm(M3.T @ u)
        M1 = contract_one(tm, 1, u)
        w = M1.T @ v
        sigma = float(np.linalg.norm(w))
        w = w / sigma
    M3 = contract_one(tm, 3, w)
    residual = first_order_residual(tm, CriticalPoint(sigma, u, v, w))
    return (sigma, u, v, w, M3, M1, residual)


class TestNewtonFinish:
    def test_step_matches_dense_solve(self):
        # The step eliminates the w block; it equals x + delta for the dense
        # solve of (Phi - s I) delta = -r, unshifted (s = sigma) and shifted.
        tm, _, _, sig = _masked_instance(Shape3(7, 9, 11), 2.0, 0.6, 3)
        sigma, u, v, w, M3, M1, _ = _sweeps(tm, sig, 3)
        x = np.concatenate([u, v, w])
        phi = dense(build_phi(tm, u, v, w))
        # Phi x / 2 = [tm(:, v, w); tm(u, :, w); tm(u, v, :)].
        r = phi @ x / 2.0 - sigma * x
        blocks = rank_one._phi_blocks(tm, v, M3, M1)
        for s in (sigma, 1.001 * sigma, 1.3 * sigma):
            want = x + np.linalg.solve(phi - s * np.eye(x.size), -r)
            got = np.concatenate(rank_one._newton_step(blocks, M1, sigma, s, u, v, w))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", range(6))
    def test_certificate_matches_dense(self, seed):
        # The Schur complement on the w block is positive definite exactly
        # when s I - Phi + 2 sigma z z^T is, z = [u; v; w] / sqrt(3): at
        # converged points and at sigma moved by +-10%, unshifted (s = sigma)
        # and shifted by +-10% of sigma.
        gen = np.random.default_rng(seed)
        dims = tuple(int(n) for n in gen.integers(3, 15, size=3))
        tm, _, _, _ = _masked_instance(Shape3(*dims), 1.0 + seed, 0.5, seed)
        cp = solve_critical_point(
            tm, SolverConfig(max_iter=100_000, factors=_random_start(dims, seed))
        )
        phi = dense(build_phi(tm, cp.u, cp.v, cp.w))
        z = np.concatenate([cp.u, cp.v, cp.w]) / np.sqrt(3.0)
        M3, M1 = contract_one(tm, 3, cp.w), contract_one(tm, 1, cp.u)
        blocks = rank_one._phi_blocks(tm, cp.v, M3, M1)
        for sigma in (cp.sigma, 0.9 * cp.sigma, 1.1 * cp.sigma):
            for s in (sigma, 0.9 * sigma, 1.1 * sigma):
                C = s * np.eye(z.size) - phi + 2.0 * sigma * np.outer(z, z)
                lowest = float(np.min(np.linalg.eigvalsh(C)))
                assert abs(lowest) > 1e-9 * sigma  # the sign is not a rounding
                certified = rank_one._certified(blocks, sigma, s, cp.u, cp.v, cp.w)
                assert certified == (lowest > 0.0)

    def test_certificate_refuses_a_saddle(self, monkeypatch):
        # From the planted start at 13x20x15, eps 0.2, beta 3, seed 20, three
        # power sweeps and then unshifted Newton steps converge to a saddle:
        # sigma 0.78480, with Phi above sigma on the tangent space. A Newton
        # finish started there sees the certificate refuse it and does not
        # return it. From the three sweeps' point the finish refuses the
        # shift 0 and climbs to the local maximum, sigma 0.80848, as does
        # the solve itself.
        tm, _, _, sig = _masked_instance(Shape3(13, 20, 15), 3.0, 0.2, 20)
        start = _sweeps(tm, sig, 3)
        sigma, u, v, w, M3, M1, _ = start
        for _ in range(8):
            blocks = rank_one._phi_blocks(tm, v, M3, M1)
            x = rank_one._newton_step(blocks, M1, sigma, sigma, u, v, w)
            u, v, w = (f / np.linalg.norm(f) for f in x)
            M3, M1 = contract_one(tm, 3, w), contract_one(tm, 1, u)
            sigma = float(v @ (M1 @ w))
        saddle = CriticalPoint(sigma, u, v, w)
        residual = first_order_residual(tm, saddle)
        assert residual <= 1e-12
        assert abs(saddle.sigma - 0.78480) < 1e-5
        assert _tangent_top(tm, saddle) > 1.01 * saddle.sigma

        seen = []
        certified = rank_one._certified

        def recorded(blocks, sigma, s, u, v, w):
            ok = certified(blocks, sigma, s, u, v, w)
            seen.append((CriticalPoint(sigma, u, v, w), s == sigma, ok))
            return ok

        monkeypatch.setattr(rank_one, "_certified", recorded)
        point, steps = rank_one._newton_finish(
            tm, (sigma, u, v, w, M3, M1, residual), 1e-12, 30, 1e-13)
        assert point is None and 0 < steps <= 14  # 1 + 2 per step <= 30
        refused, unshifted, ok = seen[0]
        assert refused.sigma == saddle.sigma and unshifted and not ok
        assert not any(ok for _, unshifted, ok in seen if unshifted)

        seen.clear()
        point, _ = rank_one._newton_finish(tm, start, 1e-12, 200, 1e-13)
        assert seen[0][1:] == (True, False)  # shift 0 refused at the start
        assert abs(point[0] - 0.80848) < 1e-5
        cp = solve_critical_point(tm, SolverConfig(reference=sig))
        assert abs(cp.sigma - 0.80848) < 1e-5

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(3, 20)] * 3),
        eps=st.floats(0.2, 1.0),
        beta=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**16),
        planted=st.booleans(),
    )
    @example(dims=(13, 20, 15), eps=0.2, beta=3.0, seed=20, planted=True)
    def test_returns_local_maxima(self, dims, eps, beta, seed, planted):
        # Every point returned at tol 1e-12 went through the certified Newton
        # finish and is a local maximum: Phi <= sigma on the tangent space
        # (second-order condition). Random and planted starts, beta from 0
        # (pure noise) to well above the threshold.
        tm, _, _, sig = _masked_instance(Shape3(*dims), beta, eps, seed)
        start = None if planted else _random_start(dims, seed)
        cfg = SolverConfig(tol=1e-12, max_iter=100_000, factors=start, reference=sig)
        try:
            cp = solve_critical_point(tm, cfg)
        except (ConvergenceError, DegeneratePointError):
            return  # no point returned
        assert _tangent_top(tm, cp) <= cp.sigma * (1.0 + 1e-9)
        # The solver's certificate holds at the returned point, and so does
        # the upper side of the paper's bulk bound: every eigenvalue of Phi
        # but the one nearest 2 sigma is at most sigma.
        M3, M1 = contract_one(tm, 3, cp.w), contract_one(tm, 1, cp.u)
        blocks = rank_one._phi_blocks(tm, cp.v, M3, M1)
        assert rank_one._certified(blocks, cp.sigma, cp.sigma, cp.u, cp.v, cp.w)
        vals = build_phi(tm, cp.u, cp.v, cp.w).eigenvalues
        bulk = np.delete(vals, np.argmin(np.abs(vals - 2.0 * cp.sigma)))
        assert np.max(bulk) <= cp.sigma * (1.0 + 1e-9)


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
