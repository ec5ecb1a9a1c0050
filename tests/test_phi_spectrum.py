import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from punctured_tensor import (
    CriticalPoint,
    PhiMatrix,
    RngSeed,
    Shape3,
    SignalTriple,
    SingularResolventError,
    SolverConfig,
    Tensor3,
    build_phi,
    build_phi0_streamed,
    check_structural_eigenpairs,
    eigen_spectrum,
    esd_histogram,
    generate_spiked,
    hadamard,
    predict_factor_derivative,
    resolvent_solve,
    sample_mask,
    solve_critical_point,
    spike_decomposition_residual,
)
from punctured_tensor.tensor_core import DimensionMismatchError, contract_one

from conftest import dense


def _instance(shape, beta, epsilon, seed):
    sig = SignalTriple.random(shape, beta, RngSeed(seed, 0))
    t = generate_spiked(shape, sig, RngSeed(seed, 1))
    m = sample_mask(shape, epsilon, RngSeed(seed, 2))
    tm = hadamard(t, m)
    cp = solve_critical_point(tm, SolverConfig(tol=1e-12, reference=sig))
    return tm, sig, cp


def _power_sweeps(tm, sig, count):
    """The unconverged point after `count` power sweeps from the planted start."""
    u, v, w = sig.x, sig.y, sig.z
    for _ in range(count):
        M3 = contract_one(tm, 3, w)
        u = M3 @ v / np.linalg.norm(M3 @ v)
        v = M3.T @ u / np.linalg.norm(M3.T @ u)
        w = contract_one(tm, 1, u).T @ v
        sigma = float(np.linalg.norm(w))
        w = w / sigma
    return CriticalPoint(sigma, u, v, w)


def _spike_core(sig, cp):
    """The block-diagonal embedding V of (x, y, z) and the 3x3 core S of the
    overlaps, so that eps * beta * V S V^T is Phi's spike term."""
    n1, n2 = sig.x.size, sig.y.size
    V = np.zeros((n1 + n2 + sig.z.size, 3))
    V[:n1, 0], V[n1 : n1 + n2, 1], V[n1 + n2 :, 2] = sig.x, sig.y, sig.z
    a1, a2, a3 = float(sig.x @ cp.u), float(sig.y @ cp.v), float(sig.z @ cp.w)
    return V, np.array([[0.0, a3, a2], [a3, 0.0, a1], [a2, a1, 0.0]])


class TestPhiMatrix:
    @pytest.mark.parametrize("size", [
        ((2, 3), (2, 5), (3, 4)),  # b13 and b23 disagree on n3
        ((2, 3), (3, 4), (3, 4)),  # b12 and b13 disagree on n1
        ((2, 3), (2, 4), (2, 4)),  # b12 and b23 disagree on n2
        ((6,), (2, 4), (3, 4)),  # a block that is not 2-D
    ])
    def test_rejects_wrong_size(self, size):
        with pytest.raises(DimensionMismatchError):
            PhiMatrix(*(np.zeros(s) for s in size))

    def test_keeps_a_private_copy(self):
        # The caller's blocks stay writable, and writing to them changes
        # neither Phi nor its eigenvalues. Read-only blocks, as the builders
        # pass, are kept without a copy.
        b12, b13, b23 = np.zeros((4, 5)), np.zeros((4, 6)), np.zeros((5, 6))
        b12[0, 0] = 2.0
        want = PhiMatrix(b12.copy(), b13, b23).eigenvalues
        phi = PhiMatrix(b12, b13, b23)
        b12[0, 0] = 1.0
        assert phi.b12[0, 0] == 2.0
        np.testing.assert_array_equal(phi.eigenvalues, want)
        blocks = (phi.b12, phi.b13, phi.b23)
        assert not any(b.flags.writeable for b in blocks)
        again = PhiMatrix(*blocks)
        assert all(a is b for a, b in zip((again.b12, again.b13, again.b23), blocks))


class TestBuildPhi:
    def test_blocks_against_loops(self, rng):
        # Every block entry spelled out as an explicit sum over the
        # contracted index, independent of contract_one.
        sh = Shape3(3, 4, 5)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(n) for n in sh.dims)
        u, v, w = (f / np.linalg.norm(f) for f in (u, v, w))
        phi = dense(build_phi(tm, u, v, w))
        A = tm.values
        for i in range(3):
            for j in range(4):
                assert abs(phi[i, 3 + j] - sum(A[i, j, k] * w[k] for k in range(5))) < 1e-12
        for i in range(3):
            for k in range(5):
                assert abs(phi[i, 7 + k] - sum(A[i, j, k] * v[j] for j in range(4))) < 1e-12
        for j in range(4):
            for k in range(5):
                assert abs(phi[3 + j, 7 + k] - sum(A[i, j, k] * u[i] for i in range(3))) < 1e-12

    def test_factor_length_check(self, rng):
        tm = Tensor3(rng.standard_normal((3, 4, 5)))
        with pytest.raises(DimensionMismatchError):
            build_phi(tm, np.zeros(3), np.zeros(4), np.zeros(6))


class TestStreamedPhi0:
    def test_matches_distribution_moments(self):
        # The streamed builder must agree with the dense path in law; compare
        # the Frobenius norm of the b12 block averaged over seeds.
        sh = Shape3(30, 40, 50)
        eps = 0.3
        u, v, w = (np.ones(n) / np.sqrt(n) for n in sh.dims)
        sig = SignalTriple(u, v, w, 0.0)

        def dense_b12(seed):
            t = generate_spiked(sh, sig, RngSeed(seed, 1))
            m = sample_mask(sh, eps, RngSeed(seed, 2))
            return np.linalg.norm(contract_one(hadamard(t, m), 3, w) @ v)

        streamed, direct = [], []
        for seed in range(40):
            phi = build_phi0_streamed(sh, eps, u, v, w, RngSeed(seed, 5))
            n1 = sh.n1
            streamed.append(np.linalg.norm(dense(phi)[:n1, n1 : n1 + sh.n2] @ v))
            direct.append(dense_b12(seed))
        assert abs(np.mean(streamed) - np.mean(direct)) < 0.15 * np.mean(direct)

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_stream_layout(self, eps):
        # Pins the draw order: per mode-3 slab, the mask's uniforms first,
        # then one normal for each kept entry in C order. The dense masked
        # tensor rebuilt from the same stream must give the same Phi.
        sh = Shape3(5, 6, 7)
        u, v, w = (np.random.default_rng(n).standard_normal(n) for n in sh.dims)
        gen = RngSeed(11).generator()
        values = np.zeros(sh.dims)
        for k in range(sh.n3):
            keep = gen.random((sh.n1, sh.n2)) < eps
            values[:, :, k][keep] = gen.standard_normal(np.count_nonzero(keep))
        values /= np.sqrt(sh.N)
        got = dense(build_phi0_streamed(sh, eps, u, v, w, RngSeed(11)))
        want = dense(build_phi(Tensor3(values), u, v, w))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("eps", [-0.1, 1.5])
    def test_rejects_epsilon_out_of_range(self, eps):
        sh = Shape3(2, 3, 4)
        u, v, w = (np.ones(n) / np.sqrt(n) for n in sh.dims)
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
            build_phi0_streamed(sh, eps, u, v, w, RngSeed(0))

    def test_epsilon_zero_gives_zero(self):
        sh = Shape3(4, 5, 6)
        u, v, w = (np.ones(n) / np.sqrt(n) for n in sh.dims)
        phi = build_phi0_streamed(sh, 0.0, u, v, w, RngSeed(0))
        assert np.all(dense(phi) == 0.0)


class TestEigenSpectrum:
    def test_sorted_descending_and_vectors(self, rng):
        sh = Shape3(4, 5, 6)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(n) for n in sh.dims)
        phi = build_phi(tm, u, v, w)
        spec = eigen_spectrum(phi)
        assert np.all(np.diff(spec.eigenvalues) <= 0)
        # eigh sorts ascending: descending index idx pairs with column -1 - idx.
        M = dense(phi)
        vecs = np.linalg.eigh(M)[1]
        for idx in (0, 7, 14):
            lam = spec.eigenvalues[idx]
            vec = vecs[:, -1 - idx]
            assert np.linalg.norm(M @ vec - lam * vec) < 1e-10

    def test_zero_count_block_rank_deficiency(self, rng):
        # With n3 much larger than n1 + n2 the rank of Phi is limited by the
        # small blocks, forcing an exactly computable kernel dimension.
        sh = Shape3(2, 3, 20)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(n) / np.sqrt(n) for n in sh.dims)
        spec = eigen_spectrum(build_phi(tm, u, v, w))
        # rank <= 2 * (n1 + n2) = 10, so at least 25 - 10 = 15 zeros.
        assert spec.zero_count >= 15

    def test_one_eigensolve_per_phi(self, monkeypatch):
        # One eigvalsh per Phi, on the reduced core: of size N at 6x7x8, and
        # 2 * (3 + 4) = 14 at 3x4x20, where n3 exceeds n1 + n2.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for dims, core in (((6, 7, 8), 21), ((3, 4, 20), 14)):
            tm, _, cp = _instance(Shape3(*dims), 3.0, 0.5, 6)
            phi = build_phi(tm, cp.u, cp.v, cp.w)
            for block in (phi.b12, phi.b13, phi.b23):
                with pytest.raises(ValueError):
                    block[0, 0] = 1.0  # read-only, so the cached spectrum holds
            calls.clear()
            eigen_spectrum(phi)
            check_structural_eigenpairs(phi, cp)
            for entry in ((0, 0, 0), (1, 2, 3), tuple(n - 1 for n in dims)):
                predict_factor_derivative(phi, cp, entry, 1)
            assert calls == [(core, core)]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        dims=st.one_of(
            st.integers(1, 40).map(lambda n: (n, n, n)),
            st.tuples(*[st.integers(1, 40)] * 3).flatmap(st.permutations),
        ),
        eps=st.sampled_from([0.0, 0.05, 1.0]),
        rank=st.sampled_from([None, 1, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_reduced_core_matches_dense(self, dims, eps, rank, seed):
        # Random blocks, with each mode as the largest and cube shapes. With
        # `rank` set, the blocks between the largest mode L and the rest are a
        # rank-`rank` product, so C of split(L) is rank deficient at every
        # shape. Matrix-vector products are checked on a unit vector.
        sh = Shape3(*dims)
        N, n_L = sh.N, max(dims)
        gen = np.random.default_rng(seed)
        M = np.triu(gen.standard_normal((N, N)) * (gen.random((N, N)) < eps))
        M += M.T
        lo = np.cumsum((0,) + sh.dims)
        if rank is not None:
            big = dims.index(n_L)
            L = np.arange(lo[big], lo[big + 1])
            rest = np.setdiff1d(np.arange(N), L)
            C = gen.standard_normal((rest.size, rank)) @ gen.standard_normal((rank, n_L))
            M[np.ix_(rest, L)] = C
            M[np.ix_(L, rest)] = C.T
        s1, s2, s3 = (slice(a, b) for a, b in zip(lo[:-1], lo[1:]))
        phi = PhiMatrix(M[s1, s2], M[s1, s3], M[s2, s3])
        vals = phi.eigenvalues
        ref = np.linalg.eigvalsh(dense(phi))
        scale = max(1.0, float(np.max(np.abs(ref))))
        bound = 4 * N * np.finfo(float).eps * scale
        assert np.all(np.diff(vals) >= 0.0)
        assert np.max(np.abs(vals - ref)) <= bound
        assert np.count_nonzero(vals == 0.0) >= max(0, 2 * n_L - N)
        x = gen.standard_normal(N)
        x /= np.linalg.norm(x)
        assert np.max(np.abs(phi.matvec(x) - dense(phi) @ x)) <= bound


class TestStructuralEigenpairs:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_checks_pass_at_converged_point(self, seed):
        tm, _, cp = _instance(Shape3(15, 18, 21), 4.0, 0.5, seed)
        phi = build_phi(tm, cp.u, cp.v, cp.w)
        report = check_structural_eigenpairs(phi, cp, tol=1e-8)
        assert report.passed, report.failures()

    def test_top_eigenvalue_is_two_sigma(self):
        tm, _, cp = _instance(Shape3(20, 20, 20), 5.0, 0.6, 1)
        phi = build_phi(tm, cp.u, cp.v, cp.w)
        spec = eigen_spectrum(phi)
        assert abs(spec.eigenvalues[0] - 2.0 * cp.sigma) < 1e-9

    def test_minus_sigma_multiplicity_at_least_two(self):
        tm, _, cp = _instance(Shape3(20, 20, 20), 5.0, 0.6, 2)
        phi = build_phi(tm, cp.u, cp.v, cp.w)
        vals = eigen_spectrum(phi).eigenvalues
        close = np.abs(vals + cp.sigma) < 1e-8
        assert int(np.sum(close)) >= 2

    def test_perturbed_sigma_fails(self):
        # Negative control: a wrong sigma must make the report fail.
        tm, _, cp = _instance(Shape3(12, 14, 16), 4.0, 0.5, 4)
        phi = build_phi(tm, cp.u, cp.v, cp.w)
        bad = dataclasses.replace(cp, sigma=cp.sigma * (1.0 + 1e-3))
        assert not check_structural_eigenpairs(phi, bad, tol=1e-8).passed

    @pytest.mark.parametrize("seed", [0, 1])
    def test_loose_point_keeps_its_top_eigenvalue_out(self, seed):
        # After five power sweeps (first-order residual 5.8e-4 and 2.6e-4)
        # the eigenvalue nearest 2 sigma misses 2 sigma by more than
        # tol * max(1, 2 sigma). It still stands for 2 sigma: the bulk
        # residual is that offset, bounded by the point's own eigenpair
        # defect, not about sigma.
        tm, sig, _ = _instance(Shape3(15, 18, 21), 4.0, 0.5, seed)
        cp = _power_sweeps(tm, sig, 5)
        phi = build_phi(tm, cp.u, cp.v, cp.w)
        offset = float(np.min(np.abs(phi.eigenvalues - 2.0 * cp.sigma)))
        assert offset > 1e-8 * max(1.0, 2.0 * cp.sigma)
        r1, _, r3 = (c.residual for c in check_structural_eigenpairs(phi, cp).checks)
        assert r3 == pytest.approx(offset, rel=1e-12)
        assert r3 <= r1 / np.sqrt(3.0)

    def test_second_eigenvalue_near_two_sigma_fails(self):
        # Phi of an exact rank-one tensor at its planted point, plus a coupling
        # of the tangent directions a (mode 1) and b (mode 2) with eigenvalue
        # 2 sigma (1 - 1e-10): within tol of 2 sigma, but a second one. Only
        # the bulk check fails.
        sh = Shape3(4, 5, 6)
        sig = SignalTriple.random(sh, 3.0, RngSeed(7))
        t = Tensor3(3.0 * np.einsum("i,j,k->ijk", sig.x, sig.y, sig.z))
        cp = solve_critical_point(t, SolverConfig(reference=sig))
        phi = build_phi(t, cp.u, cp.v, cp.w)
        gen = np.random.default_rng(7)
        a = gen.standard_normal(4)
        a -= (a @ cp.u) * cp.u
        b = gen.standard_normal(5)
        b -= (b @ cp.v) * cp.v
        c = 2.0 * cp.sigma * (1.0 - 1e-10)
        b12 = phi.b12 + c * np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        report = check_structural_eigenpairs(PhiMatrix(b12, phi.b13, phi.b23), cp, tol=1e-8)
        assert [c.name for c in report.failures()] == ["bulk_bounded_by_sigma"]
        assert report.checks[2].residual == pytest.approx(cp.sigma, rel=1e-9)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(3, 25)] * 3),
        eps=st.floats(0.2, 1.0),
        beta=st.floats(3.0, 8.0),
        seed=st.integers(0, 2**16),
    )
    def test_holds_over_box(self, dims, eps, beta, seed):
        # Small skewed instances solved from the planted start: all three
        # checks pass, and a sigma offset by 1e-3 fails every one of them.
        tm, _, cp = _instance(Shape3(*dims), beta, eps, seed)
        phi = build_phi(tm, cp.u, cp.v, cp.w)
        report = check_structural_eigenpairs(phi, cp, tol=1e-8)
        assert report.passed, report.failures()
        bad = dataclasses.replace(cp, sigma=cp.sigma + 1e-3)
        assert not any(c.passed for c in check_structural_eigenpairs(phi, bad).checks)


class TestSpikeDecomposition:
    def test_core_matrix(self):
        # The dense spike term eps * beta * V S V^T is what the residual
        # removes: against a zero Phi0 it is the norm of Phi minus that term.
        tm, sig, cp = _instance(Shape3(10, 12, 14), 4.0, 0.5, 5)
        V, S = _spike_core(sig, cp)
        assert V.shape == (36, 3)
        assert np.array_equal(S, S.T)
        assert np.all(np.diag(S) == 0.0)
        assert S[1, 2] == pytest.approx(float(sig.x @ cp.u))
        # V has orthonormal columns.
        np.testing.assert_allclose(V.T @ V, np.eye(3), atol=1e-12)
        phi = build_phi(tm, cp.u, cp.v, cp.w)
        zero = PhiMatrix(*(np.zeros_like(b) for b in (phi.b12, phi.b13, phi.b23)))
        E = dense(phi) - 0.5 * sig.beta * (V @ S @ V.T)
        got = spike_decomposition_residual(phi, sig, cp, zero, 0.5)
        assert abs(got - np.linalg.norm(E, 2)) <= 1e-12

    def test_residual_small_and_shrinking(self):
        # ||E|| should be well below eps*beta and shrink with N.
        norms = []
        for n in (12, 30):
            sh = Shape3(n, n, n)
            sig = SignalTriple.random(sh, 4.0, RngSeed(20, 0))
            t = generate_spiked(sh, sig, RngSeed(20, 1))
            m = sample_mask(sh, 0.5, RngSeed(20, 2))
            tm = hadamard(t, m)
            cp = solve_critical_point(tm, SolverConfig(reference=sig))
            phi = build_phi(tm, cp.u, cp.v, cp.w)
            noise = Tensor3(tm.values - m.epsilon * 0.0 - hadamard(
                Tensor3(4.0 * np.einsum("i,j,k->ijk", sig.x, sig.y, sig.z)), m
            ).values)
            phi0 = build_phi(noise, cp.u, cp.v, cp.w)
            norms.append(
                spike_decomposition_residual(phi, sig, cp, phi0, m.epsilon)
            )
            # The eigenvalue route must give the largest singular value.
            V, S = _spike_core(sig, cp)
            E = dense(phi) - m.epsilon * sig.beta * (V @ S @ V.T) - dense(phi0)
            assert abs(norms[-1] - np.linalg.norm(E, 2)) <= 1e-12
        assert norms[1] < 4.0 * 0.5  # far below eps * beta scale
        assert norms[1] < norms[0] + 0.1

    def test_shape_mismatch(self):
        phi_a = PhiMatrix(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        phi_b = PhiMatrix(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 3)))
        sig = SignalTriple.random(Shape3(2, 2, 2), 1.0, RngSeed(0))
        cp = solve_critical_point(
            Tensor3(np.einsum("i,j,k->ijk", sig.x, sig.y, sig.z)),
            SolverConfig(reference=sig),
        )
        with pytest.raises(DimensionMismatchError):
            spike_decomposition_residual(phi_a, sig, cp, phi_b, 1.0)


class TestResolvent:
    def test_solve_matches_eigendecomposition(self, rng):
        sh = Shape3(5, 6, 7)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(n) / 2.0 for n in sh.dims)
        phi = build_phi(tm, u, v, w)
        M = dense(phi)
        sigma = float(np.max(np.abs(np.linalg.eigvalsh(M)))) + 1.0
        rhs = rng.standard_normal(sh.N)
        q = resolvent_solve(phi, sigma, rhs)
        np.testing.assert_allclose((M - sigma * np.eye(sh.N)) @ q, rhs, atol=1e-10)

    @pytest.mark.parametrize("dims", [(5, 6, 7), (9, 3, 4), (3, 12, 4), (4, 4, 4), (2, 3, 30)])
    def test_elimination_matches_full_solve(self, rng, dims):
        # Every block in turn is the largest (the one eliminated), including
        # a tie and one larger than the other two together; the right-hand
        # side may hold several columns.
        sh = Shape3(*dims)
        tm = Tensor3(rng.standard_normal(dims))
        phi = build_phi(tm, *(rng.standard_normal(n) for n in dims))
        top = float(np.max(np.abs(phi.eigenvalues)))
        for sigma in (0.37 * top, -0.61 * top, 1.2 * top):
            for rhs in (rng.standard_normal(sh.N), rng.standard_normal((sh.N, 3))):
                q = resolvent_solve(phi, sigma, rhs)
                want = np.linalg.solve(dense(phi) - sigma * np.eye(sh.N), rhs)
                assert np.max(np.abs(q - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_sigma_near_zero(self, rng):
        # The elimination divides by sigma; N - n_L > n_L here, so Phi need
        # not have 0 as an eigenvalue, and sigma = 0 is refused anyway.
        sh = Shape3(4, 4, 4)
        tm = Tensor3(rng.standard_normal(sh.dims))
        phi = build_phi(tm, *(rng.standard_normal(4) for _ in range(3)))
        with pytest.raises(SingularResolventError):
            resolvent_solve(phi, 0.0, np.ones(sh.N))

    def test_rejects_near_eigenvalue(self, rng):
        sh = Shape3(3, 3, 3)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(3) for _ in range(3))
        phi = build_phi(tm, u, v, w)
        lam = float(np.linalg.eigvalsh(dense(phi))[-1])
        with pytest.raises(SingularResolventError):
            resolvent_solve(phi, lam + 1e-12, np.ones(9))

    def test_masked_entry_has_zero_derivative(self):
        tm, _, cp = _instance(Shape3(6, 7, 8), 3.0, 0.5, 6)
        phi = build_phi(tm, cp.u, cp.v, cp.w)
        out = predict_factor_derivative(phi, cp, (1, 2, 3), mask_bit=0)
        assert np.all(out == 0.0)

    def test_derivative_against_finite_differences(self):
        # Central finite differences on the solver itself, re-initialized
        # from the unperturbed factors, must match the resolvent prediction.
        sh = Shape3(4, 5, 6)
        beta, eps, h = 3.0, 0.7, 1e-5
        sig = SignalTriple.random(sh, beta, RngSeed(30, 0))
        t = generate_spiked(sh, sig, RngSeed(30, 1))
        mask = sample_mask(sh, eps, RngSeed(30, 2))
        base_tm = hadamard(t, mask)
        cp = solve_critical_point(base_tm, SolverConfig(tol=1e-14, reference=sig))
        phi = build_phi(base_tm, cp.u, cp.v, cp.w)

        entry_gen = np.random.default_rng(77)
        worst = 0.0
        for _ in range(5):
            entry = tuple(int(entry_gen.integers(0, n)) for n in sh.dims)
            bit = int(mask.bits[entry])
            pred = predict_factor_derivative(phi, cp, entry, bit)
            stacked = []
            for delta in (h, -h):
                # A step delta of the noise entry moves the tensor entry by
                # delta / sqrt(N).
                pert = t.values.copy()
                pert[entry] += delta / np.sqrt(sh.N)
                tm = hadamard(Tensor3(pert), mask)
                cp2 = solve_critical_point(
                    tm,
                    SolverConfig(tol=1e-14, factors=(cp.u, cp.v, cp.w), reference=sig),
                )
                stacked.append(cp2.stacked())
            fd = (stacked[0] - stacked[1]) / (2.0 * h)
            scale = max(np.max(np.abs(fd)), np.max(np.abs(pred)), 1e-12)
            worst = max(worst, np.max(np.abs(fd - pred)) / scale)
        assert worst < 1e-3


class TestESDHistogram:
    def test_density_integrates_to_one(self, rng):
        sh = Shape3(10, 12, 14)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(n) for n in sh.dims)
        spec = eigen_spectrum(build_phi(tm, u, v, w))
        hist = esd_histogram(spec, bins=20)
        area = float(np.sum(hist.density * np.diff(hist.bin_edges)))
        assert abs(area - 1.0) < 1e-12
        assert int(hist.counts.sum()) == sh.N

    def test_exclude_zeros(self, rng):
        sh = Shape3(2, 3, 20)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(n) for n in sh.dims)
        spec = eigen_spectrum(build_phi(tm, u, v, w))
        hist = esd_histogram(spec, bins=10, exclude_zeros=True)
        assert hist.excluded_zero_count == spec.zero_count
        assert int(hist.counts.sum()) == sh.N - spec.zero_count

    def test_bad_bins(self, rng):
        spec = eigen_spectrum(PhiMatrix(*(np.zeros((1, 1)) for _ in range(3))))
        with pytest.raises(ValueError):
            esd_histogram(spec, bins=0)
