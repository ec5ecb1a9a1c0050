import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from punctured_tensor import (
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
    spike_core,
    spike_decomposition_residual,
)
from punctured_tensor.tensor_core import DimensionMismatchError, contract_one


def _instance(shape, beta, epsilon, seed, tol=1e-12):
    sig = SignalTriple.random(shape, beta, RngSeed(seed, 0))
    t = generate_spiked(shape, sig, RngSeed(seed, 1))
    m = sample_mask(shape, epsilon, RngSeed(seed, 2))
    tm = hadamard(t, m)
    cp = solve_critical_point(tm, SolverConfig(tol=tol, reference=sig))
    return tm, sig, cp


class TestPhiMatrix:
    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_rejects_nonzero_diagonal_block(self, block):
        sh = Shape3(2, 3, 4)
        M = np.zeros((sh.N, sh.N))
        i = sum(sh.dims[:block])
        M[i, i + 1] = M[i + 1, i] = 1.0
        with pytest.raises(ValueError, match="zero diagonal blocks"):
            PhiMatrix(sh, M)

    @pytest.mark.parametrize("size", [(8, 8), (10, 10), (9, 8), (9,)])
    def test_rejects_wrong_size(self, size):
        with pytest.raises(DimensionMismatchError):
            PhiMatrix(Shape3(2, 3, 4), np.zeros(size))

    def test_keeps_a_private_copy(self):
        # The caller's array stays writable, and writing to it changes
        # neither the matrix nor the eigenvalues. A read-only matrix, as the
        # builders pass, is kept without a copy.
        sh = Shape3(4, 5, 6)
        M = np.zeros((sh.N, sh.N))
        M[0, 4] = M[4, 0] = 2.0
        want = PhiMatrix(sh, M.copy()).eigenvalues
        phi = PhiMatrix(sh, M)
        M[0, 4] = M[4, 0] = 1.0
        assert phi.matrix[0, 4] == 2.0
        np.testing.assert_array_equal(phi.eigenvalues, want)
        assert not phi.matrix.flags.writeable
        assert PhiMatrix(sh, phi.matrix).matrix is phi.matrix


class TestBuildPhi:
    def test_blocks_against_loops(self, rng):
        # Every block entry spelled out as an explicit sum over the
        # contracted index, independent of contract_one.
        sh = Shape3(3, 4, 5)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(n) for n in sh.dims)
        u, v, w = (f / np.linalg.norm(f) for f in (u, v, w))
        phi = build_phi(tm, u, v, w).matrix
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

    def test_symmetry_and_zero_diagonal_blocks(self, rng):
        sh = Shape3(4, 5, 6)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (np.eye(n)[0] for n in sh.dims)
        phi = build_phi(tm, u, v, w)
        M = phi.matrix
        assert np.array_equal(M, M.T)
        s1, s2, s3 = phi.block_slices
        for s in (s1, s2, s3):
            assert np.all(M[s, s] == 0.0)

    def test_trace_is_zero(self, rng):
        sh = Shape3(5, 6, 7)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(n) for n in sh.dims)
        assert abs(np.trace(build_phi(tm, u, v, w).matrix)) < 1e-12

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

        streamed, dense = [], []
        for seed in range(40):
            phi = build_phi0_streamed(sh, eps, u, v, w, RngSeed(seed, 5))
            n1 = sh.n1
            streamed.append(np.linalg.norm(phi.matrix[:n1, n1 : n1 + sh.n2] @ v))
            dense.append(dense_b12(seed))
        assert abs(np.mean(streamed) - np.mean(dense)) < 0.15 * np.mean(dense)

    def test_structure(self):
        sh = Shape3(8, 9, 10)
        u, v, w = (np.ones(n) / np.sqrt(n) for n in sh.dims)
        phi = build_phi0_streamed(sh, 0.5, u, v, w, RngSeed(7))
        M = phi.matrix
        assert np.array_equal(M, M.T)
        s1, s2, s3 = phi.block_slices
        for s in (s1, s2, s3):
            assert np.all(M[s, s] == 0.0)

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_stream_layout(self, eps):
        # Pins the draw order: per mode-3 slab, the mask's uniforms first,
        # then one normal for each kept entry in C order. The dense masked
        # tensor rebuilt from the same stream must give the same Phi.
        sh = Shape3(5, 6, 7)
        u, v, w = (np.random.default_rng(n).standard_normal(n) for n in sh.dims)
        gen = RngSeed(11).generator()
        dense = np.zeros(sh.dims)
        for k in range(sh.n3):
            keep = gen.random((sh.n1, sh.n2)) < eps
            dense[:, :, k][keep] = gen.standard_normal(np.count_nonzero(keep))
        dense /= np.sqrt(sh.N)
        got = build_phi0_streamed(sh, eps, u, v, w, RngSeed(11)).matrix
        want = build_phi(Tensor3(dense), u, v, w).matrix
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
        assert np.all(phi.matrix == 0.0)


class TestEigenSpectrum:
    def test_sorted_descending_and_vectors(self, rng):
        sh = Shape3(4, 5, 6)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(n) for n in sh.dims)
        phi = build_phi(tm, u, v, w)
        spec = eigen_spectrum(phi)
        assert np.all(np.diff(spec.eigenvalues) <= 0)
        # eigh sorts ascending: descending index idx pairs with column -1 - idx.
        vecs = np.linalg.eigh(phi.matrix)[1]
        for idx in (0, 7, 14):
            lam = spec.eigenvalues[idx]
            vec = vecs[:, -1 - idx]
            assert np.linalg.norm(phi.matrix @ vec - lam * vec) < 1e-10

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
            with pytest.raises(ValueError):
                phi.matrix[0, 1] = 1.0  # read-only, so the cached spectrum holds
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
        # Random symmetric matrices with zero diagonal blocks, with each mode
        # as the largest and cube shapes. With `rank` set, the blocks between
        # the largest mode L and the rest are a rank-`rank` product, so
        # C = M[rest, L] is rank deficient at every shape.
        sh = Shape3(*dims)
        N, n_L = sh.N, max(dims)
        gen = np.random.default_rng(seed)
        M = np.triu(gen.standard_normal((N, N)) * (gen.random((N, N)) < eps))
        M += M.T
        lo = np.cumsum((0,) + sh.dims)
        for a, b in zip(lo[:-1], lo[1:]):
            M[a:b, a:b] = 0.0
        if rank is not None:
            big = dims.index(n_L)
            L = np.arange(lo[big], lo[big + 1])
            rest = np.setdiff1d(np.arange(N), L)
            C = gen.standard_normal((rest.size, rank)) @ gen.standard_normal((rank, n_L))
            M[np.ix_(rest, L)] = C
            M[np.ix_(L, rest)] = C.T
        vals = PhiMatrix(sh, M).eigenvalues
        ref = np.linalg.eigvalsh(M)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.all(np.diff(vals) >= 0.0)
        assert np.max(np.abs(vals - ref)) <= 4 * N * np.finfo(float).eps * scale
        assert np.count_nonzero(vals == 0.0) >= max(0, 2 * n_L - N)


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
        tm, sig, cp = _instance(Shape3(10, 12, 14), 4.0, 0.5, 5)
        V, S = spike_core(sig, cp)
        assert V.shape == (36, 3)
        assert np.array_equal(S, S.T)
        assert np.all(np.diag(S) == 0.0)
        assert S[1, 2] == pytest.approx(float(sig.x @ cp.u))
        # V has orthonormal columns.
        np.testing.assert_allclose(V.T @ V, np.eye(3), atol=1e-12)

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
            V, S = spike_core(sig, cp)
            E = phi.matrix - m.epsilon * sig.beta * (V @ S @ V.T) - phi0.matrix
            assert abs(norms[-1] - np.linalg.norm(E, 2)) <= 1e-12
        assert norms[1] < 4.0 * 0.5  # far below eps * beta scale
        assert norms[1] < norms[0] + 0.1

    def test_shape_mismatch(self):
        phi_a = PhiMatrix(Shape3(2, 2, 2), np.zeros((6, 6)))
        phi_b = PhiMatrix(Shape3(2, 2, 3), np.zeros((7, 7)))
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
        sigma = float(np.max(np.abs(np.linalg.eigvalsh(phi.matrix)))) + 1.0
        rhs = rng.standard_normal(sh.N)
        q = resolvent_solve(phi, sigma, rhs)
        np.testing.assert_allclose(
            (phi.matrix - sigma * np.eye(sh.N)) @ q, rhs, atol=1e-10
        )

    def test_rejects_near_eigenvalue(self, rng):
        sh = Shape3(3, 3, 3)
        tm = Tensor3(rng.standard_normal(sh.dims))
        u, v, w = (rng.standard_normal(3) for _ in range(3))
        phi = build_phi(tm, u, v, w)
        lam = float(np.linalg.eigvalsh(phi.matrix)[-1])
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
        gen = RngSeed(30, 1).generator()
        noise = gen.standard_normal(sh.dims)
        mask = sample_mask(sh, eps, RngSeed(30, 2))
        base_tm = hadamard(generate_spiked(sh, sig, RngSeed(0), noise=noise), mask)
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
                pert = noise.copy()
                pert[entry] += delta
                tm = hadamard(generate_spiked(sh, sig, RngSeed(0), noise=pert), mask)
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
        spec = eigen_spectrum(PhiMatrix(Shape3(1, 1, 1), np.zeros((3, 3))))
        with pytest.raises(ValueError):
            esd_histogram(spec, bins=0)
