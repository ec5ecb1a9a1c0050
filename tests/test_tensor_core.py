import multiprocessing
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from punctured_tensor import (
    MaskTensor,
    RngSeed,
    Shape3,
    SignalTriple,
    Tensor3,
    build_phi0_streamed,
    contract_full,
    contract_one,
    draw_trial,
    generate_spiked,
    hadamard,
    puncture,
    sample_mask,
)
from punctured_tensor import phi_spectrum, rank_one
from punctured_tensor.experiments import ExperimentConfig, run_epsilon_sweep
from punctured_tensor.tensor_core import (
    DimensionMismatchError,
    _all_finite,
    _spend_levels,
)

from conftest import triple_loop_full, triple_loop_mode, triple_loop_one


class TestShape3:
    def test_derived_quantities(self):
        sh = Shape3(100, 200, 700)
        assert sh.N == 1000
        assert abs(sum(sh.ratios) - 1.0) <= 1e-15
        assert sh.ratios == (0.1, 0.2, 0.7)

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, dims):
        with pytest.raises(ValueError):
            Shape3(*dims)


class TestGenerateSpiked:
    def test_pure_signal(self):
        # beta=5, x=y=z=e1: against the same noise without spike, only entry
        # (0,0,0) moves, and by exactly the floating-point addition of 5.
        sh = Shape3(2, 2, 2)
        e1 = np.array([1.0, 0.0])
        sig = SignalTriple(e1, e1, e1, 5.0)
        t = generate_spiked(sh, sig, RngSeed(0))
        noise = generate_spiked(sh, SignalTriple(e1, e1, e1, 0.0), RngSeed(0))
        assert t.values[0, 0, 0] == noise.values[0, 0, 0] + 5.0
        assert np.count_nonzero(t.values != noise.values) == 1

    def test_noise_variance(self):
        # beta=0 entries are N(0, 1/6); pooled over many seeds the sample
        # variance should sit within 2% of 1/6.
        sh = Shape3(2, 2, 2)
        sig = SignalTriple.constant(sh, 0.0)
        samples = np.concatenate(
            [
                generate_spiked(sh, sig, RngSeed(77, s)).values.ravel()
                for s in range(12_500)
            ]
        )
        assert samples.size == 100_000
        assert abs(samples.var() - 1.0 / 6.0) < 0.02 / 6.0

    def test_skew_shape(self):
        sh = Shape3(50, 100, 350)
        sig = SignalTriple.random(sh, 2.5, RngSeed(3))
        t = generate_spiked(sh, sig, RngSeed(4))
        assert t.shape.dims == (50, 100, 350)
        assert np.all(np.isfinite(t.values))

    def test_dimension_mismatch_names_mode(self):
        sh = Shape3(3, 4, 5)
        sig = SignalTriple.random(Shape3(3, 4, 6), 1.0, RngSeed(0))
        with pytest.raises(DimensionMismatchError, match="z"):
            generate_spiked(sh, sig, RngSeed(0))

    def test_reproducible(self):
        sh = Shape3(4, 5, 6)
        sig = SignalTriple.random(sh, 2.0, RngSeed(9))
        a = generate_spiked(sh, sig, RngSeed(5, 3))
        b = generate_spiked(sh, sig, RngSeed(5, 3))
        assert np.array_equal(a.values, b.values)
        c = generate_spiked(sh, sig, RngSeed(5, 4))
        assert not np.array_equal(a.values, c.values)

    # The spike is added in blocks of slabs: three blocks of 32, 32 and 6
    # slabs of 2000 entries, or one slab of 90 000 entries per block.
    @pytest.mark.parametrize("dims, beta", [
        ((70, 40, 50), 2.5), ((3, 300, 300), 2.5), ((70, 40, 50), 0.0)])
    def test_matches_whole_array_formula(self, dims, beta):
        # Every entry must round as in the whole-array formula.
        sh = Shape3(*dims)
        sig = SignalTriple.random(sh, beta, RngSeed(9))
        g = RngSeed(5, 1).generator().standard_normal(sh.dims)
        want = g / np.sqrt(sh.N) + beta * np.einsum("i,j,k->ijk", sig.x, sig.y, sig.z)
        got = generate_spiked(sh, sig, RngSeed(5, 1))
        assert got.values.tobytes() == want.tobytes()


class TestSampleMask:
    def test_degenerate(self):
        sh = Shape3(3, 4, 5)
        assert np.all(sample_mask(sh, 1.0, RngSeed(0)).bits == 1)
        assert np.all(sample_mask(sh, 0.0, RngSeed(0)).bits == 0)

    def test_fill_fraction_five_sigma(self):
        sh = Shape3(100, 200, 700)
        eps = 0.25
        m = sample_mask(sh, eps, RngSeed(11))
        band = 5.0 * np.sqrt(eps * (1 - eps) / (sh.n1 * sh.n2 * sh.n3))
        assert abs(m.fill_fraction() - eps) < band

    # 60 entries fit in one chunk; 72 000 make two, the second short.
    @pytest.mark.parametrize("dims", [(3, 4, 5), (20, 40, 90)])
    def test_matches_whole_uniform_draw(self, dims):
        sh = Shape3(*dims)
        want = RngSeed(7, 2).generator().random(sh.dims) < 0.35
        got = sample_mask(sh, 0.35, RngSeed(7, 2))
        assert got.bits.tobytes() == want.astype(np.uint8).tobytes()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sample_mask(Shape3(2, 2, 2), 1.5, RngSeed(0))
        with pytest.raises(ValueError):
            sample_mask(Shape3(2, 2, 2), -0.1, RngSeed(0))


class TestTensor3:
    @pytest.mark.parametrize(
        "bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
        ids=["nan", "inf", "-inf", "inf and -inf"])
    def test_rejects_non_finite_entries(self, bad):
        vals = np.zeros((2, 3, 4))
        vals.flat[[5, 17][: len(bad)]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                Tensor3(vals)

    def test_accepts_finite_entries_whose_sum_overflows(self):
        # The finiteness check sums the entries first; a sum that overflows
        # must fall back to the entrywise test, and warn nothing.
        vals = np.zeros((2, 3, 4))
        vals.flat[[3, 11]] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = Tensor3(vals)
        assert np.array_equal(t.values, vals)

    def test_finiteness_check_is_exact_in_float32(self):
        # scan_restarts checks its float32 copy by the same sum. A copy whose
        # finite entries sum past float32's range would overflow the scan's
        # own norms, so the check is tested directly.
        vals = np.zeros((3, 4, 5), dtype=np.float32)
        vals.flat[[2, 9]] = np.finfo(np.float32).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _all_finite(vals)
            for bad in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]):
                worse = vals.copy()
                worse.flat[[30, 41][: len(bad)]] = bad
                assert not _all_finite(worse)

    def test_writable_input_stays_the_callers(self):
        vals = np.zeros((2, 3, 4))
        t = Tensor3(vals)
        vals[0, 1, 2] = 1.0  # the caller's array is still writable
        assert t.values[0, 1, 2] == 0.0
        assert not t.values.flags.writeable

    def test_read_only_input_is_kept_without_copy(self):
        vals = np.zeros((2, 3, 4))
        vals.flags.writeable = False
        assert Tensor3(vals).values is vals

    def test_builders_hand_over_their_buffer(self):
        # The builders' tensors are the buffers of their products: the peak
        # allocation of a puncture or a mask product is that buffer plus the
        # one-byte mask, never a second float64 copy of it.
        sh = Shape3(20, 30, 40)
        sig = SignalTriple.random(sh, 2.0, RngSeed(1))
        draw = draw_trial(sh, sig, (0.5,), RngSeed(2).generator())
        t = generate_spiked(sh, sig, RngSeed(3))
        mask = sample_mask(sh, 0.5, RngSeed(4))
        for build in (lambda: puncture(draw, 0.5), lambda: hadamard(t, mask)):
            tracemalloc.start()
            try:
                out = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not out.values.flags.writeable
            assert peak < 1.5 * out.values.nbytes


def _whole_draws(shape, gen):
    """G, then U, each drawn as one array from gen."""
    return gen.standard_normal(shape.dims), gen.random(shape.dims)


class TestDrawTrial:
    # 72 000 entries: the uniforms are ranked in two chunks, the second short.
    shape = Shape3(20, 40, 90)

    @pytest.mark.parametrize("beta", [3.0, 0.0, 5.0])
    def test_instance_matches_separate_steps(self, beta):
        # Every level of the grid punctures the one draw; each must equal,
        # bit for bit, the spiked tensor punctured by the mask U < epsilon,
        # with G and then U drawn whole from the same generator. A draw
        # without spike, punctured with the signal, must equal it too.
        shape, grid = self.shape, (0.3, 0.6, 1.0, 0.05)
        signal = SignalTriple.random(shape, beta, RngSeed(4, 0))
        unspiked = SignalTriple(signal.x, signal.y, signal.z, 0.0)
        gen = RngSeed(4, 3).generator()
        draw = draw_trial(shape, signal, grid, gen)
        draw0 = draw_trial(shape, unspiked, grid, RngSeed(4, 3).generator())
        ref = RngSeed(4, 3).generator()
        g, u = _whole_draws(shape, ref)
        # The trial's random starts come next from the same generator.
        assert gen.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes()
        # generate_spiked draws the same G first.
        spiked = generate_spiked(shape, signal, RngSeed(4, 3))
        if beta == 0.0:
            assert spiked.values.tobytes() == (g / np.sqrt(shape.N)).tobytes()
        for eps in grid:
            want = hadamard(spiked, MaskTensor((u < eps).astype(np.uint8), eps))
            assert puncture(draw, eps).values.tobytes() == want.values.tobytes()
            got = puncture(draw0, eps, signal)
            assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
    def test_generator_keeps_a_buffered_32_bit_output(self, bit_generator):
        # One whole draw of U leaves a buffered 32-bit output in place; the
        # chunked draw must leave gen in exactly that state too, whatever
        # bit generator gen runs on.
        signal = SignalTriple.random(self.shape, 2.0, RngSeed(1))
        gen, ref = (np.random.Generator(bit_generator(5)) for _ in range(2))
        for g in (gen, ref):
            g.integers(2**32, dtype=np.uint32)
        draw_trial(self.shape, signal, (0.5,), gen)
        _whole_draws(self.shape, ref)
        np.testing.assert_equal(gen.bit_generator.state, ref.bit_generator.state)
        assert gen.bit_generator.state["has_uint32"] == 1

    def test_spent_levels_equal_puncture(self):
        # The levels are taken in place from the largest epsilon down, on an
        # unsorted grid with a repeated value; each must equal puncture of
        # an unspent draw bit for bit, the sign of every zero included.
        signal = SignalTriple.random(self.shape, 2.0, RngSeed(1))
        grid = (0.6, 0.1, 1.0, 0.6, 0.35)
        draw, ref = (draw_trial(self.shape, signal, grid, RngSeed(7).generator())
                     for _ in range(2))
        taken = []
        for eps, t in _spend_levels(draw):
            want = puncture(ref, eps).values
            assert t.values is draw.values  # no second float64 tensor
            assert not t.values.flags.writeable
            assert t.values.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(t.values), np.signbit(want))
            if eps < 1.0:
                assert np.any((want == 0.0) & np.signbit(want))
            taken.append(eps)
        assert taken == [1.0, 0.6, 0.35, 0.1]

    def test_uniform_equal_to_a_level_is_dropped(self):
        shape = Shape3(3, 4, 5)
        signal = SignalTriple.random(shape, 2.0, RngSeed(1))
        _, u = _whole_draws(shape, RngSeed(6).generator())
        level = float(u.flat[17])
        above = float(np.nextafter(level, 2.0))
        draw = draw_trial(shape, signal, (above, level), RngSeed(6).generator())
        assert puncture(draw, level).values.flat[17] == 0.0
        assert puncture(draw, above).values.flat[17] != 0.0
        for eps in (level, above):
            assert np.array_equal(puncture(draw, eps).values != 0.0, u < eps)

    def test_unsorted_and_duplicated_grid(self):
        shape = Shape3(5, 6, 7)
        signal = SignalTriple.random(shape, 2.0, RngSeed(1))
        grid = (0.6, 0.1, 0.6, 0.35)
        draw = draw_trial(shape, signal, grid, RngSeed(8).generator())
        _, u = _whole_draws(shape, RngSeed(8).generator())
        assert draw.grid == (0.1, 0.35, 0.6)
        assert draw.rank.dtype == np.uint8
        for eps in grid:
            assert np.array_equal(puncture(draw, eps).values != 0.0, u < eps)

    def test_more_than_255_levels_widen_the_rank(self):
        shape = Shape3(6, 7, 8)
        signal = SignalTriple.random(shape, 2.0, RngSeed(1))
        grid = np.linspace(0.001, 1.0, 300)
        draw = draw_trial(shape, signal, grid, RngSeed(9).generator())
        _, u = _whole_draws(shape, RngSeed(9).generator())
        assert draw.rank.dtype == np.uint16
        for eps in grid[[0, 149, 255, 256, 299]]:
            assert np.array_equal(puncture(draw, eps).values != 0.0, u < eps)

    def test_fill_fraction_five_sigma(self):
        sh = Shape3(50, 100, 350)
        signal = SignalTriple.random(sh, 2.5, RngSeed(3))
        draw = draw_trial(sh, signal, (0.25, 0.7), RngSeed(11).generator())
        size = sh.n1 * sh.n2 * sh.n3
        for eps in (0.25, 0.7):
            kept = np.count_nonzero(puncture(draw, eps).values) / size
            assert abs(kept - eps) < 5.0 * np.sqrt(eps * (1 - eps) / size)

    def test_rejects_epsilon_out_of_range(self):
        shape = Shape3(3, 4, 5)
        signal = SignalTriple.random(shape, 2.0, RngSeed(0))
        with pytest.raises(ValueError, match="epsilon"):
            draw_trial(shape, signal, (0.5, 1.5), RngSeed(0).generator())
        with pytest.raises(ValueError, match="epsilon"):
            draw_trial(shape, signal, (), RngSeed(0).generator())
        draw = draw_trial(shape, signal, (0.5,), RngSeed(0).generator())
        with pytest.raises(ValueError, match="epsilon"):
            puncture(draw, 0.6)
        # A second spike on a spiked draw would count beta twice.
        with pytest.raises(ValueError, match="spike"):
            puncture(draw, 0.5, signal)


def _phi0_bytes(dims, epsilon, seed):
    shape = Shape3(*dims)
    factors = [np.random.default_rng(n).standard_normal(n) for n in shape.dims]
    phi = build_phi0_streamed(shape, epsilon, *factors, RngSeed(seed))
    return phi.b12.tobytes() + phi.b13.tobytes() + phi.b23.tobytes()


class TestThreadPool:
    def test_outputs_do_not_depend_on_worker_count(self, monkeypatch):
        # 200 mode-3 slabs make four Phi0 blocks, the last short, which run
        # on the pool. Workers write disjoint parts of shared arrays; with 3
        # workers and a short switch interval, a lost or misplaced write
        # would change the bytes. The 240 000 uniforms of the mask and the
        # trial draw make four chunks, drawn on the caller's thread, and
        # must not change either.
        shape = Shape3(20, 40, 300)
        signal = SignalTriple.random(shape, 2.0, RngSeed(1))
        outputs = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 3):
                with ThreadPoolExecutor(workers) as pool:
                    monkeypatch.setattr(phi_spectrum, "_pool", [pool])
                    gen = RngSeed(3, 1).generator()
                    draw = draw_trial(shape, signal, (0.2, 0.7), gen)
                    outputs.append([
                        sample_mask(shape, 0.3, RngSeed(2)).bits.tobytes(),
                        draw.values.tobytes(), draw.rank.tobytes(),
                        gen.standard_normal(5).tobytes(),
                        _phi0_bytes((6, 7, 200), 0.4, 3),
                    ])
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1]

    def test_forked_child_builds_the_same_phi0(self):
        # The parent's pool has run Phi0's four blocks of slabs; a forked
        # child has none of its worker threads and must build its own pool
        # instead of waiting on them.
        args = ((6, 7, 200), 0.4, 3)
        want = _phi0_bytes(*args)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_phi0_bytes, args).get(timeout=60) == want

    def test_trial_path_never_starts_the_pool(self, monkeypatch, tmp_path):
        # 84 000 entries draw their uniforms in two chunks; a sweep's trial
        # leaves the pool unbuilt. Phi0 of four blocks then builds it.
        monkeypatch.setattr(phi_spectrum, "_pool", [])
        run_epsilon_sweep(ExperimentConfig(
            shape=Shape3(30, 40, 70), epsilon_grid=(0.6,), trials=1, out=tmp_path))
        assert phi_spectrum._pool == []
        _phi0_bytes((6, 7, 200), 0.4, 3)
        assert len(phi_spectrum._pool) == 1
        phi_spectrum._pool[0].shutdown()


class TestHadamard:
    def test_identity_and_zero_masks(self, rng):
        sh = Shape3(3, 4, 5)
        t = Tensor3(rng.standard_normal(sh.dims))
        ones = MaskTensor(np.ones(sh.dims), 1.0)
        zeros = MaskTensor(np.zeros(sh.dims), 0.0)
        assert np.array_equal(hadamard(t, ones).values, t.values)
        assert np.all(hadamard(t, zeros).values == 0.0)

    def test_pointwise(self, rng):
        t = Tensor3(np.full((2, 2, 2), 3.5))
        bits = np.zeros((2, 2, 2))
        bits[1, 0, 1] = 1
        m = MaskTensor(bits, 0.5)
        out = hadamard(t, m).values
        assert out[1, 0, 1] == 3.5
        assert out[0, 0, 0] == 0.0

    def test_idempotent(self, rng):
        sh = Shape3(3, 4, 5)
        t = Tensor3(rng.standard_normal(sh.dims))
        m = sample_mask(sh, 0.3, RngSeed(2))
        once = hadamard(t, m)
        twice = hadamard(once, m)
        assert np.array_equal(once.values, twice.values)

    def test_shape_mismatch(self, rng):
        t = Tensor3(rng.standard_normal((2, 3, 4)))
        m = sample_mask(Shape3(2, 3, 5), 0.5, RngSeed(0))
        with pytest.raises(DimensionMismatchError):
            hadamard(t, m)


def _free_mode(t, a, b, c):
    """Each one-free-mode contraction, t(:, b, c), t(a, :, c) and t(a, b, :),
    by both contract_one compositions that reach it: {mode: (one, other)}."""
    return {
        1: (contract_one(t, 3, c) @ b, contract_one(t, 2, b) @ c),
        2: (a @ contract_one(t, 3, c), contract_one(t, 1, a) @ c),
        3: (a @ contract_one(t, 2, b), b @ contract_one(t, 1, a)),
    }


class TestContractions:
    def test_basis_tensor(self):
        vals = np.zeros((3, 4, 5))
        vals[1, 2, 3] = 1.0
        t = Tensor3(vals)
        e = lambda n, i: np.eye(n)[i]
        assert contract_full(t, e(3, 1), e(4, 2), e(5, 3)) == 1.0

    def test_rank_one(self, rng):
        x, y, z = (rng.standard_normal(n) for n in (3, 4, 5))
        x, y, z = (v / np.linalg.norm(v) for v in (x, y, z))
        t = Tensor3(2.5 * np.einsum("i,j,k->ijk", x, y, z))
        assert abs(contract_full(t, x, y, z) - 2.5) < 1e-12
        np.testing.assert_allclose(contract_one(t, 3, z) @ y, 2.5 * x, atol=1e-12)
        np.testing.assert_allclose(
            contract_one(t, 3, z), 2.5 * np.outer(x, y), atol=1e-12
        )

    def test_against_triple_loop(self, rng):
        t = Tensor3(rng.standard_normal((3, 4, 5)))
        a, b, c = (rng.standard_normal(n) for n in (3, 4, 5))
        assert abs(contract_full(t, a, b, c) - triple_loop_full(t.values, a, b, c)) < 1e-12
        free = _free_mode(t, a, b, c)
        for mode, (p, q) in [(1, (b, c)), (2, (a, c)), (3, (a, b))]:
            for got in free[mode]:
                np.testing.assert_allclose(
                    got, triple_loop_mode(t.values, mode, p, q), atol=1e-12
                )
        for mode, p in [(1, a), (2, b), (3, c)]:
            np.testing.assert_allclose(
                contract_one(t, mode, p),
                triple_loop_one(t.values, mode, p),
                atol=1e-12,
            )

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_batch_matches_columns(self, rng, mode):
        dims = (3, 4, 5)
        t = Tensor3(rng.standard_normal(dims))
        P = rng.standard_normal((dims[mode - 1], 3))
        got = contract_one(t, mode, P)
        assert got.shape == contract_one(t, mode, P[:, 0]).shape + (3,)
        for r in range(3):
            np.testing.assert_allclose(
                got[..., r], triple_loop_one(t.values, mode, P[:, r]), atol=1e-12
            )
        stacked = np.stack([contract_one(t, mode, p) for p in P.T], axis=-1)
        np.testing.assert_allclose(got, stacked, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, int])
    def test_any_input_is_held_as_float64(self, rng, dtype):
        # Tensor3 casts every input to float64, so contractions and masks
        # on it equal those on the same values given as float64.
        dims = (4, 5, 6)
        vals = (4 * rng.standard_normal(dims)).astype(dtype)
        t, t64 = Tensor3(vals), Tensor3(vals.astype(np.float64))
        assert t.values.dtype == np.float64
        a, b, c = (rng.standard_normal(n) for n in dims)
        assert contract_full(t, a, b, c) == contract_full(t64, a, b, c)
        m = sample_mask(t.shape, 0.5, RngSeed(1))
        masked = hadamard(t, m).values
        assert masked.dtype == np.float64
        np.testing.assert_array_equal(masked, hadamard(t64, m).values)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_float32_tensor_computes_in_float32(self, rng, mode):
        # The restart scan's one float32 contraction path: a sweep on the
        # float32 copy returns float32 rows, and the factor whose free mode
        # is `mode` matches a float64 sweep from contract_one, restart by
        # restart.
        dims = (3, 4, 5)
        t = Tensor3(rng.standard_normal(dims))
        U, V, W = (rng.standard_normal((2, n)) for n in dims)
        for rows in (U, V, W):
            rank_one._unit_columns(rows.T)
        got = rank_one._scan_sweep(
            t.values.astype(np.float32),
            *(rows.astype(np.float32) for rows in (U, V, W)))[mode - 1]
        assert got.dtype == np.float32
        for r in range(2):
            M3 = contract_one(t, 3, W[r])
            u = M3 @ V[r]
            u /= np.linalg.norm(u)
            v = M3.T @ u
            v /= np.linalg.norm(v)
            w = contract_one(t, 1, u).T @ v
            exact = (u, v, w / np.linalg.norm(w))[mode - 1]
            assert np.max(np.abs(got[r] - exact)) <= 1e-5 * np.max(np.abs(exact))

    def test_consistency_chain_random_shapes(self, rng):
        # contract_one composes into every one-free-mode contraction, both
        # ways round, and from there into contract_full.
        for _ in range(100):
            dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
            t = Tensor3(rng.standard_normal(dims))
            a, b, c = (rng.standard_normal(n) for n in dims)
            free = _free_mode(t, a, b, c)
            for mode, (p, q) in [(1, (b, c)), (2, (a, c)), (3, (a, b))]:
                for got in free[mode]:
                    np.testing.assert_allclose(
                        got, triple_loop_mode(t.values, mode, p, q), atol=1e-12
                    )
            full = contract_full(t, a, b, c)
            for mode, rest in [(1, a), (2, b), (3, c)]:
                assert abs(free[mode][0] @ rest - full) < 1e-12

    def test_multilinearity(self, rng):
        t = Tensor3(rng.standard_normal((4, 3, 6)))
        a, b, c = (rng.standard_normal(n) for n in (4, 3, 6))
        assert (
            abs(contract_full(t, 2.5 * a, b, c) - 2.5 * contract_full(t, a, b, c))
            < 1e-12
        )

    def test_dimension_errors(self, rng):
        dims = (3, 4, 5)
        t = Tensor3(rng.standard_normal(dims))
        with pytest.raises(DimensionMismatchError):
            contract_full(t, np.zeros(2), np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError):
            contract_one(t, 4, np.zeros(4))
        for mode, n in zip((1, 2, 3), dims):
            with pytest.raises(DimensionMismatchError):
                contract_one(t, mode, np.zeros(n + 1))
            with pytest.raises(DimensionMismatchError):
                contract_one(t, mode, np.zeros((n + 1, 2)))
            with pytest.raises(DimensionMismatchError):
                contract_one(t, mode, np.zeros((n, 2, 2)))


class TestSignalTriple:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="unit norm"):
            SignalTriple(np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                         np.array([1.0, 0.0]), 1.0)

    def test_random_is_unit(self):
        sig = SignalTriple.random(Shape3(7, 8, 9), 2.0, RngSeed(3))
        for v in (sig.x, sig.y, sig.z):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
