import numpy as np
import pytest

from punctured_tensor import (
    MaskTensor,
    RngSeed,
    Shape3,
    SignalTriple,
    Tensor3,
    contract_full,
    contract_one,
    generate_spiked,
    hadamard,
    sample_mask,
)
from punctured_tensor.tensor_core import DimensionMismatchError, _contract

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
        # beta=5, zero noise override, x=y=z=e1: only entry (0,0,0) is set.
        sh = Shape3(2, 2, 2)
        e1 = np.array([1.0, 0.0])
        sig = SignalTriple(e1, e1, e1, 5.0)
        t = generate_spiked(sh, sig, RngSeed(0), noise=np.zeros(sh.dims))
        assert t.values[0, 0, 0] == 5.0
        assert np.count_nonzero(t.values) == 1

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

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sample_mask(Shape3(2, 2, 2), 1.5, RngSeed(0))
        with pytest.raises(ValueError):
            sample_mask(Shape3(2, 2, 2), -0.1, RngSeed(0))


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
        # The private kernel computes in its array's dtype (the operand is
        # cast to it): float32 only for the restart scan's ranking copy.
        dims = (3, 4, 5)
        vals = rng.standard_normal(dims)
        P = rng.standard_normal((dims[mode - 1], 2))
        got = _contract(vals.astype(np.float32), mode, P)
        assert got.dtype == np.float32
        exact = contract_one(Tensor3(vals), mode, P)
        assert np.max(np.abs(got - exact)) <= 1e-5 * np.max(np.abs(exact))

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
