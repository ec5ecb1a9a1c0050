"""Dense order-3 tensors: spiked-model sampling, Bernoulli masks and contractions.

Entries of a tensor with dimensions (n1, n2, n3) are stored in C order,
i.e. the third index k runs fastest, then j, then i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """A vector or tensor does not match the expected mode dimension."""


@dataclass(frozen=True)
class Shape3:
    """Dimensions (n1, n2, n3) of an order-3 tensor.

    N = n1 + n2 + n3 and the ratios c_l = n_l / N are derived quantities.
    """

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        for name in ("n1", "n2", "n3"):
            n = getattr(self, name)
            if int(n) != n or n < 1:
                raise ValueError(f"{name} must be a positive integer, got {n!r}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    @property
    def N(self) -> int:
        return self.n1 + self.n2 + self.n3

    @property
    def ratios(self) -> tuple[float, float, float]:
        N = self.N
        return (self.n1 / N, self.n2 / N, self.n3 / N)

    def dim(self, mode: int) -> int:
        return self.dims[mode - 1]


@dataclass(frozen=True)
class RngSeed:
    """Seed plus substream index; identical pairs reproduce identical draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


class Tensor3:
    """Immutable dense order-3 real tensor.

    Values given as float32 stay float32; everything else is cast to float64.
    """

    __slots__ = ("values", "shape")

    def __init__(self, values):
        arr = np.asarray(values)
        dtype = np.float32 if arr.dtype == np.float32 else np.float64
        arr = np.ascontiguousarray(arr, dtype=dtype)
        if arr.ndim != 3:
            raise DimensionMismatchError(f"expected a 3-way array, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        self.values = arr
        self.shape = Shape3(*arr.shape)

    def __repr__(self):
        return f"Tensor3(shape={self.shape.dims})"


class MaskTensor:
    """Immutable 0/1 observation mask with its sampling probability epsilon."""

    __slots__ = ("bits", "shape", "epsilon")

    def __init__(self, bits, epsilon: float):
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        if arr.ndim != 3:
            raise DimensionMismatchError(f"expected a 3-way array, got ndim={arr.ndim}")
        if arr.size and arr.max() > 1:
            raise ValueError("mask entries must be 0 or 1")
        check_epsilon(epsilon)
        arr.flags.writeable = False
        self.bits = arr
        self.shape = Shape3(*arr.shape)
        self.epsilon = float(epsilon)

    def fill_fraction(self) -> float:
        return float(self.bits.mean())

    def __repr__(self):
        return f"MaskTensor(shape={self.shape.dims}, epsilon={self.epsilon})"


@dataclass(frozen=True)
class SignalTriple:
    """Unit-norm factors (x, y, z) and signal strength beta of the planted spike."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    beta: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            vec = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if vec.ndim != 1:
                raise DimensionMismatchError(f"signal factor {name} must be a vector")
            if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise ValueError(f"signal factor {name} must have unit norm")
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")

    @classmethod
    def random(cls, shape: Shape3, beta: float, rng: RngSeed) -> "SignalTriple":
        gen = rng.generator()
        vecs = [gen.standard_normal(n) for n in shape.dims]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        return cls(vecs[0], vecs[1], vecs[2], beta)

    @classmethod
    def constant(cls, shape: Shape3, beta: float) -> "SignalTriple":
        """Deterministic normalized all-ones factors, for regression tests."""
        vecs = [np.ones(n) / np.sqrt(n) for n in shape.dims]
        return cls(vecs[0], vecs[1], vecs[2], beta)

    def check_shape(self, shape: Shape3):
        for name, n in zip(("x", "y", "z"), shape.dims):
            _check_vector(getattr(self, name), n, f"signal factor {name}")


def _check_vector(vec, n: int, label: str, batch: bool = False) -> np.ndarray:
    """vec as float64 of shape (n,), or also (n, R) when batch is allowed."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape[:1] != (n,) or vec.ndim > 1 + batch:
        expected = f"({n},) or ({n}, R)" if batch else f"({n},)"
        raise DimensionMismatchError(f"{label} has shape {vec.shape}, expected {expected}")
    return vec


def check_float64(t: Tensor3, who: str) -> None:
    """Raise TypeError unless t holds float64 values.

    A float32 Tensor3 is only the restart scan's ranking copy; solvers,
    residuals and Phi need float64 products.
    """
    if t.values.dtype != np.float64:
        raise TypeError(f"{who} needs a float64 tensor, got {t.values.dtype}")


def check_factors(shape: Shape3, factors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors (u, v, w) as float64 vectors of lengths (n1, n2, n3)."""
    u, v, w = factors
    return (
        _check_vector(u, shape.n1, "mode-1 factor"),
        _check_vector(v, shape.n2, "mode-2 factor"),
        _check_vector(w, shape.n3, "mode-3 factor"),
    )


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless epsilon, the kept fraction, lies in [0, 1]."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")


def _scale_and_spike(g: np.ndarray, signal: SignalTriple) -> np.ndarray:
    """Turn standard normals g into g / sqrt(N) + beta * x (x) y (x) z in place."""
    g /= np.sqrt(sum(g.shape))
    if signal.beta != 0.0:
        spike = np.einsum("i,j,k->ijk", signal.x, signal.y, signal.z)
        spike *= signal.beta
        g += spike
    return g


def generate_spiked(
    shape: Shape3,
    signal: SignalTriple,
    rng: RngSeed,
    noise: np.ndarray | None = None,
) -> Tensor3:
    """Sample beta * x (x) y (x) z + G / sqrt(N) with G i.i.d. standard normal.

    `noise` overrides the random draw of G (unscaled); it is copied, never
    modified. The finite-difference derivative check uses it to perturb a
    single noise entry.
    """
    signal.check_shape(shape)
    if noise is None:
        g = rng.generator().standard_normal(shape.dims)
    else:
        g = np.array(noise, dtype=np.float64)
        if g.shape != shape.dims:
            raise DimensionMismatchError(
                f"noise override has shape {g.shape}, expected {shape.dims}"
            )
    return Tensor3(_scale_and_spike(g, signal))


def _draw_keep(gen: np.random.Generator, shape: Shape3, epsilon: float) -> np.ndarray:
    """I.i.d. Bernoulli(epsilon) pattern of kept entries (True where kept)."""
    check_epsilon(epsilon)
    return gen.random(shape.dims) < epsilon


def sample_mask(shape: Shape3, epsilon: float, rng: RngSeed) -> MaskTensor:
    """Sample an i.i.d. Bernoulli(epsilon) 0/1 mask."""
    bits = _draw_keep(rng.generator(), shape, epsilon).astype(np.uint8)
    return MaskTensor(bits, epsilon)


def sample_punctured(
    shape: Shape3, signal: SignalTriple, epsilon: float, gen: np.random.Generator
) -> Tensor3:
    """Draw G, then a Bernoulli(epsilon) mask, from gen; return the punctured
    spiked tensor (beta * x (x) y (x) z + G / sqrt(N)) . mask.

    The tensor is built in the buffer of G, without the unmasked copy: it
    equals hadamard(generate_spiked(shape, signal, _, noise=G), mask) bit for
    bit. The caller goes on drawing from gen (a trial's random starts).
    """
    signal.check_shape(shape)
    values = gen.standard_normal(shape.dims)
    keep = _draw_keep(gen, shape, epsilon)
    _scale_and_spike(values, signal)
    values *= keep
    return Tensor3(values)


def hadamard(t: Tensor3, m: MaskTensor) -> Tensor3:
    """Entrywise product t . m (puncturing)."""
    if t.shape != m.shape:
        raise DimensionMismatchError(
            f"tensor shape {t.shape.dims} != mask shape {m.shape.dims}"
        )
    return Tensor3(t.values * m.bits)


def contract_full(t: Tensor3, a, b, c) -> float:
    """Full contraction sum_{ijk} t_ijk a_i b_j c_k."""
    a, b, c = check_factors(t.shape, (a, b, c))
    return float(a @ (contract_one(t, 3, c) @ b))


def contract_one(t: Tensor3, mode: int, p) -> np.ndarray:
    """Contract a single mode against p; the only product with the tensor.

    mode 3 gives the n1 x n2 matrix sum_k t_ijk p_k; mode 2 gives n1 x n3;
    mode 1 gives n2 x n3. p is a vector (n_mode,) or a batch (n_mode, R) of
    R vectors; a batch adds a trailing R axis to the result. The product is
    computed in the tensor's dtype (p is cast to it): float64 everywhere
    except the float32 copy that scan_restarts ranks its restarts on.
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    p = _check_vector(p, t.shape.dim(mode), f"mode-{mode} operand", batch=True)
    n1, n2, n3 = t.shape.dims
    A = t.values
    p = p.astype(A.dtype, copy=False)
    if mode == 1:
        return (A.reshape(n1, n2 * n3).T @ p).reshape((n2, n3) + p.shape[1:])
    if mode == 2:
        return np.moveaxis(A, 1, -1) @ p
    return A @ p
