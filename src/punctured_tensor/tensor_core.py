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
    """Immutable dense order-3 real tensor."""

    __slots__ = ("values", "shape")

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
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
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
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
            if getattr(self, name).shape[0] != n:
                raise DimensionMismatchError(
                    f"signal factor {name} has length "
                    f"{getattr(self, name).shape[0]}, expected {n}"
                )


def _check_vector(vec, n: int, label: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (n,):
        raise DimensionMismatchError(f"{label} has shape {vec.shape}, expected ({n},)")
    return vec


def generate_spiked(
    shape: Shape3,
    signal: SignalTriple,
    rng: RngSeed,
    noise: np.ndarray | None = None,
) -> Tensor3:
    """Sample beta * x (x) y (x) z + G / sqrt(N) with G i.i.d. standard normal.

    `noise` overrides the random draw of G (unscaled); this hook exists for
    finite-difference tests that perturb a single noise entry.
    """
    signal.check_shape(shape)
    if noise is None:
        g = rng.generator().standard_normal(shape.dims)
    else:
        g = np.asarray(noise, dtype=np.float64)
        if g.shape != shape.dims:
            raise DimensionMismatchError(
                f"noise override has shape {g.shape}, expected {shape.dims}"
            )
    t = g / np.sqrt(shape.N)
    if signal.beta != 0.0:
        t = t + signal.beta * np.einsum("i,j,k->ijk", signal.x, signal.y, signal.z)
    return Tensor3(t)


def sample_mask(shape: Shape3, epsilon: float, rng: RngSeed) -> MaskTensor:
    """Sample an i.i.d. Bernoulli(epsilon) 0/1 mask."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    gen = rng.generator()
    bits = (gen.random(shape.dims) < epsilon).astype(np.uint8)
    return MaskTensor(bits, epsilon)


def hadamard(t: Tensor3, m: MaskTensor) -> Tensor3:
    """Entrywise product t . m (puncturing)."""
    if t.shape != m.shape:
        raise DimensionMismatchError(
            f"tensor shape {t.shape.dims} != mask shape {m.shape.dims}"
        )
    return Tensor3(t.values * m.bits)


def contract_full(t: Tensor3, a, b, c) -> float:
    """Full contraction sum_{ijk} t_ijk a_i b_j c_k."""
    n1, n2, n3 = t.shape.dims
    a = _check_vector(a, n1, "mode-1 vector")
    b = _check_vector(b, n2, "mode-2 vector")
    c = _check_vector(c, n3, "mode-3 vector")
    return float(a @ ((t.values @ c) @ b))


def contract_mode(t: Tensor3, mode: int, p, q) -> np.ndarray:
    """Contract all modes but `mode`; p, q are given in ascending mode order.

    mode 1 returns t(:, p, q), mode 2 returns t(p, :, q), mode 3 returns t(p, q, :).
    """
    n1, n2, n3 = t.shape.dims
    A = t.values
    if mode == 1:
        p = _check_vector(p, n2, "mode-2 vector")
        q = _check_vector(q, n3, "mode-3 vector")
        return (A @ q) @ p
    if mode == 2:
        p = _check_vector(p, n1, "mode-1 vector")
        q = _check_vector(q, n3, "mode-3 vector")
        return p @ (A @ q)
    if mode == 3:
        p = _check_vector(p, n1, "mode-1 vector")
        q = _check_vector(q, n2, "mode-2 vector")
        return q @ (p @ A.reshape(n1, n2 * n3)).reshape(n2, n3)
    raise ValueError(f"mode must be 1, 2 or 3, got {mode}")


def contract_one(t: Tensor3, mode: int, p) -> np.ndarray:
    """Contract a single mode against p.

    mode 3 gives the n1 x n2 matrix sum_k t_ijk p_k; mode 2 gives n1 x n3;
    mode 1 gives n2 x n3.
    """
    n1, n2, n3 = t.shape.dims
    A = t.values
    if mode == 1:
        p = _check_vector(p, n1, "mode-1 vector")
        return (p @ A.reshape(n1, n2 * n3)).reshape(n2, n3)
    if mode == 2:
        p = _check_vector(p, n2, "mode-2 vector")
        return p @ A
    if mode == 3:
        p = _check_vector(p, n3, "mode-3 vector")
        return A @ p
    raise ValueError(f"mode must be 1, 2 or 3, got {mode}")

