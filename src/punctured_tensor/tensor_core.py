"""Dense order-3 tensors: spiked-model sampling, Bernoulli masks and contractions.

Entries of a tensor with dimensions (n1, n2, n3) are stored in C order,
i.e. the third index k runs fastest, then j, then i.

A Monte Carlo trial is drawn once for a whole grid of mask levels:
draw_trial draws the noise and one uniform U per entry, and puncture then
keeps the entries with U < epsilon at any epsilon of the grid. The grid
values share the draw, so they are coupled: a higher epsilon keeps a
superset of the entries a lower one keeps. The trial loop uses that
nesting to puncture the draw in place, from the largest epsilon down, so
one float64 tensor serves the whole grid.
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


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of arr is finite, without a full-size temporary.

    A sum with a NaN or an infinite term is not finite, so a finite sum
    settles it; only a sum that is not (such terms, or an overflow of finite
    ones) falls back to the entrywise test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(arr.sum()):
            return True
    return bool(np.all(np.isfinite(arr)))


class Tensor3:
    """Immutable dense order-3 real tensor; every input is cast to float64."""

    __slots__ = ("values", "shape")

    def __init__(self, values):
        # A writable input stays the caller's, so it is copied; a read-only
        # one (what the builders pass) is kept without a second tensor.
        arr = np.asarray(values, dtype=np.float64, order="C")
        if arr.flags.writeable:
            arr = arr.copy()
        if arr.ndim != 3:
            raise DimensionMismatchError(f"expected a 3-way array, got ndim={arr.ndim}")
        if not _all_finite(arr):
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


def check_factors(shape: Shape3, factors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors (u, v, w) as float64 vectors of lengths (n1, n2, n3)."""
    factors = tuple(factors)
    if len(factors) != 3:
        raise DimensionMismatchError(
            f"expected three factors (u, v, w), got {len(factors)}")
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


def _spike(signal: SignalTriple, rows: slice = slice(None)) -> np.ndarray | None:
    """beta * x[rows] (x) y (x) z in a fresh buffer, or None when beta is 0."""
    if signal.beta == 0.0:
        return None
    spike = np.einsum("i,j,k->ijk", signal.x[rows], signal.y, signal.z)
    spike *= signal.beta
    return spike


def _scale_and_spike(g: np.ndarray, signal: SignalTriple) -> np.ndarray:
    """Turn standard normals g into g / sqrt(N) + beta * x (x) y (x) z in place,
    in one pass over blocks of mode-1 slabs of about _RANK_CHUNK entries:
    each block is scaled, then gets its part of the spike (rounded as the
    whole spike), so no full-size temporary is built."""
    scale = np.sqrt(sum(g.shape))
    rows = max(1, _RANK_CHUNK // g[0].size)
    for i in range(0, g.shape[0], rows):
        block = g[i : i + rows]
        block /= scale
        spike = _spike(signal, slice(i, i + rows))
        if spike is not None:
            block += spike
    return g


def _frozen(values: np.ndarray) -> Tensor3:
    """Tensor3 of a buffer the caller owns and hands over, without a copy."""
    values.flags.writeable = False
    return Tensor3(values)


def generate_spiked(shape: Shape3, signal: SignalTriple, rng: RngSeed) -> Tensor3:
    """Sample beta * x (x) y (x) z + G / sqrt(N) with G i.i.d. standard normal."""
    signal.check_shape(shape)
    g = rng.generator().standard_normal(shape.dims)
    return _frozen(_scale_and_spike(g, signal))


def sample_mask(shape: Shape3, epsilon: float, rng: RngSeed) -> MaskTensor:
    """Sample an i.i.d. Bernoulli(epsilon) 0/1 mask: bit for bit, U < epsilon
    for U = rng.generator().random(shape.dims), never held whole."""
    check_epsilon(epsilon)
    bits = np.empty(shape.dims, dtype=np.uint8)
    flat = bits.reshape(-1).view(bool)
    _each_uniform_chunk(rng.generator(), bits.size, lambda start, u: np.less(
        u, epsilon, out=flat[start : start + u.size]))
    return MaskTensor(bits, epsilon)


# Uniforms are drawn in chunks of this many entries, so that no float64
# copy of U is held.
_RANK_CHUNK = 1 << 16


def _each_uniform_chunk(gen: np.random.Generator, size: int, fn) -> None:
    """fn(start, U[start : start + _RANK_CHUNK]) for the next size uniforms U
    of gen, chunk by chunk. Consecutive draws continue one stream, so the
    chunks are one whole draw of U, bit for bit, and gen ends where that
    draw leaves it, a buffered 32-bit output included."""
    for start in range(0, size, _RANK_CHUNK):
        fn(start, gen.random(min(_RANK_CHUNK, size - start)))


@dataclass(frozen=True)
class TrialDraw:
    """One trial's random draws, shared by every mask level of a grid.

    values is G / sqrt(N) + beta * x (x) y (x) z (beta of the signal it was
    drawn with), float64 and read-only until _spend_levels punctures it in
    place, level by level. grid holds the distinct levels,
    ascending. rank[i, j, k] is the number of levels <= U[i, j, k], for the
    entry's uniform U, so U < grid[g] exactly when rank <= g. rank is uint8
    up to 255 levels and a wider unsigned type beyond.
    """

    values: np.ndarray
    rank: np.ndarray
    grid: tuple
    beta: float


def draw_trial(
    shape: Shape3, signal: SignalTriple, grid, gen: np.random.Generator
) -> TrialDraw:
    """Draw G, then one uniform U per entry, from gen, for every epsilon of grid.

    When gen is rng.generator(), puncture(draw, epsilon) equals, bit for
    bit, generate_spiked(shape, signal, rng), which draws the same G,
    punctured by the mask U < epsilon. U is drawn and ranked in chunks. The
    caller goes on drawing from gen (a trial's random starts), which is then
    where one draw of all of G and of all of U would leave it. Ranking U
    costs one comparison per entry and grid level.
    """
    signal.check_shape(shape)
    levels = sorted(set(float(eps) for eps in grid))
    if not levels:
        raise ValueError("the grid needs at least one epsilon")
    for eps in levels:
        check_epsilon(eps)
    values = gen.standard_normal(shape.dims)
    rank = np.zeros(values.size, dtype=np.min_scalar_type(len(levels)))

    def count_levels(start, u):
        r, ge = rank[start : start + u.size], np.empty(u.size, dtype=bool)
        for eps in levels:
            np.greater_equal(u, eps, out=ge)
            r += ge.view(np.uint8)

    _each_uniform_chunk(gen, rank.size, count_levels)
    _scale_and_spike(values, signal)
    values.flags.writeable = False
    rank = rank.reshape(shape.dims)
    rank.flags.writeable = False
    return TrialDraw(values, rank, tuple(levels), float(signal.beta))


def puncture(
    draw: TrialDraw, epsilon: float, signal: SignalTriple | None = None
) -> Tensor3:
    """The drawn tensor with every entry whose U >= epsilon set to zero.

    epsilon must be a level of draw's grid. With a signal, its spike
    beta * x (x) y (x) z is added first, by the operations of
    generate_spiked, so that a grid of beta values shares one draw too; the
    draw must then hold no spike (beta 0).
    """
    if epsilon not in draw.grid:
        raise ValueError(f"epsilon {epsilon} is not a level of the draw's grid")
    keep = draw.rank <= draw.grid.index(epsilon)
    spike = None
    if signal is not None:
        if draw.beta != 0.0:
            raise ValueError("the draw already holds a spike")
        signal.check_shape(Shape3(*draw.values.shape))
        spike = _spike(signal)
    if spike is None:
        return _frozen(draw.values * keep)
    spike += draw.values
    spike *= keep
    return _frozen(spike)


def _spend_levels(draw: TrialDraw):
    """Yield (epsilon, puncture(draw, epsilon)) for every level of draw's
    grid, the largest first, each punctured in draw.values itself.

    The masks are nested (U < grid[g] exactly when rank <= g), so a level
    multiplies the level above by its own mask; x * 1 * 0 and x * 0 * 0
    keep the sign of x * 0, so every level equals puncture's bit for bit.
    This spends the draw: a level's tensor is valid only until the next
    level is taken, and puncture must not be called on the draw again.
    """
    values = draw.values
    for g in reversed(range(len(draw.grid))):
        values.flags.writeable = True
        np.multiply(values, draw.rank <= g, out=values)
        yield draw.grid[g], _frozen(values)


def hadamard(t: Tensor3, m: MaskTensor) -> Tensor3:
    """Entrywise product t . m (puncturing)."""
    if t.shape != m.shape:
        raise DimensionMismatchError(
            f"tensor shape {t.shape.dims} != mask shape {m.shape.dims}"
        )
    return _frozen(t.values * m.bits)


def contract_full(t: Tensor3, a, b, c) -> float:
    """Full contraction sum_{ijk} t_ijk a_i b_j c_k."""
    a, b, c = check_factors(t.shape, (a, b, c))
    return float(a @ (contract_one(t, 3, c) @ b))


def contract_one(t: Tensor3, mode: int, p) -> np.ndarray:
    """Contract a single mode against p; every float64 product with the
    tensor (the restart scan multiplies its private float32 copy itself).

    mode 3 gives the n1 x n2 matrix sum_k t_ijk p_k; mode 2 gives n1 x n3;
    mode 1 gives n2 x n3. p is a vector (n_mode,) or a batch (n_mode, R) of
    R vectors; a batch adds a trailing R axis to the result.
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    p = _check_vector(p, t.shape.dim(mode), f"mode-{mode} operand", batch=True)
    A = t.values
    n1, n2, n3 = A.shape
    if mode == 1:
        return (A.reshape(n1, n2 * n3).T @ p).reshape((n2, n3) + p.shape[1:])
    if mode == 2:
        return A.transpose(0, 2, 1) @ p
    return A @ p
