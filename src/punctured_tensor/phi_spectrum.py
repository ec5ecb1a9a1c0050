"""The associated symmetric block matrix Phi(u, v, w) and its spectral checks.

Phi has zero diagonal blocks and off-diagonal blocks given by the three
one-mode contractions of the masked tensor on the critical-point factors.
Its spectrum carries the structural eigenpairs (2 sigma, -sigma, -sigma) and
the resolvent (Phi - sigma I)^-1 predicts how the factors react to a
perturbation of a single noise entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rank_one import CriticalPoint, _solve_zero_block
from .tensor_core import (
    DimensionMismatchError,
    RngSeed,
    Shape3,
    SignalTriple,
    Tensor3,
    check_epsilon,
    check_factors,
    contract_one,
)


class SingularResolventError(RuntimeError):
    """sigma is (numerically) an eigenvalue of Phi; the resolvent blows up."""


# Eigenvalues below ZERO_TOL * max|lambda| count as zero (relative).
ZERO_TOL = 1e-10
# resolvent_solve refuses a sigma closer than GAP_TOL to an eigenvalue.
GAP_TOL = 1e-8


@dataclass(frozen=True)
class PhiMatrix:
    shape: Shape3
    matrix: np.ndarray  # (N, N), symmetric, zero diagonal blocks; read-only

    def __post_init__(self):
        # A writable input stays the caller's, so it is copied; a read-only
        # one (what the builders pass) is kept without a second N x N array.
        arr = np.asarray(self.matrix, dtype=np.float64, order="C")
        if arr.flags.writeable:
            arr = arr.copy()
        N = self.shape.N
        if arr.shape != (N, N):
            raise DimensionMismatchError(
                f"Phi has shape {arr.shape}, expected ({N}, {N})"
            )
        # The eigenvalue reduction relies on these blocks being exactly zero.
        if any(np.any(arr[s, s]) for s in self.block_slices):
            raise ValueError("Phi must have zero diagonal blocks")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending and read-only: the one eigensolve that
        the spectrum, the structural checks and the resolvent share.

        The dense eigensolve runs on a reduced core of size
        min(2 (N - n_L), N), n_L the largest of n1, n2, n3; the rest of the
        spectrum is exactly zero (see _block_eigvalsh).
        """
        vals = _block_eigvalsh(self.shape, self.matrix)
        vals.flags.writeable = False
        return vals

    @property
    def block_slices(self):
        n1, n2, n3 = self.shape.dims
        return (slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, n1 + n2 + n3))


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray  # sorted descending
    zero_count: int
    zero_threshold: float


@dataclass(frozen=True)
class ESDHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray  # raw integer counts per bin
    density: np.ndarray  # normalized so the total area is 1
    excluded_zero_count: int


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class StructuralReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _block_eigvalsh(shape: Shape3, M: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a symmetric M with zero diagonal blocks.

    Let L be the largest block and "rest" the other two, m = N - n_L. Up to
    a permutation M = [[A, C], [C^T, 0]] with A = M[rest, rest] and
    C = M[rest, L]. With C^T = Q r (r is min(n_L, m) x m), the orthogonal
    change of basis diag(I, [Q, Q_perp]) takes M to [[A, r^T], [r, 0]]
    padded with n_L - min(n_L, m) zero rows and columns. So the spectrum is
    that core's plus max(0, n_L - m) exact zeros.
    """
    rest, big = _largest_block(shape)
    m = rest.size
    r = np.linalg.qr(M[big, rest], mode="r")  # M[L, rest] = C^T
    k = r.shape[0]
    core = np.block([[M[np.ix_(rest, rest)], r.T], [r, np.zeros((k, k))]])
    vals = np.linalg.eigvalsh(core)
    return np.sort(np.concatenate([vals, np.zeros(shape.N - m - k)]))


def _largest_block(shape: Shape3):
    """Indices outside Phi's largest diagonal block, and that block's slice."""
    b = int(np.argmax(shape.dims))
    lo, hi = sum(shape.dims[:b]), sum(shape.dims[: b + 1])
    return np.r_[0:lo, hi : shape.N], slice(lo, hi)


def _assemble(shape: Shape3, b12, b13, b23) -> PhiMatrix:
    n1, n2, n3 = shape.dims
    N = shape.N
    phi = np.zeros((N, N))
    s1, s2, s3 = slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, N)
    phi[s1, s2] = b12
    phi[s1, s3] = b13
    phi[s2, s3] = b23
    phi[s2, s1] = b12.T
    phi[s3, s1] = b13.T
    phi[s3, s2] = b23.T
    phi.flags.writeable = False
    return PhiMatrix(shape, phi)


def build_phi(tm: Tensor3, u, v, w) -> PhiMatrix:
    """Assemble Phi from the already-masked tensor and the three factors."""
    u, v, w = check_factors(tm.shape, (u, v, w))
    b12 = contract_one(tm, 3, w)
    b13 = contract_one(tm, 2, v)
    b23 = contract_one(tm, 1, u)
    return _assemble(tm.shape, b12, b13, b23)


def build_phi0_streamed(
    shape: Shape3, epsilon: float, u, v, w, rng: RngSeed
) -> PhiMatrix:
    """Phi of a pure-noise masked tensor, built slab by slab along mode 3.

    Never materializes the n1 x n2 x n3 array, so large-N spectra fit in
    memory. Each mode-3 slab draws its Bernoulli(epsilon) mask first (n1*n2
    uniforms, C order) and then one standard normal for each kept entry
    only, in C order, so about epsilon * n1*n2*n3 normals are drawn in all.
    This is a different stream layout than generate_spiked + sample_mask;
    the two are equal in distribution, not bit-for-bit.
    """
    u, v, w = check_factors(shape, (u, v, w))
    check_epsilon(epsilon)
    n1, n2, n3 = shape.dims
    gen = rng.generator()
    scale = 1.0 / np.sqrt(shape.N)
    b12 = np.zeros((n1, n2))
    b13 = np.zeros((n1, n3))
    b23 = np.zeros((n2, n3))
    slab = np.zeros((n1, n2))
    flat = slab.reshape(-1)
    for k in range(n3):
        kept = np.flatnonzero(gen.random(n1 * n2) < epsilon)
        flat[:] = 0.0
        flat[kept] = gen.standard_normal(kept.size) * scale
        b12 += w[k] * slab
        b13[:, k] = slab @ v
        b23[:, k] = slab.T @ u
    return _assemble(shape, b12, b13, b23)


def eigen_spectrum(phi: PhiMatrix) -> SpectrumResult:
    """All eigenvalues of Phi, sorted descending.

    Eigenvalues below ZERO_TOL * max|lambda| count as zero (the degenerate
    subspace of the block structure).
    """
    vals = phi.eigenvalues[::-1]
    scale = float(np.max(np.abs(vals))) if vals.size else 1.0
    threshold = ZERO_TOL * max(scale, 1e-300)
    zero_count = int(np.sum(np.abs(vals) < threshold))
    return SpectrumResult(vals, zero_count, threshold)


def check_structural_eigenpairs(
    phi: PhiMatrix, cp: CriticalPoint, tol: float = 1e-8
) -> StructuralReport:
    """Verify the three structural facts about the spectrum of Phi.

    (1) [u; v; w] is an eigenvector with eigenvalue 2 sigma;
    (2) [u; -v; 0] and [u; 0; -w] are mapped to -sigma times themselves;
    (3) the eigenvalue nearest 2 sigma is 2 sigma and every other one lies
        in [-sigma, sigma], up to tol.
    """
    M = phi.matrix
    sigma = cp.sigma
    u, v, w = cp.u, cp.v, cp.w
    z2, z3 = np.zeros_like(v), np.zeros_like(w)

    s = np.concatenate([u, v, w])
    r1 = float(np.linalg.norm(M @ s - 2.0 * sigma * s))

    e1 = np.concatenate([u, -v, z3])
    e2 = np.concatenate([u, z2, -w])
    r2 = max(
        float(np.linalg.norm(M @ e1 + sigma * e1)),
        float(np.linalg.norm(M @ e2 + sigma * e2)),
    )

    # Exactly one eigenvalue, the nearest, stands for 2 sigma; every other
    # one must lie in [-sigma, sigma].
    vals = phi.eigenvalues
    top = int(np.argmin(np.abs(vals - 2.0 * sigma)))
    excess = np.abs(vals) - sigma
    excess[top] = abs(vals[top] - 2.0 * sigma)
    r3 = float(max(0.0, np.max(excess)))

    checks = (
        CheckItem("eigenpair_2sigma", r1 <= tol, r1, tol),
        CheckItem("eigenspace_minus_sigma", r2 <= tol, r2, tol),
        CheckItem("bulk_bounded_by_sigma", r3 <= tol, r3, tol),
    )
    return StructuralReport(checks)


def spike_core(signal: SignalTriple, cp: CriticalPoint):
    """Block-diagonal embedding V of (x, y, z) and the 3x3 core S."""
    n1, n2, n3 = signal.x.size, signal.y.size, signal.z.size
    N = n1 + n2 + n3
    V = np.zeros((N, 3))
    V[:n1, 0] = signal.x
    V[n1 : n1 + n2, 1] = signal.y
    V[n1 + n2 :, 2] = signal.z
    a1 = float(signal.x @ cp.u)
    a2 = float(signal.y @ cp.v)
    a3 = float(signal.z @ cp.w)
    S = np.array([[0.0, a3, a2], [a3, 0.0, a1], [a2, a1, 0.0]])
    return V, S


def spike_decomposition_residual(
    phi: PhiMatrix,
    signal: SignalTriple,
    cp: CriticalPoint,
    phi0: PhiMatrix,
    epsilon: float,
) -> float:
    """Operator norm (largest singular value) of
    E = Phi - eps*beta*V S V^T - Phi0; the claim is ||E|| -> 0.

    diag(S) = 0, so E has zero diagonal blocks like Phi, and its norm is its
    largest |eigenvalue|.
    """
    if phi.shape != phi0.shape:
        raise DimensionMismatchError("phi and phi0 have different shapes")
    V, S = spike_core(signal, cp)
    E = phi.matrix - epsilon * signal.beta * (V @ S @ V.T) - phi0.matrix
    return float(np.max(np.abs(PhiMatrix(phi.shape, E).eigenvalues)))


def resolvent_solve(phi: PhiMatrix, sigma: float, rhs):
    """Solve (Phi - sigma I) q = rhs with Phi's largest zero diagonal block
    eliminated, as in the Newton step (rank_one._solve_zero_block).

    Refuses when sigma sits within GAP_TOL of an eigenvalue of Phi's
    cached spectrum, or of 0, by which the elimination divides.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != phi.shape.N:
        raise DimensionMismatchError("right-hand side length does not match N")
    gap = float(np.min(np.abs(np.append(phi.eigenvalues, 0.0) - sigma)))
    if gap <= GAP_TOL:
        raise SingularResolventError(
            f"sigma={sigma} is within {gap:.3e} of an eigenvalue or of 0"
        )
    rest, big = _largest_block(phi.shape)
    C, q = phi.matrix[rest, big], np.empty_like(rhs)
    q[rest], q[big] = _solve_zero_block(
        phi.matrix[np.ix_(rest, rest)], C, C @ C.T, sigma, rhs[rest], rhs[big])
    return q


def predict_factor_derivative(
    phi: PhiMatrix, cp: CriticalPoint, entry: tuple, mask_bit: int
) -> np.ndarray:
    """Predicted derivative of [u; v; w] w.r.t. the standard-normal noise
    entry (i, j, k), via the resolvent at sigma.

    A masked entry (mask_bit = 0) has no influence: the derivative is zero.
    """
    i, j, k = entry
    n1, n2, n3 = phi.shape.dims
    if not (0 <= i < n1 and 0 <= j < n2 and 0 <= k < n3):
        raise DimensionMismatchError(f"entry {entry} outside {phi.shape.dims}")
    N = phi.shape.N
    if mask_bit == 0:
        return np.zeros(N)
    u, v, w = cp.u, cp.v, cp.w
    r = np.empty(N)
    r1 = -u[i] * u
    r1[i] += 1.0
    r2 = -v[j] * v
    r2[j] += 1.0
    r3 = -w[k] * w
    r3[k] += 1.0
    r[:n1] = v[j] * w[k] * r1
    r[n1 : n1 + n2] = u[i] * w[k] * r2
    r[n1 + n2 :] = u[i] * v[j] * r3
    q = resolvent_solve(phi, cp.sigma, r)
    return -(mask_bit / np.sqrt(N)) * q


def esd_histogram(
    spec: SpectrumResult, bins: int = 60, exclude_zeros: bool = False
) -> ESDHistogram:
    """Density-normalized histogram of the eigenvalues."""
    if bins < 1:
        raise ValueError("bins must be at least 1")
    vals = spec.eigenvalues
    excluded = 0
    if exclude_zeros:
        keep = np.abs(vals) >= spec.zero_threshold
        excluded = int(vals.size - np.sum(keep))
        vals = vals[keep]
    counts, edges = np.histogram(vals, bins=bins)
    widths = np.diff(edges)
    total = counts.sum()
    density = counts / (total * widths) if total else np.zeros_like(widths)
    return ESDHistogram(edges, counts, density, excluded)
