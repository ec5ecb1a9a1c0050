"""The associated symmetric block matrix Phi(u, v, w) and its spectral checks.

Phi has zero diagonal blocks, so it is held as its three off-diagonal
blocks: the one-mode contractions of the masked tensor on the critical-point
factors. Its spectrum carries the structural eigenpairs (2 sigma, -sigma,
-sigma) and the resolvent (Phi - sigma I)^-1 predicts how the factors react
to a perturbation of a single noise entry. Phi - s I is solved by
eliminating the largest zero diagonal block, laid out once per shape: the
resolvent and rank_one's Newton finish share that solve and its certificate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
# build_phi0_streamed draws mode 3 in blocks of this many slabs, one substream each.
PHI0_BLOCK = 64


@dataclass(frozen=True)
class PhiMatrix:
    """Phi = [[0, b12, b13], [b12^T, 0, b23], [b13^T, b23^T, 0]], held as its
    read-only off-diagonal blocks; its shape (n1, n2, n3) is theirs.

    A writable block stays the caller's, so it is copied; a read-only one
    (what the builders pass) is kept as given.
    """

    b12: np.ndarray  # (n1, n2)
    b13: np.ndarray  # (n1, n3)
    b23: np.ndarray  # (n2, n3)

    def __post_init__(self):
        for name in ("b12", "b13", "b23"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        d = self.b12.shape[:1] + self.b23.shape
        got = [b.shape for b in (self.b12, self.b13, self.b23)]
        if len(d) != 3 or got != [d[:2], d[::2], d[1:]]:
            raise DimensionMismatchError(
                f"blocks {got} are not (n1, n2), (n1, n3), (n2, n3)")

    @cached_property
    def shape(self) -> Shape3:
        return Shape3(*self.b12.shape, self.b23.shape[1])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Phi @ x for x of length N."""
        n1, n2, n3 = self.shape.dims
        if x.shape[:1] != (n1 + n2 + n3,):
            raise DimensionMismatchError(
                f"x has shape {x.shape}, expected ({n1 + n2 + n3},)")
        x1, x2, x3 = x[:n1], x[n1 : n1 + n2], x[n1 + n2 :]
        return np.concatenate([
            self.b12 @ x2 + self.b13 @ x3,
            self.b12.T @ x1 + self.b23 @ x3,
            self.b13.T @ x1 + self.b23.T @ x2,
        ])

    @cached_property
    def _largest_split(self):
        """_elimination of Phi, read-only, for resolvent_solve. The eigensolve
        splits on its own and forms no C C^T, so a Phi that is only
        eigensolved (Phi0) keeps no second copy of its blocks."""
        elim = _elimination(self.b12, self.b13, self.b23)
        for arr in elim[2:]:
            arr.flags.writeable = False
        return elim

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending and read-only: the one eigensolve that
        the spectrum, the structural checks and the resolvent share.

        With L the largest mode and m = N - n_L, _split gives
        Phi = [[A, C], [C^T, 0]] up to a permutation. With C^T = Q r (r is
        k x m, k = min(n_L, m)), the orthogonal change of basis
        diag(I, [Q, Q_perp]) takes Phi to the core [[A, r^T], [r, 0]] padded
        with n_L - k zero rows and columns. So the dense eigensolve runs on
        a core of size m + k, and the other n_L - k eigenvalues are exact
        zeros.
        """
        n_L = max(self.shape.dims)
        k = min(n_L, self.shape.N - n_L)
        _, _, core, C = _split(self.b12, self.b13, self.b23, k)
        m = C.shape[0]
        r = np.linalg.qr(C.T, mode="r")
        core[:m, m:], core[m:, :m] = r.T, r
        vals = np.linalg.eigvalsh(core)
        vals = np.sort(np.concatenate([vals, np.zeros(self.shape.N - m - k)]))
        vals.flags.writeable = False
        return vals


@lru_cache(maxsize=64)  # bounded: validate draws a new shape per instance
def _layout(dims):
    """(L, rest, big) for Phi of shape dims: its largest mode L (the first of
    equal ones), and where the other two modes' entries and L's sit in a
    vector of length N. big is a slice, and so is rest unless L is mode 2;
    then rest is a read-only index array."""
    L = dims.index(max(dims)) + 1
    n1, n12, N = dims[0], dims[0] + dims[1], sum(dims)
    if L == 2:
        rest = np.r_[0:n1, n12:N]
        rest.flags.writeable = False
    else:
        rest = slice(n1, N) if L == 1 else slice(0, n12)
    return L, rest, (slice(0, n1), slice(n1, n12), slice(n12, N))[L - 1]


def _split(b12, b13, b23, pad=0):
    """(rest, big, A, C) with Phi = [[A, C], [C^T, 0]] in _layout's order: A
    couples the modes a < b other than L, and C stacks their blocks against
    L in C order, so that its products round alike whichever mode L is. A is
    the top left of a zeroed square buffer pad rows larger, returned whole."""
    L, rest, big = _layout(b12.shape + b23.shape[1:])
    ab, aL, bL = ((b23, b12.T, b13.T), (b13, b12, b23.T), (b12, b13, b23))[L - 1]
    na, m = ab.shape[0], sum(ab.shape)
    A, C = np.zeros((m + pad,) * 2), np.empty((m, aL.shape[1]))
    A[:na, na:m], A[na:m, :na], C[:na], C[na:] = ab, ab.T, aL, bL
    return rest, big, A, C


def _elimination(b12, b13, b23):
    """(rest, big, A, C, G = C C^T), what the shifted solve and certificate use."""
    rest, big, A, C = _split(b12, b13, b23)
    return rest, big, A, C, C @ C.T


def _shifted_solve(elim, s: float, rhs: np.ndarray) -> np.ndarray:
    """q for (Phi - s I) q = rhs, s != 0, from Phi's _elimination: the rows
    of its zero block L give q_L = (C^T q_r - rhs_L) / s, so the rest q_r
    solves K q_r = rhs_r + C rhs_L / s, K = A - s I + G / s, a dense solve
    of size N - n_L."""
    rest, big, A, C, G = elim
    K = A + G / s
    K.flat[:: K.shape[0] + 1] -= s
    q1 = np.linalg.solve(K, rhs[rest] + C @ rhs[big] / s)
    q = np.empty_like(rhs)
    q[rest], q[big] = q1, (C.T @ q1 - rhs[big]) / s
    return q


def _certified(elim, sigma: float, s: float, x: np.ndarray) -> bool:
    """Whether s I - Phi + 2 sigma z z^T, z = x / sqrt(3), is positive
    definite (np.linalg.cholesky), for s > 0 and x = [u; v; w] of unit blocks.

    At s = sigma + mu it admits the Newton step's shift mu. At s = sigma and
    a critical point, Phi's eigenvalue 2 sigma on z turns into sigma and its
    -sigma pair into 2 sigma, so the matrix is positive definite exactly when
    Phi < sigma on the tangent space of the three spheres: a strict local
    maximum (Lim 2005). With elim, Phi's _elimination as in _shifted_solve,
    T = [[I, C / s], [0, I]] takes s I - Phi to diag(-K, s I) and adds
    c y y^T, c = 2 sigma / 3, y = T x; since x_L is a unit vector, the Schur
    complement is -K + c s / (s + c) y_r y_r^T.
    """
    rest, big, A, C, G = elim
    c = 2.0 * sigma / 3.0
    y = x[rest] + C @ x[big] / s
    S = np.multiply.outer(c * s / (s + c) * y, y) - A - G / s
    S.flat[:: S.shape[0] + 1] += s
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def _frozen_phi(b12, b13, b23) -> PhiMatrix:
    """PhiMatrix of fresh blocks the caller hands over, without a copy."""
    for b in (b12, b13, b23):
        b.flags.writeable = False
    return PhiMatrix(b12, b13, b23)


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


def build_phi(tm: Tensor3, u, v, w) -> PhiMatrix:
    """Assemble Phi from the already-masked tensor and the three factors."""
    u, v, w = check_factors(tm.shape, (u, v, w))
    return _frozen_phi(
        contract_one(tm, 3, w), contract_one(tm, 2, v), contract_one(tm, 1, u))


# The thread pool, built on first use. A forked child has none of its
# threads, so it drops the pool and builds its own.
_pool = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _pool.clear())


def _parallel_map(fn, items):
    """An iterator of fn over items, in order, run on the thread pool (one
    worker per usable CPU); a single item runs on the caller's thread. Only
    build_phi0_streamed uses it, for its blocks of slabs. fn must call no
    public function of the package: benchmark/tracing.py wraps those with
    one span stack for all threads."""
    items = list(items)
    if len(items) <= 1:
        return map(fn, items)
    if not _pool:
        from concurrent.futures import ThreadPoolExecutor

        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        _pool.append(ThreadPoolExecutor(len(cpus) if cpus else os.cpu_count()))
    return _pool[0].map(fn, items)


def build_phi0_streamed(
    shape: Shape3, epsilon: float, u, v, w, rng: RngSeed
) -> PhiMatrix:
    """Phi of a pure-noise masked tensor, built slab by slab along mode 3.

    Never materializes the n1 x n2 x n3 array, so large-N spectra fit in
    memory. Mode 3 is drawn in blocks of PHI0_BLOCK slabs on the thread
    pool, block c from SeedSequence(rng.seed, spawn_key=(rng.stream, c)), and
    the blocks' parts of b12 are added in block order, so Phi is bit-identical
    whatever the number of workers. Each slab draws its Bernoulli(epsilon)
    mask first (n1*n2 uniforms, C order) and then one standard normal for
    each kept entry only, in C order, so about epsilon * n1*n2*n3 normals
    are drawn in all. This is a different stream layout than generate_spiked + sample_mask;
    the two are equal in distribution, not bit-for-bit.
    """
    u, v, w = check_factors(shape, (u, v, w))
    check_epsilon(epsilon)
    n1, n2, n3 = shape.dims
    scale = 1.0 / np.sqrt(shape.N)
    b13 = np.zeros((n1, n3))
    b23 = np.zeros((n2, n3))

    def block(c):
        gen = np.random.default_rng(
            np.random.SeedSequence(entropy=rng.seed, spawn_key=(rng.stream, c)))
        b12 = np.zeros((n1, n2))
        slab = np.zeros((n1, n2))
        flat = slab.reshape(-1)
        for k in range(c * PHI0_BLOCK, min(n3, (c + 1) * PHI0_BLOCK)):
            kept = np.flatnonzero(gen.random(n1 * n2) < epsilon)
            flat[:] = 0.0
            flat[kept] = gen.standard_normal(kept.size) * scale
            b12 += w[k] * slab
            b13[:, k] = slab @ v
            b23[:, k] = slab.T @ u
        return b12

    parts = _parallel_map(block, range(-(-n3 // PHI0_BLOCK)))
    b12 = next(parts)
    for part in parts:
        b12 += part
    return _frozen_phi(b12, b13, b23)


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
    phi: PhiMatrix, cp, tol: float = 1e-8
) -> StructuralReport:
    """Verify the structural facts about the spectrum of Phi, in four checks.

    (1) [u; v; w] is an eigenvector with eigenvalue 2 sigma;
    (2) [u; -v; 0] and [u; 0; -w] are mapped to -sigma times themselves;
    (3), (4) the eigenvalue nearest 2 sigma is 2 sigma, and every other one
        is at most sigma (the upper side of the bulk, which is the solver's
        local-maximum certificate) and at least -sigma (the lower side), up
        to tol. Each side needs the first part: the bulk is every eigenvalue
        but the one that stands for 2 sigma.
    """
    sigma = cp.sigma
    u, v, w = cp.u, cp.v, cp.w
    z2, z3 = np.zeros_like(v), np.zeros_like(w)

    s = np.concatenate([u, v, w])
    r1 = float(np.linalg.norm(phi.matvec(s) - 2.0 * sigma * s))

    e1 = np.concatenate([u, -v, z3])
    e2 = np.concatenate([u, z2, -w])
    r2 = max(
        float(np.linalg.norm(phi.matvec(e1) + sigma * e1)),
        float(np.linalg.norm(phi.matvec(e2) + sigma * e2)),
    )

    # Exactly one eigenvalue, the nearest, stands for 2 sigma; every other
    # one must lie in [-sigma, sigma].
    vals = phi.eigenvalues
    top = int(np.argmin(np.abs(vals - 2.0 * sigma)))
    bulk, offset = np.delete(vals, top), abs(float(vals[top]) - 2.0 * sigma)
    r3 = max(offset, float(bulk[-1]) - sigma)
    r4 = max(offset, -sigma - float(bulk[0]))

    checks = (
        CheckItem("eigenpair_2sigma", r1 <= tol, r1, tol),
        CheckItem("eigenspace_minus_sigma", r2 <= tol, r2, tol),
        CheckItem("bulk_at_most_sigma", r3 <= tol, r3, tol),
        CheckItem("bulk_at_least_minus_sigma", r4 <= tol, r4, tol),
    )
    return StructuralReport(checks)


def spike_decomposition_residual(
    phi: PhiMatrix,
    signal: SignalTriple,
    cp,
    phi0: PhiMatrix,
    epsilon: float,
) -> float:
    """Operator norm (largest singular value) of
    E = Phi - eps*beta*V S V^T - Phi0; the claim is ||E|| -> 0.

    V = diag(x, y, z) and S = [[0, a3, a2], [a3, 0, a1], [a2, a1, 0]],
    a1 = <x, u>, a2 = <y, v>, a3 = <z, w>: E has zero diagonal blocks like
    Phi, and its norm is its largest |eigenvalue|.
    """
    if phi.shape != phi0.shape:
        raise DimensionMismatchError("phi and phi0 have different shapes")
    x, y, z = signal.x, signal.y, signal.z
    a1, a2, a3 = float(x @ cp.u), float(y @ cp.v), float(z @ cp.w)
    eb = epsilon * signal.beta
    E = PhiMatrix(
        phi.b12 - eb * np.outer(x * a3, y) - phi0.b12,
        phi.b13 - eb * np.outer(x * a2, z) - phi0.b13,
        phi.b23 - eb * np.outer(y * a1, z) - phi0.b23,
    )
    return float(np.max(np.abs(E.eigenvalues)))


def resolvent_solve(phi: PhiMatrix, sigma: float, rhs):
    """Solve (Phi - sigma I) q = rhs by _shifted_solve, the elimination of
    Phi's largest zero diagonal block that the Newton step also uses.

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
    return _shifted_solve(phi._largest_split, sigma, rhs)


def predict_factor_derivative(
    phi: PhiMatrix, cp, entry: tuple, mask_bit: int
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
