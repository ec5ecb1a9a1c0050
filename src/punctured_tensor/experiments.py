"""Monte Carlo harness tying simulation to the limiting theory.

Every experiment is a pure function of its config: trial t draws from the
substream RngSeed(base_seed, t + 1) and the planted signal from substream 0,
so trial execution order never changes the outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import phi_spectrum, rmt_theory
from .rank_one import (
    ConvergenceError,
    DegeneratePointError,
    SolverConfig,
    alignments,
    first_order_residual,
    scan_restarts,
    solve_critical_point,
)
from .rmt_theory import ModelParams, solve_spike
from .tensor_core import (
    RngSeed,
    Shape3,
    SignalTriple,
    Tensor3,
    contract_full,
    contract_one,
    generate_spiked,
    hadamard,
    sample_mask,
    sample_punctured,
)


class ValidationFailure(RuntimeError):
    """One or more checks of the validation suite failed."""


# Noise-entry step of the central finite differences in the derivative check.
FD_STEP = 1e-5


@dataclass
class ExperimentConfig:
    shape: Shape3 | None = None
    ratios: tuple | None = None
    n_total: int | None = None
    beta: float = 4.0
    epsilon: float = 0.25
    beta_grid: tuple | None = None
    epsilon_grid: tuple | None = None
    trials: int = 20
    base_seed: int = 0
    init: str = "random"
    out: Path | None = None
    bins: int = 60
    eta: float = 1e-6
    grid_points: int = 1001
    tol: float = 1e-8
    max_iter: int = 2000
    empirical: bool = False
    perturb_sigma: float = 0.0
    restarts: int = 1
    scan_sweeps: int = 50

    def resolve_shape(self) -> Shape3:
        if self.shape is not None:
            return self.shape
        if self.ratios is None or self.n_total is None:
            raise ValueError("either shape or (ratios, n_total) must be given")
        return shape_from_ratios(self.ratios, self.n_total)

    def model_params(self, beta=None, epsilon=None) -> ModelParams:
        if self.ratios is not None:
            c = self.ratios
        else:
            c = self.resolve_shape().ratios
        return ModelParams(
            c[0],
            c[1],
            c[2],
            self.epsilon if epsilon is None else epsilon,
            beta=self.beta if beta is None else beta,
        )


def shape_from_ratios(ratios, n_total: int) -> Shape3:
    """Integer dimensions approximating the ratios, summing exactly to N
    (largest-remainder rounding)."""
    c = np.asarray(ratios, dtype=float)
    if c.shape != (3,) or np.any(c <= 0) or abs(c.sum() - 1.0) > 1e-9:
        raise ValueError("ratios must be three positive numbers summing to 1")
    raw = c * n_total
    dims = np.floor(raw).astype(int)
    for idx in np.argsort(raw - dims)[::-1][: n_total - dims.sum()]:
        dims[idx] += 1
    dims = np.maximum(dims, 1)
    return Shape3(int(dims[0]), int(dims[1]), int(dims[2]))


def _signal(cfg: ExperimentConfig, shape: Shape3, beta=None) -> SignalTriple:
    return SignalTriple.random(
        shape, cfg.beta if beta is None else beta, RngSeed(cfg.base_seed, 0)
    )


def _solve_trial(cfg, shape, signal, epsilon, trial):
    """One trial: fresh noise + mask from the trial substream, one solve.

    Random init with restarts > 1 approximates the global best rank-one fit:
    several random starts are advanced jointly for a short scan and only the
    one reaching the largest sigma is polished to tolerance. A single run can
    settle in an uninformative basin even above the algorithmic threshold;
    picking the max-sigma restart is what "best approximation" asks for.
    """
    gen = RngSeed(cfg.base_seed, trial + 1).generator()
    tm = sample_punctured(shape, signal, epsilon, gen)
    factors = reference = None
    if cfg.init == "random":
        inits = [
            tuple(gen.standard_normal(n) for n in shape.dims)
            for _ in range(max(1, cfg.restarts))
        ]
        if len(inits) > 1:
            factors = scan_restarts(tm, inits, cfg.scan_sweeps)[0][1:]
        else:
            factors = inits[0]
    else:
        reference = signal
    scfg = SolverConfig(
        tol=cfg.tol, max_iter=cfg.max_iter, factors=factors, reference=reference
    )
    cp = solve_critical_point(tm, scfg)
    return cp, tm


def _trials(cfg, shape, signal, epsilon):
    """Run cfg.trials trials at one epsilon.

    Returns the (trial, sigma, q1, q2, q3) rows of the trials that converged
    and the number that failed (non-convergence, or a degenerate contraction
    at tiny epsilon); a failed trial is counted, never dropped silently.
    """
    rows = []
    failed = 0
    for t in range(cfg.trials):
        try:
            cp, _ = _solve_trial(cfg, shape, signal, epsilon, t)
        except (ConvergenceError, DegeneratePointError):
            failed += 1
            continue
        rows.append((t, cp.sigma) + alignments(cp, signal))
    return rows, failed


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.12g}"


def aggregate(rows):
    """Per-column mean and population standard deviation of raw trial rows."""
    arr = np.asarray(rows, dtype=float)
    return arr.mean(axis=0), arr.std(axis=0)


EMP_COLUMNS = [
    f"emp_{q}_{stat}" for stat in ("mean", "std") for q in ("sigma", "q1", "q2", "q3")
]


def _emp_cells(rows, empty):
    """The EMP_COLUMNS cells of _trials rows, or `empty` in every cell when
    no trial converged."""
    if not rows:
        return [empty] * len(EMP_COLUMNS)
    mean, std = aggregate([r[1:] for r in rows])
    return [_fmt(x) for x in list(mean) + list(std)]


def run_esd(cfg: ExperimentConfig) -> dict:
    """Generate one instance, solve it, and write spectrum, histogram and
    theory-density CSVs for overlay plots."""
    out = Path(cfg.out or ".")
    shape = cfg.resolve_shape()
    signal = _signal(cfg, shape)
    cp, tm = _solve_trial(cfg, shape, signal, cfg.epsilon, 0)
    phi = phi_spectrum.build_phi(tm, cp.u, cp.v, cp.w)
    spec = phi_spectrum.eigen_spectrum(phi)
    hist = phi_spectrum.esd_histogram(spec, bins=cfg.bins, exclude_zeros=True)

    _write_csv(
        out / "eigenvalues.csv",
        ["index", "eigenvalue"],
        [(i, _fmt(v)) for i, v in enumerate(spec.eigenvalues)],
    )
    _write_csv(
        out / "histogram.csv",
        ["bin_left", "bin_right", "density"],
        [
            (_fmt(hist.bin_edges[i]), _fmt(hist.bin_edges[i + 1]), _fmt(d))
            for i, d in enumerate(hist.density)
        ],
    )
    params = cfg.model_params()
    x_lo = float(hist.bin_edges[0])
    x_hi = float(min(hist.bin_edges[-1], 1.5 * cp.sigma))
    curve = rmt_theory.limiting_density(
        params, x_lo, x_hi, cfg.grid_points, eta=max(cfg.eta, 1e-6)
    )
    _write_csv(
        out / "density.csv",
        ["x", "density"],
        [(_fmt(x), _fmt(d)) for x, d in zip(curve.grid, curve.density)],
    )
    return {
        "sigma": cp.sigma,
        "zero_count": spec.zero_count,
        "nonzero_count": int(spec.eigenvalues.size - spec.zero_count),
        "excluded_zero_count": hist.excluded_zero_count,
        "files": [
            str(out / name)
            for name in ("eigenvalues.csv", "histogram.csv", "density.csv")
        ],
    }


def run_density(cfg: ExperimentConfig) -> dict:
    """Theory-only limiting density curve over the support."""
    out = Path(cfg.out or ".")
    params = cfg.model_params()
    edge = rmt_theory.support_edge(params)
    span = 1.05 * edge
    curve = rmt_theory.limiting_density(
        params, -span, span, cfg.grid_points, eta=cfg.eta
    )
    _write_csv(
        out / "density.csv",
        ["x", "density"],
        [(_fmt(x), _fmt(d)) for x, d in zip(curve.grid, curve.density)],
    )
    return {"edge": edge, "files": [str(out / "density.csv")]}


def run_spike_curve(cfg: ExperimentConfig) -> dict:
    """Theory spike curve over a beta grid, optionally with empirical means
    and the count of failed trials (n_failed, empty without --empirical)."""
    out = Path(cfg.out or ".")
    if cfg.beta_grid is None:
        raise ValueError("spike-curve needs a beta grid")
    shape = cfg.resolve_shape() if cfg.empirical else None
    rows = []
    for beta in cfg.beta_grid:
        if beta <= 0:
            pred = rmt_theory.INFEASIBLE
        else:
            pred = solve_spike(cfg.model_params(beta=beta))
        raw, failed = [], ""
        if cfg.empirical:
            signal = _signal(cfg, shape, beta=beta)
            raw, failed = _trials(cfg, shape, signal, cfg.epsilon)
        sigma = pred.sigma_inf if pred.feasible else 0.0
        rows.append(
            [_fmt(beta), _fmt(sigma), _fmt(pred.q1), _fmt(pred.q2), _fmt(pred.q3)]
            + _emp_cells(raw, "")
            + [int(pred.feasible), failed]
        )
    header = (
        ["beta", "sigma_inf", "q1", "q2", "q3"] + EMP_COLUMNS + ["feasible", "n_failed"]
    )
    _write_csv(out / "spike_curve.csv", header, rows)
    return {"files": [str(out / "spike_curve.csv")]}


def run_epsilon_sweep(cfg: ExperimentConfig) -> dict:
    """Empirical alignments against epsilon with theory overlay.

    Failed trials are excluded and counted (n_failed), keeping the trial
    budget fixed; a grid point where every trial failed reads nan.
    """
    out = Path(cfg.out or ".")
    if cfg.epsilon_grid is None:
        raise ValueError("epsilon-sweep needs an epsilon grid")
    shape = cfg.resolve_shape()
    signal = _signal(cfg, shape)
    rows = []
    raw_rows = []
    for eps in cfg.epsilon_grid:
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"epsilon grid value {eps} outside (0, 1]")
        pred = solve_spike(cfg.model_params(epsilon=eps))
        raw, failed = _trials(cfg, shape, signal, eps)
        raw_rows += [[_fmt(eps), t] + [_fmt(x) for x in vals] for t, *vals in raw]
        rows.append(
            [_fmt(eps), _fmt(pred.q1), _fmt(pred.q2), _fmt(pred.q3)]
            + _emp_cells(raw, _fmt(math.nan))
            + [failed]
        )
    header = ["epsilon", "q1", "q2", "q3"] + EMP_COLUMNS + ["n_failed"]
    _write_csv(out / "epsilon_sweep.csv", header, rows)
    _write_csv(
        out / "epsilon_sweep_raw.csv",
        ["epsilon", "trial", "sigma", "q1", "q2", "q3"],
        raw_rows,
    )
    return {
        "files": [str(out / "epsilon_sweep.csv"), str(out / "epsilon_sweep_raw.csv")]
    }


def run_derivative_check(cfg: ExperimentConfig, n_entries: int = 20) -> dict:
    """Resolvent derivative prediction vs central finite differences."""
    out = Path(cfg.out or ".")
    shape = cfg.shape or Shape3(4, 5, 6)
    rows, worst = derivative_check_rows(
        shape, cfg.beta, cfg.epsilon, cfg.base_seed, n_entries
    )
    _write_csv(
        out / "derivative_check.csv",
        ["i", "j", "k", "mask_bit", "rel_error"],
        rows,
    )
    return {"files": [str(out / "derivative_check.csv")], "worst_rel_error": worst}


def derivative_check_rows(
    shape: Shape3,
    beta: float,
    epsilon: float,
    seed: int,
    n_entries: int,
):
    """Shared implementation for the derivative check (CLI and validation).

    The finite-difference solves re-start from the unperturbed factors at a
    tight tolerance so the same critical-point branch is followed.
    """
    rng = RngSeed(seed, 0)
    gen = rng.generator()
    signal = SignalTriple.random(shape, beta, RngSeed(seed, 1))
    noise = gen.standard_normal(shape.dims)
    mask = sample_mask(shape, epsilon, RngSeed(seed, 2))

    def solve_with(noise_arr, factors=None):
        t = generate_spiked(shape, signal, rng, noise=noise_arr)
        tm = hadamard(t, mask)
        scfg = SolverConfig(
            tol=1e-14, max_iter=200_000, factors=factors, reference=signal
        )
        return solve_critical_point(tm, scfg), tm

    cp0, tm0 = solve_with(noise)
    phi = phi_spectrum.build_phi(tm0, cp0.u, cp0.v, cp0.w)
    base_factors = (cp0.u, cp0.v, cp0.w)

    entry_gen = RngSeed(seed, 3).generator()
    rows = []
    worst = 0.0
    for _ in range(n_entries):
        i = int(entry_gen.integers(shape.n1))
        j = int(entry_gen.integers(shape.n2))
        k = int(entry_gen.integers(shape.n3))
        bit = int(mask.bits[i, j, k])
        pred = phi_spectrum.predict_factor_derivative(phi, cp0, (i, j, k), bit)
        bump = np.zeros(shape.dims)
        bump[i, j, k] = FD_STEP
        cp_plus, _ = solve_with(noise + bump, factors=base_factors)
        cp_minus, _ = solve_with(noise - bump, factors=base_factors)
        fd = (cp_plus.stacked() - cp_minus.stacked()) / (2.0 * FD_STEP)
        denom = max(float(np.max(np.abs(fd))), 1e-300)
        rel = float(np.max(np.abs(pred - fd))) / denom if bit else float(
            np.max(np.abs(pred - fd))
        )
        worst = max(worst, rel)
        rows.append([i, j, k, bit, _fmt(rel)])
    return rows, worst


def run_validate(cfg: ExperimentConfig) -> tuple[list, bool]:
    """Execute the invariant suite; returns (report entries, all passed)."""
    entries = []

    def record(name, residual, tolerance):
        entries.append(
            {
                "name": name,
                "pass": bool(residual <= tolerance),
                "residual": float(residual),
                "tolerance": float(tolerance),
            }
        )

    seed = cfg.base_seed
    gen = np.random.default_rng(seed)

    # Contraction primitives against a triple-loop oracle: the full
    # contraction, and every mode of contract_one on a vector and on a
    # two-column batch whose first column is that vector.
    worst = 0.0
    for _ in range(10):
        dims = tuple(int(d) for d in gen.integers(2, 7, size=3))
        t = Tensor3(gen.standard_normal(dims))
        a, b, c = (gen.standard_normal(n) for n in dims)
        batches = [np.stack([p, p[::-1]], axis=1) for p in (a, b, c)]
        # The loop runs on Python lists and floats: indexing numpy arrays
        # entry by entry made it about three times slower.
        vals = t.values.tolist()
        pa, pb, pc = (p.tolist() for p in batches)
        n1, n2, n3 = dims
        brute_one = [np.zeros(shape + (2,)).tolist()
                     for shape in ((n2, n3), (n1, n3), (n1, n2))]
        brute = 0.0
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    x = vals[i][j][k]
                    brute += x * pa[i][0] * pb[j][0] * pc[k][0]
                    for r in (0, 1):
                        brute_one[0][j][k][r] += x * pa[i][r]
                        brute_one[1][i][k][r] += x * pb[j][r]
                        brute_one[2][i][j][r] += x * pc[k][r]
        worst = max(worst, abs(contract_full(t, a, b, c) - brute))
        for mode, (p, want) in enumerate(zip(batches, map(np.array, brute_one)), 1):
            worst = max(
                worst,
                float(np.max(np.abs(contract_one(t, mode, p) - want))),
                float(np.max(np.abs(contract_one(t, mode, p[:, 0]) - want[..., 0]))),
            )
    record("contraction_oracle", worst, 1e-11)

    # First-order conditions at a converged point.
    shape = Shape3(12, 15, 18)
    signal = SignalTriple.random(shape, 3.0, RngSeed(seed, 10))
    t = generate_spiked(shape, signal, RngSeed(seed, 11))
    tm = hadamard(t, sample_mask(shape, 0.6, RngSeed(seed, 12)))
    cp = solve_critical_point(
        tm, SolverConfig(tol=1e-12, max_iter=100_000, reference=signal)
    )
    record("first_order_residual", first_order_residual(tm, cp), 1e-12)

    # Structural eigenpairs over a handful of instances; perturb_sigma is the
    # negative-control hook.
    worst = 0.0
    for trial in range(5):
        g = RngSeed(seed, 20 + trial).generator()
        dims = tuple(int(d) for d in g.integers(10, 31, size=3))
        sh = Shape3(*dims)
        sig = SignalTriple.random(sh, float(g.uniform(2, 6)), RngSeed(seed, 30 + trial))
        tt = generate_spiked(sh, sig, RngSeed(seed, 40 + trial))
        mm = sample_mask(sh, float(g.uniform(0.2, 1.0)), RngSeed(seed, 50 + trial))
        tmm = hadamard(tt, mm)
        cpt = solve_critical_point(
            tmm, SolverConfig(tol=1e-12, max_iter=100_000, reference=sig)
        )
        sigma = cpt.sigma + cfg.perturb_sigma
        cpt = replace(cpt, sigma=sigma)
        report = phi_spectrum.check_structural_eigenpairs(
            phi_spectrum.build_phi(tmm, cpt.u, cpt.v, cpt.w), cpt, tol=1e-8
        )
        worst = max(worst, max(c.residual for c in report.checks))
    record("structural_eigenpairs", worst, 1e-8)

    # Resolvent prediction vs finite differences on a small instance.
    _, worst = derivative_check_rows(Shape3(4, 5, 6), 3.0, 0.7, seed, 3)
    record("derivative_fd", worst, 1e-3)

    # Stieltjes fixed-point residuals at random complex points.
    worst = 0.0
    for _ in range(20):
        cs = gen.dirichlet((5.0, 5.0, 5.0))
        p = ModelParams(cs[0], cs[1], cs[2], float(gen.uniform(0.1, 1.0)))
        z = complex(gen.uniform(-2, 2), 10 ** gen.uniform(-4, 0))
        worst = max(worst, rmt_theory.solve_stieltjes(z, p).residual)
    record("stieltjes_residual", worst, 1e-12)

    # Spike equation residual in a feasible setting.
    pred = solve_spike(ModelParams(1 / 3, 1 / 3, 1 / 3, 0.25, beta=4.0))
    record("spike_residual", pred.residual if pred.feasible else math.inf, 1e-10)

    # Universality: puncturing == sqrt(eps) signal dilation.
    worst = 0.0
    for _ in range(5):
        cs = gen.dirichlet((5.0, 5.0, 5.0))
        eps = float(gen.uniform(0.2, 1.0))
        p = ModelParams(cs[0], cs[1], cs[2], eps, beta=float(gen.uniform(3.0, 6.0)))
        a = solve_spike(p)
        b = solve_spike(rmt_theory.universality_map(p))
        if not (a.feasible and b.feasible):
            worst = math.inf
            continue
        worst = max(
            worst,
            abs(a.q1 - b.q1),
            abs(a.q2 - b.q2),
            abs(a.q3 - b.q3),
            abs(a.sigma_inf - math.sqrt(eps) * b.sigma_inf),
        )
    record("universality", worst, 1e-8)

    # General edge-evaluated threshold vs the cubic closed form.
    worst = 0.0
    for eps in (0.25, 1.0):
        p = ModelParams(1 / 3, 1 / 3, 1 / 3, eps)
        worst = max(
            worst,
            abs(rmt_theory.beta_threshold(p) - rmt_theory.beta_threshold_cubic(eps)),
        )
    record("threshold_consistency", worst, 1e-6)

    ok = all(e["pass"] for e in entries)
    if cfg.out is not None:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "validate_report.json", "w") as fh:
            json.dump(entries, fh, indent=2)
    return entries, ok
