"""Monte Carlo harness tying simulation to the limiting theory.

Every experiment is a pure function of its config: trial t draws from the
substream RngSeed(base_seed, t + 1) and the planted signal from substream 0,
so trial execution order never changes the outputs. One draw per trial
(noise, mask uniforms, random starts) serves the whole grid: each epsilon
punctures it at its own level, and each beta of a spike curve adds its own
spike to the same noise. Every grid value gives what a run of it alone gives.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
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
    _frozen,
    _spend_levels,
    contract_full,
    contract_one,
    draw_trial,
    generate_spiked,
    hadamard,
    puncture,
    sample_mask,
)


# Noise-entry step of the central finite differences in the derivative check.
FD_STEP = 1e-5

# The type each ExperimentConfig field declares, by the name in its annotation.
_FIELD_TYPES = {"Shape3": Shape3, "tuple": tuple, "int": numbers.Integral,
                "float": numbers.Real, "str": str, "Path": Path, "bool": bool}


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

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            if isinstance(value, bool) != (kind == "bool") or not isinstance(
                    value, _FIELD_TYPES[kind]):
                raise TypeError(f"{f.name} must be {kind}, got {value!r}")
        if self.init not in ("random", "planted"):
            raise ValueError(f"init must be 'random' or 'planted', got {self.init!r}")
        for name, least in (("trials", 1), ("restarts", 1), ("max_iter", 1),
                            ("scan_sweeps", 1), ("bins", 1), ("grid_points", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        for name in ("eta", "tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("beta_grid", "epsilon_grid"):
            if getattr(self, name) is not None and len(getattr(self, name)) == 0:
                raise ValueError(f"{name} needs at least one value")
        for eps in (self.epsilon,) + (self.epsilon_grid or ()):
            if not 0.0 < eps <= 1.0:
                raise ValueError(f"epsilon {eps} outside (0, 1]")

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
    (largest-remainder rounding). A share that rounds to 0 gets 1, taken
    from the largest dimension."""
    c = np.asarray(ratios, dtype=float)
    if c.shape != (3,) or np.any(c <= 0) or abs(c.sum() - 1.0) > 1e-9:
        raise ValueError("ratios must be three positive numbers summing to 1")
    if n_total < 3:
        raise ValueError("n_total must be at least 3")
    raw = c * n_total
    dims = np.floor(raw).astype(int)
    for idx in np.argsort(raw - dims)[::-1][: n_total - dims.sum()]:
        dims[idx] += 1
    for idx in np.flatnonzero(dims == 0):
        dims[idx] = 1
        dims[np.argmax(dims)] -= 1
    return Shape3(int(dims[0]), int(dims[1]), int(dims[2]))


def _signal(cfg: ExperimentConfig, shape: Shape3, beta=None) -> SignalTriple:
    return SignalTriple.random(
        shape, cfg.beta if beta is None else beta, RngSeed(cfg.base_seed, 0)
    )


def _draw(cfg, shape, signal, grid, trial):
    """Trial `trial`'s draw for every epsilon of grid, and its random starts
    (None for planted init), drawn next from the same generator."""
    gen = RngSeed(cfg.base_seed, trial + 1).generator()
    draw = draw_trial(shape, signal, grid, gen)
    inits = None
    if cfg.init == "random":
        inits = [
            tuple(gen.standard_normal(n) for n in shape.dims)
            for _ in range(cfg.restarts)
        ]
    return draw, inits


def _solve(cfg, tm, inits, signal):
    """Solve the punctured tensor tm from the random starts inits, or from
    the planted signal when inits is None.

    Random init with restarts > 1 advances several random starts jointly
    for a short scan and polishes to tolerance only the restart ranked
    first by sigma after the scan. A single run can settle in an
    uninformative basin even above the algorithmic threshold; another
    restart may still polish to a higher sigma than the one ranked first.
    """
    factors = reference = None
    if inits is None:
        reference = signal
    elif len(inits) > 1:
        factors = scan_restarts(tm, inits, cfg.scan_sweeps)[0][1:]
    else:
        factors = inits[0]
    scfg = SolverConfig(
        tol=cfg.tol, max_iter=cfg.max_iter, factors=factors, reference=reference
    )
    return solve_critical_point(tm, scfg)


def _trial(cfg, shape, drawn, points, trial):
    """Draw trial `trial` once, with signal `drawn`, and solve it at every
    grid point (signal, epsilon).

    Returns, per point, the row (trial, sigma, q1, q2, q3), or None when the
    solve failed. When every point has signal `drawn` (an epsilon sweep),
    the draw is punctured in place from the largest epsilon down, so the
    trial holds one float64 tensor; each epsilon is solved once and its row
    serves every point at that epsilon. Otherwise (the betas of the spike
    curve; `drawn` then has beta 0) each point adds its own spike to a
    fresh punctured copy, which dies with its solve. The draw dies when
    this returns, before the next trial draws.
    """
    draw, inits = _draw(cfg, shape, drawn, [eps for _, eps in points], trial)

    def row(tm, signal):
        try:
            cp = _solve(cfg, tm, inits, signal)
        except (ConvergenceError, DegeneratePointError):
            return None
        return (trial, cp.sigma) + alignments(cp, signal)

    if all(signal is drawn for signal, _ in points):
        by_eps = {eps: row(tm, drawn) for eps, tm in _spend_levels(draw)}
        return [by_eps[eps] for _, eps in points]
    return [row(puncture(draw, eps, signal), signal) for signal, eps in points]


def _trials(cfg, shape, drawn, points):
    """Run cfg.trials trials, each drawn once for all grid points.

    Returns, per point, the (trial, sigma, q1, q2, q3) rows of the trials
    that converged and the number that failed (non-convergence, or a
    degenerate contraction at tiny epsilon); a failed trial is counted,
    never dropped silently.
    """
    per_trial = [_trial(cfg, shape, drawn, points, t) for t in range(cfg.trials)]
    results = []
    for g in range(len(points)):
        rows = [trial_rows[g] for trial_rows in per_trial]
        results.append(([r for r in rows if r is not None], rows.count(None)))
    return results


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
    theory-density CSVs for overlay plots.

    The instance is trial 0's draw at cfg.epsilon, punctured in place, so
    the solve and Phi share the one float64 tensor of the run."""
    out = Path(cfg.out or ".")
    shape = cfg.resolve_shape()
    signal = _signal(cfg, shape)
    draw, inits = _draw(cfg, shape, signal, (cfg.epsilon,), 0)
    [(_, tm)] = _spend_levels(draw)
    cp = _solve(cfg, tm, inits, signal)
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
        params, x_lo, x_hi, cfg.grid_points, eta=cfg.eta
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
        raise ValueError("spike-curve requires --beta-grid")
    empirical = [([], "")] * len(cfg.beta_grid)
    if cfg.empirical:
        shape = cfg.resolve_shape()
        points = [(_signal(cfg, shape, beta=b), cfg.epsilon) for b in cfg.beta_grid]
        empirical = _trials(cfg, shape, _signal(cfg, shape, beta=0.0), points)
    rows = []
    for beta, (raw, failed) in zip(cfg.beta_grid, empirical):
        if beta <= 0:
            pred = rmt_theory.INFEASIBLE
        else:
            pred = solve_spike(cfg.model_params(beta=beta))
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
        raise ValueError("epsilon-sweep requires --epsilon-grid")
    shape = cfg.resolve_shape()
    signal = _signal(cfg, shape)
    rows = []
    raw_rows = []
    results = _trials(cfg, shape, signal, [(signal, eps) for eps in cfg.epsilon_grid])
    for eps, (raw, failed) in zip(cfg.epsilon_grid, results):
        pred = solve_spike(cfg.model_params(epsilon=eps))
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
    if n_entries < 1:
        raise ValueError("entries must be at least 1")
    out = Path(cfg.out or ".")
    default = cfg.shape is None and cfg.ratios is None
    shape = Shape3(4, 5, 6) if default else cfg.resolve_shape()
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

    The instance is drawn once. Each finite-difference solve moves one kept
    noise entry by +-FD_STEP, rebuilding that tensor entry as generate_spiked
    does, and re-starts from the unperturbed factors at a tight tolerance so
    the same critical-point branch is followed. A masked entry does not move
    the tensor (its finite difference is exactly 0) and is not solved for.
    """
    signal = SignalTriple.random(shape, beta, RngSeed(seed, 1))
    # generate_spiked draws this same G from RngSeed(seed, 0).
    noise = RngSeed(seed, 0).generator().standard_normal(shape.dims)
    mask = sample_mask(shape, epsilon, RngSeed(seed, 2))
    tm0 = hadamard(generate_spiked(shape, signal, RngSeed(seed, 0)), mask)
    scfg = SolverConfig(tol=1e-14, max_iter=200_000, reference=signal)
    cp0 = solve_critical_point(tm0, scfg)
    phi = phi_spectrum.build_phi(tm0, cp0.u, cp0.v, cp0.w)
    scfg = replace(scfg, factors=(cp0.u, cp0.v, cp0.w))

    def solve_moved(entry, g):
        values = tm0.values.copy()
        values[entry] = g / np.sqrt(shape.N)
        if signal.beta != 0.0:
            # The spike's entry, rounded as tensor_core._spike rounds it.
            i, j, k = entry
            values[entry] += signal.x[i] * signal.y[j] * signal.z[k] * signal.beta
        return solve_critical_point(_frozen(values), scfg).stacked()

    entry_gen = RngSeed(seed, 3).generator()
    rows = []
    worst = 0.0
    for _ in range(n_entries):
        entry = tuple(int(entry_gen.integers(n)) for n in shape.dims)
        bit = int(mask.bits[entry])
        pred = phi_spectrum.predict_factor_derivative(phi, cp0, entry, bit)
        if bit:
            g = noise[entry]
            plus = solve_moved(entry, g + FD_STEP)
            minus = solve_moved(entry, g - FD_STEP)
            fd = (plus - minus) / (2.0 * FD_STEP)
            denom = max(float(np.max(np.abs(fd))), 1e-300)
            rel = float(np.max(np.abs(pred - fd))) / denom
        else:
            rel = float(np.max(np.abs(pred)))
        worst = max(worst, rel)
        rows.append(list(entry) + [bit, _fmt(rel)])
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
