"""The benchmark's three workloads.

Each workload has a warm-up pass, a timed pass `run_pass(index)` whose inputs
come from the workload seed and the pass index, and `evaluate(results)`,
which checks the outputs of the first `check_passes` passes and returns the
accuracy figures. The program is called only through module attributes
(`experiments.run_epsilon_sweep(...)`), so that the tracer sees every call.

- sweep: criterion 7's epsilon sweep (50x100x350, beta=2.5) through
  run_epsilon_sweep, random init with the 8-restart scan and planted init.
  The restart scan and the power iteration do most of the work; the
  planted half bypasses the scan, low epsilon gives the long-solve tail.
- spectrum: criterion 8 at half size (streamed pure-noise Phi0 at
  200x400x1400, its eigenvalues, the limiting density and the KS distance)
  plus a planted 100x200x700 instance (criterion 2, the `esd` scale)
  through build_phi, eigen_spectrum, esd_histogram, the structural
  eigenpair checks and three resolvent derivative predictions.
- theory: run_validate, epsilon_threshold(2.5) and beta_threshold at
  epsilon=0.25 for ratios (0.1, 0.2, 0.7), and the theory-only spike curve
  over beta in 0.5:6:0.25. Scalar root-finding; no dense tensor.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from punctured_tensor import experiments, phi_spectrum, rank_one, rmt_theory, tensor_core
from punctured_tensor.experiments import ExperimentConfig
from punctured_tensor.rank_one import SolverConfig
from punctured_tensor.rmt_theory import ModelParams
from punctured_tensor.tensor_core import RngSeed, Shape3, SignalTriple

RATIOS = (0.1, 0.2, 0.7)
WARMUP_INDEX = 2**31 - 1  # pass index of the warm-up inputs, never timed


def sub_seed(seed: int, index: int) -> int:
    """Independent base seed for pass `index` of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Evaluation:
    attempted: int = 0
    failed: int = 0
    accuracy: dict = field(default_factory=dict)  # accuracy metrics measured
    details: dict = field(default_factory=dict)

    def count(self, name: str, attempted: int, failed: int, value=None):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.details.setdefault("failed_checks", []).append(
                {"check": name, "failed": failed, "value": value}
            )

    def check(self, name: str, ok: bool, value=None):
        self.count(name, 1, 0 if ok else 1, value)


class Workload:
    """Seed, sizes and output directory shared by the three workloads."""

    def __init__(self, seed: int, sizes, out: Path):
        self.seed, self.sizes, self.out = seed, sizes, out
        self.check_passes = sizes.check_passes


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def ks_distance(samples, cdf_at) -> float:
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    F = cdf_at(x)
    up = np.max(np.abs(F - np.arange(1, n + 1) / n))
    down = np.max(np.abs(F - np.arange(0, n) / n))
    return float(max(up, down))


# --- sweep -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSizes:
    shape: tuple = (50, 100, 350)
    # One cell per criterion 7 range: random init below the epsilon~0.165
    # threshold (the long-solve tail) and at >= 0.6, planted init at >= 0.25.
    # Random init at 0.3 is in no range and would double the pass-to-pass
    # spread (its polish takes 2 to 400 sweeps). Planted init at 0.1 is left
    # out because the planted start drifts there and about one trial in four
    # reaches max_iter, a failure by design rather than by the program.
    random_grid: tuple = (0.1, 0.6, 1.0)
    planted_grid: tuple = (0.3, 0.6, 1.0)
    panel_trials: int = 3
    check_passes: int = 3
    gates: bool = True


class Sweep(Workload):
    """One pass is one trial per (init, epsilon) cell through
    run_epsilon_sweep, at the tolerances of acceptance criterion 7.

    The alignment gap is noise-dominated at any affordable trial count (a
    random start that misses the informative basin moves a cell mean by
    1/trials), so it is measured on a fixed panel: criterion 7's own first
    `panel_trials` trials (base seed 0). The panel is untimed and gives the
    same figure for every workload seed; it moves only when the program's
    numerics or random streams change.
    """

    beta = 2.5

    def _sweep(self, base_seed, init, grid, trials):
        out = self.out / init
        random = init == "random"
        cfg = ExperimentConfig(
            shape=Shape3(*self.sizes.shape),
            beta=self.beta,
            epsilon_grid=grid,
            trials=trials,
            base_seed=base_seed,
            init=init,
            tol=1e-4 if random else 1e-7,
            max_iter=1200,
            restarts=8 if random else 1,
            scan_sweeps=50,
            out=out,
        )
        experiments.run_epsilon_sweep(cfg)
        return _read_csv(out / "epsilon_sweep.csv")

    def warmup(self):
        base = sub_seed(self.seed, WARMUP_INDEX)
        self._sweep(base, "random", (1.0,), 1)
        self._sweep(base, "planted", (1.0,), 1)

    def run_pass(self, index: int):
        base = sub_seed(self.seed, index)
        return {
            "random": self._sweep(base, "random", self.sizes.random_grid, 1),
            "planted": self._sweep(base, "planted", self.sizes.planted_grid, 1),
        }

    def evaluate(self, results) -> Evaluation:
        ev = Evaluation()
        n = self.sizes.panel_trials
        panel = {
            "random": self._sweep(0, "random", self.sizes.random_grid, n),
            "planted": self._sweep(0, "planted", self.sizes.planted_grid, n),
        }
        for trials, result in [(1, r) for r in results] + [(n, panel)]:
            for init, rows in result.items():
                for row in rows:
                    ev.count(f"{init}_trial_converged", trials, int(row["n_failed"]),
                             row["epsilon"])

        def cells(init, keep):
            return [r for r in panel[init] if keep(float(r["epsilon"]))]

        def gap(rows):
            gaps = [abs(float(r[f"emp_{q}_mean"]) - float(r[q]))
                    for r in rows for q in ("q1", "q2", "q3")]
            return math.inf if any(math.isnan(g) for g in gaps) else max(gaps)

        random_high = gap(cells("random", lambda e: e >= 0.6))
        planted_mid = gap(cells("planted", lambda e: e >= 0.25))
        low = [float(r[f"emp_{q}_mean"]) for r in cells("random", lambda e: e <= 0.15)
               for q in ("q1", "q2", "q3")]
        random_low = max(low) if low and not any(map(math.isnan, low)) else math.inf
        ev.accuracy["align_gap"] = max(random_high, planted_mid)
        ev.details.update(panel_random_gap_eps_ge_0_6=random_high,
                          panel_planted_gap_eps_ge_0_25=planted_mid,
                          panel_random_align_eps_le_0_15=random_low)
        if self.sizes.gates:
            # Criterion 7's gates that hold with a few trials per cell. Its
            # random-init gap gate (<= 0.07 over 20 trials) does not: one
            # missed basin in `panel_trials` trials already exceeds it.
            ev.check("planted_gap_le_0.1", planted_mid <= 0.1, planted_mid)
            ev.check("random_align_low_eps_lt_0.25", random_low < 0.25, random_low)
        return ev


# --- spectrum ----------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumSizes:
    phi0_shape: tuple = (200, 400, 1400)
    planted_shape: tuple = (100, 200, 700)
    density_points: int = 1501
    derivative_entries: int = 3
    check_passes: int = 5
    gates: bool = True


class Spectrum(Workload):
    """One pass: streamed Phi0, its spectrum, the limiting density and the
    KS distance, then the planted instance through the Phi-matrix layer.
    `ks` is the mean KS distance of the checked passes' Phi0 spectra: the
    mean of 5 varies 4% between seeds, the KS of the pooled spectra 11%, the
    mean of 3 11%."""

    epsilon = 0.25
    beta = 4.0
    cut = 0.02  # excluded window around the atom of the limit at zero

    def _limit_cdf(self, points):
        """Conditional limiting CDF outside (-cut, cut), as in criterion 8."""
        p = ModelParams(*RATIOS, self.epsilon)
        span = 1.05 * rmt_theory.support_edge(p)
        xs, ds = [], []
        for lo, hi in ((-span, -self.cut), (self.cut, span)):
            curve = rmt_theory.limiting_density(p, lo, hi, points, eta=1e-7)
            xs.append(curve.grid)
            ds.append(curve.density)
        grid = np.concatenate(xs)
        dens = np.concatenate(ds)
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))]
        )
        gap_idx = xs[0].size
        cum[gap_idx:] -= cum[gap_idx] - cum[gap_idx - 1]
        cum /= cum[-1]
        return grid, cum

    def _pass(self, base: int, density_points: int, phi0_shape: tuple):
        shape0 = Shape3(*phi0_shape)
        factors = [np.ones(n) / np.sqrt(n) for n in shape0.dims]
        phi0 = phi_spectrum.build_phi0_streamed(
            shape0, self.epsilon, *factors, RngSeed(base, 0)
        )
        vals = phi_spectrum.eigen_spectrum(phi0).eigenvalues
        grid, cum = self._limit_cdf(density_points)
        ks = ks_distance(vals[np.abs(vals) > self.cut],
                         lambda x: np.interp(x, grid, cum, left=0.0, right=1.0))

        shape = Shape3(*self.sizes.planted_shape)
        signal = SignalTriple.random(shape, self.beta, RngSeed(base, 1))
        t = tensor_core.generate_spiked(shape, signal, RngSeed(base, 2))
        mask = tensor_core.sample_mask(shape, self.epsilon, RngSeed(base, 3))
        tm = tensor_core.hadamard(t, mask)
        cp = rank_one.solve_critical_point(
            tm, SolverConfig(tol=1e-10, max_iter=100_000, reference=signal)
        )
        phi = phi_spectrum.build_phi(tm, cp.u, cp.v, cp.w)
        spec = phi_spectrum.eigen_spectrum(phi)
        hist = phi_spectrum.esd_histogram(spec, bins=60, exclude_zeros=True)
        report = phi_spectrum.check_structural_eigenpairs(phi, cp, tol=1e-8)
        gen = RngSeed(base, 4).generator()
        derivatives = []
        while len(derivatives) < self.sizes.derivative_entries:
            entry = tuple(int(gen.integers(n)) for n in shape.dims)
            if mask.bits[entry]:
                derivatives.append(
                    phi_spectrum.predict_factor_derivative(phi, cp, entry, 1)
                )
        return {
            "ks": ks,
            "nonzero": int(spec.eigenvalues.size - spec.zero_count),
            "expected_nonzero": 2 * (shape.n1 + shape.n2),
            "hist_mass": float(np.sum(hist.density * np.diff(hist.bin_edges))),
            "structural": report,
            "derivatives_finite": [bool(np.all(np.isfinite(d))) for d in derivatives],
        }

    def warmup(self):
        # Every call of a pass at its matrix sizes. The Phi0 stream keeps
        # N = n1 + n2 + n3 but under 2% of the volume: drawing the volume is
        # what costs, and it has no cold start.
        n1, n2, n3 = self.sizes.phi0_shape
        k1, k2 = max(1, n1 // 10), max(1, n2 // 10)
        self._pass(sub_seed(self.seed, WARMUP_INDEX), 11, (k1, k2, n1 + n2 + n3 - k1 - k2))

    def run_pass(self, index: int):
        return self._pass(sub_seed(self.seed, index), self.sizes.density_points,
                          self.sizes.phi0_shape)

    def evaluate(self, results) -> Evaluation:
        ev = Evaluation()
        for res in results:
            for item in res["structural"].checks:
                ev.check(item.name, item.passed, item.residual)
            # Criterion 2: rank 2(n1 + n2) of Phi, within its +-5 window.
            ev.check("nonzero_eigenvalue_count",
                     abs(res["nonzero"] - res["expected_nonzero"]) <= 5, res["nonzero"])
            ev.check("esd_histogram_mass", abs(res["hist_mass"] - 1.0) < 1e-9,
                     res["hist_mass"])
            for ok in res["derivatives_finite"]:
                ev.check("derivative_finite", ok)
            if self.sizes.gates:
                ev.check("ks_lt_0.03", res["ks"] < 0.03, res["ks"])  # criterion 8's gate
        ev.accuracy["ks"] = float(np.mean([res["ks"] for res in results]))
        ev.details["ks_per_pass"] = [res["ks"] for res in results]
        return ev


# --- theory ------------------------------------------------------------------


@dataclass(frozen=True)
class TheorySizes:
    beta_grid: tuple = tuple(0.5 + 0.25 * k for k in range(23))  # 0.5:6:0.25
    threshold_tol: float | None = None  # None: the program's default tolerance
    check_passes: int = 1
    gates: bool = True


class Theory(Workload):
    """One pass: run_validate at the pass seed, the two thresholds of
    criterion 7's ratios, and the theory-only spike curve."""

    epsilon = 0.25

    def warmup(self):
        p = ModelParams(*RATIOS, self.epsilon, beta=4.0)
        rmt_theory.solve_spike(p)
        rmt_theory.solve_stieltjes(0.5 + 0.01j, p)
        rmt_theory.limiting_density(p, -1.0, 1.0, 11)

    def run_pass(self, index: int):
        entries, _ = experiments.run_validate(
            ExperimentConfig(base_seed=sub_seed(self.seed, index))
        )
        tol = {} if self.sizes.threshold_tol is None else {"tol": self.sizes.threshold_tol}
        eps_star = rmt_theory.epsilon_threshold(2.5, RATIOS, **tol)
        beta_thr = rmt_theory.beta_threshold(ModelParams(*RATIOS, self.epsilon), **tol)
        experiments.run_spike_curve(ExperimentConfig(
            ratios=RATIOS, epsilon=self.epsilon, beta_grid=self.sizes.beta_grid,
            out=self.out,
        ))
        curve = _read_csv(self.out / "spike_curve.csv")
        return {"entries": entries, "eps_star": eps_star, "beta_thr": beta_thr,
                "curve": curve}

    def evaluate(self, results) -> Evaluation:
        ev = Evaluation()
        for res in results:
            for e in res["entries"]:
                ev.check(f"validate.{e['name']}", e["pass"], e["residual"])
            # The spike curve is feasible exactly above the beta threshold.
            thr = res["beta_thr"]
            for row in res["curve"]:
                beta = float(row["beta"])
                if abs(beta - thr) > 1e-6:
                    ev.check("spike_feasible_iff_above_threshold",
                             bool(int(row["feasible"])) == (beta > thr), beta)
            if self.sizes.gates:
                # Criterion 7's threshold gate.
                ev.check("eps_star_0.17_pm_0.01", abs(res["eps_star"] - 0.17) <= 0.01,
                         res["eps_star"])
        consistency = {e["name"]: e for e in results[0]["entries"]}["threshold_consistency"]
        err = consistency["residual"]
        ev.check("threshold_err_within_validate_tolerance",
                 err <= consistency["tolerance"], err)
        # An exact agreement reads as one machine epsilon, so that the metric
        # is never 0 and a relative bound on it stays defined.
        ev.accuracy["threshold_err"] = max(err, sys.float_info.epsilon)
        ev.details.update(eps_star=results[0]["eps_star"], beta_thr=results[0]["beta_thr"])
        return ev


WORKLOADS = {"sweep": (Sweep, SweepSizes), "spectrum": (Spectrum, SpectrumSizes),
             "theory": (Theory, TheorySizes)}

# Tiny sizes for the smoke test: every code path, a few seconds per pass.
# The statistical gates are calibrated for the full sizes and are off here.
TINY = {
    "sweep": SweepSizes(shape=(5, 6, 9), panel_trials=1, check_passes=1,
                        gates=False),
    "spectrum": SpectrumSizes(phi0_shape=(10, 20, 70), planted_shape=(10, 20, 70),
                              density_points=51, derivative_entries=1,
                              check_passes=1, gates=False),
    "theory": TheorySizes(beta_grid=(1.0, 4.0), threshold_tol=1e-2, check_passes=1,
                          gates=False),
}


def make(name: str, seed: int, tiny: bool, out: Path):
    cls, sizes = WORKLOADS[name]
    return cls(seed, TINY[name] if tiny else sizes(), out)
