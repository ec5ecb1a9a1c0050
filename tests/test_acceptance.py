"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the report lines.
"""

import math
import time

import numpy as np
import pytest

from punctured_tensor import (
    ModelParams,
    RngSeed,
    Shape3,
    SignalTriple,
    SolverConfig,
    beta_threshold,
    beta_threshold_cubic,
    build_phi,
    build_phi0_streamed,
    check_structural_eigenpairs,
    eigen_spectrum,
    epsilon_threshold,
    generate_spiked,
    hadamard,
    limiting_density,
    sample_mask,
    solve_critical_point,
    solve_spike,
    support_edge,
    threshold_alignment_cubic,
    universality_map,
)
from punctured_tensor.experiments import (
    ExperimentConfig,
    derivative_check_rows,
    run_epsilon_sweep,
    run_validate,
)


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE-{num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _ks_distance(samples, cdf_at):
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    F = cdf_at(x)
    up = np.max(np.abs(F - np.arange(1, n + 1) / n))
    down = np.max(np.abs(F - np.arange(0, n) / n))
    return float(max(up, down))


def _semicircle_cdf(radius):
    def cdf(x):
        t = np.clip(x / radius, -1.0, 1.0)
        return 0.5 + (t * np.sqrt(1.0 - t * t) + np.arcsin(t)) / math.pi

    return cdf


def _planted_instance(shape, beta, epsilon, seed, tol=1e-10):
    sig = SignalTriple.random(shape, beta, RngSeed(seed, 0))
    t = generate_spiked(shape, sig, RngSeed(seed, 1))
    m = sample_mask(shape, epsilon, RngSeed(seed, 2))
    tm = hadamard(t, m)
    cp = solve_critical_point(
        tm, SolverConfig(tol=tol, max_iter=100_000, reference=sig)
    )
    return tm, sig, cp


def test_criterion_1_cubic_semicircle():
    t0 = time.monotonic()
    eps = 0.25
    shape = Shape3(333, 333, 333)
    tm, _, cp = _planted_instance(shape, 4.0, eps, seed=0)
    spec = eigen_spectrum(build_phi(tm, cp.u, cp.v, cp.w))
    vals = spec.eigenvalues
    # Bulk only: drop the 2 sigma spike and the two structural -sigma values.
    drop = {int(np.argmin(np.abs(vals - 2.0 * cp.sigma)))}
    order = np.argsort(np.abs(vals + cp.sigma))
    for idx in order:
        if len(drop) >= 3:
            break
        drop.add(int(idx))
    bulk = np.delete(vals, sorted(drop))
    radius = 2.0 * math.sqrt(2.0 * eps / 3.0)
    ks = _ks_distance(bulk, _semicircle_cdf(radius))
    dt = time.monotonic() - t0
    _report(1, "cubic-semicircle-ks", ks < 0.05 and dt < 60.0,
            f"ks={ks:.4f} radius={radius:.4f} runtime={dt:.1f}s")


def test_criterion_2_zero_eigenvalue_count():
    shape = Shape3(100, 200, 700)
    tm, _, cp = _planted_instance(shape, 4.0, 0.25, seed=0)
    spec = eigen_spectrum(build_phi(tm, cp.u, cp.v, cp.w))
    nonzero = spec.eigenvalues.size - spec.zero_count
    _report(2, "nonzero-eigenvalue-count", 595 <= nonzero <= 605,
            f"nonzero={nonzero} of {shape.N}")


def test_criterion_3_structural_eigenpair_suite():
    t0 = time.monotonic()
    gen = np.random.default_rng(0)
    worst = 0.0
    failures = 0
    for trial in range(50):
        dims = tuple(int(d) for d in gen.integers(10, 41, size=3))
        beta = float(gen.uniform(2.0, 6.0))
        eps = float(gen.uniform(0.2, 1.0))
        tm, _, cp = _planted_instance(
            Shape3(*dims), beta, eps, seed=100 + trial, tol=1e-11
        )
        report = check_structural_eigenpairs(
            build_phi(tm, cp.u, cp.v, cp.w), cp, tol=1e-8
        )
        worst = max(worst, max(c.residual for c in report.checks))
        failures += 0 if report.passed else 1
    dt = time.monotonic() - t0
    _report(3, "structural-eigenpairs-50", failures == 0 and dt < 120.0,
            f"failures={failures}/50 worst_residual={worst:.2e} runtime={dt:.1f}s")


def test_criterion_4_derivative_prediction():
    t0 = time.monotonic()
    rows, worst = derivative_check_rows(Shape3(4, 5, 6), 3.0, 0.7, 0, 20)
    dt = time.monotonic() - t0
    _report(4, "resolvent-derivative-fd", worst < 1e-3 and dt < 60.0,
            f"entries={len(rows)} worst_rel_error={worst:.2e} runtime={dt:.1f}s")


def test_criterion_5_cubic_threshold_closed_form():
    worst = 0.0
    for eps in (0.1, 0.25, 0.5, 1.0):
        p = ModelParams(1 / 3, 1 / 3, 1 / 3, eps)
        worst = max(worst, abs(beta_threshold(p) - beta_threshold_cubic(eps)))
    anchor_ok = (
        abs(beta_threshold_cubic(1.0) - 1.154701) < 1e-6
        and abs(beta_threshold_cubic(0.25) - 2.309401) < 1e-6
    )
    target = threshold_alignment_cubic()
    qs = []
    for eps in (0.1, 0.25, 0.5, 1.0):
        beta = beta_threshold_cubic(eps) * (1.0 + 1e-4)
        pred = solve_spike(ModelParams(1 / 3, 1 / 3, 1 / 3, eps, beta=beta))
        qs.append(pred.q1 if pred.feasible else math.inf)
    q_ok = all(abs(q - target) < 0.01 for q in qs)
    spread = max(qs) - min(qs)
    ok = worst <= 1e-6 and anchor_ok and q_ok and spread < 0.01
    _report(5, "cubic-threshold-and-alignment", ok,
            f"worst_threshold_err={worst:.2e} q_target={target:.6f} "
            f"q_spread={spread:.2e}")


def test_criterion_6_universality_dilation():
    gen = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        raw = gen.dirichlet((4.0, 4.0, 4.0))
        c = (float(raw[0]), float(raw[1]), float(raw[2]))
        eps = float(gen.uniform(0.1, 1.0))
        beta = float(gen.uniform(1.0, 4.0))
        p = ModelParams(*c, eps, beta=beta)
        while not solve_spike(p).feasible:
            beta *= 2.0
            p = ModelParams(*c, eps, beta=beta)
        a = solve_spike(p)
        b = solve_spike(universality_map(p))
        worst = max(
            worst,
            abs(a.q1 - b.q1),
            abs(a.q2 - b.q2),
            abs(a.q3 - b.q3),
            abs(a.sigma_inf - math.sqrt(eps) * b.sigma_inf),
        )
    _report(6, "universality-dilation-20", worst < 1e-8,
            f"worst_gap={worst:.2e}")


def test_criterion_7_epsilon_sweep_reproduction(tmp_path):
    import csv

    t0 = time.monotonic()
    ratios = (0.1, 0.2, 0.7)
    grid = tuple(round(0.05 * k, 2) for k in range(1, 21))
    eps_s = epsilon_threshold(2.5, ratios)
    threshold_ok = eps_s is not None and abs(eps_s - 0.17) <= 0.01

    results = {}
    for init in ("random", "planted"):
        out = tmp_path / init
        # Random init approximates the best rank-one fit by polishing the
        # restart of 8 ranked first by sigma after the scan; planted init
        # tracks the informative branch directly and converges fast, so it
        # can afford a tighter tolerance.
        cfg = ExperimentConfig(
            shape=Shape3(50, 100, 350),
            beta=2.5,
            epsilon_grid=grid,
            trials=20,
            init=init,
            tol=1e-4 if init == "random" else 1e-7,
            max_iter=1200,
            restarts=8 if init == "random" else 1,
            scan_sweeps=50,
            out=out,
        )
        run_epsilon_sweep(cfg)
        with open(out / "epsilon_sweep.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            results[init] = {float(r["epsilon"]): r for r in reader}

    def gaps(init, lo):
        out = []
        for eps, row in results[init].items():
            if eps < lo:
                continue
            for mode in ("q1", "q2", "q3"):
                out.append(
                    abs(float(row[f"emp_{mode}_mean"]) - float(row[mode]))
                )
        return max(out)

    random_high = gaps("random", 0.6)
    planted_mid = gaps("planted", 0.25)
    random_low = max(
        float(row[f"emp_{mode}_mean"])
        for eps, row in results["random"].items()
        if eps <= 0.15
        for mode in ("q1", "q2", "q3")
    )
    dt = time.monotonic() - t0
    ok = (
        threshold_ok
        and random_high <= 0.07
        and random_low < 0.25
        and planted_mid <= 0.1
        and dt < 600.0
    )
    _report(
        7,
        "epsilon-sweep-desk-scale",
        ok,
        f"eps_s={eps_s:.4f} random_gap(eps>=0.6)={random_high:.3f} "
        f"random_align(eps<=0.15)={random_low:.3f} "
        f"planted_gap(eps>=0.25)={planted_mid:.3f} runtime={dt:.0f}s",
    )


def test_criterion_8_lsd_cross_validation():
    t0 = time.monotonic()
    eps = 0.25
    shape = Shape3(400, 800, 2800)
    factors = [np.ones(n) / np.sqrt(n) for n in shape.dims]
    phi = build_phi0_streamed(shape, eps, *factors, RngSeed(0))
    spec = eigen_spectrum(phi)
    p = ModelParams(0.1, 0.2, 0.7, eps)
    edge = support_edge(p)

    # The limit has an atom at zero; compare the conditional laws away from
    # a small window around it.
    cut = 0.02
    samples = spec.eigenvalues[np.abs(spec.eigenvalues) > cut]
    span = 1.05 * edge
    xs, ds = [], []
    for lo, hi in ((-span, -cut), (cut, span)):
        curve = limiting_density(p, lo, hi, 1501, eta=1e-7)
        xs.append(curve.grid)
        ds.append(curve.density)
    grid = np.concatenate(xs)
    dens = np.concatenate(ds)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
    )])
    # Zero out the jump across the excluded window, then normalize.
    gap_idx = xs[0].size
    cum[gap_idx:] -= cum[gap_idx] - cum[gap_idx - 1]
    cum /= cum[-1]

    def cdf(x):
        return np.interp(x, grid, cum, left=0.0, right=1.0)

    ks = _ks_distance(samples, cdf)
    dt = time.monotonic() - t0
    _report(8, "lsd-cross-validation-N4000", ks < 0.03 and dt < 900.0,
            f"ks={ks:.4f} samples={samples.size} edge={edge:.4f} "
            f"runtime={dt:.0f}s")


def test_criterion_9_validate_suite():
    entries, ok = run_validate(ExperimentConfig())
    from punctured_tensor.cli import main

    exit_code = main(["validate"])
    names = ", ".join(
        f"{e['name']}={'ok' if e['pass'] else 'FAIL'}" for e in entries
    )
    _report(9, "validate-residual-suites", ok and exit_code == 0,
            f"exit={exit_code}; {names}")
