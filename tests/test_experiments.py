import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from punctured_tensor import (
    RngSeed,
    Shape3,
    SignalTriple,
    SolverConfig,
    Tensor3,
    build_phi,
    hadamard,
    predict_factor_derivative,
    sample_mask,
    solve_critical_point,
)
from punctured_tensor.cli import build_parser, config_from_args, main
from punctured_tensor.experiments import (
    FD_STEP,
    ExperimentConfig,
    aggregate,
    derivative_check_rows,
    run_epsilon_sweep,
    run_esd,
    run_spike_curve,
    run_validate,
    shape_from_ratios,
)


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestShapeFromRatios:
    def test_exact_split(self):
        assert shape_from_ratios((0.1, 0.2, 0.7), 1000).dims == (100, 200, 700)

    def test_sums_to_total(self):
        for n in (10, 37, 101, 999):
            sh = shape_from_ratios((0.31, 0.21, 0.48), n)
            assert sh.N == n

    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            shape_from_ratios((0.5, 0.5, 0.5), 100)
        with pytest.raises(ValueError):
            shape_from_ratios((0.2, 0.3, 0.5), 2)

    def test_tiny_share_keeps_the_total(self):
        # A share that floors to 0 gets 1, taken from the largest dimension.
        assert shape_from_ratios((0.001, 0.499, 0.5), 100).dims == (1, 49, 50)
        assert shape_from_ratios((0.01, 0.09, 0.9), 10).dims == (1, 1, 8)

    def test_unchanged_without_tiny_shares(self):
        # Largest-remainder rounding, as before, whenever no share floors to 0.
        gen = np.random.default_rng(0)
        checked = 0
        for _ in range(400):
            c = gen.dirichlet((1.0, 1.0, 1.0))
            n = int(gen.integers(3, 3000))
            raw = c * n
            dims = np.floor(raw).astype(int)
            if np.any(dims == 0):
                continue
            for idx in np.argsort(raw - dims)[::-1][: n - dims.sum()]:
                dims[idx] += 1
            assert shape_from_ratios(c, n).dims == tuple(int(d) for d in dims)
            checked += 1
        assert checked > 300


class TestAggregate:
    def test_mean_and_population_std(self):
        rows = [(1.0, 2.0), (3.0, 6.0)]
        mean, std = aggregate(rows)
        np.testing.assert_allclose(mean, [2.0, 4.0])
        np.testing.assert_allclose(std, [1.0, 2.0])


class TestRunEsd:
    def test_files_and_counts(self, tmp_path):
        cfg = ExperimentConfig(
            shape=Shape3(20, 30, 50),
            beta=4.0,
            epsilon=0.5,
            init="planted",
            tol=1e-10,
            max_iter=20_000,
            out=tmp_path,
            bins=20,
            grid_points=101,
        )
        result = run_esd(cfg)
        assert (tmp_path / "eigenvalues.csv").exists()
        assert (tmp_path / "histogram.csv").exists()
        assert (tmp_path / "density.csv").exists()
        header, rows = _read_csv(tmp_path / "eigenvalues.csv")
        assert header == ["index", "eigenvalue"]
        assert len(rows) == 100
        assert result["zero_count"] + result["nonzero_count"] == 100
        # Eigenvalues are written in descending order.
        vals = [float(r[1]) for r in rows]
        assert vals == sorted(vals, reverse=True)
        # Top eigenvalue is 2 sigma at the converged point.
        assert abs(vals[0] - 2.0 * result["sigma"]) < 1e-7

    def test_deterministic_output(self, tmp_path):
        # Same config, same seed: byte-identical CSVs.
        dumps = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = ExperimentConfig(
                shape=Shape3(15, 20, 25),
                beta=4.0,
                epsilon=0.5,
                init="random",
                tol=1e-9,
                out=out,
                bins=10,
                grid_points=51,
                base_seed=3,
            )
            run_esd(cfg)
            dumps.append((out / "eigenvalues.csv").read_bytes())
        assert dumps[0] == dumps[1]


class TestRunSpikeCurve:
    def test_theory_only(self, tmp_path):
        cfg = ExperimentConfig(
            ratios=(1 / 3, 1 / 3, 1 / 3),
            n_total=60,
            epsilon=1.0,
            beta_grid=(0.5, 1.0, 2.0, 4.0),
            out=tmp_path,
        )
        run_spike_curve(cfg)
        header, rows = _read_csv(tmp_path / "spike_curve.csv")
        assert header[0] == "beta" and header[-2:] == ["feasible", "n_failed"]
        assert all(r[-1] == "" for r in rows)  # no trials without --empirical
        feas = {float(r[0]): int(r[-2]) for r in rows}
        # Threshold at 2/sqrt(3) ~ 1.1547: below infeasible, above feasible.
        assert feas[0.5] == 0 and feas[1.0] == 0
        assert feas[2.0] == 1 and feas[4.0] == 1

    def test_empirical_columns(self, tmp_path):
        cfg = ExperimentConfig(
            shape=Shape3(20, 20, 20),
            epsilon=0.5,
            beta_grid=(4.0,),
            trials=3,
            init="planted",
            tol=1e-8,
            empirical=True,
            out=tmp_path,
        )
        run_spike_curve(cfg)
        header, rows = _read_csv(tmp_path / "spike_curve.csv")
        row = dict(zip(header, rows[0]))
        assert row["emp_sigma_mean"] != ""
        # Empirical alignment should land near theory at this modest size.
        assert abs(float(row["emp_q1_mean"]) - float(row["q1"])) < 0.2
        assert row["n_failed"] == "0"

    def test_failed_trials_counted(self, tmp_path):
        # At beta = 1 every trial runs out of passes: the row must say so
        # instead of looking like a theory-only row. max_iter 4 leaves the
        # Newton finish 6 of the solve's 9 passes: enough for the scan's
        # pick to converge at beta = 3 and 5, too few at beta = 1.
        cfg = ExperimentConfig(
            shape=Shape3(10, 20, 70),
            epsilon=0.6,
            beta_grid=(1.0, 3.0, 5.0),
            trials=4,
            init="random",
            restarts=3,
            max_iter=4,
            empirical=True,
            out=tmp_path,
        )
        run_spike_curve(cfg)
        header, rows = _read_csv(tmp_path / "spike_curve.csv")
        by_beta = {float(r[0]): dict(zip(header, r)) for r in rows}
        assert by_beta[1.0]["n_failed"] == "4"
        assert all(by_beta[1.0][c] == "" for c in header if c.startswith("emp_"))
        for beta in (3.0, 5.0):
            assert by_beta[beta]["n_failed"] == "0"
            assert by_beta[beta]["emp_sigma_mean"] != ""


# Each trial is drawn once for the whole grid; every grid value must still
# give what a run of that value alone gives. The configs cover random init
# with restarts, planted init, and a budget too small for some trials.
SWEEP_CONFIGS = {
    "random": dict(init="random", restarts=3, tol=1e-6),
    "planted": dict(init="planted", tol=1e-8),
    "failed": dict(init="random", restarts=2, beta=2.0, max_iter=4),
}


def _data_lines(path):
    """The lines of a CSV file after its header."""
    return path.read_text().splitlines()[1:]


class TestTrialLoop:
    @pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
    def test_sweep_grid_matches_one_value_runs(self, tmp_path, name):
        base = dict(shape=Shape3(10, 20, 70), beta=3.0, trials=4, base_seed=5)
        base.update(SWEEP_CONFIGS[name])
        grid = (0.6, 0.1, 0.6)
        run_epsilon_sweep(
            ExperimentConfig(epsilon_grid=grid, out=tmp_path / "grid", **base)
        )
        for i, eps in enumerate(grid):
            out = tmp_path / f"one{i}"
            run_epsilon_sweep(ExperimentConfig(epsilon_grid=(eps,), out=out, **base))
        for fname in ("epsilon_sweep.csv", "epsilon_sweep_raw.csv"):
            want = [
                line
                for i in range(len(grid))
                for line in _data_lines(tmp_path / f"one{i}" / fname)
            ]
            assert _data_lines(tmp_path / "grid" / fname) == want
        if name == "failed":
            _, rows = _read_csv(tmp_path / "grid" / "epsilon_sweep.csv")
            assert any(int(r[-1]) for r in rows)

    def test_spike_curve_grid_matches_one_beta_runs(self, tmp_path):
        # test_failed_trials_counted's config: every trial fails at beta = 1.
        base = dict(
            shape=Shape3(10, 20, 70),
            epsilon=0.6,
            trials=4,
            init="random",
            restarts=3,
            max_iter=4,
            empirical=True,
        )
        betas = (1.0, 3.0, 5.0)
        grid_cfg = ExperimentConfig(beta_grid=betas, out=tmp_path / "grid", **base)
        run_spike_curve(grid_cfg)
        want = []
        for beta in betas:
            out = tmp_path / f"one{beta}"
            run_spike_curve(ExperimentConfig(beta_grid=(beta,), out=out, **base))
            want += _data_lines(out / "spike_curve.csv")
        got = _data_lines(tmp_path / "grid" / "spike_curve.csv")
        assert got == want
        assert got[0].endswith(",4")  # the all-failed row at beta = 1


class TestPeakAllocation:
    # A trial holds one float64 tensor: the draw, punctured in place from
    # the largest epsilon down, beside its uint8 rank (1/8 of a tensor) and,
    # with restarts, the scan's float32 copy (1/2). Measured in tensor
    # volumes at 60x80x200 after a warm-up run: 1.72 for a random-init
    # sweep with 8 restarts, 1.31 for a planted sweep, and 1.41 for esd,
    # whose peak is the eigensolve's workspace. Holding a second float64
    # tensor per level, as puncture does, read 2.76, 2.38 and 2.38.
    shape = Shape3(60, 80, 200)
    grid = (0.3, 0.6, 1.0)

    @pytest.mark.parametrize("run, kwargs, bound", [
        (run_epsilon_sweep, dict(epsilon_grid=grid, init="random", restarts=8), 1.8),
        (run_epsilon_sweep, dict(epsilon_grid=grid, init="planted"), 1.4),
        (run_esd, dict(epsilon=0.5, init="planted"), 1.5),
    ], ids=["random sweep", "planted sweep", "esd"])
    def test_one_float64_tensor_per_trial(self, tmp_path, run, kwargs, bound):
        cfg = ExperimentConfig(shape=self.shape, trials=1, out=tmp_path, **kwargs)
        run(cfg)  # one-time allocations of the first run are not the trial's
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * math.prod(self.shape.dims)) < bound

    def test_derivative_check(self):
        # The noise, the punctured instance and one finite-difference copy,
        # handed over read-only: 4.06 volumes at 30x40x50. A full spike and
        # a second copy per solve read 6.06.
        shape = Shape3(30, 40, 50)
        derivative_check_rows(shape, 3.0, 0.7, 0, 2)
        tracemalloc.start()
        try:
            derivative_check_rows(shape, 3.0, 0.7, 0, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * math.prod(shape.dims)) < 4.5


class TestRunEpsilonSweep:
    def test_columns_and_failed_count(self, tmp_path):
        cfg = ExperimentConfig(
            shape=Shape3(15, 20, 25),
            beta=4.0,
            epsilon_grid=(0.4, 0.8),
            trials=4,
            init="planted",
            tol=1e-8,
            out=tmp_path,
        )
        run_epsilon_sweep(cfg)
        header, rows = _read_csv(tmp_path / "epsilon_sweep.csv")
        assert header[0] == "epsilon" and header[-1] == "n_failed"
        assert len(rows) == 2
        for row in rows:
            assert int(row[-1]) == 0
        _, raw = _read_csv(tmp_path / "epsilon_sweep_raw.csv")
        assert len(raw) == 8  # 2 grid points x 4 trials

    def test_aggregate_matches_raw(self, tmp_path):
        cfg = ExperimentConfig(
            shape=Shape3(15, 20, 25),
            beta=5.0,
            epsilon_grid=(0.6,),
            trials=5,
            init="planted",
            tol=1e-8,
            out=tmp_path,
        )
        run_epsilon_sweep(cfg)
        header, rows = _read_csv(tmp_path / "epsilon_sweep.csv")
        agg = dict(zip(header, rows[0]))
        _, raw = _read_csv(tmp_path / "epsilon_sweep_raw.csv")
        sigmas = [float(r[2]) for r in raw]
        assert abs(float(agg["emp_sigma_mean"]) - np.mean(sigmas)) < 1e-10
        assert abs(float(agg["emp_sigma_std"]) - np.std(sigmas)) < 1e-10

    def test_rejects_epsilon_out_of_range(self, tmp_path):
        cfg = ExperimentConfig(
            shape=Shape3(6, 6, 6), epsilon_grid=(0.0, 0.5), trials=1, out=tmp_path
        )
        with pytest.raises(ValueError):
            run_epsilon_sweep(cfg)


def _old_derivative_rows(shape, beta, epsilon, seed, n_entries):
    """The derivative check with a full redraw per solve: every solve scales
    and spikes the whole (perturbed) noise array and punctures it again."""
    signal = SignalTriple.random(shape, beta, RngSeed(seed, 1))
    noise = RngSeed(seed, 0).generator().standard_normal(shape.dims)
    mask = sample_mask(shape, epsilon, RngSeed(seed, 2))

    def solve_with(noise_arr, factors=None):
        values = noise_arr / np.sqrt(shape.N)
        if beta != 0.0:
            values += beta * np.einsum("i,j,k->ijk", signal.x, signal.y, signal.z)
        tm = hadamard(Tensor3(values), mask)
        scfg = SolverConfig(
            tol=1e-14, max_iter=200_000, factors=factors, reference=signal
        )
        return solve_critical_point(tm, scfg), tm

    cp0, tm0 = solve_with(noise)
    phi = build_phi(tm0, cp0.u, cp0.v, cp0.w)
    base_factors = (cp0.u, cp0.v, cp0.w)
    entry_gen = RngSeed(seed, 3).generator()
    rows = []
    worst = 0.0
    for _ in range(n_entries):
        i = int(entry_gen.integers(shape.n1))
        j = int(entry_gen.integers(shape.n2))
        k = int(entry_gen.integers(shape.n3))
        bit = int(mask.bits[i, j, k])
        pred = predict_factor_derivative(phi, cp0, (i, j, k), bit)
        bump = np.zeros(shape.dims)
        bump[i, j, k] = FD_STEP
        cp_plus, _ = solve_with(noise + bump, factors=base_factors)
        cp_minus, _ = solve_with(noise - bump, factors=base_factors)
        fd = (cp_plus.stacked() - cp_minus.stacked()) / (2.0 * FD_STEP)
        denom = max(float(np.max(np.abs(fd))), 1e-300)
        err = float(np.max(np.abs(pred - fd)))
        rel = err / denom if bit else err
        worst = max(worst, rel)
        rows.append([i, j, k, bit, f"{rel:.12g}"])
    return rows, worst


class TestDerivativeCheck:
    def test_rows_and_worst(self):
        rows, worst = derivative_check_rows(Shape3(4, 5, 6), 3.0, 0.7, 0, 5)
        assert len(rows) == 5
        assert worst < 1e-3
        for i, j, k, bit, rel in rows:
            assert bit in (0, 1)
            # rel is formatted to 12 significant digits in the rows.
            assert float(rel) <= worst * (1.0 + 1e-9)

    @pytest.mark.parametrize("seed", [0, 4, 9])
    @pytest.mark.parametrize(
        "beta, epsilon", [(3.0, 0.25), (3.0, 0.7), (3.0, 1.0), (0.0, 0.7)]
    )
    def test_matches_full_redraw(self, beta, epsilon, seed):
        # Rebuilding the one moved entry, and skipping the solves of masked
        # entries, gives exactly the rows of a full redraw per solve.
        args = (Shape3(4, 5, 6), beta, epsilon, seed, 10)
        assert derivative_check_rows(*args) == _old_derivative_rows(*args)


class TestRunValidate:
    def test_all_pass(self, tmp_path):
        cfg = ExperimentConfig(out=tmp_path)
        entries, ok = run_validate(cfg)
        assert ok, [e for e in entries if not e["pass"]]
        names = {e["name"] for e in entries}
        assert {
            "contraction_oracle",
            "first_order_residual",
            "structural_eigenpairs",
            "derivative_fd",
            "stieltjes_residual",
            "spike_residual",
            "universality",
            "threshold_consistency",
        } <= names
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report == entries

    def test_negative_control(self):
        # An injected sigma error must trip the structural check.
        entries, ok = run_validate(ExperimentConfig(perturb_sigma=1e-3))
        assert not ok
        failed = {e["name"] for e in entries if not e["pass"]}
        assert "structural_eigenpairs" in failed


class TestCli:
    def test_validate_exit_codes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS contraction_oracle" in out
        assert "FAIL" not in out
        assert main(["validate", "--perturb-sigma", "1e-3"]) == 2
        assert "FAIL structural_eigenpairs" in capsys.readouterr().out

    def test_density_run(self, tmp_path, capsys):
        code = main(
            [
                "density",
                "--ratios", "0.333333333333,0.333333333333,0.333333333334",
                "--n-total", "30",
                "--epsilon", "0.25",
                "--grid-points", "51",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert abs(result["edge"] - 2.0 * math.sqrt(2.0 * 0.25 / 3.0)) < 1e-6
        assert (tmp_path / "density.csv").exists()

    @pytest.mark.parametrize("command", ["esd", "density"])
    def test_rejects_nonpositive_eta(self, command, tmp_path, capsys):
        base = [command, "--shape", "10,12,14", "--out", str(tmp_path)]
        for flag in ("--eta=0", "--eta=-1e-6"):
            assert main(base + [flag]) == 1
            assert "eta must be positive" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"eta": -0.001}))
        assert main(base + ["--config", str(cfg_path)]) == 1
        assert "eta must be positive" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "shape": [10, 12, 14],
                    "beta": 4.0,
                    "epsilon": 0.9,
                    "trials": 1,
                    "init": "planted",
                    "tol": 1e-8,
                    "bins": 10,
                    "grid_points": 51,
                }
            )
        )
        code = main(
            ["esd", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
        )
        assert code == 0
        assert (tmp_path / "run" / "eigenvalues.csv").exists()

    def test_config_file_value_kept_without_flag(self, tmp_path, capsys):
        # A flag that is not given must not overwrite the file's value.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"perturb_sigma": 1e-3}))
        assert main(["validate", "--config", str(cfg_path)]) == 2
        assert main(
            ["validate", "--config", str(cfg_path), "--perturb-sigma", "0"]
        ) == 0
        cfg_path.write_text(json.dumps({"empirical": True}))
        args = build_parser().parse_args(
            ["spike-curve", "--config", str(cfg_path), "--seed", "7"]
        )
        cfg = config_from_args(args)
        assert cfg.empirical is True
        assert cfg.base_seed == 7

    @pytest.mark.parametrize("values, message", [
        ({"shpae": [4, 4, 4]}, "unknown config keys"),
        ({"shape": [4, 5]}, ""),
        ({"trials": "3"}, ""),
        ({"ratios": 5}, ""),
        ({"beta": "3"}, "beta must be float"),
        ({"tol": "1e-8"}, "tol must be float"),
        ({"bins": "10"}, "bins must be int"),
        ({"eta": "1e-6"}, "eta must be float"),
        ({"epsilon": "0.5"}, "epsilon must be float"),
    ], ids=["unknown-key", "two-dims", "string-trials", "scalar-ratios",
            "string-beta", "string-tol", "string-bins", "string-eta",
            "string-epsilon"])
    def test_unknown_config_key(self, tmp_path, capsys, values, message):
        # An unknown key, or a known one with a value of the wrong type, is a
        # config error: exit 1 and a message, not a traceback, and no output.
        # A file without a shape gets one from the command line, so that a
        # value the run would only read later is caught too.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        out = tmp_path / "run"
        args = ["esd", "--config", str(cfg_path), "--out", str(out)]
        if "shape" not in values:
            args += ["--shape", "6,6,6"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_bad_grid(self, capsys):
        assert (
            main(
                [
                    "spike-curve",
                    "--shape", "6,6,6",
                    "--beta-grid", "2.0,1.0",
                    "--trials", "1",
                ]
            )
            == 1
        )
        assert "strictly increasing" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        # argparse usage errors exit the process with status 1.
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 1

    @pytest.mark.parametrize("argv, config, message", [
        (["spike-curve"], None, "requires --beta-grid"),
        (["spike-curve", "--beta-grid", "5:1:1"], None, "beta_grid needs at least one value"),
        (["spike-curve"], {"beta_grid": []}, "beta_grid needs at least one value"),
        (["epsilon-sweep", "--epsilon-grid", "0.9:0.1:0.1"], None,
         "epsilon_grid needs at least one value"),
    ], ids=["absent", "empty-range", "empty-list", "empty-epsilon-range"])
    def test_missing_grid(self, tmp_path, capsys, argv, config, message):
        # An absent or empty grid is refused before anything is drawn or
        # written.
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "run"
        assert main(argv + ["--shape", "6,6,6", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_missing_epsilon_grid(self, tmp_path, capsys):
        assert main(["epsilon-sweep", "--shape", "6,6,6", "--out", str(tmp_path)]) == 1
        assert "requires --epsilon-grid" in capsys.readouterr().err

    def test_unknown_init(self, tmp_path, capsys):
        # init is matched exactly: "Random" is neither random nor planted.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"init": "Random"}))
        code = main(
            ["esd", "--shape", "6,6,6", "--config", str(cfg_path),
             "--out", str(tmp_path / "run")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "random" in err and "planted" in err
        assert not (tmp_path / "run").exists()
        with pytest.raises(ValueError, match="planted"):
            ExperimentConfig(init="Random")

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # A one-iteration budget cannot converge: exit code 3.
        code = main(
            [
                "esd",
                "--shape", "15,20,25",
                "--beta", "4.0",
                "--epsilon", "0.5",
                "--init", "planted",
                "--max-iter", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_derivative_check_cli(self, tmp_path, capsys):
        code = main(
            [
                "derivative-check",
                "--shape", "4,5,6",
                "--beta", "3.0",
                "--epsilon", "0.7",
                "--entries", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["worst_rel_error"] < 1e-3
        assert (tmp_path / "derivative_check.csv").exists()

    @pytest.mark.parametrize("entries", ["0", "-3"])
    def test_derivative_check_rejects_no_entries(self, tmp_path, capsys, entries):
        # A check that compares no entry is a usage error, not a pass.
        code = main(
            ["derivative-check", "--entries", entries, "--out", str(tmp_path)]
        )
        assert code == 1
        assert "entries must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "derivative_check.csv").exists()

    @pytest.mark.parametrize("flag, message", [
        pytest.param(flag, message, id=flag) for flag, message in (
            ("--trials", "trials must be at least 1"),
            ("--restarts", "restarts must be at least 1"),
            ("--max-iter", "max_iter must be at least 1"),
            ("--scan-sweeps", "scan_sweeps must be at least 1"),
            ("--tol", "tol must be positive"),
        )
    ])
    def test_rejects_zero_trials_and_restarts(self, tmp_path, capsys, flag, message):
        # Solver settings are checked with the trial counts, before anything
        # is drawn; the message names the field. --scan-sweeps is rejected
        # even where one restart skips the scan.
        code = main(
            ["epsilon-sweep", "--shape", "6,6,6", "--epsilon-grid", "0.5",
             flag, "0", "--out", str(tmp_path)]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "epsilon_sweep.csv").exists()
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{flag[2:].replace("-", "_"): 0})

    def test_derivative_check_ratios(self, tmp_path, capsys):
        # --ratios with --n-total sets the shape, as in the other commands.
        shape = shape_from_ratios((0.2, 0.3, 0.5), 30)
        assert shape == Shape3(6, 9, 15)
        code = main(
            [
                "derivative-check",
                "--ratios", "0.2,0.3,0.5",
                "--n-total", "30",
                "--epsilon", "1.0",
                "--entries", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        _, got = _read_csv(tmp_path / "derivative_check.csv")
        rows, _ = derivative_check_rows(shape, 4.0, 1.0, 0, 3)
        assert got == [[str(x) for x in row] for row in rows]
