import csv
import json
import math

import numpy as np
import pytest

from punctured_tensor import Shape3
from punctured_tensor.cli import build_parser, config_from_args, main
from punctured_tensor.experiments import (
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
            trials=0,
            out=tmp_path,
        )
        run_spike_curve(cfg)
        header, rows = _read_csv(tmp_path / "spike_curve.csv")
        assert header[0] == "beta" and header[-1] == "feasible"
        feas = {float(r[0]): int(r[-1]) for r in rows}
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


class TestDerivativeCheck:
    def test_rows_and_worst(self):
        rows, worst = derivative_check_rows(Shape3(4, 5, 6), 3.0, 0.7, 0, 5)
        assert len(rows) == 5
        assert worst < 1e-3
        for i, j, k, bit, rel in rows:
            assert bit in (0, 1)
            # rel is formatted to 12 significant digits in the rows.
            assert float(rel) <= worst * (1.0 + 1e-9)


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

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"shpae": [4, 4, 4]}))
        assert main(["esd", "--config", str(cfg_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

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

    def test_missing_grid(self, tmp_path, capsys):
        assert main(["spike-curve", "--shape", "6,6,6", "--out", str(tmp_path)]) == 1
        assert "requires --beta-grid" in capsys.readouterr().err

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
