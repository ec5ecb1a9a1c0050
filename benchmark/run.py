"""Benchmark of the punctured-tensor reproduction.

    python3 benchmark/run.py --workload {sweep,spectrum,theory} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/` directory. One process per workload, with one BLAS thread, so that
both sides of a comparison use the same setting: on a shared 2-core host,
two threads made the same pass differ by 12% between processes, one thread
by 1%.

A run times one warm-up pass (import plus warm-up is `setup_s`, taken as the
median over SETUP_REPEATS set-ups, all but the run's own in fresh
processes), then times passes with inputs from the seed until `--seconds`
have passed, and at least `check_passes` passes. The outputs of the first
`check_passes` passes are checked; later passes are timed only.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (BENCHMARK.json). With `--trace 1` every pass runs twice
on the same inputs, untraced and traced in alternating order, and the last
line holds the per-layer metrics, per pass; `trace.overhead_s` is the median
traced-minus-untraced pass time. The line before the last holds the
environment record and the check details; both lines, and the spans of a
traced run, are also written under `.bench_out/` in the checkout.

Metric notes:
- `fail_frac` is (failed + 1/2) / (attempted + 1), the Jeffreys estimate of
  the failure probability, so that it is never 0; the raw counts are the
  result's `attempted` and `failed`.
- `align_gap`, `ks` and `threshold_err` are measured by the sweep, spectrum
  and theory workloads respectively. The result format carries every metric
  on every workload; a workload that does not measure one reports 1.0 for it
  (`NOT_MEASURED`), a constant that never moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NOT_MEASURED = 1.0
SETUP_REPEATS = 3

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "spectrum", "theory"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; the statistical gates are off")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and warm up, print the seconds it took")
    return parser.parse_args(argv)


def set_up(args, scratch: Path):
    """Import the program and run the warm-up pass; (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    import punctured_tensor

    if Path(punctured_tensor.__file__).resolve().parent != (SRC / "punctured_tensor").resolve():
        raise ImportError(f"punctured_tensor imported from {punctured_tensor.__file__}")
    workload = workloads.make(args.workload, args.seed, args.tiny, scratch)
    workload.warmup()
    return workload, time.perf_counter() - start


def probe_setup(args) -> float:
    """Import plus warm-up in a fresh process, as a user's first run sees it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # a source checkout without git metadata
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "punctured_tensor").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "cores": os.cpu_count(), "cores_available": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(workload, seconds: float, tracer=None):
    """Time passes; returns (untraced times, traced times, checked results)."""
    plain, traced, checked = [], [], []
    begin = time.perf_counter()
    index = 0
    while index < workload.check_passes or time.perf_counter() - begin < seconds:
        order = (False,) if tracer is None else ((False, True), (True, False))[index % 2]
        for with_trace in order:
            if with_trace:
                tracer.install()
            start = time.perf_counter()
            try:
                result = workload.run_pass(index)
            finally:
                elapsed = time.perf_counter() - start
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else plain).append(elapsed)
        if index < workload.check_passes:
            checked.append(result)
        index += 1
    return plain, traced, checked


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "punctured_tensor" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="scratch-") as scratch:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(args, Path(scratch))[1]}))
            return 0
        # Fresh-process set-ups first, while this process holds no arrays.
        repeats = 1 if args.tiny or args.trace else SETUP_REPEATS
        setups = [probe_setup(args) for _ in range(repeats - 1)]
        workload, own_setup = set_up(args, Path(scratch))
        setups.append(own_setup)

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        plain, traced, checked = measure(workload, args.seconds, tracer)
        ev = workload.evaluate(checked)

        if args.trace:
            overhead = statistics.median([t - p for t, p in zip(traced, plain)])
            values = tracing.layer_metrics(tracer, len(traced), statistics.fmean(traced),
                                           overhead)
        else:
            values = {
                "wall_s": statistics.median(plain),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "fail_frac": (ev.failed + 0.5) / (ev.attempted + 1),
                "align_gap": ev.accuracy.get("align_gap", NOT_MEASURED),
                "ks": ev.accuracy.get("ks", NOT_MEASURED),
                "threshold_err": ev.accuracy.get("threshold_err", NOT_MEASURED),
            }
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": ev.failed == 0, "attempted": ev.attempted, "failed": ev.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    details = {"environment": environment(args), "pass_s": plain, "traced_pass_s": traced,
               "setup_samples_s": setups, "checks": ev.details}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.json")
    (OUT / f"{stem}.json").write_text(json.dumps({"details": details, "result": result}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
