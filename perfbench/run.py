#!/usr/bin/env python3
"""qpwalk benchmark: wall time of the paper's experiments, end to end and per layer.

Run from the repository root (nothing to install; the package is imported
from ``src/``):

    python3 perfbench/run.py --workload position --seed 1 --seconds 30 --trace 0

One process runs one workload closed-loop: a single client, one operation
after another, no extra threads. It first times ``setup_s`` (fresh
processes that import ``qpwalk.cli`` and make a first small call), then runs
one untimed warm-up pass (every operation once, at tiny sizes: it loads the
lazy imports and code paths without spending the run's time budget), then
timed passes until ``--seconds`` would be exceeded. Every output is checked;
a failed check or a non-zero exit code counts as a failed operation.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (see ``tracing.py``) plus ``trace.overhead_s``, the traced
minus the untraced median pass time.

End-to-end times are host-normalized. On a host whose cores are shared with
other tenants, speed drifts by tens of percent over minutes, so a raw time
says as much about the neighbours as about qpwalk. A
fixed calibration loop (``calibrate``: interpreter and small-array numpy
work that never calls qpwalk) is therefore timed before and after every
operation and every setup process, and each measured time is reported as
``measured_s * CAL_REF_S / calibration_s`` (for a pass, the mean calibration
time around its operations; for setup, the median around the setup
processes): seconds on a host where the calibration takes ``CAL_REF_S``. A
change to qpwalk moves the measured time and not the calibration; a change
of host speed moves both. The raw medians and the calibration times are
printed in the report as ``raw.*`` and ``calibration_s``.

Standard output is a human-readable report (environment, operations, each
metric with median, quartiles, sample count and unit) followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
SETUP_CODE = """\
import contextlib, io
from qpwalk import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["evolve", "--tmax", "10"])
raise SystemExit(code)
"""
CAL_REF_S = 0.04
# Single-threaded BLAS and the numpy kernel backend, in this process and its children.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "QPWALK_NUMBA": "0"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import qpwalk
    backend = getattr(qpwalk, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "backend": backend() if callable(backend) else "absent",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(),
        "seed": seed,
    }


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work (about 0.04 s)."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += (i * 7) % 13
    psi = np.ones((256, 2), complex)
    m = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    for _ in range(3000):
        up = m[0, 0] * psi[:, 0] + m[0, 1] * psi[:, 1]
        psi[:, 1] = m[1, 0] * psi[:, 0] + m[1, 1] * psi[:, 1]
        psi[:, 0] = up
    return time.perf_counter() - start


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import qpwalk.cli and run a tiny evolve,
    and the calibration times taken before, between and after them."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, calibrations = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup call failed ({proc.returncode}): {proc.stderr}")
        calibrations.append(calibrate())
    return times, calibrations


class Runner:
    """Runs passes over a workload's operations and tallies checks."""

    def __init__(self, ops, warmup_ops):
        self.ops = ops
        self.warmup_ops = warmup_ops
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, ops=None) -> dict:
        """One pass; returns per-metric seconds, wall_s (sum of op times), the mean
        of the calibration times taken before and after each operation, and bytes out."""
        gc.collect()
        calibrations = [calibrate()]
        seconds = {}
        bytes_out = 0
        with tracer if tracer is not None else nullcontext():
            for op in ops or self.ops:
                self.attempted += 1
                start = time.perf_counter()
                try:
                    code, out = op.run()
                except (Exception, SystemExit):
                    code, out = None, None
                    print(f"error in {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
                elapsed = time.perf_counter() - start
                calibrations.append(calibrate())
                seconds[op.metric] = seconds.get(op.metric, 0.0) + elapsed
                if isinstance(out, str):
                    bytes_out += len(out.encode())
                if code is None or not self._check(op, code, out):
                    self.failed += 1
        result = {"seconds": seconds, "wall_s": sum(seconds.values()),
                  "calibration_s": statistics.fmean(calibrations), "bytes_out": bytes_out}
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.spans, bytes_out)
            result["absent_hooks"] = tracer.absent
            result["absent_metrics"] = tracing.absent_metrics(tracer.present)
        return result

    @staticmethod
    def _check(op, code, out) -> bool:
        try:
            op.check(code, out)
        except workloads.CheckFailed as exc:
            print(f"check failed for {op.label}: {exc}", file=sys.stderr)
            return False
        except Exception:  # malformed output: report it, keep the run going
            print(f"check failed for {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
            return False
        return True


def timed_passes(runner: Runner, seconds: float, traced: bool) -> tuple[list, list]:
    """Untimed warm-up, then passes (untraced, or untraced+traced pairs) within ``seconds``."""
    runner.run_pass(ops=runner.warmup_ops)
    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(runner.run_pass())
        if traced:
            traced_passes.append(runner.run_pass(tracing.Tracer()))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return plain, traced_passes




def print_table(rows: list[tuple]) -> None:
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, values, unit in rows:
        med, q1, q3 = quartiles(values)
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>4}  {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="operation sizes; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "qpwalk" / "__init__.py").is_file():
        print(f"error: no qpwalk sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import qpwalk
    if Path(qpwalk.__file__).resolve().parent != SRC / "qpwalk":
        print(f"error: imported qpwalk from {qpwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed, args.scale)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale} seconds={args.seconds:g}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    for op in ops:
        print(f"op {op.metric:<22} {op.label}")

    runner = Runner(ops, workloads.build(args.workload, args.seed, "tiny"))
    if args.trace == 0:
        setup, setup_cal = measure_setup()
    plain, traced = timed_passes(runner, args.seconds, bool(args.trace))
    walls = [p["wall_s"] for p in plain]
    failed_ratio = runner.failed / runner.attempted

    if args.trace == 0:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pass_cal = [p["calibration_s"] for p in plain]
        norm_walls = [t * CAL_REF_S / c for t, c in zip(walls, pass_cal)]
        norm_setup = [t * CAL_REF_S / statistics.median(setup_cal) for t in setup]
        per_op = sorted({op.metric for op in ops})
        print_table([("wall_s", norm_walls, "s"), ("setup_s", norm_setup, "s"),
                     ("peak_rss_mib", [peak_rss_mib], "MiB")]
                    + [(m, [p["seconds"][m] * CAL_REF_S / p["calibration_s"] for p in plain], "s")
                       for m in per_op]
                    + [("failed_ratio", [failed_ratio], "ratio"),
                       ("raw.wall_s", walls, "s"), ("raw.setup_s", setup, "s"),
                       ("calibration_s", setup_cal + pass_cal, "s")])
        metrics = {"wall_s": (statistics.median(norm_walls), "s"),
                   "setup_s": (statistics.median(norm_setup), "s"),
                   "peak_rss_mib": (peak_rss_mib, "MiB")}
    else:
        absent = traced[0]["absent_metrics"]
        print("absent hooks " + json.dumps(traced[0]["absent_hooks"]))
        print("absent metrics " + json.dumps(absent))
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(walls))
        rows = [(name, [p["layers"][name] for p in traced],
                 "absent" if name in absent else unit)
                for name, (unit, _, _) in tracing.LAYER_METRICS.items()]
        rows.append(("trace.overhead_s", [overhead], "s"))
        rows.append(("failed_ratio", [failed_ratio], "ratio"))
        print_table(rows)
        metrics = {name: (statistics.median(p["layers"][name] for p in traced), unit)
                   for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
        metrics["trace.overhead_s"] = (overhead, "s")

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
