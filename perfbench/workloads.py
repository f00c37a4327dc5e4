"""The three qpwalk workloads: operations, their sizes and their output checks.

Each operation is one qpwalk experiment, run in-process either through
``qpwalk.cli.main(argv)`` (stdout captured) or through a library entry point.
Every operation adds its time to one per-experiment metric (``evolve_s``,
``revival_scan_s``, ...) and has a check at the tolerances the test suite
uses. The workload seed reaches the program only as the ``--seed`` of
``gauge-check``, ``trace-check`` and ``noise-series``; the amount of work
does not depend on it.

Why these workloads:

- ``position``: position-space dynamics and no momentum work. The evolution
  kernels in their spreading (field 1/7), localized (golden field) and
  electric regimes, the per-call overhead of ``walk.evolve`` (``evolve`` and
  ``bloch-trace`` make one call per step) and CSV serialization.
- ``revival``: momentum-space analysis and no position kernels. The
  regrouped-block composition and the grid/golden-section search, used with
  short rational products (at most 24 steps) and the golden-field scan.
  ``appendix-table`` and the golden scan are cut down from their defaults
  (about 8 s and 22 s) so that several passes fit into one run.
- ``noise``: the origin-tracking regime. Many medium-length trajectories
  with per-step matrices, at epsilon = 0 (exact integer-angle path) and
  epsilon > 0 (float field-override path).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

SIZES = {
    "full": {
        "evolve_tmax": 2000, "evolve_stride": 100, "bloch_tmax": 5000,
        "localized_steps": 10000, "spreading_steps": 6000, "electric_steps": 10000,
        "gauge_trials": 20, "appendix_m": "2,3,4", "scan_m": "3,4,5,6,7,8,9,10,11,12",
        "golden_tmax": 30, "trace_trials": 200, "cf_depth": 40,
        "noise_tmax": 300, "noise_ensemble": 50,
    },
    "tiny": {
        "evolve_tmax": 40, "evolve_stride": 10, "bloch_tmax": 40,
        "localized_steps": 40, "spreading_steps": 40, "electric_steps": 40,
        "gauge_trials": 2, "appendix_m": "2,3", "scan_m": "3,4",
        "golden_tmax": 6, "trace_trials": 5, "cf_depth": 8,
        "noise_tmax": 20, "noise_ensemble": 2,
    },
}

# measured_deviation of `revival-scan --field golden` per k_index, recorded
# from the initial qpwalk implementation; the search is accurate to ~1e-6.
GOLDEN_SCAN = {
    1: 1.5042044814192252, 2: 1.5042044814192252, 3: 1.5291686402509042,
    4: 1.4839306384026145, 5: 0.7617366033034599, 6: 0.8994177588482373,
    7: 0.6054666576682912, 8: 0.19779609216566366,
}
GOLDEN_SCAN_TOL = 1e-6
LAW_TOL = 1e-9          # Hadamard revival laws, as in the test suite
NORM_TOL = 1e-10        # unitarity of long evolutions and evolve time slices
BLOCH_TOL = 1e-12       # Bloch vector length of a sub-unit spinor


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` returns (exit code, output), ``check`` raises CheckFailed."""

    metric: str
    label: str
    run: Callable[[], tuple]
    check: Callable[[int, object], None]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> tuple[int, str]:
    from qpwalk import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def parse_csv(text: str) -> list[dict]:
    """Rows (column -> string) of a qpwalk CSV record, skipping its ``#`` metadata lines."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    expect(bool(lines), "no header row in CSV output")
    return list(csv.DictReader(lines))


def cli_op(metric: str, argv: list[str], check_rows) -> Op:
    def check(code, text):
        expect(code == 0, f"exit code {code}")
        check_rows(parse_csv(text))
    return Op(metric, "qpwalk " + " ".join(argv), lambda: run_cli(argv), check)


def all_pass(column: str, count: int):
    def check(rows):
        expect(len(rows) == count, f"{len(rows)} rows, expected {count}")
        expect(all(r[column] == "1" for r in rows), f"a row has {column} != 1")
    return check


# ---------------------------------------------------------------------------
# position
# ---------------------------------------------------------------------------

def _check_evolve(tmax: int, stride: int):
    def check(rows):
        totals = {}
        for r in rows:
            totals[int(r["t"])] = totals.get(int(r["t"]), 0.0) + float(r["probability"])
        slices = sorted({0, tmax, *range(stride, tmax + 1, stride)})
        expect(sorted(totals) == slices, "time slices missing from evolve output")
        worst = max(abs(total - 1.0) for total in totals.values())
        expect(worst <= NORM_TOL, f"a time slice sums to 1 only within {worst:.3g}")
    return check


def _check_bloch(tmax: int):
    def check(rows):
        expect(len(rows) == tmax + 1, f"{len(rows)} rows, expected {tmax + 1}")
        worst = max(float(r["r"]) for r in rows)
        expect(worst <= 1.0 + BLOCH_TOL, f"Bloch vector length {worst!r} > 1")
    return check


def _library_op(metric: str, label: str, evolve: Callable) -> Op:
    def run():
        return 0, evolve()

    def check(code, state):
        drift = abs(state.norm - 1.0)
        expect(drift <= NORM_TOL, f"norm drift {drift:.3g}")
    return Op(metric, label, run, check)


def position(seed: int, size: dict) -> list[Op]:
    from qpwalk import gauge, walk

    start = walk.WalkState.single_site(0, (1.0, 0.0))
    golden = walk.Field.golden()
    localized = walk.hadamard_params(golden)
    spreading = walk.hadamard_params(walk.Field.rational(1, 7))
    coin = localized.coin
    tmax, stride = size["evolve_tmax"], size["evolve_stride"]
    n_loc, n_spread, n_el = (size["localized_steps"], size["spreading_steps"],
                             size["electric_steps"])
    return [
        cli_op("evolve_s", ["evolve", "--field", "1/155", "--tmax", str(tmax),
                            "--stride", str(stride)], _check_evolve(tmax, stride)),
        cli_op("bloch_trace_s", ["bloch-trace", "--field", "golden",
                                 "--tmax", str(size["bloch_tmax"])],
               _check_bloch(size["bloch_tmax"])),
        cli_op("gauge_check_s", ["gauge-check", "--trials", str(size["gauge_trials"]),
                                 "--seed", str(seed)], all_pass("pass", 2)),
        _library_op("long_evolve_s", f"walk.evolve golden field, {n_loc} steps",
                    lambda: walk.evolve(start, 1, n_loc, localized)),
        _library_op("long_evolve_s", f"walk.evolve field 1/7, {n_spread} steps",
                    lambda: walk.evolve(start, 1, n_spread, spreading)),
        # golden.value is already in radians: phi = 2*pi*(sqrt(5)-1)/2
        _library_op("long_evolve_s", f"gauge.electric_evolve golden field, {n_el} steps",
                    lambda: gauge.electric_evolve(start, n_el, golden.value, coin)),
    ]


# ---------------------------------------------------------------------------
# revival
# ---------------------------------------------------------------------------

def hadamard_law(m: int) -> float:
    """Exact deviation at the revival time: 2^(1-m/2) for odd m, 2^(1-m/4) for even m."""
    return 2.0 ** (1.0 - m / 2.0) if m % 2 else 2.0 ** (1.0 - m / 4.0)


def _check_scan(m_list: list[int]):
    def check(rows):
        expect([int(r["m"]) for r in rows] == m_list, "revival-scan rows do not match m list")
        for r in rows:
            m, dev = int(r["m"]), float(r["measured_deviation"])
            err = abs(dev - hadamard_law(m))
            expect(err <= LAW_TOL, f"m={m}: deviation {dev!r} misses the law by {err:.3g}")
    return check


def _check_golden_scan(tmax: int):
    def check(rows):
        expect(len(rows) > 0, "golden scan returned no revivals")
        for r in rows:
            k, dev = int(r["k_index"]), float(r["measured_deviation"])
            expect(int(r["revival_time"]) <= tmax, f"k={k}: revival time beyond tmax")
            expect(k in GOLDEN_SCAN, f"k={k}: no recorded value for this tmax")
            err = abs(dev - GOLDEN_SCAN[k])
            expect(err <= GOLDEN_SCAN_TOL, f"k={k}: deviation {dev!r} off by {err:.3g}")
    return check


def _check_cf(depth: int):
    def check(rows):
        expect(len(rows) == depth, f"{len(rows)} rows, expected {depth}")
        fib = [1, 2]
        while len(fib) < depth:
            fib.append(fib[-1] + fib[-2])
        expect([int(r["c_k"]) for r in rows] == [1] * depth, "golden CF coefficients are not all 1")
        expect([int(r["d_k"]) for r in rows] == fib[:depth], "convergent denominators are not Fibonacci")
        expect(all(r["within_bound"] == "1" for r in rows), "a convergent misses its bound")
    return check


def revival(seed: int, size: dict) -> list[Op]:
    appendix_m = [int(m) for m in size["appendix_m"].split(",")]
    scan_m = [int(m) for m in size["scan_m"].split(",")]
    return [
        cli_op("appendix_table_s", ["appendix-table", "--m-list", size["appendix_m"]],
               all_pass("match", 2 * len(appendix_m))),
        cli_op("revival_scan_s", ["revival-scan", "--m-list", size["scan_m"]],
               _check_scan(scan_m)),
        cli_op("revival_scan_golden_s", ["revival-scan", "--field", "golden",
                                         "--tmax", str(size["golden_tmax"])],
               _check_golden_scan(size["golden_tmax"])),
        cli_op("trace_check_s", ["trace-check", "--trials", str(size["trace_trials"]),
                                 "--seed", str(seed)],
               all_pass("pass", size["trace_trials"])),
        cli_op("cf_s", ["cf", "--field", "golden", "--depth", str(size["cf_depth"])],
               _check_cf(size["cf_depth"])),
    ]


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

NOISE_EPSILONS = (0.0, 0.0005, 0.001)


def _check_noise(tmax: int, clean_p0):
    def check(rows):
        expect(len(rows) == len(NOISE_EPSILONS) * (tmax + 1), "wrong number of noise rows")
        for r in rows:
            t, mean, lo, hi = (int(r["t"]), float(r["p_mean"]), float(r["p_min"]),
                               float(r["p_max"]))
            expect(0.0 <= lo <= mean * (1 + 1e-12) and mean <= hi * (1 + 1e-12)
                   and hi <= 1.0 + NORM_TOL, f"t={t}: p_min <= p_mean <= p_max fails")
            if float(r["epsilon"]) == 0.0:
                # every epsilon = 0 trajectory is the clean walk, bit for bit
                expect(lo == hi == clean_p0[t], f"t={t}: epsilon=0 row differs "
                       "from evolve_tracking_origin")
                expect(math.isclose(mean, clean_p0[t], rel_tol=1e-14, abs_tol=1e-300),
                       f"t={t}: epsilon=0 mean differs from evolve_tracking_origin")
    return check


def noise(seed: int, size: dict) -> list[Op]:
    from qpwalk import walk

    tmax = size["noise_tmax"]
    params = walk.hadamard_params(walk.Field.rational(1, 100))
    _, clean_p0 = walk.evolve_tracking_origin(walk.WalkState.single_site(), tmax, params)
    argv = ["noise-series", "--field", "1/100", "--tmax", str(tmax),
            "--ensemble", str(size["noise_ensemble"]),
            "--epsilon", ",".join(repr(e) for e in NOISE_EPSILONS), "--seed", str(seed)]
    return [cli_op("noise_series_s", argv, _check_noise(tmax, [float(p) for p in clean_p0]))]


WORKLOADS = {"position": position, "revival": revival, "noise": noise}


def build(name: str, seed: int, scale: str) -> list[Op]:
    return WORKLOADS[name](seed, SIZES[scale])
