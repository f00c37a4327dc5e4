"""Command-line experiments with reproducible, machine-readable output.

Subcommands: evolve, revival-scan, trace-check, cf, noise-series, gauge-check,
appendix-table, bloch-trace. Every run emits one record, as CSV (``# key=value``
metadata comments, then a header row) or as a single JSON document. Output is
byte-reproducible for a fixed config and seed: records carry no timestamps and
all randomness is seeded.

Each handler checks its inputs and returns metadata, columns and rows whose
cells are Python int, float, bool or str; ``write_record`` then streams the
rows, so a run that fails its checks writes nothing. ``evolve`` hands over a
generator of one time slice at a time, so its memory stays bounded at stride 1.

Field strings give phi as a fraction of a full turn: ``n/m`` (exact integers),
``golden`` for (sqrt(5)-1)/2, or a float literal. Coins are ``hadamard``,
``identity``, ``i-sigma-y``, or an ``a,b`` pair of complex literals.

Config files hold ``key=value`` lines (``#`` comments allowed) using the long
option names with underscores; explicit flags override file values.

Exit codes: 0 success, 2 configuration error, 3 failed *-check experiment.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from collections.abc import Iterable
from fractions import Fraction
from math import gcd

import numpy as np

from . import __version__
from .cfrac import approximation_check, cf_expand, classify_field, golden_ratio_fraction
from .gauge import verify_gauge_equivalence
from .momentum import trace_formula
from .noise import NoiseConfig, return_series
from .revivals import appendix_table, irrational_revival_bound, revival_report
from .spinops import rotation_x
from .walk import (Field, WalkParams, WalkState, bloch_vector, evolve,
                   position_distribution, spinor_bloch_vector, track_origin)

TRACE_CHECK_TOL = 1e-9
GAUGE_CHECK_TOL = 1e-10
ROWS_PER_WRITE = 4096  # rows formatted per write

NAMED_COINS = {
    "hadamard": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "identity": (1.0 + 0.0j, 0.0j),
    "i-sigma-y": (0.0j, 1.0 + 0.0j),
}

# option -> argparse keywords; the flag is --option with '-' for '_', and the
# option names are also the config-file keys
FLAGS = {
    "field": {"help": "phi/(2*pi): n/m, a float, or 'golden'"},
    "coin": {"help": "hadamard | identity | i-sigma-y | a,b"},
    "tmax": {"help": "number of steps (or horizon)"},
    "epsilon": {"help": "noise amplitude(s), comma separated"},
    "seed": {"help": "master RNG seed"},
    "ensemble": {"help": "ensemble size for noise runs"},
    "out": {"help": "output path, '-' for stdout (default)"},
    "format": {"choices": ("csv", "json"), "help": "output format"},
    "m_list": {"help": "comma-separated m values"},
    "depth": {"help": "continued-fraction depth"},
    "trials": {"help": "number of random trials"},
    "noise_support": {"choices": ("pm1", "01"), "help": "x_t support: [-1,1] or [0,1]"},
    "spinor": {"help": "initial spinor 'up,down' (normalized)"},
    "x0": {"help": "initial site"},
    "stride": {"help": "emit every stride-th step"},
}
KNOWN_CONFIG_KEYS = set(FLAGS)

# the options each experiment reads besides --out and --format; argparse
# rejects any other flag
EXPERIMENT_FLAGS = {
    "evolve": "field coin tmax stride x0 spinor",
    "revival-scan": "field coin tmax depth m_list",
    "trace-check": "trials seed",
    "cf": "field depth",
    "noise-series": "field coin tmax epsilon seed ensemble noise_support",
    "gauge-check": "field coin tmax trials seed",
    "appendix-table": "m_list",
    "bloch-trace": "field coin tmax x0 spinor",
}


# what a handler returns: metadata, columns, rows of native cells, exit code
Record = tuple[dict, list[str], Iterable[tuple], int]


class ConfigError(Exception):
    pass


def parse_field(text: str) -> Field:
    text = text.strip()
    if text == "golden":
        return Field.golden()
    if "/" in text:
        parts = text.split("/")
        if len(parts) != 2:
            raise ConfigError(f"bad rational field {text!r}; expected n/m")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad rational field {text!r}: {exc}") from exc
        if m <= 0:
            raise ConfigError("field denominator must be positive")
        return Field.rational(n, m)
    try:
        return Field.from_turns(float(text))
    except ValueError as exc:
        raise ConfigError(f"bad field {text!r}: {exc}") from exc


def parse_coin(text: str) -> tuple[complex, complex, str]:
    text = text.strip()
    if text in NAMED_COINS:
        a, b = NAMED_COINS[text]
        return complex(a), complex(b), text
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"bad coin {text!r}; expected a named coin or 'a,b'")
    try:
        a, b = complex(parts[0]), complex(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad coin {text!r}: {exc}") from exc
    return a, b, text


def parse_spinor(text: str) -> tuple[complex, complex]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"bad spinor {text!r}; expected 'up,down'")
    try:
        u, d = complex(parts[0]), complex(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad spinor {text!r}: {exc}") from exc
    norm = math.sqrt(abs(u) ** 2 + abs(d) ** 2)
    if not math.isfinite(norm):
        raise ConfigError(f"spinor entries must be finite, got {text!r}")
    if norm == 0:
        raise ConfigError("spinor must be nonzero")
    return u / norm, d / norm


def parse_int_list(text: str) -> list[int]:
    return _parse_list(text, int, "integer")


def parse_float_list(text: str) -> list[float]:
    return _parse_list(text, float, "float")


def _parse_list(text: str, cast, kind: str) -> list:
    try:
        values = [cast(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {kind} list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"empty {kind} list {text!r}")
    return values


def load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in KNOWN_CONFIG_KEYS:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                out[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return out


class Options:
    """Flag values with config-file fallback and hard defaults."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, str]):
        self.args = args
        self.cfg = cfg

    def get(self, name: str, default, cast):
        value = getattr(self.args, name, None)
        if value is not None:
            return cast(value) if isinstance(value, str) else value
        if name in self.cfg:
            return cast(self.cfg[name])
        return default


def _csv_rows(rows: list) -> str:
    # str(float) is repr(float); bools are written as 1/0
    return "".join([",".join([("1" if c else "0") if type(c) is bool else str(c) for c in row])
                    + "\n" for row in rows])


def _json_rows(rows: list) -> str:
    return json.dumps(rows)[1:-1]


def write_record(experiment: str, metadata: dict, columns: list[str], rows: Iterable[tuple],
                 out_path: str, fmt: str) -> None:
    """Stream one record to ``out_path`` ('-' for stdout), ROWS_PER_WRITE rows a write.

    Cells are Python int, float, bool or str. JSON gives the bytes of
    ``json.dumps(document, sort_keys=True)``, which puts "rows" between
    "metadata" and "schema": a fixed head, the rows and a fixed tail. The
    format is checked before anything is written.
    """
    meta = {"experiment": experiment, "version": __version__, "backend": "numpy",
            **metadata}
    if fmt == "csv":
        head = "".join(["# qpwalk-csv v1\n", *(f"# {key}={meta[key]}\n" for key in sorted(meta)),
                        ",".join(columns), "\n"])
        body, sep, tail = _csv_rows, "", ""
    elif fmt == "json":
        head = json.dumps({"columns": columns, "experiment": experiment, "metadata": meta},
                          sort_keys=True)[:-1] + ', "rows": ['
        body, sep, tail = _json_rows, ", ", '], "schema": "qpwalk-json/1"}\n'
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    rows = iter(rows)
    with (open(out_path, "w", encoding="utf-8", newline="") if out_path != "-"
          else contextlib.nullcontext(sys.stdout)) as handle:
        handle.write(head)
        lead = ""
        while batch := list(itertools.islice(rows, ROWS_PER_WRITE)):
            handle.write(lead + body(batch))
            lead = sep
        handle.write(tail)


# ---------------------------------------------------------------------------
# experiment handlers
# ---------------------------------------------------------------------------

def run_evolve(opts: Options) -> Record:
    field = parse_field(opts.get("field", "1/155", str))
    a, b, coin_label = parse_coin(opts.get("coin", "hadamard", str))
    t_max = opts.get("tmax", 310, int)
    stride = opts.get("stride", 1, int)
    x0 = opts.get("x0", 0, int)
    spinor = parse_spinor(opts.get("spinor", "1,0", str))
    if t_max < 0 or stride < 1:
        raise ConfigError("tmax must be >= 0 and stride >= 1")
    params = WalkParams(field=field, coin_a=a, coin_b=b)
    field.angle(t_max)  # if t*phi overflows, it does at t_max: raise before any row is written
    start = WalkState.single_site(x=x0, spinor=spinor)

    def rows():
        # one time slice at a time: memory is one window plus one slice
        state = start
        for x, p in position_distribution(state).items():
            yield 0, x, p
        for t_from in range(1, t_max + 1, stride):
            t = min(t_from + stride - 1, t_max)
            state = evolve(state, t_from, t, params)
            for x, p in position_distribution(state).items():
                yield t, x, p

    meta = {"field": field.label, "coin": coin_label, "tmax": t_max, "stride": stride,
            "x0": x0, "spinor": opts.get("spinor", "1,0", str)}
    return meta, ["t", "x", "probability"], rows(), 0


def run_revival_scan(opts: Options) -> Record:
    field_spec = opts.get("field", "", str)
    a, b, coin_label = parse_coin(opts.get("coin", "hadamard", str))
    t_max = opts.get("tmax", 400, int)

    if field_spec not in ("", "golden"):
        raise ConfigError("revival-scan takes --field golden only; rational "
                          "fields 1/m are chosen with --m-list")
    if field_spec == "golden":
        depth = opts.get("depth", 12, int)
        # irrational_revival_bound reads c_{k+1}, so the scan needs depth >= 2
        if t_max < 1 or depth < 2:
            raise ConfigError("golden revival-scan needs tmax >= 1 and depth >= 2")
        x = golden_ratio_fraction(max(60, 3 * depth))
        cf = cf_expand(x, depth)
        field = Field.golden()
        params = WalkParams(field=field, coin_a=a, coin_b=b)
        rows = []
        for k_index in range(1, cf.depth()):
            time, bound = irrational_revival_bound(cf, k_index)
            if time > t_max:
                break
            # the convergent's revival time 2*d_k or d_k is revival_time(d_k)
            d_k = cf.convergents[k_index - 1].denominator
            report = revival_report(params, d_k)
            rows.append((k_index, d_k, time, report.sign,
                         report.measured_deviation, bound))
        meta = {"field": field.label, "coin": coin_label, "tmax": t_max, "depth": depth}
        return meta, ["k_index", "d_k", "revival_time", "sign", "measured_deviation",
                      "bound_leading"], rows, 0

    m_list = parse_int_list(opts.get("m_list", "3,4,5,6,7,8,9,10,11,12", str))
    if any(m < 1 for m in m_list):
        raise ConfigError("m values must be positive")
    rows = []
    for m in m_list:
        params = WalkParams(field=Field.rational(1, m), coin_a=a, coin_b=b)
        report = revival_report(params, m)
        rows.append((report.m, report.parity, report.revival_time, report.sign,
                     report.measured_deviation, report.predicted_scale))
    meta = {"coin": coin_label, "m_list": ",".join(str(m) for m in m_list)}
    return meta, ["m", "parity", "revival_time", "sign", "measured_deviation",
                  "predicted_scale"], rows, 0


def run_trace_check(opts: Options) -> Record:
    trials = opts.get("trials", 200, int)
    seed = opts.get("seed", 0, int)
    if trials < 1:
        raise ConfigError("trials must be positive")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows = []
    worst = 0.0
    for trial in range(trials):
        m = int(rng.integers(1, 13))
        coprime = [n for n in range(1, m + 1) if gcd(n, m) == 1]
        n = int(coprime[rng.integers(0, len(coprime))])
        mat = (rng.uniform(-1.0, 1.0, (2, 2))
               + 1j * rng.uniform(-1.0, 1.0, (2, 2))) / math.sqrt(2.0)
        rot = rotation_x(2.0 * math.pi * n / m)
        closed = trace_formula(mat, rot, m)
        direct = _direct_cyclic_trace(mat, rot, m)
        residual = float(abs(closed - direct))
        worst = max(worst, residual)
        rows.append((trial, m, n, residual, residual <= TRACE_CHECK_TOL))
    meta = {"trials": trials, "seed": seed, "tolerance": TRACE_CHECK_TOL,
            "worst_residual": worst}
    code = 0 if worst <= TRACE_CHECK_TOL else 3
    return meta, ["trial", "m", "n", "residual", "pass"], rows, code


def _direct_cyclic_trace(mat: np.ndarray, rot: np.ndarray, m: int) -> complex:
    prod = np.eye(2, dtype=complex)
    rot_power = np.eye(2, dtype=complex)
    for _ in range(m):
        prod = prod @ (mat @ rot_power)
        rot_power = rot_power @ rot
    return complex(np.trace(prod))


def run_cf(opts: Options) -> Record:
    field_spec = opts.get("field", "golden", str)
    depth = opts.get("depth", 40, int)
    if depth < 1:
        raise ConfigError("depth must be positive")
    if field_spec == "golden":
        x = golden_ratio_fraction(max(60, 3 * depth))
        label = "golden"
    else:
        field = parse_field(field_spec)
        frac = field.turns_fraction
        if frac is not None:
            x = frac % 1
        else:
            x = float(field.value / (2.0 * math.pi)) % 1.0
        label = field.label
        if x == 0:
            raise ConfigError("field reduces to a whole number of turns; nothing to expand")
    cf = cf_expand(x, depth)
    checks = approximation_check(cf)
    classification = classify_field(cf)
    rows = []
    for i, (c, conv) in enumerate(zip(cf.coefficients, cf.convergents), start=1):
        err = abs(Fraction(cf.x) - conv.value)
        bound = (Fraction(1, cf.coefficients[i] * conv.denominator ** 2)
                 if i < cf.depth() else None)
        rows.append((i, c, conv.numerator, conv.denominator, float(err),
                     float(bound) if bound is not None else float("nan"),
                     checks[i - 1] if i - 1 < len(checks) else True))
    meta = {"field": label, "depth": depth, "finite": cf.finite,
            "truncated": cf.truncated, "classification": classification.kind}
    return meta, ["k", "c_k", "n_k", "d_k", "abs_error", "bound", "within_bound"], rows, 0


def run_noise_series(opts: Options) -> Record:
    field = parse_field(opts.get("field", "1/100", str))
    a, b, coin_label = parse_coin(opts.get("coin", "hadamard", str))
    t_max = opts.get("tmax", 1000, int)
    epsilons = parse_float_list(opts.get("epsilon", "0.0001,0.0005,0.001", str))
    seed = opts.get("seed", 0, int)
    ensemble = opts.get("ensemble", 100, int)
    support = opts.get("noise_support", "pm1", str)
    if t_max < 1:
        raise ConfigError("tmax must be positive")
    params = WalkParams(field=field, coin_a=a, coin_b=b)
    rows = []
    for eps in epsilons:
        try:
            noise = NoiseConfig(epsilon=eps, seed=seed, ensemble_size=ensemble,
                                support=support)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        series = return_series(params, noise, t_max)
        for t, mean, mini, maxi in series.tolist():
            rows.append((eps, int(t), mean, mini, maxi))
    meta = {"field": field.label, "coin": coin_label, "tmax": t_max, "seed": seed,
            "ensemble": ensemble, "noise_support": support,
            "epsilon": ",".join(repr(e) for e in epsilons)}
    return meta, ["epsilon", "t", "p_mean", "p_min", "p_max"], rows, 0


def run_gauge_check(opts: Options) -> Record:
    field_spec = opts.get("field", "", str)
    a, b, coin_label = parse_coin(opts.get("coin", "hadamard", str))
    t_steps = opts.get("tmax", 50, int)
    trials = opts.get("trials", 20, int)
    seed = opts.get("seed", 0, int)
    if t_steps < 1 or trials < 1:
        raise ConfigError("tmax and trials must be positive")
    if field_spec:
        fields = [parse_field(field_spec)]
    else:
        fields = [Field.rational(1, 10), Field.golden()]
    coin = WalkParams(field=fields[0], coin_a=a, coin_b=b).coin
    rows = []
    worst = 0.0
    for field in fields:
        dev = verify_gauge_equivalence(field.value, coin, t_steps,
                                       trials=trials, seed=seed)
        worst = max(worst, dev)
        rows.append((field.label, t_steps, trials, dev, dev <= GAUGE_CHECK_TOL))
    meta = {"coin": coin_label, "tmax": t_steps, "trials": trials, "seed": seed,
            "tolerance": GAUGE_CHECK_TOL, "worst_deviation": worst}
    code = 0 if worst <= GAUGE_CHECK_TOL else 3
    return meta, ["field", "t", "trials", "max_deviation", "pass"], rows, code


def run_appendix_table(opts: Options) -> Record:
    m_list = parse_int_list(opts.get("m_list", "2,3,4,5,6,7,8,9,10,11,12", str))
    if any(m < 1 for m in m_list):
        raise ConfigError("m values must be positive")
    rows = []
    for coin_name, report, expected in appendix_table(m_list):
        rows.append((coin_name, report.m, report.parity, report.revival_time,
                     report.sign, report.measured_deviation, expected,
                     abs(report.measured_deviation - expected) <= 1e-9))
    meta = {"m_list": ",".join(str(m) for m in m_list)}
    return meta, ["coin", "m", "parity", "revival_time", "sign", "measured_deviation",
                  "expected_deviation", "match"], rows, 0


def run_bloch_trace(opts: Options) -> Record:
    field = parse_field(opts.get("field", "golden", str))
    a, b, coin_label = parse_coin(opts.get("coin", "hadamard", str))
    t_max = opts.get("tmax", 1000, int)
    x0 = opts.get("x0", 0, int)
    spinor = parse_spinor(opts.get("spinor", "1,0", str))
    if t_max < 1:
        raise ConfigError("tmax must be positive")
    params = WalkParams(field=field, coin_a=a, coin_b=b)
    state = WalkState.single_site(x=x0, spinor=spinor)
    rows = []
    sx0, sy0, sz0 = bloch_vector(state, 0)
    rows.append((0, sx0, sy0, sz0,
                 math.sqrt(sx0 ** 2 + sy0 ** 2 + sz0 ** 2)))
    nearest_t = None
    nearest_dist = math.inf
    _, spinors = track_origin(state, t_max, params)
    for t, (u, d) in enumerate(spinors.tolist(), start=1):
        sx, sy, sz = spinor_bloch_vector(u, d)
        r = math.sqrt(sx ** 2 + sy ** 2 + sz ** 2)
        rows.append((t, sx, sy, sz, r))
        dist = math.sqrt((sx - sx0) ** 2 + (sy - sy0) ** 2 + (sz - sz0) ** 2)
        if dist < nearest_dist:
            nearest_dist = dist
            nearest_t = t
    meta = {"field": field.label, "coin": coin_label, "tmax": t_max, "x0": x0,
            "spinor": opts.get("spinor", "1,0", str), "nearest_return_t": nearest_t,
            "nearest_return_dist": nearest_dist}
    return meta, ["t", "sx", "sy", "sz", "r"], rows, 0


HANDLERS = {
    "evolve": run_evolve,
    "revival-scan": run_revival_scan,
    "trace-check": run_trace_check,
    "cf": run_cf,
    "noise-series": run_noise_series,
    "gauge-check": run_gauge_check,
    "appendix-table": run_appendix_table,
    "bloch-trace": run_bloch_trace,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpwalk",
        description="Quantum-walk experiments with a quasi-periodically "
                    "time-dependent coin.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="key=value config file; flags override")
        for option in ("out", "format", *EXPERIMENT_FLAGS[name].split()):
            p.add_argument("--" + option.replace("_", "-"), dest=option, **FLAGS[option])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config_file(args.config) if args.config else {}
        opts = Options(args, cfg)
        metadata, columns, rows, code = HANDLERS[args.experiment](opts)
        write_record(args.experiment, metadata, columns, rows,
                     opts.get("out", "-", str), opts.get("format", "csv", str))
        return code
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
