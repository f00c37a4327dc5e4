"""Command-line experiments with reproducible, machine-readable output.

Subcommands: evolve, revival-scan, trace-check, cf, noise-series, gauge-check,
appendix-table, bloch-trace. Every run emits one record, as CSV (``# key=value``
metadata comments, then a header row) or as a single JSON document. Output is
byte-reproducible for a fixed config and seed: records carry no timestamps and
all randomness is seeded.

Each handler checks its inputs and returns metadata, columns and column
blocks: each block holds one sequence per column, of Python int, float, bool,
str or None (a missing value) cells. ``write_record`` then streams the blocks,
so a run that fails its checks writes nothing. ``evolve`` hands over a
generator of one block per time slice and ``bloch-trace`` one of
``SPINOR_BLOCK`` rows a block, so their memory stays bounded in --tmax; the
other experiments hand over one block.

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
import functools
import json
import math
import os
import sys
from collections.abc import Iterable
from fractions import Fraction
from math import gcd

import numpy as np

from . import __version__
from .cfrac import approximation_check, cf_expand, classify_field, golden_ratio_fraction
from .gauge import verify_gauge_equivalence
from .momentum import _closed_trace, _rotation_frame
from .noise import NoiseConfig, check_step_angles, ensemble_series
from .revivals import deviation_bound, revival_reports, revival_time
from .spinops import rotation_x
from .walk import (Field, WalkParams, WalkState, bloch_vector, evolve, occupied_sites,
                   spinor_bloch_vector, track_origin)

TRACE_CHECK_TOL = 1e-9
GAUGE_CHECK_TOL = 1e-10
ROWS_PER_WRITE = 4096  # rows gathered from blocks into one write
SPINOR_BLOCK = 512  # bloch-trace rows a block: spinors turned into Python values at a time

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


# what a handler returns: metadata, columns, column blocks of native cells, exit code
Record = tuple[dict, list[str], Iterable[list], int]


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
    components = (u.real, u.imag, d.real, d.imag)
    if not all(map(math.isfinite, components)):
        raise ConfigError(f"spinor entries must be finite, got {text!r}")
    biggest = max(map(abs, components))
    if biggest == 0:
        raise ConfigError("spinor must be nonzero")
    try:
        total = abs(u) ** 2 + abs(d) ** 2
    except OverflowError:
        total = math.inf
    if not sys.float_info.min <= total < math.inf:
        # the squares overflow or lose bits to underflow: scale the entries by
        # an exact power of two that puts the largest component in [1/2, 1)
        exp = -math.frexp(biggest)[1]
        u = complex(math.ldexp(u.real, exp), math.ldexp(u.imag, exp))
        d = complex(math.ldexp(d.real, exp), math.ldexp(d.imag, exp))
        total = abs(u) ** 2 + abs(d) ** 2
    norm = math.sqrt(total)
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


def _csv_rows(block) -> str:
    """The CSV lines of a column block, from one ``%`` over a template of its rows.

    A column of floats is written with ``%r`` (which is ``str``), of ints and
    bools with ``%d`` (bools as 1/0) and of strs with ``%s``; any other
    column goes through ``str`` cell by cell, with bools as 1/0 and None as
    an empty cell (JSON writes it as null).
    """
    width = len(block)
    cells = [None] * (width * len(block[0]))
    formats = []
    for i, column in enumerate(block):
        kinds = set(map(type, column))
        if kinds == {float}:
            formats.append("%r")
        elif kinds <= {int, bool}:
            formats.append("%d")
        else:
            formats.append("%s")
            if kinds != {str}:
                column = [("1" if c else "0") if type(c) is bool else "" if c is None
                          else str(c) for c in column]
        cells[i::width] = column
    return (",".join(formats) + "\n") * len(block[0]) % tuple(cells)


def _json_rows(block) -> str:
    return json.dumps(list(zip(*block)))[1:-1]


def write_record(experiment: str, metadata: dict, columns: list[str], blocks: Iterable[list],
                 out_path: str, fmt: str) -> None:
    """Stream one record to ``out_path`` ('-' for stdout), blocks gathered into writes.

    A block holds one sequence per column, all of one length (a block of no
    columns has no rows), of Python int, float, bool, str or None cells. Each
    block is formatted as it arrives (``_csv_rows``, ``_json_rows``), and
    the texts are gathered into writes of at most ROWS_PER_WRITE rows, or of
    one block that alone holds more. JSON gives the bytes of
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
    try:
        output = (open(out_path, "w", encoding="utf-8", newline="") if out_path != "-"
                  else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path!r}: {exc.strerror}") from exc
    with output as handle:
        handle.write(head)
        lead, texts, rows = "", [], 0
        for block in blocks:
            count = len(block[0]) if block else 0
            if rows and rows + count > ROWS_PER_WRITE:
                handle.write(lead + sep.join(texts))
                lead, texts, rows = sep, [], 0
            if count:
                texts.append(body(block))
                rows += count
        if texts:
            handle.write(lead + sep.join(texts))
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

    def time_slice(t, state):
        sites, probs = occupied_sites(state)
        return [[t] * len(sites), sites, probs]

    def blocks():
        # one time slice at a time: memory is one window plus one slice
        state = start
        yield time_slice(0, state)
        for t_from in range(1, t_max + 1, stride):
            t = min(t_from + stride - 1, t_max)
            state = evolve(state, t_from, t, params)
            yield time_slice(t, state)

    meta = {"field": field.label, "coin": coin_label, "tmax": t_max, "stride": stride,
            "x0": x0, "spinor": opts.get("spinor", "1,0", str)}
    return meta, ["t", "x", "probability"], blocks(), 0


def run_revival_scan(opts: Options) -> Record:
    field_spec = opts.get("field", "", str)
    a, b, coin_label = parse_coin(opts.get("coin", "hadamard", str))

    if field_spec not in ("", "golden"):
        raise ConfigError("revival-scan takes --field golden only; rational "
                          "fields 1/m are chosen with --m-list")
    # an explicit flag of the other mode is an error; config-file keys are ignored
    other = ("m_list",) if field_spec == "golden" else ("tmax", "depth")
    given = ["--" + name.replace("_", "-") for name in other
             if getattr(opts.args, name, None) is not None]
    if given:
        mode = "the golden scan (--field golden)" if field_spec else "the rational scan (--m-list)"
        raise ConfigError(f"revival-scan does not read {', '.join(given)} in {mode}")
    if field_spec == "golden":
        t_max = opts.get("tmax", 400, int)
        depth = opts.get("depth", 12, int)
        if t_max < 2 or depth < 1:
            raise ConfigError("golden revival-scan needs tmax >= 2 (the first golden "
                              "revival time is 2*d_1 = 2) and depth >= 1")
        x = golden_ratio_fraction(max(60, 3 * depth))
        field = Field.golden()
        params = WalkParams(field=field, coin_a=a, coin_b=b)
        convergents = []
        for conv in cf_expand(x, depth).convergents:
            if revival_time(conv.denominator) > t_max:
                break
            convergents.append(conv)
        reports = revival_reports((params, conv.denominator) for conv in convergents)
        # the bound's drifts: each kick angle's distance mod 2*pi from the convergent walk's
        angles = field.angles(1, max(report.revival_time for report in reports))
        rows = []
        for k_index, (conv, report) in enumerate(zip(convergents, reports), start=1):
            time = report.revival_time
            drift = np.abs(angles[:time] - Field.rational(conv.numerator, conv.denominator)
                           .angles(1, time))
            bound = deviation_bound(report.exact_deviation,
                                    np.minimum(drift, 2.0 * math.pi - drift))
            rows.append((k_index, conv.denominator, time, report.sign,
                         report.measured_deviation, bound))
        meta = {"field": field.label, "coin": coin_label, "tmax": t_max, "depth": depth}
        return meta, ["k_index", "d_k", "revival_time", "sign", "measured_deviation",
                      "deviation_bound"], [list(zip(*rows))], 0

    m_list = parse_int_list(opts.get("m_list", "3,4,5,6,7,8,9,10,11,12", str))
    if any(m < 1 for m in m_list):
        raise ConfigError("m values must be positive")
    reports = revival_reports((WalkParams(field=Field.rational(1, m), coin_a=a, coin_b=b), m)
                              for m in m_list)
    rows = [(report.m, report.parity, report.revival_time, report.sign,
             report.measured_deviation, report.exact_deviation) for report in reports]
    meta = {"coin": coin_label, "m_list": ",".join(str(m) for m in m_list)}
    return meta, ["m", "parity", "revival_time", "sign", "measured_deviation",
                  "exact_deviation"], [list(zip(*rows))], 0


def run_trace_check(opts: Options) -> Record:
    """Random-matrix check of the cyclic trace identity (``momentum.trace_formula``).

    Each trial draws m in 1..12, an n coprime to m and a random complex M, and
    compares the closed form for R = rotation_x(2 pi n / m) with the direct
    product tr(M R^0 M R^1 ... M R^(m-1)). Each rotation (n, m) is validated
    and diagonalized once. The trials are grouped by m: each group's
    eigenbasis conjugations and direct products run as stacked matmuls over
    its trials, each with its own rotation and eigenbasis, in the operation
    order of the one-trial product, so every residual keeps that product's
    bits. The closed form itself runs per trial on numpy scalars. Exit 3 if
    any row fails, a NaN residual included.
    """
    trials = opts.get("trials", 200, int)
    seed = opts.get("seed", 0, int)
    if trials < 1:
        raise ConfigError("trials must be positive")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    coprimes = {m: [n for n in range(1, m + 1) if gcd(n, m) == 1] for m in range(1, 13)}
    # m -> (trial, n, real and imaginary parts of M) of its trials
    groups: dict[int, list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
    for trial in range(trials):
        m = int(rng.integers(1, 13))
        coprime = coprimes[m]
        n = int(coprime[rng.integers(0, len(coprime))])
        real = rng.uniform(-1.0, 1.0, (2, 2))
        groups.setdefault(m, []).append((trial, n, real, rng.uniform(-1.0, 1.0, (2, 2))))
    frames = {}  # (n, m) -> (R, its eigenbasis)
    rows = []
    for m, group in groups.items():
        group_trials, group_ns, real, imag = zip(*group)
        for n in group_ns:
            if (n, m) not in frames:
                rot = rotation_x(2.0 * math.pi * n / m)
                frames[n, m] = rot, _rotation_frame(rot, m)
        rots, bases = (np.array(stack) for stack in zip(*(frames[n, m] for n in group_ns)))
        mats = (np.array(real) + 1j * np.array(imag)) / math.sqrt(2.0)
        tilde = bases @ mats @ bases.conj().swapaxes(-1, -2)
        for trial, n, mat, at, dt, direct in zip(group_trials, group_ns, mats, tilde[:, 0, 0],
                                                 tilde[:, 1, 1],
                                                 _direct_cyclic_traces(mats, rots, m)):
            # numpy scalar arithmetic, as in trace_formula: the array ufuncs may round otherwise
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            residual = float(abs(_closed_trace(at, dt, det, m) - direct))
            rows.append((trial, m, n, residual, residual <= TRACE_CHECK_TOL))
    rows.sort()  # back to trial order
    worst = float(np.max([row[3] for row in rows]))  # NaN if any residual is NaN
    meta = {"trials": trials, "seed": seed, "tolerance": TRACE_CHECK_TOL,
            "worst_residual": worst}
    code = 0 if all(row[4] for row in rows) else 3
    return meta, ["trial", "m", "n", "residual", "pass"], [list(zip(*rows))], code


def _direct_cyclic_traces(mats: np.ndarray, rots: np.ndarray, m: int) -> np.ndarray:
    """tr(M R^0 M R^1 ... M R^(m-1)) for each M of the stack ``mats``, (N, 2, 2).

    ``rots`` is one rotation R, (2, 2), or one per trial, (N, 2, 2); either
    way each trace has the bits of the one-trial loop of 2x2 matmuls.
    """
    prod = np.broadcast_to(np.eye(2, dtype=complex), mats.shape)
    power = np.eye(2, dtype=complex)
    for _ in range(m):
        prod = prod @ (mats @ power)
        power = power @ rots
    return prod[:, 0, 0] + prod[:, 1, 1]


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
                     float(bound) if bound is not None else None,
                     checks[i - 1] if i - 1 < len(checks) else True))
    meta = {"field": label, "depth": depth, "finite": cf.finite,
            "truncated": cf.truncated, "classification": classification.kind}
    columns = ["k", "c_k", "n_k", "d_k", "abs_error", "bound", "within_bound"]
    return meta, columns, [list(zip(*rows))], 0


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
    try:  # every epsilon and its step angles are checked before the first series runs
        noises = [NoiseConfig(epsilon=eps, seed=seed, ensemble_size=ensemble, support=support)
                  for eps in epsilons]
        for noise in noises:
            check_step_angles(params, noise, t_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    blocks = [[[eps] * len(series), series[:, 0].astype(int).tolist(), *series[:, 1:].T.tolist()]
              for eps, series in zip(epsilons, ensemble_series(params, noises, t_max))]
    meta = {"field": field.label, "coin": coin_label, "tmax": t_max, "seed": seed,
            "ensemble": ensemble, "noise_support": support,
            "epsilon": ",".join(repr(e) for e in epsilons)}
    return meta, ["epsilon", "t", "p_mean", "p_min", "p_max"], blocks, 0


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
    devs = [verify_gauge_equivalence(field.value, coin, t_steps, trials=trials, seed=seed)
            for field in fields]
    rows = [(field.label, t_steps, trials, dev, dev <= GAUGE_CHECK_TOL)
            for field, dev in zip(fields, devs)]
    worst = float(np.max(devs))  # NaN if any deviation is NaN
    meta = {"coin": coin_label, "tmax": t_steps, "trials": trials, "seed": seed,
            "tolerance": GAUGE_CHECK_TOL, "worst_deviation": worst}
    code = 0 if worst <= GAUGE_CHECK_TOL else 3
    return meta, ["field", "t", "trials", "max_deviation", "pass"], [list(zip(*rows))], code


def run_appendix_table(opts: Options) -> Record:
    m_list = parse_int_list(opts.get("m_list", "2,3,4,5,6,7,8,9,10,11,12", str))
    if any(m < 1 for m in m_list):
        raise ConfigError("m values must be positive")
    cases = [(name, m) for name in ("identity", "i-sigma-y") for m in m_list]
    reports = revival_reports((WalkParams(Field.rational(1, m), *NAMED_COINS[name]), m)
                              for name, m in cases)
    rows = [(name, r.m, r.parity, r.revival_time, r.sign, r.measured_deviation, r.exact_deviation,
             abs(r.measured_deviation - r.exact_deviation) <= 1e-9)
            for (name, _), r in zip(cases, reports)]
    meta = {"m_list": ",".join(str(m) for m in m_list)}
    return meta, ["coin", "m", "parity", "revival_time", "sign", "measured_deviation",
                  "expected_deviation", "match"], [list(zip(*rows))], 0


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
    sx0, sy0, sz0 = bloch_vector(state, 0)
    spinors = track_origin(state, t_max, params)
    # The metadata, written first, names the nearest return. One pass over
    # the (T, 2) spinors, SPINOR_BLOCK rows at a time, finds it and overwrites
    # each spinor's 32 bytes with its row's four floats (sx, sy, sz, r); the
    # blocks then stream from that (T, 4) array.
    vectors = spinors.view(float)
    nearest_t = None
    nearest_dist = math.inf
    for t0 in range(0, t_max, SPINOR_BLOCK):
        values = []
        for t, (u, d) in enumerate(spinors[t0:t0 + SPINOR_BLOCK].tolist(), t0 + 1):
            sx, sy, sz = spinor_bloch_vector(u, d)
            dist = math.sqrt((sx - sx0) ** 2 + (sy - sy0) ** 2 + (sz - sz0) ** 2)
            if dist < nearest_dist:
                nearest_dist = dist
                nearest_t = t
            values += sx, sy, sz, math.sqrt(sx ** 2 + sy ** 2 + sz ** 2)
        vectors[t0:t0 + SPINOR_BLOCK].reshape(-1)[:] = values  # a view: writes the rows

    def blocks():
        yield [[0], [sx0], [sy0], [sz0], [math.sqrt(sx0 ** 2 + sy0 ** 2 + sz0 ** 2)]]
        for t0 in range(0, t_max, SPINOR_BLOCK):
            rows = vectors[t0:t0 + SPINOR_BLOCK]
            yield [list(range(t0 + 1, t0 + 1 + len(rows))), *rows.T.tolist()]

    meta = {"field": field.label, "coin": coin_label, "tmax": t_max, "x0": x0,
            "spinor": opts.get("spinor", "1,0", str), "nearest_return_t": nearest_t,
            "nearest_return_dist": nearest_dist}
    return meta, ["t", "sx", "sy", "sz", "r"], blocks(), 0


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: ``parse_args`` returns a fresh Namespace."""
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
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``qpwalk ... | head``). Point the descriptor
        # at devnull so the flush at exit finds no pipe, and exit 1 as Python
        # does on EPIPE (the note on SIGPIPE in the docs of ``signal``).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
