"""Shared fixtures and independent reference implementations.

The reference evolutions here are deliberately written with dictionaries and
explicit loops — no shared code with the array kernels — so agreement between
the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import numpy as np
import pytest

from qpwalk.walk import WalkState

Amplitudes = dict[tuple[int, int], complex]


def state_to_dict(state: WalkState) -> Amplitudes:
    out: Amplitudes = {}
    for i in range(state.amplitudes.shape[0]):
        for s in (0, 1):
            value = complex(state.amplitudes[i, s])
            if value != 0:
                out[(state.x_min + i, s)] = value
    return out


def _apply_matrix(amps: Amplitudes, mat: np.ndarray) -> Amplitudes:
    out: Amplitudes = {}
    sites = {x for (x, _) in amps}
    for x in sites:
        up = amps.get((x, 0), 0j)
        dn = amps.get((x, 1), 0j)
        new_up = mat[0, 0] * up + mat[0, 1] * dn
        new_dn = mat[1, 0] * up + mat[1, 1] * dn
        if new_up != 0:
            out[(x, 0)] = new_up
        if new_dn != 0:
            out[(x, 1)] = new_dn
    return out


def _apply_shift(amps: Amplitudes) -> Amplitudes:
    out: Amplitudes = {}
    for (x, s), value in amps.items():
        out[(x + 1 if s == 0 else x - 1, s)] = value
    return out


def reference_evolve(amps: Amplitudes, matrices: list[np.ndarray],
                     matrix_before_shift: bool) -> Amplitudes:
    """Apply one 2x2 matrix + shift pair per entry of ``matrices``."""
    for mat in matrices:
        if matrix_before_shift:
            amps = _apply_shift(_apply_matrix(amps, mat))
        else:
            amps = _apply_matrix(_apply_shift(amps), mat)
    return amps


def reference_electric(amps: Amplitudes, coin: np.ndarray, phi: float,
                       steps: int) -> Amplitudes:
    """Shift, coin, then the site phase exp(i*phi*x), repeated."""
    for _ in range(steps):
        amps = _apply_matrix(_apply_shift(amps), coin)
        amps = {(x, s): np.exp(1j * phi * x) * value
                for (x, s), value in amps.items()}
    return amps


# ---------------------------------------------------------------------------
# interleaved reference kernels: the step loops as they were before the
# comoving layout, shifting the (width, 2) buffer in place every step
# ---------------------------------------------------------------------------

REFERENCE_TRIM_THRESHOLD = 1e-200


def _reference_trim_bounds(psi, lo, hi):
    while hi > lo:
        u = psi[hi, 0]
        d = psi[hi, 1]
        if (abs(u.real) < REFERENCE_TRIM_THRESHOLD and abs(u.imag) < REFERENCE_TRIM_THRESHOLD
                and abs(d.real) < REFERENCE_TRIM_THRESHOLD
                and abs(d.imag) < REFERENCE_TRIM_THRESHOLD):
            psi[hi, 0] = 0.0
            psi[hi, 1] = 0.0
            hi -= 1
        else:
            break
    while lo < hi:
        u = psi[lo, 0]
        d = psi[lo, 1]
        if (abs(u.real) < REFERENCE_TRIM_THRESHOLD and abs(u.imag) < REFERENCE_TRIM_THRESHOLD
                and abs(d.real) < REFERENCE_TRIM_THRESHOLD
                and abs(d.imag) < REFERENCE_TRIM_THRESHOLD):
            psi[lo, 0] = 0.0
            psi[lo, 1] = 0.0
            lo += 1
        else:
            break
    return lo, hi


def reference_matrix_then_shift(psi, lo, hi, mats, origin=None, out_p0=None,
                                out_spinor=None):
    """Apply ``mats[t]`` then the shift; probe p0 (and the spinor) at ``origin``."""
    for t in range(mats.shape[0]):
        m = mats[t]
        block = psi[lo:hi + 1]
        up = m[0, 0] * block[:, 0] + m[0, 1] * block[:, 1]
        dn = m[1, 0] * block[:, 0] + m[1, 1] * block[:, 1]
        psi[lo - 1:hi + 2] = 0.0
        psi[lo + 1:hi + 2, 0] = up
        psi[lo - 1:hi, 1] = dn
        lo -= 1
        hi += 1
        lo, hi = _reference_trim_bounds(psi, lo, hi)
        if origin is not None:
            out_p0[t] = abs(psi[origin, 0]) ** 2 + abs(psi[origin, 1]) ** 2
            if out_spinor is not None:
                out_spinor[t] = psi[origin]
    return lo, hi


def reference_shift_then_matrix(psi, lo, hi, mats, site_phase=None):
    """Apply the shift then ``mats[t]``, then the optional per-site phase."""
    for t in range(mats.shape[0]):
        m = mats[t]
        up = psi[lo:hi + 1, 0].copy()
        dn = psi[lo:hi + 1, 1].copy()
        psi[lo - 1:hi + 2] = 0.0
        psi[lo + 1:hi + 2, 0] = up
        psi[lo - 1:hi, 1] = dn
        lo -= 1
        hi += 1
        block = psi[lo:hi + 1]
        new_up = m[0, 0] * block[:, 0] + m[0, 1] * block[:, 1]
        new_dn = m[1, 0] * block[:, 0] + m[1, 1] * block[:, 1]
        if site_phase is not None:
            ph = site_phase[lo:hi + 1]
            new_up *= ph
            new_dn *= ph
        block[:, 0] = new_up
        block[:, 1] = new_dn
        lo, hi = _reference_trim_bounds(psi, lo, hi)
    return lo, hi


def max_diff(state: WalkState, reference: Amplitudes) -> float:
    mine = state_to_dict(state)
    keys = set(mine) | set(reference)
    return max((abs(mine.get(key, 0j) - reference.get(key, 0j)) for key in keys),
               default=0.0)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def random_su2(rng: np.random.Generator) -> tuple[complex, complex]:
    """Uniform-ish SU(2) coin entries (a, b) with |a|^2 + |b|^2 = 1."""
    vec = rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    return complex(vec[0], vec[1]), complex(vec[2], vec[3])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(20260816)))


# ---------------------------------------------------------------------------
# reference record writer: the buffered csv.writer / json.dumps serializers
# the CLI used before it streamed its rows
# ---------------------------------------------------------------------------

def _format_cell(value):
    # exact-type fast paths for the common cells; bool is a subclass of int
    if type(value) is float:
        return repr(value)
    if type(value) is int:
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def reference_write_record(record: dict, out_path: str, fmt: str) -> None:
    """Write ``record`` (experiment, metadata, columns, rows) as one buffered payload."""
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# qpwalk-csv v1\n")
        for key in sorted(record["metadata"]):
            buf.write(f"# {key}={record['metadata'][key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record["columns"])
        for row in record["rows"]:
            writer.writerow([_format_cell(cell) for cell in row])
        payload = buf.getvalue()
    elif fmt == "json":
        doc = {"schema": "qpwalk-json/1",
               "experiment": record["experiment"],
               "metadata": record["metadata"],
               "columns": record["columns"],
               "rows": [list(row) for row in record["rows"]]}
        payload = json.dumps(doc, sort_keys=True, default=_json_default) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path == "-":
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)


# ---------------------------------------------------------------------------
# acceptance summary: one pass/fail line per criterion at the end of the run
# ---------------------------------------------------------------------------

_ACCEPTANCE_RESULTS: list[tuple[str, str, float]] = []


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion"):
        return
    _ACCEPTANCE_RESULTS.append((name, report.outcome.upper(), report.duration))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, outcome, duration in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"  {outcome:6s} {duration:7.2f}s  {name}")
