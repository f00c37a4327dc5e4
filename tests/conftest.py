"""Shared fixtures and independent reference implementations.

The reference evolutions here are deliberately written with dictionaries and
explicit loops — no shared code with the array kernels — so agreement between
the two is meaningful evidence of correctness. The single-walk helpers and
spin constants in their own section are not independent: they call the
package one walk, step or state at a time, and tests compare its batched
forms with them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from math import gcd

import numpy as np
import pytest

from qpwalk.momentum import trace_formula
from qpwalk.noise import NoiseConfig
from qpwalk.revivals import _closest_phase, _signed_deviations
from qpwalk.spinops import rotation_x
from qpwalk.walk import WalkParams, WalkState, evolve, occupied_sites

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


def run_padded(state: WalkState, steps: int, run) -> WalkState:
    """Copy the state into a zero-padded buffer, run a reference kernel on it, cut the window.

    The padding leaves room for ``steps`` steps of growth on each side.
    ``run(buf, lo, hi, offset)`` advances the buffer in place and returns the
    new inclusive bounds; buffer index i holds site i - offset.
    """
    width = state.amplitudes.shape[0]
    pad = steps + 2
    buf = np.zeros((width + 2 * pad, 2), dtype=complex)
    buf[pad:pad + width] = state.amplitudes
    offset = pad - state.x_min
    lo, hi = run(buf, pad, pad + width - 1, offset)
    return WalkState(x_min=lo - offset, amplitudes=buf[lo:hi + 1])


def reference_track_origin(start: WalkState, t_max: int, params: WalkParams,
                           field_values=None):
    """One walk through ``reference_matrix_then_shift``, probed at x = 0.

    Returns the final state, p0 of length t_max + 1 (numpy-scalar formula)
    and the (t_max, 2) origin spinors; both read zero when the origin lies
    out of the walk's reach.
    """
    mats = params.step_matrices(1, t_max, field_values=field_values)
    p0 = np.zeros(t_max + 1)
    p0[0] = abs(start.spinor(0)[0]) ** 2 + abs(start.spinor(0)[1]) ** 2
    spinors = np.zeros((t_max, 2), dtype=complex)

    def run(buf, lo, hi, offset):
        if 0 <= offset < buf.shape[0]:
            return reference_matrix_then_shift(buf, lo, hi, mats, offset, p0[1:], spinors)
        return reference_matrix_then_shift(buf, lo, hi, mats)

    return run_padded(start, t_max, run), p0, spinors


def reference_regrouped_block(k, params: WalkParams, m: int, t_from: int = 1) -> np.ndarray:
    """The block composition as it was with the 2x2 axes last, k.shape + (2, 2) throughout.

    Each product broadcasts over inner axes of length 2; ``_compose`` works
    entry by entry on contiguous arrays instead and must give the same bits.
    """
    phase = np.exp(1j * np.asarray(k, dtype=float))
    shift = np.stack([phase, phase.conj()], axis=-1)[..., None]
    if not params.matrix_before_shift:
        shift = np.swapaxes(shift, -1, -2)
    out = np.broadcast_to(np.eye(2, dtype=complex), phase.shape + (2, 2))
    for mat in params.step_matrices(t_from, t_from + m - 1):
        block = shift * mat
        out = block[..., :, :1] * out[..., :1, :] + block[..., :, 1:] * out[..., 1:, :]
    return out


def reference_signed_deviations(params: WalkParams, steps: int, grid: int) -> np.ndarray:
    """The per-report deviation search: every round through the reference block,
    which builds the step matrices afresh."""
    from qpwalk.revivals import _SIGNS, _ZOOM_POINTS, _phase_distance

    ks = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    curves = _phase_distance(reference_regrouped_block(ks, params, steps), _SIGNS[:, None])
    rows = np.arange(len(_SIGNS))
    peak = np.argmax(curves, axis=1)
    centers, best = ks[peak], curves[rows, peak]
    half = 2.0 * math.pi / grid
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    while 2.0 * half > 1e-8:
        zoom = centers[:, None] + half * offsets
        values = _phase_distance(reference_regrouped_block(zoom, params, steps),
                                 _SIGNS[:, None])
        peak = np.argmax(values, axis=1)
        centers = zoom[rows, peak]
        best = np.maximum(best, values[rows, peak])
        half *= 2.0 / (_ZOOM_POINTS - 1)
    return best


def reference_closest_phase(params: WalkParams, steps: int, grid: int = 1024) -> tuple[int, float]:
    """A report's (sign, measured_deviation) from the per-report search; ties give +1."""
    plus, minus = (float(d) for d in reference_signed_deviations(params, steps, grid))
    return (+1, plus) if plus <= minus else (-1, minus)


def reference_rx_step_matrices(params: WalkParams, t_from: int, t_to: int,
                               field_values=None) -> np.ndarray:
    """The RX_FIELD step matrices built as the stacked ``spin @ coin``: one matmul per 2x2 matrix.

    ``WalkParams.step_matrices`` builds the same stack with GEMMs over its
    rows and must give the same bits.
    """
    times = range(t_from, t_to + 1)
    if field_values is None:
        angles = np.array([params.field.angle(t) for t in times], dtype=float)
    else:
        field_values = np.asarray(field_values, dtype=float)
        times = np.array(times).reshape((-1,) + (1,) * (field_values.ndim - 1))
        angles = np.fmod(times * field_values, 2.0 * np.pi)
    spin = np.zeros(angles.shape + (2, 2), dtype=complex)
    spin[..., 0, 0] = spin[..., 1, 1] = np.cos(angles)
    spin[..., 0, 1] = spin[..., 1, 0] = 1j * np.sin(angles)
    return spin @ params.coin


def reference_spin_product(m, u, d, u_out, d_out, x, y, phase=None):
    """(u_out, d_out) <- m @ (u, d) site by site, then times ``phase`` if given.

    The six ufunc calls of a kernel step, with the matrix entries m00, m01,
    m10, m11 unpacked from ``m`` (numpy scalars for one walk); ``x`` and
    ``y`` are scratch. The kernels read the entries as 0-d views and
    multiply in place instead, and must give the same bits.
    """
    n = u.shape[0]
    x, y = x[:n], y[:n]
    m00, m01, m10, m11 = m
    np.multiply(m00, u, out=x)
    np.multiply(m10, u, out=y)
    np.multiply(m01, d, out=u_out)
    np.add(x, u_out, out=u_out)
    np.multiply(m11, d, out=x)
    np.add(y, x, out=d_out)
    if phase is not None:
        np.multiply(u_out, phase, out=u_out)
        np.multiply(d_out, phase, out=d_out)


def reference_cyclic_trace(mat: np.ndarray, rot: np.ndarray, m: int) -> complex:
    """tr(M R^0 M R^1 ... M R^(m-1)) as a loop of single 2x2 matmuls."""
    prod = np.eye(2, dtype=complex)
    power = np.eye(2, dtype=complex)
    for _ in range(m):
        prod = prod @ (mat @ power)
        power = power @ rot
    return complex(np.trace(prod))


def reference_trace_check(trials: int, seed: int, tol: float):
    """``trace-check``'s rows, worst residual and exit code, one trial at a time.

    Each trial calls ``trace_formula`` and ``reference_cyclic_trace`` on its
    own; ``cli.run_trace_check`` groups the trials by m and stacks them, each
    with its own rotation, and must give the same bits.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows = []
    for trial in range(trials):
        m = int(rng.integers(1, 13))
        coprime = [n for n in range(1, m + 1) if gcd(n, m) == 1]
        n = int(coprime[rng.integers(0, len(coprime))])
        mat = (rng.uniform(-1.0, 1.0, (2, 2))
               + 1j * rng.uniform(-1.0, 1.0, (2, 2))) / math.sqrt(2.0)
        rot = rotation_x(2.0 * math.pi * n / m)
        direct = reference_cyclic_trace(mat, rot, m)
        residual = float(abs(trace_formula(mat, rot, m) - direct))
        rows.append((trial, m, n, residual, residual <= tol))
    worst = max(row[3] for row in rows)
    return rows, worst, 0 if all(row[4] for row in rows) else 3


def bits(array) -> np.ndarray:
    """The raw float bits of a complex array, for equality that tells -0.0 from 0.0."""
    return np.ascontiguousarray(array).view(np.uint64)


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


def nan_in_electric_evolve(monkeypatch, call: int) -> None:
    """Make the ``call``-th (from 0) ``gauge.electric_evolve`` return a NaN state."""
    from qpwalk import gauge

    evolve = gauge.electric_evolve
    calls = []

    def evolve_then_nan(state, steps, phi, coin):
        out = evolve(state, steps, phi, coin)
        if len(calls) == call:
            out.amplitudes[:] = np.nan
        calls.append(phi)
        return out

    monkeypatch.setattr(gauge, "electric_evolve", evolve_then_nan)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(20260816)))


# ---------------------------------------------------------------------------
# single-walk helpers and spin constants
# ---------------------------------------------------------------------------

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Eigenbasis of sigma_x, which diagonalizes every x-rotation at once.
HADAMARD_BASIS = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def operator_norm_2x2(m: np.ndarray) -> float:
    """Largest singular value of a 2x2 complex matrix (the SVD reference for
    ``revivals._phase_distance``)."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


def position_distribution(state: WalkState) -> dict[int, float]:
    """Map x -> total probability at x, omitting exactly-zero sites."""
    return dict(zip(*occupied_sites(state)))


def return_probability(state: WalkState) -> float:
    """Total probability at the origin x = 0."""
    sp = state.spinor(0)
    return float(abs(sp[0]) ** 2 + abs(sp[1]) ** 2)


def noisy_evolve(state: WalkState, t: int, params: WalkParams,
                 noise: NoiseConfig, trajectory: int = 0) -> WalkState:
    """Evolve through steps 1..t with fluctuated fields (one trajectory, full run).

    epsilon = 0 reproduces the clean ``evolve`` bit for bit, because the exact
    field path is used instead of a float override.
    """
    if noise.epsilon == 0.0:
        return evolve(state, 1, t, params)
    fields = noise.draw_fields(params.field.value, t, trajectory)
    return evolve(state, 1, t, params, field_values=fields)


def detect_sign(params: WalkParams, steps: int, grid: int = 256) -> int:
    """The phase c in {+1, -1} minimizing the measured deviation at ``steps``."""
    return _closest_phase(_signed_deviations(params, steps, grid))[0]


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
