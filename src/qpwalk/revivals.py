"""Operator-norm revival deviations of the regrouped walk, measured and in closed form.

A revival at time T means the T-step product W^{[T,1]} is norm-close to a
global phase c*I (c = +1 or -1 here, since the blocks are special-unitary up
to sign at the candidate times). The deviation is measured exactly in momentum
space: the walk is translation invariant at every t, so

    || W^{[T,1]} - c*I || = sup_k || W^{[T,1]}(k) - c*I ||

with 2x2 blocks. These are SU(2), so U - c*I = [[p - c, q], [-conj(q), conj(p) - c]]
is a multiple of a unitary: its norm is its Frobenius norm over sqrt(2), with
no SVD. One k-grid scan gives the curves for c = +1 and c = -1 together, and
each maximum is sharpened by zooming in (see ``revival_deviation``). One
search (``_deviation_search``) measures every report of a call: the grid
scan runs per report, and each zoom round composes all reports' brackets in
one pass (``revival_reports``). A single report is the one-problem case.

At a rational field 2*pi*n/m the deviation has a closed form in a~(k) alone
(``_exact_deviations``): with q = m (odd m, T = 2m) or m/2 (even m, T = m)
and c0 = ``expected_sign(m)``, ||W^{[T,1]}(k) - c0*I|| = 2|g(k)| with g =
Im a~^q if 4 divides m, else Re a~^q; the two signs' squared distances sum to
4 at every k, and g has a zero (a~ = u e^(ik) + v e^(-ik) winds around 0 or
passes through it), so the other sign's deviation is 2. Under RX_FIELD: Hadamard
2^(1-m/2) (odd m) or 2^(1-m/4), C = I 0 (4 | m) or 2, C = i*sigma_y 0 (g = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfrac import ContinuedFraction
from .momentum import _alpha_tilde_terms, _compose
from .walk import WalkParams

_SIGNS = np.array([+1, -1])
_ZOOM_POINTS = 17
_SAMPLES_PER_DEGREE = 4  # start points of the closed form's Newton steps, per degree of g
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class RevivalReport:
    """Measured deviation at one candidate revival time.

    ``sign`` is the detected global phase c with W^{[T,1]} closest to c*I;
    ``exact_deviation`` is the closed form of ``measured_deviation``, the
    smaller of ``_exact_deviations``' pair.
    """

    m: int
    parity: str
    revival_time: int
    measured_deviation: float
    exact_deviation: float
    sign: int

    def __post_init__(self):
        if self.m < 1 or self.revival_time < 1:
            raise ValueError("m and revival_time must be positive")
        if self.parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        if not 0.0 <= self.measured_deviation <= 2.0 + 1e-9:
            raise ValueError("operator-norm deviation from a phase must lie in [0, 2]")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")


def _phase_distance(blocks: np.ndarray, sign) -> np.ndarray:
    """||U - sign*I|| for each SU(2) block U of a stack; ``sign`` broadcasts.

    Taken from the entries: sqrt(2 - c*tr U) is the same number but loses half
    the digits near a perfect revival.
    """
    diag = np.abs(blocks[..., 0, 0] - sign) ** 2 + np.abs(blocks[..., 1, 1] - sign) ** 2
    off = np.abs(blocks[..., 0, 1]) ** 2 + np.abs(blocks[..., 1, 0]) ** 2
    return np.sqrt((diag + off) / 2.0)


def _signed_deviations(params: WalkParams, steps: int, grid: int) -> np.ndarray:
    """sup_k || W^{[steps,1]}(k) - c*I || for c = +1, -1: ``_deviation_search`` of one problem."""
    return _deviation_search([(params, steps)], grid)[0]


def _deviation_search(problems, grid: int) -> np.ndarray:
    """(c = +1, c = -1) deviations, shape (P, 2), of every (params, steps) problem.

    Per problem, one scan of ``grid`` momenta gives both curves; each curve's
    bracket (the neighbours of its best sample) is re-sampled at _ZOOM_POINTS
    momenta and narrowed around the best of them until it is below 1e-8 wide.
    Each problem's step matrices are built once, and the grid's exp(i*k) once
    per call. The grid pass runs one problem at a time, which keeps its
    temporaries at one grid's size. Every problem runs the same zoom rounds,
    so each round composes all problems' brackets in one ``_compose`` pass,
    longest problem first; each sign is scored on its own bracket. Rows come
    back in input order. The problems
    must share one step order (``WalkParams.matrix_before_shift``).
    """
    problems = list(problems)
    if any(steps < 1 for _, steps in problems):
        raise ValueError("steps must be positive")
    if len({params.matrix_before_shift for params, _ in problems}) > 1:
        raise ValueError("problems must share one step order (time rule)")
    if not problems:
        return np.empty((0, len(_SIGNS)))
    before = problems[0][0].matrix_before_shift
    order = sorted(range(len(problems)), key=lambda i: -problems[i][1])
    lengths = [problems[i][1] for i in order]
    # column p holds the p-th longest problem's step matrices; steps past its end are never read
    mats = np.zeros((lengths[0], 2, 2, len(problems)), dtype=complex)
    for p, i in enumerate(order):
        mats[:lengths[p], :, :, p] = problems[i][0].step_matrices(1, lengths[p])
    ragged = [mats[t, :, :, :sum(steps > t for steps in lengths)]
              for t in range(lengths[0])]
    ks = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    phases = np.exp(1j * ks)[None]
    centers = np.empty((len(problems), len(_SIGNS)))
    best = np.empty_like(centers)
    probs, rows = np.arange(len(problems))[:, None], np.arange(len(_SIGNS))
    for p, steps in enumerate(lengths):
        curves = _phase_distance(_compose(phases, mats[:steps, :, :, p:p + 1], before)[0],
                                 _SIGNS[:, None])
        peak = np.argmax(curves, axis=1)
        centers[p], best[p] = ks[peak], curves[rows, peak]
        del curves  # freed before the next problem's grid pass, not after it
    half = 2.0 * math.pi / grid
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    while 2.0 * half > 1e-8:
        # (P, sign, point): sign c's bracket around its own center
        zoom = centers[:, :, None] + half * offsets
        values = _phase_distance(_compose(np.exp(1j * zoom), ragged, before), _SIGNS[:, None])
        peak = np.argmax(values, axis=2)
        centers = zoom[probs, rows, peak]
        best = np.maximum(best, values[probs, rows, peak])
        half *= 2.0 / (_ZOOM_POINTS - 1)
    result = np.empty_like(best)
    result[order] = best
    return result


def revival_deviation(params: WalkParams, steps: int, target_sign: int,
                      grid: int = 1024) -> float:
    """sup_k || W^{[steps,1]}(k) - target_sign*I || over k in [0, 2*pi).

    A uniform grid (default 1024 points), then zoom refinement of the maximum
    to a k-bracket below 1e-8; never below the best grid sample.
    """
    if target_sign not in (+1, -1):
        raise ValueError("target_sign must be +1 or -1")
    dev_plus, dev_minus = _signed_deviations(params, steps, grid)
    return float(dev_plus if target_sign == +1 else dev_minus)


def _closest_phase(deviations) -> tuple[int, float]:
    """(c, deviation) for the phase c in {+1, -1} of the smaller of (dev_plus, dev_minus); ties give +1."""
    dev_plus, dev_minus = (float(d) for d in deviations)
    return (+1, dev_plus) if dev_plus <= dev_minus else (-1, dev_minus)


def expected_sign(m: int) -> int:
    """Theoretical revival phase: -1 for odd m (at 2m), (-1)^(m/2+1) for even m (at m)."""
    return +1 if m % 4 == 2 else -1


def revival_time(m: int) -> int:
    """Candidate revival time: 2m for odd m, m for even m."""
    return 2 * m if m % 2 == 1 else m


def revival_reports(problems, grid: int = 1024) -> list[RevivalReport]:
    """The ``RevivalReport`` at the candidate time of every (params, m) problem, in input order.

    The sign is auto-detected (deviation-minimizing) so a convention mismatch
    shows up as data; for clean revivals it coincides with ``expected_sign``.
    The deviations come from one ``_deviation_search``, so the problems share
    their zoom rounds; each report's bits are those of a call with it alone.
    One ``_exact_deviations`` gives the exact deviations.
    """
    problems = list(problems)
    deviations = _deviation_search(
        [(params, revival_time(m)) for params, m in problems], grid)
    reports = []
    for (params, m), signed, pair in zip(problems, deviations, _exact_deviations(problems)):
        sign, dev = _closest_phase(signed)
        reports.append(RevivalReport(m=m, parity="odd" if m % 2 == 1 else "even",
                                     revival_time=revival_time(m), measured_deviation=dev,
                                     exact_deviation=float(pair.min()), sign=sign))
    return reports


def _exact_deviations(problems) -> np.ndarray:
    """(c = +1, c = -1) deviations, shape (P, 2), at the revival time of every (params, m).

    The module's closed form reads the coin, time rule and m, not the field (at
    an irrational field, the walk at the convergent n/m). g = Re(turn a~^q) has
    degree q; _NEWTON_STEPS Newton steps on g' = 0, none longer than a spacing,
    start from _SAMPLES_PER_DEGREE * (q + 1) equally spaced momenta; sup|g| runs
    over all momenta visited.
    """
    rows = [(m if m % 2 == 1 else m // 2, expected_sign(m), -1j if m % 4 == 0 else 1.0)
            + _alpha_tilde_terms(params) for params, m in problems]
    if not rows:
        return np.empty((0, len(_SIGNS)))
    q, c0, turn, u, v = (np.array(column) for column in zip(*rows))
    counts = _SAMPLES_PER_DEGREE * (q + 1)
    starts = np.cumsum(counts) - counts
    # problem p's momenta are k[starts[p]:starts[p] + counts[p]]
    owner = np.repeat(np.arange(len(rows)), counts)
    spacing = (2.0 * math.pi / counts)[owner]
    k = (np.arange(counts.sum()) - starts[owner]) * spacing
    u, v, turn, q = u[owner], v[owner], turn[owner], q[owner]
    low, last, bend = np.maximum(q - 2, 0), q > 1, turn * (q - 1)
    samples = np.empty((_NEWTON_STEPS + 1, k.size))
    for step in range(_NEWTON_STEPS + 1):
        phase = np.exp(1j * k)
        uz, vz = u * phase, v * phase.conj()
        at = uz + vz
        lower = at ** low  # a~^(q-2), or 1 when q = 1
        upper = turn * lower * np.where(last, at, 1.0)  # turn * a~^(q-1)
        samples[step] = g = (upper * at).real
        if step == _NEWTON_STEPS:
            break
        # with a~' = i*w and a~'' = -a~: g'/q = -Im(upper * w) and
        # g''/q = -Re(turn * (q-1) a~^(q-2) w^2) - g; steps past one spacing are not taken
        w = uz - vz
        slope = (upper * w).imag
        curve = (bend * lower * w * w).real + g
        newton = np.abs(slope) < spacing * np.abs(curve)
        k = k - np.divide(slope, curve, out=np.zeros_like(slope), where=newton)
    sup = np.maximum.reduceat(np.abs(samples).max(axis=0), starts)
    return np.where(c0[:, None] == _SIGNS, 2.0 * sup[:, None], 2.0)


def irrational_revival_bound(cf: ContinuedFraction, k_index: int) -> tuple[int, float]:
    """Predicted revival time and leading bound from the k-th convergent.

    For convergent denominator d_k: time 2*d_k with bound 4*pi/c_{k+1} when
    d_k is odd, time d_k with bound pi/c_{k+1} when d_k is even. ``k_index``
    is 1-based and must leave c_{k+1} available. The bound carries an
    unquantified O(1/d_k) remainder; callers compare measured deviations
    against the leading term plus that allowance.
    """
    depth = cf.depth()
    if not 1 <= k_index <= depth - 1:
        raise ValueError("k_index must satisfy 1 <= k_index <= depth-1")
    conv = cf.convergents[k_index - 1]
    c_next = cf.coefficients[k_index]
    d_k = conv.denominator
    if d_k % 2 == 1:
        return 2 * d_k, 4.0 * math.pi / c_next
    return d_k, math.pi / c_next
