"""Operator-norm revival deviations of the regrouped walk, with exact special cases.

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

Exact values for the balanced (Hadamard-class) coin under the RX_FIELD rule
with field 2*pi/m, derived from the dispersion relation and verified
numerically to machine precision:

- m odd, T = 2m, c = -1: deviation = 2^(-m/2+1) exactly.
- m even, T = m, c = (-1)^(m/2+1): deviation = 2^(-m/4+1) exactly. The trace
  formula gives cos(omega) = c*(1 - 2^(-m/2)) - 2^(-m/2)*cos(m*k), so the
  trace deficit sup_k(1 - c*cos(omega)) is 2^(-m/2+1) at T = m, but the
  operator norm feels its square root: |e^(i*omega) - c| = sqrt(2*deficit).

Identity-coin and i*sigma_y-coin special cases (exact):

- C = I, m odd, T = 2m: deviation 2 (no revival).
- C = I, m even: the deviation at T = m is exactly 0 when m = 0 (mod 4) and
  exactly 2 when m = 2 (mod 4). At m = 2, R_x(pi) = -I and R_x(2*pi) = I make
  W^{[2,1]} = -S^2, a pure shift power; at m = 6, 10, ... the walk spreads
  instead, and the deviation 2 comes from the blocks -I at k = 0 and +I at
  k = pi/2, which put both signed identities at distance 2.
- C = i*sigma_y: deviation 0 at T = 2m (m odd) and T = m (m even); here
  |a~| = |sin k| is not small, but the phase factor cos(m*theta) vanishes
  identically, making every revival perfect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfrac import ContinuedFraction
from .momentum import _compose, alpha_tilde_sup
from .walk import Field, TimeRule, WalkParams

_SIGNS = np.array([+1, -1])
_ZOOM_POINTS = 17


@dataclass(frozen=True)
class RevivalReport:
    """Measured deviation at one candidate revival time.

    ``sign`` is the detected global phase c with W^{[T,1]} closest to c*I;
    ``predicted_scale`` is 2*sup_k|a~|^m, the crude scale suggested by the
    trace analysis (vacuous at 2 when sup|a~| = 1).
    """

    m: int
    parity: str
    revival_time: int
    measured_deviation: float
    predicted_scale: float
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
    Each problem's step matrices are built once. The grid pass runs one
    problem at a time, which keeps its temporaries at one grid's size. Every
    problem runs the same zoom rounds, so each round composes all problems'
    brackets in one ``_compose`` pass, longest problem first; each sign is
    scored on its own bracket. Rows come back in input order. The problems
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
    centers = np.empty((len(problems), len(_SIGNS)))
    best = np.empty_like(centers)
    probs, rows = np.arange(len(problems))[:, None], np.arange(len(_SIGNS))
    for p, steps in enumerate(lengths):
        curves = _phase_distance(_compose(ks[None], mats[:steps, :, :, p:p + 1], before)[0],
                                 _SIGNS[:, None])
        peak = np.argmax(curves, axis=1)
        centers[p], best[p] = ks[peak], curves[rows, peak]
        del curves  # freed before the next problem's grid pass, not after it
    half = 2.0 * math.pi / grid
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    while 2.0 * half > 1e-8:
        # (P, sign, point): sign c's bracket around its own center
        zoom = centers[:, :, None] + half * offsets
        values = _phase_distance(_compose(zoom, ragged, before), _SIGNS[:, None])
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
    if m % 2 == 1:
        return -1
    return +1 if (m // 2 + 1) % 2 == 0 else -1


def revival_time(m: int) -> int:
    """Candidate revival time: 2m for odd m, m for even m."""
    return 2 * m if m % 2 == 1 else m


def revival_reports(problems, grid: int = 1024) -> list[RevivalReport]:
    """The ``RevivalReport`` at the candidate time of every (params, m) problem, in input order.

    The sign is auto-detected (deviation-minimizing) so a convention mismatch
    shows up as data; for clean revivals it coincides with ``expected_sign``.
    The deviations come from one ``_deviation_search``, so the problems share
    their zoom rounds; each report's bits are those of a call with it alone.
    """
    problems = list(problems)
    deviations = _deviation_search(
        [(params, revival_time(m)) for params, m in problems], grid)
    reports = []
    for (params, m), signed in zip(problems, deviations):
        sign, dev = _closest_phase(signed)
        scale = 2.0 * alpha_tilde_sup(params.coin_a, params.coin_b) ** m
        parity = "odd" if m % 2 == 1 else "even"
        reports.append(RevivalReport(m=m, parity=parity, revival_time=revival_time(m),
                                     measured_deviation=dev, predicted_scale=scale,
                                     sign=sign))
    return reports


def appendix_expected(coin_name: str, m: int) -> float:
    """Exact deviation at the candidate revival time for the two special coins.

    identity coin: 2 for odd m; for even m, 0 when m = 0 (mod 4) and 2 when
    m = 2 (mod 4), where the block is -I at k = 0 and +I at k = pi/2 (a pure
    shift power, -S^2, only at m = 2).
    i-sigma-y coin: 0 for every m.
    """
    if coin_name == "identity":
        if m % 2 == 1:
            return 2.0
        return 0.0 if m % 4 == 0 else 2.0
    if coin_name == "i-sigma-y":
        return 0.0
    raise ValueError("coin_name must be 'identity' or 'i-sigma-y'")


def appendix_table(field_denominators, coins=("identity", "i-sigma-y"),
                   field_numerator: int = 1):
    """RevivalReports plus exact expectations for the special coins.

    Returns a list of (coin_name, RevivalReport, expected_deviation) rows over
    the given m values.
    """
    coin_entries = {"identity": (1.0, 0.0), "i-sigma-y": (0.0, 1.0)}
    cases = [(name, m) for name in coins for m in field_denominators]
    reports = revival_reports(
        (WalkParams(field=Field.rational(field_numerator, m), coin_a=coin_entries[name][0],
                    coin_b=coin_entries[name][1], time_rule=TimeRule.RX_FIELD), m)
        for name, m in cases)
    return [(name, report, appendix_expected(name, m))
            for (name, m), report in zip(cases, reports)]


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
