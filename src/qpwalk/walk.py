"""State-vector evolution of a 1D coined quantum walk with a time-dependent coin.

The single step at time t is a spin operation followed by the spin-conditioned
shift S|x,s> = |x+s,s>. Two step layouts are supported, selected by
``TimeRule``:

- ``RX_FIELD``: W(t) = S * rotation_x(t*phi) * C. The x-rotation prefactor
  advances by the field angle phi each step, so the walk is quasi-periodic in
  time; for phi = 2*pi*n/m the step operator has exact period m.
- ``GAUGED_SZ``: W(t) = C * exp(-i*phi*(t-1)*sigma_z) * S. The spin operation
  acts after the shift; this is the translation-invariant form of an electric
  walk (a static walk followed by a linear position-dependent phase) after a
  gauge transformation, see the gauge module.

States are stored as a dense complex window: a contiguous array of per-site
spinors together with the leftmost site index. The window grows by at most one
site on each side per step and every amplitude outside it is exactly zero;
boundary sites whose amplitudes fall below the kernels' trim threshold
(1e-200, see ``_kernels``) are dropped so that localized states keep a compact
window instead of accumulating subnormal tails.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import _kernels
from .spinops import make_coin

TWO_PI = 2.0 * math.pi

# steps whose matrices the origin probe of an ensemble builds at a time, for
# all walks in one step_matrices call, which holds one (steps, E, 2, 2) array
ENSEMBLE_MATRIX_BLOCK = 32

# rows of an RX_FIELD stack that step_matrices multiplies by the coin per
# GEMM call. OpenBLAS runs a GEMM of more than 65536 multiply-adds (16384
# rows of two columns) on several threads, which for two columns is slower
# than one thread and leaves its workers spinning beside the kernels.
STEP_GEMM_ROWS = 8192

# stacks shorter than this take Field.angle step by step in Field.angles:
# the array path's fixed cost of a few microseconds buys back its per-step
# saving only from about this many steps on
ANGLE_ARRAY_STEPS = 16


class TimeRule(enum.Enum):
    """Which time-dependent spin operation the walk uses (see module docstring)."""

    RX_FIELD = "rx-field"
    GAUGED_SZ = "gauged-sz"


@dataclass(frozen=True)
class Field:
    """The field angle phi in radians, with exact bookkeeping for rational multiples of 2*pi.

    For ``Field.rational(n, m)`` the value is 2*pi*n/m and the reduced integer
    pair is kept, so periodic quantities (the prefactor angle t*phi mod 2*pi)
    are computed with exact integer arithmetic and are bit-identical across
    periods. Other constructors store only the float value.
    """

    value: float
    numerator: int | None = None
    denominator: int | None = None
    label: str = ""

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"field value must be finite, got {self.value!r}")

    @classmethod
    def rational(cls, numerator: int, denominator: int) -> "Field":
        """Field phi = 2*pi*numerator/denominator, reduced to lowest terms."""
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        g = gcd(numerator, denominator)
        if g:
            numerator //= g
            denominator //= g
        value = TWO_PI * numerator / denominator
        return cls(value=value, numerator=numerator, denominator=denominator,
                   label=f"{numerator}/{denominator}")

    @classmethod
    def golden(cls) -> "Field":
        """Field phi = 2*pi*(sqrt(5)-1)/2, the inverse golden ratio turn."""
        return cls(value=TWO_PI * (math.sqrt(5.0) - 1.0) / 2.0, label="golden")

    @classmethod
    def from_turns(cls, turns: float) -> "Field":
        """Field phi = 2*pi*turns for an arbitrary real number of turns."""
        return cls(value=TWO_PI * float(turns), label=repr(float(turns)))

    @classmethod
    def from_radians(cls, radians: float) -> "Field":
        return cls(value=float(radians), label=f"{float(radians)!r} rad")

    @property
    def is_rational(self) -> bool:
        return self.numerator is not None

    def angle(self, multiple: int) -> float:
        """multiple*phi reduced mod 2*pi; exact (integer-reduced) in the rational case."""
        if self.numerator is not None:  # rational, without the property's call per step
            residue = (multiple * self.numerator) % self.denominator
            return TWO_PI * residue / self.denominator
        try:
            return math.fmod(multiple * self.value, TWO_PI)
        except ValueError:  # multiple * value overflowed to inf
            label = self.label or repr(self.value)
            raise ValueError(f"field {label}: the step angle {multiple}*phi overflows a float"
                             ) from None

    def angles(self, first: int, last: int) -> np.ndarray:
        """``angle(t)`` for t = first..last as a float array, with the bits of ``angle``.

        Stacks of ``ANGLE_ARRAY_STEPS`` or more take array arithmetic while
        int64 holds it: residues t*n mod m while every |t*n| < 2**62 for a
        rational field, and fmod(t*phi, 2*pi) for a float field. Every other
        stack takes ``angle`` step by step, which also raises its overflow
        error at the first step whose t*phi overflows.
        """
        steps = range(first, last + 1)
        # reach, the largest |t| of the stack, bounds every int64 value below
        if len(steps) >= ANGLE_ARRAY_STEPS and (reach := max(-first, last)) < 2 ** 62:
            ts = np.arange(first, last + 1, dtype=np.int64)
            if self.is_rational:
                if reach * abs(self.numerator) < 2 ** 62 and self.denominator < 2 ** 62:
                    return TWO_PI * (ts * self.numerator % self.denominator) / self.denominator
            elif math.isfinite(reach * self.value):  # so is every t*phi of the stack
                return np.fmod(ts * self.value, TWO_PI)
        return np.fromiter(map(self.angle, steps), float, len(steps))


@dataclass(frozen=True)
class WalkParams:
    """Field, coin entries, and the time rule; together they define W(t)."""

    field: Field
    coin_a: complex
    coin_b: complex
    time_rule: TimeRule = TimeRule.RX_FIELD

    def __post_init__(self):
        if not isinstance(self.time_rule, TimeRule):
            raise ValueError(f"time_rule must be a TimeRule, got {self.time_rule!r}")
        object.__setattr__(self, "_coin", make_coin(self.coin_a, self.coin_b))

    @property
    def coin(self) -> np.ndarray:
        return self._coin.copy()

    @property
    def matrix_before_shift(self) -> bool:
        """True when the step applies its spin matrix before the shift."""
        return self.time_rule is TimeRule.RX_FIELD

    def step_matrices(self, t_from: int, t_to: int,
                      field_values=None) -> np.ndarray:
        """Stacked step matrices for t = t_from..t_to inclusive, shape (T, 2, 2).

        The exact field's angles come from ``Field.angles``.
        ``field_values`` overrides the exact field (noisy evolution): one
        angle per step, or an array of shape (T, E) for E walks at once,
        which gives shape (T, E, 2, 2) with the bits of E separate calls.

        ``RX_FIELD`` multiplies the rotations by the coin on the right, so
        a stack of N matrices is a (2N, 2) @ (2, 2) product: one BLAS GEMM
        per ``STEP_GEMM_ROWS`` rows, in place, instead of one call per 2x2
        matrix, with the bits of the stacked ``spin @ coin``. ``GAUGED_SZ``
        has the coin on the left and keeps the stacked ``coin @ spin``: its
        one-GEMM form, the coin times a (2, 2N) column block, rounds
        differently for different stack lengths, so a chunked run would no
        longer match a single call.
        """
        before = self.matrix_before_shift
        lag = 0 if before else 1
        if field_values is None:
            angles = self.field.angles(t_from - lag, t_to - lag)
        else:
            multiples = range(t_from - lag, t_to + 1 - lag)
            field_values = np.asarray(field_values, dtype=float)
            if field_values.ndim not in (1, 2) or field_values.shape[0] != len(multiples):
                raise ValueError("field_values must supply one angle per step")
            times = np.array(multiples).reshape((-1,) + (1,) * (field_values.ndim - 1))
            with np.errstate(over="ignore", invalid="ignore"):
                angles = np.fmod(times * field_values, TWO_PI)
            if not np.isfinite(angles).all():
                raise ValueError("step angles t*phi_t must be finite")
        if before:
            spin = np.empty(angles.shape + (2, 2), dtype=complex)  # every entry is written
            spin[..., 0, 0] = spin[..., 1, 1] = np.cos(angles)
            spin[..., 0, 1] = spin[..., 1, 0] = 1j * np.sin(angles)
            rows = spin.reshape(-1, 2)
            for i in range(0, rows.shape[0], STEP_GEMM_ROWS):
                rows[i:i + STEP_GEMM_ROWS] = rows[i:i + STEP_GEMM_ROWS] @ self._coin
            return spin
        spin = np.zeros(angles.shape + (2, 2), dtype=complex)
        spin[..., 0, 0] = np.exp(-1j * angles)
        spin[..., 1, 1] = np.exp(1j * angles)
        return self._coin @ spin


def hadamard_params(field: Field, time_rule: TimeRule = TimeRule.RX_FIELD) -> WalkParams:
    """Balanced coin a = b = 1/sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return WalkParams(field=field, coin_a=r, coin_b=r, time_rule=time_rule)


@dataclass
class WalkState:
    """Spinor amplitudes psi(x, s) on the window x in [x_min, x_min + len - 1].

    ``amplitudes`` has shape (window length, 2); column 0 is spin s = +1
    (shifts right), column 1 is spin s = -1 (shifts left). Amplitudes outside
    the window are identically zero.
    """

    x_min: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[1] != 2:
            raise ValueError("amplitudes must have shape (window, 2)")

    @classmethod
    def single_site(cls, x: int = 0, spinor=(1.0, 0.0)) -> "WalkState":
        """State concentrated at site x with the given (up, down) spinor."""
        amps = np.array([spinor], dtype=complex)
        return cls(x_min=x, amplitudes=amps)

    @property
    def x_max(self) -> int:
        return self.x_min + self.amplitudes.shape[0] - 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.x_min, self.x_max)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, x: int, s: int) -> complex:
        """psi(x, s) with s in {+1, -1}; zero outside the window."""
        if s not in (+1, -1):
            raise ValueError("spin label must be +1 or -1")
        if not (self.x_min <= x <= self.x_max):
            return 0.0 + 0.0j
        return complex(self.amplitudes[x - self.x_min, 0 if s == +1 else 1])

    def spinor(self, x: int) -> np.ndarray:
        """The two-component spinor at site x (zeros outside the window)."""
        if not (self.x_min <= x <= self.x_max):
            return np.zeros(2, dtype=complex)
        return self.amplitudes[x - self.x_min].copy()

    def copy(self) -> "WalkState":
        return WalkState(x_min=self.x_min, amplitudes=self.amplitudes.copy())


def evolve(state: WalkState, t_from: int, t_to: int, params: WalkParams,
           field_values=None) -> WalkState:
    """Apply W(t_to) ... W(t_from) to the state (empty product when t_from > t_to).

    ``field_values``, when given, is a sequence of per-step field angles
    overriding params.field for steps t_from..t_to (noisy evolution).
    """
    if t_from > t_to:
        return state.copy()
    mats = params.step_matrices(t_from, t_to, field_values=field_values)
    lo, _, window = _kernels.steps_window(state.amplitudes, state.x_min, state.x_max, mats,
                                          not params.matrix_before_shift)
    return WalkState(x_min=lo, amplitudes=window)


def spinor_probabilities(ups, downs):
    """|u|^2 + |d|^2 for each spinor, over sequences of Python complex values.

    Python's ``abs`` and ``** 2`` round exactly as numpy's scalar forms do;
    ``np.abs`` on a complex array differs from them in the last ulp, and so
    does numpy's squaring (``x * x``, or ``np.power`` with an array exponent)
    for some values.
    """
    return [abs(u) ** 2 + abs(d) ** 2 for u, d in zip(ups, downs)]


def _origin_reads(state: WalkState, t_max: int, params: WalkParams, field_values):
    """``_kernels.probe_ensemble`` at x = 0, steps 1..t_max (see ``ensemble_tracking_origin``)."""
    if not params.matrix_before_shift:
        raise ValueError("origin tracking is implemented for the RX_FIELD rule")
    if field_values is None:  # one walk on the exact field: one call, as evolve makes
        walks, blocks = 1, [params.step_matrices(1, t_max)[..., None]]
    else:
        field_values = np.asarray(field_values, dtype=float)
        walks = field_values.shape[0]

        def matrix_blocks():
            # a block of steps at a time keeps the matrices' memory independent of t_max
            for t0 in range(0, t_max, ENSEMBLE_MATRIX_BLOCK):
                t1 = min(t0 + ENSEMBLE_MATRIX_BLOCK, t_max)
                yield np.ascontiguousarray(np.moveaxis(params.step_matrices(
                    t0 + 1, t1, field_values=field_values[:, t0:t1].T), 1, -1))

        blocks = matrix_blocks()
    return _kernels.probe_ensemble(state.amplitudes, -state.x_min, t_max, walks, blocks)


def track_origin(state: WalkState, t_max: int, params: WalkParams,
                 field_values=None) -> np.ndarray:
    """The (up, down) spinors at x = 0 after steps 1..t_max, shape (t_max, 2), from the probe.

    Row t-1 is the spinor after step t, zero while the origin lies outside
    the window. ``field_values`` overrides the field, one angle per step. A
    component can differ from a full run's only where it is below about
    1e-178 (see ``_kernels.probe_ensemble``). RX_FIELD rule only.
    """
    spinors = np.zeros((t_max, 2), dtype=complex)
    values = None if field_values is None else [field_values]
    for t, ups, downs in _origin_reads(state, t_max, params, values):
        spinors[t - 1, 0] = ups[0]
        spinors[t - 1, 1] = downs[0]
    return spinors


def ensemble_tracking_origin(state: WalkState, t_max: int, params: WalkParams,
                             field_values=None) -> np.ndarray:
    """Return probabilities at x = 0 after steps 0..t_max, shape (E, t_max+1).

    ``field_values`` is None for one walk (E = 1) on the exact field, or
    holds t_max per-step field values for each of E walks, as an (E, t_max)
    array or E rows. All walks advance together through one origin probe,
    which keeps only the sites that can still reach the origin and so hands
    back no final state. Row e is bit for bit the p0 of walk e's own full
    run. RX_FIELD rule only.
    """
    reads = _origin_reads(state, t_max, params, field_values)
    p0 = np.zeros((1 if field_values is None else len(field_values), t_max + 1))
    p0[:, 0] = spinor_probabilities([state.amplitude(0, +1)], [state.amplitude(0, -1)])
    for t, ups, downs in reads:
        p0[:, t] = spinor_probabilities(ups, downs)
    return p0


def evolve_tracking_origin(state: WalkState, t_max: int, params: WalkParams,
                           field_values=None):
    """Return ``evolve``'s state after steps 1..t_max and the probe's p0, of length t_max+1."""
    values = None if field_values is None else [field_values]
    p0 = ensemble_tracking_origin(state, t_max, params, values)[0]
    return evolve(state, 1, t_max, params, field_values=field_values), p0


def occupied_sites(state: WalkState) -> tuple[list[int], list[float]]:
    """The sites x of nonzero total probability, in order, and those probabilities."""
    probs = np.abs(state.amplitudes[:, 0]) ** 2 + np.abs(state.amplitudes[:, 1]) ** 2
    nonzero = np.flatnonzero(probs > 0.0)
    if abs(state.x_min) < 2 ** 62:  # the sites fit int64
        sites = (nonzero + state.x_min).tolist()
    else:
        sites = [i + state.x_min for i in nonzero.tolist()]
    return sites, probs[nonzero].tolist()


def bloch_vector(state: WalkState, x: int) -> tuple[float, float, float]:
    """(⟨sigma_x⟩, ⟨sigma_y⟩, ⟨sigma_z⟩) of the unnormalized spinor at site x.

    The vector length equals the spinor's squared norm, so sub-unit spinors
    land inside the Bloch ball. Outside the window the result is (0, 0, 0).
    """
    u, d = state.spinor(x).tolist()
    return spinor_bloch_vector(u, d)


def spinor_bloch_vector(u: complex, d: complex) -> tuple[float, float, float]:
    """``bloch_vector`` of the spinor (u, d), given as Python complex values.

    Given numpy complex scalars it returns the same bits, as numpy floats;
    Python values are several times faster.
    """
    cross = u.conjugate() * d
    return 2.0 * cross.real, 2.0 * cross.imag, abs(u) ** 2 - abs(d) ** 2


def support_radius(state: WalkState, mass: float = 0.999) -> int:
    """Smallest radius r with at least ``mass`` of the probability in |x| <= r."""
    if not 0.0 < mass <= 1.0:
        raise ValueError("mass must lie in (0, 1]")
    probs = np.abs(state.amplitudes[:, 0]) ** 2 + np.abs(state.amplitudes[:, 1]) ** 2
    total = probs.sum()
    xs = np.abs(np.arange(state.x_min, state.x_max + 1))
    order = np.argsort(xs, kind="stable")
    acc = 0.0
    target = mass * total
    radius = 0
    for i in order:
        acc += probs[i]
        radius = int(xs[i])
        if acc >= target:
            return radius
    return radius
