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
from fractions import Fraction
from math import gcd

import numpy as np

from . import _kernels
from .cfrac import golden_ratio_fraction
from .spinops import make_coin

TWO_PI = 2.0 * math.pi

# steps whose matrices ensemble_tracking_origin builds at a time
ENSEMBLE_MATRIX_BLOCK = 64


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

    @property
    def turns_fraction(self) -> Fraction | None:
        """phi/(2*pi) as an exact Fraction when known (rational or golden)."""
        if self.is_rational:
            return Fraction(self.numerator, self.denominator)
        if self.label == "golden":
            return golden_ratio_fraction()
        return None

    def angle(self, multiple: int) -> float:
        """multiple*phi reduced mod 2*pi; exact (integer-reduced) in the rational case."""
        if self.is_rational:
            residue = (multiple * self.numerator) % self.denominator
            return TWO_PI * residue / self.denominator
        return math.fmod(multiple * self.value, TWO_PI)


@dataclass(frozen=True)
class WalkParams:
    """Field, coin entries, and the time rule; together they define W(t)."""

    field: Field
    coin_a: complex
    coin_b: complex
    time_rule: TimeRule = TimeRule.RX_FIELD

    def __post_init__(self):
        norm = abs(self.coin_a) ** 2 + abs(self.coin_b) ** 2
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-10:
            raise ValueError(f"coin entries must satisfy |a|^2+|b|^2=1, got {norm!r}")
        if not isinstance(self.time_rule, TimeRule):
            # Accept the enum's value ("rx-field") or name ("RX_FIELD") as a
            # string; reject anything else instead of silently comparing
            # unequal to every TimeRule member.
            try:
                rule = TimeRule(self.time_rule)
            except ValueError:
                try:
                    rule = TimeRule[str(self.time_rule)]
                except KeyError:
                    raise ValueError(f"unknown time rule: {self.time_rule!r}") from None
            object.__setattr__(self, "time_rule", rule)
        object.__setattr__(self, "_coin", make_coin(self.coin_a, self.coin_b))

    @property
    def coin(self) -> np.ndarray:
        return self._coin.copy()

    @property
    def matrix_before_shift(self) -> bool:
        """True when the step applies its spin matrix before the shift."""
        return self.time_rule is TimeRule.RX_FIELD

    def step_matrix(self, t: int, field_value: float | None = None) -> np.ndarray:
        """The 2x2 spin matrix of step t (shift excluded): the one-row ``step_matrices``."""
        values = None if field_value is None else (field_value,)
        return self.step_matrices(t, t, field_values=values)[0]

    def step_matrices(self, t_from: int, t_to: int,
                      field_values=None) -> np.ndarray:
        """Stacked step matrices for t = t_from..t_to inclusive, shape (T, 2, 2).

        ``field_values``, one angle per step, overrides the exact field (noisy
        evolution).
        """
        before = self.matrix_before_shift
        lag = 0 if before else 1
        multiples = range(t_from - lag, t_to + 1 - lag)
        if field_values is None:
            # per-step Python ints: exact where int64 t*numerator could wrap,
            # and cheaper than array arithmetic for single-step evolution
            angles = np.fromiter(map(self.field.angle, multiples), float, len(multiples))
        else:
            field_values = np.asarray(field_values, dtype=float)
            if field_values.shape != (len(multiples),):
                raise ValueError("field_values must supply one angle per step")
            with np.errstate(over="ignore", invalid="ignore"):
                angles = np.fmod(np.array(multiples) * field_values, TWO_PI)
            if not np.isfinite(angles).all():
                raise ValueError("step angles t*phi_t must be finite")
        spin = np.zeros((len(angles), 2, 2), dtype=complex)
        if before:
            spin[:, 0, 0] = spin[:, 1, 1] = np.cos(angles)
            spin[:, 0, 1] = spin[:, 1, 0] = 1j * np.sin(angles)
            return spin @ self._coin
        spin[:, 0, 0] = np.exp(-1j * angles)
        spin[:, 1, 1] = np.exp(1j * angles)
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


def run_padded(state: WalkState, steps: int, run) -> WalkState:
    """Copy the state into a zero-padded buffer, run a kernel on it, cut the window.

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


def evolve(state: WalkState, t_from: int, t_to: int, params: WalkParams,
           field_values=None) -> WalkState:
    """Apply W(t_to) ... W(t_from) to the state (empty product when t_from > t_to).

    ``field_values``, when given, is a sequence of per-step field angles
    overriding params.field for steps t_from..t_to (noisy evolution).
    """
    if t_from > t_to:
        return state.copy()
    steps = t_to - t_from + 1
    mats = params.step_matrices(t_from, t_to, field_values=field_values)
    kernel = (_kernels.steps_matrix_then_shift if params.matrix_before_shift
              else _kernels.steps_shift_then_matrix)
    return run_padded(state, steps,
                      lambda buf, lo, hi, offset: kernel(buf, lo, hi, mats))


def step(state: WalkState, t: int, params: WalkParams) -> WalkState:
    """Apply the single step W(t)."""
    return evolve(state, t, t, params)


def track_origin(state: WalkState, t_max: int, params: WalkParams,
                 field_values=None):
    """Evolve through steps 1..t_max; return (final state, origin spinors).

    Row t-1 of the (t_max, 2) spinor array is the (up, down) spinor at the
    origin x = 0 after step t; it is zero while the origin lies outside the
    window. Only the RX_FIELD rule is supported here; it is the rule the
    return-probability and Bloch-trace experiments use.
    """
    if not params.matrix_before_shift:
        raise ValueError("origin tracking is implemented for the RX_FIELD rule")
    mats = params.step_matrices(1, t_max, field_values=field_values)
    spinors = np.empty((t_max, 2), dtype=complex)

    def run(buf, lo, hi, offset):
        # Site x sits at buffer index x + offset, so the origin is at ``offset``.
        return _kernels.steps_matrix_then_shift(buf, lo, hi, mats,
                                                origin=offset, out_spinor=spinors)

    return run_padded(state, t_max, run), spinors


def evolve_tracking_origin(state: WalkState, t_max: int, params: WalkParams,
                           field_values=None):
    """Evolve through steps 1..t_max; return (final state, p0 array of length t_max+1).

    p0[t] is the probability at the origin after step t (p0[0] is the initial
    value); it reads zero while the origin lies outside the window. Only the
    RX_FIELD rule is supported, as in ``track_origin``.
    """
    final, spinors = track_origin(state, t_max, params, field_values=field_values)
    p0 = _kernels.spinor_probabilities([state.amplitude(0, +1), *spinors[:, 0].tolist()],
                                       [state.amplitude(0, -1), *spinors[:, 1].tolist()])
    return final, np.array(p0)


def ensemble_tracking_origin(state: WalkState, t_max: int, params: WalkParams,
                             field_values) -> np.ndarray:
    """Return probabilities of one walk per entry of ``field_values``, shape (E, t_max+1).

    Row e is bit for bit the p0 of ``evolve_tracking_origin(state, t_max,
    params, field_values[e])``. All E walks advance together through one
    kernel call, which keeps only the sites that can still reach the origin
    by step t_max and so hands back no final state. Only the RX_FIELD rule is
    supported, as in ``track_origin``.
    """
    if not params.matrix_before_shift:
        raise ValueError("origin tracking is implemented for the RX_FIELD rule")
    walks = len(field_values)

    def blocks():
        # a block of steps at a time keeps the matrices' memory independent of t_max
        for t0 in range(0, t_max, ENSEMBLE_MATRIX_BLOCK):
            t1 = min(t0 + ENSEMBLE_MATRIX_BLOCK, t_max)
            block = np.empty((t1 - t0, 2, 2, walks), dtype=complex)
            for e, fields in enumerate(field_values):
                block[..., e] = params.step_matrices(t0 + 1, t1, field_values=fields[t0:t1])
            yield block

    return _kernels.probe_ensemble(state.amplitudes, -state.x_min, t_max, walks, blocks())


def position_distribution(state: WalkState) -> dict[int, float]:
    """Map x -> total probability at x, omitting exactly-zero sites."""
    probs = np.abs(state.amplitudes[:, 0]) ** 2 + np.abs(state.amplitudes[:, 1]) ** 2
    return {x: p for x, p in enumerate(probs.tolist(), start=state.x_min) if p > 0.0}


def return_probability(state: WalkState) -> float:
    """Total probability at the origin x = 0."""
    sp = state.spinor(0)
    return float(abs(sp[0]) ** 2 + abs(sp[1]) ** 2)


def fidelity(state: WalkState, reference: WalkState) -> float:
    """|<reference|state>|^2 over the overlapping window."""
    lo = max(state.x_min, reference.x_min)
    hi = min(state.x_max, reference.x_max)
    if lo > hi:
        return 0.0
    a = state.amplitudes[lo - state.x_min: hi - state.x_min + 1]
    b = reference.amplitudes[lo - reference.x_min: hi - reference.x_min + 1]
    return float(abs(np.vdot(b, a)) ** 2)


def bloch_vector(state: WalkState, x: int) -> tuple[float, float, float]:
    """(⟨sigma_x⟩, ⟨sigma_y⟩, ⟨sigma_z⟩) of the unnormalized spinor at site x.

    The vector length equals the spinor's squared norm, so sub-unit spinors
    land inside the Bloch ball. Outside the window the result is (0, 0, 0).
    """
    sp = state.spinor(x)
    return spinor_bloch_vector(sp[0], sp[1])


def spinor_bloch_vector(u, d) -> tuple[float, float, float]:
    """``bloch_vector`` of the spinor (u, d), given as Python or numpy complex scalars.

    Both give the same bits; Python complex values are several times faster.
    """
    cross = u.conjugate() * d
    return (float(2.0 * cross.real), float(2.0 * cross.imag),
            float(abs(u) ** 2 - abs(d) ** 2))


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
