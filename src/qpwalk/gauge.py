"""Electric walk, gauge phases, and the equivalence to a time-dependent walk.

The electric walk applies a static coin walk and then a linear
position-dependent phase each step:

    W^E = exp(i*phi*x_hat) * C * S      (S first, then C, then the phase).

Conjugating with the gauge phases G_t (diagonal, G_{x,t} = exp(-i*phi*t*x))
turns the spatial phase gradient into a time-dependent spin rotation: the
gauged walk W(t) = C * exp(-i*phi*(t-1)*sigma_z) * S satisfies, by a
telescoping product,

    W(t) ... W(1) = G_t (W^E)^t G_0,      G_0 = I.

The identity is exact for every field value, rational or not. The gauged walk
is the GAUGED_SZ time rule of the walk module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walk import Field, TimeRule, WalkParams, WalkState, evolve
from . import _kernels


@dataclass(frozen=True)
class GaugePhase:
    """G_{x,t} = exp(-i*phi*t*x), diagonal in position and trivial in spin."""

    phi: float
    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be nonnegative")


def _site_phases(rate: complex, lo: int, hi: int, phi: float) -> np.ndarray:
    """exp(rate*x) for the sites x = lo..hi; ValueError naming ``phi`` where rate*x overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(rate * np.arange(lo, hi + 1))
    if not np.isfinite(phases).all():
        raise ValueError(f"field {phi!r} rad: the gauge phase of a site overflows a float")
    return phases


def apply_gauge(state: WalkState, g: GaugePhase) -> WalkState:
    """Multiply the amplitude at each site x by exp(-i*phi*t*x)."""
    phases = _site_phases(-1j * g.phi * g.t, state.x_min, state.x_max, g.phi)
    return WalkState(x_min=state.x_min,
                     amplitudes=state.amplitudes * phases[:, None])


def _electric_run(state: WalkState, phi: float, coin: np.ndarray,
                  steps: int) -> WalkState:
    mats = np.broadcast_to(np.asarray(coin, dtype=complex), (steps, 2, 2))
    phases = _site_phases(1j * phi, state.x_min - steps, state.x_max + steps, phi)
    lo, _, window = _kernels.steps_shift_then_matrix(state.amplitudes, state.x_min, state.x_max,
                                                     mats, site_phase=phases)
    return WalkState(x_min=lo, amplitudes=window)


def electric_evolve(state: WalkState, steps: int, phi: float,
                    coin: np.ndarray) -> WalkState:
    """(W^E)^steps applied to the state."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        return state.copy()
    return _electric_run(state, phi, coin, steps)


def _coin_entries(coin: np.ndarray) -> tuple[complex, complex]:
    """Extract (a, b) from a special-unitary coin [[a, b], [-conj(b), conj(a)]]."""
    coin = np.asarray(coin, dtype=complex)
    a, b = complex(coin[0, 0]), complex(coin[0, 1])
    if (abs(coin[1, 0] + np.conj(b)) > 1e-10
            or abs(coin[1, 1] - np.conj(a)) > 1e-10):
        raise ValueError("coin must have the form [[a, b], [-conj(b), conj(a)]]")
    return a, b


def verify_gauge_equivalence(phi: float, coin: np.ndarray,
                             t: int, trials: int = 20, seed: int = 0,
                             max_offset: int = 40) -> float:
    """Max state deviation of W^{[t,1]} psi = G_t (W^E)^t G_0 psi over random states.

    Trial states are single-site spinors at uniformly drawn offsets
    |x0| <= max_offset with random unit spinors. Returns the largest Euclidean
    norm of the difference; the identity is exact, so only float roundoff
    (well below 1e-10) should appear.
    """
    if t < 1:
        raise ValueError("t must be positive")
    a, b = _coin_entries(coin)
    params = WalkParams(field=Field.from_radians(phi), coin_a=a, coin_b=b,
                        time_rule=TimeRule.GAUGED_SZ)
    coin = params.coin
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    deviations = []
    for _ in range(trials):
        x0 = int(rng.integers(-max_offset, max_offset + 1))
        spinor = rng.normal(size=2) + 1j * rng.normal(size=2)
        spinor = spinor / np.linalg.norm(spinor)
        psi = WalkState.single_site(x=x0, spinor=tuple(spinor))

        gauged = evolve(psi, 1, t, params)

        electric = apply_gauge(psi, GaugePhase(phi=phi, t=0))
        electric = electric_evolve(electric, t, phi, coin)
        electric = apply_gauge(electric, GaugePhase(phi=phi, t=t))

        lo = min(gauged.x_min, electric.x_min)
        hi = max(gauged.x_max, electric.x_max)
        width = hi - lo + 1
        a = np.zeros((width, 2), dtype=complex)
        b = np.zeros((width, 2), dtype=complex)
        a[gauged.x_min - lo:gauged.x_min - lo + gauged.amplitudes.shape[0]] = gauged.amplitudes
        b[electric.x_min - lo:electric.x_min - lo + electric.amplitudes.shape[0]] = electric.amplitudes
        deviations.append(np.linalg.norm(a - b))
    # np.max keeps a NaN deviation, which the builtin max can drop
    return float(np.max(deviations))
