"""Per-step field fluctuations, ensemble return-probability series, and bounds.

The noisy walk replaces the field by phi_t = phi + epsilon*x_t at step t, with
x_t drawn fresh each step (uniform on [-1, 1] by default, [0, 1] optionally).
The whole step-t operator is the clean one evaluated at the fluctuated field,
so the prefactor angle is t*phi_t: early fluctuations matter less than late
ones, and a telescoping estimate gives the worst-case deviation from the clean
walk as sum_t t*epsilon = t(t+1)/2 * epsilon after t steps.

Reproducibility: trajectory i of a config with seed s draws from
numpy's PCG64 seeded with SeedSequence((s, i)). All draws happen before the
trajectory is evolved, outside the evolution kernels. The x_t do not depend
on epsilon, so a ``noise-series`` call draws every trajectory's once, as one
(E, t_max) array, and each epsilon's fields are phi + epsilon*x from it, with
the bits of drawing them again per epsilon.

``return_series`` advances all trajectories of one epsilon together through
one origin-probe call (``walk.ensemble_tracking_origin``), which keeps only
the sites that can still reach the origin by t_max. Every trajectory's p0 is
bit for bit the return probability of its own full run, so the series does
not depend on how the ensemble is evolved. At epsilon = 0 every trajectory
is the clean walk, which the same probe runs once, on the exact field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .momentum import alpha_tilde_sup
from .walk import WalkParams, WalkState, ensemble_tracking_origin, evolve

SUPPORTS = ("pm1", "01")


@dataclass(frozen=True)
class NoiseConfig:
    """Fluctuation amplitude, x_t support, master seed, and ensemble size."""

    epsilon: float
    seed: int = 0
    ensemble_size: int = 100
    support: str = "pm1"

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be at least 1")
        if self.support not in SUPPORTS:
            raise ValueError(f"support must be one of {SUPPORTS}")

    def trajectory_rng(self, index: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.seed, index))))

    def draw_steps(self, steps: int, trajectory: int) -> np.ndarray:
        """The x_t of steps 1..steps of one trajectory; they do not depend on epsilon."""
        lo, hi = (-1.0, 1.0) if self.support == "pm1" else (0.0, 1.0)
        return self.trajectory_rng(trajectory).uniform(lo, hi, size=steps)

    def draw_ensemble(self, steps: int) -> np.ndarray:
        """Every trajectory's ``draw_steps`` as one (E, steps) array, row i for trajectory i."""
        x = np.empty((self.ensemble_size, steps))
        for i in range(self.ensemble_size):
            x[i] = self.draw_steps(steps, i)
        return x

    def draw_fields(self, base_field_value: float, steps: int,
                    trajectory: int) -> np.ndarray:
        """Per-step field values phi + epsilon*x_t for one trajectory."""
        return base_field_value + self.epsilon * self.draw_steps(steps, trajectory)


def noisy_evolve(state: WalkState, t: int, params: WalkParams,
                 noise: NoiseConfig, trajectory: int = 0) -> WalkState:
    """Evolve through steps 1..t with fluctuated fields (one trajectory).

    epsilon = 0 reproduces the clean ``evolve`` bit for bit, because the exact
    field path is used instead of a float override.
    """
    if noise.epsilon == 0.0:
        return evolve(state, 1, t, params)
    fields = noise.draw_fields(params.field.value, t, trajectory)
    return evolve(state, 1, t, params, field_values=fields)


def noise_bound(m: int, epsilon: float, alpha_tilde_sup_value: float) -> float:
    """Worst-case deviation bound at the candidate revival time.

    m odd (time 2m): m*(2m+1)*epsilon; m even (time m): (m/2)*(m+1)*epsilon.
    Both are the telescoped per-step errors sum_t t*epsilon with |x_t| <= 1.
    The clean-walk remainder is reported as alpha_tilde_sup^m; its true
    prefactor is not pinned down here, so compare with slack in regimes where
    the accumulation term dominates.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if not 0.0 <= alpha_tilde_sup_value <= 1.0:
        raise ValueError("alpha_tilde_sup_value must lie in [0, 1]")
    if m % 2 == 1:
        leading = m * (2 * m + 1) * epsilon
    else:
        leading = (m / 2.0) * (m + 1) * epsilon
    return leading + alpha_tilde_sup_value ** m


def noise_bound_for(params: WalkParams, m: int, epsilon: float) -> float:
    return noise_bound(m, epsilon, alpha_tilde_sup(params.coin_a, params.coin_b))


def check_step_angles(params: WalkParams, noise: NoiseConfig, t_max: int) -> None:
    """Raise the ValueError ``return_series`` would raise for an overflowing step angle.

    Every |phi_t| is at most |phi| + epsilon (|x_t| <= 1 on both supports), so
    when t_max*(|phi| + epsilon) is finite no angle t*phi_t can overflow and
    nothing is drawn. Otherwise the angles are tested as the step matrices
    test them: epsilon = 0 runs the exact field path, epsilon > 0 draws every
    trajectory's fields and requires each t*phi_t to be finite.
    """
    phi = params.field.value
    if math.isfinite(t_max * (abs(phi) + noise.epsilon)):
        return
    if noise.epsilon == 0.0:
        params.step_matrices(1, t_max)  # raises at the first overflowing step
        return
    ts = np.arange(1, t_max + 1)
    for i in range(noise.ensemble_size):
        with np.errstate(over="ignore"):
            angles = ts * noise.draw_fields(phi, t_max, i)
        if not np.isfinite(angles).all():
            raise ValueError("step angles t*phi_t must be finite")


def return_series(params: WalkParams, noise: NoiseConfig, t_max: int,
                  initial: WalkState | None = None, draws: np.ndarray | None = None) -> np.ndarray:
    """Ensemble return-probability series as an array of rows (t, mean, min, max).

    Rows cover t = 0..t_max. Trajectory i uses the stream documented on
    NoiseConfig, so the series is reproducible for a fixed config.
    ``draws`` is ``noise.draw_ensemble(t_max)``, drawn here when None: a
    caller that runs several epsilons of one seed, ensemble and support
    draws once and passes it to each.
    """
    if t_max < 1:
        raise ValueError("t_max must be positive")
    start = initial if initial is not None else WalkState.single_site()
    if noise.epsilon == 0.0:
        # every trajectory is the clean walk, which is run once
        tracks = np.repeat(ensemble_tracking_origin(start, t_max, params), noise.ensemble_size, 0)
    else:
        if draws is None:
            draws = noise.draw_ensemble(t_max)
        fields = params.field.value + noise.epsilon * draws
        tracks = ensemble_tracking_origin(start, t_max, params, fields)
    ts = np.arange(t_max + 1, dtype=float)
    return np.column_stack([ts, tracks.mean(axis=0), tracks.min(axis=0),
                            tracks.max(axis=0)])
