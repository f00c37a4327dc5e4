"""Per-step field fluctuations and ensemble return-probability series.

The noisy walk replaces the field by phi_t = phi + epsilon*x_t at step t, with
x_t drawn fresh each step (uniform on [-1, 1] by default, [0, 1] optionally).
The whole step-t operator is the clean one evaluated at the fluctuated field,
so the prefactor angle t*phi_t drifts from the clean t*phi by t*epsilon*|x_t|
<= t*epsilon: early fluctuations matter less than late ones. Over the draws of
either support, the worst-case revival deviation at field 2*pi*n/m is thus at
most ``revivals.deviation_bound(exact_deviation, epsilon * t)`` over
t = 1..revival_time(m), with the clean walk's closed form as exact_deviation.

Reproducibility: trajectory i of a config with seed s draws from
numpy's PCG64 seeded with SeedSequence((s, i)). All draws happen before the
trajectory is evolved, outside the evolution kernels. The x_t do not depend
on epsilon, so a ``noise-series`` call draws every trajectory's once, as one
(E, t_max) array, and each epsilon's fields are phi + epsilon*x from it, with
the bits of drawing them again per epsilon.

``ensemble_series`` runs the configs of one call (one seed, ensemble size and
support; ``noise-series`` passes one per epsilon) through origin probes
(``walk.ensemble_tracking_origin``), which keep only the sites that can still
reach the origin by t_max. Every trajectory's p0 is bit for bit the return
probability of its own full run, so the series does not depend on which
trajectories share a probe. At epsilon = 0 every trajectory is the clean
walk, which one probe runs once, on the exact field. The trajectories of
every epsilon > 0 are laid end to end, epsilon by epsilon, and cut into the
fewest near-equal runs of consecutive walks that keep each probe within
``PROBE_CELLS`` cells (its rows, ``_kernels.probe_rows``, times its walks):
one probe per step advances many walks, so the per-step Python overhead is
paid once per probe instead of once per epsilon, while a wider probe, whose
arrays outgrow the cache, would be slower. A run may span two epsilons; each
builds the fields of its own walks only, so beyond the draws and the p0 rows
of every walk, memory stays within one probe's for any ensemble size. Each
epsilon's statistics reduce its own E contiguous rows, as a run of that
epsilon alone would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import probe_rows
from .walk import WalkParams, WalkState, ensemble_tracking_origin

SUPPORTS = ("pm1", "01")

# Cells (rows x walks) of the widest origin probe ``ensemble_series`` runs.
# With numpy 2.4.6 on 2 x86-64 cores the fastest walks per probe were 200
# at T = 300 (151 rows), 100 at T = 600 (301 rows) and 50-150 at T = 1000
# (501 rows); wider probes were slower (300 walks at T = 600: 220 ms in one
# probe against 171 ms in three of 100). These are in-process timings only:
# the benchmark's noise workload (100 noisy walks at T = 300) fits in one
# probe, so no benchmark run covers a call that splits its walks.
PROBE_CELLS = 2**15


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


def check_step_angles(params: WalkParams, noise: NoiseConfig, t_max: int) -> None:
    """Raise the ValueError ``ensemble_series`` would raise for an overflowing step angle.

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


def _row_stats(tracks):
    """Mean, min and max over the trajectories (rows) of an (E, t_max + 1) array."""
    return tracks.mean(axis=0), tracks.min(axis=0), tracks.max(axis=0)


def ensemble_series(params: WalkParams, noises, t_max: int,
                    initial: WalkState | None = None) -> list[np.ndarray]:
    """The ensemble return-probability series of each config in ``noises``, in order.

    Each series is an array of rows (t, mean, min, max) over t = 0..t_max,
    the statistics of the ensemble's p0 at time t; trajectory i draws from
    the stream documented on ``NoiseConfig``, so a series is reproducible
    for a fixed config. The configs must share seed, ensemble size and
    support. The x_t are drawn once and a repeated epsilon runs once. The N
    trajectories of the epsilons > 0 (epsilon by epsilon, in order of first
    appearance) are cut into ceil(N / cap) near-equal runs of consecutive
    walks, cap = max(1, ``PROBE_CELLS`` // rows) with rows the probe's
    height for this start and horizon, and each run is one origin probe over
    its own fields phi + epsilon*x (see the module docstring).
    """
    if t_max < 1:
        raise ValueError("t_max must be positive")
    noises = list(noises)
    if len({(n.seed, n.ensemble_size, n.support) for n in noises}) > 1:
        raise ValueError("the configs must share seed, ensemble size and support")
    if not noises:
        return []
    start = initial if initial is not None else WalkState.single_site()
    size = noises[0].ensemble_size
    epsilons = list(dict.fromkeys(n.epsilon for n in noises))
    noisy = [eps for eps in epsilons if eps != 0.0]
    stats = {}
    if 0.0 in epsilons:  # every trajectory is the clean walk, which is run once
        stats[0.0] = _row_stats(np.repeat(ensemble_tracking_origin(start, t_max, params), size, 0))
    if noisy:
        draws = noises[0].draw_ensemble(t_max)
        walks = len(noisy) * size
        cap = max(1, PROBE_CELLS // max(1, probe_rows(start.amplitudes, -start.x_min, t_max)))
        count = -(-walks // cap)
        bounds = [r * walks // count for r in range(count + 1)]
        # walk r of the concatenation is trajectory r % E of the (r // E)-th epsilon
        epsilon_of_walk = np.repeat(noisy, size)[:, None]
        # one run's p0 array serves as it is, with no second copy of its rows;
        # more runs copy theirs into their own rows of one array
        p0 = np.empty((walks, t_max + 1)) if count > 1 else None
        for a, b in zip(bounds, bounds[1:]):
            fields = epsilon_of_walk[a:b] * draws[np.arange(a, b) % size]
            fields += params.field.value
            tracks = ensemble_tracking_origin(start, t_max, params, fields)
            if p0 is None:
                p0 = tracks
            else:
                p0[a:b] = tracks
        for k, eps in enumerate(noisy):
            stats[eps] = _row_stats(p0[k * size:(k + 1) * size])
    ts = np.arange(t_max + 1, dtype=float)
    return [np.column_stack([ts, *stats[n.epsilon]]) for n in noises]
