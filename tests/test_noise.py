import math
import tracemalloc

import numpy as np
import pytest

from conftest import noisy_evolve, reference_track_origin
from qpwalk import noise as noise_module
from qpwalk._kernels import probe_rows
from qpwalk.noise import NoiseConfig, check_step_angles, ensemble_series
from qpwalk.revivals import deviation_bound, expected_sign, revival_reports, revival_time
from qpwalk import cli
from qpwalk.walk import (Field, WalkParams, WalkState, ensemble_tracking_origin, evolve,
                         hadamard_params)

HALF = 1.0 / math.sqrt(2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(epsilon=0.1, ensemble_size=0)
    with pytest.raises(ValueError):
        NoiseConfig(epsilon=0.1, support="pm2")


def test_zero_noise_is_bitwise_clean():
    params = hadamard_params(Field.rational(1, 9))
    noise = NoiseConfig(epsilon=0.0, seed=3)
    clean = evolve(WalkState.single_site(), 1, 25, params)
    noisy = noisy_evolve(WalkState.single_site(), 25, params, noise)
    assert np.array_equal(clean.amplitudes, noisy.amplitudes)


def test_trajectories_are_reproducible_and_distinct():
    params = hadamard_params(Field.rational(1, 9))
    noise = NoiseConfig(epsilon=1e-2, seed=11)
    again = NoiseConfig(epsilon=1e-2, seed=11)
    a = noisy_evolve(WalkState.single_site(), 20, params, noise, trajectory=4)
    b = noisy_evolve(WalkState.single_site(), 20, params, again, trajectory=4)
    c = noisy_evolve(WalkState.single_site(), 20, params, noise, trajectory=5)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_draw_fields_support():
    base = 2.0 * math.pi / 9.0
    sym = NoiseConfig(epsilon=1e-3, seed=0, support="pm1")
    pos = NoiseConfig(epsilon=1e-3, seed=0, support="01")
    draws_sym = sym.draw_fields(base, 500, 0)
    draws_pos = pos.draw_fields(base, 500, 0)
    assert np.all(np.abs(draws_sym - base) <= 1e-3)
    assert np.all((draws_pos >= base) & (draws_pos <= base + 1e-3))
    assert np.any(draws_sym < base)


def test_noisy_state_obeys_accumulated_lipschitz():
    """Per-step spin matrices differ by at most t*epsilon in norm, so the
    final states differ by at most sum_t t*epsilon = t(t+1)/2 * epsilon."""
    params = hadamard_params(Field.rational(1, 7))
    eps = 2e-3
    noise = NoiseConfig(epsilon=eps, seed=5)
    for t in (10, 30):
        clean = evolve(WalkState.single_site(), 1, t, params)
        noisy = noisy_evolve(WalkState.single_site(), t, params, noise)
        # common buffer comparison
        width = max(clean.amplitudes.shape[0], noisy.amplitudes.shape[0])
        a = np.zeros((width, 2), dtype=complex)
        b = np.zeros((width, 2), dtype=complex)
        a[:clean.amplitudes.shape[0]] = clean.amplitudes
        b[:noisy.amplitudes.shape[0]] = noisy.amplitudes
        assert np.linalg.norm(a - b) <= t * (t + 1) / 2.0 * eps + 1e-12


@pytest.mark.parametrize("m,eps", [(15, 5e-4), (24, 1e-3)])
def test_noisy_revival_deviation_within_bound(m, eps):
    """In regimes where the accumulated-noise term dominates the clean
    remainder, the measured noisy deviation must respect the bound.

    The deviation is measured as sqrt(sum over x of (|a_x| + |b_x|)^2),
    the 2-norm over sites of each spinor difference's 1-norm. It is at
    least the state distance ||psi_T - sign*psi_0||, so passing implies
    the bound on that distance too."""
    params = hadamard_params(Field.rational(1, m))
    time = revival_time(m)
    sign = expected_sign(m)
    [report] = revival_reports([(params, m)])
    bound = deviation_bound(report.exact_deviation, eps * np.arange(1, time + 1))
    noise = NoiseConfig(epsilon=eps, seed=99)
    start = WalkState.single_site()
    for trajectory in range(10):
        out = noisy_evolve(start, time, params, noise, trajectory=trajectory)
        # per-site 1-norms of psi_out - sign*psi_0, an upper bound on its 2-norm
        diff2 = 0.0
        for x in range(out.x_min, out.x_max + 1):
            ref = sign * start.spinor(x)
            diff2 += float(np.abs(out.spinor(x) - ref).sum() ** 2)
        assert math.sqrt(diff2) <= bound


NOISE_COINS = {"hadamard": (HALF, HALF), "complex": (0.6, 0.8j), "balanced": (0.28, -0.96j)}


@pytest.mark.parametrize("support", ["pm1", "01"])
@pytest.mark.parametrize("coin", NOISE_COINS.values(), ids=NOISE_COINS.keys())
def test_noisy_revival_states_within_deviation_bound(coin, support):
    """||psi_T - c0*psi_0|| <= deviation_bound(exact_deviation, epsilon*t), t = 1..T,
    at the revival time T of every m = 2..24, for each epsilon and five draws.
    At epsilon = 0 the bound is the clean walk's closed form itself."""
    start = WalkState.single_site()
    problems = [(WalkParams(Field.rational(1, m), *coin), m) for m in range(2, 25)]
    for (params, m), report in zip(problems, revival_reports(problems)):
        time, sign = revival_time(m), expected_sign(m)
        for eps in (0.0, 1e-4, 1e-3, 1e-2):
            bound = deviation_bound(report.exact_deviation, eps * np.arange(1, time + 1))
            assert bound <= 2.0
            if eps == 0.0:
                assert bound == report.exact_deviation
            noise = NoiseConfig(epsilon=eps, seed=m, support=support)
            for trajectory in range(1 if eps == 0.0 else 5):
                out = noisy_evolve(start, time, params, noise, trajectory=trajectory)
                lo = min(out.x_min, 0)
                diff = np.zeros((max(out.x_max, 0) - lo + 1, 2), dtype=complex)
                diff[out.x_min - lo:out.x_max - lo + 1] = out.amplitudes
                diff[-lo] -= sign * start.spinor(0)
                assert np.linalg.norm(diff) <= bound, (m, eps, trajectory)


def test_ensemble_series_shape_and_envelope():
    params = hadamard_params(Field.rational(1, 10))
    noise = NoiseConfig(epsilon=1e-3, seed=1, ensemble_size=8)
    series = ensemble_series(params, [noise], 30)[0]
    assert series.shape == (31, 4)
    assert series[0, 1] == 1.0 and series[0, 2] == 1.0 and series[0, 3] == 1.0
    ts, mean, mini, maxi = series.T
    assert np.array_equal(ts, np.arange(31.0))
    assert np.all(mini <= mean + 1e-15) and np.all(mean <= maxi + 1e-15)
    # clean ensemble collapses the envelope
    clean = ensemble_series(params, [NoiseConfig(epsilon=0.0, ensemble_size=3)], 10)[0]
    assert np.array_equal(clean[:, 2], clean[:, 3])
    _, p0, _ = reference_track_origin(WalkState.single_site(), 10, params)
    for column in (1, 2, 3):
        assert clean[:, column].tobytes() == p0.tobytes()


def test_ensemble_series_rejects_overflowing_angles():
    """epsilon = 1e308 overflows t*phi_t: an error, not NaN rows or a RuntimeWarning."""
    params = hadamard_params(Field.rational(1, 100))
    with pytest.raises(ValueError, match="finite"):
        ensemble_series(params, [NoiseConfig(epsilon=1e308, ensemble_size=2)], 12)[0]


def test_ensemble_series_matches_direct_trajectories():
    """Every row, bit for bit, from each trajectory evolved on its own to each t."""
    params = hadamard_params(Field.rational(1, 6))
    noise = NoiseConfig(epsilon=5e-3, seed=21, ensemble_size=4)
    series = ensemble_series(params, [noise], 12)[0]
    direct = np.empty((4, 13))
    for i in range(4):
        for t in range(13):
            out = noisy_evolve(WalkState.single_site(), t, params, noise, trajectory=i)
            sp = out.spinor(0)
            direct[i, t] = abs(sp[0]) ** 2 + abs(sp[1]) ** 2
    expected = np.column_stack([np.arange(13.0), direct.mean(axis=0), direct.min(axis=0),
                                direct.max(axis=0)])
    assert series.tobytes() == expected.tobytes()


def _refusal(run):
    try:
        run()
    except ValueError as exc:
        return str(exc)
    return None


def test_check_step_angles_refuses_what_ensemble_series_refuses():
    """The up-front angle check refuses exactly the runs ``ensemble_series`` refuses."""
    cases = [(Field.rational(1, 100), 1e306, 181, seed) for seed in range(6)]
    cases += [(Field.rational(1, 100), 1e308, 40, 0), (Field.golden(), 5e305, 200, 0),
              (Field.from_turns(1e305), 0.0, 300, 0), (Field.from_turns(1e305), 0.0, 200, 0),
              (Field.from_turns(1e305), 1e-3, 300, 0), (Field.rational(1, 3), 0.0, 50, 0)]
    outcomes = []
    for field, epsilon, t_max, seed in cases:
        params = hadamard_params(field)
        noise = NoiseConfig(epsilon=epsilon, seed=seed, ensemble_size=20)
        refused = _refusal(lambda: ensemble_series(params, [noise], t_max)[0])
        assert _refusal(lambda: check_step_angles(params, noise, t_max)) == refused
        outcomes.append(refused is None)
    # t_max*(|phi| + epsilon) overflows at 1e306 and 181 steps, yet some ensembles run
    assert any(outcomes[:6]) and not all(outcomes[:6])


def test_one_draw_serves_every_epsilon():
    """``draw_ensemble`` holds each trajectory's ``draw_steps`` in its row, and
    phi + epsilon*x from it has the bits of ``draw_fields`` for any epsilon."""
    phi = Field.rational(1, 30).value
    params = hadamard_params(Field.rational(1, 30))
    for support in ("pm1", "01"):
        x = NoiseConfig(epsilon=0.0, seed=8, ensemble_size=5, support=support).draw_ensemble(40)
        assert x.shape == (5, 40)
        noises = [NoiseConfig(epsilon=epsilon, seed=8, ensemble_size=5, support=support)
                  for epsilon in (1e-4, 3e-3, 0.7)]
        for noise in noises:
            for i in range(5):
                fields = noise.draw_fields(phi, 40, i)
                assert (phi + noise.epsilon * x)[i].tobytes() == fields.tobytes()
        # one call's single draw serves all three epsilons
        for noise, series in zip(noises, ensemble_series(params, noises, 40)):
            assert series.tobytes() == _series_drawn_per_epsilon(params, noise, 40).tobytes()


def _series_drawn_per_epsilon(params, noise, t_max, start=None):
    """``ensemble_series`` rows from every trajectory's fields drawn again by ``draw_fields``
    and one ``ensemble_tracking_origin`` call per epsilon, or the clean walk repeated at
    epsilon = 0."""
    start = start if start is not None else WalkState.single_site()
    if noise.epsilon == 0.0:
        tracks = np.repeat(ensemble_tracking_origin(start, t_max, params), noise.ensemble_size, 0)
    else:
        fields = [noise.draw_fields(params.field.value, t_max, i)
                  for i in range(noise.ensemble_size)]
        tracks = ensemble_tracking_origin(start, t_max, params, fields)
    return np.column_stack([np.arange(t_max + 1.0), tracks.mean(axis=0), tracks.min(axis=0),
                            tracks.max(axis=0)])


def _series_per_epsilon(params, noises, t_max, initial=None):
    """``ensemble_series`` as one ``_series_drawn_per_epsilon`` per config."""
    return [_series_drawn_per_epsilon(params, noise, t_max, initial) for noise in noises]


@pytest.mark.parametrize("support", ["pm1", "01"])
def test_noise_series_draws_each_trajectory_once(monkeypatch, capsys, support):
    """A ``noise-series`` call starts each trajectory's stream once, not once per
    epsilon > 0, keeps none for the next call, and prints the bytes of every epsilon
    drawing its own fields, epsilon = 0 included."""
    argv = ["noise-series", "--field", "1/50", "--tmax", "80", "--ensemble", "6", "--seed", "4",
            "--noise-support", support, "--epsilon"]
    streams = []
    stream = NoiseConfig.trajectory_rng
    monkeypatch.setattr(NoiseConfig, "trajectory_rng",
                        lambda self, i: streams.append(i) or stream(self, i))
    assert cli.main(argv + ["0.002,0,0.0005,0.01"]) == 0
    once = capsys.readouterr().out
    assert streams == list(range(6))
    assert cli.main(argv + ["0.002,0,0.0005,0.01"]) == 0
    assert streams == list(range(6)) * 2 and capsys.readouterr().out == once
    streams.clear()
    assert cli.main(argv + ["0,0"]) == 0 and streams == []
    capsys.readouterr()
    monkeypatch.setattr(cli, "ensemble_series", _series_per_epsilon)
    assert cli.main(argv + ["0.002,0,0.0005,0.01"]) == 0
    # the replacement draws once per epsilon > 0
    assert streams == list(range(6)) * 3 and capsys.readouterr().out == once


EPSILON_LISTS = [(0.002, 0.0, 0.0005, 0.01), (0.001, 0.001), (0.0, 0.0), (0.003,)]
COINS = {"hadamard": (1 / math.sqrt(2.0), 1 / math.sqrt(2.0)), "0.6,0.8j": (0.6, 0.8j)}


@pytest.mark.parametrize("cells", [None, 100, 1], ids=["default", "cells100", "cells1"])
@pytest.mark.parametrize("coin", sorted(COINS))
@pytest.mark.parametrize("support", ["pm1", "01"])
def test_ensemble_series_matches_a_probe_per_epsilon(support, coin, cells, monkeypatch):
    """Every config's series, bit for bit, from fields drawn per trajectory and one probe per
    epsilon. Hadamard steps take the balanced path and (0.6, 0.8i) the general one. At 100
    cells (3 walks of 31 rows) runs straddle two epsilons; at 1 cell every run is one walk,
    on the one-walk path."""
    if cells is not None:
        monkeypatch.setattr(noise_module, "PROBE_CELLS", cells)
    params = WalkParams(Field.rational(1, 50), *COINS[coin])
    t_max = 60
    for size in (5, 1):
        for epsilons in EPSILON_LISTS:
            noises = [NoiseConfig(epsilon=eps, seed=3, ensemble_size=size, support=support)
                      for eps in epsilons]
            got = ensemble_series(params, noises, t_max)
            assert len(got) == len(noises)
            for noise, series in zip(noises, got):
                expected = _series_drawn_per_epsilon(params, noise, t_max)
                assert series.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cells", [None, 7], ids=["default", "cells7"])
@pytest.mark.parametrize("x_min", [2, -3])
def test_ensemble_series_from_a_wide_start(x_min, cells, monkeypatch):
    """A two-site start off the origin (stride 1): the probe's up array is the taller one
    when the origin lies left of the start, its down array when it lies right."""
    if cells is not None:
        monkeypatch.setattr(noise_module, "PROBE_CELLS", cells)
    params = WalkParams(Field.golden(), 0.6, 0.8j)
    start = WalkState(x_min=x_min, amplitudes=np.array([[0.6, 0.0], [0.0, 0.8j]]))
    assert probe_rows(start.amplitudes, -x_min, 30) == 34
    noises = [NoiseConfig(epsilon=eps, seed=5, ensemble_size=4) for eps in (0.01, 0.0, 0.002)]
    for noise, series in zip(noises, ensemble_series(params, noises, 30, start)):
        assert series.tobytes() == _series_drawn_per_epsilon(params, noise, 30, start).tobytes()


def test_ensemble_series_refuses_configs_it_cannot_share():
    params = hadamard_params(Field.rational(1, 10))
    base = NoiseConfig(epsilon=1e-3, seed=1, ensemble_size=4)
    for other in (NoiseConfig(epsilon=2e-3, seed=2, ensemble_size=4),
                  NoiseConfig(epsilon=2e-3, seed=1, ensemble_size=5),
                  NoiseConfig(epsilon=2e-3, seed=1, ensemble_size=4, support="01")):
        with pytest.raises(ValueError, match="share seed, ensemble size and support"):
            ensemble_series(params, [base, other], 10)
    with pytest.raises(ValueError, match="t_max"):
        ensemble_series(params, [base], 0)
    assert ensemble_series(params, [], 10) == []


def _probe_spy(monkeypatch):
    """Record the walks of every probe ``ensemble_series`` runs (None for the clean walk);
    each returns zeros, so that the shapes of large configs are cheap to check."""
    calls = []

    def spy(state, t_max, params, field_values=None):
        calls.append(None if field_values is None else field_values.shape)
        return np.zeros((1 if field_values is None else len(field_values), t_max + 1))

    monkeypatch.setattr(noise_module, "ensemble_tracking_origin", spy)
    return calls


@pytest.mark.parametrize("t_max, size, epsilons, walks", [
    # the benchmark's noise-series: one probe for the clean walk and one for 100 walks
    (300, 50, (0.0, 0.0005, 0.001), [100]),
    # the default: 151 and 501 rows give caps of 217 and 65 walks
    (1000, 100, (0.0001, 0.0005, 0.001), [60] * 5),
    (300, 400, (0.0005, 0.001), [200] * 4),
    # at the cap of 217 walks, and one walk above it
    (300, 217, (0.001,), [217]),
    (300, 109, (0.0005, 0.001), [109, 109]),
    (300, 1, (0.0, 0.001, 0.001), [1]),
])
def test_ensemble_series_probes_stay_within_the_cap(monkeypatch, t_max, size, epsilons, walks):
    calls = _probe_spy(monkeypatch)
    params = hadamard_params(Field.rational(1, 100))
    cap = noise_module.PROBE_CELLS // probe_rows(WalkState.single_site().amplitudes, 0, t_max)
    noises = [NoiseConfig(epsilon=eps, seed=1, ensemble_size=size) for eps in epsilons]
    ensemble_series(params, noises, t_max)
    clean = [None] if 0.0 in epsilons else []
    assert calls == clean + [(w, t_max) for w in walks]
    assert all(w <= cap for w in walks)


def _series_peak_traced_bytes(params, noises, t_max):
    tracemalloc.start()
    try:
        ensemble_series(params, noises, t_max)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_series_memory_is_bounded_by_the_cell_budget():
    """T = 300, two epsilons: E = 200 runs its 400 walks in two probes of 200,
    E = 400 its 800 in four (the cap is 217 walks).

    Beyond the arrays every call holds whole (the draws, E x T, and every
    walk's p0, 2E x (T + 1), in floats), the peak is one probe's, so it does
    not grow with E: the same probes allocate the same temporaries, whatever
    the numpy version. A probe holds its four complex arrays of at most
    ``PROBE_CELLS`` cells (64 bytes a cell), its fields and its own p0 rows
    (8 bytes a step of a walk each, about 16 a cell each) and its step-matrix
    blocks (64 bytes a walk per step of a block, two or three blocks alive,
    about 40 a cell) with their temporaries. 192 bytes a cell bounds it: 0.74
    of the bound with numpy 2.4.6 on x86-64, not measured with other numpy
    versions. Probes of 400 walks, one per epsilon, peaked at twice the E =
    200 excess and 1.47 times the bound."""
    params = hadamard_params(Field.rational(1, 100))
    t_max = 300
    ensemble_series(params, [NoiseConfig(epsilon=5e-4, seed=1, ensemble_size=400)], 20)
    excess = {}
    for size in (200, 400):  # after a first call, whose allocations stay outside the bound
        noises = [NoiseConfig(epsilon=eps, seed=1, ensemble_size=size) for eps in (5e-4, 1e-3)]
        whole = 8 * (size * t_max + 2 * size * (t_max + 1))
        excess[size] = _series_peak_traced_bytes(params, noises, t_max) - whole
    assert excess[400] <= 1.05 * excess[200]
    assert excess[400] <= 192 * noise_module.PROBE_CELLS
