import math

import numpy as np
import pytest

from conftest import (gauged_step, max_diff, nan_in_electric_evolve, position_distribution,
                      random_su2, reference_electric, state_to_dict)
from qpwalk.gauge import GaugePhase, apply_gauge, electric_evolve, verify_gauge_equivalence
from qpwalk.walk import Field, TimeRule, WalkParams, WalkState, evolve

HALF = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[HALF, HALF], [-HALF, HALF]], dtype=complex)


def test_gauge_phase_values():
    """G_{x,t} = exp(-i*phi*t*x), read off a unit spin-up amplitude at x."""
    g = GaugePhase(phi=0.3, t=4)
    at_two = apply_gauge(WalkState.single_site(x=2), g)
    assert at_two.amplitude(2, +1) == pytest.approx(np.exp(-1j * 0.3 * 4 * 2))
    at_five = apply_gauge(WalkState.single_site(x=5), GaugePhase(phi=0.3, t=0))
    assert at_five.amplitude(5, +1) == 1.0
    with pytest.raises(ValueError):
        GaugePhase(phi=0.3, t=-1)


def test_apply_gauge_is_invertible_and_preserves_probabilities():
    amps = np.array([[0.5, 0.5j], [0.5, 0.0], [0.0, 0.5]], dtype=complex)
    state = WalkState(x_min=-1, amplitudes=amps)
    g = GaugePhase(phi=1.234, t=3)
    out = apply_gauge(state, g)
    assert position_distribution(out) == pytest.approx(
        position_distribution(state))
    back = apply_gauge(out, GaugePhase(phi=-1.234, t=3))
    assert max_diff(back, state_to_dict(state)) < 1e-15


def test_electric_step_matches_dict_reference(rng):
    phi = 2.0 * math.pi / 7.0
    for _ in range(5):
        a, b = random_su2(rng)
        coin = WalkParams(field=Field.rational(1, 7), coin_a=a, coin_b=b).coin
        state = WalkState.single_site(x=int(rng.integers(-2, 3)),
                                      spinor=tuple(random_su2(rng)))
        stepped = electric_evolve(state, 1, phi, coin)
        ref = reference_electric(state_to_dict(state), coin, phi, 1)
        assert max_diff(stepped, ref) < 1e-13


def test_electric_evolve_composes_steps(rng):
    phi = 1.1
    state = WalkState.single_site()
    multi = electric_evolve(state, 6, phi, HADAMARD)
    stepped = state
    for _ in range(6):
        stepped = electric_evolve(stepped, 1, phi, HADAMARD)
    assert max_diff(multi, state_to_dict(stepped)) < 1e-13


def test_gauged_step_matches_time_rule_params():
    phi = 2.0 * math.pi / 9.0
    params = WalkParams(field=Field.rational(1, 9), coin_a=HALF, coin_b=HALF,
                        time_rule=TimeRule.GAUGED_SZ)
    state = WalkState.single_site(spinor=(0.6, 0.8j))
    for t in (1, 2, 5):
        via_gauge = gauged_step(state, t, phi, HADAMARD)
        via_params = evolve(state, t, t, params)
        assert max_diff(via_gauge, state_to_dict(via_params)) < 1e-13


def test_gauge_check_rejects_general_unitary():
    not_su2_form = np.array([[1.0, 0.0], [0.0, 1j]], dtype=complex)
    with pytest.raises(ValueError):
        verify_gauge_equivalence(0.3, not_su2_form, 1)


def test_gauge_identity_explicit(rng):
    """G_t (W^E)^t G_0 equals the gauged evolution, checked step by step."""
    phi = 2.0 * math.pi * 0.3819
    params = WalkParams(field=Field.from_radians(phi), coin_a=HALF,
                        coin_b=HALF, time_rule=TimeRule.GAUGED_SZ)
    state = WalkState.single_site(x=2, spinor=tuple(random_su2(rng)))
    for t in (1, 3, 8, 20):
        gauged = evolve(state, 1, t, params)
        hopped = apply_gauge(state, GaugePhase(phi=phi, t=0))
        hopped = electric_evolve(hopped, t, phi, HADAMARD)
        hopped = apply_gauge(hopped, GaugePhase(phi=phi, t=t))
        assert max_diff(gauged, state_to_dict(hopped)) < 1e-11


@pytest.mark.parametrize("field", [Field.rational(1, 10), Field.golden()])
def test_verify_gauge_equivalence_small(field):
    dev = verify_gauge_equivalence(field.value, HADAMARD, 25, trials=5, seed=3)
    assert dev <= 1e-10


def test_verify_gauge_equivalence_validates():
    with pytest.raises(ValueError):
        verify_gauge_equivalence(0.3, HADAMARD, 0)
    with pytest.raises(ValueError):
        verify_gauge_equivalence(0.3, np.eye(2) * 1j, 5)


@pytest.mark.parametrize("trial", [0, 2, 4])
def test_verify_gauge_equivalence_keeps_a_nan_deviation(monkeypatch, trial):
    nan_in_electric_evolve(monkeypatch, trial)
    assert math.isnan(verify_gauge_equivalence(0.3, HADAMARD, 5, trials=5))


def test_overflowing_site_phases_raise():
    state = WalkState.single_site(x=3, spinor=(0.6, 0.8j))
    with pytest.raises(ValueError, match="field 1e[+]308 rad"):
        electric_evolve(state, 5, 1e308, HADAMARD)
    with pytest.raises(ValueError, match="overflows"):
        apply_gauge(state, GaugePhase(phi=1e307, t=50))


def test_revival_times_coincide_between_rules():
    """Candidate revivals of the x-rotation walk show up at the same times in
    the gauged walk's return probability for balanced coins."""
    m = 6
    rx = WalkParams(field=Field.rational(1, m), coin_a=HALF, coin_b=HALF)
    gz = WalkParams(field=Field.rational(1, m), coin_a=HALF, coin_b=HALF,
                    time_rule=TimeRule.GAUGED_SZ)
    state = WalkState.single_site()
    p_rx = []
    p_gz = []
    s1, s2 = state, state
    for t in range(1, 2 * m + 1):
        s1 = evolve(s1, t, t, rx)
        s2 = evolve(s2, t, t, gz)
        p_rx.append(abs(s1.spinor(0)[0]) ** 2 + abs(s1.spinor(0)[1]) ** 2)
        p_gz.append(abs(s2.spinor(0)[0]) ** 2 + abs(s2.spinor(0)[1]) ** 2)
    # the two rules share the same return series for the balanced coin,
    # and the candidate revival t = m is the peak of the window
    assert np.allclose(p_rx, p_gz, atol=1e-12)
    assert p_rx[m - 1] == max(p_rx)
    assert p_rx[m - 1] > 0.75
