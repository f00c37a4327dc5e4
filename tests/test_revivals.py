import math

import numpy as np
import pytest

from conftest import (bits, detect_sign, operator_norm_2x2, random_su2,
                      reference_signed_deviations)
from qpwalk import revivals
from qpwalk.cfrac import cf_expand, golden_ratio_fraction
from qpwalk.momentum import regrouped_block
from qpwalk.revivals import (RevivalReport, _deviation_search, _exact_deviations,
                             _phase_distance, _signed_deviations, expected_sign,
                             irrational_revival_bound, revival_deviation, revival_reports,
                             revival_time)
from qpwalk.walk import (Field, TimeRule, WalkParams, WalkState, evolve,
                         hadamard_params)

HALF = 1.0 / math.sqrt(2.0)


def brute_force_deviation(params, steps, sign, grid=8192):
    worst = 0.0
    eye = np.eye(2)
    for k in np.linspace(-math.pi, math.pi, grid):
        block = regrouped_block(k, params, steps)
        worst = max(worst, operator_norm_2x2(block - sign * eye))
    return worst


def test_revival_deviation_refines_brute_force_grid():
    params = hadamard_params(Field.rational(1, 5))
    dev = revival_deviation(params, 10, -1)
    brute = brute_force_deviation(params, 10, -1)
    assert dev >= brute - 1e-12
    assert dev == pytest.approx(brute, abs=1e-6)


@pytest.mark.parametrize("field, coin, rule, steps, grid", [
    (Field.rational(1, 5), (HALF, HALF), TimeRule.RX_FIELD, 10, 1024),
    (Field.rational(1, 8), (0.6, 0.8j), TimeRule.RX_FIELD, 8, 256),
    (Field.golden(), (HALF, HALF), TimeRule.RX_FIELD, 26, 1024),
    (Field.golden(), (0.6, 0.8j), TimeRule.GAUGED_SZ, 13, 1024),
    (Field.rational(1, 6), (1.0, 0.0), TimeRule.RX_FIELD, 6, 1024),
    (Field.rational(1, 7), (0.0, 1.0), TimeRule.GAUGED_SZ, 14, 1024),
])
def test_signed_deviations_bits_match_reference_zoom(field, coin, rule, steps, grid):
    """Shared step matrices and the entry-by-entry composition keep every bit of the scan."""
    params = WalkParams(field=field, coin_a=coin[0], coin_b=coin[1], time_rule=rule)
    got = _signed_deviations(params, steps, grid)
    want = reference_signed_deviations(params, steps, grid)
    assert np.array_equal(bits(got), bits(want))


COINS = {"hadamard": (HALF, HALF), "complex": (0.6, 0.8j), "identity": (1.0, 0.0),
         "i-sigma-y": (0.0, 1.0)}


def _problem_set(name, coin, rule):
    """(params, steps) problems: rational m = 12, 3, 7, 3, 2 (unsorted, one step
    count twice), the golden convergents d_k = 1, 2, 3, 5, 8, 13, or one problem."""
    if name == "golden":
        params = WalkParams(Field.golden(), *coin, time_rule=rule)
        return [(params, revival_time(d)) for d in (1, 2, 3, 5, 8, 13)]
    ms = (12, 3, 7, 3, 2) if name == "rational" else (5,)
    return [(WalkParams(Field.rational(1, m), *coin, time_rule=rule), revival_time(m))
            for m in ms]


@pytest.mark.parametrize("grid", [256, 1024])
@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
@pytest.mark.parametrize("coin", COINS.values(), ids=COINS.keys())
@pytest.mark.parametrize("name", ["rational", "golden", "single"])
def test_deviation_search_bits_match_each_problem_alone(name, coin, rule, grid):
    """Shared zoom rounds keep every bit of each problem's own per-report search."""
    problems = _problem_set(name, coin, rule)
    got = _deviation_search(problems, grid)
    assert got.shape == (len(problems), 2)
    for row, (params, steps) in zip(got, problems):
        assert np.array_equal(bits(row), bits(reference_signed_deviations(params, steps, grid)))


def test_deviation_search_rejects_mixed_step_orders_and_empty_products():
    rx = (hadamard_params(Field.rational(1, 3)), 6)
    gauged = (hadamard_params(Field.rational(1, 3), TimeRule.GAUGED_SZ), 6)
    with pytest.raises(ValueError, match="one step order"):
        _deviation_search([rx, gauged], 256)
    with pytest.raises(ValueError, match="steps must be positive"):
        _deviation_search([rx, (rx[0], 0)], 256)
    assert _deviation_search([], 256).shape == (0, 2)


def test_deviation_search_composes_each_zoom_round_once(monkeypatch):
    """One grid pass per problem, then one composition per zoom round for all of them."""
    calls = []
    compose = revivals._compose
    monkeypatch.setattr(revivals, "_compose",
                        lambda k, mats, before: calls.append(k.shape) or compose(k, mats, before))
    problems = _problem_set("rational", COINS["hadamard"], TimeRule.RX_FIELD)
    _deviation_search(problems[:1], 1024)
    rounds = len(calls) - 1
    calls.clear()
    _deviation_search(problems, 1024)
    assert calls == [(1, 1024)] * 5 + [(5, 2, revivals._ZOOM_POINTS)] * rounds


def test_revival_reports_match_one_problem_revival_reports_in_input_order():
    problems = [(hadamard_params(Field.rational(1, m)), m) for m in (12, 3, 7, 3, 2)]
    problems.append((WalkParams(Field.golden(), 0.6, 0.8j), 13))
    reports = revival_reports(problems)
    assert reports == [revival_reports([(params, m)])[0] for params, m in problems]
    assert [r.m for r in reports] == [12, 3, 7, 3, 2, 13]
    assert revival_reports([]) == []


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
def test_phase_distance_matches_svd(rng, rule):
    """Frobenius/sqrt(2) of U - c*I equals its largest singular value for SU(2) U."""
    ks = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    cases = []
    for field in (Field.rational(1, 5), Field.rational(2, 7), Field.golden()):
        for _ in range(3):
            a, b = random_su2(rng)
            cases.append((WalkParams(field=field, coin_a=a, coin_b=b,
                                     time_rule=rule), int(rng.integers(1, 15))))
    # near-perfect revivals, where sqrt(2 - c*tr U) keeps only half the digits
    cases.append((WalkParams(field=Field.rational(1, 4), coin_a=1.0, coin_b=0.0), 4))
    cases.append((WalkParams(field=Field.rational(1, 5), coin_a=0.0, coin_b=1.0), 10))
    for params, steps in cases:
        blocks = regrouped_block(ks, params, steps)
        for sign in (+1, -1):
            svd = np.array([operator_norm_2x2(b - sign * np.eye(2)) for b in blocks])
            assert np.abs(_phase_distance(blocks, sign) - svd).max() <= 1e-13
    assert svd.max() <= 1e-14  # the i*sigma_y case really is a perfect revival


def test_revival_deviation_finds_off_grid_maximum(rng):
    """With a generic coin the maximum falls between grid points: the zoom must
    reach it, to within what a 2^16-point SVD scan can resolve."""
    ks = np.linspace(0.0, 2.0 * math.pi, 2 ** 16, endpoint=False)
    for field, steps in ((Field.golden(), 10), (Field.rational(2, 7), 7)):
        a, b = random_su2(rng)
        params = WalkParams(field=field, coin_a=a, coin_b=b)
        blocks = regrouped_block(ks, params, steps)
        for sign in (+1, -1):
            dense = np.linalg.svd(blocks - sign * np.eye(2), compute_uv=False)[:, 0].max()
            dev = revival_deviation(params, steps, sign)
            assert dense - 1e-12 <= dev <= dense + 1e-6


def test_exact_hadamard_laws_odd():
    for m in (3, 5, 7, 9):
        params = hadamard_params(Field.rational(1, m))
        dev = revival_deviation(params, 2 * m, -1)
        assert dev == pytest.approx(2.0 ** (-m / 2.0 + 1.0), abs=1e-9)


def test_exact_hadamard_laws_even():
    for m in (4, 6, 8, 10):
        params = hadamard_params(Field.rational(1, m))
        dev = revival_deviation(params, m, expected_sign(m))
        assert dev == pytest.approx(2.0 ** (-m / 4.0 + 1.0), abs=1e-9)


def test_deviation_bounds_every_state_return(rng):
    """The measured deviation is an operator-norm bound: every state must
    return at least that well at the revival time."""
    m = 5
    params = hadamard_params(Field.rational(1, m))
    dev = revival_deviation(params, 2 * m, -1)
    for _ in range(20):
        x0 = int(rng.integers(-5, 6))
        state = WalkState.single_site(x=x0, spinor=tuple(random_su2(rng)))
        out = evolve(state, 1, 2 * m, params)
        # embed both states on a common window and compare
        xs = range(min(out.x_min, state.x_min), max(out.x_max, state.x_max) + 1)
        diff = 0.0
        for x in xs:
            diff += np.abs(out.spinor(x) - (-1) * state.spinor(x)).sum() ** 2
        assert math.sqrt(diff) <= dev + 1e-9


def test_deviation_bounds_spread_states_too(rng):
    m = 4
    params = hadamard_params(Field.rational(1, m))
    sign = expected_sign(m)
    dev = revival_deviation(params, m, sign)
    amps = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    amps /= np.linalg.norm(amps)
    state = WalkState(x_min=-3, amplitudes=amps)
    out = evolve(state, 1, m, params)
    diff = 0.0
    for x in range(out.x_min, out.x_max + 1):
        diff += np.abs(out.spinor(x) - sign * state.spinor(x)).sum() ** 2
    assert math.sqrt(diff) <= dev + 1e-9


def test_expected_sign_and_time():
    assert [expected_sign(m) for m in (3, 5, 7)] == [-1, -1, -1]
    assert [expected_sign(m) for m in (4, 6, 8, 10)] == [-1, 1, -1, 1]
    assert revival_time(3) == 6
    assert revival_time(4) == 4


def test_detect_sign_agrees_with_expected():
    for m in (3, 4, 5, 6):
        params = hadamard_params(Field.rational(1, m))
        assert detect_sign(params, revival_time(m)) == expected_sign(m)


def test_revival_report_fields():
    report = revival_reports([(hadamard_params(Field.rational(1, 6)), 6)])[0]
    assert report.m == 6
    assert report.parity == "even"
    assert report.revival_time == 6
    assert report.sign == 1
    assert report.exact_deviation == pytest.approx(2.0 ** (-6 / 4.0 + 1.0), abs=1e-12)
    assert report.measured_deviation == pytest.approx(2.0 ** (-6 / 4.0 + 1.0),
                                                      abs=1e-9)
    # sign and deviation come from the same scan as revival_deviation's
    assert report.measured_deviation == revival_deviation(
        hadamard_params(Field.rational(1, 6)), 6, report.sign)


def test_revival_report_rejects_bad_values():
    with pytest.raises(ValueError):
        RevivalReport(m=0, parity="odd", revival_time=1,
                      measured_deviation=0.0, exact_deviation=0.0, sign=-1)
    with pytest.raises(ValueError):
        RevivalReport(m=3, parity="odd", revival_time=6,
                      measured_deviation=0.0, exact_deviation=0.0, sign=2)


def _exact(coin_name, m):
    """The closed-form deviation at field 1/m, as ``RevivalReport.exact_deviation`` takes it."""
    params = WalkParams(Field.rational(1, m), *COINS[coin_name])
    return float(_exact_deviations([(params, m)])[0].min())


def test_exact_deviation_of_the_solvable_coins():
    assert _exact("identity", 3) == 2.0
    assert _exact("identity", 4) == 0.0
    assert _exact("identity", 6) == 2.0  # even but not 0 mod 4
    assert _exact("identity", 8) == 0.0
    assert _exact("i-sigma-y", 3) == 0.0
    assert _exact("i-sigma-y", 6) == 0.0


def test_solvable_coin_reports_measure_their_exact_deviation():
    cases = [(name, m) for name in ("identity", "i-sigma-y") for m in range(2, 13)]
    reports = revival_reports((WalkParams(Field.rational(1, m), *COINS[name]), m)
                              for name, m in cases)
    assert len(reports) == 2 * 11
    for (coin_name, _), report in zip(cases, reports):
        assert report.measured_deviation == pytest.approx(report.exact_deviation, abs=1e-9), (
            coin_name, report.m)
        if coin_name == "identity" and report.m % 4 == 2:
            # both phases lie at distance exactly 2: ties go to +1
            assert report.sign == 1, report.m


def test_exact_deviation_laws():
    """Hadamard: 2^(1-m/2) at odd m, 2^(1-m/4) at even m; identity and i*sigma_y: 2 or 0 exactly."""
    for m in range(1, 25):
        law = 2.0 ** (1.0 - m / 2.0) if m % 2 == 1 else 2.0 ** (1.0 - m / 4.0)
        assert abs(_exact("hadamard", m) - law) <= 1e-12, m
        assert _exact("identity", m) == (0.0 if m % 4 == 0 else 2.0), m
        assert _exact("i-sigma-y", m) == 0.0, m


def _coprime_problems(coins, rule):
    """(params, m) over the coins and m = 1..24, at n = 1 and the largest n < m coprime to m."""
    problems = []
    for a, b in coins:
        for m in range(1, 25):
            top = max((n for n in range(1, m) if math.gcd(n, m) == 1), default=1)
            problems += [(WalkParams(Field.rational(n, m), a, b, time_rule=rule), m)
                         for n in sorted({1, top})]
    return problems


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
def test_exact_deviations_match_the_search(rng, rule):
    """Both signs of the closed form against the numerical search, for any coin and numerator."""
    coins = list(COINS.values()) + [(0.28, -0.96j)] + [random_su2(rng) for _ in range(3)]
    problems = _coprime_problems(coins, rule)
    exact = _exact_deviations(problems)
    measured = _deviation_search([(params, revival_time(m)) for params, m in problems], 1024)
    assert exact.shape == measured.shape == (len(problems), 2)
    assert np.abs(exact - measured).max() <= 1e-12
    assert _exact_deviations([]).shape == (0, 2)


def test_identity_coin_two_step_is_pure_transport():
    # at m = 2 the two-step identity-coin walk is minus a double shift:
    # no deviation smaller than 2 is possible against +-identity
    params = WalkParams(field=Field.rational(1, 2), coin_a=1.0, coin_b=0.0)
    for sign in (-1, 1):
        assert revival_deviation(params, 2, sign) == pytest.approx(2.0,
                                                                   abs=1e-9)


def test_irrational_revival_bound_fibonacci():
    cf = cf_expand(golden_ratio_fraction(), 12)
    # d_4 = 5 (odd): check at doubled time with the 4*pi bound
    time, bound = irrational_revival_bound(cf, 4)
    assert (time, bound) == (10, pytest.approx(4.0 * math.pi))
    # d_5 = 8 (even): plain time, pi bound
    time, bound = irrational_revival_bound(cf, 5)
    assert (time, bound) == (8, pytest.approx(math.pi))


def test_irrational_bound_holds_for_golden_field():
    params = hadamard_params(Field.golden())
    cf = cf_expand(golden_ratio_fraction(), 12)
    for k_index in range(1, 8):
        time, bound = irrational_revival_bound(cf, k_index)
        sign = detect_sign(params, time)
        dev = revival_deviation(params, time, sign, grid=256)
        assert dev <= bound + 1e-9


def test_irrational_revival_bound_validates_index():
    cf = cf_expand(golden_ratio_fraction(), 5)
    with pytest.raises(ValueError):
        irrational_revival_bound(cf, 0)
    with pytest.raises(ValueError):
        irrational_revival_bound(cf, 5)  # needs c_{k+1}
