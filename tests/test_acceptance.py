"""Acceptance suite: the quantitative claims this package is built around.

Each test prints one ``criterion NN: PASS/FAIL`` line (run with ``pytest -s``
to see them all) and then asserts, so a red run still shows every verdict
reached.  Tolerances and grids are part of the contract and are not to be
loosened to make a failing criterion green.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from dpnoise.analysis import SweepConfig, emit, run_sweep
from dpnoise.baselines import Gaussian, analytic_gaussian_sigma
from dpnoise.bounds import (
    amplitude_lower_bound,
    bound_pair,
    lower_bound_params,
    power_lower_bound,
)
from dpnoise.cli import main
from dpnoise.core import CostKind, PrivacyParams
from dpnoise.trunclap import TruncatedLaplace
from dpnoise.verifier import discretize, dp_check

GRID_EPS = np.geomspace(1e-4, 10.0, 20)
GRID_DELTA = np.geomspace(1e-6, 0.1, 20)

VERIFY_EPS = np.geomspace(1e-3, 10.0, 10)
VERIFY_DELTA = np.geomspace(1e-6, 0.1, 10)

GAUSS_EPS = np.geomspace(0.1, 3.0, 5)
GAUSS_DELTA = np.geomspace(1e-6, 1e-3, 5)


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {verdict} - {detail}")


def test_01_closed_forms_match_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for eps in GRID_EPS:
        for delta in GRID_DELTA:
            mech = TruncatedLaplace.from_privacy(
                PrivacyParams(float(eps), float(delta)), 1.0
            )
            radius = mech.params.radius
            amp, _ = quad(
                lambda x: x * mech.pdf(x), 0.0, radius, epsabs=0.0, epsrel=1e-11
            )
            pwr, _ = quad(
                lambda x: x * x * mech.pdf(x),
                0.0,
                radius,
                epsabs=0.0,
                epsrel=1e-11,
            )
            worst = max(
                worst,
                abs(mech.expected_amplitude - 2.0 * amp) / (2.0 * amp),
                abs(mech.expected_power - 2.0 * pwr) / (2.0 * pwr),
            )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(1, ok, f"worst rel err {worst:.2e} over 20x20 grid in {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_02_verifier_confirms_calibration():
    start = time.perf_counter()
    accept_fail = reject_fail = 0
    for eps in VERIFY_EPS:
        for delta in VERIFY_DELTA:
            params = PrivacyParams(float(eps), float(delta))
            mech = TruncatedLaplace.from_privacy(params, 1.0)
            dist = discretize(mech, 1.0, step=1e-3)
            accept = dp_check(dist, params)
            if not (
                accept.passed
                and accept.max_violation <= params.delta + accept.tolerance
            ):
                accept_fail += 1
            halved = dp_check(dist, PrivacyParams(params.epsilon, params.delta / 2))
            if halved.passed:
                reject_fail += 1
    elapsed = time.perf_counter() - start
    ok = accept_fail == 0 and reject_fail == 0 and elapsed < 60.0
    report(
        2,
        ok,
        f"10x10 grid at h=1/1000: {accept_fail} wrong accepts, "
        f"{reject_fail} wrong rejects in {elapsed:.1f}s",
    )
    assert accept_fail == 0
    assert reject_fail == 0
    assert elapsed < 60.0


def test_03_structural_identities():
    worst_tail = worst_decay = 0.0
    for eps in GRID_EPS:
        for delta in GRID_DELTA:
            mech = TruncatedLaplace.from_privacy(
                PrivacyParams(float(eps), float(delta)), 1.0
            )
            radius = mech.params.radius
            tail = float(mech.interval_mass(radius - 1.0, radius))
            worst_tail = max(worst_tail, abs(tail - delta) / delta)
            xs = np.linspace(0.0, radius - 1.0, 7)
            ratio = np.asarray(mech.pdf(xs)) / np.asarray(mech.pdf(xs + 1.0))
            worst_decay = max(
                worst_decay, float(np.max(np.abs(ratio / math.exp(eps) - 1.0)))
            )
    ok = worst_tail < 1e-12 and worst_decay < 1e-12
    report(
        3,
        ok,
        f"tail-slice mass rel err {worst_tail:.2e}, "
        f"decay-rate rel err {worst_decay:.2e}",
    )
    assert worst_tail < 1e-12
    assert worst_decay < 1e-12


def _gap_ratio(eps: float, delta: float, cost: str) -> float:
    return bound_pair(PrivacyParams(eps, delta), 1.0, cost=cost).ratio


def test_04_amplitude_bound_gap_limits():
    start = time.perf_counter()
    r_small_eps = _gap_ratio(1e-7, 1e-3, "amplitude")
    r_small_delta = _gap_ratio(0.5, 1e-12, "amplitude")
    r_diag = _gap_ratio(1e-5, 1e-5, "amplitude")
    elapsed = time.perf_counter() - start
    lim_eps = 1.0 - 2.0 * 1e-3
    lim_delta = 0.5 / math.expm1(0.5)
    checks = [
        r_small_eps >= lim_eps - 1e-3,
        r_small_delta >= lim_delta - 1e-6,
        0.99 <= r_diag <= 1.0,
        elapsed < 1.0,
    ]
    report(
        4,
        all(checks),
        f"ratios {r_small_eps:.9f} (>= {lim_eps - 1e-3:.6f}), "
        f"{r_small_delta:.9f} (>= {lim_delta - 1e-6:.9f}), "
        f"{r_diag:.9f} (in [0.99, 1]) in {elapsed:.2f}s",
    )
    assert all(checks)


def test_05_power_bound_gap_limits():
    start = time.perf_counter()
    r_small_eps = _gap_ratio(1e-7, 1e-3, "power")
    r_small_delta = _gap_ratio(0.5, 1e-12, "power")
    r_diag = _gap_ratio(1e-5, 1e-5, "power")
    elapsed = time.perf_counter() - start
    lim_eps = (1.0 - 1e-3) * (1.0 - 2.0 * 1e-3)
    e = math.exp(0.5)
    lim_delta = 0.25 * (1.0 + e) / (2.0 * math.expm1(0.5) ** 2)
    checks = [
        r_small_eps >= lim_eps - 1e-3,
        r_small_delta >= lim_delta - 1e-6,
        0.99 <= r_diag <= 1.0,
        elapsed < 1.0,
    ]
    report(
        5,
        all(checks),
        f"ratios {r_small_eps:.9f} (>= {lim_eps - 1e-3:.6f}), "
        f"{r_small_delta:.9f} (>= {lim_delta - 1e-6:.9f}), "
        f"{r_diag:.9f} (in [0.99, 1]) in {elapsed:.2f}s",
    )
    assert all(checks)


def test_06_matched_regime_constants():
    # with delta = epsilon -> 0 the scaled costs approach constants built
    # from log(3/2)
    mech = TruncatedLaplace.from_privacy(PrivacyParams(1e-6, 1e-6), 1.0)
    amp_scaled = mech.expected_amplitude * 1e-6
    pow_scaled = mech.expected_power * 1e-12 / 2.0
    log15 = math.log(1.5)
    amp_target = 1.0 - 2.0 * log15
    pow_target = 1.0 - log15 * log15 - 2.0 * log15
    ok = abs(amp_scaled - amp_target) <= 1e-4 and abs(pow_scaled - pow_target) <= 1e-4
    report(
        6,
        ok,
        f"amplitude {amp_scaled:.10f} vs {amp_target:.10f}, "
        f"power {pow_scaled:.10f} vs {pow_target:.10f}",
    )
    assert abs(amp_scaled - amp_target) <= 1e-4
    assert abs(pow_scaled - pow_target) <= 1e-4


def test_07_cheaper_than_gaussian_everywhere():
    start = time.perf_counter()
    amp_rows = run_sweep(SweepConfig())
    pow_rows = run_sweep(SweepConfig(cost=CostKind.POWER))
    amp_bad = sum(r.ratio_tl_gauss >= 1.0 for r in amp_rows)
    pow_bad = sum(r.ratio_tl_gauss >= 1.0 for r in pow_rows)
    identical = emit(amp_rows, "csv") == emit(run_sweep(SweepConfig()), "csv")
    elapsed = time.perf_counter() - start
    ok = amp_bad == 0 and pow_bad == 0 and identical and elapsed < 30.0
    report(
        7,
        ok,
        f"amplitude {amp_bad}/400 and power {pow_bad}/400 points at ratio "
        f">= 1; rerun byte-identical: {identical}; {elapsed:.1f}s",
    )
    assert amp_bad == 0
    assert pow_bad == 0
    assert identical
    assert elapsed < 30.0


def test_08_gaussian_calibration_sharpness():
    wrong_accept = wrong_reject = order_fail = 0
    for eps in GAUSS_EPS:
        for delta in GAUSS_DELTA:
            params = PrivacyParams(float(eps), float(delta))
            sigma = analytic_gaussian_sigma(params, 1.0)
            ok_report = dp_check(discretize(Gaussian(sigma), 1.0), params)
            if not ok_report.passed:
                wrong_accept += 1
            bad_report = dp_check(
                discretize(Gaussian(0.99 * sigma), 1.0), params
            )
            if bad_report.passed:
                wrong_reject += 1
            # the textbook sigma, proven for eps in (0, 1) only
            textbook = math.sqrt(2.0 * math.log(1.25 / params.delta)) / params.epsilon
            if eps < 1.0 and sigma > textbook:
                order_fail += 1
    ok = wrong_accept == 0 and wrong_reject == 0 and order_fail == 0
    report(
        8,
        ok,
        f"5x5 grid: {wrong_accept} rejected calibrations, {wrong_reject} "
        f"accepted undersized sigmas, {order_fail} above-classic sigmas",
    )
    assert wrong_accept == 0
    assert wrong_reject == 0
    assert order_fail == 0


def test_09_sampler_distribution():
    mech = TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-5), 1.0)
    n = 100_000
    x = mech.sample(np.random.default_rng(20260819), n)
    radius = mech.params.radius
    in_support = bool(np.all(np.abs(x) <= radius))
    xs = np.sort(x)
    u = np.asarray(mech.cdf(xs))
    i = np.arange(1, n + 1)
    ks = float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))
    ks_limit = 1.63 / math.sqrt(n)
    amp = np.abs(x)
    se = float(np.std(amp, ddof=1)) / math.sqrt(n)
    offset = abs(float(amp.mean()) - mech.expected_amplitude) / se
    ok = ks < ks_limit and in_support and offset < 3.0
    report(
        9,
        ok,
        f"KS {ks:.5f} < {ks_limit:.5f}, support ok: {in_support}, "
        f"mean amplitude off by {offset:.2f} standard errors",
    )
    assert ks < ks_limit
    assert in_support
    assert offset < 3.0


def kahan_sum(terms) -> float:
    total = 0.0
    comp = 0.0
    for t in terms:
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def test_10_series_oracle():
    # the staircase behind the lower bounds puts mass a*b^k at +-k, so at an
    # integer step count the closed forms must equal bare power-series sums
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(50):
        eps = float(rng.uniform(0.02, 0.5))
        n_lo = max(2, math.ceil(1.0 / eps))
        n = int(rng.integers(n_lo, int(20.0 / eps)))
        delta = math.expm1(eps) / (2.0 * math.expm1(eps * n))
        lb = lower_bound_params(PrivacyParams(eps, delta), 1.0)
        assert abs(lb.steps_fractional - n) < 1e-6 * n
        a, b = lb.mass_coeff, lb.decay_ratio
        amp_terms = sorted((k * b**k for k in range(n)), key=abs)
        pow_terms = sorted((k * k * b**k for k in range(n)), key=abs)
        amp_series = 2.0 * a * kahan_sum(amp_terms)
        pow_series = 2.0 * a * kahan_sum(pow_terms)
        amp_closed = amplitude_lower_bound(lb, steps=n)
        pow_closed = power_lower_bound(lb, steps=n)
        worst = max(
            worst,
            abs(amp_closed - amp_series) / amp_series,
            abs(pow_closed - pow_series) / pow_series,
        )
    ok = worst < 1e-12
    report(10, ok, f"worst closed-vs-series rel err {worst:.2e} over 50 draws")
    assert worst < 1e-12


def test_11_cli_query_flow(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    lines = ["id,spend"] + [f"{i},{(i * 7) % 23}" for i in range(137)]
    data.write_text("\n".join(lines) + "\n")
    ledger = tmp_path / "ledger.jsonl"

    base = [
        "query", "--input", str(data), "--column", "spend",
        "--seed", "median", "--ledger", str(ledger),
    ]
    code1 = main(base + ["--eps", "0.5", "--delta", "1e-5"])
    out1 = json.loads(capsys.readouterr().out)
    code2 = main(base + ["--eps", "0.25", "--delta", "1e-5", "--mech", "laplace"])
    out2 = json.loads(capsys.readouterr().out)

    totals = [0.0, 0.0]
    with open(ledger) as fh:
        entries = [json.loads(line) for line in fh]
    for e in entries:
        totals[0] += e["epsilon"]
        totals[1] += e["delta"]

    code_budget = main(
        base + ["--eps", "0.5", "--delta", "1e-5", "--budget-eps", "0.75"]
    )
    capsys.readouterr()
    code_invalid = main(
        base + ["--eps", "0.5", "--delta", "1e-5", "--aggregate", "sum"]
    )
    capsys.readouterr()

    checks = {
        "exact count": code1 == 0 and out1["noisy_value"] == 137.0,
        "laplace spends no delta": code2 == 0 and out2["delta_spent"] == 0.0,
        "ledger totals": len(entries) == 2
        and totals[0] == pytest.approx(0.75)
        and totals[1] == pytest.approx(1e-5),
        "budget exit 3": code_budget == 3,
        "invalid exit 2": code_invalid == 2,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    with capsys.disabled():
        report(11, ok, "all exit codes and totals correct" if ok else f"failed: {failed}")
    assert ok, failed
