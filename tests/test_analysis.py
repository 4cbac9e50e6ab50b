import dataclasses

import numpy as np
import pytest

import parastab as ps
from parastab.analysis import (
    basin_to_csv,
    gamma_sweep_to_csv,
    sweep_to_csv,
)
from parastab.simulate import HoldSchedule, Trajectory

from conftest import make_problem, make_spectrum


def synthetic_trajectory(times, norms, period=0.2):
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    n = times.size
    return Trajectory(
        kind="linear-closed-loop",
        times=times,
        states=np.zeros((n, 4)),
        schedule=HoldSchedule(period=period, held_values=np.zeros(1)),
        l2_norms=norms,
        sobolev_norms=norms,
        sobolev_order=0.25,
        sample_indices=np.array([0]),
        substeps=1,
        problem_hash="synthetic",
        gains_hash="synthetic",
    )


def test_fit_exact_exponential_is_exact():
    t = np.linspace(0.0, 5.0, 200)
    traj = synthetic_trajectory(t, np.exp(-2.0 * t))
    fit = ps.fit_decay_rate(traj, t_start=0.0)
    assert fit.rate == pytest.approx(2.0, abs=1e-10)
    assert fit.rms_residual < 1e-12


def test_fit_growth_has_negative_rate():
    t = np.linspace(0.0, 3.0, 100)
    traj = synthetic_trajectory(t, 0.5 * np.exp(1.5 * t))
    fit = ps.fit_decay_rate(traj, t_start=0.0)
    assert fit.rate == pytest.approx(-1.5, abs=1e-10)


def test_fit_window_starts_at_two_holds():
    t = np.linspace(0.0, 5.0, 100)
    traj = synthetic_trajectory(t, np.exp(-t), period=0.5)
    fit = ps.fit_decay_rate(traj)
    assert fit.t_start >= 1.0 - 1e-12


def test_fit_rejects_short_windows():
    t = np.linspace(0.0, 1.0, 12)
    traj = synthetic_trajectory(t, np.exp(-t))
    with pytest.raises(ps.DegenerateFit):
        ps.fit_decay_rate(traj, t_start=0.95)


def test_fit_rejects_nonpositive_norms():
    t = np.linspace(0.0, 1.0, 50)
    norms = np.exp(-t)
    norms[30] = 0.0
    traj = synthetic_trajectory(t, norms)
    with pytest.raises(ps.DegenerateFit):
        ps.fit_decay_rate(traj, t_start=0.0)


def test_recursion_check_along_trajectory(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 13)
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 15
    )
    check = ps.check_modal_recursion(gains15, spectrum15, traj)
    assert check.matrix_residual <= 1e-10
    assert check.trajectory_residual <= 5e-3
    assert check.per_sample.shape == (15,)


def test_half_identity_check(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 14)
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 10
    )
    assert ps.check_half_identity(traj, gains15, spectrum15) <= 1e-2


def test_gain_limit_distance_shrinks(spectrum15):
    d2 = ps.gain_limit_distance(spectrum15, (2.0,), 1e-2)
    d1 = ps.gain_limit_distance(spectrum15, (2.0,), 5e-3)
    assert 1.6 <= d2 / d1 <= 2.4
    assert ps.gain_limit_distance(spectrum15, (2.0,), 1e-6) <= 1e-5


def test_sweep_sampling_period_stabilizes(problem15):
    result = ps.sweep_sampling_period(
        problem15, (0.05, 0.2, 1.0), total_time=6.0, seed=3
    )
    assert [r.period for r in result.rows] == [0.05, 0.2, 1.0]
    for row in result.rows:
        assert row.fitted_rate is not None and row.fitted_rate > 0.0
        assert row.contraction_bound == pytest.approx(np.exp(-2.0 * row.period))
        assert row.note == ""
    # distance to the zero-period limit grows with T
    distances = [r.gain_distance for r in result.rows]
    assert distances == sorted(distances)
    assert len(result.histories) == 3


def test_sweep_gain_distance_is_first_order(problem15):
    result = ps.sweep_sampling_period(
        problem15, (1e-2, 5e-3, 2.5e-3), total_time=1.0, seed=3
    )
    d = [row.gain_distance for row in result.rows]
    assert d[0] / d[1] == pytest.approx(2.0, rel=0.2)
    assert d[1] / d[2] == pytest.approx(2.0, rel=0.2)


def test_sweep_rejects_empty_or_negative():
    prob = make_problem()
    with pytest.raises(ValueError):
        ps.sweep_sampling_period(prob, ())
    with pytest.raises(ValueError):
        ps.sweep_sampling_period(prob, (0.1, -0.2))


def test_sweep_gammas(problem15):
    result = ps.sweep_gammas(problem15, [(2.0,), (4.0,), (8.0,)], total_time=5.0)
    rates = [row.fitted_rate for row in result.rows]
    assert all(r is not None and r > 0.0 for r in rates)
    # faster placement decays faster until stepping error bites
    assert rates[1] > rates[0]
    text = gamma_sweep_to_csv(result.rows)
    assert text.startswith("gammas,gain_row,contraction_bound")


def test_sweep_synthesis_error_policies(problem15):
    # two rates for one unstable mode cannot be synthesized: a noted row in
    # the gamma sweep, an exception in the T sweep
    result = ps.sweep_gammas(problem15, [(2.0,), (2.0, 3.0)], total_time=2.0)
    ok, bad = result.rows
    assert ok.note == "" and len(ok.gain_row) == 1
    assert bad.note == "ParastabError: need 1 placement rates, got 2"
    assert bad.gain_row == () and bad.fitted_rate is None
    assert np.isnan(bad.condition_number)
    assert bad.contraction_bound == float(np.exp(-2.0 * 0.2))
    assert [label for label, _, _ in result.histories] == ["gammas=2"]
    # lambda_1 = pi^2 - 5 > 0, so at T = 200 e^{-lambda_1 T} underflows and the
    # float64 weight denominator degenerates while the continuous limit exists:
    # the failure is met inside the row loop of both sweeps
    fast = make_problem(a=5.0, rho=6.0, gammas=(7.0,))
    with pytest.raises(ps.DegenerateDenominator):
        ps.sweep_sampling_period(fast, (0.2, 200.0), total_time=2.0)
    slow = make_problem(a=5.0, rho=6.0, gammas=(7.0,), period=200.0)
    (row,) = ps.sweep_gammas(slow, [(7.0,)], total_time=2.0).rows
    assert row.note.startswith("DegenerateDenominator: ")


def test_estimate_basin_reports_rows(problem15, spectrum15, gains15):
    report = ps.estimate_basin(
        problem15,
        spectrum15,
        gains15,
        (0.0, 0.01, 50.0),
        horizon=30,
        seed=42,
    )
    by_amp = {row.amplitude: row for row in report.rows}
    assert by_amp[0.0].decayed
    assert by_amp[0.01].decayed
    assert by_amp[0.01].fitted_rate > 0.9
    assert not by_amp[50.0].decayed
    assert by_amp[50.0].blowup_time is not None
    assert report.largest_decaying == 0.01
    assert report.smallest_diverging == 50.0
    csv_text = basin_to_csv(report)
    assert "empirical_basin_edge" in csv_text


def test_estimate_basin_bisection_refines(problem15, spectrum15, gains15):
    report = ps.estimate_basin(
        problem15,
        spectrum15,
        gains15,
        (0.01, 50.0),
        horizon=20,
        seed=42,
        bisect_iters=4,
    )
    assert report.refined_edge is not None
    assert 0.01 <= report.refined_edge <= 50.0


def test_sweep_csv_roundtrip(problem15):
    result = ps.sweep_sampling_period(problem15, (0.2,), total_time=4.0)
    text = sweep_to_csv(result.rows)
    header, row = text.strip().split("\n")
    assert header.split(",")[0] == "T"
    assert float(row.split(",")[0]) == 0.2


def test_sweep_rows_independent_of_order(problem15):
    fwd = ps.sweep_sampling_period(problem15, (0.05, 0.2), total_time=3.0)
    rev = ps.sweep_sampling_period(problem15, (0.2, 0.05), total_time=3.0)
    assert fwd.rows[0] == rev.rows[1]
    assert fwd.rows[1] == rev.rows[0]


def test_verification_report_json_and_failures():
    report = ps.VerificationReport()
    report.add("a", "law-a", 1e-12, 1e-10)
    report.add("b", "law-b", 2.0, 1.0)
    assert not report.passed
    assert [c.name for c in report.failures()] == ["b"]
    import json

    payload = json.loads(report.to_json())
    assert payload["passed"] is False
    assert len(payload["checks"]) == 2


def test_run_verification_baseline_passes():
    spec = ps.ProblemSpec(
        nonlinearity=ps.fisher_reaction(15.0),
        grid_points=128,
        sampling_period=0.2,
        target_rate=1.0,
        gammas=(2.0,),
        substeps_per_hold=64,
    )
    report = ps.run_verification(spec, horizon=6)
    assert report.passed, [c.name for c in report.failures()]
    names = {c.name for c in report.checks}
    assert "recursion-identity" in names
    assert "lift-identity-convergence" in names


def test_run_verification_no_unstable_modes_reduces():
    spec = ps.ProblemSpec(
        nonlinearity=ps.linear_reaction(-10.0),
        grid_points=64,
        sampling_period=0.2,
        target_rate=1.0,
    )
    with pytest.warns(UserWarning, match="no eigenvalue below rho"):
        report = ps.run_verification(spec)
    assert report.passed
    assert [c.name for c in report.checks] == ["orthonormality"]
    assert "note" in report.metadata


def test_lognorm_svg_renders(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 2)
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 5
    )
    svg = ps.lognorm_svg([("run", traj.times, traj.l2_norms)])
    assert svg.startswith("<svg")
    assert "polyline" in svg
    with pytest.raises(ValueError):
        ps.lognorm_svg([("empty", np.array([0.0]), np.array([0.0]))])
