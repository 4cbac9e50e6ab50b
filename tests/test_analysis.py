import csv
import dataclasses
import io
import re
import warnings

import numpy as np
import pytest

import parastab as ps
from parastab.analysis import (
    Grid,
    SweepRow,
    basin_to_csv,
    sweep_to_csv,
)
from parastab import analysis, simulate
from parastab.simulate import HoldSchedule, Trajectory

from conftest import count_builds, make_problem, make_spectrum


def synthetic_trajectory(times, norms, period=0.2):
    """One-node deviations equal to the given norms on a unit grid step, so
    the derived L2 history sqrt(1) * sqrt(fl(x * x)) is |x|, exactly."""
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    n = times.size
    return Trajectory(
        kind="linear-closed-loop",
        times=times,
        deviations=norms[:, None],
        offset=None,
        record_holds=np.zeros(n, dtype=int),
        h=1.0,
        schedule=HoldSchedule(period=period, held_values=np.zeros(1)),
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
        Grid(problem15.spec, seed=3), (0.05, 0.2, 1.0), total_time=6.0
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
        Grid(problem15.spec, seed=3), (1e-2, 5e-3, 2.5e-3), total_time=1.0
    )
    d = [row.gain_distance for row in result.rows]
    assert d[0] / d[1] == pytest.approx(2.0, rel=0.2)
    assert d[1] / d[2] == pytest.approx(2.0, rel=0.2)


def test_sweep_rejects_empty_or_negative():
    prob = make_problem()
    with pytest.raises(ValueError):
        ps.sweep_sampling_period(Grid(prob.spec), ())
    with pytest.raises(ValueError):
        ps.sweep_sampling_period(Grid(prob.spec), (0.1, -0.2))
    with pytest.raises(ValueError, match="positive"):
        ps.sweep_sampling_period(Grid(prob.spec), (0.1, float("nan")))
    with pytest.raises(ValueError, match="finite positive"):
        ps.sweep_sampling_period(Grid(prob.spec), (0.1, float("inf")))
    for total_time in (float("inf"), float("nan"), 0.0):
        with pytest.raises(ValueError, match="total_time must be finite and positive"):
            ps.sweep_sampling_period(Grid(prob.spec), (0.1,), total_time=total_time)
        with pytest.raises(ValueError, match="total_time must be finite and positive"):
            ps.sweep_gammas(Grid(prob.spec), [(2.0,)], total_time=total_time)


@pytest.mark.parametrize("amplitude", [-0.5, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
def test_estimate_basin_rejects_bad_amplitudes(problem15, spectrum15, gains15, amplitude):
    with pytest.raises(ValueError, match="amplitudes must be 0 or positive"):
        ps.estimate_basin(problem15, spectrum15, gains15, (0.01, amplitude))


def test_sweep_gammas(problem15):
    result = ps.sweep_gammas(Grid(problem15.spec), [(2.0,), (4.0,), (8.0,)], total_time=5.0)
    rates = [row.fitted_rate for row in result.rows]
    assert all(r is not None and r > 0.0 for r in rates)
    # faster placement decays faster until stepping error bites
    assert rates[1] > rates[0]
    text = sweep_to_csv(result.rows, "gamma")
    assert text.startswith("gammas,gain_row,contraction_bound")


def test_sweep_synthesis_error_policies(problem15):
    # two rates for one unstable mode cannot be synthesized: a noted row in
    # the gamma sweep, an exception in the T sweep
    result = ps.sweep_gammas(Grid(problem15.spec), [(2.0,), (2.0, 3.0)], total_time=2.0)
    ok, bad = result.rows
    assert ok.note == "" and len(ok.gain_row) == 1
    assert bad.note == "ParastabError: need 1 placement rates, got 2"
    assert bad.gain_row == () and bad.fitted_rate is None
    assert np.isnan(bad.condition_number)
    assert bad.contraction_bound == float(np.exp(-2.0 * 0.2))
    assert [label for label, _, _ in result.histories] == ["gammas=2"]
    # lambda_1 = pi^2 - 5 > 0, so at T = 200 the weight is about e^{974}, beyond
    # float64, while the continuous limit exists: the failure is met inside
    # the row loop of both sweeps
    fast = make_problem(a=5.0, rho=6.0, gammas=(7.0,))
    with pytest.raises(ps.SingularBSum):
        ps.sweep_sampling_period(Grid(fast.spec), (0.2, 200.0), total_time=2.0)
    slow = make_problem(a=5.0, rho=6.0, gammas=(7.0,), period=200.0)
    (row,) = ps.sweep_gammas(Grid(slow.spec), [(7.0,)], total_time=2.0).rows
    assert row.note.startswith("SingularBSum: ")


def test_sweep_rows_note_an_unallocatable_record_block(problem15):
    # T = 1e-12 over total_time 1 needs 1e12 holds x 8 records x M = 200
    # doubles, about 11 PiB: beyond any address space, so nothing is allocated
    result = ps.sweep_sampling_period(Grid(problem15.spec), (1e-12,), total_time=1.0)
    (row,) = result.rows
    assert row.note.startswith("ParastabError: cannot allocate the record block")
    assert "horizon 1000000000000 x 8 records per hold) x M = 200 doubles" in row.note
    assert row.fitted_rate is None and len(row.gain_row) == 1
    assert row.gain_distance < 1e-9 and result.histories == ()
    tiny = make_problem(period=1e-12)
    (row,) = ps.sweep_gammas(Grid(tiny.spec), [(2.0,)], total_time=1.0).rows
    assert row.note.startswith("ParastabError: cannot allocate the record block")
    assert row.gain_row == () and np.isnan(row.condition_number)
    assert row.gain_distance is None


T_ROWS = (
    SweepRow(period=0.2, gammas=(2.0,), gain_row=(-20.25, 1.0 / 3.0),
             contraction_bound=float(np.exp(-0.4)), fitted_rate=1.9987654321,
             condition_number=1.0, gain_distance=1.5e-3),
    SweepRow(period=2.0, gammas=(2.0,), gain_row=(-3.5,),
             contraction_bound=float(np.exp(-4.0)), fitted_rate=None,
             condition_number=12.5, gain_distance=0.125,
             note="UnstableStep: norm exceeded 1e+12 at t = 6.5"),
    SweepRow(period=30.0, gammas=(2.0,), gain_row=(-3.5,),
             contraction_bound=0.0, fitted_rate=None,
             condition_number=12.5, gain_distance=0.125,
             note='TooFewSubsteps: 64 substeps, dt*|lambda_1| = 2.4; "77"\nneeded'),
)
GAMMA_ROWS = (
    SweepRow(period=0.2, gammas=(2.0, 3.5), gain_row=(-20.25, 0.1),
             contraction_bound=float(np.exp(-0.4)), fitted_rate=1.75,
             condition_number=3.25),
    SweepRow(period=0.2, gammas=(2.0, 3.0), gain_row=(),
             contraction_bound=float(np.exp(-0.4)), fitted_rate=None,
             condition_number=float("nan"),
             note="ParastabError: need 1 placement rates, got 2"),
)


def test_sweep_csv_golden_text():
    """The exact text of sweep_T.csv and sweep_gamma.csv for literal rows."""
    assert sweep_to_csv(T_ROWS, "T") == (
        "T,gain_row,gain_distance,contraction_bound,fitted_rate,condition_number,note\n"
        "0.20000000000000001,-20.25;0.33333333333333331,0.0015,0.67032004603563933,"
        "1.9987654320999999,1,\n"
        "2,-3.5,0.125,0.018315638888734179,,12.5,"
        "UnstableStep: norm exceeded 1e+12 at t = 6.5\n"
        "30,-3.5,0.125,0,,12.5,"
        '"TooFewSubsteps: 64 substeps, dt*|lambda_1| = 2.4; ""77""\nneeded"\n'
    )
    assert sweep_to_csv(GAMMA_ROWS, "gamma") == (
        "gammas,gain_row,contraction_bound,fitted_rate,condition_number,note\n"
        "2;3.5,-20.25;0.10000000000000001,0.67032004603563933,1.75,3.25,\n"
        '2;3,,0.67032004603563933,,nan,"ParastabError: need 1 placement rates, got 2"\n'
    )
    # a quoted note reads back as one cell, the header's field count per row
    for rows, axis in ((T_ROWS, "T"), (GAMMA_ROWS, "gamma")):
        header, *read = csv.reader(io.StringIO(sweep_to_csv(rows, axis)))
        assert [len(cells) for cells in read] == [len(header)] * len(rows)
        assert [cells[-1] for cells in read] == [row.note for row in rows]
    with pytest.raises(ValueError, match="unknown sweep axis 'amplitude'"):
        sweep_to_csv(T_ROWS, "amplitude")


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


def test_bisection_stops_at_float64_resolution(monkeypatch):
    problem = make_problem(grid_points=32, substeps=8)
    spectrum = make_spectrum(problem)
    gains = ps.build_gains(spectrum, (2.0,), 0.2)
    probes = []
    real = analysis._basin_probe
    monkeypatch.setattr(
        analysis, "_basin_probe", lambda *args: probes.append(args[3]) or real(*args)
    )

    def edge(iters):
        probes.clear()
        report = ps.estimate_basin(
            problem, spectrum, gains, (0.01, 50.0), horizon=20, bisect_iters=iters
        )
        return report.refined_edge, probes[2:]

    refined, bisected = edge(80)
    # the bracket [0.01, 50] closes to adjacent doubles within 60 halvings;
    # every probe is a new amplitude, and stopping there moves no edge
    assert 0.01 < refined < 50.0
    assert len(bisected) <= 60 and len(set(bisected)) == len(bisected)
    assert edge(len(bisected)) == (refined, bisected)


def _count_history_reads(monkeypatch):
    """Replace the two cached norm histories of Trajectory by counting
    properties; returns the {name: reads} dict they fill."""
    reads = {"l2_norms": 0, "sobolev_norms": 0}
    for name in reads:
        derive = Trajectory.__dict__[name].func

        def counting(traj, name=name, derive=derive):
            reads[name] += 1
            return derive(traj)

        monkeypatch.setattr(Trajectory, name, property(counting))
    return reads


def test_sweep_computes_no_sobolev_history(monkeypatch, problem15):
    reads = _count_history_reads(monkeypatch)
    calls = []
    real = simulate.sobolev_norm
    monkeypatch.setattr(simulate, "sobolev_norm", lambda *a: calls.append(a) or real(*a))
    result = ps.sweep_sampling_period(Grid(problem15.spec, seed=3), (0.2, 1.0), total_time=4.0)
    assert all(row.fitted_rate is not None for row in result.rows)
    assert reads["l2_norms"] > 0
    assert reads["sobolev_norms"] == 0
    assert calls == []


def test_basin_computes_no_l2_history(monkeypatch, problem15, spectrum15, gains15):
    reads = _count_history_reads(monkeypatch)
    report = ps.estimate_basin(
        problem15, spectrum15, gains15, (0.01, 50.0), horizon=20, seed=42, bisect_iters=2
    )
    assert report.refined_edge is not None
    assert reads["sobolev_norms"] > 0
    assert reads["l2_norms"] == 0


def test_sweep_csv_roundtrip(problem15):
    result = ps.sweep_sampling_period(Grid(problem15.spec), (0.2,), total_time=4.0)
    text = sweep_to_csv(result.rows, "T")
    header, row = text.strip().split("\n")
    assert header.split(",")[0] == "T"
    assert float(row.split(",")[0]) == 0.2


def test_sweep_rows_independent_of_order(problem15):
    fwd = ps.sweep_sampling_period(Grid(problem15.spec), (0.05, 0.2), total_time=3.0)
    rev = ps.sweep_sampling_period(Grid(problem15.spec), (0.2, 0.05), total_time=3.0)
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


def test_verification_report_window():
    report = ps.VerificationReport()
    inside = report.add("in", "law", 2.0, window=(1.6, 2.4), details={"coarse": 1.0})
    assert inside.passed and inside.tolerance == 2.4
    assert inside.details == {"window": [1.6, 2.4], "coarse": 1.0}
    for residual in (1.5, 2.5, float("nan"), float("inf")):
        assert not report.add("out", "law", residual, window=(1.6, 2.4)).passed
    assert report.add("edge", "law", 1.6, window=(1.6, 2.4)).passed


def test_algebraic_checks_reuse_the_synthesized_system(monkeypatch, gains95):
    from parastab import _exact
    from parastab.analysis import add_algebraic_checks

    rebuilds = []
    real = _exact.gain_system
    monkeypatch.setattr(
        _exact, "gain_system", lambda *args: rebuilds.append(args) or real(*args)
    )
    report = ps.VerificationReport()
    add_algebraic_checks(report, gains95, {})
    assert rebuilds == []
    assert len(report.checks) == 3 and report.passed


def test_row_readers_build_no_gain_system(monkeypatch, spectrum95):
    counts = count_builds(monkeypatch)
    gammas = (2.0, 3.0, 4.0)
    cont = ps.continuous_limit(spectrum95, gammas)
    for period in (1e-6, 1e-2, 5e-3):
        ps.gain_limit_distance(spectrum95, gammas, period, cont)
    ps.gain_limit_distance(spectrum95, gammas, 1e-2)
    assert counts == {"assemble": 0, "eigsy": 0, "compute_spectrum": 0}
    with pytest.raises(ValueError, match="period must be finite and positive"):
        ps.gain_limit_distance(spectrum95, gammas, 0.0, cont)


def test_run_verification_assembles_one_system_per_grid(monkeypatch, problem95):
    """The gains at M alone; pde-gain reads the spectra at M, 2M and 4M and
    their rows, and the small-period records read rows only."""
    counts = count_builds(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = ps.run_verification(problem95.spec)
    assert counts["assemble"] == 1
    assert counts["compute_spectrum"] == 3
    assert {"pde-gain", "small-period-limit", "small-period-order"} <= \
        {c.name for c in report.checks}


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
    assert "pde-gain" in names


PASSING_RECORDS = [
    "orthonormality", "resolution-identity", "recursion-identity", "contraction-bound",
    "lift-identity", "pde-gain", "trajectory-recursion", "half-identity",
    "small-period-limit", "small-period-order",
]


def test_run_verification_records_an_unallocatable_record_block():
    # 1e13 holds x 8 records x M = 32 doubles is about 18 PiB: the seeded
    # run records at the sweeps' rule, every max(8 // 8, 1) = 1 substep
    spec = make_problem(grid_points=32, substeps=8).spec
    report = ps.run_verification(spec, horizon=10**13)
    # one record stands in for the trajectory stage
    assert [c.name for c in report.checks] == \
        PASSING_RECORDS[:6] + ["trajectory-suite"] + PASSING_RECORDS[-2:]
    (suite,) = [c for c in report.checks if c.name == "trajectory-suite"]
    assert not suite.passed and suite.residual == np.inf
    assert suite.details["error"].startswith(
        "ParastabError: cannot allocate the record block of (1 + horizon 10000000000000 x "
        "8 records per hold) x M = 32 doubles"
    )


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


def test_run_verification_record_order():
    report = ps.run_verification(make_problem(grid_points=64).spec)
    assert [c.name for c in report.checks] == PASSING_RECORDS
    assert report.passed


def test_record_table_is_in_stage_order_and_declares_every_tolerance():
    order = [analysis._STAGES.index(record.stage) for record in analysis._RECORDS]
    assert order == sorted(order)
    assert len({record.name for record in analysis._RECORDS}) == len(analysis._RECORDS)
    # the defaults of the [verify] keys: those of the records before the
    # table, less the three ratio keys of the retired 2M twins, plus the
    # pde-gain window
    assert analysis.DEFAULT_VERIFY_TOLERANCES == {
        "orthonormality": 1e-12, "resolution_identity": 1e-10, "recursion_identity": 1e-10,
        "contraction_slack": 1e-8, "lift_identity": 1e-2, "pde_ratio_low": 3.2,
        "pde_ratio_high": 4.8, "half_identity": 1e-2, "trajectory_recursion": 5e-3,
        "limit_distance": 1e-5, "limit_ratio_low": 1.6, "limit_ratio_high": 2.4,
    }
    assert analysis.VERIFY_WINDOWS == (("pde_ratio_low", "pde_ratio_high"),
                                       ("limit_ratio_low", "limit_ratio_high"))


def test_a_record_is_one_table_entry(monkeypatch):
    """An entry added to _RECORDS is measured at its table position and held
    to its own defaults or to an override."""
    records = list(analysis._RECORDS)
    at = [record.name for record in records].index("lift-identity") + 1
    extra = analysis._Record(
        "grid-step", "h-of-the-grid", "grid", lambda g: g.spectrum.h, {"grid_step": 0.1},
    )
    monkeypatch.setattr(analysis, "_RECORDS", tuple(records[:at] + [extra] + records[at:]))
    monkeypatch.setattr(analysis, "DEFAULT_VERIFY_TOLERANCES",
                        {**analysis.DEFAULT_VERIFY_TOLERANCES, **extra.bound})
    spec = make_problem(grid_points=64).spec
    checks = ps.run_verification(spec).checks
    names = [c.name for c in checks]
    assert names == PASSING_RECORDS[:at] + ["grid-step"] + PASSING_RECORDS[at:]
    step = checks[at]
    assert (step.residual, step.tolerance, step.passed) == (1 / 65, 0.1, True)
    overridden = ps.run_verification(spec, tolerances={"grid_step": 1e-3}).checks[at]
    assert overridden.tolerance == 1e-3 and not overridden.passed


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


def test_pde_gain_fails_its_window_on_a_first_order_flux(monkeypatch):
    """pde-gain reads about 4 on a flux that converges at second order in h
    (3.977 at M = 200); a flux with a first-order error, -phi_M / h times
    1 + h, reads about 2 and fails its window, while the identities, which
    read the same flux, still pass."""
    from parastab import spectral

    spec = make_problem().spec
    (record,) = [c for c in ps.run_verification(spec).checks if c.name == "pde-gain"]
    assert record.passed and 3.9 < record.residual < 4.0
    assert record.details["window"] == [3.2, 4.8]
    real = spectral.boundary_flux
    monkeypatch.setattr(spectral, "boundary_flux", lambda mode, h: real(mode, h) * (1.0 + h))
    report = ps.run_verification(spec)
    (record,) = [c for c in report.checks if c.name == "pde-gain"]
    assert not record.passed and record.residual < 2.5
    assert [c.name for c in report.failures()] == ["pde-gain"]


def test_a_refused_crank_nicolson_run_is_recorded():
    """On a non-constant potential (an equilibrium -0.1 sin(pi x)) the linear
    runs are stepped by Crank-Nicolson: at T = 2.0 with 4 substeps it is
    refused, and verify records the refusal as its trajectory-suite and the
    T sweep as the row's note."""
    spec = dataclasses.replace(make_problem(grid_points=64, period=2.0, substeps=4).spec,
                               equilibrium=lambda x: -0.1 * np.sin(np.pi * x))
    refusal = r"TooFewSubsteps: substeps_per_hold = 4 gives dt\*\|lambda_1\| = .* >= 2"
    report = ps.run_verification(spec)
    (suite,) = [c for c in report.checks if c.name == "trajectory-suite"]
    assert re.match(refusal, suite.details["error"])
    assert [c.name for c in report.failures()] == ["trajectory-suite"]
    rows = ps.sweep_sampling_period(Grid(spec), [0.2, 2.0], total_time=10.0).rows
    assert rows[0].note == "" and re.match(refusal, rows[1].note)


def test_pde_gain_reads_inf_when_refinement_changes_the_unstable_count():
    """target_rate 24.4 lies between lambda_2 at M = 32 (24.36) and at
    M = 64 (24.45): the grid has two unstable modes, its refinements one,
    and pde-gain fails naming the counts instead of subtracting rows of
    different lengths."""
    spec = ps.ProblemSpec(nonlinearity=ps.fisher_reaction(15.0), grid_points=32,
                          target_rate=24.4)
    (record,) = [c for c in ps.run_verification(spec).checks if c.name == "pde-gain"]
    assert record.residual == np.inf and not record.passed
    assert record.details["unstable_counts"] == [2, 1, 1]
