"""Optimizer building blocks: TV prox, projection, iteration, bookkeeping.

The TV prox is checked against its own objective (a convex function, so
local optimality under random perturbations certifies the minimizer) and
against small cases with hand-derived solutions.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from qpmp.lindblad import (
    cost_of_control,
    propagate_costate,
    propagate_rho,
    switching_function,
)
from qpmp.optimizer import (
    FilterParams,
    IterationRecord,
    SampleSchedule,
    _solve_bin_value,
    _transversal_bins,
    deterministic_provider,
    gradient_step,
    optimize,
    polish_control,
    project_controls,
    read_records_csv,
    records_to_csv,
    stochastic_provider,
    tv_denoise_values,
    tv_objective,
)
from qpmp.problems import (
    ControlSchedule,
    make_preparation_problem,
    make_retention_problem,
    step_control,
    zero_control,
)


def test_filter_params_validation():
    FilterParams(eta=0.5, w_tv=0.0, epsilon=0.0, epsilon_warmup=0)
    with pytest.raises(ValueError):
        FilterParams(eta=0.0)
    with pytest.raises(ValueError):
        FilterParams(w_tv=-0.1)
    with pytest.raises(ValueError):
        FilterParams(epsilon=1.0)
    with pytest.raises(ValueError):
        FilterParams(epsilon_warmup=-1)


def test_sample_schedule():
    s = SampleSchedule(segments=((100, 50), (100, 200)))
    assert s.n_at(0) == 50
    assert s.n_at(99) == 50
    assert s.n_at(100) == 200
    assert s.n_at(500) == 200  # last segment extends
    assert SampleSchedule.constant(7).n_at(123) == 7
    with pytest.raises(ValueError):
        SampleSchedule(segments=())
    with pytest.raises(ValueError):
        SampleSchedule(segments=((0, 5),))
    with pytest.raises(ValueError):
        SampleSchedule(segments=((5, 0),))


def test_tv_denoise_trivial_cases():
    y = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(tv_denoise_values(y, 0.0), y)
    c = np.full(6, 0.7)
    assert np.allclose(tv_denoise_values(c, 0.3), c)
    # huge weight: any remaining jump would pay more than it saves
    big = tv_denoise_values(np.array([4.0, 0.0, -4.0, 4.0]), 100.0)
    assert np.allclose(big, big.mean() * np.ones(4), atol=1e-12)
    assert np.allclose(big.mean(), 1.0)


def test_tv_denoise_two_point_analytic():
    # n=2: x = (a + s, b - s) with s = sign(b-a) * min(w, |b-a|/2)
    for a, b, w in [(0.0, 1.0, 0.2), (0.0, 1.0, 5.0), (2.0, -1.0, 0.5)]:
        got = tv_denoise_values(np.array([a, b]), w)
        s = np.sign(b - a) * min(w, abs(b - a) / 2)
        assert np.allclose(got, [a + s, b - s], atol=1e-12)


def test_tv_denoise_minimizes_objective():
    # convexity: beating every random perturbation certifies the minimum
    rng = np.random.default_rng(11)
    for case in range(100):
        n = int(rng.integers(1, 30))
        y = rng.normal(size=n) * rng.uniform(0.1, 5)
        w = float(rng.uniform(0, 1.5))
        x = tv_denoise_values(y, w)
        base = tv_objective(x, y, w)
        for _ in range(20):
            trial = x + rng.normal(size=n) * 1e-4
            assert tv_objective(trial, y, w) >= base - 1e-12


def test_tv_denoise_nonexpansive():
    rng = np.random.default_rng(12)
    for case in range(150):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=n) * 3
        b = a + rng.normal(size=n) * rng.uniform(0.01, 2)
        w = float(rng.uniform(0, 2))
        da = tv_denoise_values(a, w)
        db = tv_denoise_values(b, w)
        assert (np.linalg.norm(da - db)
                <= np.linalg.norm(a - b) + 1e-10)


def test_tv_denoise_validation():
    with pytest.raises(ValueError):
        tv_denoise_values(np.array([1.0]), -0.5)
    with pytest.raises(ValueError):
        tv_denoise_values(np.zeros((2, 2)), 0.1)
    with pytest.raises(ValueError):
        tv_denoise_values(np.array([]), 0.1)


def test_projection_values_and_idempotence():
    u = ControlSchedule(values=np.array([0.0, 0.5, 0.93, -0.97, 1.4, -2.0]),
                        dt=0.1)
    p = project_controls(u, 0.1, 1.0)
    assert np.array_equal(p.values, [0.0, 0.5, 1.0, -1.0, 1.0, -1.0])
    again = project_controls(p, 0.1, 1.0)
    assert np.array_equal(again.values, p.values)
    # epsilon = 0 is a pure clamp
    clip = project_controls(u, 0.0, 1.0)
    assert np.array_equal(clip.values, [0.0, 0.5, 0.93, -0.97, 1.0, -1.0])
    with pytest.raises(ValueError):
        project_controls(u, 1.0, 1.0)
    with pytest.raises(ValueError):
        project_controls(u, -0.2, 1.0)


def test_projection_idempotent_randomized():
    rng = np.random.default_rng(13)
    for case in range(150):
        n = int(rng.integers(1, 50))
        u = ControlSchedule(values=rng.normal(size=n) * 2, dt=0.05)
        eps = float(rng.uniform(0, 0.9))
        p = project_controls(u, eps, 1.0)
        assert np.abs(p.values).max() <= 1.0
        assert np.array_equal(project_controls(p, eps, 1.0).values, p.values)


def test_gradient_step_grid_mismatch():
    u = zero_control(1.0, 10)
    spec = make_retention_problem(n_bins=20)
    us = step_control(spec.t_f, 20)
    rho = propagate_rho(spec, us)
    lam = propagate_costate(spec, us)
    phi = switching_function(rho, lam, spec.Hu)
    with pytest.raises(ValueError):
        gradient_step(u, phi, 0.5)


def test_optimize_descends_deterministically():
    spec = make_preparation_problem(n_bins=40)
    recs = optimize(spec, deterministic_provider(), FilterParams(),
                    SampleSchedule.constant(1),
                    zero_control(spec.t_f, 40), 60)
    assert len(recs) == 61
    costs = [r.cost_det for r in recs]
    assert costs[-1] < costs[0] - 0.05
    assert recs[-1].n_realizations == 1
    assert recs[-1].cost_stoch is None


def test_deterministic_cost_det_is_cost_of_control():
    # The provider prices each control from its own forward sweep; that
    # must be the very number a separate forward propagation gives.
    spec = make_preparation_problem(n_bins=40)
    recs = optimize(spec, deterministic_provider(), FilterParams(),
                    SampleSchedule.constant(1),
                    zero_control(spec.t_f, 40), 12)
    for rec in recs:
        assert rec.cost_det == cost_of_control(spec, rec.u)


def test_solve_bin_value_matches_full_propagation_root():
    # Part-way to the optimum most bins have an interior root; the end bins
    # still push into a bound.
    spec = make_preparation_problem(n_bins=30)
    u = optimize(spec, deterministic_provider(), FilterParams(),
                 SampleSchedule.constant(1), zero_control(spec.t_f, 30),
                 60)[-1].u

    def full_phi(i, v):
        vals = u.values.copy()
        vals[i] = v
        w = u.with_values(vals)
        return switching_function(propagate_rho(spec, w),
                                  propagate_costate(spec, w),
                                  spec.Hu).values[i]

    interior = bound = 0
    for i in range(0, 30, 3):
        got = _solve_bin_value(spec, u, i).values
        assert np.array_equal(np.delete(got, i), np.delete(u.values, i))
        f_lo, f_hi = full_phi(i, -1.0), full_phi(i, 1.0)
        if np.sign(f_lo) == np.sign(f_hi):
            assert got[i] == (1.0 if f_lo < 0.0 else -1.0)
            bound += 1
            continue
        interior += 1
        root = brentq(lambda v: full_phi(i, v), -1.0, 1.0, xtol=1e-13,
                      rtol=8.9e-16)
        assert got[i] == pytest.approx(root, abs=1e-12)
    assert interior > 0 and bound > 0


def test_zero_control_is_a_stationary_point_of_retention():
    # Both boundary states lie in a plane the u = 0 flow preserves, so the
    # gradient vanishes identically and the iteration must not move.
    spec = make_retention_problem()
    recs = optimize(spec, deterministic_provider(), FilterParams(),
                    SampleSchedule.constant(1),
                    zero_control(spec.t_f, spec.n_bins), 5)
    for rec in recs:
        assert np.abs(rec.phi.values).max() < 1e-13
        assert np.array_equal(rec.u.values, np.zeros(spec.n_bins))


def test_optimize_epsilon_warmup_delays_snap():
    # with warmup >= iterations the snap margin never applies, so no value
    # may exceed the plain gradient flow's range; with warmup 0 the same
    # run saturates bins early
    spec = make_preparation_problem(n_bins=30)
    hot = FilterParams(eta=0.5, w_tv=0.0, epsilon=0.6, epsilon_warmup=0)
    cold = FilterParams(eta=0.5, w_tv=0.0, epsilon=0.6, epsilon_warmup=100)
    u0 = zero_control(spec.t_f, 30)
    sched = SampleSchedule.constant(1)
    r_hot = optimize(spec, deterministic_provider(), hot, sched, u0, 8)
    r_cold = optimize(spec, deterministic_provider(), cold, sched, u0, 8)
    sat_hot = np.sum(np.abs(r_hot[-1].u.values) == 1.0)
    sat_cold = np.sum(np.abs(r_cold[-1].u.values) == 1.0)
    assert sat_hot > sat_cold


def test_optimize_validation_and_failure_wrapping():
    spec = make_retention_problem(n_bins=20)
    u0 = zero_control(spec.t_f, 20)
    with pytest.raises(ValueError):
        optimize(spec, deterministic_provider(), FilterParams(),
                 SampleSchedule.constant(1), u0, 0)

    def broken(spec, u, n, seed):
        raise KeyError("boom")

    with pytest.raises(RuntimeError, match="iteration 0"):
        optimize(spec, broken, FilterParams(), SampleSchedule.constant(1),
                 u0, 3)


def test_stochastic_optimize_reproducible():
    spec = make_retention_problem(n_bins=30)
    u0 = step_control(spec.t_f, 30)
    sched = SampleSchedule.constant(20)
    a = optimize(spec, stochastic_provider(2), FilterParams(), sched, u0, 4,
                 master_seed=5)
    b = optimize(spec, stochastic_provider(2), FilterParams(), sched, u0, 4,
                 master_seed=5)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.u.values, rb.u.values)
        assert ra.cost_stoch.mean == rb.cost_stoch.mean
    c = optimize(spec, stochastic_provider(2), FilterParams(), sched, u0, 4,
                 master_seed=6)
    assert not np.array_equal(a[-1].u.values, c[-1].u.values)


def test_stochastic_provider_procedure1_reports_cost():
    spec = make_retention_problem(n_bins=30)
    u0 = step_control(spec.t_f, 30)
    recs = optimize(spec, stochastic_provider(1), FilterParams(),
                    SampleSchedule.constant(15), u0, 2, master_seed=3)
    assert all(r.cost_stoch is not None for r in recs)
    with pytest.raises(ValueError):
        stochastic_provider(3)


def test_transversal_bin_detection():
    def bins(vals):
        return _transversal_bins(np.asarray(vals, dtype=float), 1.0)

    assert bins([1, 1, 0.3, -1, -1]) == [2]
    assert bins([-1, 0.2, 0.4, 1, 1]) == [1, 2]
    assert bins([1, 0.2, 0.1, 0.05, -1]) == []      # run of three: singular
    assert bins([1, 0.3, 1, -1]) == []               # same-sign flanks
    assert bins([0.4, -1, 1, 0.5]) == []             # runs touching the ends
    assert bins([1, -1, 1, -1]) == []                # no fractional bins
    assert bins([1, 0.5, -1, -1, 0.7, 1]) == [1, 4]  # two separate switches


def test_polish_control_reaches_stationarity():
    # after polishing, interior bins carry (near) zero gradient and
    # saturated bins have the gradient pushing outward
    spec = make_preparation_problem(n_bins=50)
    recs = optimize(spec, deterministic_provider(), FilterParams(),
                    SampleSchedule.constant(1),
                    zero_control(spec.t_f, 50), 150)
    u = polish_control(spec, recs[-1].u, block=150, max_blocks=6)
    rho = propagate_rho(spec, u)
    lam = propagate_costate(spec, u)
    phi = switching_function(rho, lam, spec.Hu).values
    scale = np.abs(phi).max()
    sat = np.abs(u.values) == 1.0
    assert np.abs(phi[~sat]).max() < 1e-3 * scale
    strong = sat & (np.abs(phi) > 1e-3 * scale)
    assert np.all(np.sign(u.values[strong]) == -np.sign(phi[strong]))


def test_records_csv_round_trip():
    spec = make_retention_problem(n_bins=24)
    recs = optimize(spec, stochastic_provider(2), FilterParams(),
                    SampleSchedule.constant(10),
                    step_control(spec.t_f, 24), 3, master_seed=9)
    text = records_to_csv(recs)
    rows = read_records_csv(text)
    assert len(rows) == len(recs)
    for row, rec in zip(rows, recs):
        assert row["k"] == rec.k
        assert row["n_realizations"] == rec.n_realizations
        assert row["cost_det"] == rec.cost_det
        assert row["cost_stoch"] == rec.cost_stoch.mean
    det = optimize(spec, deterministic_provider(), FilterParams(),
                   SampleSchedule.constant(1),
                   step_control(spec.t_f, 24), 2)
    rows = read_records_csv(records_to_csv(det))
    assert rows[0]["cost_stoch"] is None


def test_iteration_record_requires_a_cost():
    u = zero_control(1.0, 4)
    phi = switching_function
    with pytest.raises(ValueError):
        IterationRecord(k=0, u=u, phi=None, cost_det=None, cost_stoch=None,
                        n_realizations=1)
