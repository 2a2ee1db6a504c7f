"""Deterministic engine: propagation, switching function, cost gradients.

Golden numbers marked below were produced by an independent oracle that
integrates the matrix-valued master (and adjoint) equation with
scipy.integrate.solve_ivp (DOP853, rtol=1e-12, atol=1e-14), without any
vectorization or matrix exponentials.  They are frozen here; the engine
must reproduce them through a completely different code path.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from qpmp.lindblad import (
    OperatorPath,
    SwitchingCurve,
    _bin_switching,
    _sweep_rho,
    bang_from_phi,
    c_hamiltonian,
    conserved_pairing,
    cost_of_control,
    curve_to_csv,
    finite_difference_curve,
    finite_difference_gradient,
    liouvillian,
    path_to_csv,
    propagate_costate,
    propagate_rho,
    read_curve_csv,
    read_path_csv,
    switching_function,
    terminal_cost,
)
from qpmp.problems import (
    ControlSchedule,
    make_preparation_problem,
    make_retention_problem,
    step_control,
    zero_control,
)
from qpmp.quantum_core import SIGMA_X, dag

# Golden: retention problem, u = 0 everywhere, independent ODE oracle.
RHO_TF_RETENTION_FREE = np.array([
    [0.5239325475503905 + 0.0j, 0.0 - 0.01738801359885287j],
    [0.0 + 0.01738801359885287j, 0.4760674524496090 + 0.0j],
])
LAM_T0_RETENTION_FREE = np.array([
    [-0.5239325475503910 + 0.0j, 0.0 - 0.01738801359885295j],
    [0.0 + 0.01738801359885295j, -0.4760674524496092 + 0.0j],
])


def random_control(spec, rng, scale=1.0):
    return ControlSchedule(
        values=rng.uniform(-scale, scale, spec.n_bins), dt=spec.dt)


def test_golden_free_evolution_state():
    spec = make_retention_problem()
    u = zero_control(spec.t_f, spec.n_bins)
    rho = propagate_rho(spec, u)
    assert np.abs(rho.ops[-1] - RHO_TF_RETENTION_FREE).max() < 5e-12


def test_golden_free_evolution_costate():
    spec = make_retention_problem()
    u = zero_control(spec.t_f, spec.n_bins)
    lam = propagate_costate(spec, u)
    assert np.abs(lam.ops[0] - LAM_T0_RETENTION_FREE).max() < 5e-12


def test_unitary_limit_closed_form():
    # gamma = 0, u = 0: rho(t) = e^{-i sx t} rho0 e^{+i sx t}, evaluated
    # directly from the 2x2 exponential.
    import dataclasses
    spec = dataclasses.replace(make_retention_problem(), gamma=0.0)
    u = zero_control(spec.t_f, spec.n_bins)
    rho = propagate_rho(spec, u)
    for idx in (1, 37, 100):
        t = rho.times[idx]
        U = expm(-1j * SIGMA_X * t)
        expected = U @ spec.rho_ini @ dag(U)
        assert np.abs(rho.ops[idx] - expected).max() < 1e-12


def test_maximally_mixed_state_is_stationary():
    # L = sx is unital, so 1/2 is a fixed point for every control value.
    spec = make_retention_problem()
    rho0 = 0.5 * np.eye(2, dtype=complex)
    for uval in (-1.0, 0.0, 0.7):
        M = liouvillian(SIGMA_X + uval * np.diag([1.0, -1.0]), spec.L,
                        spec.gamma)
        assert np.abs(M @ rho0.reshape(-1)).max() < 1e-14


def test_affine_generator_matches_liouvillian():
    # H(u) = H0 + u*Hu enters linearly, so M(u) = M0 + u*Mu exactly up to
    # rounding of the affine combination.
    for spec in (make_retention_problem(), make_preparation_problem()):
        M0, Mu = spec.generators
        for uval in (-1.0, -0.37, 0.0, 0.5, 1.0, 2.3):
            M = liouvillian(spec.H0 + uval * spec.Hu, spec.L, spec.gamma)
            assert np.abs(M0 + uval * Mu - M).max() < 1e-14


def test_local_switching_matches_full_propagation():
    # Phi_i(v) from one sweep each way against a full re-propagation with
    # bin i set to v.
    rng = np.random.default_rng(14)
    for spec in (make_retention_problem(), make_preparation_problem()):
        u = random_control(spec, rng)
        for i in (0, 41, spec.n_bins - 1):
            phi_i = _bin_switching(spec, u, i)
            for v in (-1.0, -0.2, 0.65, 1.0):
                vals = u.values.copy()
                vals[i] = v
                w = u.with_values(vals)
                full = switching_function(propagate_rho(spec, w),
                                          propagate_costate(spec, w),
                                          spec.Hu).values[i]
                assert abs(phi_i(v) - full) < 1e-12


def test_identity_boundary_stays_identity():
    spec = make_retention_problem()
    rng = np.random.default_rng(6)
    u = random_control(spec, rng)
    lam = propagate_costate(spec, u, boundary=np.eye(2, dtype=complex))
    assert np.abs(lam.ops - np.eye(2)).max() < 1e-12


def test_state_path_properties():
    spec = make_preparation_problem()
    rng = np.random.default_rng(7)
    u = random_control(spec, rng)
    rho = propagate_rho(spec, u)
    traces = np.einsum("nii->n", rho.ops)
    assert np.abs(traces - 1.0).max() < 1e-12
    assert np.abs(rho.ops - np.conj(np.swapaxes(rho.ops, 1, 2))).max() < 1e-12
    for op in rho.ops[:: len(rho.ops) // 10]:
        assert np.linalg.eigvalsh(op).min() > -1e-12


def test_pairing_is_conserved_and_equals_cost():
    spec = make_preparation_problem()
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = random_control(spec, rng)
        rho = propagate_rho(spec, u)
        lam = propagate_costate(spec, u)
        pairing = conserved_pairing(rho, lam)
        assert pairing.max() - pairing.min() < 1e-12
        cost = terminal_cost(rho.ops[-1], spec.psi_tar)
        assert pairing[0] == pytest.approx(cost, abs=1e-12)


def test_substeps_agree():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    r1 = propagate_rho(spec, u, substeps=1)
    r4 = propagate_rho(spec, u, substeps=4)
    assert np.abs(r1.ops - r4.ops).max() < 1e-11


def test_trace_drift_names_first_failing_step():
    # The forward sweep checks every node's trace after the loop and reports
    # the first step that broke it, as a per-step check would.
    spec = make_retention_problem(n_bins=6)
    halves = np.broadcast_to(np.eye(4, dtype=complex), (6, 4, 4)).copy()
    halves[2] *= 1.0 + 1e-6
    halves[4] *= 1.0 + 1e-3
    with pytest.raises(RuntimeError,
                       match=r"trace drift 2\.000e-06 at step 2$"):
        _sweep_rho(halves, spec.rho_ini)
    nodes, mids = _sweep_rho(halves[:2], spec.rho_ini)
    assert np.array_equal(nodes, np.tile(spec.rho_ini.reshape(-1), (3, 1)))


def test_costate_boundary_validation():
    spec = make_retention_problem()
    u = zero_control(spec.t_f, spec.n_bins)
    with pytest.raises(ValueError):
        propagate_costate(spec, u, boundary=np.array([[0.0, 1.0],
                                                      [0.0, 0.0]]))
    with pytest.raises(ValueError):
        propagate_costate(spec, u, boundary=np.eye(3, dtype=complex))


def test_grid_mismatch_rejected():
    spec = make_retention_problem()
    u = zero_control(spec.t_f, 50)
    with pytest.raises(ValueError):
        propagate_rho(spec, u)


def test_switching_function_matches_single_bin_fd():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    rho = propagate_rho(spec, u)
    lam = propagate_costate(spec, u)
    phi = switching_function(rho, lam, spec.Hu)
    scale = np.abs(phi.values).max()
    for i in (0, 13, 50, 99):
        fd = finite_difference_gradient(spec, u, i, 1e-5)
        assert abs(phi.values[i] - fd) / scale < 1e-3


def test_fd_curve_matches_per_bin_fd():
    spec = make_preparation_problem(n_bins=24)
    rng = np.random.default_rng(9)
    u = random_control(spec, rng)
    curve = finite_difference_curve(spec, u, 1e-5)
    for i in range(0, 24, 5):
        fd = finite_difference_gradient(spec, u, i, 1e-5)
        assert curve[i] == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_midpoint_convention_beats_left():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    rho = propagate_rho(spec, u)
    lam = propagate_costate(spec, u)
    fd = finite_difference_curve(spec, u, 1e-5)
    mid = switching_function(rho, lam, spec.Hu, convention="midpoint")
    left = switching_function(rho, lam, spec.Hu, convention="left")
    scale = np.abs(mid.values).max()
    err_mid = np.abs(mid.values - fd).max() / scale
    err_left = np.abs(left.values - fd).max() / scale
    assert err_mid < 1e-3
    assert err_left > err_mid


def test_c_hamiltonian_forms_agree():
    spec = make_preparation_problem()
    rng = np.random.default_rng(10)
    u = random_control(spec, rng)
    rho = propagate_rho(spec, u)
    lam = propagate_costate(spec, u)
    a = c_hamiltonian(rho, lam, spec, u, form="rho")
    b = c_hamiltonian(rho, lam, spec, u, form="lambda")
    assert np.abs(a.values - b.values).max() < 1e-12


def test_fd_validation():
    spec = make_retention_problem()
    u = zero_control(spec.t_f, spec.n_bins)
    with pytest.raises(ValueError):
        finite_difference_gradient(spec, u, -1, 1e-5)
    with pytest.raises(ValueError):
        finite_difference_gradient(spec, u, 100, 1e-5)
    with pytest.raises(ValueError):
        finite_difference_gradient(spec, u, 0, 0.0)
    with pytest.raises(ValueError):
        finite_difference_curve(spec, u, -1e-5)


def test_bang_from_phi():
    times = np.arange(4) * 0.1
    phi = SwitchingCurve(times=times,
                         values=np.array([0.5, -0.2, 1e-9, -0.7]),
                         convention="midpoint")
    res = bang_from_phi(phi, u_max=1.0)
    assert np.allclose(res.control.values[[0, 1, 3]], [-1.0, 1.0, 1.0])
    assert res.singular[2]
    assert not res.singular[0]
    prev = np.array([0.0, 0.0, 0.33, 0.0])
    res2 = bang_from_phi(phi, previous=prev, u_max=1.0)
    assert res2.control.values[2] == pytest.approx(0.33)


def test_path_csv_round_trip():
    spec = make_retention_problem(n_bins=12)
    u = step_control(spec.t_f, 12)
    rho = propagate_rho(spec, u)
    text = path_to_csv(rho)
    back = read_path_csv(text)
    assert np.array_equal(back.times, rho.times)
    assert np.array_equal(back.ops, rho.ops)
    assert path_to_csv(back) == text


def test_curve_csv_round_trip():
    spec = make_retention_problem(n_bins=12)
    u = step_control(spec.t_f, 12)
    rho = propagate_rho(spec, u)
    lam = propagate_costate(spec, u)
    phi = switching_function(rho, lam, spec.Hu)
    text = curve_to_csv(phi)
    back = read_curve_csv(text)
    assert np.array_equal(back.values, phi.values)
    assert curve_to_csv(back) == text
