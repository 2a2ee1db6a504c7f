"""Stochastic engine: jump sampling, trajectory propagation, estimators.

Statistical checks use fixed seeds, so every run sees the same draws; the
bounds are set several standard errors wide of the observed values, which
keeps them honest (an implementation error of one standard error trips
them) without being flaky.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.linalg import expm

from qpmp import trajectories
from qpmp.cli import main
from qpmp.lindblad import (
    propagate_costate,
    propagate_rho,
    switching_function,
)
from qpmp.problems import (
    ControlSchedule,
    control_to_csv,
    make_preparation_problem,
    make_retention_problem,
    step_control,
    zero_control,
)
from qpmp.quantum_core import SIGMA_X, dag, outer
from qpmp.trajectories import (
    DOMAIN_LAMBDA,
    DOMAIN_OPT,
    DOMAIN_PAIR,
    DOMAIN_RHO,
    MAX_REALIZATIONS,
    JumpRealization,
    _dn_chunk,
    _philox_uniforms,
    _procedure1,
    _stream_seeds,
    backward_pi,
    bilinear_average,
    correlated_estimates,
    correlated_pair,
    derive_seed,
    drift_generator,
    estimate_lambda,
    estimate_rho,
    forward_psi,
    realization_from_string,
    realization_to_string,
    sample_initial_state,
    sample_jump_process,
    stochastic_cost,
    switching_procedure1,
    switching_procedure2,
)


def test_derive_seed_streams():
    a = derive_seed(42, DOMAIN_RHO, 0)
    assert a == derive_seed(42, DOMAIN_RHO, 0)
    seen = {derive_seed(42, d, i) for d in (0, 1, 2, 3) for i in range(50)}
    assert len(seen) == 200
    assert derive_seed(43, DOMAIN_RHO, 0) != a


def scalar_dn_chunk(spec, u, master_seed, domain, start, stop):
    """Reference jump records: one SeedSequence and one Philox generator
    per realization, exactly as ``sample_jump_process`` draws them."""
    p = spec.gamma * u.dt
    out = np.empty((stop - start, u.n_bins), dtype=np.uint8)
    for j, k in enumerate(range(start, stop)):
        seed = derive_seed(master_seed, domain, k)
        rng = np.random.Generator(np.random.Philox(key=seed))
        out[j] = (rng.random(u.n_bins) < p).astype(np.uint8)
    return out


@pytest.mark.parametrize("master_seed", [0, 1, 2 ** 32 - 1, 2 ** 32,
                                         2 ** 63 - 1, 2 ** 128 + 1])
def test_stream_seeds_match_derive_seed(master_seed):
    for domain in range(4):
        for start, stop in ((0, 300), (123456, 123556)):
            ref = [derive_seed(master_seed, domain, k)
                   for k in range(start, stop)]
            got = _stream_seeds(master_seed, domain, start, stop)
            assert got.dtype == np.uint64
            assert got.tolist() == ref


def test_stream_seeds_reject_negative_and_wide_indices():
    with pytest.raises(ValueError):
        derive_seed(-1, DOMAIN_RHO, 0)
    with pytest.raises(ValueError):
        _stream_seeds(-1, DOMAIN_RHO, 0, 4)
    with pytest.raises(ValueError):
        _stream_seeds(1, DOMAIN_RHO, 0, 2 ** 32 + 1)
    last = _stream_seeds(1, DOMAIN_RHO, 2 ** 32 - 2, 2 ** 32)
    assert last.tolist() == [derive_seed(1, DOMAIN_RHO, k)
                             for k in (2 ** 32 - 2, 2 ** 32 - 1)]


@pytest.mark.parametrize("n", [1, 3, 4, 99, 100, 101])
def test_philox_uniforms_match_generator(n):
    seeds = np.concatenate([_stream_seeds(5, DOMAIN_PAIR, 0, 40),
                            np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64)])
    got = _philox_uniforms(seeds, n)
    ref = np.array([np.random.Generator(np.random.Philox(key=int(s))).random(n)
                    for s in seeds])
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)


def test_dn_chunk_rows_match_sample_jump_process():
    spec = make_preparation_problem(n_bins=37)
    u = zero_control(spec.t_f, 37)
    for domain in (DOMAIN_RHO, DOMAIN_LAMBDA, DOMAIN_PAIR):
        chunk = _dn_chunk(spec, u, 2024, domain, 100, 612)
        assert chunk.dtype == np.uint8 and chunk.shape == (512, 37)
        for j, k in enumerate(range(100, 612)):
            jr = sample_jump_process(u, spec.gamma,
                                     derive_seed(2024, domain, k))
            assert np.array_equal(chunk[j], jr.dN)
        assert chunk.any()
        assert np.array_equal(
            chunk, scalar_dn_chunk(spec, u, 2024, domain, 100, 612))


def test_rng_kernel_emits_no_warnings():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seeds = _stream_seeds(2 ** 64 - 1, DOMAIN_OPT, 0, 600)
        _philox_uniforms(seeds, 101)
        _dn_chunk(spec, u, 7, DOMAIN_PAIR, 0, 512)


def test_ensembles_reject_too_many_realizations():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    for fn in (estimate_rho, stochastic_cost, switching_procedure2):
        with pytest.raises(ValueError):
            fn(spec, u, MAX_REALIZATIONS + 1, 0)


def test_procedure1_helper_returns_its_estimates():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    est, rho_est, lam_est = _procedure1(spec, u, 700, 23, "expm", 2)
    rho = estimate_rho(spec, u, 700, 23)
    lam = estimate_lambda(spec, u, 700, 23)
    for got, ref in ((rho_est, rho), (lam_est, lam)):
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.stats.mean, ref.stats.mean)
        assert np.array_equal(got.stats.std_err, ref.stats.std_err)
    solo = switching_procedure1(spec, u, 700, 23)
    assert np.array_equal(est.curve.values, solo.curve.values)
    assert np.array_equal(est.stats.std_err, solo.stats.std_err)


def _trajectories_outputs(root, control, monkeypatch, dn_chunk):
    """Every file of ``qpmp trajectories`` on preparation, both procedures
    and two thread counts, with ``dn_chunk`` generating the jump records."""
    monkeypatch.setattr(trajectories, "_dn_chunk", dn_chunk)
    runner = CliRunner()
    files = {}
    for procedure in ("1", "2"):
        for threads in ("1", "2"):
            out = root / f"p{procedure}_t{threads}"
            res = runner.invoke(main, [
                "trajectories", "--problem", "preparation", "--control",
                str(control), "--procedure", procedure, "--n", "1100",
                "--seed", "77", "--threads", threads, "--dump-realizations",
                "--out", str(out)], catch_exceptions=False)
            assert res.exit_code == 0, res.output
            for path in sorted(out.iterdir()):
                files[f"{out.name}/{path.name}"] = path.read_bytes()
    return files


def test_vectorized_jump_records_keep_cli_outputs(tmp_path, monkeypatch):
    # N = 1100 spans three chunks, the last one partial; the continuous
    # control gives every bin its own drift step.
    spec = make_preparation_problem()
    t = (np.arange(spec.n_bins) + 0.5) / spec.n_bins
    u = ControlSchedule(values=0.9 * np.sin(2.0 * np.pi * t + 0.3),
                        dt=spec.dt)
    control = tmp_path / "control.csv"
    control.write_text(control_to_csv(u), encoding="utf-8")
    shipped = _trajectories_outputs(tmp_path / "shipped", control,
                                    monkeypatch, trajectories._dn_chunk)
    oracle = _trajectories_outputs(tmp_path / "oracle", control,
                                   monkeypatch, scalar_dn_chunk)
    assert len(shipped) == 2 * 8 + 2 * 3
    assert shipped.keys() == oracle.keys()
    for name, data in shipped.items():
        assert data == oracle[name], name


def test_sample_jump_process_reproducible():
    u = zero_control(0.9 * np.pi, 100)
    a = sample_jump_process(u, 0.5, 123)
    b = sample_jump_process(u, 0.5, 123)
    assert np.array_equal(a.dN, b.dN)
    assert a.gamma_dt == pytest.approx(0.5 * u.dt)


def test_sample_jump_process_bernoulli_rate():
    # Aggregate jump count over many realizations is Binomial(n*m, gamma*dt);
    # with the fixed master seed the observed value sits well inside 4 sigma.
    u = zero_control(0.9 * np.pi, 100)
    gamma = 0.5
    p = gamma * u.dt
    n = 1000
    total = sum(sample_jump_process(u, gamma, derive_seed(9, DOMAIN_RHO, i)).n_jumps
                for i in range(n))
    trials = n * u.n_bins
    sigma = np.sqrt(trials * p * (1 - p))
    assert abs(total - trials * p) < 4 * sigma


def test_sample_jump_process_edge_cases():
    u = zero_control(1.0, 10)
    assert sample_jump_process(u, 0.0, 5).n_jumps == 0
    with pytest.raises(ValueError):
        sample_jump_process(u, -1.0, 5)
    with pytest.raises(ValueError):
        sample_jump_process(u, 11.0, 5)  # gamma*dt >= 1


def test_realization_validation_and_round_trip():
    jr = JumpRealization(n_bins=5, dN=np.array([0, 1, 0, 0, 1]), seed=1,
                         gamma_dt=0.1)
    s = realization_to_string(jr)
    assert s == "01001"
    back = realization_from_string(s, 1, 0.1)
    assert np.array_equal(back.dN, jr.dN)
    with pytest.raises(ValueError):
        JumpRealization(n_bins=5, dN=np.array([0, 2, 0, 0, 0]), seed=1,
                        gamma_dt=0.1)
    with pytest.raises(ValueError):
        JumpRealization(n_bins=5, dN=np.zeros(5, dtype=int), seed=1,
                        gamma_dt=1.5)
    with pytest.raises(ValueError):
        realization_from_string("01x01", 1, 0.1)


def explicit_forward(spec, u, jr, drift_mode):
    """Reference loop: drift step then optional jump, one bin at a time."""
    psi = spec.psi_ini.copy()
    out = [psi.copy()]
    eye = np.eye(spec.dim)
    for i in range(u.n_bins):
        G = drift_generator(spec, float(u.values[i]))
        if drift_mode == "expm":
            psi = expm(G * u.dt) @ psi
            if jr.dN[i]:
                psi = spec.L @ psi
        else:
            psi = (eye + G * u.dt) @ psi + jr.dN[i] * ((spec.L - eye) @ psi)
        out.append(psi.copy())
    return np.array(out)


@pytest.mark.parametrize("drift_mode", ["expm", "euler"])
def test_forward_matches_explicit_loop(drift_mode):
    spec = make_retention_problem(n_bins=40)
    u = step_control(spec.t_f, 40)
    jr = realization_from_string("0010000100000000000001000000010000000000",
                                 7, spec.gamma * u.dt)
    path = forward_psi(spec, u, jr, drift_mode)
    ref = explicit_forward(spec, u, jr, drift_mode)
    assert np.abs(path.vectors - ref).max() < 1e-12


def test_forward_norm_conserved_for_unitary_jump():
    # L = sx is unitary and G is then anti-Hermitian plus a real shift that
    # cancels: the expm-mode trajectory keeps unit norm at every node.
    spec = make_retention_problem(n_bins=60)
    rng = np.random.default_rng(2)
    u = ControlSchedule(values=rng.uniform(-1, 1, 60), dt=spec.t_f / 60)
    for i in range(5):
        jr = sample_jump_process(u, spec.gamma, derive_seed(3, DOMAIN_RHO, i))
        path = forward_psi(spec, u, jr, "expm")
        norms = np.linalg.norm(path.vectors, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12


@pytest.mark.parametrize("drift_mode", ["expm", "euler"])
def test_backward_is_exact_adjoint(drift_mode):
    # <pi(t)|psi(t)> must be constant over the grid for each realization:
    # every backward step is the conjugate transpose of the forward step.
    spec = make_preparation_problem(n_bins=50)
    rng = np.random.default_rng(4)
    u = ControlSchedule(values=rng.uniform(-1, 1, 50), dt=spec.t_f / 50)
    for i in range(5):
        jr = sample_jump_process(u, spec.gamma, derive_seed(8, DOMAIN_PAIR, i))
        pair = correlated_pair(spec, u, jr, drift_mode)
        overlaps = np.einsum("ti,ti->t", pair.pi.vectors.conj(),
                             pair.psi.vectors)
        assert np.abs(overlaps - overlaps[0]).max() < 1e-12
        assert overlaps[0] == pytest.approx(-abs(pair.terminal_amp) ** 2,
                                            abs=1e-12)


def test_procedure2_exact_without_dissipation():
    # gamma = 0 removes all jumps; a single correlated pair then reproduces
    # the deterministic switching function exactly (left convention).
    spec = dataclasses.replace(make_retention_problem(), gamma=0.0)
    u = step_control(spec.t_f, spec.n_bins)
    est = switching_procedure2(spec, u, 1, 0)
    rho = propagate_rho(spec, u)
    lam = propagate_costate(spec, u)
    phi = switching_function(rho, lam, spec.Hu, convention="left")
    assert np.abs(est.curve.values - phi.values).max() < 1e-12
    assert np.all(np.asarray(est.stats.std_err) == 0.0)


def test_estimate_rho_unbiased():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    est = estimate_rho(spec, u, 800, 17)
    det = propagate_rho(spec, u)
    err = np.asarray(est.stats.std_err)[:, None, None]
    assert np.all(np.abs(est.stats.mean - det.ops) <= 5.0 * np.maximum(err, 1e-30))


def test_estimate_lambda_unbiased():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    est = estimate_lambda(spec, u, 800, 17)
    det = propagate_costate(spec, u)
    err = np.asarray(est.stats.std_err)[:, None, None]
    assert np.all(np.abs(est.stats.mean - det.ops) <= 5.0 * np.maximum(err, 1e-30))


def test_estimate_lambda_identity_boundary_exact():
    # Identity boundary: the spectral branches stay orthonormal under the
    # unitary backward flow, so every realization reconstructs 1 exactly.
    spec = make_retention_problem(n_bins=30)
    u = step_control(spec.t_f, 30)
    est = estimate_lambda(spec, u, 20, 5, boundary=np.eye(2, dtype=complex))
    assert np.abs(est.stats.mean - np.eye(2)).max() < 1e-12
    assert np.asarray(est.stats.std_err).max() < 1e-12


def test_estimate_lambda_vector_boundary():
    spec = make_retention_problem(n_bins=30)
    u = step_control(spec.t_f, 30)
    v = np.array([0.6, 0.8j])
    est = estimate_lambda(spec, u, 50, 5, boundary=v)
    assert np.allclose(est.stats.mean[-1], outer(v), atol=1e-12)


def test_procedures_agree_within_errors():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    e1 = switching_procedure1(spec, u, 600, 21)
    e2 = switching_procedure2(spec, u, 600, 22)
    gap = np.abs(e1.curve.values - e2.curve.values)
    combined = np.sqrt(np.asarray(e1.stats.std_err) ** 2
                       + np.asarray(e2.stats.std_err) ** 2)
    assert np.mean(gap <= 4.0 * combined) > 0.95


def test_procedure2_unbiased_against_deterministic():
    spec = make_preparation_problem()
    u = step_control(spec.t_f, spec.n_bins)
    est = switching_procedure2(spec, u, 1000, 31)
    rho = propagate_rho(spec, u)
    lam = propagate_costate(spec, u)
    phi = switching_function(rho, lam, spec.Hu, convention="left")
    gap = np.abs(est.curve.values - phi.values)
    assert np.mean(gap <= 4.0 * np.asarray(est.stats.std_err)) > 0.95


def test_monte_carlo_error_scaling():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    small = switching_procedure2(spec, u, 400, 3)
    large = switching_procedure2(spec, u, 1600, 3)
    ratio = (np.asarray(small.stats.std_err).mean()
             / np.asarray(large.stats.std_err).mean())
    assert 1.6 < ratio < 2.5


def test_stochastic_cost_matches_correlated_estimates():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    est, cost = correlated_estimates(spec, u, 200, 11)
    solo = stochastic_cost(spec, u, 200, 11)
    assert solo.mean == cost.mean
    assert solo.std_err == cost.std_err


def test_bilinear_average_identity_operator():
    # A = 1: <pi|psi> is real (it equals minus the terminal fidelity), so
    # the im part vanishes identically and the re part doubles the cost.
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    eye = np.eye(2, dtype=complex)
    im = bilinear_average(spec, u, 100, 13, eye, part="im")
    assert np.abs(im.curve.values).max() < 1e-12
    re = bilinear_average(spec, u, 100, 13, eye, part="re")
    cost = stochastic_cost(spec, u, 100, 13)
    assert np.allclose(re.curve.values, 2.0 * cost.mean, atol=1e-12)


def test_bilinear_average_validation():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    with pytest.raises(ValueError):
        bilinear_average(spec, u, 10, 0, spec.Hu, part="abs")
    with pytest.raises(ValueError):
        bilinear_average(spec, u, 10, 0, np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        bilinear_average(spec, u, 0, 0, spec.Hu)


def test_threads_do_not_change_results():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    for threads in (2, 4):
        a = estimate_rho(spec, u, 700, 19, threads=1)
        b = estimate_rho(spec, u, 700, 19, threads=threads)
        assert np.array_equal(a.stats.mean, b.stats.mean)
        assert np.array_equal(np.asarray(a.stats.std_err),
                              np.asarray(b.stats.std_err))
    e1 = switching_procedure2(spec, u, 700, 19, threads=1)
    e3 = switching_procedure2(spec, u, 700, 19, threads=3)
    assert np.array_equal(e1.curve.values, e3.curve.values)
    assert np.array_equal(np.asarray(e1.stats.std_err),
                          np.asarray(e3.stats.std_err))


def test_different_seeds_differ():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    a = switching_procedure2(spec, u, 50, 1)
    b = switching_procedure2(spec, u, 50, 2)
    assert not np.array_equal(a.curve.values, b.curve.values)


def test_single_realization_stats():
    spec = make_retention_problem()
    u = step_control(spec.t_f, spec.n_bins)
    est, cost = correlated_estimates(spec, u, 1, 0)
    assert cost.std_err == 0.0
    assert np.all(np.asarray(est.stats.std_err) == 0.0)


def test_sample_initial_state():
    psi = np.array([0.6, 0.8j])
    got = sample_initial_state(outer(psi), 3)
    assert abs(np.vdot(got, psi)) == pytest.approx(1.0, abs=1e-12)
    # mixed diagonal state: frequencies follow the eigenvalues
    rho = np.diag([0.25, 0.75]).astype(complex)
    hits = sum(int(abs(sample_initial_state(rho, s)[1]) > 0.5)
               for s in range(400))
    sigma = np.sqrt(400 * 0.75 * 0.25)
    assert abs(hits - 300) < 4 * sigma
    with pytest.raises(ValueError):
        sample_initial_state(np.array([[1.0, 0.5], [0.0, 0.0]]), 0)
    with pytest.raises(ValueError):
        sample_initial_state(np.diag([1.5, -0.5]).astype(complex), 0)
    with pytest.raises(ValueError):
        sample_initial_state(np.diag([0.7, 0.7]).astype(complex), 0)


def test_backward_pi_boundary_checks():
    spec = make_retention_problem(n_bins=20)
    u = step_control(spec.t_f, 20)
    jr = sample_jump_process(u, spec.gamma, 1)
    with pytest.raises(ValueError):
        backward_pi(spec, u, jr, np.array([1.0, 0.0, 0.0]))
    wrong = sample_jump_process(u, 0.1, 1)
    with pytest.raises(ValueError):
        forward_psi(spec, u, wrong)
