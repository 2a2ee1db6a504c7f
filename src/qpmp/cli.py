"""Command-line front end.

Four subcommands cover the library surface: ``propagate`` integrates the
master equation and its costate, ``trajectories`` runs the stochastic
estimators against the deterministic reference, ``optimize`` drives the
projected TV-filtered gradient loop, and ``gradcheck`` compares the
switching function with central differences.

Options resolve in three layers: command-line flags win over keys in the
--config JSON file, which win over built-in defaults.  All outputs are
plain CSV (17 significant digits, LF line endings, UTF-8) plus one
``metadata.json`` sidecar per run; nothing depends on wall-clock time, so
reruns with the same inputs are byte-identical.

Exit codes: 0 success, 2 bad usage or invalid configuration, 3 tolerance
breach in ``gradcheck``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import secrets
import sys
from pathlib import Path

import click
import numpy as np

from .lindblad import (
    c_hamiltonian,
    conserved_pairing,
    curve_to_csv,
    finite_difference_curve,
    path_to_csv,
    propagate_costate,
    propagate_rho,
    switching_function,
    terminal_cost,
)
from .optimizer import (
    FilterParams,
    SampleSchedule,
    deterministic_provider,
    optimize,
    records_to_csv,
    reference_control,
    stochastic_provider,
)
from .problems import (
    PRESETS,
    ControlSchedule,
    constant_control,
    control_to_csv,
    problem_from_dict,
    problem_to_dict,
    read_control_csv,
    step_control,
    zero_control,
)
from .quantum_core import format_real
from .trajectories import (
    DOMAIN_LAMBDA,
    DOMAIN_PAIR,
    DOMAIN_RHO,
    DRIFT_MODES,
    MAX_REALIZATIONS,
    _procedure1,
    correlated_estimates,
    realizations_to_csv,
    stochastic_cost,
)

_DEFAULT_SEED = 12345


# ---------------------------------------------------------------------------
# Option resolution: flag > config key > default.
# ---------------------------------------------------------------------------

def _load_config(path):
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise click.UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise click.UsageError("config must be a JSON object")
    return cfg


def _eff(flag, cfg: dict, key: str, default):
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _resolve_problem(problem, bins, cfg):
    prob = _eff(problem, cfg, "problem", None)
    if prob is None:
        raise click.UsageError("no problem given (use --problem or a config "
                               f"with a 'problem' key; presets: {sorted(PRESETS)})")
    bins = _eff(bins, cfg, "n_bins", None)
    try:
        if isinstance(prob, str):
            if prob not in PRESETS:
                raise click.UsageError(f"unknown problem preset '{prob}'; "
                                       f"choose from {sorted(PRESETS)}")
            return PRESETS[prob]() if bins is None else PRESETS[prob](int(bins))
        if isinstance(prob, dict):
            spec = problem_from_dict(prob)
            return spec if bins is None else spec.with_bins(int(bins))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    raise click.UsageError("'problem' must be a preset name or an object")


def _resolve_control(control, cfg, spec, key="control", default="zero"):
    c = _eff(control, cfg, key, default)
    try:
        if isinstance(c, (list, tuple)):
            u = ControlSchedule(values=np.asarray(c, dtype=float), dt=spec.dt)
            desc = "inline"
        elif c == "zero":
            u, desc = zero_control(spec.t_f, spec.n_bins), c
        elif c == "step":
            u, desc = step_control(spec.t_f, spec.n_bins), c
        elif c == "golden_optimal":
            u, desc = reference_control(spec), c
        elif isinstance(c, str) and c.startswith("constant:"):
            u = constant_control(spec.t_f, spec.n_bins,
                                 float(c.split(":", 1)[1]))
            desc = c
        elif isinstance(c, str) and Path(c).is_file():
            u = read_control_csv(Path(c).read_text(encoding="utf-8"))
            desc = c
        else:
            raise click.UsageError(
                f"control '{c}' is neither a keyword (zero, step, "
                "golden_optimal, constant:VALUE) nor an existing CSV file")
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if u.n_bins != spec.n_bins:
        raise click.UsageError(f"control has {u.n_bins} bins, problem "
                               f"expects {spec.n_bins}")
    if abs(u.t_f - spec.t_f) > 1e-9 * max(1.0, spec.t_f):
        raise click.UsageError("control horizon does not match the problem")
    return u, desc


def _resolve_seed(seed, cfg):
    raw = _eff(seed, cfg, "master_seed", _DEFAULT_SEED)
    if isinstance(raw, str) and raw.strip() == "auto":
        return secrets.randbits(63), "auto"
    try:
        value = int(raw)
    except (TypeError, ValueError):
        value = None
    if value is None or value < 0:
        raise click.UsageError("seed must be a non-negative integer or "
                               f"'auto', got '{raw}'")
    return value, "explicit"


def _resolve_threads(threads, cfg):
    t = int(_eff(threads, cfg, "threads", 1))
    if t < 1:
        raise click.UsageError("threads must be >= 1")
    return t


def _resolve_drift_mode(drift_mode, cfg):
    mode = _eff(drift_mode, cfg, "drift_mode", "expm")
    if mode not in DRIFT_MODES:
        raise click.UsageError(f"drift mode must be one of {DRIFT_MODES}")
    return mode


def _outdir(out, cfg) -> Path:
    return Path(_eff(out, cfg, "output_dir", "."))


def _write(outdir: Path, name: str, text: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_metadata(outdir: Path, payload: dict) -> None:
    _write(outdir, "metadata.json",
           json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _estimate_csv(times, mean, std_err, det) -> str:
    lines = ["t,phi_mean,phi_stderr,phi_det"]
    for t, m, s, d in zip(times, mean, std_err, det):
        lines.append(",".join(format_real(x) for x in (t, m, s, d)))
    return "\n".join(lines) + "\n"


def _path_estimate_csv(est) -> str:
    """Mean operator path in the standard layout plus a std_err column."""
    d = est.stats.mean.shape[1]
    cols = ["t"]
    for i in range(d):
        for j in range(d):
            cols += [f"re_{i}{j}", f"im_{i}{j}"]
    cols.append("std_err")
    lines = [",".join(cols)]
    err = np.broadcast_to(np.asarray(est.stats.std_err), est.times.shape)
    for t, op, s in zip(est.times, est.stats.mean, err):
        row = [format_real(t)]
        for i in range(d):
            for j in range(d):
                row += [format_real(op[i, j].real), format_real(op[i, j].imag)]
        row.append(format_real(s))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _parse_schedule(text: str) -> SampleSchedule:
    segments = []
    for part in str(text).split(","):
        m = re.fullmatch(r"\s*(\d+)x(\d+)\s*", part)
        if m is None:
            raise click.UsageError(
                f"bad schedule segment '{part.strip()}'; expected "
                "ITERSxN, e.g. 100x50,100x200")
        segments.append((int(m.group(1)), int(m.group(2))))
    try:
        return SampleSchedule(segments=tuple(segments))
    except ValueError as exc:
        raise click.UsageError(str(exc))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Switching-function toolkit for dissipative qubit control."""


_problem_opts = [
    click.option("--problem", default=None,
                 help=f"Problem preset: {', '.join(sorted(PRESETS))}."),
    click.option("--config", "config_path", default=None,
                 help="JSON config file; flags override its keys."),
    click.option("--bins", type=int, default=None,
                 help="Number of uniform control bins."),
    click.option("--out", default=None,
                 help="Output directory (default: current directory)."),
]


def _add_opts(opts):
    def wrap(f):
        for opt in reversed(opts):
            f = opt(f)
        return f
    return wrap


@main.command()
@_add_opts(_problem_opts)
@click.option("--control", default=None,
              help="zero | step | golden_optimal | constant:VALUE | CSV file.")
@click.option("--substeps", type=int, default=None,
              help="Exponential substeps per half bin (convergence checks).")
def propagate(problem, config_path, bins, out, control, substeps):
    """Integrate state and costate; write paths, Phi, and the c-Hamiltonian."""
    cfg = _load_config(config_path)
    spec = _resolve_problem(problem, bins, cfg)
    u, control_desc = _resolve_control(control, cfg, spec)
    substeps = int(_eff(substeps, cfg, "substeps", 1))
    outdir = _outdir(out, cfg)
    try:
        rho = propagate_rho(spec, u, substeps)
        lam = propagate_costate(spec, u, substeps=substeps)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    phi = switching_function(rho, lam, spec.Hu)
    hc = c_hamiltonian(rho, lam, spec, u)
    pairing = conserved_pairing(rho, lam)
    cost = terminal_cost(rho.ops[-1], spec.psi_tar)
    _write(outdir, "rho_path.csv", path_to_csv(rho))
    _write(outdir, "costate_path.csv", path_to_csv(lam))
    _write(outdir, "phi.csv", curve_to_csv(phi))
    _write(outdir, "c_hamiltonian.csv", curve_to_csv(hc))
    _write(outdir, "control.csv", control_to_csv(u))
    _write_metadata(outdir, {
        "command": "propagate",
        "problem": problem_to_dict(spec),
        "options": {"control": control_desc, "substeps": substeps},
        "results": {
            "cost": cost,
            "pairing_spread": float(pairing.max() - pairing.min()),
            "phi_convention": "midpoint",
        },
    })
    click.echo(f"cost {format_real(cost)} "
               f"(pairing spread {pairing.max() - pairing.min():.3e})")


@main.command()
@_add_opts(_problem_opts)
@click.option("--control", default=None,
              help="zero | step | golden_optimal | constant:VALUE | CSV file.")
@click.option("--procedure", type=int, default=None,
              help="1: independent state/costate ensembles; 2: correlated pairs.")
@click.option("--n", "n_realizations", type=int, default=None,
              help="Realizations per estimate.")
@click.option("--seed", default=None, help="Integer master seed, or 'auto'.")
@click.option("--drift-mode", default=None,
              help=f"Between-jump step: {' | '.join(DRIFT_MODES)}.")
@click.option("--threads", type=int, default=None,
              help="Worker threads; results are identical for any value.")
@click.option("--dump-realizations", is_flag=True, default=False,
              help="Also write the jump records used by each stream.")
def trajectories(problem, config_path, bins, out, control, procedure,
                 n_realizations, seed, drift_mode, threads,
                 dump_realizations):
    """Estimate rho, lambda, and Phi from quantum-jump ensembles."""
    cfg = _load_config(config_path)
    spec = _resolve_problem(problem, bins, cfg)
    u, control_desc = _resolve_control(control, cfg, spec)
    procedure = int(_eff(procedure, cfg, "procedure", 2))
    if procedure not in (1, 2):
        raise click.UsageError("procedure must be 1 or 2")
    n = _eff(n_realizations, cfg, "n_realizations", None)
    if n is None:
        raise click.UsageError("number of realizations required (--n or "
                               "'n_realizations' in the config)")
    n = int(n)
    if not 1 <= n <= MAX_REALIZATIONS:
        raise click.UsageError("need between 1 and "
                               f"{MAX_REALIZATIONS} realizations")
    master_seed, seed_mode = _resolve_seed(seed, cfg)
    mode = _resolve_drift_mode(drift_mode, cfg)
    threads = _resolve_threads(threads, cfg)
    outdir = _outdir(out, cfg)

    rho_det = propagate_rho(spec, u)
    lam_det = propagate_costate(spec, u)
    phi_det = switching_function(rho_det, lam_det, spec.Hu, convention="left")

    results: dict = {"procedure": procedure}
    if procedure == 1:
        est, rho_est, lam_est = _procedure1(spec, u, n, master_seed, mode,
                                            threads)
        cost = stochastic_cost(spec, u, n, master_seed, mode, threads)
        _write(outdir, "rho_estimate.csv", _path_estimate_csv(rho_est))
        _write(outdir, "lambda_estimate.csv", _path_estimate_csv(lam_est))
        _write(outdir, "rho_deterministic.csv", path_to_csv(rho_det))
        _write(outdir, "lambda_deterministic.csv", path_to_csv(lam_det))
        results["max_abs_rho_error"] = float(
            np.abs(rho_est.stats.mean - rho_det.ops).max())
        results["max_abs_lambda_error"] = float(
            np.abs(lam_est.stats.mean - lam_det.ops).max())
        streams = (("rho", DOMAIN_RHO), ("lambda", DOMAIN_LAMBDA))
    else:
        est, cost = correlated_estimates(spec, u, n, master_seed, mode,
                                         threads)
        streams = (("pair", DOMAIN_PAIR),)

    err = np.asarray(est.stats.std_err)
    diff = np.abs(est.curve.values - phi_det.values)
    with np.errstate(invalid="ignore", divide="ignore"):
        covered = diff <= 3.0 * err
    results["phi_within_3stderr_fraction"] = float(np.mean(covered))
    results["cost_mean"] = float(cost.mean)
    results["cost_std_err"] = float(cost.std_err)
    results["cost_deterministic"] = terminal_cost(rho_det.ops[-1],
                                                  spec.psi_tar)

    _write(outdir, "phi_stochastic.csv",
           _estimate_csv(est.curve.times, est.curve.values, err,
                         phi_det.values))
    if dump_realizations:
        for label, domain in streams:
            _write(outdir, f"realizations_{label}.csv",
                   realizations_to_csv(spec, u, n, master_seed, domain))

    _write_metadata(outdir, {
        "command": "trajectories",
        "problem": problem_to_dict(spec),
        "options": {
            "control": control_desc,
            "procedure": procedure,
            "n_realizations": n,
            "master_seed": master_seed,
            "seed_mode": seed_mode,
            "drift_mode": mode,
            "threads": threads,
        },
        "results": results,
    })
    click.echo(f"procedure {procedure}, n={n}: cost "
               f"{cost.mean:.6f} +- {cost.std_err:.6f} "
               f"(deterministic {results['cost_deterministic']:.6f}), "
               f"{100 * results['phi_within_3stderr_fraction']:.1f}% of bins "
               "within 3 std_err")


@main.command("optimize")
@_add_opts(_problem_opts)
@click.option("--provider", default=None,
              help="deterministic | stochastic1 | stochastic2.")
@click.option("--iters", type=int, default=None, help="Iteration count.")
@click.option("--schedule", default=None,
              help="Realizations per segment, e.g. 100x50,100x200.")
@click.option("--n", "n_realizations", type=int, default=None,
              help="Constant realizations per iteration (stochastic only).")
@click.option("--eta", type=float, default=None, help="Gradient step size.")
@click.option("--w-tv", type=float, default=None, help="TV filter weight.")
@click.option("--epsilon", type=float, default=None,
              help="Projection margin after warmup.")
@click.option("--epsilon-warmup", type=int, default=None,
              help="Iterations before the margin turns on.")
@click.option("--u0", default=None,
              help="Starting control: zero | step | constant:VALUE | CSV file.")
@click.option("--seed", default=None, help="Integer master seed, or 'auto'.")
@click.option("--drift-mode", default=None,
              help=f"Between-jump step: {' | '.join(DRIFT_MODES)}.")
@click.option("--threads", type=int, default=None,
              help="Worker threads; results are identical for any value.")
@click.option("--quiet", is_flag=True, default=False,
              help="Suppress the per-iteration log line.")
def optimize_cmd(problem, config_path, bins, out, provider, iters, schedule,
                 n_realizations, eta, w_tv, epsilon, epsilon_warmup, u0,
                 seed, drift_mode, threads, quiet):
    """Run the projected, TV-filtered gradient optimizer."""
    cfg = _load_config(config_path)
    spec = _resolve_problem(problem, bins, cfg)
    name = _eff(provider, cfg, "provider", "deterministic")
    mode = _resolve_drift_mode(drift_mode, cfg)
    threads = _resolve_threads(threads, cfg)
    if name == "deterministic":
        prov = deterministic_provider()
    elif name in ("stochastic1", "stochastic2"):
        prov = stochastic_provider(int(name[-1]), mode, threads)
    else:
        raise click.UsageError(f"unknown provider '{name}'; choose "
                               "deterministic, stochastic1, or stochastic2")

    sched_text = _eff(schedule, cfg, "schedule", None)
    n_const = _eff(n_realizations, cfg, "n_realizations", None)
    if sched_text is not None:
        sched = _parse_schedule(sched_text)
    elif n_const is not None:
        sched = SampleSchedule.constant(int(n_const))
    else:
        sched = SampleSchedule.constant(1)

    iters = _eff(iters, cfg, "iterations", None)
    if iters is None:
        iters = (sum(c for c, _ in sched.segments) if sched_text is not None
                 else 200)
    iters = int(iters)
    if iters < 1:
        raise click.UsageError("need at least one iteration")

    fp_cfg = cfg.get("filter_params", {})
    try:
        params = FilterParams(
            eta=float(_eff(eta, fp_cfg, "eta", 0.5)),
            w_tv=float(_eff(w_tv, fp_cfg, "w_tv", 0.01)),
            epsilon=float(_eff(epsilon, fp_cfg, "epsilon", 0.1)),
            epsilon_warmup=int(_eff(epsilon_warmup, fp_cfg,
                                    "epsilon_warmup", 50)),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    u_start, u0_desc = _resolve_control(u0, cfg, spec, key="u0",
                                        default="zero")
    master_seed, seed_mode = _resolve_seed(seed, cfg)
    outdir = _outdir(out, cfg)

    def log(rec):
        if quiet:
            return
        line = f"iter {rec.k:4d} n={rec.n_realizations:<4d} " \
               f"cost_det={rec.cost_det:+.6f}"
        if rec.cost_stoch is not None:
            line += (f" cost_stoch={rec.cost_stoch.mean:+.6f}"
                     f" +- {rec.cost_stoch.std_err:.6f}")
        click.echo(line)

    try:
        records = optimize(spec, prov, params, sched, u_start, iters,
                           master_seed=master_seed, log=log)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    final = records[-1]
    _write(outdir, "iterations.csv", records_to_csv(records))
    _write(outdir, "final_control.csv", control_to_csv(final.u))
    _write(outdir, "final_phi.csv", curve_to_csv(final.phi))
    results = {"final_cost_det": final.cost_det}
    if final.cost_stoch is not None:
        results["final_cost_stoch"] = float(final.cost_stoch.mean)
        results["final_cost_stoch_std_err"] = float(final.cost_stoch.std_err)
    _write_metadata(outdir, {
        "command": "optimize",
        "problem": problem_to_dict(spec),
        "options": {
            "provider": name,
            "iterations": iters,
            "schedule": [list(s) for s in sched.segments],
            "filter_params": dataclasses.asdict(params),
            "u0": u0_desc,
            "master_seed": master_seed,
            "seed_mode": seed_mode,
            "drift_mode": mode,
            "threads": threads,
        },
        "results": results,
    })
    click.echo(f"final cost_det {format_real(final.cost_det)}")


@main.command()
@_add_opts(_problem_opts)
@click.option("--control", default=None,
              help="zero | step | golden_optimal | constant:VALUE | CSV file.")
@click.option("--delta", type=float, default=None,
              help="Central-difference step (default 1e-5).")
@click.option("--tolerance", type=float, default=None,
              help="Max allowed |Phi - FD| / max|Phi| (default 1e-3).")
@click.option("--gamma", type=float, default=None,
              help="Override the problem's dissipation rate.")
def gradcheck(problem, config_path, bins, out, control, delta, tolerance,
              gamma):
    """Compare Phi against the central-difference cost gradient per bin."""
    cfg = _load_config(config_path)
    spec = _resolve_problem(problem, bins, cfg)
    gamma = _eff(gamma, cfg, "gamma", None)
    if gamma is not None:
        try:
            spec = dataclasses.replace(spec, gamma=float(gamma))
        except ValueError as exc:
            raise click.UsageError(str(exc))
    u, control_desc = _resolve_control(control, cfg, spec, default="step")
    delta = float(_eff(delta, cfg, "delta", 1e-5))
    tolerance = float(_eff(tolerance, cfg, "tolerance", 1e-3))
    if delta <= 0:
        raise click.UsageError("delta must be positive")
    if tolerance <= 0:
        raise click.UsageError("tolerance must be positive")
    outdir = _outdir(out, cfg)

    rho = propagate_rho(spec, u)
    lam = propagate_costate(spec, u)
    phi = switching_function(rho, lam, spec.Hu)
    fd = finite_difference_curve(spec, u, delta)
    scale = np.abs(phi.values).max()
    rel = np.abs(phi.values - fd) / scale

    lines = ["bin,t,phi,fd,abs_err,rel_err"]
    for i, (t, p, f) in enumerate(zip(phi.times, phi.values, fd)):
        lines.append(f"{i},{format_real(t)},{format_real(p)},"
                     f"{format_real(f)},{format_real(abs(p - f))},"
                     f"{format_real(rel[i])}")
    _write(outdir, "gradcheck.csv", "\n".join(lines) + "\n")
    max_rel = float(rel.max())
    _write_metadata(outdir, {
        "command": "gradcheck",
        "problem": problem_to_dict(spec),
        "options": {"control": control_desc, "delta": delta,
                    "tolerance": tolerance},
        "results": {"max_rel_err": max_rel, "phi_scale": float(scale)},
    })
    status = "OK" if max_rel <= tolerance else "FAIL"
    click.echo(f"{status}: max |Phi - FD| / max|Phi| = {max_rel:.3e} "
               f"(tolerance {tolerance:.3e}, delta {delta:.1e})")
    if max_rel > tolerance:
        sys.exit(3)


if __name__ == "__main__":
    main()
