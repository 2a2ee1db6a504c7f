"""Projected gradient optimizer driven by switching-function estimates.

Per iteration: obtain Phi for the current control from a provider
(deterministic engine or a stochastic procedure), denoise it with an exact
1-D total-variation prox, step u <- u - eta*Phi_tv, then apply the
bang-promoting projection P_eps that snaps values within eps of the bounds
onto the bounds.  Default hyperparameters (eta, w_tv, epsilon) are
(0.5, 0.01, 0.1), with epsilon forced to 0 for a warm-up period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .lindblad import (
    SwitchingCurve,
    _bin_switching,
    _state_costate,
    c_hamiltonian,
    cost_of_control,
    switching_function,
    terminal_cost,
)
from .problems import ControlSchedule, ProblemSpec, constant_control
from .quantum_core import format_real
from .trajectories import (
    DOMAIN_OPT,
    EnsembleStats,
    correlated_estimates,
    derive_seed,
    switching_procedure1,
    stochastic_cost,
)


@dataclass(frozen=True)
class FilterParams:
    """Update hyperparameters: step size, TV weight, projection margin."""

    eta: float = 0.5
    w_tv: float = 0.01
    epsilon: float = 0.1
    epsilon_warmup: int = 50

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.w_tv < 0:
            raise ValueError("w_tv must be >= 0")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.epsilon_warmup < 0:
            raise ValueError("epsilon_warmup must be >= 0")


@dataclass(frozen=True)
class SampleSchedule:
    """Realization counts per iteration segment: ((iterations, n), ...).

    Iterations beyond the last segment keep its realization count.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple((int(c), int(n)) for c, n in self.segments)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        for c, n in segs:
            if c < 1 or n < 1:
                raise ValueError("segment counts must be positive")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def constant(cls, n: int) -> "SampleSchedule":
        return cls(segments=((1, n),))

    def n_at(self, k: int) -> int:
        remaining = k
        for count, n in self.segments:
            if remaining < count:
                return n
            remaining -= count
        return self.segments[-1][1]


@dataclass(frozen=True)
class IterationRecord:
    """State of one optimizer iteration, before its update is applied."""

    k: int
    u: ControlSchedule
    phi: SwitchingCurve
    cost_det: float | None
    cost_stoch: EnsembleStats | None
    n_realizations: int

    def __post_init__(self):
        if self.cost_det is None and self.cost_stoch is None:
            raise ValueError("record needs at least one cost value")


def tv_denoise_values(y: np.ndarray, w: float) -> np.ndarray:
    """Exact minimizer of (1/2)||x - y||^2 + w * sum |x[i+1] - x[i]|.

    Taut-string construction: the running sums of x trace the shortest path
    through a tube of half-width w around the running sums of y, pinned at
    both ends.  The walk keeps the feasible slope window from the current
    anchor; when the window closes, the string bends at the funnel vertex
    that set the binding slope, and the walk restarts there.  Slopes of the
    emitted segments are the solution values.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("input must be a non-empty 1-d array")
    if w < 0:
        raise ValueError("w must be >= 0")
    n = y.size
    if w == 0.0 or n == 1:
        return y.copy()
    r = np.concatenate([[0.0], np.cumsum(y)])
    lo = r - w
    hi = r + w
    lo[0] = hi[0] = r[0]
    lo[n] = hi[n] = r[n]
    x = np.empty(n)
    anchor = 0
    anchor_y = r[0]
    while anchor < n:
        s_min = -np.inf
        s_max = np.inf
        low_vertex = high_vertex = anchor
        bend = -1
        bend_y = 0.0
        for i in range(anchor + 1, n + 1):
            gap = i - anchor
            t_lo = (lo[i] - anchor_y) / gap
            t_hi = (hi[i] - anchor_y) / gap
            if t_hi < s_min:
                bend, bend_y = low_vertex, lo[low_vertex]
                break
            if t_lo > s_max:
                bend, bend_y = high_vertex, hi[high_vertex]
                break
            if t_lo > s_min:
                s_min, low_vertex = t_lo, i
            if t_hi < s_max:
                s_max, high_vertex = t_hi, i
        if bend < 0:
            x[anchor:n] = (r[n] - anchor_y) / (n - anchor)
            anchor = n
        else:
            x[anchor:bend] = (bend_y - anchor_y) / (bend - anchor)
            anchor, anchor_y = bend, bend_y
    return x


def tv_denoise(phi: SwitchingCurve, w_tv: float) -> SwitchingCurve:
    """TV prox applied to the curve values; grid and convention unchanged."""
    values = tv_denoise_values(phi.values, w_tv)
    return SwitchingCurve(times=phi.times, values=values,
                          convention=phi.convention)


def tv_objective(x: np.ndarray, y: np.ndarray, w: float) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(0.5 * np.sum((x - y) ** 2) + w * np.sum(np.abs(np.diff(x))))


def project_controls(u: ControlSchedule, epsilon: float,
                     u_max: float) -> ControlSchedule:
    """Snap values within epsilon*u_max of a bound onto the bound, clamp the
    rest to [-u_max, u_max]."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    v = u.values.copy()
    edge = u_max * (1.0 - epsilon)
    v[v > edge] = u_max
    v[v < -edge] = -u_max
    np.clip(v, -u_max, u_max, out=v)
    return u.with_values(v)


def gradient_step(u: ControlSchedule, phi_tilde: SwitchingCurve,
                  eta: float) -> ControlSchedule:
    """u - eta * Phi_tv, elementwise; may exceed bounds until projected."""
    if phi_tilde.values.size != u.n_bins:
        raise ValueError("switching curve does not match the control grid")
    return u.with_values(u.values - eta * phi_tilde.values)


def deterministic_provider():
    """Exact Phi from the density-matrix engine; no stochastic cost.

    The terminal cost comes from the same forward sweep as Phi.
    """

    def call(spec: ProblemSpec, u: ControlSchedule, n: int, seed: int):
        rho, lam = _state_costate(spec, u)
        cost = terminal_cost(rho.ops[-1], spec.psi_tar)
        return switching_function(rho, lam, spec.Hu), None, cost

    return call


def stochastic_provider(procedure: int = 2, drift_mode: str = "expm",
                        threads: int = 1):
    """Phi from trajectory ensembles.

    Procedure 2 correlates forward and backward realizations and reports
    the terminal cost from the same batch; procedure 1 estimates the
    density matrices first and prices the cost with an independent batch.
    Neither computes the deterministic cost, so the third entry is None.
    """
    if procedure not in (1, 2):
        raise ValueError("procedure must be 1 or 2")

    def call(spec: ProblemSpec, u: ControlSchedule, n: int, seed: int):
        if procedure == 2:
            est, cost = correlated_estimates(spec, u, n, seed, drift_mode,
                                             threads)
            return est.curve, cost, None
        est = switching_procedure1(spec, u, n, seed, drift_mode, threads)
        cost = stochastic_cost(spec, u, n, seed, drift_mode, threads)
        return est.curve, cost, None

    return call


def optimize(spec: ProblemSpec, provider, params: FilterParams,
             schedule: SampleSchedule, u0: ControlSchedule, iterations: int,
             master_seed: int = 0, log=None) -> list[IterationRecord]:
    """Run the projected, TV-filtered gradient iteration.

    Returns ``iterations + 1`` records: record k holds the control entering
    iteration k with its Phi and costs, and the final record holds the
    converged control after the last update.  ``provider(spec, u, n, seed)``
    returns ``(phi, cost_stoch, cost_det)``, either cost possibly None.  The
    deterministic cost is logged every iteration as the cross-check
    reference; when the provider does not supply it, one forward sweep
    prices the control.  Stochastic iteration k draws from a stream derived
    from (master_seed, k), so runs are reproducible.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    u = project_controls(u0, 0.0, spec.u_max)
    records: list[IterationRecord] = []
    for k in range(iterations + 1):
        n_k = schedule.n_at(k)
        seed_k = derive_seed(master_seed, DOMAIN_OPT, k)
        try:
            phi, cost_stoch, cost_det = provider(spec, u, n_k, seed_k)
        except Exception as exc:
            raise RuntimeError(
                f"switching provider failed at iteration {k}") from exc
        if cost_det is None:
            cost_det = cost_of_control(spec, u)
        record = IterationRecord(k=k, u=u, phi=phi, cost_det=cost_det,
                                 cost_stoch=cost_stoch, n_realizations=n_k)
        records.append(record)
        if log is not None:
            log(record)
        if k == iterations:
            break
        phi_tv = tv_denoise(phi, params.w_tv)
        stepped = gradient_step(u, phi_tv, params.eta)
        eps = 0.0 if k < params.epsilon_warmup else params.epsilon
        u = project_controls(stepped, eps, spec.u_max)
    return records


def _hc_spread(spec: ProblemSpec, u: ControlSchedule) -> float:
    """Max-min spread of the c-Hamiltonian, normalized by its magnitude."""
    rho, lam = _state_costate(spec, u)
    hc = c_hamiltonian(rho, lam, spec, u).values
    return float((hc.max() - hc.min()) / np.abs(hc).max())


def _fractional_runs(values: np.ndarray,
                     u_max: float) -> list[tuple[int, int]]:
    """Half-open index runs of unsaturated bins between opposite-sign arcs.

    Each short run (length one or two) pins a sign change of the control.
    Longer runs are singular structure, not a pinned switch, and interior
    runs touching the grid ends have no flanking arc to switch between;
    both are excluded.
    """
    sat = np.abs(values) >= u_max * (1.0 - 1e-9)
    out: list[tuple[int, int]] = []
    i = 0
    n = values.size
    while i < n:
        if sat[i]:
            i += 1
            continue
        j = i
        while j < n and not sat[j]:
            j += 1
        if i > 0 and j < n and j - i <= 2 and values[i - 1] * values[j] < 0:
            out.append((i, j))
        i = j
    return out


def _transversal_bins(values: np.ndarray, u_max: float) -> list[int]:
    """Flat list of the bins inside the runs found by _fractional_runs."""
    out: list[int] = []
    for i, j in _fractional_runs(values, u_max):
        out.extend(range(i, j))
    return out


def _phi_values(spec: ProblemSpec, u: ControlSchedule) -> np.ndarray:
    rho, lam = _state_costate(spec, u)
    return switching_function(rho, lam, spec.Hu).values


def _solve_bin_value(spec: ProblemSpec, u: ControlSchedule,
                     i: int) -> ControlSchedule:
    """Stationary value of one bin with all other bins held fixed.

    Plain gradient steps crawl on this coordinate because the sensitivity
    of Phi_i to its own bin value shrinks with the bin width.  The same
    stationarity condition is closed directly: the root of Phi_i(v) on the
    admissible range, or the bound the descent direction pushes into when
    Phi_i does not change sign.  Each root-solve evaluation reuses one
    sweep each way and costs a single bin exponential.
    """
    phi_i = _bin_switching(spec, u, i)
    lo, hi = -spec.u_max, spec.u_max
    f_lo, f_hi = phi_i(lo), phi_i(hi)
    if f_lo == 0.0:
        root = lo
    elif f_hi == 0.0:
        root = hi
    elif np.sign(f_lo) == np.sign(f_hi):
        root = hi if f_lo < 0.0 else lo
    else:
        root = brentq(phi_i, lo, hi, xtol=1e-13, rtol=8.9e-16)
    vals = u.values.copy()
    vals[i] = root
    return u.with_values(vals)


def _resolve_switch_pair(spec: ProblemSpec, u: ControlSchedule, i: int,
                         j: int) -> ControlSchedule:
    """Collapse a two-bin fractional run onto one pinned switch bin.

    A doubled grid duplicates the coarse switch bin; the stationary point
    wants one copy saturated onto its neighboring arc and the other
    fractional.  Both assignments are solved and the cheaper one kept.
    """
    left = float(np.sign(u.values[i - 1])) * spec.u_max
    right = float(np.sign(u.values[j])) * spec.u_max
    best = None
    for fix, solve, fix_val in ((i, i + 1, left), (i + 1, i, right)):
        vals = u.values.copy()
        vals[fix] = fix_val
        cand = _solve_bin_value(spec, u.with_values(vals), solve)
        cost = cost_of_control(spec, cand)
        if best is None or cost < best[0]:
            best = (cost, cand)
    return best[1]


def _stationarity_sweep(spec: ProblemSpec, u: ControlSchedule, *,
                        tol: float = 1e-3,
                        max_passes: int = 60) -> ControlSchedule:
    """Close the per-bin stationarity conditions by direct root solves.

    Each pass fixes at most one misplaced arc bin (a saturated bin whose
    gradient points inward), then resolves doubled switch runs, then
    re-solves pinned switch bins.  Arc boundaries shift one bin per pass,
    so the pass count is capped rather than iterated to exhaustion.
    """
    for _ in range(max_passes):
        before = u.values
        phi = _phi_values(spec, u)
        scale = np.abs(phi).max()
        sat = np.abs(u.values) >= spec.u_max * (1.0 - 1e-12)
        wrong = np.flatnonzero(sat & (np.sign(u.values) == np.sign(phi))
                               & (np.abs(phi) > tol * scale))
        if wrong.size:
            u = _solve_bin_value(spec, u, int(wrong[0]))
            continue
        for i, j in _fractional_runs(u.values, spec.u_max):
            if j - i == 2:
                u = _resolve_switch_pair(spec, u, i, j)
            else:
                u = _solve_bin_value(spec, u, i)
        if np.abs(u.values - before).max() < 1e-12:
            break
    return u


def polish_control(spec: ProblemSpec, u: ControlSchedule, *,
                   eta: float = 2.0, block: int = 100, max_blocks: int = 12,
                   spread_tol: float = 1.5e-3) -> ControlSchedule:
    """Drive a control to the discrete stationary point of the plain cost.

    Alternates stationarity sweeps (direct root solves on switch and arc
    boundary bins, the coordinates plain gradient steps crawl on) with
    unfiltered projected-gradient blocks (no TV weight, no snap margin,
    larger step) until the normalized c-Hamiltonian spread stalls.  The
    TV weight and the snap margin both perturb the stationarity
    conditions, so the final point must be computed without them.
    """
    params = FilterParams(eta=eta, w_tv=0.0, epsilon=0.0, epsilon_warmup=0)
    u = _stationarity_sweep(spec, u)
    prev: float | None = None
    for _ in range(max_blocks):
        records = optimize(spec, deterministic_provider(), params,
                           SampleSchedule.constant(1), u, block)
        u = _stationarity_sweep(spec, records[-1].u)
        spread = _hc_spread(spec, u)
        if prev is not None and abs(spread - prev) < spread_tol:
            break
        prev = spread
    return u


def reference_control(spec: ProblemSpec, iterations: int = 300,
                      params: FilterParams | None = None) -> ControlSchedule:
    """Converged control from the deterministic provider.

    This is the package's reproducible stand-in for an externally supplied
    optimal control; the acceptance checks verify the Pontryagin conditions
    on it rather than any published waveform.  The run starts from a
    constant interior control: a zero start can sit exactly on a stationary
    saddle of the benchmarks (the gradient vanishes identically there by
    symmetry), which the iteration would never leave.  A default-parameter
    stage shapes the bang arcs; a final unfiltered polish then settles the
    stationarity conditions.
    """
    if params is None:
        params = FilterParams()
    u0 = constant_control(spec.t_f, spec.n_bins, 0.5 * spec.u_max)
    records = optimize(spec, deterministic_provider(), params,
                       SampleSchedule.constant(1), u0, iterations)
    return polish_control(spec, records[-1].u)


def refine_control(spec: ProblemSpec, u: ControlSchedule,
                   n_final: int) -> tuple[ProblemSpec, ControlSchedule]:
    """Continue a converged control onto finer grids by bin doubling.

    The spread of the c-Hamiltonian at a stationary point is dominated by
    the switch bins and shrinks linearly with the bin width, so a control
    converged on a coarse grid is re-polished after each doubling instead
    of re-optimized from scratch.  Returns the refined problem and control.
    """
    if n_final < spec.n_bins:
        raise ValueError("n_final must not be below the current grid")
    ratio = n_final // spec.n_bins
    if ratio * spec.n_bins != n_final or ratio & (ratio - 1):
        raise ValueError("n_final must be n_bins times a power of two")
    while spec.n_bins < n_final:
        spec = spec.with_bins(spec.n_bins * 2)
        u = ControlSchedule(values=np.repeat(u.values, 2), dt=u.dt / 2.0)
        u = polish_control(spec, u)
    return spec, u


# ---------------------------------------------------------------------------
# Iteration CSV: k, n_realizations, cost_det, cost_stoch, cost_stoch_stderr.
# Missing stochastic fields stay empty.
# ---------------------------------------------------------------------------

def records_to_csv(records: list[IterationRecord]) -> str:
    lines = ["k,n_realizations,cost_det,cost_stoch,cost_stoch_stderr"]
    for rec in records:
        stoch = ("", "")
        if rec.cost_stoch is not None:
            stoch = (format_real(rec.cost_stoch.mean),
                     format_real(rec.cost_stoch.std_err))
        det = "" if rec.cost_det is None else format_real(rec.cost_det)
        lines.append(f"{rec.k},{rec.n_realizations},{det},{stoch[0]},{stoch[1]}")
    return "\n".join(lines) + "\n"


def read_records_csv(text: str) -> list[dict]:
    """Rows as dicts with None for empty fields; inverse of records_to_csv."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        row = {}
        for name, value in zip(header, parts):
            if value == "":
                row[name] = None
            elif name in ("k", "n_realizations"):
                row[name] = int(value)
            else:
                row[name] = float(value)
        rows.append(row)
    return rows
