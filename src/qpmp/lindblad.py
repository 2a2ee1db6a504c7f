"""Deterministic engine: density-matrix and costate propagation on a grid.

The master equation

    drho/dt = -i[H(t), rho] + gamma*(L rho L^+ - (1/2){L^+L, rho})

is integrated per control bin with the exact exponential of the vectorized
(row-major) Liouvillian, so the only discretization is the piecewise-constant
control itself.  The costate obeys the adjoint equation

    dlam/dt = -i[H(t), lam] - gamma*(L^+ lam L - (1/2){L^+L, lam})

backward from a terminal boundary.  One backward step equals the conjugate
transpose of the forward step, which makes Tr[lam(t) rho(t)] exactly
conserved and ties the switching function

    Phi(t) = Im Tr[lam [Hu, rho]]

to the gradient of the terminal cost with respect to the bin controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .problems import ControlSchedule, ProblemSpec
from .quantum_core import (
    TOL_ALGEBRA,
    as_operator,
    dag,
    format_real,
    is_hermitian,
    require_finite,
)

CONVENTIONS = ("midpoint", "left")


@dataclass(frozen=True)
class OperatorPath:
    """Hermitian-operator-valued path on the grid nodes.

    ``ops[i]`` lives at ``times[i]``; ``mid_ops[i]``, when present, is the
    value at the center of bin i and feeds the midpoint sampling convention.
    """

    times: np.ndarray
    ops: np.ndarray
    mid_ops: np.ndarray | None = None
    kind: str = "generic"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        ops = np.asarray(self.ops, dtype=complex)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("path needs at least two grid nodes")
        if ops.shape != (times.size, ops.shape[1], ops.shape[1]):
            raise ValueError("ops must be a stack of square matrices, one per node")
        require_finite(ops, "path operators")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ops", ops)
        if self.mid_ops is not None:
            mids = np.asarray(self.mid_ops, dtype=complex)
            if mids.shape != (times.size - 1, ops.shape[1], ops.shape[1]):
                raise ValueError("mid_ops must hold one matrix per bin")
            require_finite(mids, "path midpoint operators")
            object.__setattr__(self, "mid_ops", mids)

    @property
    def n_bins(self) -> int:
        return self.times.size - 1

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class SwitchingCurve:
    """Per-bin real scalar curve (switching function or c-Hamiltonian).

    ``convention`` records where within each bin the value was sampled:
    "midpoint" (times at bin centers) or "left" (times at left edges).
    """

    times: np.ndarray
    values: np.ndarray
    convention: str = "midpoint"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.shape != times.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        require_finite(values, "curve values")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_bins(self) -> int:
        return self.times.size


def liouvillian(H: np.ndarray, L: np.ndarray, gamma: float) -> np.ndarray:
    """Vectorized generator M with vec(drho/dt) = M vec(rho), row-major vec."""
    H = as_operator(H)
    L = as_operator(L)
    d = H.shape[0]
    eye = np.eye(d)
    M = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    if gamma != 0.0:
        LdL = dag(L) @ L
        M = M + gamma * (np.kron(L, L.conj())
                         - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T)))
    return M


def _check_grid(spec: ProblemSpec, u: ControlSchedule) -> None:
    if u.n_bins != spec.n_bins:
        raise ValueError(f"control has {u.n_bins} bins, problem expects "
                         f"{spec.n_bins}")
    if abs(u.t_f - spec.t_f) > 1e-9 * max(1.0, spec.t_f):
        raise ValueError("control horizon does not match the problem")


def _bin_steps(spec: ProblemSpec, values: np.ndarray,
               tau: float) -> np.ndarray:
    """expm((M0 + v*Mu)*tau) for every entry v of ``values``.

    Each distinct value is exponentiated once; the generator parts come
    from ``spec.generators`` and are built once per problem.
    """
    M0, Mu = spec.generators
    vals, inverse = np.unique(values, return_inverse=True)
    return expm((M0 + vals[:, None, None] * Mu) * tau)[inverse]


def _half_propagators(spec: ProblemSpec, u: ControlSchedule,
                      substeps: int = 1) -> np.ndarray:
    """Per-bin expm(M(u_i)*dt/2); a full bin step is the square.

    ``substeps`` assembles the same half step as expm(M*dt/(2*s))^s; the
    exponential is exact either way, the knob exists for convergence checks.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    halves = _bin_steps(spec, u.values, u.dt / (2.0 * substeps))
    if substeps > 1:
        halves = np.linalg.matrix_power(halves, substeps)
    return halves


def _adjoint(halves: np.ndarray) -> np.ndarray:
    """Backward half steps: the conjugate transpose of each forward one."""
    return halves.conj().transpose(0, 2, 1)


def _sweep(steps: np.ndarray, start: np.ndarray,
           backward: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Apply each bin's half step twice: vectorized nodes (m+1), mid-bins (m).

    A forward sweep starts at node 0 and walks the bins in order; a backward
    sweep starts at node m and walks them in reverse.
    """
    m = steps.shape[0]
    nodes = np.empty((m + 1, start.size), dtype=complex)
    mids = np.empty((m, start.size), dtype=complex)
    walk = slice(None, None, -1 if backward else 1)
    path = nodes[walk]
    v = path[0] = start.reshape(-1)
    for step, mid, node in zip(steps[walk], mids[walk], path[1:]):
        np.dot(step, v, out=mid)
        np.dot(step, mid, out=node)
        v = node
    return nodes, mids


def _sweep_rho(halves: np.ndarray,
               rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward sweep from ``rho0``, checked for trace preservation.

    Raises if the trace of any node drifts from 1 by more than 1e-10,
    naming the first bin whose step broke it.
    """
    nodes, mids = _sweep(halves, rho0)
    m, d = mids.shape[0], rho0.shape[0]
    drift = np.abs(np.trace(nodes[1:].reshape(m, d, d), axis1=1,
                            axis2=2).real - 1.0)
    bad = np.flatnonzero(drift > 1e-10)
    if bad.size:
        i = int(bad[0])
        raise RuntimeError(f"trace drift {drift[i]:.3e} at step {i}")
    return nodes, mids


def _as_path(nodes: np.ndarray, mids: np.ndarray, dt: float,
             kind: str) -> OperatorPath:
    d = math.isqrt(nodes.shape[1])
    m = mids.shape[0]
    return OperatorPath(times=np.arange(m + 1) * dt,
                        ops=nodes.reshape(m + 1, d, d),
                        mid_ops=mids.reshape(m, d, d), kind=kind)


def propagate_rho(spec: ProblemSpec, u: ControlSchedule,
                  substeps: int = 1) -> OperatorPath:
    """Forward path of the density matrix from |psi_ini><psi_ini|."""
    _check_grid(spec, u)
    halves = _half_propagators(spec, u, substeps)
    return _as_path(*_sweep_rho(halves, spec.rho_ini), u.dt, "state")


def propagate_costate(spec: ProblemSpec, u: ControlSchedule,
                      boundary: np.ndarray | None = None,
                      substeps: int = 1) -> OperatorPath:
    """Backward costate path; ``boundary`` is lam(t_f).

    Defaults to -|psi_tar><psi_tar|, the terminal-cost derivative.  Each
    backward step applies the conjugate transpose of the forward bin step,
    the exact adjoint of the forward flow.
    """
    _check_grid(spec, u)
    if boundary is None:
        boundary = -spec.rho_tar
    boundary = as_operator(boundary)
    if boundary.shape[0] != spec.dim:
        raise ValueError("boundary dimension does not match the problem")
    if not is_hermitian(boundary, TOL_ALGEBRA):
        raise ValueError("costate boundary must be Hermitian")
    backs = _adjoint(_half_propagators(spec, u, substeps))
    return _as_path(*_sweep(backs, boundary, backward=True), u.dt, "costate")


def _state_costate(spec: ProblemSpec, u: ControlSchedule
                   ) -> tuple[OperatorPath, OperatorPath]:
    """State and default-boundary costate paths from one set of half steps."""
    _check_grid(spec, u)
    halves = _half_propagators(spec, u)
    backs = _adjoint(halves)
    rho = _as_path(*_sweep_rho(halves, spec.rho_ini), u.dt, "state")
    lam = _as_path(*_sweep(backs, -spec.rho_tar, backward=True), u.dt,
                   "costate")
    return rho, lam


def _bin_switching(spec: ProblemSpec, u: ControlSchedule, i: int):
    """Phi_i as a function of bin i's value, every other bin held fixed.

    Phi_i depends on the other bins only through rho at node i and lam at
    node i+1, so one sweep each way fixes both; each evaluation of the
    returned function is then one exponential and two matrix-vector
    products, and equals Phi_i of the full re-propagation.
    """
    rho, lam = _state_costate(spec, u)
    rho_i = rho.ops[i].reshape(-1)
    lam_next = lam.ops[i + 1].reshape(-1)
    d = spec.dim

    def phi(v: float) -> float:
        half = _bin_steps(spec, np.array([v]), u.dt / 2.0)
        rho_mid = half[0] @ rho_i
        lam_mid = _adjoint(half)[0] @ lam_next
        return float(_phi_stack(rho_mid.reshape(1, d, d),
                                 lam_mid.reshape(1, d, d), spec.Hu)[0])

    return phi


def _bin_samples(rho_path: OperatorPath, lam_path: OperatorPath,
                 convention: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not np.allclose(rho_path.times, lam_path.times, atol=1e-12):
        raise ValueError("state and costate paths use different grids")
    if convention == "midpoint":
        if rho_path.mid_ops is None or lam_path.mid_ops is None:
            raise ValueError("midpoint convention needs mid-bin operators")
        times = rho_path.times[:-1] + 0.5 * rho_path.dt
        return rho_path.mid_ops, lam_path.mid_ops, times
    if convention == "left":
        return rho_path.ops[:-1], lam_path.ops[:-1], rho_path.times[:-1]
    raise ValueError(f"convention must be one of {CONVENTIONS}")


def switching_function(rho_path: OperatorPath, lam_path: OperatorPath,
                       Hu: np.ndarray,
                       convention: str = "midpoint") -> SwitchingCurve:
    """Phi per bin: Im Tr[lam [Hu, rho]] at the sampled point of each bin.

    The midpoint convention matches the central-difference cost gradient to
    O(dt^2); the left convention matches the stochastic estimators, which
    sample states at the left node of each bin.
    """
    Hu = as_operator(Hu)
    rhos, lams, times = _bin_samples(rho_path, lam_path, convention)
    return SwitchingCurve(times=times, values=_phi_stack(rhos, lams, Hu),
                          convention=convention)


def _phi_stack(rhos: np.ndarray, lams: np.ndarray,
               Hu: np.ndarray) -> np.ndarray:
    """Im Tr[lam [Hu, rho]] for stacks of states and costates."""
    comm = np.einsum("ij,njk->nik", Hu, rhos) - np.einsum("nij,jk->nik", rhos, Hu)
    return np.einsum("nij,nji->n", lams, comm).imag


def c_hamiltonian(rho_path: OperatorPath, lam_path: OperatorPath,
                  spec: ProblemSpec, u: ControlSchedule,
                  convention: str = "midpoint",
                  form: str = "rho") -> SwitchingCurve:
    """Pontryagin scalar Tr[lam drho/dt] per bin; constant on an optimum.

    ``form`` picks the trace arrangement: "rho" evaluates
    Im Tr[lam [H, rho]] + gamma Re Tr[lam (L rho L^+ - (1/2){L^+L, rho})],
    "lambda" the cyclically equivalent form with the operators moved onto
    the costate.  Both agree to rounding; having the pair is a cheap check.
    """
    _check_grid(spec, u)
    rhos, lams, times = _bin_samples(rho_path, lam_path, convention)
    H = spec.H0[None, :, :] + u.values[:, None, None] * spec.Hu[None, :, :]
    L = spec.L
    LdL = dag(L) @ L
    if form == "rho":
        comm = H @ rhos - rhos @ H
        unitary = np.einsum("nij,nji->n", lams, comm).imag
        diss = (np.einsum("ij,njk,kl->nil", L, rhos, dag(L))
                - 0.5 * (np.einsum("ij,njk->nik", LdL, rhos)
                         + np.einsum("nij,jk->nik", rhos, LdL)))
        dissipative = np.einsum("nij,nji->n", lams, diss).real
    elif form == "lambda":
        comm = H @ lams - lams @ H
        unitary = -np.einsum("nij,nji->n", rhos, comm).imag
        diss = (np.einsum("ij,njk,kl->nil", dag(L), lams, L)
                - 0.5 * (np.einsum("ij,njk->nik", LdL, lams)
                         + np.einsum("nij,jk->nik", lams, LdL)))
        dissipative = np.einsum("nij,nji->n", rhos, diss).real
    else:
        raise ValueError("form must be 'rho' or 'lambda'")
    values = unitary + spec.gamma * dissipative
    return SwitchingCurve(times=times, values=values, convention=convention)


def terminal_cost(rho_final: np.ndarray, psi_tar: np.ndarray) -> float:
    """-<psi_tar| rho(t_f) |psi_tar>, in [-1, 0] for density matrices."""
    rho_final = as_operator(rho_final)
    if not is_hermitian(rho_final, TOL_ALGEBRA):
        raise ValueError("terminal state must be Hermitian")
    psi_tar = np.asarray(psi_tar, dtype=complex).reshape(-1)
    return float(-np.vdot(psi_tar, rho_final @ psi_tar).real)


def cost_of_control(spec: ProblemSpec, u: ControlSchedule,
                    substeps: int = 1) -> float:
    """Terminal cost of one forward propagation."""
    path = propagate_rho(spec, u, substeps)
    return terminal_cost(path.ops[-1], spec.psi_tar)


def conserved_pairing(rho_path: OperatorPath, lam_path: OperatorPath) -> np.ndarray:
    """Tr[lam(t) rho(t)] per node; constant under the dual propagations."""
    if not np.allclose(rho_path.times, lam_path.times, atol=1e-12):
        raise ValueError("state and costate paths use different grids")
    return np.einsum("nij,nji->n", lam_path.ops, rho_path.ops).real


def finite_difference_gradient(spec: ProblemSpec, u: ControlSchedule,
                               bin_index: int, delta: float) -> float:
    """Central difference [C(u + d e_i) - C(u - d e_i)] / (2 d dt).

    Normalizing by dt turns the per-bin cost sensitivity into the density
    that the switching function approximates.
    """
    if not 0 <= bin_index < u.n_bins:
        raise ValueError(f"bin_index {bin_index} out of range")
    if not delta > 0:
        raise ValueError("delta must be positive")
    up = u.values.copy()
    up[bin_index] += delta
    um = u.values.copy()
    um[bin_index] -= delta
    cp = cost_of_control(spec, u.with_values(up))
    cm = cost_of_control(spec, u.with_values(um))
    return (cp - cm) / (2.0 * delta * u.dt)


def finite_difference_curve(spec: ProblemSpec, u: ControlSchedule,
                            delta: float) -> np.ndarray:
    """Central-difference gradient for every bin at once.

    Only the perturbed bin's propagator changes, so the cost difference
    factorizes through the unperturbed state and costate at the bin's
    endpoints; this reuses one base propagation instead of 2*n_bins.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    _check_grid(spec, u)
    halves = _half_propagators(spec, u)
    fwd = _sweep_rho(halves, spec.rho_ini)[0]
    bwd = _sweep(_adjoint(halves), -spec.rho_tar, backward=True)[0]
    m = u.n_bins
    shifted = np.concatenate([u.values + delta, u.values - delta])
    steps = _bin_steps(spec, shifted, u.dt).reshape(2, m, *halves.shape[1:])
    costs = np.einsum("nk,snkl,nl->sn", bwd[1:].conj(), steps, fwd[:-1]).real
    return (costs[0] - costs[1]) / (2.0 * delta * u.dt)


class BangResult(NamedTuple):
    control: ControlSchedule
    singular: np.ndarray


def bang_from_phi(phi: SwitchingCurve, threshold: float | None = None,
                  previous: np.ndarray | float | None = None,
                  u_max: float = 1.0, dt: float | None = None) -> BangResult:
    """-u_max*sign(Phi) where |Phi| clears the threshold; rest flagged singular.

    ``threshold`` is absolute; None means 1e-3 of max|Phi|.  Singular bins
    keep ``previous`` (scalar or per-bin array, default 0).  Diagnostic
    only; the optimizer never calls this.
    """
    if threshold is not None and threshold < 0:
        raise ValueError("threshold must be >= 0")
    values = phi.values
    if threshold is None:
        threshold = 1e-3 * float(np.max(np.abs(values), initial=0.0))
    singular = np.abs(values) <= threshold
    if previous is None:
        base = np.zeros(values.size)
    else:
        base = np.broadcast_to(np.asarray(previous, dtype=float),
                               values.shape).copy()
    out = np.where(singular, base, -u_max * np.sign(values))
    if dt is None:
        dt = float(phi.times[1] - phi.times[0]) if phi.times.size > 1 else 1.0
    return BangResult(ControlSchedule(values=out, dt=dt), singular)


# ---------------------------------------------------------------------------
# CSV round trip.  Paths: t, re_00, im_00, re_01, ... row per node.
# Curves: t, phi.  17 significant digits so reads reproduce the floats.
# ---------------------------------------------------------------------------

def path_to_csv(path: OperatorPath) -> str:
    d = path.dim
    cols = ["t"]
    for i in range(d):
        for j in range(d):
            cols += [f"re_{i}{j}", f"im_{i}{j}"]
    lines = [",".join(cols)]
    for t, op in zip(path.times, path.ops):
        row = [format_real(t)]
        for i in range(d):
            for j in range(d):
                row += [format_real(op[i, j].real), format_real(op[i, j].imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def read_path_csv(text: str) -> OperatorPath:
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    d2 = (len(header) - 1) // 2
    d = int(round(np.sqrt(d2)))
    if 1 + 2 * d * d != len(header):
        raise ValueError("path CSV header does not describe a square matrix")
    times = []
    ops = []
    for ln in lines[1:]:
        parts = [float(x) for x in ln.split(",")]
        times.append(parts[0])
        flat = np.array(parts[1::2]) + 1j * np.array(parts[2::2])
        ops.append(flat.reshape(d, d))
    return OperatorPath(times=np.array(times), ops=np.array(ops))


def curve_to_csv(curve: SwitchingCurve) -> str:
    lines = ["t,phi"]
    for t, v in zip(curve.times, curve.values):
        lines.append(f"{format_real(t)},{format_real(v)}")
    return "\n".join(lines) + "\n"


def read_curve_csv(text: str, convention: str = "midpoint") -> SwitchingCurve:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if lines[0].split(",")[0] != "t":
        raise ValueError("curve CSV must start with a header row")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return SwitchingCurve(times=data[:, 0], values=data[:, 1],
                          convention=convention)
