"""Control problem definitions and the two single-qubit benchmark presets.

A problem couples a drift Hamiltonian H0, a single control Hamiltonian Hu
(so H(t) = H0 + u(t) Hu with |u| <= u_max), one jump operator L with rate
gamma >= 0, boundary states, a horizon t_f and a uniform time grid.

Both benchmarks use H0 = sigma_x, Hu = sigma_z, L = sigma_x, gamma = 0.5,
t_f = 0.9*pi and |u| <= 1:

* retention: initial and target state both (1, 0)^T;
* preparation: two fixed states with Bloch vectors (-1/sqrt5, 0, -+2/sqrt5).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .quantum_core import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    TOL_ALGEBRA,
    as_operator,
    as_state,
    is_hermitian,
    operator_from_json,
    operator_to_json,
    state_from_json,
    state_to_json,
)

DEFAULT_N_BINS = 100


@dataclass(frozen=True)
class ProblemSpec:
    """One open-system control problem on a uniform grid.

    Immutable; values are validated once at construction and safe to share.
    """

    H0: np.ndarray
    Hu: np.ndarray
    L: np.ndarray
    gamma: float
    psi_ini: np.ndarray
    psi_tar: np.ndarray
    t_f: float
    n_bins: int = DEFAULT_N_BINS
    u_max: float = 1.0
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "H0", as_operator(self.H0))
        object.__setattr__(self, "Hu", as_operator(self.Hu))
        object.__setattr__(self, "L", as_operator(self.L))
        object.__setattr__(self, "psi_ini", as_state(self.psi_ini))
        object.__setattr__(self, "psi_tar", as_state(self.psi_tar))
        d = self.H0.shape[0]
        for label, arr in (("Hu", self.Hu), ("L", self.L)):
            if arr.shape[0] != d:
                raise ValueError(f"{label} dimension {arr.shape[0]} != {d}")
        for label, vec in (("psi_ini", self.psi_ini), ("psi_tar", self.psi_tar)):
            if vec.shape[0] != d:
                raise ValueError(f"{label} dimension {vec.shape[0]} != {d}")
            if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise ValueError(f"{label} must be normalized to 1e-12")
        if not is_hermitian(self.H0, TOL_ALGEBRA):
            raise ValueError("H0 must be Hermitian")
        if not is_hermitian(self.Hu, TOL_ALGEBRA):
            raise ValueError("Hu must be Hermitian")
        if self.gamma < 0:
            # The jump unraveling only increases entropy; a negative rate has
            # no stochastic representation, so it is rejected outright.
            raise ValueError("gamma must be >= 0")
        if not self.t_f > 0:
            raise ValueError("t_f must be positive")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if not self.u_max > 0:
            raise ValueError("u_max must be positive")

    @property
    def dim(self) -> int:
        return self.H0.shape[0]

    @property
    def dt(self) -> float:
        return self.t_f / self.n_bins

    @cached_property
    def generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (M0, Mu) with Liouvillian M(u) = M0 + u*Mu.

        H(u) = H0 + u*Hu enters the vectorized generator linearly and the
        dissipator does not depend on u, so both parts are built once per
        problem: M0 = liouvillian(H0, L, gamma), Mu = liouvillian(Hu, L, 0).
        """
        from .lindblad import liouvillian
        parts = (liouvillian(self.H0, self.L, self.gamma),
                 liouvillian(self.Hu, self.L, 0.0))
        for part in parts:
            part.flags.writeable = False
        return parts

    @property
    def rho_ini(self) -> np.ndarray:
        return np.outer(self.psi_ini, self.psi_ini.conj())

    @property
    def rho_tar(self) -> np.ndarray:
        return np.outer(self.psi_tar, self.psi_tar.conj())

    def with_bins(self, n_bins: int) -> "ProblemSpec":
        return replace(self, n_bins=n_bins)


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control u(t) on a uniform grid; values[i] holds on
    [i*dt, (i+1)*dt)."""

    values: np.ndarray
    dt: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("control values must be a non-empty 1-d array")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "values", v)

    @property
    def n_bins(self) -> int:
        return self.values.size

    @property
    def t_f(self) -> float:
        return self.n_bins * self.dt

    @property
    def times(self) -> np.ndarray:
        """Left bin edges."""
        return np.arange(self.n_bins) * self.dt

    def with_values(self, values: np.ndarray) -> "ControlSchedule":
        return ControlSchedule(values=np.asarray(values, dtype=float), dt=self.dt)


def zero_control(t_f: float, n_bins: int) -> ControlSchedule:
    return ControlSchedule(values=np.zeros(n_bins), dt=t_f / n_bins)


def constant_control(t_f: float, n_bins: int, value: float) -> ControlSchedule:
    return ControlSchedule(values=np.full(n_bins, float(value)), dt=t_f / n_bins)


def step_control(t_f: float, n_bins: int) -> ControlSchedule:
    """u = -1 on the first half of the horizon, +1 on the second half."""
    if n_bins % 2 != 0:
        raise ValueError("step control needs an even bin count so the step "
                         "falls on a bin boundary")
    values = np.concatenate([np.full(n_bins // 2, -1.0), np.full(n_bins // 2, 1.0)])
    return ControlSchedule(values=values, dt=t_f / n_bins)


def make_retention_problem(n_bins: int = DEFAULT_N_BINS, *,
                           x_basis_states: bool = False) -> ProblemSpec:
    """State retention benchmark: hold the initial state against dissipation.

    The primary definition takes psi_ini = psi_tar = (1, 0)^T in the standard
    (sigma_z-diagonal) basis.  ``x_basis_states=True`` uses (1, 1)^T/sqrt(2)
    instead, i.e. rho = (1 + sigma_x)/2, for comparison runs under the
    alternative Bloch convention.
    """
    if x_basis_states:
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    else:
        psi = np.array([1.0, 0.0], dtype=complex)
    return ProblemSpec(
        H0=SIGMA_X, Hu=SIGMA_Z, L=SIGMA_X, gamma=0.5,
        psi_ini=psi, psi_tar=psi,
        t_f=0.9 * np.pi, n_bins=n_bins, u_max=1.0, name="retention",
    )


def make_preparation_problem(n_bins: int = DEFAULT_N_BINS) -> ProblemSpec:
    """State preparation benchmark: steer between two fixed pure states."""
    s5 = np.sqrt(5.0)
    psi_ini = np.array([1.0, -2.0 - s5], dtype=complex) / np.sqrt(10.0 + 4.0 * s5)
    psi_tar = np.array([1.0, 2.0 - s5], dtype=complex) / np.sqrt(10.0 - 4.0 * s5)
    return ProblemSpec(
        H0=SIGMA_X, Hu=SIGMA_Z, L=SIGMA_X, gamma=0.5,
        psi_ini=psi_ini, psi_tar=psi_tar,
        t_f=0.9 * np.pi, n_bins=n_bins, u_max=1.0, name="preparation",
    )


PRESETS = {
    "retention": make_retention_problem,
    "preparation": make_preparation_problem,
}


def hamiltonian_at(spec: ProblemSpec, u: float) -> np.ndarray:
    """H0 + u*Hu.  Warns (does not fail) for |u| beyond the bound, since
    optimizer intermediates may exceed it before projection."""
    if abs(u) > spec.u_max * (1 + 1e-12):
        warnings.warn(f"control value {u} exceeds bound {spec.u_max}",
                      stacklevel=2)
    return spec.H0 + u * spec.Hu


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(x, y, z) components of a qubit density matrix."""
    rho = as_operator(rho)
    if rho.shape[0] != 2:
        raise ValueError("Bloch decomposition needs a 2x2 matrix")
    from .quantum_core import SIGMA_Y
    return np.array([
        np.trace(rho @ SIGMA_X).real,
        np.trace(rho @ SIGMA_Y).real,
        np.trace(rho @ SIGMA_Z).real,
    ])


# ---------------------------------------------------------------------------
# Config-file round trip.  Schema (JSON, documented in the README):
#   either  {"preset": "retention"|"preparation", "n_bins": int?}
#   or      {"H0": [[[re,im],...]], "Hu": ..., "L": ..., "gamma": float,
#            "psi_ini": [[re,im],...], "psi_tar": ..., "t_f": float,
#            "n_bins": int, "u_max": float, "name": str?}
# ---------------------------------------------------------------------------

def problem_to_dict(spec: ProblemSpec) -> dict:
    return {
        "H0": operator_to_json(spec.H0),
        "Hu": operator_to_json(spec.Hu),
        "L": operator_to_json(spec.L),
        "gamma": spec.gamma,
        "psi_ini": state_to_json(spec.psi_ini),
        "psi_tar": state_to_json(spec.psi_tar),
        "t_f": spec.t_f,
        "n_bins": spec.n_bins,
        "u_max": spec.u_max,
        "name": spec.name,
    }


def problem_from_dict(data: dict) -> ProblemSpec:
    if "preset" in data:
        preset = data["preset"]
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; "
                             f"choose from {sorted(PRESETS)}")
        kwargs = {}
        if "n_bins" in data:
            kwargs["n_bins"] = int(data["n_bins"])
        return PRESETS[preset](**kwargs)
    return ProblemSpec(
        H0=operator_from_json(data["H0"]),
        Hu=operator_from_json(data["Hu"]),
        L=operator_from_json(data["L"]),
        gamma=float(data["gamma"]),
        psi_ini=state_from_json(data["psi_ini"]),
        psi_tar=state_from_json(data["psi_tar"]),
        t_f=float(data["t_f"]),
        n_bins=int(data.get("n_bins", DEFAULT_N_BINS)),
        u_max=float(data.get("u_max", 1.0)),
        name=str(data.get("name", "custom")),
    )


def save_problem(spec: ProblemSpec, path) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(spec), indent=2,
                                     sort_keys=True) + "\n", encoding="utf-8")


def load_problem(path) -> ProblemSpec:
    return problem_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def control_to_csv(u: ControlSchedule) -> str:
    """Two columns: left bin edge and control value, 17 significant digits."""
    from .quantum_core import format_real
    lines = ["t,u"]
    for t, v in zip(u.times, u.values):
        lines.append(f"{format_real(t)},{format_real(v)}")
    return "\n".join(lines) + "\n"


def read_control_csv(text: str) -> ControlSchedule:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines or lines[0].split(",")[:2] != ["t", "u"]:
        raise ValueError("control CSV must start with a 't,u' header")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if data.shape[0] < 1:
        raise ValueError("control CSV has no rows")
    if data.shape[0] == 1:
        raise ValueError("control CSV needs at least two rows to fix dt")
    steps = np.diff(data[:, 0])
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("control CSV grid must be uniform")
    return ControlSchedule(values=data[:, 1], dt=float(steps[0]))
