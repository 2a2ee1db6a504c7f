"""Stochastic quantum-jump engine: trajectories, estimators, both procedures.

The linear unraveling propagates unnormalized wave functions

    |dpsi> = G|psi> dt + (L|psi> - |psi>) dN,
    G = -iH - (gamma/2) L^+L + (gamma/2) 1,

where dN is 1 with probability gamma*dt per bin.  The costate runs backward
under the adjoint drift, reusing the same dN when correlation is requested:

    |-dpi> = G~|pi> dt + (L^+|pi> - |pi>) dN,   G~ = G^+.

In both drift modes the backward bin step is exactly the conjugate transpose
of the forward bin step, so <pi(t)|psi(t)> is conserved along every
realization; this is the per-trajectory version of the Tr[lam rho] pairing
of the deterministic engine.

Cost gradients per bin: the correlated estimator averages

    Phi_n(t) = 2 Im <pi_n(t)| Hu |psi_n(t)>,

whose expectation is Im Tr[lam [Hu, rho]].  The factor 2 folds the two
conjugate trace terms of the commutator into the single bilinear form.

Determinism: realization k draws from a counter-based stream derived from
(master_seed, domain, k), work is split into fixed-size chunks, and all
reductions run in ascending realization order, so outputs are byte-identical
for any thread count.  The ensembles generate their jump records a chunk at a
time, vectorized over the chunk, with the same arithmetic as numpy's
``SeedSequence`` and ``Philox`` (Salmon et al., SC'11): every record is bit
for bit the one ``sample_jump_process(u, gamma, derive_seed(master_seed,
domain, k))`` draws, so a dumped seed still replays through
``sample_jump_process``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .lindblad import (
    OperatorPath,
    SwitchingCurve,
    _check_grid,
    switching_function,
)
from .problems import ControlSchedule, ProblemSpec
from .quantum_core import (
    TOL_ALGEBRA,
    as_operator,
    dag,
    is_hermitian,
    require_finite,
)

DRIFT_MODES = ("expm", "euler")

# Stream domains keep rho-estimation, costate-estimation, correlated-pair
# sampling, and per-iteration optimizer batches statistically independent
# under one master seed.
DOMAIN_RHO = 0
DOMAIN_LAMBDA = 1
DOMAIN_PAIR = 2
DOMAIN_OPT = 3

# Fixed chunk size for batched trajectory work.  A constant (never derived
# from the thread count) keeps reduction boundaries identical across runs.
_CHUNK = 512

# Realization indices enter the stream seeds as one 32-bit entropy word.
MAX_REALIZATIONS = 2 ** 32 - 1

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the Philox4x64 round multipliers and key increments (Salmon et al., SC'11).
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def derive_seed(master_seed: int, domain: int, index: int) -> int:
    """64-bit stream seed for realization ``index`` in ``domain``."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(domain), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence
    splits its entropy (zero is one word)."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _stream_seeds(master_seed: int, domain: int, start: int,
                  stop: int) -> np.ndarray:
    """``derive_seed(master_seed, domain, k)`` for k in [start, stop), uint64.

    SeedSequence hashes its entropy words into a four-word pool in order:
    the master-seed words (zero-padded to the pool size), the domain, then
    the index.  Only the last word depends on k, so the pool before it is
    built once with Python ints and the index step runs vectorized in
    uint32 arithmetic, which wraps exactly as the C code does.
    """
    if not 0 <= start <= stop <= MAX_REALIZATIONS + 1:
        raise ValueError("realization indices must fit in 32 bits")
    run = _uint32_words(master_seed)
    entropy = run + [0] * (4 - len(run)) + _uint32_words(domain)
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # The index word mixes into every pool word, but generate_state(1,
    # uint64) reads only the first two.
    k = np.arange(start, stop, dtype=np.uint32)
    h_out = _INIT_B
    state = []
    with np.errstate(over="ignore"):
        for dst in range(2):
            v = k ^ np.uint32(h)
            h = h * _MULT_A & _MASK32
            v *= np.uint32(h)
            v ^= v >> np.uint32(16)
            r = np.uint32(_MIX_L * pool[dst] & _MASK32) - np.uint32(_MIX_R) * v
            r ^= r >> np.uint32(16)
            r ^= np.uint32(h_out)
            h_out = h_out * _MULT_B & _MASK32
            r *= np.uint32(h_out)
            r ^= r >> np.uint32(16)
            state.append(r.astype(np.uint64))
    return state[0] | (state[1] << np.uint64(32))


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product a*b, from 32-bit
    halves in uint64 arithmetic."""
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & np.uint64(_MASK32), b >> np.uint64(32)
    ll, lh, hl = b_lo * a_lo, b_hi * a_lo, b_lo * a_hi
    mid = (ll >> np.uint64(32)) + (lh & np.uint64(_MASK32)) + (
        hl & np.uint64(_MASK32))
    hi = (b_hi * a_hi + (lh >> np.uint64(32)) + (hl >> np.uint64(32))
          + (mid >> np.uint64(32)))
    return hi, b * np.uint64(a)


def _philox_uniforms(seeds: np.ndarray, n: int) -> np.ndarray:
    """Row j equals ``_generator(seeds[j]).random(n)``.

    Philox4x64-10 with key (seed, 0) turns counters 1, 2, ... into four
    64-bit words each; a double is (word >> 11) * 2**-53.  The counter is
    the same for every row and the key the same for every block, so the
    first rounds run on broadcast shapes.
    """
    blocks = -(-n // 4)
    with np.errstate(over="ignore"):
        x0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
        x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)
        k0 = np.asarray(seeds, dtype=np.uint64)[:, None]
        k1 = 0
        for r in range(10):
            if r:
                k0 = k0 + np.uint64(_PHILOX_W[0])
                k1 = (k1 + _PHILOX_W[1]) & _MASK64
            hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
        words = np.empty((k0.shape[0], blocks, 4), dtype=np.uint64)
        for i, x in enumerate((x0, x1, x2, x3)):
            words[:, :, i] = x
    words = words.reshape(k0.shape[0], 4 * blocks)[:, :n]
    return (words >> np.uint64(11)).astype(float) * (1.0 / 9007199254740992.0)


@dataclass(frozen=True)
class JumpRealization:
    """One Poisson realization dN over the control grid."""

    n_bins: int
    dN: np.ndarray
    seed: int
    gamma_dt: float

    def __post_init__(self):
        dN = np.asarray(self.dN, dtype=np.uint8)
        if dN.shape != (self.n_bins,):
            raise ValueError("dN length must equal n_bins")
        if dN.max(initial=0) > 1:
            raise ValueError("dN entries must be 0 or 1")
        if not 0.0 <= self.gamma_dt < 1.0:
            raise ValueError("gamma*dt must lie in [0, 1); refine the grid")
        object.__setattr__(self, "dN", dN)

    @property
    def n_jumps(self) -> int:
        return int(self.dN.sum())


@dataclass(frozen=True)
class StatePath:
    """Unnormalized wave-function path on the grid nodes."""

    times: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        vectors = np.asarray(self.vectors, dtype=complex)
        if times.ndim != 1 or vectors.shape[0] != times.size or vectors.ndim != 2:
            raise ValueError("vectors must hold one state per grid node")
        require_finite(vectors, "trajectory amplitudes")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n_bins(self) -> int:
        return self.times.size - 1


@dataclass(frozen=True)
class TrajectoryPair:
    """Forward state and backward costate sharing one jump realization."""

    realization: JumpRealization
    psi: StatePath
    pi: StatePath
    terminal_amp: complex

    def __post_init__(self):
        if self.psi.times.shape != self.pi.times.shape:
            raise ValueError("psi and pi must share the grid")


@dataclass(frozen=True)
class EnsembleStats:
    """Monte-Carlo mean and standard error over n realizations.

    ``std_err`` is the sample standard deviation over realizations divided
    by sqrt(n); it is zero when n < 2 (undefined, kept finite).
    """

    n: int
    mean: np.ndarray | float
    std_err: np.ndarray | float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ensemble needs at least one realization")
        if np.any(np.asarray(self.std_err) < 0):
            raise ValueError("std_err must be nonnegative")
        require_finite(np.asarray(self.mean), "ensemble mean")
        require_finite(np.asarray(self.std_err), "ensemble std_err")


@dataclass(frozen=True)
class PathEstimate:
    """Operator path estimate: stats.mean is (nodes, d, d), std_err per node."""

    times: np.ndarray
    stats: EnsembleStats


@dataclass(frozen=True)
class SwitchingEstimate:
    """Per-bin switching-function estimate with Monte-Carlo errors."""

    curve: SwitchingCurve
    stats: EnsembleStats


def sample_jump_process(u: ControlSchedule, gamma: float,
                        seed: int) -> JumpRealization:
    """Independent per-bin jumps, each 1 with probability gamma*dt.

    Only the grid of ``u`` matters, not its values.  The same seed always
    reproduces the same dN sequence.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    p = gamma * u.dt
    if p >= 1.0:
        raise ValueError("gamma*dt must be < 1; refine the grid")
    draws = _generator(seed).random(u.n_bins)
    return JumpRealization(n_bins=u.n_bins, dN=(draws < p).astype(np.uint8),
                           seed=int(seed), gamma_dt=p)


def realization_to_string(jr: JumpRealization) -> str:
    return "".join("1" if x else "0" for x in jr.dN)


def realization_from_string(s: str, seed: int,
                            gamma_dt: float) -> JumpRealization:
    if set(s) - {"0", "1"}:
        raise ValueError("replay string must contain only 0 and 1")
    dN = np.array([1 if c == "1" else 0 for c in s], dtype=np.uint8)
    return JumpRealization(n_bins=dN.size, dN=dN, seed=int(seed),
                           gamma_dt=gamma_dt)


def _check_drift_mode(drift_mode: str) -> None:
    if drift_mode not in DRIFT_MODES:
        raise ValueError(f"drift_mode must be one of {DRIFT_MODES}")


def _check_realization(spec: ProblemSpec, u: ControlSchedule,
                       jr: JumpRealization) -> None:
    if jr.n_bins != u.n_bins:
        raise ValueError("realization grid does not match the control grid")
    if abs(jr.gamma_dt - spec.gamma * u.dt) > 1e-12:
        raise ValueError("realization jump probability does not match "
                         "gamma*dt of the problem")


def drift_generator(spec: ProblemSpec, ui: float) -> np.ndarray:
    """G = -iH - (gamma/2) L^+L + (gamma/2) 1 for one control value."""
    H = spec.H0 + ui * spec.Hu
    LdL = dag(spec.L) @ spec.L
    eye = np.eye(spec.dim)
    return -1j * H - 0.5 * spec.gamma * LdL + 0.5 * spec.gamma * eye


def _drift_matrices(spec: ProblemSpec, u: ControlSchedule,
                    drift_mode: str) -> np.ndarray:
    """Forward per-bin drift step; backward steps use the conjugate transpose."""
    _check_drift_mode(drift_mode)
    d = spec.dim
    out = np.empty((u.n_bins, d, d), dtype=complex)
    cache: dict[float, np.ndarray] = {}
    for i, ui in enumerate(u.values):
        key = float(ui)
        if key not in cache:
            G = drift_generator(spec, ui)
            if drift_mode == "expm":
                cache[key] = expm(G * u.dt)
            else:
                cache[key] = np.eye(d) + G * u.dt
        out[i] = cache[key]
    return out


def _forward_batch(spec: ProblemSpec, D: np.ndarray, dN: np.ndarray,
                   drift_mode: str, initial: np.ndarray) -> np.ndarray:
    """Propagate a (N, d) batch forward under the per-bin drift steps ``D``
    of ``_drift_matrices``; returns node values (N, m+1, d)."""
    L = spec.L
    eye = np.eye(spec.dim)
    n, m = dN.shape[0], D.shape[0]
    out = np.empty((n, m + 1, spec.dim), dtype=complex)
    psi = np.array(initial, dtype=complex)
    out[:, 0] = psi
    for i in range(m):
        if drift_mode == "expm":
            psi = psi @ D[i].T
            mask = dN[:, i].astype(bool)
            if mask.any():
                psi[mask] = psi[mask] @ L.T
        else:
            psi = psi @ D[i].T + (psi @ (L - eye).T) * dN[:, i, None]
        out[:, i + 1] = psi
    return out


def _backward_batch(spec: ProblemSpec, D: np.ndarray, dN: np.ndarray,
                    drift_mode: str, boundary: np.ndarray) -> np.ndarray:
    """Propagate a (N, d) batch backward from t_f; returns (N, m+1, d).

    Each bin applies the conjugate transpose of the forward step: in expm
    mode the jump L^+ acts before the drift, mirroring the forward order.
    """
    L = spec.L
    eye = np.eye(spec.dim)
    n, m = dN.shape[0], D.shape[0]
    out = np.empty((n, m + 1, spec.dim), dtype=complex)
    pi = np.array(boundary, dtype=complex)
    out[:, m] = pi
    for i in reversed(range(m)):
        if drift_mode == "expm":
            mask = dN[:, i].astype(bool)
            if mask.any():
                pi = pi.copy()
                pi[mask] = pi[mask] @ L.conj()
            pi = pi @ D[i].conj()
        else:
            pi = pi @ D[i].conj() + (pi @ L.conj() - pi) * dN[:, i, None]
        out[:, i] = pi
    return out


def forward_psi(spec: ProblemSpec, u: ControlSchedule, jr: JumpRealization,
                drift_mode: str = "expm") -> StatePath:
    """One forward trajectory from psi_ini under the given realization."""
    _check_realization(spec, u, jr)
    vecs = _forward_batch(spec, _drift_matrices(spec, u, drift_mode),
                          jr.dN[None, :], drift_mode,
                          spec.psi_ini[None, :])[0]
    times = np.arange(u.n_bins + 1) * u.dt
    return StatePath(times=times, vectors=vecs)


def backward_pi(spec: ProblemSpec, u: ControlSchedule, jr: JumpRealization,
                boundary: np.ndarray, drift_mode: str = "expm") -> StatePath:
    """One backward costate trajectory from pi(t_f) = boundary.

    For the correlated procedure, ``jr`` must be the realization that drove
    the forward state.
    """
    _check_realization(spec, u, jr)
    boundary = np.asarray(boundary, dtype=complex).reshape(-1)
    if boundary.size != spec.dim:
        raise ValueError("boundary dimension does not match the problem")
    vecs = _backward_batch(spec, _drift_matrices(spec, u, drift_mode),
                           jr.dN[None, :], drift_mode,
                           boundary[None, :])[0]
    times = np.arange(u.n_bins + 1) * u.dt
    return StatePath(times=times, vectors=vecs)


def correlated_pair(spec: ProblemSpec, u: ControlSchedule,
                    jr: JumpRealization,
                    drift_mode: str = "expm") -> TrajectoryPair:
    """Forward psi, then backward pi from -|psi_tar><psi_tar|psi(t_f)>,
    both driven by the same dN."""
    psi = forward_psi(spec, u, jr, drift_mode)
    amp = complex(np.vdot(spec.psi_tar, psi.vectors[-1]))
    boundary = -amp * spec.psi_tar
    pi = backward_pi(spec, u, jr, boundary, drift_mode)
    if np.linalg.norm(pi.vectors[-1] - boundary) > 1e-12:
        raise AssertionError("costate boundary mismatch")
    return TrajectoryPair(realization=jr, psi=psi, pi=pi, terminal_amp=amp)


# ---------------------------------------------------------------------------
# Batched ensemble machinery.
# ---------------------------------------------------------------------------

def _chunk_ranges(n: int) -> list[tuple[int, int]]:
    return [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]


def _map_chunks(worker, n: int, threads: int) -> list:
    """Run ``worker`` over fixed chunk ranges; results in ascending order."""
    ranges = _chunk_ranges(n)
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, ranges))
    return [worker(r) for r in ranges]


def _dn_chunk(spec: ProblemSpec, u: ControlSchedule, master_seed: int,
              domain: int, start: int, stop: int) -> np.ndarray:
    """dN rows for realizations [start, stop) of one stream domain.

    Row j is bit for bit ``sample_jump_process(u, spec.gamma, derive_seed(
    master_seed, domain, start + j)).dN``.
    """
    seeds = _stream_seeds(master_seed, domain, start, stop)
    draws = _philox_uniforms(seeds, u.n_bins)
    return (draws < spec.gamma * u.dt).astype(np.uint8)


def realizations_to_csv(spec: ProblemSpec, u: ControlSchedule, n: int,
                        master_seed: int, domain: int) -> str:
    """``index,seed,dN`` rows for realizations 0..n-1 of one stream domain.

    Each seed replays its dN string through ``sample_jump_process``.
    """
    lines = ["index,seed,dN"]
    for start, stop in _chunk_ranges(n):
        seeds = _stream_seeds(master_seed, domain, start, stop).tolist()
        digits = _dn_chunk(spec, u, master_seed, domain, start, stop)
        digits += ord("0")
        for k, seed, row in zip(range(start, stop), seeds, digits):
            lines.append(f"{k},{seed},{row.tobytes().decode('ascii')}")
    return "\n".join(lines) + "\n"


def _check_ensemble_args(spec: ProblemSpec, u: ControlSchedule, n: int,
                         drift_mode: str) -> None:
    _check_grid(spec, u)
    _check_drift_mode(drift_mode)
    if n < 1:
        raise ValueError("need at least one realization")
    if n > MAX_REALIZATIONS:
        raise ValueError("at most 2**32 - 1 realizations per ensemble")
    if spec.gamma * u.dt >= 1.0:
        raise ValueError("gamma*dt must be < 1; refine the grid")


def _chunk_moments(X: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Two-pass (count, mean, sum squared deviation) for one sample chunk."""
    c = X.shape[0]
    mean = np.add.reduce(X, axis=0) / c
    m2 = np.add.reduce(np.abs(X - mean) ** 2, axis=0)
    return c, mean, m2


def _combine_moments(partials: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge chunk (count, mean, M2) triples -> (mean, std_err of the mean).

    Two-pass moments inside each chunk plus pairwise merging avoid the
    cancellation of the naive sum-of-squares formula, so a degenerate
    ensemble reports exactly zero error.  Chunk boundaries and the merge
    order are fixed, which keeps results independent of the thread count.
    """
    cnt, mean, m2 = partials[0]
    mean = mean.copy()
    m2 = m2.copy()
    for cb, mb, m2b in partials[1:]:
        tot = cnt + cb
        delta = mb - mean
        mean += delta * (cb / tot)
        m2 += m2b + np.abs(delta) ** 2 * (cnt * cb / tot)
        cnt = tot
    if n < 2:
        return mean, np.zeros(m2.shape)
    return mean, np.sqrt(m2 / ((n - 1) * n))


def estimate_rho(spec: ProblemSpec, u: ControlSchedule, n: int,
                 master_seed: int, drift_mode: str = "expm",
                 threads: int = 1) -> PathEstimate:
    """rho(t) ~ mean of |psi><psi| over n independent realizations.

    std_err per node is the largest entrywise standard error of the mean.
    """
    _check_ensemble_args(spec, u, n, drift_mode)
    D = _drift_matrices(spec, u, drift_mode)

    def worker(rng: tuple[int, int]):
        start, stop = rng
        dN = _dn_chunk(spec, u, master_seed, DOMAIN_RHO, start, stop)
        psi = _forward_batch(spec, D, dN, drift_mode,
                             np.broadcast_to(spec.psi_ini,
                                             (stop - start, spec.dim)))
        X = np.einsum("nti,ntj->ntij", psi, psi.conj())
        return _chunk_moments(X)

    mean, err = _combine_moments(_map_chunks(worker, n, threads), n)
    times = np.arange(u.n_bins + 1) * u.dt
    stats = EnsembleStats(n=n, mean=mean, std_err=err.max(axis=(1, 2)))
    return PathEstimate(times=times, stats=stats)


def _boundary_branches(spec: ProblemSpec,
                       boundary) -> tuple[np.ndarray, np.ndarray]:
    """Spectral branches (weights, unit vectors) of the costate boundary.

    The boundary operator is generally not PSD (the default is minus a
    projector), so its sign lives in the weights while each branch
    propagates a plain unit vector.
    """
    if boundary is None:
        boundary = -spec.rho_tar
    b = np.asarray(boundary, dtype=complex)
    if b.ndim == 1:
        v = b.reshape(-1)
        if v.size != spec.dim:
            raise ValueError("boundary dimension does not match the problem")
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("boundary vector must be nonzero")
        return np.array([norm ** 2]), (v / norm)[None, :]
    B = as_operator(b)
    if B.shape[0] != spec.dim:
        raise ValueError("boundary dimension does not match the problem")
    if not is_hermitian(B, TOL_ALGEBRA):
        raise ValueError("boundary operator must be Hermitian")
    vals, vecs = np.linalg.eigh(B)
    keep = np.abs(vals) > 1e-12
    return vals[keep], vecs[:, keep].T


def estimate_lambda(spec: ProblemSpec, u: ControlSchedule, n: int,
                    master_seed: int, boundary=None,
                    drift_mode: str = "expm",
                    threads: int = 1) -> PathEstimate:
    """lam(t) ~ weighted mean of backward outer products |pi><pi|.

    ``boundary`` is lam(t_f): an operator (split into spectral branches, all
    branches of one realization share the same dN), a single state vector,
    or None for -|psi_tar><psi_tar|.
    """
    _check_ensemble_args(spec, u, n, drift_mode)
    weights, vecs = _boundary_branches(spec, boundary)
    k = weights.size
    D = _drift_matrices(spec, u, drift_mode)

    def worker(rng: tuple[int, int]):
        start, stop = rng
        c = stop - start
        dN = _dn_chunk(spec, u, master_seed, DOMAIN_LAMBDA, start, stop)
        dN_all = np.repeat(dN, k, axis=0)
        init = np.tile(vecs, (c, 1))
        pi = _backward_batch(spec, D, dN_all, drift_mode, init)
        pi = pi.reshape(c, k, u.n_bins + 1, spec.dim)
        X = np.einsum("b,nbti,nbtj->ntij", weights, pi, pi.conj())
        return _chunk_moments(X)

    mean, err = _combine_moments(_map_chunks(worker, n, threads), n)
    times = np.arange(u.n_bins + 1) * u.dt
    stats = EnsembleStats(n=n, mean=mean, std_err=err.max(axis=(1, 2)))
    return PathEstimate(times=times, stats=stats)


def _estimate_as_path(est: PathEstimate, kind: str) -> OperatorPath:
    return OperatorPath(times=est.times, ops=est.stats.mean, kind=kind)


def switching_procedure1(spec: ProblemSpec, u: ControlSchedule, n: int,
                         master_seed: int, drift_mode: str = "expm",
                         threads: int = 1) -> SwitchingEstimate:
    """Phi from uncorrelated ensembles: estimate rho and lam with independent
    streams, then evaluate Im Tr[lam [Hu, rho]] on the estimates.

    Values sample the left node of each bin, where the trajectory estimators
    live.  The standard error combines the two independent Monte-Carlo
    sources to first order: each realization's contribution is evaluated
    against the other ensemble's mean.
    """
    return _procedure1(spec, u, n, master_seed, drift_mode, threads)[0]


def _procedure1(spec: ProblemSpec, u: ControlSchedule, n: int,
                master_seed: int, drift_mode: str, threads: int
                ) -> tuple[SwitchingEstimate, PathEstimate, PathEstimate]:
    """``switching_procedure1`` with the rho and lam estimates it is built
    from, which equal ``estimate_rho`` and ``estimate_lambda`` (default
    boundary) for the same arguments."""
    rho_est = estimate_rho(spec, u, n, master_seed, drift_mode, threads)
    lam_est = estimate_lambda(spec, u, n, master_seed, None, drift_mode,
                              threads)
    curve = switching_function(_estimate_as_path(rho_est, "state-estimate"),
                               _estimate_as_path(lam_est, "costate-estimate"),
                               spec.Hu, convention="left")
    m = u.n_bins
    rho_mean = rho_est.stats.mean[:m]
    lam_mean = lam_est.stats.mean[:m]
    Hu = spec.Hu
    comm_rho = np.einsum("ij,tjk->tik", Hu, rho_mean) - np.einsum(
        "tij,jk->tik", rho_mean, Hu)
    weights, vecs = _boundary_branches(spec, None)
    k = weights.size
    D = _drift_matrices(spec, u, drift_mode)

    def worker(rng: tuple[int, int]):
        start, stop = rng
        c = stop - start
        dN_rho = _dn_chunk(spec, u, master_seed, DOMAIN_RHO, start, stop)
        psi = _forward_batch(spec, D, dN_rho, drift_mode,
                             np.broadcast_to(spec.psi_ini, (c, spec.dim)))
        psi = psi[:, :m]
        outer = np.einsum("nti,ntj->ntij", psi, psi.conj())
        comm = (np.einsum("ij,ntjk->ntik", Hu, outer)
                - np.einsum("ntij,jk->ntik", outer, Hu))
        b = np.einsum("tij,ntji->nt", lam_mean, comm).imag
        dN_lam = _dn_chunk(spec, u, master_seed, DOMAIN_LAMBDA, start, stop)
        dN_all = np.repeat(dN_lam, k, axis=0)
        init = np.tile(vecs, (c, 1))
        pi = _backward_batch(spec, D, dN_all, drift_mode, init)
        pi = pi.reshape(c, k, u.n_bins + 1, spec.dim)[:, :, :m]
        lam_samples = np.einsum("b,nbti,nbtj->ntij", weights, pi, pi.conj())
        a = np.einsum("ntij,tji->nt", lam_samples, comm_rho).imag
        return (np.add.reduce(a, axis=0), np.add.reduce(a * a, axis=0),
                np.add.reduce(b, axis=0), np.add.reduce(b * b, axis=0))

    parts = _map_chunks(worker, n, threads)
    sums = [np.sum([p[j] for p in parts], axis=0) for j in range(4)]
    if n < 2:
        err = np.zeros(m)
    else:
        var_a = (sums[1] - sums[0] ** 2 / n) / (n - 1)
        var_b = (sums[3] - sums[2] ** 2 / n) / (n - 1)
        err = np.sqrt(np.clip(var_a + var_b, 0.0, None) / n)
    stats = EnsembleStats(n=n, mean=curve.values, std_err=err)
    return SwitchingEstimate(curve=curve, stats=stats), rho_est, lam_est


def _pair_chunk(spec: ProblemSpec, u: ControlSchedule, D: np.ndarray,
                master_seed: int, drift_mode: str, start: int, stop: int,
                A_bins: np.ndarray):
    """Correlated forward/backward chunk.

    Returns per-realization bilinear samples 2*<pi|A|psi> at the left node
    of every bin (complex, so both parts are available) and per-realization
    terminal costs -|<psi_tar|psi(t_f)>|^2.
    """
    c = stop - start
    m = u.n_bins
    dN = _dn_chunk(spec, u, master_seed, DOMAIN_PAIR, start, stop)
    psi = _forward_batch(spec, D, dN, drift_mode,
                         np.broadcast_to(spec.psi_ini, (c, spec.dim)))
    amps = psi[:, -1] @ spec.psi_tar.conj()
    boundary = -amps[:, None] * spec.psi_tar[None, :]
    pi = _backward_batch(spec, D, dN, drift_mode, boundary)
    samples = 2.0 * np.einsum("nti,tij,ntj->nt", pi[:, :m].conj(),
                              A_bins, psi[:, :m])
    costs = -np.abs(amps) ** 2
    return samples, costs


def _scalar_stats(values: np.ndarray, n: int) -> EnsembleStats:
    mean = float(np.add.reduce(values) / n)
    if n < 2:
        return EnsembleStats(n=n, mean=mean, std_err=0.0)
    var = float(np.add.reduce((values - mean) ** 2) / (n - 1))
    return EnsembleStats(n=n, mean=mean, std_err=float(np.sqrt(var / n)))


def _curve_stats(samples: np.ndarray, u: ControlSchedule,
                 n: int) -> SwitchingEstimate:
    mean = np.add.reduce(samples, axis=0) / n
    if n < 2:
        err = np.zeros(u.n_bins)
    else:
        var = np.add.reduce((samples - mean) ** 2, axis=0) / (n - 1)
        err = np.sqrt(var / n)
    curve = SwitchingCurve(times=u.times, values=mean, convention="left")
    return SwitchingEstimate(curve=curve,
                             stats=EnsembleStats(n=n, mean=mean, std_err=err))


def bilinear_average(spec: ProblemSpec, u: ControlSchedule, n: int,
                     master_seed: int, A: np.ndarray, part: str = "im",
                     drift_mode: str = "expm",
                     threads: int = 1) -> SwitchingEstimate:
    """Correlated-pair average of 2*Re or 2*Im of <pi|A|psi> per bin.

    With the per-trajectory costate boundary, the im part estimates
    Im Tr[lam [A, rho]] and the re part estimates Re Tr[lam {A, rho}]; the
    factor 2 merges the commutator's (anticommutator's) two trace terms.
    ``A`` is one operator or a per-bin stack (n_bins, d, d).
    """
    if part not in ("re", "im"):
        raise ValueError("part must be 're' or 'im'")
    _check_ensemble_args(spec, u, n, drift_mode)
    A = np.asarray(A, dtype=complex)
    if A.ndim == 2:
        A_bins = np.broadcast_to(A, (u.n_bins,) + A.shape)
    elif A.shape == (u.n_bins, spec.dim, spec.dim):
        A_bins = A
    else:
        raise ValueError("A must be (d, d) or (n_bins, d, d)")
    if A_bins.shape[1] != spec.dim:
        raise ValueError("A dimension does not match the problem")

    D = _drift_matrices(spec, u, drift_mode)

    def worker(rng: tuple[int, int]):
        samples, _ = _pair_chunk(spec, u, D, master_seed, drift_mode,
                                 rng[0], rng[1], A_bins)
        return np.ascontiguousarray(samples.real if part == "re"
                                    else samples.imag)

    samples = np.concatenate(_map_chunks(worker, n, threads), axis=0)
    return _curve_stats(samples, u, n)


def switching_procedure2(spec: ProblemSpec, u: ControlSchedule, n: int,
                         master_seed: int, drift_mode: str = "expm",
                         threads: int = 1) -> SwitchingEstimate:
    """Phi from correlated pairs, no density matrices formed.

    Each realization runs psi forward, sets pi(t_f) from the terminal
    amplitude, runs pi backward under the same dN, and contributes
    2*Im<pi|Hu|psi> per bin; that sample is the exact per-realization cost
    gradient, so the ensemble mean estimates Im Tr[lam [Hu, rho]].
    """
    return bilinear_average(spec, u, n, master_seed, spec.Hu, "im",
                            drift_mode, threads)


def correlated_estimates(spec: ProblemSpec, u: ControlSchedule, n: int,
                         master_seed: int, drift_mode: str = "expm",
                         threads: int = 1
                         ) -> tuple[SwitchingEstimate, EnsembleStats]:
    """Switching estimate and terminal-cost estimate from one shared batch."""
    _check_ensemble_args(spec, u, n, drift_mode)
    A_bins = np.broadcast_to(spec.Hu, (u.n_bins,) + spec.Hu.shape)
    D = _drift_matrices(spec, u, drift_mode)

    def worker(rng: tuple[int, int]):
        samples, costs = _pair_chunk(spec, u, D, master_seed, drift_mode,
                                     rng[0], rng[1], A_bins)
        return np.ascontiguousarray(samples.imag), costs

    parts = _map_chunks(worker, n, threads)
    samples = np.concatenate([p[0] for p in parts], axis=0)
    costs = np.concatenate([p[1] for p in parts], axis=0)
    return _curve_stats(samples, u, n), _scalar_stats(costs, n)


def stochastic_cost(spec: ProblemSpec, u: ControlSchedule, n: int,
                    master_seed: int, drift_mode: str = "expm",
                    threads: int = 1) -> EnsembleStats:
    """Mean of per-trajectory costs -|<psi_tar|psi(t_f)>|^2.

    Uses the correlated-pair streams, so the values match the cost half of
    ``correlated_estimates`` for the same seed exactly.
    """
    _check_ensemble_args(spec, u, n, drift_mode)
    D = _drift_matrices(spec, u, drift_mode)

    def worker(rng: tuple[int, int]):
        start, stop = rng
        c = stop - start
        dN = _dn_chunk(spec, u, master_seed, DOMAIN_PAIR, start, stop)
        psi = _forward_batch(spec, D, dN, drift_mode,
                             np.broadcast_to(spec.psi_ini, (c, spec.dim)))
        amps = psi[:, -1] @ spec.psi_tar.conj()
        return -np.abs(amps) ** 2

    costs = np.concatenate(_map_chunks(worker, n, threads), axis=0)
    return _scalar_stats(costs, n)


def sample_initial_state(rho_ini: np.ndarray, seed: int) -> np.ndarray:
    """Draw one eigenvector of rho_ini with its eigenvalue as probability."""
    rho_ini = as_operator(rho_ini)
    if not is_hermitian(rho_ini, TOL_ALGEBRA):
        raise ValueError("initial density matrix must be Hermitian")
    vals, vecs = np.linalg.eigh(rho_ini)
    if vals.min() < -TOL_ALGEBRA:
        raise ValueError("initial density matrix must be PSD")
    if abs(vals.sum() - 1.0) > 1e-9:
        raise ValueError("initial density matrix must have unit trace")
    probs = np.clip(vals, 0.0, None)
    probs = probs / probs.sum()
    k = int(_generator(seed).choice(vals.size, p=probs))
    return vecs[:, k].copy()
