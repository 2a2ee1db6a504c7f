"""End-to-end benchmark of qpmp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qpmp is imported from ``src/`` there.
Workloads (see BENCHMARK.json and perfbench/README.md):

* ``det_reference``: ``reference_control`` on both presets at 100 bins.
* ``cli_trajectories``: ``qpmp trajectories`` on a seed-generated
  continuous control, procedure 1 and procedure 2 with one and two threads.

With ``--trace 0`` the run sets up and runs one warm-up job, then repeats
the timed job until ``--seconds`` have passed and reports the median job
time.  Before every repetition, fresh interpreters import qpmp, build the
inputs, run the warm-up job and exit; ``setup_s`` is the median wall time of
all of them.  With ``--trace 1`` it runs the job once untraced and once
traced (see tracing.py), checks that both give identical outputs, and reports
the per-layer numbers.  Every correctness check is one attempted operation;
a failed check is a failed operation.  The last line of standard output is
the JSON result.  Scratch files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# At most two busy threads on the two-core reference host: the CLI's own
# pool supplies the parallelism, BLAS stays single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
PROBE_TIMEOUT_S = 120


class Qpmp:
    """The qpmp modules, loaded from the checkout's ``src/``."""

    def __init__(self):
        if not (SRC / "qpmp" / "__init__.py").is_file():
            raise FileNotFoundError(f"no qpmp sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import numpy
        import qpmp
        import qpmp.cli
        from click.testing import CliRunner

        if Path(qpmp.__file__).resolve().parent != SRC / "qpmp":
            raise ImportError(f"qpmp imported from {qpmp.__file__}, "
                              f"not from {SRC}")
        self.np = numpy
        self.problems = sys.modules["qpmp.problems"]
        self.lindblad = sys.modules["qpmp.lindblad"]
        self.optimizer = sys.modules["qpmp.optimizer"]
        self.cli = sys.modules["qpmp.cli"]
        self.runner = CliRunner()

    def presets(self) -> dict:
        return {"retention": self.problems.make_retention_problem(100),
                "preparation": self.problems.make_preparation_problem(100)}

    def reset_memo(self) -> None:
        # qpmp.lindblad keeps a module-global memo of per-bin propagators
        # that survives between repetitions in one process.  A user's run
        # starts with it empty, and the CLI job reuses one control, so
        # without this every repetition after the warm-up would find the
        # entries the previous one left.  Emptying it before each repetition
        # gives every repetition the same start state.  A version without
        # the memo has nothing to reset.
        memo = getattr(self.lindblad, "_HALF_MEMO", None)
        if memo is not None:
            memo.clear()


class Job:
    """Timed phases, outputs, and the checks of one job."""

    def __init__(self):
        self.phases: dict[str, float] = {}
        self.outputs: dict = {}
        self.realizations = 0
        self.bytes_written = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.digest = hashlib.sha256()

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and add its wall time to phase ``name``."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        self.phases[name] = self.phases.get(name, 0.0) + elapsed
        return result

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def solve_s(self) -> float:
        return sum(self.phases.values())


class DetReference:
    """Deterministic time to a converged control.

    ``reference_control`` takes no random input, so the seed changes
    nothing here; the job is the same on every run.
    """

    # Normalized c-Hamiltonian spread (max - min) / max|Hc| on the returned
    # 100-bin control.  Stationarity makes Hc constant up to a deviation of
    # the order of the bin width at switches and short arcs; the preparation
    # solution has a five-bin opening arc and two pinned switches, so at 100
    # bins its spread stays large (criterion 7 refines to 3200 bins for
    # that reason).
    HC_SPREAD_TOL = {"retention": 0.25, "preparation": 0.8}
    PAIRING_TOL = 1e-8
    # Set-up probes before each repetition; about three repetitions fit in
    # a run, so a run takes about nine.
    SETUP_PROBES = 3

    def __init__(self, q: Qpmp, seed: int):
        self.q = q
        self.specs = q.presets()

    def warmup(self) -> None:
        q, opt = self.q, self.q.optimizer
        for spec in self.specs.values():
            u0 = q.problems.constant_control(spec.t_f, spec.n_bins,
                                             0.5 * spec.u_max)
            recs = opt.optimize(spec, opt.deterministic_provider(),
                                opt.FilterParams(),
                                opt.SampleSchedule.constant(1), u0, 3)
            opt.polish_control(spec, recs[-1].u, block=2, max_blocks=1)

    def run(self) -> Job:
        job = Job()
        for name, spec in self.specs.items():
            job.outputs[name] = job.timed(f"reference_{name}_s",
                                          self.q.optimizer.reference_control,
                                          spec)
        return job

    def verify(self, job: Job) -> None:
        for name, u in job.outputs.items():
            job.digest.update(u.values.tobytes())
            self._check(job, name, self.specs[name], u)

    def _check(self, job: Job, name: str, spec, u) -> None:
        np, lb = self.q.np, self.q.lindblad
        rho = lb.propagate_rho(spec, u)
        lam = lb.propagate_costate(spec, u)
        phi = lb.switching_function(rho, lam, spec.Hu).values
        hc = lb.c_hamiltonian(rho, lam, spec, u).values
        strong = ((np.abs(u.values) >= spec.u_max)
                  & (np.abs(phi) > 1e-3 * np.abs(phi).max()))
        bad = int(np.sum(np.sign(u.values[strong]) != -np.sign(phi[strong])))
        job.check(f"{name}.pmp_sign", bad == 0,
                  f"{bad} of {int(strong.sum())} saturated bins")
        spread = float((hc.max() - hc.min()) / np.abs(hc).max())
        tol = self.HC_SPREAD_TOL[name]
        job.check(f"{name}.hc_spread", spread < tol, f"{spread:.4f} < {tol}")
        pairing = lb.conserved_pairing(rho, lam)
        drift = float(pairing.max() - pairing.min())
        job.check(f"{name}.pairing", drift < self.PAIRING_TOL,
                  f"{drift:.2e} < {self.PAIRING_TOL}")


class CliTrajectories:
    """``qpmp trajectories`` on preparation with a continuous control."""

    RUNS = (("cli_p1_s", ["--procedure", "1", "--n", "10000"]),
            ("cli_p2_s", ["--procedure", "2", "--n", "20000",
                          "--threads", "1"]),
            ("cli_p2_threads2_s", ["--procedure", "2", "--n", "20000",
                                   "--threads", "2"]))
    WARMUP_N = "1024"  # two chunks, so the thread pool runs too
    COVERAGE_MIN = 0.95
    # About four repetitions fit in a run, so a run takes about eight.
    SETUP_PROBES = 2

    def __init__(self, q: Qpmp, seed: int):
        self.q = q
        self.seed = seed
        self.dir = WORK / "cli_trajectories"
        self.dir.mkdir(parents=True, exist_ok=True)
        spec = q.presets()["preparation"]
        self.control = self.dir / f"control_{seed}.csv"
        self.control.write_text(q.problems.control_to_csv(
            self._waveform(spec)), encoding="utf-8")

    def _waveform(self, spec):
        """Smooth random control, |u| <= 0.95, all bin values distinct.

        Distinct values give the most per-value generator builds and
        exponentials, the case the per-bin caches cannot shorten.
        """
        np = self.q.np
        rng = np.random.default_rng(self.seed)
        t = (np.arange(spec.n_bins) + 0.5) / spec.n_bins
        while True:
            modes = np.arange(1, 5)
            amp = rng.normal(size=modes.size) / modes
            phase = rng.uniform(0.0, 2.0 * np.pi, modes.size)
            w = (amp[:, None] * np.sin(2.0 * np.pi * modes[:, None] * t
                                       + phase[:, None])).sum(axis=0)
            w = 0.95 * w / np.abs(w).max()
            if np.unique(w).size == spec.n_bins:
                return self.q.problems.ControlSchedule(values=w, dt=spec.dt)

    def _invoke(self, job: Job | None, label: str, extra: list[str],
                outdir: Path) -> int:
        if outdir.exists():
            shutil.rmtree(outdir)
        args = ["trajectories", "--problem", "preparation", "--bins", "100",
                "--control", str(self.control), "--seed", str(self.seed),
                "--out", str(outdir)] + extra
        invoke = self.q.runner.invoke
        if job is None:
            result = invoke(self.q.cli.main, args)
        else:
            result = job.timed(label, invoke, self.q.cli.main, args)
        return result.exit_code

    def warmup(self) -> None:
        for label, extra in self.RUNS:
            extra = [self.WARMUP_N if a in ("10000", "20000") else a
                     for a in extra]
            code = self._invoke(None, label, extra, self.dir / "warmup")
            if code != 0:
                raise RuntimeError(f"warm-up '{label}' exited {code}")

    def run(self) -> Job:
        job = Job()
        for label, extra in self.RUNS:
            job.outputs[label] = self._invoke(job, label, extra,
                                              self.dir / label)
            job.realizations += int(extra[extra.index("--n") + 1])
        return job

    def verify(self, job: Job) -> None:
        """Check the files the last ``run`` wrote."""
        np = self.q.np
        files = {}
        for label, code in job.outputs.items():
            job.check(f"{label}.exit_code", code == 0, f"exit {code}")
            outdir = self.dir / label
            files[label] = ({p.name: p.read_bytes()
                             for p in sorted(outdir.iterdir())}
                            if outdir.is_dir() else {})
        for label, outs in files.items():
            for name, data in outs.items():
                job.digest.update(f"{label}/{name}".encode())
                job.digest.update(data)
        job.bytes_written = sum(len(d) for outs in files.values()
                                for d in outs.values())
        for label in ("cli_p1_s", "cli_p2_s"):
            if "phi_stochastic.csv" not in files[label]:
                job.check(f"{label}.phi_coverage", False, "no phi CSV")
                continue
            rows = np.loadtxt(self.dir / label / "phi_stochastic.csv",
                              delimiter=",", skiprows=1, ndmin=2)
            cov = float(np.mean(np.abs(rows[:, 1] - rows[:, 3])
                                <= 3.0 * rows[:, 2]))
            job.check(f"{label}.phi_coverage", cov >= self.COVERAGE_MIN,
                      f"{cov:.3f} >= {self.COVERAGE_MIN}")
        # metadata.json echoes the thread count; the data files must match.
        one, two = (
            {k: v for k, v in files[label].items() if k != "metadata.json"}
            for label in ("cli_p2_s", "cli_p2_threads2_s"))
        job.check("cli_p2.threads_identical", one == two and bool(one),
                  f"{len(one)} data files")


WORKLOADS = {"det_reference": DetReference,
             "cli_trajectories": CliTrajectories}


def host_info(q: Qpmp) -> dict:
    import scipy

    blas = q.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": q.np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def setup(name: str, seed: int):
    q = Qpmp()
    workload = WORKLOADS[name](q, seed)
    workload.warmup()
    return q, workload


def probe_setup(name: str, seed: int, count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters that set up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # A blocking wait returns as soon as the child exits; waiting with a
        # timeout polls in steps of up to 50 ms, which would round the time.
        killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def checked(jobs: list[Job]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    failures = []
    for job in jobs:
        for name, ok, detail in job.checks:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"{name}: {detail}")
    return attempted, failed, failures


def measure(name: str, seed: int, seconds: float) -> tuple:
    q, workload = setup(name, seed)
    jobs: list[Job] = []
    setup_times: list[float] = []
    t_start = time.perf_counter()
    while not jobs or time.perf_counter() - t_start < seconds:
        # The host's speed drifts over tens of seconds.  Probing set-up
        # between the repetitions, rather than in one burst, samples the
        # same stretch of time that solve_s does.
        setup_times += probe_setup(name, seed, workload.SETUP_PROBES)
        q.reset_memo()
        jobs.append(workload.run())
        workload.verify(jobs[-1])
        # Keep only the digest, so peak memory does not grow with the
        # number of repetitions.
        jobs[-1].outputs.clear()
    attempted, failed, failures = checked(jobs)
    # Same inputs, same outputs: every repetition must reproduce the first.
    for job in jobs[1:]:
        attempted += 1
        if job.digest.digest() != jobs[0].digest.digest():
            failed += 1
            failures.append("repetition output differs from the first")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(setup_times),
               "solve_s": statistics.median(j.solve_s for j in jobs),
               "peak_rss_mb": peak_rss_mb}
    phases = {k: statistics.median(j.phases[k] for j in jobs)
              for k in jobs[0].phases}
    info = {"workload": name, "seed": seed, "repetitions": len(jobs),
            "setup_probes": len(setup_times), "phases_s": phases,
            "failures": failures, "host": host_info(q)}
    return info, attempted, failed, metrics


def measure_traced(name: str, seed: int) -> tuple:
    q, workload = setup(name, seed)
    q.reset_memo()
    plain = workload.run()
    workload.verify(plain)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        q.reset_memo()
        traced = workload.run()
    finally:
        tracer.uninstall()
    workload.verify(traced)
    attempted, failed, failures = checked([plain, traced])
    attempted += 1
    if traced.digest.digest() != plain.digest.digest():
        failed += 1
        failures.append("traced outputs differ from untraced outputs")
    layers = tracing.layer_metrics(tracer.spans)
    layers["cli.bytes_written"] = traced.bytes_written
    layers["trace.overhead_s"] = traced.solve_s - plain.solve_s
    # Untraced wall times of the job's phases; a phase the workload does not
    # run reads 0.
    for phase in PHASES:
        layers[phase] = plain.phases.get(phase, 0.0)
    layers["realizations_per_s"] = plain.realizations / plain.solve_s
    info = {"workload": name, "seed": seed, "host": host_info(q),
            "untraced_solve_s": plain.solve_s,
            "traced_solve_s": traced.solve_s, "failures": failures}
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / f"trace_{name}_{seed}.json",
                dict(info, metrics=layers))
    return info, attempted, failed, layers


PHASES = ("reference_retention_s", "reference_preparation_s",
          "cli_p1_s", "cli_p2_s", "cli_p2_threads2_s")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in declared()[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit (the setup_s probe)")
    args = ap.parse_args(argv)
    if not (SRC / "qpmp" / "__init__.py").is_file():
        print(f"error: no qpmp sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    if args.trace:
        info, attempted, failed, metrics = measure_traced(args.workload,
                                                          args.seed)
    else:
        info, attempted, failed, metrics = measure(args.workload, args.seed,
                                                   args.seconds)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
