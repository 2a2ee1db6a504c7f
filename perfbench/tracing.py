"""Span tracing of qpmp's layers from outside the package.

Tracing rebinds module attributes: every public function defined in
``qpmp.lindblad``, ``qpmp.trajectories`` and ``qpmp.optimizer``, the
callbacks of the ``qpmp`` CLI commands, and the scipy ``expm`` and
``brentq`` names as bound inside those modules are replaced by wrappers
that record a span (name, start, end, parent span, thread) per call.  A
function imported by name into another qpmp module is rebound there too,
and calls inside a module resolve through its globals, so calls made by the
package itself are captured as well as the benchmark's own calls.

Spans live in memory; ``Tracer.dump`` writes them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("lindblad", "trajectories", "optimizer")
SCIPY_NAMES = {"lindblad": ("expm",), "trajectories": ("expm",),
               "optimizer": ("brentq",)}
# Ensemble entry points of the stochastic layer; their ``n`` argument is the
# number of realizations the caller asked for.
ENSEMBLE_CALLS = frozenset({
    "estimate_rho", "estimate_lambda", "switching_procedure1",
    "switching_procedure2", "bilinear_average", "correlated_estimates",
    "stochastic_cost"})


def _expm_work(args, kwargs, result):
    shape = getattr(args[0], "shape", ())
    return shape[0] if len(shape) == 3 else 1


def _ensemble_work(args, kwargs, result):
    return int(args[2]) if len(args) > 2 else int(kwargs["n"])


def _optimize_work(args, kwargs, result):
    return len(result)


# Optional per-span work count: matrices exponentiated, realizations
# requested, optimizer records produced.
_WORK = {"lindblad.expm": _expm_work, "trajectories.expm": _expm_work,
         "optimizer.optimize": _optimize_work}
_WORK.update({f"trajectories.{name}": _ensemble_work
              for name in ENSEMBLE_CALLS})


class Tracer:
    """Installs span-recording wrappers into the loaded qpmp modules."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # A pool worker thread starts with an empty stack; its
                # spans belong to the call that is blocked in the pool on
                # the main thread.
                main = tracer._main_stack
                parent = main[-1] if main else -1
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            amount = work(args, kwargs, result) if work else 0
            tracer.spans.append((sid, name, t0, t1, parent,
                                 threading.get_ident(), amount))
            return result

        return traced

    def install(self) -> None:
        """Rebind traced names in every loaded qpmp module."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._main_stack
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"qpmp.{layer}"]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[id(val)] = self._wrap(f"{layer}.{attr}", val)
            for attr in SCIPY_NAMES[layer]:
                self._rebind(mod, attr,
                             self._wrap(f"{layer}.{attr}", getattr(mod, attr)))
        qpmp_modules = [mod for name, mod in list(sys.modules.items())
                        if name == "qpmp" or name.startswith("qpmp.")]
        for mod in qpmp_modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._rebind(mod, attr, wrappers[id(val)])
        cli = sys.modules["qpmp.cli"]
        for cmd_name, cmd in cli.main.commands.items():
            self._rebind(cmd, "callback",
                         self._wrap(f"cli.{cmd_name}", cmd.callback))

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path, extra: dict) -> None:
        """Write spans (times relative to the first span) and ``extra``."""
        t_base = min((s[2] for s in self.spans), default=0.0)
        spans = [[sid, name, t0 - t_base, t1 - t_base, parent, tid, work]
                 for sid, name, t0, t1, parent, tid, work
                 in sorted(self.spans)]
        payload = dict(extra)
        payload["span_fields"] = ["id", "name", "start_s", "end_s",
                                  "parent", "thread", "work"]
        payload["spans"] = spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer numbers from one traced job.

    A span's self time is its duration minus the part of it that its child
    spans cover; a layer's ``self_s`` sums that over the layer's spans.
    Spans of pool worker threads count in full, so with more than one
    worker a layer's self time is busy time and can exceed wall time.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))

    def layer(s):
        return s[1].split(".", 1)[0]

    def ancestors(s):
        while s[4] in by_id:
            s = by_id[s[4]]
            yield s

    self_s = defaultdict(float)
    calls = defaultdict(int)
    incl = defaultdict(float)
    for s in spans:
        dur = s[3] - s[2]
        self_s[layer(s)] += dur - _covered(children[s[0]], s[2], s[3])
        calls[s[1]] += 1
        incl[s[1]] += dur

    # Forward sweeps that belong to optimizer iterations: the nearest
    # optimizer span above them is ``optimize`` (not the polish's root
    # solves or its stationarity checks).
    iter_sweeps = 0
    for s in spans:
        if s[1] != "lindblad.propagate_rho":
            continue
        owner = next((a for a in ancestors(s) if layer(a) == "optimizer"),
                     None)
        if owner is not None and owner[1] == "optimizer.optimize":
            iter_sweeps += 1
    iterations = sum(s[6] for s in spans if s[1] == "optimizer.optimize")

    # Realizations the callers asked for: ``n`` of the outermost ensemble
    # calls, so calls nested inside another trajectories call are not
    # counted twice.  Stream seeds are the derive_seed calls made inside
    # the trajectories layer (the optimizer's per-iteration seed is not a
    # realization seed).
    outer = [s for s in spans if s[1].startswith("trajectories.")
             and s[1].split(".", 1)[1] in ENSEMBLE_CALLS
             and not any(layer(a) == "trajectories" for a in ancestors(s))]
    realizations = sum(s[6] for s in outer)
    ensemble_s = sum(s[3] - s[2] for s in outer)
    seeds = [s for s in spans if s[1] == "trajectories.derive_seed"
             and s[4] in by_id and layer(by_id[s[4]]) == "trajectories"]
    polish = [s for s in spans if s[1] == "optimizer.polish_control"
              and not any(a[1] == s[1] for a in ancestors(s))]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "lindblad.self_s": self_s["lindblad"],
        "lindblad.liouvillian_calls": calls["lindblad.liouvillian"],
        "lindblad.liouvillian_s": incl["lindblad.liouvillian"],
        "lindblad.expm_calls": calls["lindblad.expm"],
        "lindblad.expm_mats": sum(s[6] for s in spans
                                  if s[1] == "lindblad.expm"),
        "lindblad.expm_s": incl["lindblad.expm"],
        "lindblad.fwd_sweeps": calls["lindblad.propagate_rho"],
        "lindblad.bwd_sweeps": calls["lindblad.propagate_costate"],
        "lindblad.fwd_sweeps_per_iter": ratio(iter_sweeps, iterations),
        "trajectories.self_s": self_s["trajectories"],
        "trajectories.seed_calls": len(seeds),
        "trajectories.seed_s": sum(s[3] - s[2] for s in seeds),
        "trajectories.seeds_per_realization": ratio(len(seeds), realizations),
        "trajectories.expm_calls": calls["trajectories.expm"],
        "trajectories.expm_s": incl["trajectories.expm"],
        "trajectories.realizations": realizations,
        "trajectories.realizations_per_s": ratio(realizations, ensemble_s),
        "optimizer.self_s": self_s["optimizer"],
        "optimizer.iterations": iterations,
        "optimizer.polish_s": sum(s[3] - s[2] for s in polish),
        "optimizer.brentq_calls": calls["optimizer.brentq"],
        "optimizer.brentq_s": incl["optimizer.brentq"],
        "optimizer.tv_calls": calls["optimizer.tv_denoise"],
        "optimizer.tv_s": incl["optimizer.tv_denoise"],
        "cli.self_s": self_s["cli"],
        "trace.spans": len(spans),
    }
