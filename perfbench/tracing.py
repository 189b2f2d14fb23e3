"""Spans around the calls into qbrach's layers, recorded from outside.

The package is not edited: `Tracer.install` replaces each traced function
at every module binding it is called through (a module attribute, or a
class attribute for methods), so calls made inside qbrach between its own
modules are caught as well.  Each span is (name, start, end, parent, op):
`parent` is the index of the enclosing span or -1, `op` the benchmark
operation it belongs to.  Spans stay in memory until the run writes them.

A span name is "<layer>.<group>"; the layers are the package modules.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import qbrach.algebra
import qbrach.cli
import qbrach.dynamics
import qbrach.solvers
import qbrach.states
import qbrach.verify

_ANALYTIC = (
    "solve_free",
    "solve_closed_subalgebra",
    "solve_m1_two_level",
    "solve_two_qubit_example",
    "sweep_m1",
    "m1_trajectory",
    "m1_final_state",
    "m1_boundary",
    "build_two_qubit_f0",
)

# (span name, function name, modules or classes it is reached through)
_TARGETS = [
    ("cli.main", "main", [qbrach.cli]),
    ("solvers.shoot", "shoot", [qbrach.solvers, qbrach.cli]),
    *[
        ("solvers.analytic", fn, [qbrach.solvers, qbrach.cli])
        for fn in _ANALYTIC
    ],
    ("solvers.to_dict", "to_dict", [qbrach.solvers.ExtremalSolution]),
    ("dynamics.integrate", "integrate", [qbrach.dynamics, qbrach.solvers]),
    ("dynamics.finalize", "finalize_trajectory", [qbrach.dynamics, qbrach.solvers]),
    ("dynamics.validate", "__post_init__", [qbrach.dynamics.Trajectory]),
    ("dynamics.to_dict", "to_dict", [qbrach.dynamics.Trajectory]),
    ("dynamics.from_dict", "from_dict", [qbrach.dynamics.Trajectory]),
    ("dynamics.other", "commutator_tensor", [qbrach.dynamics, qbrach.solvers]),
    ("dynamics.other", "g_operator", [qbrach.dynamics, qbrach.solvers]),
    ("verify.certify", "certify", [qbrach.verify, qbrach.solvers, qbrach.cli]),
    ("verify.endpoint", "endpoint_constraint", [qbrach.verify, qbrach.solvers]),
    (
        "algebra.basis",
        "build_gellmann_basis",
        [qbrach.algebra, qbrach.dynamics, qbrach.solvers, qbrach.cli],
    ),
    (
        "algebra.basis",
        "build_pauli_string_basis",
        [qbrach.algebra, qbrach.dynamics, qbrach.solvers, qbrach.cli],
    ),
    ("algebra.closure", "is_closed_subalgebra", [qbrach.algebra, qbrach.solvers]),
    ("algebra.closure", "hermitian_commutator", [qbrach.algebra, qbrach.dynamics]),
    ("states.boundary", "boundary_data", [qbrach.states, qbrach.solvers]),
    ("states.boundary", "free_hamiltonian", [qbrach.states, qbrach.solvers]),
    ("states.boundary", "is_trivially_restricted", [qbrach.states, qbrach.solvers]),
    ("states.pure_state", "__post_init__", [qbrach.states.PureState]),
]


class Tracer:
    """Records spans while `enabled`; a disabled wrapper is a plain call."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.op = -1
        self._stack: list = []
        self._restore: list = []
        # integrate: (t_max, dt, steps returned); shoot: (T, t_max)
        self.integrate_calls: list = []
        self.shoot_calls: list = []

    def install(self) -> None:
        for name, fn_name, owners in _TARGETS:
            for owner in owners:
                raw = owner.__dict__.get(fn_name)
                if raw is None:
                    continue
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(name, fn_name, fn)
                setattr(owner, fn_name, staticmethod(wrapped) if is_static else wrapped)
                self._restore.append((owner, fn_name, raw))

    def uninstall(self) -> None:
        for owner, fn_name, raw in reversed(self._restore):
            setattr(owner, fn_name, raw)
        self._restore.clear()

    def _wrap(self, name: str, fn_name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if fn_name == "integrate":
                tracer._note_integrate(args, kwargs, result)
            elif fn_name == "shoot":
                t_max = args[3] if len(args) > 3 else kwargs["t_max"]
                tracer.shoot_calls.append((float(result.T), float(t_max)))
            return result

        return wrapper

    def _note_integrate(self, args, kwargs, traj) -> None:
        problem = args[0]
        t_max = args[3] if len(args) > 3 else kwargs["t_max"]
        dt = args[4] if len(args) > 4 else kwargs.get("dt")
        if dt is None:  # integrate's own default step
            dt = 1e-3 / problem.omega
        self.integrate_calls.append((float(t_max), float(dt), traj.n_samples - 1))


def self_times(spans: list, scales=None) -> list:
    """Duration of each span minus the time its direct children cover,
    times the speed-probe factor of its operation when `scales` is given."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    if scales is None:
        return own
    return [t * scales[span[4]] for t, span in zip(own, spans)]


def layer_metrics(tracer: Tracer, n_ops: int, scales: list, traced_wall_s: float) -> dict:
    """Per-op layer metrics from the spans of `n_ops` traced operations;
    `traced_wall_s` is their scaled wall time."""
    own = self_times(tracer.spans, scales)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    for (name, *_), t in zip(tracer.spans, own):
        self_ms[name] += 1e3 * t
        calls[name] += 1

    def per_op(x: float) -> float:
        return x / n_ops

    def layer_ms(layer: str) -> float:
        return per_op(sum(v for k, v in self_ms.items() if k.split(".")[0] == layer))

    steps = sum(s for _, _, s in tracer.integrate_calls)
    halvings = sum(
        round(math.log2(s / max(1, math.ceil(t / dt - 1e-12))))
        for t, dt, s in tracer.integrate_calls
    )
    t_sum = sum(T for T, _ in tracer.shoot_calls)
    t_max_sum = sum(t for _, t in tracer.shoot_calls)
    covered = sum(own) * 1e3
    return {
        "dynamics.integrate.calls": per_op(calls["dynamics.integrate"]),
        "dynamics.integrate.self_ms": per_op(self_ms["dynamics.integrate"]),
        "dynamics.integrate.steps": per_op(steps),
        "dynamics.integrate.us_per_step": (
            1e3 * self_ms["dynamics.integrate"] / steps if steps else 0.0
        ),
        "dynamics.integrate.restarts": per_op(halvings),
        "solvers.shoot.self_ms": per_op(self_ms["solvers.shoot"]),
        "solvers.shoot.pass1_useful_ratio": t_sum / t_max_sum if t_max_sum else 0.0,
        "dynamics.validate.calls": per_op(calls["dynamics.validate"]),
        "dynamics.validate.self_ms": per_op(self_ms["dynamics.validate"]),
        "dynamics.finalize.self_ms": per_op(self_ms["dynamics.finalize"]),
        "verify.certify.calls": per_op(calls["verify.certify"]),
        "verify.certify.self_ms": per_op(self_ms["verify.certify"]),
        "cli.self_ms": layer_ms("cli"),
        "solvers.to_dict.self_ms": per_op(self_ms["solvers.to_dict"]),
        "dynamics.to_dict.self_ms": per_op(self_ms["dynamics.to_dict"]),
        "dynamics.from_dict.self_ms": per_op(self_ms["dynamics.from_dict"]),
        "algebra.basis_builds": per_op(calls["algebra.basis"]),
        "algebra.self_ms": layer_ms("algebra"),
        "solvers.analytic.self_ms": per_op(self_ms["solvers.analytic"]),
        "states.self_ms": layer_ms("states"),
        "dynamics.self_ms": layer_ms("dynamics"),
        "solvers.self_ms": layer_ms("solvers"),
        "verify.self_ms": layer_ms("verify"),
        "trace.coverage_ratio": covered / (1e3 * traced_wall_s) if traced_wall_s else 0.0,
    }


def by_label(tracer: Tracer, labels: list) -> dict:
    """Raw self milliseconds per (operation label, span name), summed over ops."""
    own = self_times(tracer.spans)
    table: dict = defaultdict(lambda: defaultdict(float))
    for (name, _, _, _, op), t in zip(tracer.spans, own):
        table[labels[op]][name] += 1e3 * t
    return {label: dict(row) for label, row in table.items()}
