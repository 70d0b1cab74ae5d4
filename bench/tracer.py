"""In-memory spans around calls into the wavekernel modules.

The benchmark wraps each public function where its callers look it up
(names imported into ``wavekernel.cli``, the ``kernel_constants`` names in
``goursat`` and ``control_op``, and ``KernelField.wtt_lattice``), so the
program itself is unchanged.  A span records its name, start, end, parent
span and the id of the CLI command it belongs to.  Spans stay in memory;
the caller writes them out when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
import tracemalloc

# (module, attribute) -> span name.  The span name's prefix is the layer.
WRAPPED = {
    ("cli", "parse_potential_file"): "potential.parse_potential_file",
    ("cli", "build_potential"): "potential.build_potential",
    ("cli", "solve_goursat"): "goursat.solve_goursat",
    ("cli", "check_goursat"): "goursat.check_goursat",
    ("cli", "kernel_constants"): "goursat.kernel_constants",
    ("goursat", "kernel_constants"): "goursat.kernel_constants",
    ("control_op", "kernel_constants"): "goursat.kernel_constants",
    ("cli", "dump_kernel"): "goursat.dump_kernel",
    ("cli", "load_kernel"): "goursat.load_kernel",
    ("cli", "propagate"): "propagator.propagate",
    ("cli", "difference_quotient_test"): "propagator.difference_quotient_test",
    ("cli", "build_volterra"): "control_op.build_volterra",
    ("cli", "invert_W"): "control_op.invert_W",
    ("cli", "certify_h2_bound"): "control_op.certify_h2_bound",
    ("cli", "condition_estimate"): "control_op.condition_estimate",
    ("cli", "fd_solve"): "oracle.fd_solve",
    ("cli", "compare"): "oracle.compare",
}

# span name -> per-layer metric that sums the spans' self times
SELF_TIME = {
    "potential.parse_potential_file": "potential.parse_s",
    "potential.build_potential": "potential.parse_s",
    "goursat.solve_goursat": "goursat.solve_s",
    "goursat.check_goursat": "goursat.check_s",
    "goursat.kernel_constants": "goursat.constants_s",
    "goursat.KernelField.wtt_lattice": "goursat.wtt_s",
    "goursat.dump_kernel": "goursat.dump_s",
    "goursat.load_kernel": "goursat.load_s",
    "goursat.initial_v0": "goursat.tables_s",
    "propagator.propagate": "propagator.propagate_s",
    "propagator.difference_quotient_test": "propagator.dq_s",
    "control_op.build_volterra": "control_op.build_s",
    "control_op.invert_W": "control_op.invert_s",
    "control_op.certify_h2_bound": "control_op.certify_s",
    "control_op.condition_estimate": "control_op.cond_s",
    "oracle.fd_solve": "oracle.fd_s",
    "oracle.compare": "oracle.compare_s",
}


class Tracer:
    """Span recorder; `install` wraps the program's functions in place."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.command: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its record so callers can add counts."""
        rec = {"name": name, "id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "command": self.command}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, counts=None, peak_memory: bool = False):
        """`fn` inside a span; `counts(args, kwargs, result)` adds exact counts.

        With `peak_memory` the span also records the tracemalloc peak of the
        call (numpy reports its buffers to tracemalloc).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                if peak_memory:
                    tracemalloc.start()
                    try:
                        out = fn(*args, **kwargs)
                        sp["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                else:
                    out = fn(*args, **kwargs)
                if counts is not None:
                    sp.update(counts(args, kwargs, out))
                return out

        return traced

    def install(self) -> None:
        from wavekernel import cli, control_op, goursat

        modules = {"cli": cli, "goursat": goursat, "control_op": control_op}
        counts = {
            "goursat.solve_goursat": lambda a, kw, out: {"sweeps": out.iterations},
            "control_op.certify_h2_bound": lambda a, kw, out: {"trials": out.trials},
            "oracle.fd_solve": _fd_counts,
        }
        for (mod, attr), name in WRAPPED.items():
            owner = modules[mod]
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, counts.get(name),
                                           peak_memory=name == "goursat.solve_goursat"))
        kf = goursat.KernelField
        kf.wtt_lattice = self.wrap(kf.wtt_lattice, "goursat.KernelField.wtt_lattice")


def _fd_counts(args, kwargs, snap) -> dict:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    dx = cfg.T / cfg.N_x
    # same step count as the leapfrog march in oracle.fd_solve
    return {"steps": math.ceil(cfg.T / (cfg.cfl * dx) - 1e-12)}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    out = {sp["id"]: sp["end"] - sp["start"] for sp in spans}
    for sp in spans:
        if sp["parent"] is not None:
            out[sp["parent"]] -= sp["end"] - sp["start"]
    return out


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems with the span tree: children outside parents, negative self time."""
    by_id = {sp["id"]: sp for sp in spans}
    errors = []
    for sp in spans:
        if sp["end"] < sp["start"]:
            errors.append(f"span {sp['id']} {sp['name']} ends before it starts")
        par = by_id.get(sp["parent"]) if sp["parent"] is not None else None
        if sp["parent"] is not None and par is None:
            errors.append(f"span {sp['id']} has unknown parent {sp['parent']}")
        if par is not None:
            if sp["start"] < par["start"] or sp["end"] > par["end"]:
                errors.append(f"span {sp['id']} {sp['name']} lies outside parent {par['id']}")
            if sp["command"] != par["command"]:
                errors.append(f"span {sp['id']} belongs to another command than its parent")
    for sid, st in self_times(spans).items():
        if st < 0:
            errors.append(f"span {sid} {by_id[sid]['name']} has negative self time {st}")
    return errors
