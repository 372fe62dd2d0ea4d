"""Per-layer timing spans, wrapped around perhom from outside its source.

``install`` replaces the public functions and methods of each perhom
module, wherever a perhom module holds a reference to them, with wrappers
that open a span.  A call that enters a layer from another layer (or from
the benchmark) opens a span; a call made while the same layer's span is
already innermost runs inside that span.  A layer's self time is the time
inside its spans minus the time of the nested spans of other layers; the
numpy and scipy calls a layer makes count as its own time.

Spans of the solver, oracle and harness layers are kept one by one with
their parent; the per-point layers (environment, periodize, model) are
aggregated into the span that called them, since a grid has thousands of
points.  Everything stays in memory until ``Tracer.dump``.
"""

from __future__ import annotations

from collections import Counter
import importlib
import json
import time
import types
import warnings

LAYERS = ("environment", "periodize", "model", "hjb_solver",
          "elliptic_solver", "oracle", "harness")
_PER_POINT = ("environment", "periodize", "model")

# Public entry points of each layer.  Methods are given as Class.method.
PUBLIC = {
    "environment": ("eval_potential", "sigma_scalar", "eval_sigma",
                    "eval_potential_grid"),
    "periodize": ("eval_cutoff", "choose_H0_constant", "periodize_hjb",
                  "periodize_elliptic", "PeriodizedHJB.zeta",
                  "PeriodizedHJB.eval_H", "PeriodizedHJB.eval_A",
                  "PeriodizedHJB.eval_H0", "PeriodizedElliptic.zeta",
                  "PeriodizedElliptic.eval_F", "PeriodizedElliptic.eval_F0",
                  "PeriodizedElliptic.blended_controls"),
    "model": ("control_coefficients", "eval_H", "eval_A", "eval_F",
              "verify_structure"),
    "hjb_solver": ("ergodic_constant_periodic", "solve_delta_problem",
                   "estimate_Hbar_reference", "make_grid", "default_theta",
                   "corrector_lipschitz"),
    "elliptic_solver": ("ergodic_constant_periodic_elliptic",
                        "solve_resolvent", "ergodic_constant_1d_exact"),
    "oracle": ("hbar_1d_first_order", "flat_spot_halfwidth",
               "hbar_flat_spot_value", "fbar_linear_1d", "brute_force_min"),
    "harness": ("run_convergence_study", "fit_rate", "check_sandwich",
                "emit_csv", "emit_json", "load_csv"),
}

# The HJB solver runs an explicit prelude of this many steps before Newton
# in every ergodic solve; more explicit steps than that mean the solve fell
# back to explicit marching.
PRELUDE_STEPS = 30

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("environment.calls", "count"), ("environment.s", "s"),
    ("environment.us_per_call", "us"),
    ("periodize.calls", "count"), ("periodize.s", "s"),
    ("model.calls", "count"), ("model.s", "s"),
    ("hjb_solver.solves", "count"), ("hjb_solver.steps", "count"),
    ("hjb_solver.newton_steps", "count"),
    ("hjb_solver.explicit_steps", "count"),
    ("hjb_solver.fallback_solves", "count"), ("hjb_solver.s", "s"),
    ("hjb_solver.spsolve_s", "s"), ("hjb_solver.fp_warnings", "count"),
    ("elliptic_solver.solves", "count"),
    ("elliptic_solver.howard_iters", "count"),
    ("elliptic_solver.spsolve_calls", "count"),
    ("elliptic_solver.spsolve_s", "s"), ("elliptic_solver.s", "s"),
    ("oracle.calls", "count"), ("oracle.s", "s"),
    ("oracle.environment_calls", "count"),
    ("harness.s", "s"), ("harness.reference_s", "s"),
)


class _Frame:
    __slots__ = ("id", "layer", "name", "start", "child_s", "per_point")

    def __init__(self, sid, layer, name, start):
        self.id, self.layer, self.name, self.start = sid, layer, name, start
        self.child_s = 0.0
        self.per_point = Counter()


class Tracer:
    """Span stack, per-layer totals and the kept spans of one process."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[dict] = []
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._next_id = 0
        self._open = Counter()

    def span(self, layer: str, name: str, fn):
        """Call ``fn()`` inside a span of ``layer`` (or inside the current
        span when it already belongs to ``layer``)."""
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent.layer == layer:
            return fn()
        if layer == "environment" and self._open["oracle"]:
            self.counts["oracle.environment_calls"] += 1
        self._next_id += 1
        frame = _Frame(self._next_id, layer, name, time.perf_counter())
        self.stack.append(frame)
        self._open[layer] += 1
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._open[layer] -= 1
            dur = end - frame.start
            self.self_s[layer] += dur - frame.child_s
            self.calls[layer] += 1
            if parent is not None:
                parent.child_s += dur
            if layer in _PER_POINT and parent is not None:
                # fold this point's span, and what it folded, into the caller
                parent.per_point[layer + ".calls"] += 1
                parent.per_point[layer + ".s"] += dur - frame.child_s
                parent.per_point.update(frame.per_point)
            else:
                self.spans.append({
                    "id": frame.id,
                    "parent": parent.id if parent is not None else None,
                    "layer": layer, "name": name,
                    "start": frame.start, "end": end,
                    "self_s": dur - frame.child_s,
                    **{k: frame.per_point[k] for k in sorted(frame.per_point)},
                })

    def timed(self, key: str, fn):
        """Call ``fn()`` and add its inclusive time to counter ``key``."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.counts[key] += time.perf_counter() - t0

    def metrics(self) -> dict:
        """Totals of this process under the names of ``METRICS``."""
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = self.calls[layer]
            out[layer + ".s"] = self.self_s[layer]
        calls = self.calls["environment"]
        out["environment.us_per_call"] = (
            1e6 * self.self_s["environment"] / calls if calls else 0.0)
        c = self.counts
        for key in ("hjb_solver.solves", "hjb_solver.steps",
                    "hjb_solver.newton_steps", "hjb_solver.fallback_solves",
                    "hjb_solver.spsolve_s", "hjb_solver.fp_warnings",
                    "elliptic_solver.solves", "elliptic_solver.howard_iters",
                    "elliptic_solver.spsolve_calls",
                    "elliptic_solver.spsolve_s", "oracle.environment_calls",
                    "harness.reference_s"):
            out[key] = c[key]
        out["hjb_solver.explicit_steps"] = (c["hjb_solver.steps"]
                                            - c["hjb_solver.newton_steps"])
        return {name: out[name] for name, _ in METRICS}

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"metrics": self.metrics(), "spans": self.spans}, f)


def _spsolve_proxy(tracer: Tracer, linalg, layer: str):
    """A stand-in for scipy.sparse.linalg whose spsolve is counted."""
    proxy = types.SimpleNamespace(**{k: getattr(linalg, k) for k in dir(linalg)
                                     if not k.startswith("__")})
    spsolve = linalg.spsolve

    def counted(*args, **kwargs):
        tracer.counts[layer + ".spsolve_calls"] += 1
        return tracer.timed(layer + ".spsolve_s",
                            lambda: spsolve(*args, **kwargs))

    proxy.spsolve = counted
    return proxy


def _iterations(out) -> int:
    """Steps of a solve: ErgodicEstimate.iterations or GridField.info."""
    return out.iterations if hasattr(out, "iterations") else out.info["iterations"]


def _hjb_solve_probe(tracer: Tracer, fn):
    """Count one HJB cell solve: its steps, its sparse solves, whether it
    fell back to explicit marching, and the RuntimeWarnings it raised."""
    c = tracer.counts

    def probe(*args, **kwargs):
        before = c["hjb_solver.spsolve_calls"]
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            show = warnings.showwarning

            def count(message, category, *rest, **kw):
                if issubclass(category, RuntimeWarning):
                    c["hjb_solver.fp_warnings"] += 1
                else:
                    show(message, category, *rest, **kw)

            warnings.showwarning = count
            out = fn(*args, **kwargs)
        steps = _iterations(out)
        newton = c["hjb_solver.spsolve_calls"] - before
        c["hjb_solver.solves"] += 1
        c["hjb_solver.steps"] += steps
        c["hjb_solver.newton_steps"] += newton
        c["hjb_solver.fallback_solves"] += int(steps - newton > PRELUDE_STEPS)
        return out

    return probe


def _elliptic_solve_probe(tracer: Tracer, fn):
    c = tracer.counts

    def probe(*args, **kwargs):
        out = fn(*args, **kwargs)
        c["elliptic_solver.solves"] += 1
        c["elliptic_solver.howard_iters"] += _iterations(out)
        return out

    return probe


def _layer_wrapper(tracer: Tracer, layer: str, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.span(layer, name, lambda: fn(*args, **kwargs))
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every entry point of ``PUBLIC`` and rebind each perhom
    module's reference to it; also count the sparse solves of both solvers
    and time the study's reference computations."""
    import perhom
    mods = {name: importlib.import_module("perhom." + name)
            for name in LAYERS + ("cli", "validation")}
    holders = [perhom] + list(mods.values())
    for layer in LAYERS:
        for entry in PUBLIC[layer]:
            if "." in entry:
                cls_name, meth = entry.split(".")
                cls = getattr(mods[layer], cls_name)
                setattr(cls, meth, _layer_wrapper(tracer, layer, entry,
                                                  cls.__dict__[meth]))
                continue
            orig = getattr(mods[layer], entry)
            fn = orig
            if entry in ("ergodic_constant_periodic", "solve_delta_problem"):
                fn = _hjb_solve_probe(tracer, fn)
            elif entry in ("ergodic_constant_periodic_elliptic",
                           "solve_resolvent"):
                fn = _elliptic_solve_probe(tracer, fn)
            wrapped = _layer_wrapper(tracer, layer, entry, fn)
            for holder in holders:
                if getattr(holder, entry, None) is orig:
                    setattr(holder, entry, wrapped)
    for layer in ("hjb_solver", "elliptic_solver"):
        mods[layer].spla = _spsolve_proxy(tracer, mods[layer].spla, layer)
    harness = mods["harness"]
    for private in ("_reference_hjb", "_reference_elliptic"):
        fn = getattr(harness, private)
        setattr(harness, private, _timed_wrapper(tracer, "harness.reference_s", fn))


def _timed_wrapper(tracer: Tracer, key: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.timed(key, lambda: fn(*args, **kwargs))
    return wrapper
