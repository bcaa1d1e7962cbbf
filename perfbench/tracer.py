"""Spans and counters around the public functions of each starsections layer.

A :class:`Tracer` is created only for a traced run.  ``install()`` wraps every
public callable a layer module defines, plus a few methods, and rebinds each
wrapper in every ``starsections`` namespace that holds the original (``from
.spaces import phi`` makes copies).  ``uninstall()`` puts the originals back.
An untraced run never creates a tracer, so it runs the program unchanged.

Every wrapped call is a span: name, start, end, parent and op id.  A span's
self time is its duration minus the time of its direct children; a layer's
self time is the sum over its spans, i.e. its span time minus the time of
nested calls into other layers.  Span stacks are kept per thread, because
``starsections verify`` runs a thread pool.  Every span is aggregated per
(op, name); individual span records are kept only for the first
``KEEP_PER_OP`` calls of each name in an op, so the hot scalar ``rho``/``phi``
calls of the plane path cannot grow storage without bound.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("spaces", "quadrature", "harmonics", "bodies", "functionals", "verify", "cli")
KEEP_PER_OP = 32        # span records kept per (op, name); the rest are only aggregated

# Plain counters, reported as they are summed.
COUNT_METRICS = (
    "quadrature.adaptive_calls", "quadrature.adaptive_evals", "quadrature.rule_builds",
    "quadrature.frames", "bodies.rho_calls", "bodies.rho_points", "bodies.band_pairs",
    "spaces.phi_elements", "spaces.phi_inverse_elements", "spaces.root_solve_elements",
    "functionals.root_solve_elements", "harmonics.zonal_points", "tracing.spans",
)

# Methods are wrapped on their class; module-level callables are found by scan.
METHODS = {
    "bodies": (("StarBody", "rho"), ("BandsBase", "section_measures"),
               ("BandsBase", "section_measure"), ("ArcsBase", "section_measure")),
    "harmonics": (("ZonalHarmonic", "__call__"),),
    "quadrature": (("SphereRule", "integrate"),),
}

# Outermost spans of these names add their duration to a named timer.
GROUPS = {
    "functionals.busemann_functional": "lhs",
    "functionals.busemann_functional_with_error": "lhs",
    "functionals.volume": "volume",
    "functionals.rhs_bound": "rhs",
    "verify.extremizer_search": "search",
}
CONSTRUCTOR_PREFIX = "bodies.make_"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return shape[0] if len(shape) >= 2 else 1


def _size(x):
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.layer_calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.counters = defaultdict(float)
        self.group_open = defaultdict(int)
        self.per_op = {}
        self.kept = defaultdict(int)


class Tracer:
    def __init__(self):
        self.op = None
        self.spans = []           # [name, start, end, parent index, op, thread]
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []        # (owner, attribute, original)
        self._results = set()     # distinct left-side results requested
        self._bodies = []         # keeps ids in _results from being reused
        self._rule_cache = None
        self._rule_info0 = None
        self.hooks = {
            "bodies.StarBody.rho": self._hook_rho,
            "bodies.BandsBase.section_measures": self._hook_band_pairs,
            "bodies.BandsBase.section_measure": self._hook_band_pair,
            "harmonics.ZonalHarmonic.__call__": self._hook_zonal,
            "quadrature.householder_frame": self._hook_frame,
            "quadrature.integrate_radial": self._hook_adaptive,
            "spaces.phi": self._hook_phi,
            "spaces.phi_inverse": self._hook_phi_inverse,
            "functionals.f_spherical": self._hook_root_solve,
            "functionals.psi_inverse": self._hook_root_solve,
            "functionals.busemann_functional": self._hook_lhs_eval,
            "functionals.busemann_functional_with_error": self._hook_lhs_error,
            "verify.extremizer_search": self._hook_search,
        }

    # -- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, st, name, layer):
        idx = None
        key = (self.op, name)
        if st.kept[key] < KEEP_PER_OP:
            st.kept[key] += 1
            parent = next((f[4] for f in reversed(st.stack) if f[4] is not None), None)
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.op, threading.get_ident()])
        group = GROUPS.get(name) or ("construct" if name.startswith(CONSTRUCTOR_PREFIX) else None)
        if group is not None:
            st.group_open[group] += 1
        frame = [name, layer, 0.0, 0.0, idx, group]
        st.stack.append(frame)
        frame[2] = time.perf_counter()
        if idx is not None:
            self.spans[idx][1] = frame[2]
        return frame

    def _exit(self, st, frame):
        end = time.perf_counter()
        st.stack.pop()
        name, layer, start, child, idx, group = frame
        dur = end - start
        own = dur - child
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            parent[3] += dur
        st.layer_self[layer] += own
        if parent is None or parent[1] != layer:
            st.layer_calls[layer] += 1
        agg = st.per_op.get((self.op, name))
        if agg is None:
            agg = st.per_op[(self.op, name)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += own
        if idx is not None:
            self.spans[idx][2] = end
        if group is not None:
            st.group_open[group] -= 1
            if st.group_open[group] == 0:
                st.counters[f"time.{group}"] += dur
                if group == "volume" and st.group_open["rhs"]:
                    st.counters["time.rhs_volume"] += dur

    # -- counting hooks: (tracer state, args, kwargs) -> new args or None --

    def _hook_rho(self, st, args, kwargs):
        st.counters["bodies.rho_calls"] += 1
        st.counters["bodies.rho_points"] += _rows(_arg(args, kwargs, 1, "dirs"))

    def _hook_band_pairs(self, st, args, kwargs):
        base = args[0]
        st.counters["bodies.band_pairs"] += _rows(_arg(args, kwargs, 1, "xis")) * len(base.los)

    def _hook_band_pair(self, st, args, kwargs):
        st.counters["bodies.band_pairs"] += len(args[0].los)

    def _hook_zonal(self, st, args, kwargs):
        st.counters["harmonics.zonal_points"] += _rows(_arg(args, kwargs, 1, "u"))

    def _hook_frame(self, st, args, kwargs):
        st.counters["quadrature.frames"] += 1

    def _hook_adaptive(self, st, args, kwargs):
        st.counters["quadrature.adaptive_calls"] += 1
        counters = st.counters
        if args:
            f, rest = args[0], tuple(args[1:])
        else:
            f, rest = kwargs.pop("f"), ()

        def counted(*a):
            counters["quadrature.adaptive_evals"] += 1
            return f(*a)

        return (counted,) + rest, kwargs

    def _hook_phi(self, st, args, kwargs):
        st.counters["spaces.phi_elements"] += _size(_arg(args, kwargs, 2, "x"))

    def _hook_phi_inverse(self, st, args, kwargs):
        n = _size(_arg(args, kwargs, 2, "y"))
        st.counters["spaces.phi_inverse_elements"] += n
        space = _arg(args, kwargs, 0, "space")
        if _arg(args, kwargs, 1, "m") >= 3 and space.delta != 0:
            st.counters["spaces.root_solve_elements"] += n

    def _hook_root_solve(self, st, args, kwargs):
        value = args[-1] if args else next(iter(kwargs.values()))
        st.counters["functionals.root_solve_elements"] += _size(value)

    def _hook_lhs_eval(self, st, args, kwargs):
        st.counters["functionals.lhs_evals"] += 1
        bound = self._signatures["functionals.busemann_functional"].bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        key = (id(a["body"]), id(a["mu"]), bool(a["normalized"]), a["exponent"])
        with self._lock:
            if key not in self._results:
                self._results.add(key)
                self._bodies.append((a["body"], a["mu"]))

    def _hook_lhs_error(self, st, args, kwargs):
        # In the plane the error estimate reruns the adaptive integral inline,
        # outside any wrapped name: one more evaluation of the same result.
        bound = self._signatures["functionals.busemann_functional_with_error"].bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if a["body"].space.dim == 2 and a["config"].plane_adaptive and not a["body"].is_indicator:
            st.counters["functionals.lhs_evals"] += 1

    def _hook_search(self, st, args, kwargs):
        bound = self._signatures["verify.extremizer_search"].bind(*args, **kwargs)
        bound.apply_defaults()
        st.counters["verify.search_steps"] += int(bound.arguments["budget"])

    # -- installation ----------------------------------------------------

    def _wrap(self, name, layer, fn):
        tracer = self
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if hook is not None:
                replaced = hook(st, args, kwargs)
                if replaced is not None:
                    args, kwargs = replaced
            frame = tracer._enter(st, name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(st, frame)

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            try:
                setattr(wrapper, attr, getattr(fn, attr))
            except AttributeError:
                pass
        wrapper.__perfbench_span__ = name
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public callables in all starsections namespaces."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: sys.modules[f"starsections.{layer}"] for layer in LAYERS
                   if f"starsections.{layer}" in sys.modules}
        originals = {}   # id(original) -> wrapper
        self._signatures = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in ("functionals.busemann_functional",
                            "functionals.busemann_functional_with_error", "verify.extremizer_search"):
                    self._signatures[name] = inspect.signature(obj)
                if name == "quadrature.build_sphere_rule":
                    self._rule_cache = obj
                    self._rule_info0 = obj.cache_info()
                originals[id(obj)] = (obj, self._wrap(name, layer, obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", layer, fn))
        for mod in [m for key, m in list(sys.modules.items())
                    if m is not None and (key == "starsections" or key.startswith("starsections."))]:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------

    def raw(self) -> dict:
        """Additive totals, so that raws of several processes can be summed."""
        out = defaultdict(float)
        per_op = defaultdict(lambda: [0, 0.0, 0.0])
        for st in self._states:
            for layer, v in st.layer_calls.items():
                out[f"{layer}.calls"] += v
            for layer, v in st.layer_self.items():
                out[f"{layer}.self_s"] += v
            for key, v in st.counters.items():
                out[key] += v
            for (op, name), (calls, total, own) in st.per_op.items():
                agg = per_op[f"{op}|{name}"]
                agg[0] += calls
                agg[1] += total
                agg[2] += own
        if self._rule_cache is not None:
            info = self._rule_cache.cache_info()
            out["quadrature.rule_hits"] += info.hits - self._rule_info0.hits
            out["quadrature.rule_builds"] += info.misses - self._rule_info0.misses
        out["functionals.lhs_results"] += len(self._results)
        out["tracing.spans"] += len(self.spans)
        return {"totals": dict(out), "per_op": dict(per_op)}


def derive(totals: dict) -> dict:
    """Per-layer metrics from summed raw totals (see README.md for each)."""
    t = defaultdict(float, totals)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = t[f"{layer}.calls"]
        out[f"{layer}.self_s"] = t[f"{layer}.self_s"]
    for key in COUNT_METRICS:
        out[key] = t[key]
    lookups = t["quadrature.rule_hits"] + t["quadrature.rule_builds"]
    out["quadrature.rule_hit_ratio"] = t["quadrature.rule_hits"] / lookups if lookups else 0.0
    out["bodies.construct_s"] = t["time.construct"]
    out["functionals.lhs_s"] = t["time.lhs"]
    out["functionals.volume_s"] = t["time.volume"]
    out["functionals.rhs_s"] = t["time.rhs"] - t["time.rhs_volume"]
    results = t["functionals.lhs_results"]
    out["functionals.evals_per_result"] = t["functionals.lhs_evals"] / results if results else 0.0
    search_s = t["time.search"]
    out["verify.search_steps_per_s"] = t["verify.search_steps"] / search_s if search_s else 0.0
    return out


def installed_wrappers() -> list[str]:
    """Names of tracing wrappers currently bound anywhere in starsections."""
    found = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "starsections" or key.startswith("starsections.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if hasattr(obj, "__perfbench_span__"):
                found.append(f"{key}.{attr}")
            if isinstance(obj, type):
                for meth, fn in list(vars(obj).items()):
                    if hasattr(fn, "__perfbench_span__"):
                        found.append(f"{key}.{attr}.{meth}")
    return found
