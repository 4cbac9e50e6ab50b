"""In-memory span tracer wrapped around the public functions of parastab.

The package imports names with ``from .x import f``, so a function can be
bound in several module namespaces at once (``parastab.cli.compute_spectrum``
is the same object as ``parastab.spectral.compute_spectrum``).  ``install``
therefore replaces the function in every parastab namespace that binds it,
not only in the module that defines it, and ``uninstall`` puts every
original back.  Nothing inside the package is edited.

A span records its name, start, end, parent span and trace (one trace per
benchmark step).  Counts that the layers do not return directly (CN steps,
eigen rows, working precision) are derived from arguments and results at
the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYER_MODULES = (
    "parastab.model",
    "parastab.spectral",
    "parastab._exact",
    "parastab.synthesis",
    "parastab.lifting",
    "parastab.simulate",
    "parastab.analysis",
    "parastab.cli",
)
NAMESPACES = ("parastab",) + LAYER_MODULES

# cli.main and the cmd_* handlers only dispatch; time spent in them outside
# any layer span is what the benchmark reports as not covered.
DISPATCH = {"cli.main", "cli.cmd_synthesize", "cli.cmd_simulate", "cli.cmd_verify", "cli.cmd_sweep"}

RUN_FUNCTIONS = {
    "simulate.run_linear_closed_loop",
    "simulate.run_open_loop",
    "simulate.run_semilinear_closed_loop",
}
SWEEP_FUNCTIONS = {"analysis.sweep_sampling_period", "analysis.sweep_gammas", "analysis.estimate_basin"}
CHECK_FUNCTIONS = {
    "analysis.check_modal_recursion",
    "analysis.check_contraction",
    "analysis.check_resolution",
    "analysis.check_lift_identity",
    "analysis.check_half_identity",
    "analysis.gain_limit_distance",
    "analysis.orthonormality_residual",
}

ROOT_PREFIX = "step:"


def layer_name(module_name: str, func_name: str) -> str:
    """'parastab._exact', 'gain_system' -> 'exact.gain_system'."""
    return module_name.rsplit(".", 1)[-1].lstrip("_") + "." + func_name


def is_serializer(name: str) -> bool:
    if name.startswith(ROOT_PREFIX):
        return False
    func = name.split(".", 1)[1]
    return func.endswith("_to_csv") or func.endswith("_to_json") or func == "lognorm_svg"


def _trajectory_counts(traj) -> dict:
    """CN steps, snapshots and blow-ups of one returned (or attached) run."""
    if traj is None:
        return {}
    period = traj.schedule.period
    dt = period / traj.substeps
    end = traj.blowup_time if traj.blowup_time is not None else traj.schedule.horizon * period
    return {
        "simulate.steps": int(round(end / dt)),
        "simulate.snapshots": int(traj.times.size),
        "simulate.blowups": int(traj.blowup_time is not None),
    }


def _observe(name: str, args, result, exc) -> dict:
    if name in RUN_FUNCTIONS:
        return _trajectory_counts(result if exc is None else getattr(exc, "trajectory", None))
    if name == "spectral.eigendecompose" and args:
        return {"spectral.eig_rows": int(args[0].m)}
    if name == "exact.gain_system" and exc is None:
        return {"exact.dps_max": int(result.dps)}
    return {}


MAX_COUNTERS = {"exact.dps_max"}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, trace id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._trace_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._trace_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, extra: dict) -> None:
        for key, value in extra.items():
            if key in MAX_COUNTERS:
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value

    def step(self, step_name: str, fn, *args, **kwargs):
        """Run one benchmark step under a root span of a fresh trace."""
        self._trace_id += 1
        idx = self._open(ROOT_PREFIX + step_name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:  # outside any benchmark step, e.g. an output check
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count(_observe(name, args, None, exc))
                raise
            else:
                tracer._count(_observe(name, args, result, None))
                return result
            finally:
                tracer._close(idx)

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------
    def install(self) -> list[str]:
        """Wrap every public function of the layer modules in every namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        names: list[str] = []
        for mod_name in LAYER_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod_name
                    and not attr.startswith("_")
                ):
                    name = layer_name(mod_name, attr)
                    wrappers[id(obj)] = self._wrap(name, obj)
                    names.append(name)
        for ns_name in NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(ns, attr, wrappers[id(obj)])
                    self._patched.append((ns, attr, obj))
        return names

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def binding_count(self) -> int:
        return len(self._patched)

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()


def leftover_wrappers() -> list[str]:
    """Namespace attributes that are still tracer wrappers (should be none)."""
    left = []
    for ns_name in NAMESPACES:
        ns = importlib.import_module(ns_name)
        for attr, obj in vars(ns).items():
            if inspect.isfunction(obj) and hasattr(obj, "__perfbench_original__"):
                left.append(f"{ns_name}.{attr}")
    return left


def _child_time(spans: list[list]) -> list[float]:
    """Per span, the summed duration of its direct children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def summarize(spans: list[list]) -> dict:
    """Per-name calls and self time, plus each step's uncovered time.

    Self time is a span's duration minus the durations of its direct
    children.  For each root (one benchmark step) the uncovered time is its
    duration minus the time inside outermost layer spans, a layer span
    being any span that is not dispatch glue (DISPATCH).  Roots come back
    in order as (step name, duration, uncovered).
    """
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    child_time = _child_time(spans)
    roots: list[list] = []
    under_layer = [False] * len(spans)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[idx]
        if parent < 0:
            roots.append([name[len(ROOT_PREFIX):], dur, dur])
            continue
        is_layer = name not in DISPATCH
        under_layer[idx] = under_layer[parent] or is_layer
        if is_layer and not under_layer[parent]:
            roots[-1][2] -= dur
    return {"calls": calls, "self": self_time, "roots": roots}


def call_tree(spans: list[list]) -> dict:
    """Aggregate spans by their name path from the root (calls, total, self)."""
    paths: list[str] = []
    child_time = _child_time(spans)
    tree: dict[str, list] = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        path = name if parent < 0 else paths[parent] + " > " + name
        paths.append(path)
        entry = tree.setdefault(path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[idx]
    return {p: {"calls": c, "total_s": t, "self_s": s} for p, (c, t, s) in tree.items()}
