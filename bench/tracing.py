"""Call tracing for the benchmark, installed from outside the package.

`Tracer` wraps every public function and public method of the seven package
modules (the layers) plus the constructors of `Cgm` and `DbnEngine`, records
one span per call, and derives the per-layer metrics from the spans after a
round. Functions a module imported by name (``from .game import step``) are
re-bound in the importing module too, so ``loop.step`` is traced like
``game.step``. `count_calls` uses the same patching to count calls only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from array import array
from enum import Enum

LAYERS = ("netmodel", "game", "agents", "causal", "detect", "loop", "cli")

# Constructors that do real work (validation, topological sort, tables);
# other constructors build small records and are left alone.
CONSTRUCTORS = ("causal.Cgm", "causal.DbnEngine")

# One-line accessors called thousands of times per episode. Wrapping them
# would multiply the tracing overhead without naming any work of their own.
ACCESSORS = frozenset({
    "netmodel.NodeSpec.max_severity",
    "netmodel.NetworkTopology.node",
    "netmodel.NetworkTopology.has_node",
    "netmodel.NetworkTopology.neighbors",
    "netmodel.NetworkTopology.node_ids",
    "netmodel.NetworkTopology.target_id",
    "game.GameState.target_seen",
    "game.DefenderView.neighbors_of",
    "causal.Cgm.has",
    "causal.Cgm.prob_one",
    "agents.QTable.row",
    "agents.QTable.get",
    "agents.QTable.max_value",
    "detect.IndicatorFrame.get",
})

FB_PASSES = ("causal.DbnEngine.loglik", "causal.DbnEngine.posteriors")
ENGINE_QUERIES = FB_PASSES + ("causal.DbnEngine.conditional",)


def _targets():
    """(name, owner, attribute, function, decorator) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"acdsim.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", mod, attr, obj, None))
            elif (inspect.isclass(obj) and not issubclass(obj, Enum)
                  and not getattr(obj, "_is_protocol", False)):
                for mname, member in vars(obj).items():
                    name = f"{layer}.{attr}.{mname}"
                    if mname.startswith("_"):
                        if mname != "__init__" or f"{layer}.{attr}" not in CONSTRUCTORS:
                            continue
                    if name in ACCESSORS:
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        out.append((name, obj, mname, member.__func__, type(member)))
                    elif inspect.isfunction(member):
                        out.append((name, obj, mname, member, None))
    return out


class _Patch:
    """Replaces each traced callable by `make(name, fn)` until `restore`."""

    def __init__(self, make):
        self._undo = []
        wrappers = {}
        for name, owner, attr, fn, deco in _targets():
            wrapper = make(name, fn)
            wrappers[fn] = wrapper
            self._set(owner, attr, deco(wrapper) if deco else wrapper)
        # names bound by `from .module import fn` in any package module
        for layer in LAYERS:
            mod = importlib.import_module(f"acdsim.{layer}")
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class count_calls:
    """Context manager counting calls per traced name, without timing."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def _make(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def __enter__(self):
        self._patch = _Patch(self._make)
        return self

    def __exit__(self, *exc):
        self._patch.restore()


class Tracer:
    """Context manager recording a span per traced call; spans stay in memory.

    Span i is `names[i]`, `starts[i]`, `ends[i]` and `parents[i]`, the index
    of the innermost enclosing span (-1 for none). `slices[i]` holds the
    slice count of a forward-backward pass, `errors[i]` the type of the
    exception a call raised. Parallel arrays keep a million spans in ~30 MB.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.slices: dict[int, int] = {}
        self.errors: dict[int, str] = {}
        self._stack: list[int] = []

    def _make(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        errors, stack, clock = self.errors, self._stack, time.perf_counter
        slices = self.slices if name in FB_PASSES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            if slices is not None:
                slices[i] = args[0].T
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[i] = type(exc).__name__
                raise
            finally:
                ends[i] = clock()
                stack.pop()
        return traced

    def __enter__(self):
        self._patch = _Patch(self._make)
        return self

    def __exit__(self, *exc):
        self._patch.restore()


# ---------------------------------------------------------------------------
# Per-layer metrics from one round's spans
# ---------------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return 1e3 * values[0]
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(t: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer counts and times for one traced round of `wall_s` seconds.

    `*_ms` are totals over the round, `*_us` means per call, `*_ms_p50/p99`
    percentiles per plan. `<layer>.self_ms` is the time inside the layer's
    spans not covered by their child spans.
    """
    names, parents = t.names, t.parents
    n = len(names)
    dur = array("d", (end - start for start, end in zip(t.starts, t.ends)))
    child = array("d", bytes(8 * n))
    in_loop = bytearray(n)
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
            in_loop[i] = in_loop[p]
        if _layer(names[i]) == "loop":
            in_loop[i] = 1

    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_ms = {layer: 0.0 for layer in LAYERS}
    for i, name in enumerate(names):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_ms[_layer(name)] += 1e3 * (dur[i] - child[i])

    def total_ms(*wanted):
        return 1e3 * sum(total.get(name, 0.0) for name in wanted)

    def mean_us(*wanted):
        calls = sum(count.get(name, 0) for name in wanted)
        return 1e6 * sum(total.get(name, 0.0) for name in wanted) / calls if calls else 0.0

    def parent_name(i):
        return names[parents[i]] if parents[i] >= 0 else ""

    # Plans: causal work the loop does after a step's `posteriors` call and
    # before that step's `game.step` call.
    plans, plan, detect_s, loop_steps = [], None, 0.0, 0
    for i, name in enumerate(names):
        if not in_loop[i]:
            continue
        top_causal = _layer(name) == "causal" and _layer(parent_name(i)) != "causal"
        if name == "game.step":
            loop_steps += 1
            if plan:
                plans.append(plan)
            plan = None
        elif name == "causal.DbnEngine.posteriors" and top_causal:
            detect_s += dur[i]
            plan = 0.0
        elif top_causal and plan is not None:
            plan += dur[i]

    fb_slices = sum(t.slices.values())
    fb_s = sum(dur[i] for i in t.slices)
    engine_builds = count.get("causal.DbnEngine.__init__", 0)
    outside_queries = sum(1 for i, name in enumerate(names)
                          if name in ENGINE_QUERIES
                          and not parent_name(i).startswith("causal.DbnEngine."))
    covered = sum(dur[i] for i in range(n) if parents[i] < 0)

    m = {
        "causal.cgm_builds": count.get("causal.Cgm.__init__", 0),
        "causal.cgm_build_ms": total_ms("causal.Cgm.__init__"),
        "causal.engine_builds": engine_builds,
        "causal.engine_build_ms": total_ms("causal.DbnEngine.__init__"),
        "causal.do_transform_ms": total_ms("causal.do_transform"),
        "causal.fb_passes": len(t.slices),
        "causal.fb_slices": fb_slices,
        "causal.fb_us_per_slice": 1e6 * fb_s / fb_slices if fb_slices else 0.0,
        "causal.smooth_ms": total_ms("causal.smooth"),
        "causal.queries_per_engine": (outside_queries / engine_builds
                                      if engine_builds else 0.0),
        "loop.steps": loop_steps,
        "loop.plans": len(plans),
        "loop.detect_ms": 1e3 * detect_s,
        "loop.plan_ms_p50": _percentile_ms(plans, 50),
        "loop.plan_ms_p99": _percentile_ms(plans, 99),
        "loop.report_ms": total_ms("loop.LoopReport.to_json"),
        "detect.classify_ms": total_ms("detect.classify"),
        "detect.seq_loglik_ms": total_ms("detect.sequence_loglik"),
        "detect.extract_ms": total_ms("detect.extract_indicators"),
        "detect.classify_failed": sum(1 for i in t.errors if names[i] == "detect.classify"),
        "game.steps": count.get("game.step", 0),
        "game.step_us": mean_us("game.step"),
        "game.view_us": mean_us("game.defender_view", "game.attacker_view"),
        "game.init_us": mean_us("game.init"),
        "game.parse_ms": total_ms("game.parse_episode_jsonl"),
        "game.to_jsonl_ms": total_ms("game.episode_to_jsonl"),
        "netmodel.validate_us": mean_us("netmodel.validate_scenario"),
        "netmodel.load_ms": total_ms("netmodel.load_scenario"),
        "agents.featurize_us": mean_us("agents.featurize"),
        "agents.q_update_us": mean_us("agents.q_update"),
        "agents.attacker_act_us": mean_us("agents.LateralAttacker.act"),
        "trace.uncovered_share": (wall_s - covered) / wall_s,
        "trace.spans": n,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms[layer]
    return m


# Counts that must repeat exactly between rounds and runs of the same code.
EXACT_COUNTS = ("game.steps", "loop.plans", "causal.engine_builds",
                "causal.cgm_builds", "causal.fb_passes", "causal.fb_slices",
                "detect.classify_failed")
