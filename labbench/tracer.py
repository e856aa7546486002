"""Per-layer spans for the traced benchmark run.

A layer is one ``littlelab`` module.  ``install`` wraps every public function
of each layer module, the public methods of the classes it defines, and their
``__post_init__`` / ``__call__``.  Each wrapper is re-bound in every module
that imported the original name (``game``, ``learners`` and ``significance``
each hold their own ``restrict``), so no call slips past it.  Nothing in the
package source changes.

A call that crosses from one layer into another opens a span: name, start,
end, parent span and query index.  A call inside the layer that is already
running is only counted.  A layer's self time is the duration of its spans
minus the part covered by their child spans.  Self times are summed as spans
close, so they are exact even when the stored span list hits its cap.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("kernels", "littlestone", "classes", "game", "learners",
          "significance", "batch", "core", "machine", "families", "budget")
QUERY = "query"
SPAN_CAP = 50_000


class Tracer:
    def __init__(self) -> None:
        # Frame: [layer, start, time covered by child spans, span index].
        self.stack: list[list] = [[None, 0.0, 0.0, -1]]
        self.self_s: Counter = Counter()
        self.entries: Counter = Counter()
        # Layer entries made by queries that count toward the coverage check.
        self.checked_entries: Counter = Counter()
        self.checked = False
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()
        self.ldim_keys: set[int] = set()
        self.encode_keys: set[int] = set()
        self.spans: list[list] = []
        self.spans_total = 0
        self.query = -1

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        self.entries[layer] += 1
        if self.checked:
            self.checked_entries[layer] += 1
        self.spans_total += 1
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([self.query, self.stack[-1][3], name, 0.0, 0.0])
        frame = [layer, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        self.stack[-1][2] += duration
        if frame[3] >= 0:
            span = self.spans[frame[3]]
            span[3], span[4] = frame[1], end

    def begin_query(self, index: int, checked: bool = True) -> list:
        self.query = index
        frame = self._open(QUERY, f"query[{index}]")
        self.checked = checked
        return frame

    def end_query(self, frame: list) -> None:
        self.checked = False
        self._close(frame)
        self.query = -1

    def wrap(self, layer: str, name: str, fn, hook=None):
        stack, calls = self.stack, self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            caller = stack[-1][0]
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                frame = self._open(layer, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(frame)
            if hook is not None:
                hook(self, args, kwargs, result, caller)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- results -------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        c, x = self.calls, self.extra
        ldim_calls = c["littlestone.ldim"]
        encode_calls = x["core.encode_calls"]
        run_calls = c["machine.run"] + c["machine.run_trace"]
        metrics = {
            "kernels.calls": c["kernels.ldim_masks"] + c["kernels.game_value_masks"],
            "kernels.rows_in": x["kernels.rows_in"],
            "littlestone.ldim_calls": ldim_calls,
            "littlestone.ldim_distinct_ratio":
                len(self.ldim_keys) / ldim_calls if ldim_calls else 0.0,
            "littlestone.search_calls": c["littlestone.find_shattered_tree"],
            "classes.restrict_calls": c["classes.restrict"],
            "classes.restrict_items": x["classes.restrict_items"],
            "classes.constrain_calls": c["classes.constrain"],
            "classes.finiteclass_built": c["classes.FiniteClass.__post_init__"],
            "game.predict_calls": x["game.predict_calls"],
            "significance.calls": self.entries["significance"],
            "core.sample_built": c["core.Sample.__post_init__"],
            "core.encode_calls": encode_calls,
            "core.encode_bits": x["core.encode_bits"],
            "core.encode_distinct_ratio":
                len(self.encode_keys) / encode_calls if encode_calls else 0.0,
            "machine.run_calls": run_calls,
            "machine.steps": x["machine.steps"],
            "machine.input_bits": x["machine.input_bits"],
            "machine.halted_ratio": x["machine.halted"] / run_calls if run_calls else 0.0,
            "families.label_calls": c["families.diagonal_label"],
            "budget.fuel_exhausted": x["budget.fuel_exhausted"],
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self.self_s[layer]
        unattributed = self.self_s[QUERY]
        metrics["trace.coverage"] = 1.0 - unattributed / wall_s if wall_s > 0 else 0.0
        return metrics

    def span_dump(self) -> dict:
        return {"fields": ["query", "parent", "name", "start", "end"],
                "spans": self.spans, "spans_total": self.spans_total,
                "spans_dropped": self.spans_total - len(self.spans)}


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries

def _rows_in(t, args, kwargs, result, caller):
    t.extra["kernels.rows_in"] += len(args[0])


def _ldim(t, args, kwargs, result, caller):
    H = args[0]
    t.ldim_keys.add(hash((H.domain_size, H.rows)))


def _restrict(t, args, kwargs, result, caller):
    t.extra["classes.restrict_items"] += len(args[1])


def _predict(t, args, kwargs, result, caller):
    if caller == "game":
        t.extra["game.predict_calls"] += 1


def _encode(key_of):
    def hook(t, args, kwargs, result, caller):
        if caller != "core":
            t.extra["core.encode_calls"] += 1
            t.extra["core.encode_bits"] += result.bit_length()
            t.encode_keys.add(hash(key_of(args)))
    return hook


def _run(t, args, kwargs, result, caller):
    step_budget = args[2]
    second = args[3] if len(args) > 3 else kwargs.get("second")
    t.extra["machine.input_bits"] += args[1].bit_length()
    if second is not None:
        t.extra["machine.input_bits"] += second.bit_length()
    if isinstance(result, tuple):  # run_trace: the configurations visited
        t.extra["machine.steps"] += len(result) - 1
        t.extra["machine.halted"] += 1
    elif hasattr(result, "steps"):
        t.extra["machine.steps"] += result.steps
        t.extra["machine.halted"] += 1
    else:
        t.extra["machine.steps"] += step_budget


HOOKS = {
    "kernels.ldim_masks": _rows_in,
    "kernels.game_value_masks": _rows_in,
    "littlestone.ldim": _ldim,
    "classes.restrict": _restrict,
    "learners.Learner.predict": _predict,
    "core.encode_sample": _encode(lambda args: args[0].items),
    "core.encode_sequence": _encode(lambda args: tuple(args[0])),
    "machine.run": _run,
    "machine.run_trace": _run,
}


def _wrappable(member, attr: str) -> bool:
    if not inspect.isfunction(member) or inspect.isgeneratorfunction(member):
        # Generator bodies run while the caller iterates, so their time is the
        # consumer's; none of the workloads calls one.
        return False
    return not attr.startswith("_") or attr in ("__post_init__", "__call__")


def install(tracer: Tracer, extra_modules=()) -> None:
    """Wrap the layer modules of the imported ``littlelab`` package."""
    originals: dict[int, tuple] = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"littlelab.{layer}")
        except ModuleNotFoundError:  # a layer the package no longer has reports zeros
            continue
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if _wrappable(obj, attr):
                name = f"{layer}.{attr}"
                originals[id(obj)] = (obj, tracer.wrap(layer, name, obj, HOOKS.get(name)))
            elif inspect.isclass(obj):
                for method, member in list(vars(obj).items()):
                    if _wrappable(member, method):
                        name = f"{layer}.{obj.__name__}.{method}"
                        setattr(obj, method, tracer.wrap(layer, name, member, HOOKS.get(name)))
    _count_fuel_exhaustion(tracer, importlib.import_module("littlelab").FuelExhaustedError)

    package = [module for name, module in sys.modules.items()
               if name == "littlelab" or name.startswith("littlelab.")]
    modules = package + list(extra_modules)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    missed = [f"{module.__name__}.{attr}" for module in modules
              for attr, obj in vars(module).items() if _still_original(obj, originals)]
    if missed:
        raise RuntimeError(f"tracing wrappers missed: {', '.join(missed)}")


def _still_original(obj, originals) -> bool:
    """True when obj, or a default argument of obj, is an unwrapped original."""
    defaults = (getattr(obj, "__defaults__", None) or ()) + tuple(
        (getattr(obj, "__kwdefaults__", None) or {}).values())
    return any(id(o) in originals and originals[id(o)][0] is o for o in (obj,) + defaults)


def _count_fuel_exhaustion(tracer: Tracer, error_class) -> None:
    """Count every FuelExhaustedError raised, whoever raises or catches it."""
    base_init = error_class.__init__

    def counting_init(self, *args, **kwargs):
        tracer.extra["budget.fuel_exhausted"] += 1
        base_init(self, *args, **kwargs)

    error_class.__init__ = counting_init
