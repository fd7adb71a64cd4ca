"""Per-layer tracing of apsgd, installed from outside the package.

``Tracer.install`` replaces every public function and public method of the
layer modules with a wrapper that records a span: its duration, and the part
of it covered by child spans.  A layer's self time is the sum over its spans
of duration minus child time.  Generator functions are left alone; their
work is timed by whoever consumes them.  The observation iterator that
``ingest.load_observations`` returns is wrapped, so each row it yields is a
span of its own.  Spans and counts stay in memory; ``metrics`` reduces them
to the per-layer metrics once the traced commands have run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("ingest", "estimator", "models", "linalg", "inference", "distributions", "simulate", "cli")

#: Span name of one row of the observation iterator.
OBSERVATION = "ingest.observations"

#: Inference functions that assemble results from finished streams;
#: ``specification_test`` is left out because it drives the stream itself.
_STREAM_DRIVERS = {"inference.specification_test"}

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("ingest.parse_us_per_row", "us", "lower"),
    ("ingest.rows", "count", "higher"),
    ("ingest.moments_us_per_row", "us", "lower"),
    ("estimator.steps", "count", "lower"),
    ("estimator.step_us_p50", "us", "lower"),
    ("estimator.step_us_p99", "us", "lower"),
    ("models.gradient_calls", "count", "lower"),
    ("models.hessian_calls", "count", "lower"),
    ("models.gradient_us_p50", "us", "lower"),
    ("models.hessian_us_p50", "us", "lower"),
    ("linalg.project_calls", "count", "lower"),
    ("linalg.project_us_p50", "us", "lower"),
    ("linalg.project_noop_share", "ratio", "lower"),
    ("linalg.eigen_calls", "count", "lower"),
    ("inference.assemble_ms", "ms", "lower"),
    ("distributions.calls", "count", "lower"),
    ("distributions.us_p50", "us", "lower"),
    ("simulate.draw_block_ns_per_row_rep", "ns", "lower"),
    ("simulate.lockstep_ns_per_step_rep", "ns", "lower"),
    ("simulate.per_rep_inference_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    *((f"{layer}.share", "ratio", "lower") for layer in LAYERS),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Span aggregates for every wrapped function, keyed ``layer.qualname``."""

    def __init__(self):
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [name, seconds covered by children]
        self._identity: dict[int, tuple[object, bool]] = {}
        self._signatures: dict[str, inspect.Signature] = {}
        self._hooks = {
            "ingest.load_observations": self._observations,
            "linalg.Constraint.project": self._project,
            "simulate.draw_block": self._draw_block,
            "simulate.replicate_streams": self._replicate_streams,
        }

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, layer: str, fn):
        """``fn`` with a span named ``name`` around each call."""
        stack, durations, self_seconds = self._stack, self.durations[name], self.self_seconds
        clock = time.perf_counter
        hook = self._hooks.get(name)
        if name.startswith("inference.") and name not in _STREAM_DRIVERS:
            hook = self._assemble
        if hook is not None:
            self._signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                durations.append(seconds)
                self_seconds[layer] += seconds - frame[1]
            if hook is not None:
                return hook(name, args, kwargs, result, seconds)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module, in place.

        Every apsgd module that imported a wrapped function by name gets the
        wrapper too, so calls across modules are traced.
        """
        import apsgd

        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"apsgd.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", layer, obj)
        for info in pkgutil.iter_modules(apsgd.__path__):
            module = importlib.import_module(f"apsgd.{info.name}")
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
        for attr, obj in list(vars(apsgd).items()):
            if id(obj) in replaced:
                setattr(apsgd, attr, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(name, layer, obj.__func__)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(cls, attr, self.wrap(name, layer, obj))

    # -- counts at layer boundaries ----------------------------------------------

    def _arguments(self, name, args, kwargs) -> dict:
        return self._signatures[name].bind(*args, **kwargs).arguments

    def _observations(self, name, args, kwargs, result, seconds):
        next_row = self.wrap(OBSERVATION, "ingest", iter(result).__next__)
        counts = self.counts

        class Observations:
            def __iter__(self):
                return self

            def __next__(self):
                row = next_row()
                counts["rows"] += 1
                return row

        return Observations()

    def _project(self, name, args, kwargs, result, seconds):
        constraint = args[0]
        key = id(constraint)
        if key not in self._identity:  # the object is kept, so its id is not reused
            P = constraint.P
            self._identity[key] = (constraint, bool(np.array_equal(P, np.eye(P.shape[0]))))
        self.counts["project_noop"] += self._identity[key][1]
        return result

    def _draw_block(self, name, args, kwargs, result, seconds):
        self.counts["rows_drawn"] += self._arguments(name, args, kwargs)["n"]
        return result

    def _replicate_streams(self, name, args, kwargs, result, seconds):
        arguments = self._arguments(name, args, kwargs)
        self.counts["step_reps"] += arguments["T"] * arguments["replications"]
        self.counts["reps"] += arguments["replications"]
        return result

    def _assemble(self, name, args, kwargs, result, seconds):
        if not any(
            name.startswith("inference.") and name not in _STREAM_DRIVERS
            for name, _ in self._stack
        ):
            self.counts["assemble_seconds"] += seconds
        return result

    # -- reduction -----------------------------------------------------------------

    def _matching(self, predicate) -> np.ndarray:
        parts = [np.frombuffer(d) for name, d in self.durations.items() if predicate(name) and d]
        return np.concatenate(parts) if parts else np.zeros(0)

    def metrics(
        self, traced_walls: list[float], traced_cpus: list[float], untraced_cpus: list[float]
    ) -> dict:
        """Per-layer metrics per command, given the wall and CPU times of the
        traced commands and the CPU times of untraced commands run in the
        same process.

        Counts and times are per command; shares are of the traced commands'
        total wall time; the overhead compares median CPU times, as the
        end-to-end metrics do.  Layers a workload bypasses report zero.
        """
        commands = len(traced_walls)

        def spans(name):
            return self._matching(lambda n: n == name)

        def method(layer, attr):
            return self._matching(lambda n: n.startswith(f"{layer}.") and n.endswith(f".{attr}"))

        def pct(values, q, scale=1e6):
            return float(np.percentile(values, q)) * scale if values.size else 0.0

        def per(total, count, scale):
            return total / count * scale if count else 0.0

        rows_spans = spans(OBSERVATION)
        rows = self.counts["rows"]
        steps = spans("estimator.EstimatorState.step")
        gradient, hessian = method("models", "gradient"), method("models", "hessian")
        project = spans("linalg.Constraint.project")
        dist = self._matching(lambda n: n.startswith("distributions."))
        draw_seconds = spans("simulate.draw_block").sum()
        stream_seconds = spans("simulate.replicate_streams").sum()
        run_seconds = spans("simulate.run_experiment").sum()
        overhead = statistics.median(traced_cpus) / statistics.median(untraced_cpus) - 1.0
        values = {
            "ingest.parse_us_per_row": per(rows_spans.sum(), rows, 1e6),
            "ingest.rows": rows / commands,
            "ingest.moments_us_per_row": per(spans("ingest.feature_moments").sum(), rows, 1e6),
            "estimator.steps": steps.size / commands,
            "estimator.step_us_p50": pct(steps, 50),
            "estimator.step_us_p99": pct(steps, 99),
            "models.gradient_calls": gradient.size / commands,
            "models.hessian_calls": hessian.size / commands,
            "models.gradient_us_p50": pct(gradient, 50),
            "models.hessian_us_p50": pct(hessian, 50),
            "linalg.project_calls": project.size / commands,
            "linalg.project_us_p50": pct(project, 50),
            "linalg.project_noop_share": per(self.counts["project_noop"], project.size, 1.0),
            "linalg.eigen_calls": spans("linalg.symmetric_eigen").size / commands,
            "inference.assemble_ms": self.counts["assemble_seconds"] / commands * 1e3,
            "distributions.calls": dist.size / commands,
            "distributions.us_p50": pct(dist, 50),
            "simulate.draw_block_ns_per_row_rep": per(draw_seconds, self.counts["rows_drawn"], 1e9),
            "simulate.lockstep_ns_per_step_rep": per(
                stream_seconds - draw_seconds, self.counts["step_reps"], 1e9
            ),
            "simulate.per_rep_inference_ms": per(
                run_seconds - stream_seconds, self.counts["reps"], 1e3
            ),
            "cli.self_ms": self.self_seconds["cli"] / commands * 1e3,
            "trace.overhead_pct": overhead * 100.0,
        }
        for layer in LAYERS:
            values[f"{layer}.share"] = per(self.self_seconds[layer], sum(traced_walls), 1.0)
        return {name: values[name] for name, _, _ in PER_LAYER}
