"""Outside-in tracing of scriptid's layers for the benchmark's traced run.

The tracer swaps, in the benchmark process only, the module-level names
through which one layer calls the next for wrappers that record a span per
call: name, parent span, start, end, whether it raised, and a few counts
taken from the call's arguments or result. Spans stay in memory and are
written out once the run ends. Nothing under src/ knows about it.
"""

from __future__ import annotations

import importlib
import json
import math
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). Several modules import the same function
# under their own name; each reference is wrapped so every caller is seen.
PATCHES = (
    ("scriptid.raster", "load", "raster.load"),
    ("scriptid.cli", "load", "raster.load"),
    ("scriptid.synthgen", "save", "raster.save"),
    ("scriptid.features", "dilate", "raster.dilate"),
    ("scriptid.pipeline", "extract_lines", "layout.extract_lines"),
    ("scriptid.pipeline", "estimate_baselines", "layout.estimate_baselines"),
    ("scriptid.features", "segment_paws", "layout.segment_paws"),
    ("scriptid.features", "trace_contours", "geometry.trace_contours"),
    ("scriptid.pipeline", "extract_features", "features.extract_features"),
    ("scriptid.features", "detect_diacritics", "features.detect_diacritics"),
    ("scriptid.features", "detect_loops", "features.detect_loops"),
    ("scriptid.features", "detect_poles", "features.detect_poles"),
    ("scriptid.features", "detect_jambs", "features.detect_jambs"),
    ("scriptid.features", "feature_zones", "features.feature_zones"),
    ("scriptid.features", "detect_positions", "features.detect_positions"),
    ("scipy.ndimage", "label", "scipy.ndimage.label"),
    ("scriptid.pipeline", "classify", "classify.classify"),
    ("scriptid.evaluate", "classify", "classify.classify"),
    ("scriptid.pipeline", "analyze_page", "pipeline.analyze_page"),
    ("scriptid.cli", "analyze_page", "pipeline.analyze_page"),
    ("scriptid.pipeline", "classify_page", "pipeline.classify_page"),
    ("scriptid.cli", "classify_page", "pipeline.classify_page"),
    ("scriptid.synthgen", "generate_page", "synthgen.generate"),
    ("scriptid.synthgen", "generate_corpus", "synthgen.generate"),
    ("scriptid.cli", "generate_corpus", "synthgen.generate"),
    ("scriptid.synthgen", "save_corpus", "synthgen.save_corpus"),
    ("scriptid.cli", "save_corpus", "synthgen.save_corpus"),
    ("scriptid.evaluate", "load_ground_truth", "evaluate.load_ground_truth"),
    ("scriptid.evaluate", "score", "evaluate.score"),
    ("scriptid.cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCHES))


def _contour_cap() -> int:
    return importlib.import_module("scriptid.pipeline").DEFAULT_PARAMS.diacritic_max_contour


def _inspect_trace(args, kwargs, result):
    """(points traced, points in chains under the contour cap)."""
    cap = _contour_cap()
    lengths = [len(chain.points) for chain in result]
    return sum(lengths), sum(n for n in lengths if n < cap)


def _inspect_loops(args, kwargs, result):
    """(band-touching closed inner chains under the cap, B hits)."""
    chains, _, baselines, thresholds = args[:4]
    candidates = 0
    for chain in chains:
        if chain.polarity != "inner" or not chain.closed:
            continue
        if len(chain.points) >= thresholds.diacritic_max_contour:
            continue
        rows = [p[0] for p in chain.points]
        if max(rows) < baselines.upper_row or min(rows) > baselines.lower_row:
            continue
        candidates += 1
    return candidates, len(result)


_INSPECT = {
    "geometry.trace_contours": _inspect_trace,
    "features.detect_loops": _inspect_loops,
}


class Span:
    __slots__ = ("name", "parent", "op", "phase", "start", "end", "error", "extra")

    def __init__(self, name, parent, op, phase):
        self.name = name
        self.parent = parent
        self.op = op
        self.phase = phase
        self.start = self.end = 0.0
        self.error = False
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; install() swaps the wrappers in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.phase = ""
        self.op = -1

    def _wrap(self, name, fn):
        inspect = _INSPECT.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op, self.phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if inspect is not None:
                try:
                    span.extra = inspect(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    span.extra = None
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, phase: str):
        """Wrap every boundary in PATCHES for the duration of the block."""
        self.phase = phase
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue  # the layer no longer exists; its metrics read 0
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.phase = ""

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self, path, metrics: dict) -> None:
        """Write every span and the derived metrics as one JSON document."""
        origin = self.spans[0].start if self.spans else 0.0
        doc = {
            "fields": ["name", "parent", "op", "phase", "start_ms", "end_ms", "error", "extra"],
            "spans": [
                [
                    s.name,
                    s.parent,
                    s.op,
                    s.phase,
                    round((s.start - origin) * 1e3, 4),
                    round((s.end - origin) * 1e3, 4),
                    s.error,
                    list(s.extra) if s.extra is not None else None,
                ]
                for s in self.spans
            ],
            "metrics": metrics,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


# Layers measured per text line on the operation phase: the work these do
# grows with the number and width of lines, so per-line figures compare
# across workloads.
PER_LINE_MS = (
    ("geometry.trace_contours", "ms_self"),
    ("features.detect_loops", "ms"),
    ("features.detect_loops", "ms_self"),
    ("features.extract_features", "ms_self"),
    ("features.detect_poles", "ms"),
    ("features.detect_jambs", "ms"),
    ("features.detect_diacritics", "ms"),
    ("features.feature_zones", "ms"),
    ("features.detect_positions", "ms"),
    ("layout.segment_paws", "ms"),
    ("layout.estimate_baselines", "ms"),
    ("raster.dilate", "ms"),
    ("scipy.ndimage.label", "ms"),
)

# Layers measured per call over the whole traced run: page-level analysis
# steps run once per image, and the file and CLI layers run once per batch
# or, in the page workloads, while the benchmark writes its inputs and
# cross-checks the CLI against the API.
PER_CALL_MS = (
    ("raster.load", "ms"),
    ("layout.extract_lines", "ms"),
    ("classify.classify", "ms"),
    ("pipeline.analyze_page", "ms_self"),
    ("raster.save", "ms"),
    ("synthgen.generate", "ms"),
    ("synthgen.save_corpus", "ms_self"),
    ("evaluate.load_ground_truth", "ms"),
    ("evaluate.score", "ms"),
    ("cli.main", "ms_self"),
)

COUNT_METRICS = (
    "geometry.trace_contours.calls_per_line",
    "geometry.trace_contours.points_per_line",
    "geometry.trace_contours.short_chain_point_share",
    "features.detect_loops.retrace_calls_per_line",
    "features.detect_loops.hit_ratio",
    "scipy.ndimage.label.calls_per_line",
    "layout.extract_lines.lines",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scale) -> dict[str, float]:
    """Per-layer counts, times and error tallies from a traced run.

    Counts come from the operation phase only, which runs whole passes over
    the inputs, so they repeat exactly for a given seed. Each span's time is
    multiplied by scale(midpoint of the span), the host-speed factor.
    """
    own = tracer.self_times()
    total: dict[tuple[str, bool], float] = {}
    self_ms: dict[tuple[str, bool], float] = {}
    calls: dict[tuple[str, bool], int] = {}
    errors = {name: 0 for name in SPAN_NAMES}
    points = short = retrace = candidates = hits = 0
    for s, own_s in zip(tracer.spans, own):
        in_ops = s.phase == "ops"
        factor = scale((s.start + s.end) / 2)
        for key in ((s.name, False), (s.name, True)) if in_ops else ((s.name, False),):
            total[key] = total.get(key, 0.0) + s.duration * factor
            self_ms[key] = self_ms.get(key, 0.0) + own_s * factor
            calls[key] = calls.get(key, 0) + 1
        errors[s.name] += s.error
        if not in_ops:
            continue
        if s.name == "geometry.trace_contours":
            if s.extra is not None:
                points += s.extra[0]
                short += s.extra[1]
            if s.parent >= 0 and tracer.spans[s.parent].name == "features.detect_loops":
                retrace += 1
        elif s.name == "features.detect_loops" and s.extra is not None:
            candidates += s.extra[0]
            hits += s.extra[1]

    def ops_calls(name):
        return calls.get((name, True), 0)

    lines = ops_calls("features.extract_features")
    out = {
        "geometry.trace_contours.calls_per_line": _ratio(ops_calls("geometry.trace_contours"), lines),
        "geometry.trace_contours.points_per_line": _ratio(points, lines),
        "geometry.trace_contours.short_chain_point_share": _ratio(short, points),
        "features.detect_loops.retrace_calls_per_line": _ratio(retrace, lines),
        "features.detect_loops.hit_ratio": _ratio(hits, candidates),
        "scipy.ndimage.label.calls_per_line": _ratio(ops_calls("scipy.ndimage.label"), lines),
        "layout.extract_lines.lines": _ratio(lines, ops_calls("layout.extract_lines")),
    }
    for name, kind in PER_LINE_MS:
        source = total if kind == "ms" else self_ms
        out[f"{name}.{kind}"] = _ratio(source.get((name, True), 0.0) * 1e3, lines)
    for name, kind in PER_CALL_MS:
        source = total if kind == "ms" else self_ms
        out[f"{name}.{kind}"] = _ratio(source.get((name, False), 0.0) * 1e3, calls.get((name, False), 0))
    for name in SPAN_NAMES:
        out[f"{name}.errors"] = errors[name]
    return out


def series_ms_per_line(tracer: Tracer, names, scale) -> dict[str, float]:
    """Inclusive ms per text line of the named spans, over every span recorded."""
    lines = sum(1 for s in tracer.spans if s.name == "features.extract_features")
    return {
        name: _ratio(
            sum(s.duration * scale((s.start + s.end) / 2) for s in tracer.spans if s.name == name) * 1e3,
            lines,
        )
        for name in names
    }


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".ms", ".ms_self")) or ".width_ms." in name or name == "host.calibration_ms":
        return "ms"
    if name.endswith(("_share", ".hit_ratio")):
        return "fraction"
    if name.endswith("_per_line"):
        return "count/line"
    if name.endswith(".width_exponent"):
        return "slope"
    if name.startswith("trace.images_per_s"):
        return "1/s"
    if name == "layout.extract_lines.lines":
        return "lines/image"
    return "count"
