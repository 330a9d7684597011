"""Spans recorded from the benchmark's own code around calls into vaikit.

``instrumented(tracer)`` wraps a fixed list of vaikit's public functions
and methods (``TARGETS``) for the duration of a ``with`` block, so every
call records a span: name, tag, start, end and the index of the span
that was open when it began.  Nothing inside ``src/`` changes; the
wrappers are removed again when the block exits.

Span names are ``<module>.<function>`` (``.__init__`` dropped, so a
constructor reads ``lie.LieAlgebra``).  The layer of a span is the part
of its name before the first dot.  Tracing inside the program, when it
comes, should reuse these names so the two measurements line up.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from contextlib import contextmanager
from pathlib import PurePath

# module -> public callables wrapped in a traced run; ``Class.method``
# entries are patched on the class, plain names in every vaikit module
# that imported them
TARGETS = {
    "catalog": ("load_algebra_file", "load_subalgebra_file",
                "parse_parabolic", "parse_theta"),
    "lie": ("LieAlgebra.__init__", "LieAlgebra.killing_form",
            "is_unimodular_pair", "unimodular_trace_witness", "radical",
            "center", "derived_subalgebra"),
    "exact": ("RatMat.inverse", "rref", "kernel", "solve", "char_poly",
              "minimal_polynomial", "rational_eigen_decomposition"),
    "reductivity": ("CartanData.__init__", "default_cartan", "vai_verdict",
                    "is_reductive_in_g", "check_theta_stable",
                    "is_symmetric_pair"),
    "grading": ("Grading.__init__", "jacobson_morozov", "grading_of",
                "acts_nilpotently", "verify_nonnegative_grading"),
    "witness": ("ParabolicData.__init__", "build_n1", "check_mt_bounded",
                "unipotent_witness", "predict_symmetric_exponent",
                "predict_lower_bound"),
    "volume": ("get_model", "estimate_volume", "volume_along_curve",
               "fit_log_slope"),
    "cli": ("main", "cmd_check", "cmd_witness", "cmd_estimate"),
}

# the layers every workload calls into; the rest of a pass is "other"
COMMON_LAYERS = ("lie", "exact", "reductivity", "grading")

# a span is [name, tag, start_ns, end_ns, parent_index]; parent -1 = root
NAME, TAG, START, END, PARENT = range(5)


class Tracer:
    """In-memory span recorder; ``take`` hands the spans over and resets."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, tag: str | None = None) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, tag, time.perf_counter_ns(), 0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        index = self.begin(name, tag)
        try:
            yield
        finally:
            self.end(index)

    def take(self) -> list[list]:
        if self._open:
            raise RuntimeError("take() with spans still open")
        spans, self.spans = self.spans, []
        return spans


def _tag(args, kwargs) -> str | None:
    """Which algebra, model or file a call is about, for span selection."""
    name = kwargs.get("name")
    if isinstance(name, str) and name:
        return name
    for arg in args[:3]:
        name = getattr(arg, "name", None)
        if isinstance(name, str) and name:
            return name
        if isinstance(arg, (str, PurePath)):
            return PurePath(arg).stem
    return None


def _wrap(tracer: Tracer, span_name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(span_name, _tag(args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every ``TARGETS`` callable for the duration of the block."""
    undo = []
    for layer, attrs in TARGETS.items():
        module = importlib.import_module(f"vaikit.{layer}")
        for attr in attrs:
            span_name = f"{layer}.{attr.removesuffix('.__init__')}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                undo.append((owner, method, original))
                setattr(owner, method, _wrap(tracer, span_name, original))
                continue
            original = getattr(module, attr)
            wrapped = _wrap(tracer, span_name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("vaikit"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# analysis; ``ops`` is a list of span lists, one per operation


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover."""
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def root_ns(spans: list[list]) -> int:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def self_by(ops, key=layer_of) -> dict[str, int]:
    """Self time in ns summed over all ops, grouped by ``key(span name)``."""
    totals: dict[str, int] = {}
    for spans in ops:
        for span, own in zip(spans, self_ns(spans)):
            k = key(span[NAME])
            totals[k] = totals.get(k, 0) + own
    return totals


def per_op_ms(ops, names, tag: str | None = None, direct: bool = False):
    """Mean time per operation spent in spans named ``names``.

    Counts only the outermost matching span of each nesting chain, and
    only operations that made at least one matching call.  ``tag`` is a
    regular expression the span's tag must match; ``direct`` keeps only
    spans opened straight under an operation's root span.  Returns
    ``(ms, ops_counted)`` or ``None`` when nothing matched.
    """
    names = (names,) if isinstance(names, str) else tuple(names)
    pattern = re.compile(tag) if tag else None
    totals = []
    for spans in ops:
        total = 0
        matched = False
        for span in spans:
            if span[NAME] not in names:
                continue
            if pattern and not (span[TAG] and pattern.fullmatch(span[TAG])):
                continue
            parent = span[PARENT]
            if direct and (parent < 0 or spans[parent][PARENT] >= 0):
                continue
            outer = False
            while parent >= 0:
                if spans[parent][NAME] in names:
                    outer = True
                    break
                parent = spans[parent][PARENT]
            if outer:
                continue
            total += span[END] - span[START]
            matched = True
        if matched:
            totals.append(total)
    if not totals:
        return None
    return sum(totals) / len(totals) / 1e6, len(totals)


def layer_report(ops, definitions: dict) -> dict:
    """Per-layer metrics named in ``definitions`` -> ``per_op_ms`` args."""
    out = {}
    for metric, spec in definitions.items():
        found = per_op_ms(ops, *spec)
        if found is not None:
            out[metric] = {"value": found[0], "unit": "ms", "ops": found[1]}
    return out


def span_summary(ops, wall_s: float, passes: float) -> tuple[dict, dict]:
    """Report block and the common per-layer metrics of a traced run.

    ``wall_s`` is the workload wall time the spans ran in and ``passes``
    the number of passes it covers, so self times read per pass.
    """
    by_layer = self_by(ops)
    by_span = self_by(ops, key=lambda name: name)
    covered_ns = sum(root_ns(spans) for spans in ops)
    common = {f"self_s.{layer}": by_layer.get(layer, 0) / 1e9 / passes
              for layer in COMMON_LAYERS}
    common["self_s.other"] = (wall_s / passes
                              - sum(common[f"self_s.{layer}"]
                                    for layer in COMMON_LAYERS))
    report = {
        "span_coverage": covered_ns / 1e9 / wall_s,
        "spans": sum(len(spans) for spans in ops),
        "self_ms_per_pass_by_layer": {
            k: v / 1e6 / passes for k, v in sorted(by_layer.items())},
        "self_ms_per_pass_by_span": {
            k: v / 1e6 / passes
            for k, v in sorted(by_span.items(), key=lambda kv: -kv[1])},
    }
    return report, common
