"""In-memory spans and counters around linefields' layer boundaries.

The program is not modified. ``Tracer.install`` replaces, for the duration
of a ``with`` block, the module attributes through which one linefields
module calls another (``linefields.pseudo_gt.detect``,
``linefields.refine.refine_line``, ...). Every such call is resolved by
attribute lookup at call time, so the wrapper sees it. Wrappers call the
original with the same arguments and return its result untouched; the
originals are put back when the block ends, also on error.

A span's self time is its duration minus the time covered by the spans
opened inside it. Callees that run once per pair and iteration
(``apply_homography``, ``vp_from_two_lines``) get a counter only.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Self time per span name plus named counters, for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # child time of each open span
        self.missing: list[str] = []  # table entries the program lacks

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            child = self._children.pop()
            self.self_s[name] += elapsed - child
            if self._children:
                self._children[-1] += elapsed

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def timed(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(tracer, args, result)`` runs outside it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1.0
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def install(self, table=None):
        """Wrap every entry of ``table`` (default ``LAYERS``); restore on exit."""
        saved = []
        try:
            for module_name, attr, kind, name, after in table or LAYERS:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    # The program no longer has this boundary (say, a callee
                    # was inlined): its span stays empty and reports zero.
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                if kind == "span":
                    setattr(module, attr, self.timed(original, name, after))
                else:
                    setattr(module, attr, self.counted(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# ------------------------------------------------------------ counters


def _file_bytes(tracer: Tracer, args, result) -> None:
    tracer.add("io.bytes", os.path.getsize(args[0]))


def _render(tracer: Tracer, args, result) -> None:
    lines, width, height = args[0], args[1], args[2]
    tracer.add("fields.render_calls")
    tracer.add("fields.render_seg_px", len(lines) * int(width) * int(height))


def _warp_image(tracer: Tracer, args, result) -> None:
    tracer.add("pseudo_gt.warps")


def _warp_lines(tracer: Tracer, args, result) -> None:
    if len(result) == 0:
        tracer.add("pseudo_gt.empty_warps")


def _aggregate(tracer: Tracer, args, result) -> None:
    # The float64 DF and AF stacks the median reads (computed, not measured).
    pairs = args[0]
    tracer.add("pseudo_gt.aggregate_bytes", 2 * 8 * len(pairs) * pairs[0].df.data.size)


def _lsd(tracer: Tracer, args, result) -> None:
    tracer.add("detector.lsd_calls")
    tracer.add("detector.lsd_px", args[0].data.size)
    tracer.add("detector.lsd_segments", len(result))


def _filter(tracer: Tracer, args, result) -> None:
    tracer.add("detector.filter_in", len(args[0]))
    tracer.add("detector.filter_out", len(result))


def _fit_vps(tracer: Tracer, args, result) -> None:
    models, assignment = result
    tracer.add("vp.models", len(models))
    tracer.add("vp.unassigned", sum(1 for a in assignment if a is None))


def _refine_vp(tracer: Tracer, args, result) -> None:
    tracer.add("vp.refine_calls")


def _refine_line(tracer: Tracer, args, result) -> None:
    tracer.add("refine.line_calls")


def _hest(tracer: Tracer, args, result) -> None:
    tracer.add("evaluate.hest_pairs", len(args[0]))
    tracer.add("evaluate.hest_inliers", int(result[1].sum()))


# (module, attribute, kind, span or counter name, after-hook). Every
# attribute is the name a caller module looks up, not the defining one.
LAYERS = [
    *[
        ("linefields.cli", f, "span", "io.read", _file_bytes)
        for f in ("read_field_file", "read_lines", "read_pgm", "read_homography", "read_vp_file")
    ],
    *[
        ("linefields.cli", f, "span", "io.write", _file_bytes)
        for f in ("write_field_file", "write_lines", "write_vp_file")
    ],
    ("linefields.cli", "render_fields", "span", "fields.render", _render),
    ("linefields.pseudo_gt", "render_fields", "span", "fields.render", _render),
    ("linefields.detector", "surrogate_gradient", "span", "fields.surrogate", None),
    ("linefields.pseudo_gt", "warp_image", "span", "pseudo_gt.warp_image", _warp_image),
    ("linefields.pseudo_gt", "warp_lines", "span", "pseudo_gt.warp_lines", _warp_lines),
    ("linefields.pseudo_gt", "aggregate_median", "span", "pseudo_gt.aggregate", _aggregate),
    ("linefields.cli", "detect", "span", "detector.detect", None),
    ("linefields.pseudo_gt", "detect", "span", "detector.detect", None),
    ("linefields.detector", "lsd_extract", "span", "detector.lsd", _lsd),
    ("linefields.detector", "image_gradient", "span", "detector.gradient", None),
    ("linefields.detector", "filter_lines", "span", "detector.filter", _filter),
    ("linefields.cli", "fit_vps", "span", "vp.fit", _fit_vps),
    ("linefields.refine", "fit_vps", "span", "vp.fit", _fit_vps),
    ("linefields.vp", "vp_from_two_lines", "count", "vp.candidates", None),
    ("linefields.vp", "refine_vp", "span", "vp.refine", _refine_vp),
    ("linefields.refine", "refine_vp", "span", "vp.refine", _refine_vp),
    ("linefields.cli", "refine_joint", "span", "refine.joint", None),
    ("linefields.cli", "refine_line", "span", "refine.line", _refine_line),
    ("linefields.refine", "refine_line", "span", "refine.line", _refine_line),
    ("linefields.cli", "match_one_to_one", "span", "evaluate.match", None),
    ("linefields.cli", "estimate_homography", "span", "evaluate.hest", _hest),
    ("linefields.evaluate", "homography_from_lines", "count", "evaluate.hest_models", None),
    ("linefields.evaluate", "apply_homography", "count", "evaluate.inlier_tests", None),
]

CLI_SPANS = ["gen_fields", "gen_gt", "detect", "refine", "vps", "eval"]

# Per-layer metrics: name -> unit. Times are self seconds; all values are
# per traced scene.
PER_LAYER = {
    **{f"cli.{c}_s": "s" for c in CLI_SPANS},
    "io.read_s": "s",
    "io.write_s": "s",
    "io.bytes": "B",
    "fields.render_s": "s",
    "fields.render_calls": "count",
    "fields.render_seg_px": "px",
    "fields.surrogate_s": "s",
    "pseudo_gt.warp_image_s": "s",
    "pseudo_gt.warp_lines_s": "s",
    "pseudo_gt.aggregate_s": "s",
    "pseudo_gt.aggregate_bytes": "B",
    "pseudo_gt.warps": "count",
    "pseudo_gt.empty_warps": "count",
    "detector.detect_s": "s",
    "detector.lsd_s": "s",
    "detector.lsd_calls": "count",
    "detector.lsd_px": "px",
    "detector.lsd_segments": "count",
    "detector.gradient_s": "s",
    "detector.filter_s": "s",
    "detector.filter_in": "count",
    "detector.filter_kept": "ratio",
    "vp.fit_s": "s",
    "vp.candidates": "count",
    "vp.models": "count",
    "vp.unassigned": "count",
    "vp.refine_s": "s",
    "vp.refine_calls": "count",
    "refine.joint_s": "s",
    "refine.line_s": "s",
    "refine.line_calls": "count",
    "evaluate.match_s": "s",
    "evaluate.hest_s": "s",
    "evaluate.hest_models": "count",
    "evaluate.hest_inlier_frac": "ratio",
    "evaluate.inlier_tests": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scenes: int) -> dict[str, float]:
    """Per-scene means of every per-layer metric; layers never entered give 0."""
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            values[name] = _ratio(tracer.self_s.get(name[:-2], 0.0), scenes)
        else:
            values[name] = _ratio(tracer.counts.get(name, 0.0), scenes)
    c = tracer.counts
    values["detector.filter_kept"] = _ratio(c.get("detector.filter_out", 0.0), c.get("detector.filter_in", 0.0))
    values["evaluate.hest_inlier_frac"] = _ratio(
        c.get("evaluate.hest_inliers", 0.0), c.get("evaluate.hest_pairs", 0.0)
    )
    return values
