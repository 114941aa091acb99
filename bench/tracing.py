"""Per-layer tracing by wrapping the module attributes the layers call through.

Nothing under ``src/`` is edited: each hook replaces ``module.attr`` with a
wrapper for the duration of a traced pass, so calls made through that
attribute (from ``cli`` or from inside ``rankmin`` and ``completion``) are
timed and counted.  Self time is a call's duration minus the time of the
traced calls nested inside it.  A hook whose module or attribute no longer
exists is reported as absent and contributes zero.
"""

from __future__ import annotations

import importlib
import time

HOOKS = (
    "cli.main",
    "gf2.parse_matrix",
    "gf2.rank",
    "gf2.render_matrix",
    "rankmin.min_rank_decide",
    "rankmin.min_rank_approx",
    "rankmin.min_rank_exact",
    "rankmin.complete_nondegenerate",
    "rankmin.rank_rows",
    "completion.det_rows",
    "hieroglyph.parse_hieroglyph",
    "hieroglyph.overlap_matrix",
    "hieroglyph.canonical_form",
)

# per_layer metric -> (unit, better)
LAYER_METRICS = {
    "completion.calls": ("count", "lower"),
    "completion.self_s": ("s", "lower"),
    "completion.minors": ("count", "lower"),
    "rankmin.eliminations": ("count", "lower"),
    "rankmin.elim_s": ("s", "lower"),
    "rankmin.search_self_s": ("s", "lower"),
    "rankmin.decide_calls": ("count", "lower"),
    "rankmin.useful_ratio": ("ratio", "higher"),
    "rankmin.approx_self_s": ("s", "lower"),
    "hieroglyph.parse_s": ("s", "lower"),
    "hieroglyph.overlap_s": ("s", "lower"),
    "hieroglyph.canon_s": ("s", "lower"),
    "gf2.parse_s": ("s", "lower"),
    "gf2.render_s": ("s", "lower"),
    "gf2.witness_rank_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "generate.gen_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

COUNT_METRICS = tuple(name for name, (unit, _) in LAYER_METRICS.items() if unit == "count")


class Tracer:
    """Install with ``with Tracer() as t:``; read ``calls``/``self_s`` after."""

    def __init__(self):
        self.calls = {h: 0 for h in HOOKS}
        self.self_s = {h: 0.0 for h in HOOKS}
        self.yes_decisions = 0
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open call
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, hook: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        is_decide = hook == "rankmin.min_rank_decide"

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[hook] += 1
                self_s[hook] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if is_decide and getattr(result, "witness", None) is not None:
                self.yes_decisions += 1
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for hook in HOOKS:
            module_name, attr = hook.split(".")
            try:
                module = importlib.import_module(f"diagrank.{module_name}")
            except ImportError:
                self.absent.append(hook)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(hook)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(hook, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def layers(self) -> dict[str, float]:
        """Per-layer totals of this pass (generate and overhead set by the caller)."""
        c, s = self.calls, self.self_s
        elims = c["rankmin.rank_rows"]
        return {
            "completion.calls": c["rankmin.complete_nondegenerate"],
            "completion.self_s": s["rankmin.complete_nondegenerate"] + s["completion.det_rows"],
            "completion.minors": c["completion.det_rows"],
            "rankmin.eliminations": elims,
            "rankmin.elim_s": s["rankmin.rank_rows"],
            "rankmin.search_self_s": s["rankmin.min_rank_decide"] + s["rankmin.min_rank_exact"],
            "rankmin.decide_calls": c["rankmin.min_rank_decide"],
            "rankmin.useful_ratio": self.yes_decisions / elims if elims else 0.0,
            "rankmin.approx_self_s": s["rankmin.min_rank_approx"],
            "hieroglyph.parse_s": s["hieroglyph.parse_hieroglyph"],
            "hieroglyph.overlap_s": s["hieroglyph.overlap_matrix"],
            "hieroglyph.canon_s": s["hieroglyph.canonical_form"],
            "gf2.parse_s": s["gf2.parse_matrix"],
            "gf2.render_s": s["gf2.render_matrix"],
            "gf2.witness_rank_s": s["gf2.rank"],
            "cli.self_s": s["cli.main"],
        }
