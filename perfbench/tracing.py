"""In-memory span tracing around the public functions of each qwalk module.

The library itself carries no instrumentation: `instrument` swaps each
traced public function for a wrapper in every qwalk module namespace that
binds it (the defining module, the package, and the modules that imported it
by name), and the returned callable puts the originals back. A span records
name, layer, start and end (perf_counter_ns), parent span and item id. Work
counts are computed from the call arguments and results, never measured, so
they repeat exactly for identical inputs.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

from qwalk import asymptotics, closed_form, evolution, harness, qfield
from qwalk.core import WalkKind

# complex128 amplitude pair per site
_BYTES_PER_SITE = 32


class Tracer:
    """Spans and computed counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        # [id, name, layer, start_ns, end_ns, parent_id, item_id, tag]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.item = None

    def open(self, name: str, layer: str, tag=None) -> list:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, name, layer, perf_counter_ns(), 0, parent, self.item, tag]
        self.spans.append(span)
        self._stack.append(sid)
        return span

    def close(self, span: list) -> None:
        span[4] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != span[0]:
            raise RuntimeError("span stack out of order")

    def layer_of_parent(self, span: list):
        parent = span[5]
        return None if parent is None else self.spans[parent][2]

    def write(self, path) -> None:
        """All spans as JSON lines, written once at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _window(kind, t: int) -> int:
    """Sites in the support window at time t (both walks, both routes)."""
    return t + 1 if WalkKind(kind) is WalkKind.HALF_LINE else 2 * t + 2


def _precision(args, kwargs) -> str:
    """Backend of a closed-form call; the library defaults to double-double."""
    for a in (*args, *kwargs.values()):
        if isinstance(a, closed_form.ExactParams):
            return closed_form.Precision(a.precision).value
    return closed_form.Precision.DOUBLE_DOUBLE.value


def _branch_terms(t: int, half_line: bool) -> int:
    """Single-sum terms j = 1..m summed over the branches of one table."""
    if not half_line:
        return sum(range(1, t // 2 + 1))
    if t % 2 == 0:
        return sum(range(1, t // 2)) + t // 2
    return sum(range(1, (t - 1) // 2 + 1))


# --- count hooks: (tracer, args, kwargs, result) -> None -------------------

def _on_evolve(tr, args, kwargs, result):
    kind, _, steps = args
    for t in range(steps):
        tr.counts["evolution.site_steps"] += _window(kind, t)
        tr.counts["evolution.bytes_computed"] += _BYTES_PER_SITE * (
            _window(kind, t) + _window(kind, t + 1))


def _on_iter_step(tr, args, t):
    if t > 0:
        kind = args[0]
        tr.counts["evolution.site_steps"] += _window(kind, t - 1)
        tr.counts["evolution.bytes_computed"] += _BYTES_PER_SITE * (
            _window(kind, t - 1) + _window(kind, t))


def _on_oracle_step(tr, args, t):
    if t > 0:
        tr.counts["qfield.steps"] += 1
        tr.counts["qfield.site_steps"] += _window(args[0], t - 1)


def _on_cf_values(half_line: bool):
    def hook(tr, args, kwargs, result):
        prec = _precision(args, kwargs)
        tr.counts[f"closed_form.terms.{prec}"] += _branch_terms(args[1], half_line)
    return hook


def _on_ks(tr, args, kwargs, result):
    tr.counts["asymptotics.ks_calls"] += 1


def _on_cdf_grid(tr, args, kwargs, result):
    tr.counts["asymptotics.cdf_points"] += len(result)


def _on_run_checks(tr, args, kwargs, result):
    tr.counts[f"harness.checks.{args[0]}"] += len(result.checks)


def _on_render(fmt: str):
    def hook(tr, args, kwargs, result):
        tr.counts[f"harness.render_{fmt}_bytes"] += len(result.encode("utf-8"))
    return hook


# (defining module, public name, layer, count hook, generator step hook)
_TARGETS = (
    (evolution, "evolve", "evolution", _on_evolve, None),
    (evolution, "iter_states", "evolution", None, _on_iter_step),
    (evolution, "distribution", "evolution", None, None),
    (closed_form, "line_exact", "closed_form", None, None),
    (closed_form, "line_exact_values", "closed_form", _on_cf_values(False), None),
    (closed_form, "half_line_exact_total", "closed_form", None, None),
    (closed_form, "half_line_exact_by_inner", "closed_form", None, None),
    (closed_form, "half_line_exact_values", "closed_form", _on_cf_values(True), None),
    (qfield, "q2_oracle_series", "qfield", None, _on_oracle_step),
    (asymptotics, "ks_distance", "asymptotics", _on_ks, None),
    (asymptotics, "cdf_grid", "asymptotics", _on_cdf_grid, None),
    (asymptotics, "cdf_at", "asymptotics", None, None),
    (asymptotics, "total_mass", "asymptotics", None, None),
    (harness, "run_checks", "harness", _on_run_checks, None),
    (harness, "emit", "harness", None, None),
    (harness, "render_csv", "harness", _on_render("csv"), None),
    (harness, "render_json", "harness", _on_render("json"), None),
    (harness, "read_table_json", "harness", None, None),
    (harness, "table_from_distribution", "harness", None, None),
)


def _tag(layer, name, args, kwargs):
    if layer == "closed_form":
        return _precision(args, kwargs)
    if name == "run_checks":
        return args[0]
    return None


def _wrap_call(tr: Tracer, fn, name, layer, hook):
    def wrapper(*args, **kwargs):
        span = tr.open(name, layer, _tag(layer, name, args, kwargs))
        # a closed-form call made by the caller, not by closed_form itself
        outer_cf = layer == "closed_form" and tr.layer_of_parent(span) != layer
        if outer_cf:
            tr.counts[f"closed_form.calls.{span[7]}"] += 1
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if outer_cf:
                tr.counts["closed_form.raised"] += 1
            raise
        finally:
            tr.close(span)
        if hook is not None:
            hook(tr, args, kwargs, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_gen(tr: Tracer, fn, name, layer, step_hook):
    # one span per next(): the consumer's work between steps is not ours
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            span = tr.open(name, layer)
            try:
                out = next(gen)
            except StopIteration:
                return
            finally:
                tr.close(span)
            step_hook(tr, args, out[0] if isinstance(out, tuple) else out.t)
            yield out
    wrapper.__wrapped__ = fn
    return wrapper


def instrument(tr: Tracer):
    """Route every traced public qwalk function through `tr`; returns undo."""
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "qwalk" or n.startswith("qwalk."))]
    undo = []
    for home, name, layer, hook, step_hook in _TARGETS:
        orig = getattr(home, name)
        if step_hook is not None:
            wrapped = _wrap_gen(tr, orig, name, layer, step_hook)
        else:
            wrapped = _wrap_call(tr, orig, name, layer, hook)
        for mod in modules:
            if getattr(mod, name, None) is orig:
                setattr(mod, name, wrapped)
                undo.append((mod, name, orig))

    def restore() -> None:
        for mod, name, orig in reversed(undo):
            setattr(mod, name, orig)
    return restore


def layer_times(tr: Tracer, first: int, last: int) -> dict:
    """Busy and self seconds per layer over spans[first:last].

    Busy time sums a layer's outermost spans (those whose parent belongs to
    another layer); self time is each span's duration minus the part its
    direct children cover.
    """
    spans = tr.spans[first:last]
    child_ns: dict = defaultdict(int)
    for s in spans:
        if s[5] is not None:
            child_ns[s[5]] += s[4] - s[3]
    out: dict = defaultdict(float)
    for s in spans:
        dur = s[4] - s[3]
        layer = s[2]
        out[f"{layer}.self_s"] += (dur - child_ns[s[0]]) * 1e-9
        outer = tr.layer_of_parent(s) != layer
        if outer:
            out[f"{layer}.busy_s"] += dur * 1e-9
            if layer == "closed_form":
                out[f"closed_form.busy_s.{s[7]}"] += dur * 1e-9
            if s[1] == "run_checks":
                out[f"harness.suite_s.{s[7]}"] += dur * 1e-9
        if s[1] in ("distribution", "ks_distance", "cdf_grid", "read_table_json",
                    "render_csv", "render_json"):
            out[f"{layer}.{s[1]}_s"] += dur * 1e-9
    return out
