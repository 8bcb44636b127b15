"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the functions listed in ``WRAPPED`` with
timing wrappers everywhere the package can reach them: in the module
that defines each one, in every module that imported it by name, and in
the ``INVARIANTS`` registry.  ``GaussCode.positions`` is patched on the
class.  ``uninstall`` puts the originals back.

Each wrapper is a span.  Spans are aggregated in memory per layer rather
than kept one by one, because ``positions`` alone runs millions of
times in a pass; only the per-knot spans the growth fits need are kept.
A layer's calls and total time count its outermost spans only, so a
layer member called from another member of the same layer is not
counted twice.  A layer's self time is its span time minus the time
covered by child spans.
"""

from __future__ import annotations

import functools
import math
import statistics
from time import perf_counter

# (module, attribute, layer).  cli.main is the only cli function wrapped:
# its self time is then argparse, probe set-up, formatting and the
# consistency rule, with every library call below it taken out.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("codes", "parse_gauss_code", "codes.parse"),
    ("codes", "parse_singular_code", "codes.parse"),
    ("codes", "parse_knot_table", "codes.parse"),
    ("codes", "load_knot_table", "codes.parse"),
    ("codes", "bundled_knot_table", "codes.parse"),
    ("codes", "GaussCode.positions", "codes.positions"),
    ("codes", "random_perturbations", "codes.perturb"),
    ("codes", "list_r2_insertions", "codes.perturb"),
    ("codes", "apply_r1", "codes.perturb"),
    ("codes", "apply_r2", "codes.perturb"),
    ("codes", "rotate_basepoint", "codes.perturb"),
    ("codes", "is_realizable", "codes.is_realizable"),
    ("codes", "embedding_genus", "codes.is_realizable"),
    ("coordinates", "delta", "coordinates"),
    ("coordinates", "epsilon", "coordinates"),
    ("diagrams", "arrow_diagram_from_code", "diagrams.arrow_diagram"),
    ("diagrams", "chord_subdiagram", "diagrams.chord_subdiagram"),
    ("diagrams", "count_matches", "diagrams.count_matches"),
    ("invariants", "v2_lannes", "invariants.v2_lannes"),
    ("invariants", "v3_lannes", "invariants.v3_lannes"),
    ("invariants", "v2_polyak_viro", "invariants.v2_pv"),
    ("invariants", "v3_polyak_viro", "invariants.v3_pv"),
    ("invariants", "v3_theorem", "invariants.v3_thm"),
    ("invariants", "invariant_report", "invariants.report"),
    ("weights", "w3", "weights.w3"),
    ("weights", "realize_chord_diagram", "weights.realize"),
    ("weights", "resolve_singular", "weights.resolve"),
    ("weights", "enumerate_chord_diagrams", "weights.enumerate"),
    ("weights", "check_relations", "weights.check_relations"),
    ("weights", "weight_from_invariant", "weights.weight_from_invariant"),
    ("expansion", "check_expansion", "expansion.check"),
    ("expansion", "solve_basis_values", "expansion.solve"),
)

PATTERN_METHODS = ("invariants.v2_pv", "invariants.v3_pv", "invariants.v3_thm")


class Layer:
    __slots__ = ("calls", "total", "own", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.depth = 0


class Tracer:
    """Wraps the package's functions and aggregates their spans."""

    def __init__(self):
        self.layers = {name: Layer() for _, _, name in WRAPPED}
        self._stack: list[list] = []  # [child seconds, layer] per open span
        self._patches: list[tuple[object, str, object]] = []
        self._registry = None
        self.reset()

    def reset(self) -> None:
        for layer in self.layers.values():
            layer.calls, layer.total, layer.own = 0, 0.0, 0.0
        self.w3_nonzero = 0
        self.realize_crossings = 0
        self.resolved_codes = 0
        self.induced_eval = 0.0
        self.v3_lannes_spans: list[tuple[int, float]] = []
        # id(code) -> [code, crossings, seconds]: one entry per code object
        # evaluated, so equal codes evaluated apart stay apart; holding the
        # code keeps its id from being reused within a pass
        self.knot_matches: dict = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: Layer, enter=None, leave=None):
        stack = self._stack

        def traced(*args, **kwargs):
            token = enter(args) if enter else None
            layer.depth += 1
            frame = [0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                layer.depth -= 1
                layer.own += elapsed - frame[0]
                if not layer.depth:
                    layer.calls += 1
                    layer.total += elapsed
            if leave:
                leave(args, result, elapsed, token)
            return result

        return functools.wraps(fn)(traced)

    def _hooks(self, layer_name: str, modules):
        """Extra bookkeeping a few layers need, as (enter, leave)."""
        if layer_name == "weights.w3":
            def leave(args, result, elapsed, token):
                if result:
                    self.w3_nonzero += 1
            return None, leave
        if layer_name == "weights.realize":
            passage = modules["codes"].Passage

            def leave(args, result, elapsed, token):
                ordinary = sum(isinstance(p, passage) for p in result.passages)
                self.realize_crossings += ordinary // 2
            return None, leave
        if layer_name == "weights.resolve":
            def leave(args, result, elapsed, token):
                self.resolved_codes += len(result)
            return None, leave
        if not layer_name.startswith("invariants.") or layer_name == "invariants.report":
            return None, None
        induced_parent = self.layers["weights.weight_from_invariant"]
        matches = self.layers["diagrams.count_matches"]

        def enter(args):
            return matches.total

        def leave(args, result, elapsed, token):
            stack = self._stack
            if stack and stack[-1][1] is induced_parent:
                self.induced_eval += elapsed
            code = args[0]
            crossings = len(code.passages) // 2
            if layer_name == "invariants.v3_lannes":
                self.v3_lannes_spans.append((crossings, elapsed))
            elif layer_name in PATTERN_METHODS:
                entry = self.knot_matches.setdefault(id(code), [code, crossings, 0.0])
                entry[2] += matches.total - token

        return enter, leave

    def install(self, modules: dict) -> None:
        """Patch every binding of every wrapped function.

        ``modules`` maps short names ("codes", ...) to the imported
        package modules; the package itself is under "".
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped_for = {}  # id(original) -> wrapper; self._patches keeps originals alive
        for mod_name, attr, layer_name in WRAPPED:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            enter, leave = self._hooks(layer_name, modules)
            wrapped = self._wrap(fn, self.layers[layer_name], enter, leave)
            wrapped_for[id(fn)] = wrapped
            self._patch(owner, attr, wrapped)
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in wrapped_for:
                    self._patch(module, name, wrapped_for[id(value)])
        registry = modules["invariants"].INVARIANTS
        self._registry = (registry, dict(registry))
        for name, (degree, fn) in list(registry.items()):
            if id(fn) in wrapped_for:
                registry[name] = (degree, wrapped_for[id(fn)])
        leftovers = [
            where for where, value in _bindings(modules) if id(value) in wrapped_for
        ]
        if leftovers:
            self.uninstall()
            raise RuntimeError(f"bindings the tracer does not patch: {leftovers}")

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        if self._registry is not None:
            registry, saved = self._registry
            registry.clear()
            registry.update(saved)
            self._registry = None

    # -- results ----------------------------------------------------------

    def reached(self) -> set[str]:
        """Layers that recorded at least one span."""
        return {name for name, layer in self.layers.items() if layer.calls}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        L = self.layers
        w3_calls = L["weights.w3"].calls
        return {
            "cli.main_self_s": L["cli.main"].own,
            "codes.parse_s": L["codes.parse"].total,
            "codes.positions_calls": L["codes.positions"].calls,
            "codes.positions_s": L["codes.positions"].total,
            "codes.perturb_s": L["codes.perturb"].total,
            "codes.is_realizable_calls": L["codes.is_realizable"].calls,
            "codes.is_realizable_s": L["codes.is_realizable"].total,
            "coordinates.calls": L["coordinates"].calls,
            "coordinates.s": L["coordinates"].total,
            "diagrams.arrow_diagram_calls": L["diagrams.arrow_diagram"].calls,
            "diagrams.arrow_diagram_s": L["diagrams.arrow_diagram"].total,
            "diagrams.chord_subdiagram_calls": L["diagrams.chord_subdiagram"].calls,
            "diagrams.chord_subdiagram_s": L["diagrams.chord_subdiagram"].total,
            "diagrams.count_matches_calls": L["diagrams.count_matches"].calls,
            "diagrams.count_matches_s": L["diagrams.count_matches"].total,
            "diagrams.count_matches_growth": growth_exponent(
                (n, t) for _, n, t in self.knot_matches.values()
            ),
            "invariants.v2_lannes_s": L["invariants.v2_lannes"].total,
            "invariants.v3_lannes_s": L["invariants.v3_lannes"].total,
            "invariants.v2_pv_s": L["invariants.v2_pv"].total,
            "invariants.v3_pv_s": L["invariants.v3_pv"].total,
            "invariants.v3_thm_s": L["invariants.v3_thm"].total,
            "invariants.report_s": L["invariants.report"].total,
            "invariants.v3_lannes_growth": growth_exponent(self.v3_lannes_spans),
            "weights.w3_calls": w3_calls,
            "weights.w3_nonzero_ratio": self.w3_nonzero / w3_calls if w3_calls else 0.0,
            "weights.realize_s": L["weights.realize"].total,
            "weights.realize_crossings": self.realize_crossings,
            "weights.induced_eval_s": self.induced_eval,
            "weights.resolve_s": L["weights.resolve"].total,
            "weights.resolved_codes": self.resolved_codes,
            "weights.enumerate_s": L["weights.enumerate"].total,
            "weights.check_relations_s": L["weights.check_relations"].total,
            "expansion.check_s": L["expansion.check"].total,
            "expansion.solve_s": L["expansion.solve"].total,
        }


def _bindings(modules: dict):
    """(where, value) for every module global of the package, and for the
    values held in module-level dicts, lists and tuples two levels down,
    so that a registry holding a wrapped function is found."""
    def walk(where, value, depth):
        yield where, value
        if depth == 0:
            return
        if isinstance(value, dict):
            items = ((f"{where}[{k!r}]", v) for k, v in value.items())
        elif isinstance(value, (list, tuple)):
            items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
        else:
            return
        for inner_where, inner in items:
            yield from walk(inner_where, inner, depth - 1)

    for mod_name, module in modules.items():
        for name, value in vars(module).items():
            if not name.startswith("__"):
                yield from walk(f"{mod_name or 'vassiliev'}.{name}", value, 2)


def growth_exponent(points) -> float:
    """Least-squares slope of log(seconds) against log(crossings).

    Knots with no crossings are left out.  Returns 0.0 when fewer than
    two distinct crossing counts remain, meaning there is nothing to fit.
    """
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
