"""Spans around the public functions of each plsphere layer.

``Tracer.install`` wraps each function in ``TARGETS`` where it is defined
and in every plsphere module that imported it by name, and wraps methods on
their class.  A span is ``[name, start, end, parent, op, counts]``: ``parent``
is the index of the enclosing span (-1 at top level), ``op`` the id of the
benchmark op that caused it, and ``counts`` the work counters read from the
call's return value.  Spans stay in memory until ``write``.

``pass_metrics`` reduces the spans of one pass to the per-layer metrics
named in ``PER_LAYER``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _morse_counts(res) -> dict:
    from plsphere.morse import is_collapsible_witness, is_spherical

    perfect = is_spherical(res.vector) or is_collapsible_witness(res.vector)
    return {
        "runs": 1,
        "collapses": len(res.matching),
        "critical_cells": sum(res.vector),
        "perfect": int(perfect),
    }


def _tietze_counts(res) -> dict:
    return {"tietze_ops": res[1].operations}


#: (layer, module, attribute or Class.method, counters from the return value)
TARGETS = [
    ("complex_core", "plsphere.complex_core", "SimplicialComplex.link", None),
    ("complex_core", "plsphere.complex_core", "SimplicialComplex.faces_by_dim", None),
    ("complex_core", "plsphere.complex_core", "SimplicialComplex.from_facets", None),
    ("complex_core", "plsphere.complex_core", "SimplicialComplex.barycentric_subdivision", None),
    ("complex_core", "plsphere.complex_core", "build_hasse", lambda H: {"hasse_nodes": H.n_nodes()}),
    ("io", "plsphere.io", "read_complex", lambda K: {"facets_read": len(K.facets)}),
    ("morse", "plsphere.morse", "random_discrete_morse", _morse_counts),
    ("morse", "plsphere.morse", "morse_spectrum", None),
    ("homology", "plsphere.homology", "homology", None),
    ("homology", "plsphere.homology", "boundary_matrix", lambda M: {"boundary_nnz": M.nnz()}),
    ("homology", "plsphere.homology", "smith_normal_form", None),
    ("homology", "plsphere.homology", "rank_mod_p", None),
    (
        "pi1",
        "plsphere.pi1",
        "pi1_presentation",
        lambda P: {"generators": P.generators, "relators": len(P.relators)},
    ),
    ("pi1", "plsphere.pi1", "tietze_simplify", _tietze_counts),
    ("pi1", "plsphere.pi1", "triviality_verdict", lambda v: {"exhausted": int(v.trace.budget_exhausted)}),
    (
        "flips",
        "plsphere.flips",
        "bistellar_simplify",
        lambda r: {"rounds": r.rounds, "reached": int(r.reached_simplex_boundary)},
    ),
    ("flips", "plsphere.flips", "FlipState.random_move", None),
    ("generators", "plsphere.generators", "perturbed_sphere", None),
    ("generators", "plsphere.generators", "suspension", None),
    ("generators", "plsphere.generators", "simplex", None),
    ("generators", "plsphere.generators", "boundary_of_simplex", None),
    ("generators", "plsphere.generators", "rp2_6", None),
    ("recognizer", "plsphere.recognizer", "recognize", None),
    ("recognizer", "plsphere.recognizer", "precheck", None),
    (
        "recognizer",
        "plsphere.recognizer",
        "is_combinatorial_manifold",
        lambda r: {"links_checked": r.links_checked, "link_cache_hits": r.cache_hits},
    ),
    ("recognizer", "plsphere.recognizer", "recognize_small_dim", None),
    ("recognizer", "plsphere.recognizer", "recognize_sphere", None),
]

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: op labels that get their own ``recognizer.recognize_s.<label>`` metric
RECOGNIZE_INPUTS = ("sd1_bd5", "susp_sd1_bd4", "perturbed", "susp_rp2")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                span[5] = counts(result)
            return result

        return traced

    def install(self) -> None:
        for layer, modname, attr, counts in TARGETS:
            name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counts))
                else:
                    new = self._wrap(name, raw, counts)
                self._set(cls, meth, new)
                continue
            orig = getattr(module, attr)
            new = self._wrap(name, orig, counts)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "plsphere":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, new)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is orig:
                                self._undo.append((value.__setitem__, k, v))
                                value[k] = new

    def _set(self, owner, key, value) -> None:
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            restore, key, value = self._undo.pop()
            restore(key, value)

    def write(self, path: str, op_labels: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "ops": op_labels, "spans": self.spans}, fh)


def _metric_names() -> list[tuple[str, str]]:
    names = [
        ("complex_core.link_s", "s"),
        ("complex_core.link_calls", "count"),
        ("complex_core.faces_by_dim_s", "s"),
        ("complex_core.from_facets_s", "s"),
        ("complex_core.build_hasse_s", "s"),
        ("complex_core.hasse_nodes", "count"),
        ("complex_core.subdivision_s", "s"),
        ("io.read_complex_s", "s"),
        ("io.facets_read", "count"),
        ("morse.spectrum_s", "s"),
        ("morse.runs", "count"),
        ("morse.ms_per_run", "ms"),
        ("morse.runs_per_s", "runs/s"),
        ("morse.collapses", "count"),
        ("morse.critical_cells", "count"),
        ("morse.perfect_ratio", "ratio"),
        ("homology.homology_s", "s"),
        ("homology.boundary_matrix_s", "s"),
        ("homology.boundary_nnz", "count"),
        ("homology.snf_s", "s"),
        ("homology.snf_calls", "count"),
        ("homology.rank_mod_p_s", "s"),
        ("pi1.presentation_s", "s"),
        ("pi1.generators", "count"),
        ("pi1.relators", "count"),
        ("pi1.tietze_s", "s"),
        ("pi1.tietze_ops", "count"),
        ("pi1.budget_exhausted_ratio", "ratio"),
        ("flips.simplify_s", "s"),
        ("flips.rounds", "count"),
        ("flips.us_per_round", "us"),
        ("flips.reached_ratio", "ratio"),
        ("flips.random_move_calls", "count"),
        ("flips.random_move_us", "us"),
        ("generators.perturbed_sphere_s", "s"),
        ("recognizer.recognize_s", "s"),
        *((f"recognizer.recognize_s.{label}", "s") for label in RECOGNIZE_INPUTS),
        ("recognizer.precheck_s", "s"),
        ("recognizer.manifold_check_s", "s"),
        ("recognizer.small_dim_s", "s"),
        ("recognizer.recognize_sphere_s", "s"),
        ("recognizer.links_checked", "count"),
        ("recognizer.link_cache_hits", "count"),
    ]
    for layer in LAYERS:
        names += [(f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s")]
    names += [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return names


#: every per-layer metric with its unit, in report order
PER_LAYER = _metric_names()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def pass_metrics(spans: list[list], first: int, op_labels: list[str]) -> dict:
    """Per-layer metrics of one pass, from the spans ``spans[first:]``.

    A function's time counts only its outermost calls, so recursion is not
    counted twice; a layer is busy while any of its spans is open; a span's
    self time is its duration minus the durations of its direct children.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    per_op: dict[int, float] = {}
    # per span: the names and layers open around it (parents come first)
    open_names: dict[int, frozenset] = {-1: frozenset()}
    open_layers: dict[int, frozenset] = {-1: frozenset()}
    for i in range(first, len(spans)):
        name, start, end, parent, op, cnt = spans[i]
        layer = name.partition(".")[0]
        dur = end - start
        outer = open_names.get(parent, frozenset())
        layers = open_layers.get(parent, frozenset())
        open_names[i] = outer | {name}
        open_layers[i] = layers | {layer}
        calls[name] = calls.get(name, 0) + 1
        if name not in outer:
            total[name] = total.get(name, 0.0) + dur
            if name == "recognizer.recognize":
                per_op[op] = per_op.get(op, 0.0) + dur
        if layer not in layers:
            busy[layer] += dur
        self_s[layer] += dur
        if parent >= first:
            self_s[spans[parent][0].partition(".")[0]] -= dur
        if cnt:
            for k, v in cnt.items():
                counts[k] = counts.get(k, 0) + v

    def t(name):
        return total.get(name, 0.0)

    runs = counts.get("runs", 0)
    morse_s = t("morse.random_discrete_morse")
    verdicts = calls.get("pi1.triviality_verdict", 0)
    simplifies = calls.get("flips.bistellar_simplify", 0)
    moves = calls.get("flips.random_move", 0)
    m = {
        "complex_core.link_s": t("complex_core.link"),
        "complex_core.link_calls": calls.get("complex_core.link", 0),
        "complex_core.faces_by_dim_s": t("complex_core.faces_by_dim"),
        "complex_core.from_facets_s": t("complex_core.from_facets"),
        "complex_core.build_hasse_s": t("complex_core.build_hasse"),
        "complex_core.hasse_nodes": counts.get("hasse_nodes", 0),
        "complex_core.subdivision_s": t("complex_core.barycentric_subdivision"),
        "io.read_complex_s": t("io.read_complex"),
        "io.facets_read": counts.get("facets_read", 0),
        "morse.spectrum_s": t("morse.morse_spectrum"),
        "morse.runs": runs,
        "morse.ms_per_run": _ratio(morse_s, runs, 1e3),
        "morse.runs_per_s": _ratio(runs, morse_s),
        "morse.collapses": counts.get("collapses", 0),
        "morse.critical_cells": counts.get("critical_cells", 0),
        "morse.perfect_ratio": _ratio(counts.get("perfect", 0), runs),
        "homology.homology_s": t("homology.homology"),
        "homology.boundary_matrix_s": t("homology.boundary_matrix"),
        "homology.boundary_nnz": counts.get("boundary_nnz", 0),
        "homology.snf_s": t("homology.smith_normal_form"),
        "homology.snf_calls": calls.get("homology.smith_normal_form", 0),
        "homology.rank_mod_p_s": t("homology.rank_mod_p"),
        "pi1.presentation_s": t("pi1.pi1_presentation"),
        "pi1.generators": counts.get("generators", 0),
        "pi1.relators": counts.get("relators", 0),
        "pi1.tietze_s": t("pi1.tietze_simplify"),
        "pi1.tietze_ops": counts.get("tietze_ops", 0),
        "pi1.budget_exhausted_ratio": _ratio(counts.get("exhausted", 0), verdicts),
        "flips.simplify_s": t("flips.bistellar_simplify"),
        "flips.rounds": counts.get("rounds", 0),
        "flips.us_per_round": _ratio(t("flips.bistellar_simplify"), counts.get("rounds", 0), 1e6),
        "flips.reached_ratio": _ratio(counts.get("reached", 0), simplifies),
        "flips.random_move_calls": moves,
        "flips.random_move_us": _ratio(t("flips.random_move"), moves, 1e6),
        "generators.perturbed_sphere_s": t("generators.perturbed_sphere"),
        "recognizer.recognize_s": t("recognizer.recognize"),
        "recognizer.precheck_s": t("recognizer.precheck"),
        "recognizer.manifold_check_s": t("recognizer.is_combinatorial_manifold"),
        "recognizer.small_dim_s": t("recognizer.recognize_small_dim"),
        "recognizer.recognize_sphere_s": t("recognizer.recognize_sphere"),
        "recognizer.links_checked": counts.get("links_checked", 0),
        "recognizer.link_cache_hits": counts.get("link_cache_hits", 0),
        "trace.spans": len(spans) - first,
    }
    for label in RECOGNIZE_INPUTS:
        m[f"recognizer.recognize_s.{label}"] = sum(
            s for op, s in per_op.items() if 0 <= op < len(op_labels) and op_labels[op] == label
        )
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    return m
