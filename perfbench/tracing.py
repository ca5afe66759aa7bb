"""Spans around the calls into tlbraid's modules, recorded from outside.

`install` replaces each traced function with a wrapper under every name a
tlbraid module looks it up by (the defining module, the modules that
imported it, the package root), so the program itself is not edited.  A span
is (name, start, end, parent span, op id, work); spans stay in memory and are
written out when the run ends.  `per_layer` turns them into the metrics that
BENCHMARK.json lists under "per_layer".
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

#: Functions wrapped in spans, by defining module.  The span name's prefix is
#: the layer: the module name without its leading underscore.
SPANNED = {
    "cli": ("main", "_state_text"),
    "linalg": ("state_to_json", "state_from_json", "max_abs", "kron_all",
               "apply_single_qubit"),
    "verify": ("run_tla_suite", "run_braid_suite"),
    "tla": ("check_tl_relations", "tl_projectors", "tl_params"),
    "braidrep": ("jones_representation", "bell_representation"),
    "braidlang": ("evaluate_on_state", "evaluate"),
    "states": ("apply_structured", "structured_braid_op", "ghz_state",
               "cluster_like_state"),
    "_kernels": ("gather_pass", "phase_vector"),
    "entangle": ("entanglement_report", "reduced_density", "vn_entropy",
                 "schmidt_rank", "measure_qubit"),
}
#: Methods only counted: they run hundreds of thousands of times per pass.
COUNTED = (("reports", "ReportAccumulator", "add"),
           ("reports", "ReportAccumulator", "add_point"))
#: Work recorded with a span, from the call's arguments.
WORK = {
    # amplitudes touched: the state's length
    "states.apply_structured": lambda args: args[1].size,
    # computed bytes: read v and phases, write a result the size of v
    "kernels.gather_pass": lambda args: 2 * args[0].nbytes + args[1].nbytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op,
                              work(args) if work else 0)

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: Path, op_labels) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "op", "work"],
            "ops": list(op_labels),
            "spans": [[self.names[s[0]], *s[1:]] for s in self.spans],
            "counts": dict(self.counts),
        }))


def install(tracer: Tracer) -> None:
    """Wrap every traced function under every name tlbraid binds it to."""
    import tlbraid  # noqa: F401  (imports every submodule)

    replace = {}
    for module, attrs in SPANNED.items():
        mod = importlib.import_module(f"tlbraid.{module}")
        for attr in attrs:
            fn = getattr(mod, attr)
            replace[id(fn)] = tracer.wrap(f"{module.lstrip('_')}.{attr}", fn)
    for mod in [m for name, m in sys.modules.items()
                if name == "tlbraid" or name.startswith("tlbraid.")]:
        for attr, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, attr, replace[id(value)])
    for module, cls_name, attr in COUNTED:
        cls = getattr(importlib.import_module(f"tlbraid.{module}"), cls_name)
        setattr(cls, attr, tracer.count(f"{module}.{attr}", getattr(cls, attr)))

    # the CLI reaches json through its module attribute `json`
    import json as real_json
    cli = importlib.import_module("tlbraid.cli")
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(real_json))
    proxy.dumps = tracer.wrap("json.dumps", real_json.dumps)
    proxy.load = tracer.wrap("json.load", real_json.load)
    cli.json = proxy


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, op_formats, out_bytes: int,
              stream_bytes_per_s: float) -> dict:
    """The per-layer metrics of one traced pass.

    `op_formats[i]` is "json" or "text" for CLI op i (None for library ops);
    `stream_bytes_per_s` is a plain numpy streaming pass measured in the same
    run, the reference for `kernels.bw_frac`.
    """
    names, spans = tracer.names, tracer.spans
    nid = {name: i for i, name in enumerate(names)}
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    calls: Counter = Counter()
    total: dict = defaultdict(float)        # outermost spans only
    work: Counter = Counter()
    self_s: dict = defaultdict(float)       # by layer
    renders = useful = dense_words = 0
    for i, (n, start, end, parent, op, w) in enumerate(spans):
        name = names[n]
        calls[name] += 1
        work[name] += w
        self_s[name.split(".")[0]] += end - start - child[i]
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if n not in ancestors:
            total[name] += end - start
        if parent >= 0 and spans[parent][0] == nid["cli.main"]:
            form = {"cli._state_text": "text",
                    "linalg.state_to_json": "json"}.get(name)
            if form:
                renders += 1
                useful += form == op_formats[op]
        if name == "braidlang.evaluate" and nid["braidlang.evaluate_on_state"] in ancestors:
            dense_words += 1

    def t(name):
        return total.get(name, 0.0)

    grid_s = t("verify.run_tla_suite") + t("verify.run_braid_suite")
    gather_s = t("kernels.gather_pass")
    words = calls["braidlang.evaluate_on_state"]
    m = {
        "cli.self_s": self_s["cli"],
        "cli.json_dumps_s": t("json.dumps"),
        "cli.json_load_s": t("json.load"),
        "cli.out_bytes": out_bytes,
        "cli.useful_render_frac": _ratio(useful, renders),
        "linalg.state_to_json_s": t("linalg.state_to_json"),
        "linalg.state_from_json_s": t("linalg.state_from_json"),
        "linalg.max_abs.calls": calls["linalg.max_abs"],
        "linalg.max_abs_s": t("linalg.max_abs"),
        "linalg.kron_all.calls": calls["linalg.kron_all"],
        "linalg.kron_all_s": t("linalg.kron_all"),
        "linalg.apply_single_qubit.calls": calls["linalg.apply_single_qubit"],
        "linalg.apply_single_qubit_s": t("linalg.apply_single_qubit"),
        "verify.grid_points": tracer.counts["reports.add_point"],
        "verify.run_tla_suite_s": t("verify.run_tla_suite"),
        "verify.run_braid_suite_s": t("verify.run_braid_suite"),
        "verify.points_per_s": _ratio(tracer.counts["reports.add_point"], grid_s),
        "reports.add.calls": tracer.counts["reports.add"],
        "tla.check_tl_relations.calls": calls["tla.check_tl_relations"],
        "tla.check_tl_relations_s": t("tla.check_tl_relations"),
        "tla.tl_projectors.calls": calls["tla.tl_projectors"],
        "tla.tl_projectors_s": t("tla.tl_projectors"),
        "tla.tl_params.calls": calls["tla.tl_params"],
        "braidrep.jones_representation_s": t("braidrep.jones_representation"),
        "braidrep.bell_representation_s": t("braidrep.bell_representation"),
        "braidlang.evaluate_on_state_s": t("braidlang.evaluate_on_state"),
        "braidlang.evaluate_s": t("braidlang.evaluate"),
        "braidlang.structured_hit_frac": _ratio(words - dense_words, words),
        "states.apply_structured.calls": calls["states.apply_structured"],
        "states.apply_structured_s": t("states.apply_structured"),
        "states.amps_touched": work["states.apply_structured"],
        "states.amps_per_s": _ratio(work["states.apply_structured"],
                                    t("states.apply_structured")),
        "states.structured_braid_op_s": t("states.structured_braid_op"),
        "states.ghz_state_s": t("states.ghz_state"),
        "states.cluster_like_state_s": t("states.cluster_like_state"),
        "kernels.gather_pass.calls": calls["kernels.gather_pass"],
        "kernels.gather_pass_s": gather_s,
        "kernels.phase_vector_s": t("kernels.phase_vector"),
        "kernels.bytes_computed": work["kernels.gather_pass"],
        "kernels.bw_frac": _ratio(_ratio(work["kernels.gather_pass"], gather_s),
                                  stream_bytes_per_s),
        "entangle.entanglement_report.calls": calls["entangle.entanglement_report"],
        "entangle.entanglement_report_s": t("entangle.entanglement_report"),
        "entangle.reduced_density.calls": calls["entangle.reduced_density"],
        "entangle.reduced_density_s": t("entangle.reduced_density"),
        "entangle.vn_entropy_s": t("entangle.vn_entropy"),
        "entangle.schmidt_rank_s": t("entangle.schmidt_rank"),
        "entangle.measure_qubit_s": t("entangle.measure_qubit"),
        "entangle.reductions_per_report": _ratio(
            calls["entangle.reduced_density"], calls["entangle.entanglement_report"]),
    }
    for layer in ("linalg", "verify", "tla", "braidrep", "braidlang", "states",
                  "kernels", "entangle"):
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = len(spans)
    return m
