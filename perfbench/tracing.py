"""Spans around the calls the benchmark (and the CLI layer) make into leecodes.

A traced run hands each workload proxies of the leecodes modules whose
public functions record a span (name, start, end, parent, phase, tag)
per call.  In a cold CLI process the same proxies replace the module
references held by `leecodes.cli`, so the spans mark the boundary
between the CLI layer and the layers below it.  Nothing inside a module
is wrapped: a call from one library function to another stays
invisible until the program traces itself.

Spans stay in memory and are written out when the run ends.  The
per-layer metrics are computed from them afterwards; see METRICS.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, phase, tag]
        self.counts = []  # (name, value, phase)
        self.stack = []
        self.phase = "setup"
        self.tag = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else None, self.phase, self.tag])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = start, end

        return traced

    def proxy(self, module):
        """The module with every public function it defines wrapped."""
        layer = module.__name__.rsplit(".", 1)[-1]
        wrapped = {
            name: self.wrap(f"{layer}.{name}", obj)
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")
        }
        return _Proxy(module, wrapped)

    def span(self, name, start_ns, end_ns, phase, tag=None):
        """Record a span timed outside the tracer (a child process)."""
        self.spans.append([name, start_ns, end_ns, None, phase, tag])
        return len(self.spans) - 1

    def adopt(self, spans, parent, phase):
        """Append spans written by a child process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par, _phase, tag in spans:
            self.spans.append([name, start, end, parent if par is None else base + par,
                               phase, tag])

    def count(self, name, value):
        self.counts.append((name, value, self.phase))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class _Proxy:
    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


# --- per-layer metrics ----------------------------------------------------
#
# name: (unit, kind, span or count names, tag).  Kinds:
#   phase_ms  inclusive time of the named calls per phase (the setup or
#             one timed pass), median over the phases that made such a call
#   call      inclusive time of one call, median over calls
#   p99       99th percentile of one call; 0 unless 10 calls lie beyond it
#   self_ms   self time of a layer per phase, median as for phase_ms
#   count     a count the workload records, median over passes
#   per_node  search time over search nodes, whole run
#   import_ms measured by the workload runner (cold import minus bare start)
# A tag restricts spans to one input: a code length or a search tile.


def _m(unit, kind, *names, tag=None):
    return unit, kind, names, tag


METRICS = {
    "codes.load_ms": _m("ms", "phase_ms", "codes.code_from_json"),
    "codes.construct_ms": _m("ms", "phase_ms", "codes.construct_dpl4", "codes.construct_pl1"),
    "codes.to_json_ms": _m("ms", "phase_ms", "codes.code_to_json"),
    "codes.min_distance_ms": _m("ms", "phase_ms", "codes.min_distance_window"),
    "codes.codewords_mod_q_ms": _m("ms", "phase_ms", "codes.codewords_mod_q"),
    "codes.codewords_mod_q_words": _m("count", "count", "codes.codewords_mod_q_words"),
    "codes.self_ms": _m("ms", "self_ms", "codes"),
    "decoder.table_ms": _m("ms", "phase_ms", "decoder.build_decoder_table"),
    "decoder.decode_us": _m("us", "call", "decoder.decode"),
    **{f"decoder.decode_us.n{n}": _m("us", "call", "decoder.decode", tag=f"n{n}")
       for n in (24, 60, 100, 255, 256)},
    "decoder.decode_us_p99": _m("us", "p99", "decoder.decode"),
    "decoder.decode_modular_us": _m("us", "call", "decoder.decode_modular"),
    "decoder.self_ms": _m("ms", "self_ms", "decoder"),
    "tiling.kernel_basis_ms": _m("ms", "phase_ms", "tiling.kernel_basis"),
    "tiling.kernel_points_ms": _m("ms", "phase_ms", "tiling.kernel_points_in_box"),
    "tiling.kernel_points": _m("count", "count", "tiling.kernel_points"),
    "tiling.verify_window_ms": _m("ms", "phase_ms", "tiling.verify_window_tiling"),
    "tiling.search_ms": _m("ms", "phase_ms", "tiling.search_lattice_tiling"),
    **{f"tiling.search_ms.{t}": _m("ms", "phase_ms", "tiling.search_lattice_tiling", tag=t)
       for t in ("ds5_1", "ds3_2", "s3_2")},
    "tiling.search_nodes": _m("count", "count", "tiling.search_nodes"),
    "tiling.search_groups_tried": _m("count", "count", "tiling.search_groups_tried"),
    "tiling.search_us_per_node": _m("us", "per_node", "tiling.search_lattice_tiling"),
    "tiling.self_ms": _m("ms", "self_ms", "tiling"),
    "lee.tile_ms": _m("ms", "phase_ms", "lee.double_sphere", "lee.lee_sphere"),
    "lee.self_ms": _m("ms", "self_ms", "lee"),
    "nonregular.shift_ms": _m("ms", "phase_ms", "nonregular.shifted_tiling_n3"),
    "nonregular.verify_cover_ms": _m("ms", "phase_ms", "nonregular.verify_cover"),
    "nonregular.code_ms": _m("ms", "phase_ms", "nonregular.code_from_window_tiling"),
    "nonregular.double_cross_ms": _m("ms", "phase_ms", "nonregular.construct_double_cross_hom",
                                     "nonregular.verify_nonregular"),
    "nonregular.centers": _m("count", "count", "nonregular.centers"),
    "nonregular.self_ms": _m("ms", "self_ms", "nonregular"),
    "groups.self_ms": _m("ms", "self_ms", "groups"),
    "cli.import_ms": _m("ms", "import_ms"),
    **{f"cli.{sub}_ms": _m("ms", "call", f"process.{sub}")
       for sub in ("construct", "decode", "verify", "search", "nonregular", "admissible",
                   "groups")},
    "cli.self_ms": _m("ms", "self_ms", "cli"),
}

SCALE = {"ms": 1e-6, "us": 1e-3, "count": 1}


def _median(values):
    return statistics.median(values) if values else 0


def layer_metrics(tracer, import_ms, scale):
    """Every metric in METRICS; 0 where the workload never reached it.

    Times are multiplied by `scale`, the run's raw-to-nominal factor.
    """
    spans = tracer.spans
    child_time = [0] * len(spans)
    for _name, start, end, parent, _phase, _tag in spans:
        if parent is not None:
            child_time[parent] += end - start

    def phase_median(select, own=False):
        sums = {}
        for i, (name, start, end, _parent, phase, tag) in enumerate(spans):
            if select(name, tag):
                sums[phase] = sums.get(phase, 0) + end - start - (child_time[i] if own else 0)
        return _median(list(sums.values()))

    out = {}
    for metric, (unit, kind, names, want_tag) in METRICS.items():
        unit_scale = SCALE[unit] * (scale if unit != "count" else 1)

        def chosen(name, tag):
            return name in names and want_tag in (None, tag)

        if kind == "import_ms":
            value = import_ms
        elif kind == "phase_ms":
            value = phase_median(chosen) * unit_scale
        elif kind == "self_ms":
            value = phase_median(lambda name, tag: name.split(".")[0] == names[0],
                                 own=True) * unit_scale
        elif kind in ("call", "p99"):
            durs = sorted(s[2] - s[1] for s in spans if chosen(s[0], s[5]))
            if kind == "call":
                value = _median(durs) * unit_scale
            else:
                value = durs[int(0.99 * len(durs))] * unit_scale if len(durs) >= 1000 else 0
        elif kind == "count":
            per_pass = {}
            for name, v, phase in tracer.counts:
                if name == names[0]:
                    per_pass[phase] = per_pass.get(phase, 0) + v
            value = _median(list(per_pass.values()))
        else:  # per_node
            total = sum(s[2] - s[1] for s in spans if s[0] == names[0])
            nodes = sum(v for name, v, _ in tracer.counts if name == "tiling.search_nodes")
            value = total * 1e-3 * scale / nodes if nodes else 0
        out[metric] = {"value": value, "unit": unit}
    return out
