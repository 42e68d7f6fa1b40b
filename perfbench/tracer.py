"""Span tracing of bfcorr's layers from outside the program.

The tracer replaces module-level public functions with timing wrappers for
the duration of one pass and puts the originals back afterwards.  A name
bound by ``from .x import f`` lives separately in every importing module,
so each function is replaced wherever a ``bfcorr`` module binds it; the
caller then finds the wrapper under the name it looks up.

Methods of value types (``FockVector``, ``MultiPoly``, ``Fraction``) are
not wrapped: they run millions of times and a wrapper would swamp them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# span label -> (module that defines the functions, function names)
TARGETS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "cli.main": ("bfcorr.cli", ("main",)),
    "correspondence.check_identity": ("bfcorr.correspondence", ("check_identity",)),
    "correspondence.vev_boson": ("bfcorr.correspondence", ("vev_boson",)),
    "correspondence.vev_fermion": ("bfcorr.correspondence", ("vev_fermion",)),
    "correspondence.det_series": ("bfcorr.correspondence", ("det_series",)),
    "correspondence.pf_series": ("bfcorr.correspondence", ("pf_series",)),
    "correspondence.closed_form": ("bfcorr.correspondence", ("closed_form",)),
    "boson.vertex": ("bfcorr.boson", ("vertex_A", "vertex_B")),
    "series.expand": ("bfcorr.series", ("expand",)),
    "series.raw_mul": ("bfcorr.series", ("raw_mul",)),
    "matrices.determinant": ("bfcorr.matrices", ("determinant",)),
    "matrices.pfaffian": ("bfcorr.matrices", ("pfaffian",)),
    "ratfun.rf_equal": ("bfcorr.ratfun", ("rf_equal",)),
    "ratfun.residue_at": ("bfcorr.ratfun", ("residue_at",)),
    "fock.apply_mode": ("bfcorr.fock", ("apply_mode_A", "apply_mode_B")),
    "fock.states": ("bfcorr.fock", ("states_A", "states_B")),
    "fock.character": ("bfcorr.fock", ("character_A", "character_B")),
    "fields.mode_commutator": ("bfcorr.fields", ("mode_commutator",)),
    "fields.act_hopf": ("bfcorr.fields", ("act_hopf",)),
    "textio.format_series": ("bfcorr.textio", ("format_series",)),
}

# counters measured where the work happens: label -> counter name -> size of a result
_OUTPUT_COUNTS: Dict[str, Tuple[str, Callable]] = {
    "boson.vertex": ("terms_out", lambda res: sum(len(fv.terms) for fv in res.values())),
    "correspondence.vev_boson": ("terms_out", lambda res: len(res.terms)),
    "correspondence.vev_fermion": ("terms_out", lambda res: len(res.terms)),
    "series.expand": ("terms_out", lambda res: len(res.terms)),
    "series.raw_mul": ("terms_out", len),
    "textio.format_series": ("chars", len),
}

_VEV_LABELS = ("correspondence.vev_boson", "correspondence.vev_fermion")

PER_LAYER_METRICS: List[Tuple[str, str]] = (
    [(f"{label}.{stat}", unit) for label in TARGETS
     for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [(f"{label}.{name}", "count") for label, (name, _) in _OUTPUT_COUNTS.items()]
    + [("boson.vertex.useful_ratio", "fraction"),
       ("correspondence.vev.repeat_share", "fraction"),
       ("trace.overhead_frac", "fraction")]
)


class Tracer:
    """Spans and counters of one pass.

    A span is ``[label, start, end, parent index, run id, child seconds]``;
    ``run_id`` is the index of the case the span belongs to.  Spans stay
    in memory until ``write_spans`` is called after the pass.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.run_id = -1
        self._stack: List[int] = []
        self._seen_specs: set = set()
        self.vev_s = 0.0
        self.repeat_vev_s = 0.0

    def _wrap(self, label: str, fn: Callable) -> Callable:
        tracer = self
        spans, stack = self.spans, self._stack
        count = _OUTPUT_COUNTS.get(label)
        counter = f"{label}.{count[0]}" if count else None
        is_vev = label in _VEV_LABELS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id, 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]][5] += end - span[1]
            if counter:
                tracer.counts[counter] = tracer.counts.get(counter, 0) + count[1](result)
            if is_vev:
                tracer._note_vev(args[0] if args else kwargs["spec"], end - span[1])
            return result

        return traced

    def _note_vev(self, spec, seconds: float) -> None:
        self.vev_s += seconds
        if spec in self._seen_specs:
            self.repeat_vev_s += seconds
        else:
            self._seen_specs.add(spec)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target wherever a bfcorr module binds it; restore on exit."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bfcorr" or name.startswith("bfcorr."))]
        patches = []
        try:
            for label, (home, names) in TARGETS.items():
                for name in names:
                    original = getattr(sys.modules[home], name)
                    wrapper = self._wrap(label, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                patches.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def layer_metrics(self) -> Dict[str, float]:
        """calls, inclusive seconds and self seconds per label, plus counters.

        Inclusive seconds count only the outermost span of a label, so a
        recursive call is not counted twice.
        """
        out: Dict[str, float] = {}
        for label in TARGETS:
            out[f"{label}.calls"] = 0
            out[f"{label}.s"] = 0.0
            out[f"{label}.self_s"] = 0.0
        for label, (name, _) in _OUTPUT_COUNTS.items():
            out[f"{label}.{name}"] = self.counts.get(f"{label}.{name}", 0)
        for label, start, end, parent, _, child_s in self.spans:
            out[f"{label}.calls"] += 1
            out[f"{label}.self_s"] += end - start - child_s
            p = parent
            while p >= 0 and self.spans[p][0] != label:
                p = self.spans[p][3]
            if p < 0:
                out[f"{label}.s"] += end - start
        vertex_terms = out["boson.vertex.terms_out"]
        out["boson.vertex.useful_ratio"] = (
            out["correspondence.vev_boson.terms_out"] / vertex_terms if vertex_terms else 0.0)
        out["correspondence.vev.repeat_share"] = (
            self.repeat_vev_s / self.vev_s if self.vev_s else 0.0)
        return out

    def write_spans(self, path: str, run_names: List[str]) -> None:
        """Write the spans as TSV, after one comment line per run id."""
        with open(path, "w") as fh:
            for run_id, name in enumerate(run_names):
                fh.write(f"# run_id {run_id}: {name}\n")
            fh.write("span\tparent\trun_id\tname\tstart\tend\n")
            for idx, (label, start, end, parent, run_id, _) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{run_id}\t{label}\t{start!r}\t{end!r}\n")
