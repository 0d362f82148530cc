"""Spans and counters around the public functions of each shfc layer,
installed from outside the program in a job's own process.

A layer is one module of src/shfc. `install` wraps every public function
and every public method of a public class defined in a layer module, and
rebinds each wrapper in every shfc namespace that holds the original (for
example `syzygies` and `minimal_generators`, which `resolutions` and
`constructions` import by name). `rings` is not wrapped: it is called
millions of times, so its time shows up as self time of its callers. `rng`
and `corpus` only generate suite inputs.

A span is [name, start, end, parent index]; names are "<layer>.<qualname>".
Counters are kept by hooks on a few functions. The strand hook walks every
matrix entry, so it runs in a span named "trace.hook", which belongs to no
layer: its cost is excluded from every layer's self time and shows only in
the tracing overhead. The other hooks take constant time and run inline.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import os
import sys
import time

LAYERS = (
    "cli",
    "moduleio",
    "resolutions",
    "groebner",
    "modules",
    "cohomology",
    "constructions",
    "invariants",
    "suites",
)

# Arithmetic helpers called per query or per strand-dimension term: on the
# suites workload they would triple the span count (about 600k spans a pass)
# and the tracing overhead without marking a layer boundary. Their time
# counts as self time of the caller.
UNWRAPPED = {
    "modules.binom",
    "modules.GradedFreeModule.strand_dimension",
    "cohomology.ext_strand_dim",
    "cohomology.line_bundle_oracle",
    "cohomology.euler_characteristic_line",
    "resolutions.hilbert_function",
    "resolutions.evaluate_hilbert_polynomial",
}


def _monomials(num_vars, k):
    return math.comb(k + num_vars - 1, num_vars - 1) if k >= 0 else 0


def _strand_counts(gm, d):
    """Cells and nonzeros of the degree-d strand of a GradedMap, from its
    degrees and entry term counts alone."""
    v = gm.ring.num_vars
    rows = sum(_monomials(v, d - a) for a in gm.target.degrees)
    src = [_monomials(v, d - a) for a in gm.source.degrees]
    nnz = sum(len(p.terms) * src[j] for row in gm.matrix for j, p in enumerate(row))
    return rows * sum(src), nnz


def _pre_resolve(rec, args):
    hit = "resolution" in args[0].cache
    rec.counts["resolutions.resolve_calls"] += 1
    rec.counts["resolutions.resolve_hits"] += hit
    return hit


def _post_resolve(rec, args, result, hit, seconds):
    if not hit:
        rec.counts["resolutions.betti_sum"] += sum(result[1].entries.values())


def _pre_koszul(rec, args):
    key = (args[0], args[1])
    rec.counts["constructions.koszul_calls"] += 1
    rec.counts["constructions.koszul_hits"] += key in rec.koszul_seen
    rec.koszul_seen.add(key)


def _post_strand(rec, args, result, state, seconds):
    cells, nnz = _strand_counts(args[0], args[1])
    rec.counts["modules.strands"] += 1
    rec.counts["modules.strand_cells"] += cells
    rec.counts["modules.strand_nnz"] += nnz


def _post_rank(rec, args, result, state, seconds):
    rows, cols = args[0].shape
    field = "fp" if args[0].ring.characteristic else "qq"
    rec.counts[f"modules.rank_{field}_s"] += seconds
    rec.counts["modules.rank_cells"] += rows * cols
    rec.counts["modules.rank_value"] += result
    rec.counts["modules.rank_bound"] += min(rows, cols)


def _post_mingens(rec, args, result, state, seconds):
    rec.counts["groebner.mingens_candidates"] += args[0].source.rank
    rec.counts["groebner.mingens_kept"] += result.source.rank


def _post_load(rec, args, result, state, seconds):
    rec.counts["moduleio.parse_bytes"] += os.path.getsize(args[0])


def _post_suite(rec, args, result, state, seconds):
    rec.counts["suites.instances"] += len(result.instances)


PRE = {
    "resolutions.minimal_free_resolution": _pre_resolve,
    "constructions.koszul_kernel": _pre_koszul,
}
POST = {
    "resolutions.minimal_free_resolution": _post_resolve,
    "modules.GradedMap.strand_matrix": _post_strand,
    "modules.StrandMatrix.rank": _post_rank,
    "groebner.minimal_generators": _post_mingens,
    "moduleio.load_module": _post_load,
    **{f"suites.{name}": _post_suite for name in (
        "verify_oracle",
        "verify_subadditivity",
        "verify_regularity_tensor",
        "verify_key_theorem",
        "verify_bott",
        "verify_beilinson",
    )},
}
SPANNED_HOOKS = {"modules.GradedMap.strand_matrix"}


class Recorder:
    """Spans and counters of one job process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.koszul_seen = set()

    def wrap(self, name, fn):
        pre, post = PRE.get(name), POST.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        hook_span = name in SPANNED_HOOKS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            state = pre(self, args) if pre is not None else None
            rec = [name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(self, args, result, state, rec[2] - rec[1])
                if hook_span:
                    spans.append(["trace.hook", rec[2], clock(), parent])
            return result

        return traced


def _public_callables(module):
    """(qualified name, owner, attribute, function) for each public function
    and public plain method defined in module."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{layer}.{attr}.{meth}", obj, meth, fn


def install(recorder):
    """Wrap every layer's public callables for this process."""
    modules = [importlib.import_module(f"shfc.{layer}") for layer in LAYERS]
    wrapped = {}
    for module in modules:
        for name, owner, attr, fn in list(_public_callables(module)):
            if name in UNWRAPPED:
                continue
            wrapper = recorder.wrap(name, fn)
            setattr(owner, attr, wrapper)
            wrapped[id(fn)] = wrapper
    # Rebind by-name imports, and dispatch tables such as suites.SUITES.
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "shfc" or mod_name.startswith("shfc.")):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and id(value) in wrapped:
                        obj[key] = wrapped[id(value)]


# --- aggregation (harness side) ------------------------------------------------


def _children_time(spans):
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def _outermost_time(spans, names):
    """Time inside spans named in `names`, counting nested ones once."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def job_metrics(spans, counts):
    """Additive per-layer figures of one traced job: seconds and counts."""
    covered = _children_time(spans)
    out = collections.Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += (end - start) - covered[i]
        if name == "resolutions.minimize_presentation":
            out["resolutions.minimize_s"] += (end - start) - covered[i]
        elif name == "cohomology.sheaf_cohomology_dim":
            out["cohomology.queries"] += 1
        elif name == "groebner.syzygies":
            out["groebner.syzygies_calls"] += 1
    out["modules.strand_build_s"] = _outermost_time(spans, {"modules.GradedMap.strand_matrix"})
    out["modules.dual_s"] = _outermost_time(
        spans, {"modules.GradedMap.dual", "modules.GradedFreeModule.dual"}
    )
    out["groebner.syzygies_s"] = _outermost_time(spans, {"groebner.syzygies"})
    out["groebner.mingens_s"] = _outermost_time(spans, {"groebner.minimal_generators"})
    out["moduleio.parse_s"] = _outermost_time(spans, {"moduleio.load_module"})
    out.update(counts)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals):
    """Per-layer metrics of one pass from the sum of its jobs' figures."""
    t = collections.Counter(totals)
    out = {
        "modules.rank_fp_s": t["modules.rank_fp_s"],
        "modules.rank_qq_s": t["modules.rank_qq_s"],
        "modules.rank_cells": t["modules.rank_cells"],
        "modules.rank_fill_ratio": _ratio(t["modules.rank_value"], t["modules.rank_bound"]),
        "modules.strand_build_s": t["modules.strand_build_s"],
        "modules.strands": t["modules.strands"],
        "modules.strand_cells": t["modules.strand_cells"],
        "modules.strand_nnz": t["modules.strand_nnz"],
        "modules.dual_s": t["modules.dual_s"],
        "groebner.syzygies_s": t["groebner.syzygies_s"],
        "groebner.syzygies_calls": t["groebner.syzygies_calls"],
        "groebner.mingens_s": t["groebner.mingens_s"],
        "groebner.mingens_kept_ratio": _ratio(
            t["groebner.mingens_kept"], t["groebner.mingens_candidates"]
        ),
        "resolutions.minimize_s": t["resolutions.minimize_s"],
        "resolutions.resolve_calls": t["resolutions.resolve_calls"],
        "resolutions.resolve_cache_hit_ratio": _ratio(
            t["resolutions.resolve_hits"], t["resolutions.resolve_calls"]
        ),
        "resolutions.betti_sum": t["resolutions.betti_sum"],
        "moduleio.parse_s": t["moduleio.parse_s"],
        "moduleio.parse_bytes": t["moduleio.parse_bytes"],
        "cohomology.queries": t["cohomology.queries"],
        "constructions.koszul_cache_hit_ratio": _ratio(
            t["constructions.koszul_hits"], t["constructions.koszul_calls"]
        ),
        "suites.instances": t["suites.instances"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t[f"{layer}.self_s"]
    return out
