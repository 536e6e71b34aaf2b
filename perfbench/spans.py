"""Span tracing of qborel's layers, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of each layer
module and rebinds every qborel module namespace that holds them, so
calls between modules pass through the wrappers too; `uninstall()` puts
the originals back. Nothing in qborel
is edited. Each call records a span (group, start, end, parent span,
instance id) in flat arrays held in memory; `write()` stores them once
at the end.

Self time is computed as spans close: a span's inner duration minus the
full duration of its children, wrapper bookkeeping included. The
wrappers' own cost therefore lands in no layer, and the sum of self
times can be compared with the untraced wall time of the same work.

Hot predicates (membership, emptiness, partition lookups, level lookups)
and the recursive JSON converter are left unwrapped: they are called per
point or per element, and wrapping them would cost more than they do.
Their time counts towards the caller.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

# layer name -> module; `actions` and `cantor` are deliberately unmeasured
LAYERS = {
    "carriers": "qborel.carriers",
    "quotient": "qborel.quotient",
    "relations": "qborel.relations",
    "feldman_moore": "qborel.feldman_moore",
    "cli.instance": "qborel.cli.instance",
    "cli.certificates": "qborel.cli.certificates",
    "cli.main": "qborel.cli.main",
}

# qualified name -> group inside its layer; unlisted functions go to
# "<layer>.other", and every function of cli.main to "cli.main"
GROUPS = {
    "carriers": {
        "IntSet.__init__": "intset_build",
        **dict.fromkeys(
            ("IntSet." + m for m in (
                "union", "intersect", "difference", "complement_in", "translate",
                "is_subset", "translates_union", "window", "elements",
                "closest_to_zero",
            )),
            "intset_algebra",
        ),
        **dict.fromkeys(
            ("PiecewiseTranslation." + m for m in (
                "__init__", "identity", "empty", "translation", "domain",
                "range_set", "image", "preimage", "restrict", "corestrict",
                "compose", "union", "injectivity_witness", "is_injective",
                "inverse", "fixed_points", "graph_minus", "graph_subset_witness",
            )),
            "ptmap",
        ),
        **dict.fromkeys(
            ("parse_intset", "format_intset", "parse_ptmap", "format_ptmap"), "text"
        ),
    },
    "quotient": dict.fromkeys(
        ("Partition." + m for m in (
            "from_blocks", "from_class_map", "from_pairs", "discrete",
            "indiscrete", "index", "pairs", "refines",
        )),
        "partition",
    ),
    "relations": {
        "verify_enumeration": "verify_enumeration",
        "verify_enumeration_int": "verify_enumeration_int",
        "generate_equivalence": "generate_equivalence",
        "chain_witness": "chain_witness",
        **dict.fromkeys(
            ("IntBlockRelation." + m for m in (
                "make", "equality", "related", "class_of", "graph_within_witness",
                "saturate",
            )),
            "int_block",
        ),
    },
    "feldman_moore": {
        "psi_split": "psi_split",
        "psi_split_int": "psi_split",
        "greedy_extend": "greedy_extend",
        "greedy_extend_int": "greedy_extend",
        "levels_finite": "levels",
        "levels_int": "levels",
        "maximality_witness": "levels",
        "maximality_witness_int": "levels",
        "SideLevels.level": "levels",
        "IntLevels.level": "levels",
        "cover_finite": "cover",
        "cover_int": "cover",
        "SideLevels.parity_union": "cover",
        "quotient_construction": "construction",
        "quotient_construction_int": "construction",
        "classical_construction": "construction",
        "weak_uniformize": "uniformize",
        "weak_uniformize_int": "uniformize",
        "orbit_window_witness": "orbit_window",
    },
    "cli.instance": {"parse_instance": "parse", "parse_instance_file": "parse"},
    "cli.certificates": {
        "Certificate.emit": "emit",
        "Certificate.to_json": "to_json",
        "reverify": "reverify",
        "run_check": "check",
    },
}

# the only dunder methods wrapped: IntSet.__init__ is normalisation
CONSTRUCTORS = {"IntSet.__init__", "PiecewiseTranslation.__init__"}

UNWRAPPED = {
    "IntSet.is_empty", "IntSet.is_finite", "IntSet.size", "IntSet.min", "IntSet.max",
    "PiecewiseTranslation.get", "PiecewiseTranslation.is_empty",
    "PiecewiseTranslation.offsets",
    "Partition.same", "Partition.block_of",
    "FiniteLevels.level_of",
    "jsonable",
}

# element counts of int-lane sets are taken on this window
COUNT_WINDOW = (-(1 << 14), 1 << 14)


def _piece_count(pc, lo: int, hi: int) -> int:
    """Members start +- k*stride (k >= 0) of one piece that lie in [lo, hi]."""
    d = pc.stride
    if pc.down:
        first, last = -((hi - pc.start) // d), (pc.start - lo) // d
    else:
        first, last = -((pc.start - lo) // d), (hi - pc.start) // d
        if pc.length is not None:
            last = min(last, pc.length - 1)
    return max(0, last - max(first, 0) + 1)


def _set_count(s) -> int:
    return sum(_piece_count(pc, *COUNT_WINDOW) for pc in s.pieces)


def _domain_count(f) -> int:
    return sum(_set_count(d) for d, _ in f.pieces)


# ---------------------------------------------------------------------------
# counters read from arguments and return values


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _count_intset_build(c, args, kwargs, result):
    coords = []
    for pc in args[0].pieces:
        coords.append(pc.start)
        if pc.length is not None:
            coords.append(pc.start + (pc.length - 1) * pc.stride)
    c["carriers.intset_build.span_sum"] += max(coords) - min(coords) if coords else 0
    c["carriers.intset_build.pieces_sum"] += len(args[0].pieces)


def _count_verify_enumeration(c, args, kwargs, result):
    c["relations.verify_enumeration.pairs_sum"] += sum(
        len(f) for f in _arg(args, kwargs, 0, "graphs")
    )


def _count_generate(c, args, kwargs, result):
    layers = result[1].layers
    c["relations.generate_equivalence.layers_sum"] += len(layers)
    c["relations.generate_equivalence.layer_pairs_sum"] += sum(len(l) for l in layers)


def _count_greedy(c, args, kwargs, result):
    g0, psis = _arg(args, kwargs, 0, "g0"), _arg(args, kwargs, 1, "psis")
    identity = _arg(args, kwargs, 4, "prepend_identity", True)
    if isinstance(g0, dict):
        offered = sum(len(p) for p in psis)
        offered += _arg(args, kwargs, 2, "n") if identity else 0
        accepted = len(result) - len(g0)
    else:
        offered = sum(_domain_count(p) for p in psis)
        offered += _set_count(_arg(args, kwargs, 2, "ambient")) if identity else 0
        accepted = _domain_count(result) - _domain_count(g0)
    c["feldman_moore.greedy_extend.offered"] += offered
    c["feldman_moore.greedy_extend.accepted"] += accepted


def _count_levels(c, args, kwargs, result):
    pos, neg = result.positive, result.negative
    if isinstance(pos, list):
        c["feldman_moore.levels.depth_sum"] += len(pos) + len(neg)
        return
    c["feldman_moore.levels.depth_sum"] += len(pos.explicit) + len(neg.explicit)
    c["feldman_moore.levels.int_sides"] += 2
    c["feldman_moore.levels.accelerated"] += (pos.accel is not None) + (neg.accel is not None)


def _count_cover(c, args, kwargs, result):
    for f in (result.first, result.second):
        c["feldman_moore.cover.pieces_sum"] += len(f) if isinstance(f, dict) else len(f.pieces)


def _count_construction(c, args, kwargs, result):
    if hasattr(result, "psis"):
        c["feldman_moore.construction.generators"] += len(result.generators)
        c["feldman_moore.construction.cover_maps"] += 2 * len(result.psis)


def _count_parse(c, args, kwargs, result):
    c["cli.instance.parse.bytes"] += len(_arg(args, kwargs, 0, "text"))


def _count_to_json(c, args, kwargs, result):
    c["cli.certificates.to_json.bytes"] += len(result)


COUNTERS = {
    "IntSet.__init__": _count_intset_build,
    "verify_enumeration": _count_verify_enumeration,
    "generate_equivalence": _count_generate,
    "greedy_extend": _count_greedy,
    "greedy_extend_int": _count_greedy,
    "levels_finite": _count_levels,
    "levels_int": _count_levels,
    "cover_finite": _count_cover,
    "cover_int": _count_cover,
    "quotient_construction": _count_construction,
    "quotient_construction_int": _count_construction,
    "parse_instance": _count_parse,
    "Certificate.to_json": _count_to_json,
}


class Tracer:
    """Spans and counters for one traced pass; install() starts recording."""

    def __init__(self):
        self.groups: list[str] = []
        self.group_id: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.instance = -1
        self.stack: list[list] = []
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patch_list = None

    def _gid(self, name: str) -> int:
        if name not in self.group_id:
            self.group_id[name] = len(self.groups)
            self.groups.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.group_id[name]

    def _wrap(self, fn, gid: int, counter):
        perf = time.perf_counter
        stack, selfs, calls, counts = self.stack, self.self_s, self.calls, self.counts
        groups, parents, instances = self.span_group, self.span_parent, self.span_instance
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            tw0 = perf()
            parent = stack[-1] if stack else None
            idx = len(groups)
            groups.append(gid)
            parents.append(parent[0] if parent else -1)
            instances.append(tracer.instance)
            ends.append(0.0)
            frame = [idx, 0.0, gid]
            stack.append(frame)
            done = False
            t0 = perf()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = perf()
                stack.pop()
                ends[idx] = t1
                selfs[gid] += (t1 - t0) - frame[1]
                if parent is None or parent[2] != gid:
                    calls[gid] += 1
                if done and counter is not None:
                    counter(counts, args, kwargs, result)
                if parent is not None:
                    parent[1] += perf() - tw0
            return result

        traced.__wrapped__ = fn
        return traced

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, traced) for every rebinding, built once."""
        if self._patch_list is not None:
            return self._patch_list
        patches, replaced = [], {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            table = GROUPS.get(layer, {})

            def group_of(qualname):
                if layer == "cli.main":
                    return "cli.main"
                return f"{layer}.{table.get(qualname, 'other')}"

            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, type):
                    patches += self._class_patches(obj, group_of)
                elif callable(obj) and obj.__qualname__ not in UNWRAPPED:
                    replaced[id(obj)] = self._wrap(
                        obj, self._gid(group_of(obj.__qualname__)),
                        COUNTERS.get(obj.__qualname__),
                    )
        for modname, module in list(sys.modules.items()):
            if modname != "qborel" and not modname.startswith("qborel."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and not isinstance(obj, type):
                    patches.append((module, name, obj, replaced[id(obj)]))
        self._patch_list = patches
        return patches

    def _class_patches(self, cls, group_of) -> list[tuple[object, str, object, object]]:
        patches, done = [], {}
        for name, raw in list(vars(cls).items()):
            kind = type(raw)
            fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
            if not callable(fn) or isinstance(fn, type) or not hasattr(fn, "__qualname__"):
                continue
            public = not fn.__name__.startswith("_") or fn.__qualname__ in CONSTRUCTORS
            if not public or fn.__qualname__ in UNWRAPPED:
                continue
            if id(fn) not in done:
                done[id(fn)] = self._wrap(
                    fn, self._gid(group_of(fn.__qualname__)), COUNTERS.get(fn.__qualname__)
                )
            wrapped = done[id(fn)]
            if kind in (classmethod, staticmethod):
                wrapped = kind(wrapped)
            patches.append((cls, name, raw, wrapped))
        return patches

    def install(self) -> None:
        """Rebind every layer's public callables to their traced wrappers."""
        for owner, name, _, traced in self._patches():
            setattr(owner, name, traced)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches():
            setattr(owner, name, original)

    # -- results

    def metric(self, name: str) -> float:
        group, _, field = name.rpartition(".")
        if field == "self_s":
            return self.self_s[self.group_id[group]] if group in self.group_id else 0.0
        if field == "calls":
            return self.calls[self.group_id[group]] if group in self.group_id else 0
        return self.counts[name]

    def ratios(self) -> dict[str, float]:
        c = self.counts

        def share(a, b):
            return c[a] / c[b] if c[b] else 0.0

        return {
            "feldman_moore.greedy_extend.accept_ratio": share(
                "feldman_moore.greedy_extend.accepted", "feldman_moore.greedy_extend.offered"
            ),
            "feldman_moore.levels.accel_ratio": share(
                "feldman_moore.levels.accelerated", "feldman_moore.levels.int_sides"
            ),
            "feldman_moore.construction.generator_yield": share(
                "feldman_moore.construction.generators",
                "feldman_moore.construction.cover_maps",
            ),
        }

    def write(self, path) -> int:
        """Store all spans as tab-separated text; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span\tgroup\tparent\tinstance\tstart_s\tend_s\n")
            names = self.groups
            for i, (g, p, inst, t0, t1) in enumerate(zip(
                self.span_group, self.span_parent, self.span_instance,
                self.span_start, self.span_end,
            )):
                fh.write(f"{i}\t{names[g]}\t{p}\t{inst}\t{t0:.9f}\t{t1:.9f}\n")
        return len(self.span_group)
