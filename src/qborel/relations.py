"""Countable equivalence relations presented by graphs of point maps.

Finite quotients use explicit partial maps (dicts on quotient points).
The closure generated by a family of maps is the partition into
connected components of its graphs.  Its layer filtration (layer r holds
the pairs joined by a chain of length at most r, where each chain step
applies some generator forwards or backwards, or stays put) and its
chain witnesses come from breadth-first searches; the stabilization
index takes a few per class, bounded by eccentricities.  Chain
witnesses are minimal-length and deterministically tie-broken.

Nothing here reads the integer carrier: an integer relation is a
carriers.IntBlockRelation, so a run on finite data loads no semilinear
code.

The enumeration check is a function of the union of the graphs and n,
memoised for the run when n is an int (`_verdict_of`, in record's
registry), so the certificate row that checks the union the construction
has checked reads that verdict back.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import IndexTooLarge, InvalidPartition, NotAnEnumeration, NotASelector
from .quotient import Partition
from .record import Frozen, Record, _per_run


def _distances(nbrs: list[set[int]], source: int) -> dict[int, int]:
    """Chain length from source to every point it is joined to (BFS)."""
    dist, queue = {source: 0}, [source]
    for v in queue:
        for w in nbrs[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


class ClosureLayers(Record):
    """A generated closure with its generators; chain lengths on demand."""

    def __init__(self, n: int, generators: list[dict[int, int]], partition: Partition):
        self._set(n, generators, partition)

    @cached_property
    def _nbrs(self) -> list[set[int]]:
        nbrs = [{x} for x in range(self.n)]
        for f in self.generators:
            for x, y in f.items():
                nbrs[x].add(y)
                nbrs[y].add(x)
        return nbrs

    @cached_property
    def stabilization_index(self) -> int:
        """Longest minimal chain between two related points.

        The largest eccentricity of any class, found from bounds (Takes
        and Kosters, CIKM 2011): a search from v of eccentricity e bounds
        each w of its class by e + d(v, w), and a point bounded by the
        best eccentricity so far cannot raise it.  Searches alternate
        between the candidates of largest and of smallest bound, ties to
        the least point, until no candidate is left.
        """
        best = 0
        for block in self.partition.blocks:
            bound, pick = dict.fromkeys(block, len(block) - 1), max
            while bound := {w: u for w, u in bound.items() if u > best}:
                dist = _distances(self._nbrs, pick(bound, key=bound.__getitem__))
                e = max(dist.values())
                best = max(best, e)
                bound = {w: min(u, e + dist[w]) for w, u in bound.items()}
                pick = min if pick is max else max
        return best

    @property
    def layers(self) -> list[frozenset[tuple[int, int]]]:
        """layers[r] holds the pairs joined by a chain of at most r steps."""
        by_length = [[] for _ in range(self.stabilization_index + 1)]
        for x in range(self.n):
            for z, d in _distances(self._nbrs, x).items():
                by_length[d].append((x, z))
        return list(itertools.accumulate(map(frozenset, by_length), frozenset.union))


def generate_equivalence(n: int, fns) -> tuple[Partition, ClosureLayers]:
    """Closure of the graphs of the given partial maps on n points.

    Returns the partition into connected components and the closure's
    layer filtration, computed when read.
    """
    fns = [dict(f) for f in fns]
    for f in fns:
        for x, y in f.items():
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"graph pair ({x}, {y}) outside 0..{n - 1}")
    # generators share many pairs (fixed points above all): join each once
    partition = Partition.from_pairs(n, set().union(*(f.items() for f in fns)))
    return partition, ClosureLayers(n, fns, partition)


class ChainStep(Frozen):
    """One step of a witness chain: which generator, which direction."""

    def __init__(self, point: int, via: int | None, reverse: bool = False):
        # via: the generator index, None for the starting point
        self._set(point, via, reverse)

    def describe(self) -> str:
        if self.via is None:
            return f"start {self.point}"
        arrow = "reverse" if self.reverse else "forward"
        return f"{arrow} f{self.via} -> {self.point}"


def chain_witness(layers: ClosureLayers, x: int, y: int) -> list[ChainStep] | None:
    """Minimal-length chain joining x to y, or None when unrelated.

    Ties are broken by generator index, forward application before
    reverse, and least intermediate point.
    """
    dist = _distances(layers._nbrs, y)
    if x not in dist:
        return None
    preimages = [{} for _ in layers.generators]
    for pre, f in zip(preimages, layers.generators):
        for w, v in sorted(f.items()):
            pre.setdefault(v, []).append(w)
    chain = [ChainStep(x, None)]
    while chain[-1].point != y:
        cur = chain[-1].point
        steps = _steps(layers.generators, preimages, cur)
        chain.append(next(s for s in steps if dist.get(s.point) == dist[cur] - 1))
    return chain


def _steps(generators, preimages, cur: int):
    """Every step away from cur, in tie-break order."""
    for j, (f, pre) in enumerate(zip(generators, preimages)):
        if cur in f:
            yield ChainStep(f[cur], j)
        for z in pre.get(cur, ()):
            yield ChainStep(z, j, reverse=True)


def tail_equivalence(f: dict[int, int] | list[int], n: int) -> tuple[Partition, ClosureLayers]:
    """Classes of the relation 'some forward iterates of x and y meet'."""
    table = dict(enumerate(f)) if not isinstance(f, dict) else dict(f)
    return generate_equivalence(n, [table])


def index_over(rel) -> int | float:
    """Largest class size of a Partition or an IntBlockRelation; math.inf
    when some class is infinite."""
    return rel.index()


def graph_within_partition(f: dict[int, int], rel: Partition):
    """None when every pair of f joins related points, else the least witness pair.

    A pair with a point outside 0..rel.n-1 is a witness too.
    """
    n, label = rel.n, rel.class_of
    x = min((x for x, y in f.items()
             if not (0 <= x < n and 0 <= y < n and label[x] == label[y])), default=None)
    return None if x is None else (x, f[x])


# ---------------------------------------------------------------------------
# transversals and selectors


def selector_to_transversal(phi, rel: Partition) -> frozenset[int]:
    """Fixed points of a selector; checks the selector laws first."""
    for x in range(rel.n):
        if x not in phi:
            raise NotASelector(f"selector undefined at {x}", witness=x)
        if not (0 <= phi[x] < rel.n and rel.same(x, phi[x])):
            raise NotASelector(
                f"phi({x}) = {phi[x]} leaves the class", witness=(x, phi[x])
            )
    for block in rel.blocks:
        vals = {phi[x] for x in block}
        if len(vals) > 1:
            xs = sorted(block, key=lambda x: phi[x])
            raise NotASelector(
                f"selector not constant on class {block}",
                witness=(xs[0], xs[-1]),
            )
    return frozenset(x for x in range(rel.n) if phi[x] == x)


def min_selector(rel: Partition) -> dict[int, int]:
    """Selector choosing the least point of each class."""
    return {x: rel.block_of(x)[0] for x in range(rel.n)}


def _path_matching(rel: Partition) -> dict[int, int]:
    """Swap x_(2i) with x_(2i+1) in each class x0 < x1 < ...; fix the rest."""
    f = {}
    for b in rel.blocks:
        f.update(zip(b, b))
        for x, y in zip(b[0::2], b[1::2]):
            f[x], f[y] = y, x
    return f


def index2_involution(rel: Partition) -> dict[int, int]:
    """The involution swapping each two-element class, fixing singletons.

    Demands every class have at most two elements.
    """
    big = [b for b in rel.blocks if len(b) > 2]
    if big:
        raise IndexTooLarge(
            f"class {big[0]} has {len(big[0])} elements", witness=big[0]
        )
    return _path_matching(rel)


# ---------------------------------------------------------------------------
# enumerations


class CheckOutcome(Record):
    def __init__(self, ok: bool, witness: object = None):
        self._set(ok, witness)

    def __bool__(self):
        return self.ok


class EnumReport(Record):
    """Closure report for a family of graphs."""

    def __init__(self, reflexive: CheckOutcome, symmetric: CheckOutcome, transitive: CheckOutcome):
        self._set(reflexive, symmetric, transitive)

    @property
    def ok(self) -> bool:
        return bool(self.reflexive and self.symmetric and self.transitive)


def verify_enumeration(graphs, n: int) -> EnumReport:
    """Check that the union of the graphs is an equivalence relation.

    A pair with a point outside 0..n-1 raises NotAnEnumeration; the least
    such pair is the witness.  A transitivity failure is witnessed by the
    least (x, y) in the union, then the least z in row y missing from
    row x, reported as (x, z, y).  The ordered search for witnesses runs
    only when the union fails the count of _enumeration_check.  A union
    this run has checked on the same int n reads its verdict back.
    """
    return checked_enumeration(union_pairs(graphs), n)[1]


def enumerated_partition(graphs, n: int) -> Partition:
    """The partition the graphs enumerate; NotAnEnumeration, with the
    report or pair verify_enumeration gives, when they enumerate none."""
    rel, report = checked_enumeration(union_pairs(graphs), n)
    if not report.ok:
        raise NotAnEnumeration("graphs fail the closure checks", witness=report)
    return rel


def checked_enumeration(union: frozenset, n: int) -> tuple[Partition | None, EnumReport]:
    """_enumeration_check(union, n), once per run for an int n (not for a 5.0 or a True)."""
    return (_verdict_of if type(n) is int else _enumeration_check)(union, n)


def _enumeration_check(union: frozenset, n: int) -> tuple[Partition | None, EnumReport]:
    """The partition a union of graphs enumerates, None if it fails, and the report.

    Each pair of the union lies in B x B for its own connected component
    B, so the union is an equivalence relation on 0..n-1 exactly when its
    pairs lie in 0..n-1 and it has sum |B|^2 of them: one union-find pass
    settles the three laws and gives the partition.
    A union of fewer than n pairs is not reflexive, and takes no such pass.
    """
    # range(n), then the count: a stored n may be no integer, or far above the points listed
    points = range(n)
    if n <= len(union):
        try:
            rel = Partition.from_pairs(n, union)
        except InvalidPartition:
            pass
        else:
            if sum(len(b) * len(b) for b in rel.blocks) == len(union):
                return rel, EnumReport(*[CheckOutcome(True)] * 3)
    pairs = sorted(union)
    refl = CheckOutcome(True)
    for x in points:
        if (x, x) not in union:
            refl = CheckOutcome(False, x)
            break
    sym = CheckOutcome(True)
    rows: dict[int, set[int]] = {}
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise NotAnEnumeration(
                f"graph pair ({x}, {y}) outside 0..{n - 1}", witness=(x, y)
            )
        if sym.ok and (y, x) not in union:
            sym = CheckOutcome(False, (y, x))
        rows.setdefault(x, set()).add(y)
    trans = CheckOutcome(True)
    for x, y in pairs:
        onward = rows.get(y, frozenset())
        if not onward <= rows[x]:
            trans = CheckOutcome(False, (x, min(onward - rows[x]), y))
            break
    return None, EnumReport(refl, sym, trans)


# (partition or None, report) of each union checked in this run on an int n
_verdict_of = _per_run(_enumeration_check)


def union_pairs(graphs) -> frozenset[tuple[int, int]]:
    out = set()
    for f in graphs:
        out.update(f.items())
    return frozenset(out)


class EnumeratedEquivalence(Frozen):
    """A finite-quotient relation presented as a union of map graphs."""

    def __init__(self, n: int, graphs: tuple[tuple[tuple[int, int], ...], ...]):
        self._set(n, graphs)

    @classmethod
    def make(cls, n: int, graphs) -> "EnumeratedEquivalence":
        return cls(n, tuple(tuple(sorted(dict(g).items())) for g in graphs))

    def graph_dicts(self) -> list[dict[int, int]]:
        return [dict(g) for g in self.graphs]

    def pairs(self) -> frozenset[tuple[int, int]]:
        return union_pairs(self.graph_dicts())
