"""Finite group actions on quotient points, cocycles and normalizers.

Groups are given by full multiplication tables with the identity first.
An action assigns each group element a bijection of the quotient points;
when the action is free, the orbit relation carries a canonical cocycle
sending a related pair to the unique element moving one to the other.
"""

from __future__ import annotations

import itertools

from .errors import NotASubgroup, NotFree, clip, quote
from .quotient import Partition
from .record import Frozen, Record


class FiniteGroup(Frozen):
    """A group on elements 0..n-1 via its multiplication table."""

    def __init__(self, labels: tuple[str, ...], table: tuple[tuple[int, ...], ...]):
        self._set(labels, table)
        n = len(self.labels)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table shape differs from element count")
        for i, label in enumerate(self.labels):
            if label in self.labels[:i]:
                raise ValueError(f"label {clip(str(label))} names two elements")
        for a in range(n):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise ValueError("element 0 is not an identity")
        for a in range(n):
            if sorted(self.table[a]) != list(range(n)):
                raise ValueError(f"row {a} is not a permutation")
            if sorted(r[a] for r in self.table) != list(range(n)):
                raise ValueError(f"column {a} is not a permutation")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(f"associativity fails at ({a}, {b}, {c})")
        for a in range(n):
            if not any(self.table[a][b] == 0 for b in range(n)):
                raise ValueError(f"element {a} has no inverse")

    @property
    def size(self) -> int:
        return len(self.labels)

    def elements(self) -> range:
        return range(self.size)

    def element(self, text: str) -> int:
        """The element a label or an index names; ValueError for any other text."""
        if text in self.labels:
            return self.labels.index(text)
        try:
            a = int(text)
        except ValueError:
            raise ValueError(f"unknown group element {quote(text)}") from None
        if not 0 <= a < self.size:
            raise ValueError(f"group element {quote(text)} outside 0..{self.size - 1}")
        return a

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        for b in self.elements():
            if self.table[a][b] == 0:
                return b
        raise AssertionError("validated group lost an inverse")

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(("e",), ((0,),))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        labels = tuple(f"r{i}" if i else "e" for i in range(n))
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(labels, table)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """S_n on letters 0..n-1; element 0 is the identity permutation."""
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        labels = tuple("".join(map(str, p)) for p in perms)
        table = tuple(
            tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms)
            for p in perms
        )
        g = cls(labels, table)
        object.__setattr__(g, "_perms", perms)
        return g

    def permutation_of(self, a: int) -> tuple[int, ...] | None:
        """Underlying letter permutation, for groups built by symmetric()."""
        perms = getattr(self, "_perms", None)
        return perms[a] if perms is not None else None

    def subgroup_witness(self, elements) -> object | None:
        """None when the subset is a subgroup, else the failing datum."""
        subset = set(elements)
        if not subset or 0 not in subset:
            return "missing identity"
        for a in subset:
            if self.inv(a) not in subset:
                return ("inverse", a)
            for b in subset:
                if self.mul(a, b) not in subset:
                    return ("product", a, b)
        return None


class GroupAction(Frozen):
    """An action of a finite group on quotient points 0..n-1."""

    def __init__(self, group: FiniteGroup, n: int, maps: tuple[tuple[int, ...], ...]):
        self._set(group, n, maps)  # maps[g][x] = g . x
        if len(self.maps) != self.group.size:
            raise ValueError("one table per group element required")
        for a, t in enumerate(self.maps):
            if len(t) != self.n or sorted(t) != list(range(self.n)):
                raise ValueError(f"element {a} does not act bijectively")
        if self.maps[0] != tuple(range(self.n)):
            raise ValueError("identity must act trivially")
        for a in self.group.elements():
            for b in self.group.elements():
                ab = self.group.mul(a, b)
                for x in range(self.n):
                    if self.maps[ab][x] != self.maps[a][self.maps[b][x]]:
                        raise ValueError(
                            f"action is not a homomorphism at ({a}, {b}, {x})"
                        )

    def act(self, a: int, x: int) -> int:
        return self.maps[a][x]

    def subaction(self, elements) -> "GroupAction":
        """Action of a subgroup, reindexed to its own element order."""
        sub = sorted(set(elements))
        w = self.group.subgroup_witness(sub)
        if w is not None:
            raise NotASubgroup(f"subset is not a subgroup: {w}", witness=w)
        pos = {a: i for i, a in enumerate(sub)}
        labels = tuple(self.group.labels[a] for a in sub)
        table = tuple(
            tuple(pos[self.group.mul(a, b)] for b in sub) for a in sub
        )
        return GroupAction(
            FiniteGroup(labels, table), self.n, tuple(self.maps[a] for a in sub)
        )


def orbit_equivalence(action: GroupAction) -> Partition:
    """Partition of points into orbits."""
    pairs = [
        (x, action.act(a, x))
        for a in action.group.elements()
        for x in range(action.n)
    ]
    return Partition.from_pairs(action.n, pairs)


def freeness_witness(action: GroupAction):
    """None when only the identity fixes a point, else (element, point)."""
    for a in range(1, action.group.size):
        for x in range(action.n):
            if action.act(a, x) == x:
                return (a, x)
    return None


class Cocycle(Record):
    """theta(x, y) = the unique group element with y = theta . x."""

    def __init__(self, action: GroupAction, theta: dict[tuple[int, int], int]):
        self._set(action, theta)

    def __call__(self, x: int, y: int) -> int:
        return self.theta[(x, y)]

    def pair_classes(self) -> dict[int, frozenset[tuple[int, int]]]:
        """A_a = the pairs assigned the element a; these tile the table."""
        out: dict[int, set] = {a: set() for a in self.action.group.elements()}
        for pair, a in self.theta.items():
            out[a].add(pair)
        return {a: frozenset(s) for a, s in out.items()}


def cocycle_from_free_action(action: GroupAction) -> Cocycle:
    """The canonical cocycle of a free action on its orbit relation."""
    w = freeness_witness(action)
    if w is not None:
        raise NotFree(f"element {w[0]} fixes point {w[1]}", witness=w)
    theta = {}
    for x in range(action.n):
        for a in action.group.elements():
            theta[(x, action.act(a, x))] = a
    return Cocycle(action, theta)


class CocycleReport(Record):
    def __init__(self, moves: object | None, chains: object | None):
        # moves: an (x, y) where theta(x,y).x != y; chains: an (x, y, z) where
        # composition fails or is absent
        self._set(moves, chains)

    @property
    def ok(self) -> bool:
        return self.moves is None and self.chains is None


def verify_cocycle(c: Cocycle) -> CocycleReport:
    """Check the defining identity on every stored pair and the
    composition rule on every chain the table supports."""
    act = c.action
    moves = None
    for (x, y), a in sorted(c.theta.items()):
        if act.act(a, x) != y:
            moves = (x, y)
            break
    chains = None
    successors: dict[int, list[tuple[int, int]]] = {}
    for (y, z), a in c.theta.items():
        successors.setdefault(y, []).append((z, a))
    for (x, y), ab in sorted(c.theta.items()):
        for z, bc in sorted(successors.get(y, ())):
            whole = c.theta.get((x, z))
            if whole is None or whole != act.group.mul(bc, ab):
                chains = (x, y, z)
                break
        if chains:
            break
    return CocycleReport(moves, chains)


def _displacement_fibers(c: Cocycle, phi: dict[int, int]) -> dict[int, frozenset[int]]:
    """Fibers Z_a = points whose displacement under phi is the element a."""
    act = c.action
    fibers: dict[int, set[int]] = {a: set() for a in act.group.elements()}
    for x in range(act.n):
        y = phi[x]
        if (x, y) not in c.theta:
            raise NotFree(f"phi({x}) = {y} leaves the orbit", witness=(x, y))
        fibers[c.theta[(x, y)]].add(x)
    return {a: frozenset(s) for a, s in fibers.items()}


def involution_fiber_report(c: Cocycle, f: dict[int, int]) -> dict:
    """How an involution inside the orbit relation permutes the fibers.

    Splits by x -> theta(x, f(x)) and reports, per element a, the b with
    f[Z_a] ⊆ Z_b; the displacement algebra forces b to be a's inverse.
    """
    act = c.action
    for x in range(act.n):
        if f[f[x]] != x:
            raise ValueError(f"not an involution at {x}")
    fibers = _displacement_fibers(c, f)
    mapping = {}
    for a, fiber in sorted(fibers.items()):
        if not fiber:
            mapping[a] = act.group.inv(a)
            continue
        images = {f[x] for x in fiber}
        targets = [b for b, g in sorted(fibers.items()) if images <= g]
        mapping[a] = targets[0] if len(targets) == 1 else None
    return {"fibers": {a: len(s) for a, s in fibers.items()}, "mapping": mapping}


def normalizer(group: FiniteGroup, delta) -> tuple[int, ...]:
    """Elements g with g delta g^-1 = delta; delta must be a subgroup."""
    sub = sorted(set(delta))
    w = group.subgroup_witness(sub)
    if w is not None:
        raise NotASubgroup(f"subset is not a subgroup: {w}", witness=w)
    dset = set(sub)
    out = []
    for g in group.elements():
        gi = group.inv(g)
        if {group.mul(group.mul(g, d), gi) for d in dset} == dset:
            out.append(g)
    return tuple(out)


def excess_domain(rel: Partition, within: Partition) -> frozenset[int]:
    """Points whose rel-class is not contained in their within-class."""
    out = set()
    for block in rel.blocks:
        for x in block:
            if any(not within.same(x, y) for y in block):
                out.add(x)
    return frozenset(out)
