"""Quotient spaces over effective carriers.

A quotient space is a carrier plus an effective partition; its points are
the classes.  On finite carriers classes are explicit blocks and quotient
points are indices 0..k-1, ordered by least carrier representative.  On
the integer carrier a partition is a finite list of disjoint IntSet
descriptors covering the ambient set; without a partition the quotient
is discrete and its points are the integers themselves.

Maps between finite quotients are total tables on quotient points.
lift sends a quotient map to a carrier map via canonical representatives;
descend checks a carrier map against the partitions and projects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .carriers import FiniteCarrier, IntCarrier, IntSet, _zero_order
from .errors import (
    EndpointMismatch,
    InvalidPartition,
    NotAMorphism,
    UnsupportedCarrier,
)


@dataclass(frozen=True)
class Partition:
    """Partition of points 0..n-1 into blocks, canonically ordered."""

    n: int
    blocks: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...] = field(compare=False)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        # a set, not n cells: n may be a stored count far above the points listed
        seen = set()
        canon = []
        for b in blocks:
            bs = tuple(sorted(set(b)))
            if not bs:
                continue
            for x in bs:
                if not 0 <= x < n:
                    raise InvalidPartition(f"point {x} outside 0..{n - 1}", witness=x)
                if x in seen:
                    raise InvalidPartition(f"point {x} in two blocks", witness=x)
                seen.add(x)
            canon.append(bs)
        if len(seen) < n:
            missing = next(x for x in range(n) if x not in seen)
            raise InvalidPartition(f"point {missing} not covered", witness=missing)
        canon.sort(key=lambda b: b[0])
        class_of = [0] * n
        for i, b in enumerate(canon):
            for x in b:
                class_of[x] = i
        return cls(n, tuple(canon), tuple(class_of))

    @classmethod
    def from_class_map(cls, class_of) -> "Partition":
        groups: dict[int, list[int]] = {}
        for x, c in enumerate(class_of):
            groups.setdefault(c, []).append(x)
        return cls.from_blocks(len(class_of), groups.values())

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Partition":
        """Finest partition joining the given pairs (symmetric closure).

        Each point carries its component's label; joining two components
        relabels the smaller one, so a pair inside one component costs two
        lookups.  A pair with a point outside 0..n-1 raises InvalidPartition.
        """
        label = list(range(n))
        members = [[x] for x in range(n)]
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidPartition(
                    f"pair ({a}, {b}) outside 0..{n - 1}", witness=(a, b)
                )
            keep, gone = label[a], label[b]
            if keep != gone:
                if len(members[keep]) < len(members[gone]):
                    keep, gone = gone, keep
                for x in members[gone]:
                    label[x] = keep
                members[keep] += members[gone]
                members[gone] = []
        # labels in order of first appearance are the blocks by least member
        order = dict.fromkeys(label)
        index = dict(zip(order, range(len(order))))
        return cls(
            n,
            tuple(tuple(sorted(members[c])) for c in order),
            tuple(map(index.__getitem__, label)),
        )

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(n, tuple((x,) for x in range(n)), tuple(range(n)))

    @classmethod
    def indiscrete(cls, n: int) -> "Partition":
        return cls.from_blocks(n, [list(range(n))])

    @property
    def num_classes(self) -> int:
        return len(self.blocks)

    def same(self, x: int, y: int) -> bool:
        return self.class_of[x] == self.class_of[y]

    def block_of(self, x: int) -> tuple[int, ...]:
        return self.blocks[self.class_of[x]]

    def index(self) -> int:
        """Largest class size."""
        return max((len(b) for b in self.blocks), default=0)

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (x, y) for b in self.blocks for x in b for y in b
        )

@dataclass(frozen=True)
class FiniteQuotient:
    """Finite carrier modulo an explicit partition; points are class ids."""

    carrier: FiniteCarrier
    partition: Partition

    def __post_init__(self):
        if self.partition.n != self.carrier.size:
            raise InvalidPartition(
                f"partition over {self.partition.n} points, carrier has {self.carrier.size}"
            )

    @property
    def size(self) -> int:
        return self.partition.num_classes

    def points(self) -> range:
        return range(self.size)

    def project(self, x: int) -> int:
        return self.partition.class_of[x]

    def rep(self, q: int) -> int:
        """Canonical representative: least carrier point of the class."""
        return self.partition.blocks[q][0]

    def class_members(self, q: int) -> tuple[int, ...]:
        return self.partition.blocks[q]


@dataclass(frozen=True)
class IntQuotient:
    """Discrete quotient of the integer carrier: points are the integers."""

    carrier: IntCarrier = IntCarrier()

    @property
    def ambient(self) -> IntSet:
        return self.carrier.ambient

    def project(self, x: int) -> int:
        return x

    def rep(self, q: int) -> int:
        return q


@dataclass(frozen=True)
class IntClassQuotient:
    """Integer carrier modulo finitely many IntSet descriptors."""

    carrier: IntCarrier
    classes: tuple[IntSet, ...]

    @classmethod
    def make(cls, carrier: IntCarrier, descriptors) -> "IntClassQuotient":
        descs = [d for d in descriptors]
        for i in range(len(descs)):
            if descs[i].is_empty():
                raise InvalidPartition("empty class descriptor", witness=i)
            for j in range(i + 1, len(descs)):
                both = descs[i].intersect(descs[j])
                if not both.is_empty():
                    raise InvalidPartition(
                        f"descriptors {i} and {j} overlap",
                        witness=both.closest_to_zero(),
                    )
        union = IntSet.empty().union(*descs)
        if union != carrier.ambient:
            leftover = carrier.ambient.difference(union)
            if not leftover.is_empty():
                raise InvalidPartition(
                    "descriptors do not cover the ambient set",
                    witness=leftover.closest_to_zero(),
                )
            extra = union.difference(carrier.ambient)
            raise InvalidPartition(
                "descriptors leave the ambient set",
                witness=extra.closest_to_zero(),
            )
        descs.sort(key=lambda d: _zero_order(d.closest_to_zero()))
        return cls(carrier, tuple(descs))

    @property
    def size(self) -> int:
        return len(self.classes)

    def points(self) -> range:
        return range(self.size)

    def project(self, x: int) -> int:
        for i, d in enumerate(self.classes):
            if x in d:
                return i
        raise KeyError(x)

    def rep(self, q: int) -> int:
        return self.classes[q].closest_to_zero()

def saturate(space, subset):
    """Smallest class-closed superset of a carrier subset."""
    if isinstance(space, FiniteQuotient):
        out = set()
        for x in subset:
            out.update(space.partition.block_of(x))
        return frozenset(out)
    if isinstance(space, IntClassQuotient):
        return IntSet.empty().union(
            *(d for d in space.classes if not d.intersect(subset).is_empty())
        )
    if isinstance(space, IntQuotient):
        return subset
    raise UnsupportedCarrier(f"cannot saturate over {space!r}")


# ---------------------------------------------------------------------------
# maps between finite quotients


@dataclass(frozen=True)
class QMap:
    """Total map between finite quotient point sets."""

    src: FiniteQuotient
    dst: FiniteQuotient
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.src.size:
            raise ValueError("table length differs from source size")
        for q, v in enumerate(self.table):
            if not 0 <= v < self.dst.size:
                raise ValueError(f"value {v} at {q} outside target")

    def __call__(self, q: int) -> int:
        return self.table[q]

    @classmethod
    def identity(cls, space: FiniteQuotient) -> "QMap":
        return cls(space, space, tuple(space.points()))


def compose(g: QMap, f: QMap) -> QMap:
    """g after f (apply f first)."""
    if f.dst != g.src:
        raise EndpointMismatch("target of first map differs from source of second")
    return QMap(f.src, g.dst, tuple(g.table[v] for v in f.table))


def lift(f: QMap) -> tuple[int, ...]:
    """Carrier map x -> rep(f(class of x)) inducing f."""
    src, dst = f.src, f.dst
    return tuple(dst.rep(f(src.project(x))) for x in range(src.carrier.size))


def descend(g, src: FiniteQuotient, dst: FiniteQuotient) -> QMap:
    """Project a carrier map to quotient points; NotAMorphism with witness."""
    table = [None] * src.size
    for q in src.points():
        members = src.class_members(q)
        targets = {dst.project(g[x]) for x in members}
        if len(targets) > 1:
            xs = sorted(members, key=lambda x: dst.project(g[x]))
            raise NotAMorphism(
                f"class {q} maps into {len(targets)} classes",
                witness=(xs[0], xs[-1]),
            )
        table[q] = targets.pop()
    return QMap(src, dst, tuple(table))


def image(f: QMap, subset: frozenset[int]) -> frozenset[int]:
    return frozenset(f(q) for q in subset)


def preimage(f: QMap, subset: frozenset[int]) -> frozenset[int]:
    return frozenset(q for q in f.src.points() if f(q) in subset)


# ---------------------------------------------------------------------------
# finite products


@dataclass(frozen=True)
class ProductSpace:
    """Product of two finite quotients with its coordinate bookkeeping."""

    space: FiniteQuotient
    left: FiniteQuotient
    right: FiniteQuotient

    def encode_carrier(self, x: int, y: int) -> int:
        return x * self.right.carrier.size + y

    def decode_carrier(self, z: int) -> tuple[int, int]:
        n2 = self.right.carrier.size
        return divmod(z, n2)

    def encode_point(self, a: int, b: int) -> int:
        return a * self.right.size + b

    def decode_point(self, q: int) -> tuple[int, int]:
        return divmod(q, self.right.size)

    def projections(self) -> tuple[QMap, QMap]:
        p1 = QMap(self.space, self.left, tuple(
            self.decode_point(q)[0] for q in self.space.points()
        ))
        p2 = QMap(self.space, self.right, tuple(
            self.decode_point(q)[1] for q in self.space.points()
        ))
        return p1, p2


def product(q1, q2) -> ProductSpace:
    """Product quotient of two finite quotients.

    Carrier pairs are numbered x*|carrier2| + y; classes are block
    products, so quotient point (a, b) gets index a*|Q2| + b.
    """
    if not (isinstance(q1, FiniteQuotient) and isinstance(q2, FiniteQuotient)):
        raise UnsupportedCarrier("products are defined for finite quotients")
    n2 = q2.carrier.size
    carrier = FiniteCarrier(q1.carrier.size * n2)
    blocks = []
    for b1 in q1.partition.blocks:
        for b2 in q2.partition.blocks:
            blocks.append([x * n2 + y for x in b1 for y in b2])
    space = FiniteQuotient(carrier, Partition.from_blocks(carrier.size, blocks))
    ps = ProductSpace(space, q1, q2)
    # block products are ordered (least of b1, least of b2), matching encode_point
    for a in q1.points():
        for b in q2.points():
            assert space.project(ps.encode_carrier(q1.rep(a), q2.rep(b))) == ps.encode_point(a, b)
    return ps


def pair(f1: QMap, f2: QMap, prod: ProductSpace) -> QMap:
    """The map q -> (f1(q), f2(q)) into a product space."""
    if f1.src != f2.src:
        raise EndpointMismatch("paired maps must share their source")
    if f1.dst != prod.left or f2.dst != prod.right:
        raise EndpointMismatch("pair target differs from the product factors")
    return QMap(f1.src, prod.space, tuple(
        prod.encode_point(f1(q), f2(q)) for q in f1.src.points()
    ))
