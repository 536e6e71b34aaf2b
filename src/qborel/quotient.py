"""Quotient spaces over effective carriers.

A finite quotient is its Partition: classes are explicit blocks of the
points 0..n-1, and the quotient points are the class ids 0..k-1, ordered
by least member.  The integer carrier is its own quotient: the classes of
an integer relation are the blocks of a `carriers.IntBlockRelation`.

A partition from_pairs joins is kept for the `record.Run` (`_JOINED`, in
record's registry), so a certificate row that stores its blocks reads it
back (`Partition.joined`) instead of building it again.
"""

from __future__ import annotations

from .errors import InvalidPartition, clip
from .record import Frozen, Memo

# each partition from_pairs has joined in this run on an int n, by (n, blocks)
_JOINED = Memo()


class Partition(Frozen):
    """Partition of points 0..n-1 into blocks, canonically ordered."""

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...], class_of: tuple[int, ...]):
        self._set(n, blocks, class_of)

    def _key(self) -> tuple:
        return self.n, self.blocks  # class_of follows from the blocks

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
                    raise InvalidPartition(
                        f"point {clip(str(x))} outside 0..{n - 1}", witness=x
                    )
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

        A pair with a point outside 0..n-1 raises InvalidPartition.
        """
        label, members, _ = _components(n, pairs)
        # labels in order of first appearance are the blocks by least member
        order = dict.fromkeys(label)
        index = dict(zip(order, range(len(order))))
        blocks = tuple(tuple(sorted(members[c])) for c in order)
        partition = cls(n, blocks, tuple(map(index.__getitem__, label)))
        if type(n) is int:
            _JOINED.keep((n, blocks), partition)
        return partition

    @classmethod
    def joined(cls, n: int, blocks: list) -> "Partition":
        """from_blocks(n, blocks) for a list of lists of ints, read back when
        from_pairs has joined this partition in this run: n must be an int and
        the blocks its canonical blocks exactly. Any other n or blocks, a 5.0
        for 5 say, go to from_blocks, and pass or fail as they always have."""
        if _JOINED and type(n) is int:
            partition = _JOINED.get((n, tuple(map(tuple, blocks))))
            if partition is not None:
                return partition
        return cls.from_blocks(n, blocks)

    def generated_by(self, pairs) -> bool:
        """Whether the pairs generate exactly this partition, with no
        partition built: every pair lies in 0..n-1, the pairs make n - k
        joins for k classes, and the points take k distinct (component,
        class) labels. The k components then each lie in one class.
        """
        try:
            label, _, joins = _components(self.n, pairs)
        except InvalidPartition:
            return False
        k = len(self.blocks)
        return joins == self.n - k and len(set(zip(label, self.class_of))) == k

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(n, tuple((x,) for x in range(n)), tuple(range(n)))

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


def _components(n: int, pairs) -> tuple[list[int], list[list[int]], int]:
    """Union-find over 0..n-1: each point's component label, the members
    of each label, and the number of joins the pairs made.

    Each point carries its component's label; joining two components
    relabels the smaller one, so a pair inside one component costs two
    lookups.  A pair with a point outside 0..n-1 raises InvalidPartition.
    """
    label = list(range(n))
    members = [[x] for x in range(n)]
    joins = 0
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidPartition(
                f"pair ({a}, {b}) outside 0..{n - 1}", witness=(a, b)
            )
        keep, gone = label[a], label[b]
        if keep != gone:
            joins += 1
            if len(members[keep]) < len(members[gone]):
                keep, gone = gone, keep
            for x in members[gone]:
                label[x] = keep
            members[keep] += members[gone]
            members[gone] = []
    return label, members, joins
