"""Seeded instance generators and independent oracles for the workloads.

A run is a number of rounds. Round r of R with seed s is a pure function
of (workload, s, r, R), so a seed fixes every instance the benchmark
feeds to qborel. Within a round, sizes are stratified: the size range is
cut into equal strata and each stratum gets one size, so every round
carries the stated size mix. Where a size falls inside its stratum (its
phase) differs from round to round, and the closure shapes and endpoints
come from a seeded lattice (see Draws); other details are drawn afresh
in each round. About one instance in ten is built to end in a known
typed error.

Each instance carries an oracle written here, not in qborel: it checks
the certificate's outputs against what the generator knows by
construction.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable

from semilinear import apply, member, parse_map, parse_set

# int-lane oracles evaluate maps on [-MARGIN, N + MARGIN]
MARGIN = 64
# breadth-first search in the orbit oracle may roam this far past the window
SLACK = 16
_GOLDEN = (5 ** 0.5 - 1) / 2
_SILVER = 2 ** 0.5 - 1
# item slots per round with their own size phase (Draws.phase)
_SLOTS = 32


@dataclass
class Spec:
    """One instance: the command to certify it with and its known answer."""

    command: str
    text: str
    args: tuple[str, ...]
    bucket: str
    # outputs -> None, or the reason the outputs are wrong
    oracle: Callable[[dict], str | None] | None
    expect_error: str | None = None
    # generate endpoints that lie in different classes by construction
    unrelated: bool = False


def _band(n: int, lo: int, hi: int, count: int = 4) -> str:
    width = (hi - lo + 1) / count
    i = min(count - 1, int((n - lo) / width))
    a = lo + math.ceil(i * width)
    b = lo + math.ceil((i + 1) * width) - 1
    return f"n{a}-{b}"


def _decade(span: int) -> str:
    e = min(3, int(math.log10(span)))
    return f"N1e{e}-1e{e + 1}"


@dataclass
class Draws:
    """The seeded numbers that place one round of a run of `rounds` rounds.

    phase(slot) is where the size of a round's item `slot` falls inside
    its stratum. Over the run a slot's phases are evenly spaced,
    index / rounds, each slot rotated by its own seeded offset, so the
    rounds together cut every stratum into `rounds` equal parts and the
    run's size mix hardly depends on the seed. point() does the same for
    triples of uniform fractions: the run's `slots` items per round
    together form a lattice in the unit cube (an even grid in one
    coordinate, golden- and silver-ratio steps in the others), rotated
    by seeded offsets.
    """

    index: int
    rounds: int
    offsets: tuple[float, ...]

    @classmethod
    def make(cls, workload: str, seed: int, index: int, rounds: int) -> "Draws":
        rng = random.Random(f"{workload}:{seed}")
        return cls(index, rounds, tuple(rng.random() for _ in range(3 + _SLOTS)))

    def phase(self, slot: int) -> float:
        return (self.offsets[3 + slot] + self.index / self.rounds) % 1.0

    def strata(self, first_slot: int, lo: int, hi: int, count: int) -> list[int]:
        """One integer from each of `count` equal strata of [lo, hi]."""
        width = (hi - lo + 1) / count
        return [
            min(hi, lo + int((s + self.phase(first_slot + s)) * width)) for s in range(count)
        ]

    def log_strata(self, first_slot: int, lo_exp: float, hi_exp: float, count: int) -> list[int]:
        """One value from each of `count` log-uniform strata of [10^lo, 10^hi]."""
        step = (hi_exp - lo_exp) / count
        return [
            round(10 ** (lo_exp + (s + self.phase(first_slot + s)) * step)) for s in range(count)
        ]

    def point(self, slot: int, slots: int) -> tuple[float, float, float]:
        j = self.index * slots + slot
        return (
            (self.offsets[0] + j / (slots * self.rounds)) % 1.0,
            (self.offsets[1] + j * _GOLDEN) % 1.0,
            (self.offsets[2] + j * _SILVER) % 1.0,
        )


# ---------------------------------------------------------------------------
# finite lane


def _map_line(name: str, space: str, entries) -> str:
    body = ", ".join(f"{x} -> {y}" for x, y in entries)
    return f"map {name} : {space} -> {space} : {body}"


def _components(n: int, pairs) -> list[list[int]]:
    """Classes joined by the pairs, by union-find, least member first."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values())


def _canonical(classes) -> list[list[int]]:
    return sorted(sorted(c) for c in classes)


def _total_bijection_within(pairs, n: int, class_of) -> str | None:
    f = {}
    for x, y in pairs:
        if x in f:
            return f"{x} mapped twice"
        f[x] = y
    if sorted(f) != list(range(n)) or sorted(f.values()) != list(range(n)):
        return "not a total bijection"
    for x, y in f.items():
        if class_of[x] != class_of[y]:
            return f"pair ({x}, {y}) leaves its class"
    return None


def _fm_spec(rng, command: str, n: int, k: int, drop: bool = False) -> Spec:
    """Random classes of size 1..k enumerated by k cyclic-shift graphs.

    With drop, one non-identity shift is left out of the relation and the
    first class has exactly k members, so the family misses that offset
    on it and cannot be an enumeration.
    """
    points = list(range(n))
    rng.shuffle(points)
    classes, i = [], 0
    while i < n:
        m = k if drop and not classes else rng.randint(1, k)
        classes.append(points[i:i + m])
        i += m
    class_of = [0] * n
    for ci, c in enumerate(classes):
        for x in c:
            class_of[x] = ci
    lines = [f"space Q carrier = finite({n})"]
    for j in range(k):
        shift = {c[a]: c[(a + j) % len(c)] for c in classes for a in range(len(c))}
        lines.append(_map_line(f"s{j}", "Q", sorted(shift.items())))
    graphs = [f"s{j}" for j in range(k)]
    if drop:
        graphs.remove(f"s{rng.randint(1, k - 1)}")
    lines.append(f"rel F on Q graphs = [{', '.join(graphs)}]")
    seed = {}
    if command == "cover":
        for c in classes:
            if len(c) > 1 and rng.random() < 0.5:
                sources = rng.sample(c, rng.randint(1, len(c)))
                seed.update(zip(sources, rng.sample(c, len(sources))))
        if not seed:
            c = max(classes, key=len)
            seed[c[0]] = c[-1]
        lines.append(_map_line("g0", "Q", sorted(seed.items())))
        lines.append("set g0 = g0")
    lines.append("set rel = F")
    text = "\n".join(lines) + "\n"
    bucket = _band(n, 40, 140)
    if drop:
        return Spec(command, text, (), bucket, None, expect_error="NotAnEnumeration")
    expected = _canonical(classes)

    def quotient_oracle(out):
        if out.get("classes") != len(classes):
            return "class count differs"
        if out.get("psi_count") != k * k:
            return "psi count differs from k^2"
        pairs = []
        for g in out["generators"]:
            why = _total_bijection_within(g, n, class_of)
            if why:
                return f"generator: {why}"
            pairs.extend(g)
        if _components(n, pairs) != expected:
            return "generators do not generate the relation"
        return None

    def cover_oracle(out):
        cover = set()
        for key in ("first", "second"):
            why = _total_bijection_within(out[key], n, class_of)
            if why:
                return f"{key}: {why}"
            cover.update(map(tuple, out[key]))
        ext = {}
        for x, y in out["extension"]:
            if x in ext or class_of[x] != class_of[y]:
                return "extension is not an injection inside the classes"
            ext[x] = y
        if len(set(ext.values())) != len(ext):
            return "extension is not injective"
        if any(ext.get(x) != y for x, y in seed.items()):
            return "extension drops a seed pair"
        for f in (seed, ext):
            for x, y in f.items():
                if (x, y) not in cover or (y, x) not in cover:
                    return f"pair ({x}, {y}) or its inverse is outside the cover"
        return None

    oracle = cover_oracle if command == "cover" else quotient_oracle
    return Spec(command, text, (), bucket, oracle)


def finite_fm(rng, draws: Draws) -> list[Spec]:
    """fm-quotient and cover at 2:1 over n in [40, 140], k in [3, 6]."""
    specs = []
    for k in range(3, 7):
        for s, n in enumerate(draws.strata(6 * (k - 3), 40, 140, 6)):
            command = "cover" if (s + k) % 3 == 0 else "fm-quotient"
            specs.append(_fm_spec(rng, command, n, k))
    for command in ("fm-quotient", "fm-quotient", "cover"):
        n, k = rng.randint(40, 140), rng.randint(3, 6)
        specs.append(_fm_spec(rng, command, n, k, drop=True))
    return specs


# ---------------------------------------------------------------------------
# integer lane

_IDENTITY = "..-1; 0.. -> +0"


def _two_ray(span: int, v: float, w: float):
    """Rays {..-1} and {N..} with a hole of N singletons between them."""
    maps = {
        "idz": _IDENTITY,
        "up": f"..-2 -> +1 | {span}.. -> +1",
        "down": f"..-1 -> -1 | {span + 1}.. -> -1",
    }
    s = int(8 * w)
    seed = f"{span + s}.. -> +1" if v < 0.5 else f"..{-2 - s} -> +1"
    return ["..-1", f"{span}.."], maps, seed


def _parity_rays(span: int, v: float, w: float):
    """{..-1} plus the two parity classes of {N..}, joined by steps of 2."""
    maps = {
        "idz": _IDENTITY,
        "up": f"..-2 -> +1 | {span}.. -> +2",
        "down": f"..-1 -> -1 | {span + 2}.. -> -2",
    }
    seed = f"{span + int(2 * v) + 2 * int(4 * w)}:+2*inf -> +2"
    return ["..-1", f"{span}:+2*inf", f"{span + 1}:+2*inf"], maps, seed


def _segment(span: int, v: float, w: float):
    """One finite block {0..N} that the unit steps generate but do not enumerate.

    No finite family of unit steps closes the chain from N back to 0, so
    the greedy extension of any shift seed stays non-maximal.
    """
    maps = {"idz": _IDENTITY, "up": f"0..{span - 1} -> +1", "down": f"1..{span} -> -1"}
    return [f"0..{span}"], maps, f"0..{1 + int(w * (span // 2))} -> +1"


def _int_spec(command: str, span: int, family, v: float, w: float) -> Spec:
    """An instance of a family at span N; v and w place its cover seed."""
    blocks, maps, seed = family(span, v, w)
    lines = ["space Z carrier = int"]
    lines += [f"ptmap {name} : Z : {text}" for name, text in maps.items()]
    lines.append("rel F on Z blocks = { " + ", ".join("{" + b + "}" for b in blocks) + " }")
    if command == "cover":
        lines += [f"ptmap g0 : Z : {seed}", "set g0 = g0"]
    lines += ["set rel = F", f"set maps = {','.join(maps)}"]
    text = "\n".join(lines) + "\n"
    bucket = _decade(span)
    if family is _segment:
        return Spec(command, text, (), bucket, None, expect_error="NotMaximal")

    block_terms = [parse_set(b) for b in blocks]
    map_pieces = [parse_map(t) for t in maps.values()]
    window = range(-MARGIN, span + MARGIN + 1)

    def related(x, y):
        return x == y or any(member(b, x) and member(b, y) for b in block_terms)

    def check_bijection(name, f):
        seen = set()
        for x in window:
            y = apply(f, x)
            if y is None:
                return f"{name} undefined at {x}"
            if not related(x, y):
                return f"{name} leaves the relation at {x}"
            if y in seen:
                return f"{name} is not injective at {x}"
            seen.add(y)
        return None

    def cover_oracle(out):
        first, second = parse_map(out["first"]), parse_map(out["second"])
        for name, f in (("first", first), ("second", second)):
            why = check_bijection(name, f)
            if why:
                return why
        g0, ext = parse_map(seed), parse_map(out["extension"])
        for x in window:
            y0, y = apply(g0, x), apply(ext, x)
            if y0 is not None and y != y0:
                return f"extension drops the seed pair at {x}"
            if y is None:
                continue
            if not related(x, y):
                return f"extension leaves the relation at {x}"
            if y not in (apply(first, x), apply(second, x)):
                return f"pair ({x}, {y}) is outside the cover"
            if x not in (apply(first, y), apply(second, y)):
                return f"pair ({y}, {x}) is outside the cover"
        return None

    def quotient_oracle(out):
        if out.get("psi_count") != len(maps) ** 2:
            return "psi count differs"
        gens = [parse_map(t) for t in out["generators"]]
        lo, hi = -MARGIN - SLACK, span + MARGIN + SLACK
        nbrs: dict[int, set[int]] = {}
        for i, g in enumerate(gens):
            why = check_bijection(f"generator {i}", g)
            if why:
                return why
            for x in range(lo, hi + 1):
                y = apply(g, x)
                if y is not None and y != x and lo <= y <= hi:
                    nbrs.setdefault(x, set()).add(y)
                    nbrs.setdefault(y, set()).add(x)
        for b in block_terms:
            points = [x for x in window if member(b, x)]
            seen, frontier = {points[0]}, [points[0]]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in nbrs.get(x, ()):
                        if y not in seen and member(b, y):
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            missing = [x for x in points if x not in seen]
            if missing:
                return f"orbit of {points[0]} misses {missing[0]}"
        return None

    def uniformize_oracle(out):
        sel = parse_map(out["selection"])
        for x in window:
            want = next((y for f in map_pieces if (y := apply(f, x)) is not None), None)
            if apply(sel, x) != want:
                return f"selection at {x} is not the least-index image"
        return None

    oracle = {
        "cover": cover_oracle,
        "fm-quotient": quotient_oracle,
        "uniformize": uniformize_oracle,
    }[command]
    return Spec(command, text, (), bucket, oracle)


def int_span(rng, draws: Draws) -> list[Spec]:
    """cover, uniformize and fm-quotient at coordinate span N.

    N is log-uniform over 10^2..10^4, and over 10^2..10^3 for fm-quotient,
    whose cost grows as span times pieces. The two families alternate
    over strata and rounds; the cover seeds come from Draws.point.
    """
    families = (_two_ray, _parity_rays)
    specs = []
    commands = (("cover", 4), ("uniformize", 4), ("fm-quotient", 3))
    for c, (command, hi_exp) in enumerate(commands):
        for s, span in enumerate(draws.log_strata(6 * c, 2, hi_exp, 6)):
            _, v, w = draws.point(6 * c + s, 18)
            family = families[(s + draws.index) % 2]
            specs.append(_int_spec(command, span, family, v, w))
    for command, hi_exp in (("cover", 4), ("fm-quotient", 3)):
        span = round(10 ** rng.uniform(2, hi_exp))
        specs.append(_int_spec(command, span, _segment, rng.random(), rng.random()))
    return specs


# ---------------------------------------------------------------------------
# deep closures


def _closure_text(n: int, entries, extra: str = "") -> str:
    return f"space S carrier = finite({n})\n{_map_line('f', 'S', entries)}\n{extra}"


def _duplicate(rng, entries: list) -> list:
    """Entries with one source listed twice: the instance parser must refuse it."""
    x, _ = rng.choice(entries)
    return entries + [(x, x)]


def _generate_spec(rng, n: int, gaps: set[int], x: int, y: int, broken=False) -> Spec:
    """A successor path on n points, cut after each point in gaps."""
    entries = [(i, i + 1) for i in range(n - 1) if i not in gaps]
    args = ("--x", str(x), "--y", str(y))
    bucket = _band(n, 30, 90)
    if broken:
        text = _closure_text(n, _duplicate(rng, entries), "set maps = f\n")
        return Spec("generate", text, args, bucket, None, expect_error="InstanceSyntaxError")
    text = _closure_text(n, entries, "set maps = f\n")
    classes, cur = [], [0]
    for i in range(1, n):
        if i - 1 in gaps:
            classes.append(cur)
            cur = []
        cur.append(i)
    classes.append(cur)
    unrelated = not any(x in c and y in c for c in classes)

    def oracle(out):
        if out.get("blocks") != classes:
            return "closure partition differs from the path components"
        if out.get("stabilized_after") != max(len(c) for c in classes) - 1:
            return "stabilization index differs from the longest component"
        chain = out.get("chain")
        if unrelated:
            return "chain joins unrelated points" if chain else None
        if not chain or len(chain) != abs(x - y) + 1 or chain[0] != f"start {x}":
            return "chain is not a shortest path"
        cur = x
        for step in chain[1:]:
            nxt = int(step.rsplit(" ", 1)[1])
            word = "forward" if nxt == cur + 1 else "reverse"
            if abs(nxt - cur) != 1 or step != f"{word} f0 -> {nxt}":
                return f"chain step {step!r} is not a path edge"
            cur = nxt
        return None if cur == y else "chain ends elsewhere"

    return Spec("generate", text, args, bucket, oracle, unrelated=unrelated)


def _tail_spec(rng, n: int, roots: set[int], broken: bool = False) -> Spec:
    """A descending functional graph: each point steps down to a root.

    Multiples of 3 step by 2 and the other points by 1, so the graph is
    a tree with branches; the roots (0 among them) are fixed points.
    """
    f = {x: x if x in roots else max(0, x - 1 - (x % 3 == 0)) for x in range(n)}
    entries = sorted(f.items())
    bucket = _band(n, 30, 90)
    if broken:
        text = _closure_text(n, _duplicate(rng, entries))
        return Spec("tail", text, (), bucket, None, expect_error="InstanceSyntaxError")
    groups: dict[int, list[int]] = {}
    for x in range(n):
        r = x
        while f[r] != r:
            r = f[r]
        groups.setdefault(r, []).append(x)
    classes = sorted(groups.values())

    def oracle(out):
        return None if out.get("blocks") == classes else "tail classes differ from the basins"

    return Spec("tail", _closure_text(n, entries), (), bucket, oracle)


def _path_gaps(n: int, count: int, w: float) -> set[int]:
    """Gaps at fractions a k / count (k = 1..count) of the path, a = 0.5 + 0.45 w."""
    a = 0.5 + 0.45 * w
    return _cuts([a * (k + 1) / count for k in range(count)], 0, n - 2)


def _cuts(fractions, lo: int, hi: int) -> set[int]:
    """The points of lo..hi at the given fractions of the range."""
    return {lo + round(fr * (hi - lo)) for fr in fractions}


def closure_chain(rng, draws: Draws) -> list[Spec]:
    """generate and tail at 2:1 over n in [30, 90].

    A closure's cost grows as the cube of its longest chain, so chain
    lengths are spread like the sizes. The gap count g (1..3) and the
    extra root count (0..3) cycle over strata and rounds. A path's first
    gap falls at a fraction a of it, uniform over [0.5, 0.95), and the
    other g - 1 cut [0, a) evenly; extra roots sit at evenly spaced
    fractions shifted by a uniform amount. Those fractions and the
    uniform endpoints x and y come from Draws.point, which keeps the
    run's mix of chain lengths, and the share of unrelated endpoints that
    decides which instances fail, steady from seed to seed.
    """
    specs = []
    for s, n in enumerate(draws.strata(0, 30, 90, 12)):
        u, v, w = draws.point(s, 18)
        specs.append(_generate_spec(rng, n, _path_gaps(n, 1 + (s + draws.index) % 3, w),
                                    int(u * n), int(v * n)))
    for s, n in enumerate(draws.strata(12, 30, 90, 6)):
        extra = (s + draws.index) % 4
        w = draws.point(12 + s, 18)[2]
        roots = {0} | _cuts([(k + w) / (extra + 1) for k in range(extra)], 1, n - 1)
        specs.append(_tail_spec(rng, n, roots))
    n = rng.randint(30, 90)
    gaps = _path_gaps(n, rng.randint(1, 3), rng.random())
    specs.append(_generate_spec(rng, n, gaps, rng.randrange(n), rng.randrange(n), True))
    n = rng.randint(30, 90)
    specs.append(_tail_spec(rng, n, {0, *rng.sample(range(1, n), rng.randint(0, 3))}, True))
    return specs


WORKLOADS = {"finite_fm": finite_fm, "int_span": int_span, "closure_chain": closure_chain}


def make_round(workload: str, seed: int, index: int, rounds: int) -> list[Spec]:
    """Round `index` of a run of `rounds` rounds, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    specs = WORKLOADS[workload](rng, Draws.make(workload, seed, index, rounds))
    rng.shuffle(specs)
    return specs


def round_digest(workload: str, seed: int) -> str:
    """sha256 of the bytes of round 0: its commands, flags and instance files."""
    h = hashlib.sha256()
    for spec in make_round(workload, seed, 0, 1):
        h.update(" ".join((spec.command, *spec.args)).encode() + b"\n")
        h.update(spec.text.encode())
    return h.hexdigest()
