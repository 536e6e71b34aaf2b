"""Periodic lifts of finite instances to the integer line.

A finite instance on the points 0..n-1 lifts to Z: the integer k*n + r
stands for point r in copy k.  A class C becomes the block of the
residues C mod n, and a map f becomes, on each residue r it holds, the
translation to f(r).  These are plain lifts: every copy shift (voltage)
is 0, so each copy is a copy of the finite instance, and an answer of
the integer lane on a plain lift is the finite lane's answer, lifted,
which reads back on any copy as the finite answer itself.

The lifts are instance texts, parsed as an instance file's are; the
readers take an integer-lane map back to a finite map with plain
arithmetic, so the known answer needs no integer carrier.
"""

from __future__ import annotations

from qborel.carriers import IntBlockRelation, PiecewiseTranslation, parse_intset, parse_ptmap


def residues_text(points, n: int) -> str:
    """The integers whose residue mod n is one of the points, as an IntSet text."""
    return "; ".join(f"{r - n}:-{n}*inf; {r}:+{n}*inf" for r in sorted(points))


def map_text(f: dict[int, int], n: int) -> str:
    """f lifted: on residue r, the translation to f(r), as a ptmap text."""
    return " | ".join(f"{residues_text([r], n)} -> {f[r] - r:+d}" for r in sorted(f)) or "empty"


def lift_classes(classes, n: int) -> IntBlockRelation:
    return IntBlockRelation.make([parse_intset(residues_text(c, n)) for c in classes])


def lift_map(f: dict[int, int], n: int) -> PiecewiseTranslation:
    return parse_ptmap(map_text(f, n))


def instance_text(classes, n: int, maps: dict[str, dict[int, int]]) -> str:
    """The plain lift as an instance file: relation B, and each map under its name."""
    blocks = ", ".join("{" + residues_text(c, n) + "}" for c in classes)
    lines = ["space Z carrier = int", f"rel B on Z blocks = {{ {blocks} }}"]
    lines += [f"ptmap {name} : Z : {map_text(f, n)}" for name, f in maps.items()]
    return "\n".join(lines) + "\n"


def on_copy(f: PiecewiseTranslation, n: int, k: int) -> dict[int, int]:
    """An integer-lane map read on copy k: r -> f(k*n + r) - k*n, where defined."""
    base = k * n
    images = ((r, f.get(base + r)) for r in range(n))
    return {r: y - base for r, y in images if y is not None}
