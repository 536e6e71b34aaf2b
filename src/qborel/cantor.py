"""Symbolic sequence space on eventually periodic words.

A point is an infinite sequence over a digit alphabet, stored as a
preperiod plus a repeating block. On this subspace eventual equality
and equality up to shifts are exactly decidable. Finite truncated models
bridge the same constructions onto indexed carriers for the pipeline in
feldman_moore.
"""

from __future__ import annotations

import itertools
from math import lcm

from .actions import (
    FiniteGroup,
    GroupAction,
    cocycle_from_free_action,
    excess_domain,
    freeness_witness,
    involution_fiber_report,
    normalizer,
    orbit_equivalence,
    verify_cocycle,
)
from .errors import AlphabetMismatch, BadParameters, NotASelector, UnknownExample
from .quotient import Partition
from .record import Frozen, Record
from .relations import (
    generate_equivalence,
    index2_involution,
    index_over,
    selector_to_transversal,
)


def _check_letters(s: str, k: int):
    for ch in s:
        if not ch.isdigit() or int(ch) >= k:
            raise ValueError(f"letter {ch!r} outside alphabet of size {k}")


def _primitive_root(w: str) -> str:
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d]
    raise AssertionError("every word is a power of itself")


class EventuallyPeriodicWord(Frozen):
    """A sequence u . w w w ... in canonical form.

    The repeating block is primitive and the preperiod is as short as
    possible, so two values are equal exactly when they denote the same
    sequence. Build through canonicalize(), not the raw constructor.
    """

    def __init__(self, k: int, u: str, w: str):
        self._set(k, u, w)

    def letter_at(self, i: int) -> int:
        if i < len(self.u):
            return int(self.u[i])
        return int(self.w[(i - len(self.u)) % len(self.w)])

    def __str__(self) -> str:
        return f"{self.u}|{self.w}"


def canonicalize(u: str, w: str, k: int) -> EventuallyPeriodicWord:
    """Shrink (u, w) to the unique shortest presentation."""
    if not w:
        raise ValueError("repeating block must be nonempty")
    if not 2 <= k <= 10:
        raise ValueError("alphabet size must be between 2 and 10")
    _check_letters(u, k)
    _check_letters(w, k)
    w = _primitive_root(w)
    while u and u[-1] == w[-1]:
        w = w[-1] + w[:-1]
        u = u[:-1]
    return EventuallyPeriodicWord(k, u, w)


def e0_equivalent(x: EventuallyPeriodicWord, y: EventuallyPeriodicWord) -> bool:
    """Do the sequences agree from some position on?

    Both tails repeat with period lcm(|w_x|, |w_y|) past the longer
    preperiod, so checking one full window there decides it.
    """
    if x.k != y.k:
        raise AlphabetMismatch(f"alphabet sizes {x.k} and {y.k} differ")
    start = max(len(x.u), len(y.u))
    span = lcm(len(x.w), len(y.w))
    return all(x.letter_at(i) == y.letter_at(i) for i in range(start, start + span))


def et_equivalent(x: EventuallyPeriodicWord, y: EventuallyPeriodicWord) -> bool:
    """Are some shifts of the two sequences equal?

    Shifting far enough leaves a purely periodic word whose block runs
    through every rotation, and the preperiods disappear entirely; so
    the question reduces to whether the primitive blocks are rotations
    of one another.
    """
    if x.k != y.k:
        raise AlphabetMismatch(f"alphabet sizes {x.k} and {y.k} differ")
    return len(x.w) == len(y.w) and x.w in y.w + y.w


# ---------------------------------------------------------------------------
# finite truncated models


class TruncatedModel(Frozen):
    """Length-n words over k letters modulo agreement on positions >= t.

    Classes are suffix fibers: k^(n-t) of them, k^t points each, unless
    the carrier was restricted first. The threshold is a modeling dial:
    t = 0 collapses to equality and t = n to a single class.
    """

    def __init__(
        self, k: int, n: int, t: int, words: tuple[str, ...], quotient: Partition,
        restricted: bool = False
    ):
        # quotient: of the word indices, into suffix fibers
        self._set(k, n, t, words, quotient, restricted)

    def word_index(self, word: str) -> int:
        return self.words.index(word)

    def suffix_of(self, word: str) -> str:
        return word[self.t:]

    def class_of_word(self, word: str) -> int:
        return self.quotient.class_of[self.word_index(word)]


def _all_words(k: int, n: int) -> list[str]:
    return ["".join(map(str, tup)) for tup in itertools.product(range(k), repeat=n)]


def _suffix_partition(words, t: int) -> Partition:
    by_suffix: dict[str, list[int]] = {}
    for i, word in enumerate(words):
        by_suffix.setdefault(word[t:], []).append(i)
    return Partition.from_blocks(len(words), list(by_suffix.values()))


MAX_MODEL_WORDS = 256  # the shipped gallery models have at most 27 words


def _check_alphabet(k: int):
    if not 2 <= k <= 10:
        raise BadParameters(f"alphabet size {k} outside 2..10")


def _check_model_params(k: int, n: int, t: int):
    _check_alphabet(k)
    if n < 1:
        raise BadParameters(f"word length {n} must be positive")
    # k >= 2, so a length of bit_length(cap) already exceeds the cap: no huge power
    if n >= MAX_MODEL_WORDS.bit_length() or k**n > MAX_MODEL_WORDS:
        raise BadParameters(f"{k}**{n} words exceed the model cap of {MAX_MODEL_WORDS}")
    if not 0 <= t < n:
        raise BadParameters(f"threshold {t} outside 0..{n - 1}")


def make_truncated_model(k: int, n: int, t: int) -> TruncatedModel:
    _check_model_params(k, n, t)
    words = tuple(_all_words(k, n))
    return TruncatedModel(k, n, t, words, _suffix_partition(words, t))


def _fixed_by_some_nonidentity(word: str, k: int) -> bool:
    for sigma in itertools.permutations(range(k)):
        if sigma == tuple(range(k)):
            continue
        if all(sigma[int(c)] == int(c) for c in word):
            return True
    return False


def make_restricted_model(k: int, n: int, t: int) -> TruncatedModel:
    """Truncated model keeping only words whose suffix no nonidentity
    letter permutation fixes; whole suffix fibers survive or drop, and
    the S_k action stays within the remaining carrier."""
    _check_model_params(k, n, t)
    words = tuple(
        w for w in _all_words(k, n) if not _fixed_by_some_nonidentity(w[t:], k)
    )
    if not words:
        raise BadParameters(
            f"no suffix over {k} letters escapes every nonidentity permutation"
        )
    return TruncatedModel(k, n, t, words, _suffix_partition(words, t), restricted=True)


def _word_image(perm, word: str) -> str:
    return "".join(str(perm[int(c)]) for c in word)


def letter_action(model: TruncatedModel) -> GroupAction:
    """The full symmetric group acting letterwise on quotient classes."""
    group = FiniteGroup.symmetric(model.k)
    maps = []
    for a in group.elements():
        perm = group.permutation_of(a)
        row = []
        for block in model.quotient.blocks:
            image = _word_image(perm, model.words[block[0]])
            row.append(model.class_of_word(image))
        maps.append(tuple(row))
    return GroupAction(group, model.quotient.num_classes, tuple(maps))


# ---------------------------------------------------------------------------
# packaged instances


class GalleryInstance(Record):
    """A built example: parameters, headline values, and pass/fail checks."""

    def __init__(
        self, name: str, params: dict, summary: dict, checks: dict[str, bool], data: dict
    ):
        self._set(name, params, summary, checks, data)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _sym_indices(group: FiniteGroup, predicate) -> list[int]:
    """The elements of a symmetric group whose letter permutation satisfies predicate."""
    return [a for a in group.elements() if predicate(group.permutation_of(a))]


def _check_flip_alphabet(k: int):
    """The flip instances take two letters: refused before a model is built."""
    _check_alphabet(k)
    if k != 2:
        raise BadParameters("two letters required for the flip instance")


def _gallery_ex34(k: int, n: int, t: int) -> GalleryInstance:
    _check_flip_alphabet(k)
    model = make_truncated_model(k, n, t)
    act = letter_action(model)
    free = freeness_witness(act) is None
    orbit = orbit_equivalence(act)
    f = index2_involution(orbit)
    squares = all(f[f[x]] == x for x in range(orbit.n))
    regen = generate_equivalence(orbit.n, [f])[0] == orbit
    return GalleryInstance(
        name="ex34",
        params={"k": k, "n": n, "t": t},
        summary={
            "classes": model.quotient.num_classes,
            "orbit_classes": orbit.num_classes,
            "index": index_over(orbit),
        },
        checks={
            "action_free": free,
            "index_is_2": index_over(orbit) == 2,
            "involution_squares_to_identity": squares,
            "involution_generates_orbit": regen,
        },
        data={"model": model, "action": act, "orbit": orbit, "involution": f},
    )


def _gallery_ex35(k: int, n: int, t: int) -> GalleryInstance:
    _check_flip_alphabet(k)
    base = make_truncated_model(k, n, t)
    flip = (1, 0)
    # two sides: carrier point = side * m + word index, side 0 first
    m = len(base.words)

    def flip_key(s):
        return min(s, _word_image(flip, s))

    def fibers(key, points):
        by_key: dict[str, list[int]] = {}
        for i in points:
            by_key.setdefault(key(base.suffix_of(base.words[i % m])), []).append(i)
        return list(by_key.values())

    # side 0 joins each suffix fiber with its flipped mate; side 1 keeps
    # plain suffix fibers
    space = Partition.from_blocks(
        2 * m, fibers(flip_key, range(m)) + fibers(lambda s: s, range(m, 2 * m))
    )

    # the coarse relation ignores the side entirely
    coarse = Partition.from_blocks(2 * m, fibers(flip_key, range(2 * m)))
    over = Partition.from_blocks(
        space.num_classes, [{space.class_of[i] for i in b} for b in coarse.blocks]
    )

    # dropping to side 0 is constant on each coarse class
    phi = {q: space.class_of[b[0] % m] for q, b in enumerate(space.blocks)}
    try:
        transversal = selector_to_transversal(phi, over)
        selector_ok = True
    except NotASelector:
        transversal, selector_ok = frozenset(), False
    idx = index_over(over)
    return GalleryInstance(
        name="ex35",
        params={"k": k, "n": n, "t": t},
        summary={
            "carrier_points": 2 * m,
            "classes": space.num_classes,
            "index": idx,
            "transversal": tuple(sorted(transversal)),
        },
        checks={"index_is_3": idx == 3, "selector_valid": selector_ok},
        data={"space": space, "over": over, "selector": phi, "base": base},
    )


def _gallery_ex36(k: int, n: int, t: int) -> GalleryInstance:
    if k != 3:
        raise BadParameters("three letters required for this instance")
    model = make_restricted_model(k, n, t)
    act = letter_action(model)
    free = freeness_witness(act) is None
    big = orbit_equivalence(act)

    swap01 = _sym_indices(act.group, lambda p: p == (1, 0, 2))[0]
    delta = (0, swap01)
    sub = act.subaction(delta)
    small = orbit_equivalence(sub)

    # count of small classes inside each big class
    over = Partition.from_pairs(
        small.num_classes,
        [
            (small.class_of[x], small.class_of[y])
            for x in range(act.n)
            for y in range(act.n)
            if big.same(x, y)
        ],
    )
    norm = normalizer(act.group, delta)
    nsub = act.subaction(norm)
    en = orbit_equivalence(nsub)
    excess = excess_domain(big, en)
    return GalleryInstance(
        name="ex36",
        params={"k": k, "n": n, "t": t},
        summary={
            "classes": model.quotient.num_classes,
            "index": index_over(over),
            "normalizer": tuple(act.group.labels[a] for a in norm),
            "excess_size": len(excess),
        },
        checks={
            "action_free": free,
            "index_is_3": index_over(over) == 3,
            "normalizer_is_delta": norm == delta,
            "excess_nonempty": len(excess) > 0,
        },
        data={
            "model": model,
            "action": act,
            "orbit": big,
            "suborbit": small,
            "over": over,
            "sub": delta,
            "normalizer": norm,
            "excess": excess,
        },
    )


def _gallery_ex37(k: int, n: int, t: int) -> GalleryInstance:
    if k != 3:
        raise BadParameters("three letters required for this instance")
    model = make_truncated_model(k, n, t)
    act = letter_action(model)
    rotations = _sym_indices(act.group, lambda p: p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    sub = act.subaction(rotations)
    free = freeness_witness(sub) is None
    coc = cocycle_from_free_action(sub)
    report = verify_cocycle(coc)
    orbit = orbit_equivalence(sub)

    # one transposition per orbit: swap a point with its image under the
    # first rotation, fix the third point
    f = {}
    for block in orbit.blocks:
        x = block[0]
        y = sub.act(1, x)
        f[x], f[y] = y, x
        for z in block:
            if z not in f:
                f[z] = z
    fibers = involution_fiber_report(coc, f)
    inv_ok = all(
        b == sub.group.inv(a) for a, b in fibers["mapping"].items()
    )
    return GalleryInstance(
        name="ex37",
        params={"k": k, "n": n, "t": t},
        summary={
            "classes": model.quotient.num_classes,
            "fiber_sizes": fibers["fibers"],
            "fiber_mapping": fibers["mapping"],
        },
        checks={
            "action_free": free,
            "cocycle_valid": report.ok,
            "fibers_swap_by_inverse": inv_ok,
        },
        data={
            "model": model,
            "action": sub,
            "cocycle": coc,
            "involution": f,
            "fibers": fibers,
        },
    )


def et_shift_inputs(k: int | None = None, n: int | None = None, t: int | None = None):
    """et_shift's relation (one class, all of Z), its maps (the identity and the
    unit translations) and its seed (the ray 0.. shifted up by one), as
    samples/shifted_ray.qb declares them. et_shift takes no parameters, so any
    given is a BadParameters error."""
    given = [f"{p}={v}" for p, v in (("k", k), ("n", n), ("t", t)) if v is not None]
    if given:
        raise BadParameters(f"et_shift takes no parameters, got {', '.join(given)}")
    # the one example on the integer carrier loads it
    from .carriers import IntBlockRelation, IntSet, PiecewiseTranslation

    ambient = IntSet.all_integers()
    rel = IntBlockRelation.make([ambient], ambient=ambient)
    phis = [
        PiecewiseTranslation.identity(ambient),
        PiecewiseTranslation.translation(ambient, 1),
        PiecewiseTranslation.translation(ambient, -1),
    ]
    return rel, phis, PiecewiseTranslation([(IntSet.ray_up(0), 1)])


def _gallery_et_shift(rel, phis, g0) -> GalleryInstance:
    from .feldman_moore import (
        cover_int, greedy_extend_int, levels_int, maximality_witness_int, psi_split_int,
    )

    ambient = rel.ambient
    psis = psi_split_int(phis)
    g = greedy_extend_int(g0, psis, ambient, rel=rel)
    maximal = maximality_witness_int(g, rel) is None
    levels = levels_int(g, rel)
    pair = cover_int(levels)
    gp, gpp = pair.first, pair.second
    cover_ok = (
        g0.graph_subset_witness(gp, gpp) is None
        and g0.inverse().graph_subset_witness(gp, gpp) is None
        and g.graph_subset_witness(gp, gpp) is None
        and g.inverse().graph_subset_witness(gp, gpp) is None
    )
    bij_ok = all(
        h.domain() == ambient and h.range_set() == ambient and h.is_injective()
        for h in (gp, gpp)
    )
    within_ok = (
        rel.graph_within_witness(gp) is None
        and rel.graph_within_witness(gpp) is None
    )
    return GalleryInstance(
        name="et_shift",
        params={},
        summary={
            "g": str(g),
            "first_level": str(levels.positive.level(1)),
            "acceleration": levels.positive.accel,
            "zero_part": str(levels.zero),
            "cover_first": str(gp),
            "cover_second": str(gpp),
        },
        checks={
            "greedy_maximal": maximal,
            "cover_contains_seed": cover_ok,
            "cover_bijections": bij_ok,
            "cover_within_relation": within_ok,
        },
        data={
            "relation": rel,
            "seed": g0,
            "maps": phis,
            "extension": g,
            "levels": levels,
            "cover": pair,
        },
    )


# each model example's builder and default (k, n, t)
_MODELS = {
    "ex34": (_gallery_ex34, (2, 3, 1)),
    "ex35": (_gallery_ex35, (2, 3, 1)),
    "ex36": (_gallery_ex36, (3, 3, 1)),
    "ex37": (_gallery_ex37, (3, 3, 1)),
}
# every packaged example, in the order messages list them
GALLERY_NAMES = (*_MODELS, "et_shift")


def example_gallery(
    name: str, k: int | None = None, n: int | None = None, t: int | None = None
) -> GalleryInstance:
    """Build a packaged instance by name; parameters override defaults.

    et_shift takes no parameters, so any given is a BadParameters error.
    """
    if name == "et_shift":
        return _gallery_et_shift(*et_shift_inputs(k, n, t))
    if name not in _MODELS:
        raise UnknownExample(f"no example {name!r}; known: {', '.join(GALLERY_NAMES)}")
    build, defaults = _MODELS[name]
    return build(*(d if v is None else v for v, d in zip((k, n, t), defaults)))
