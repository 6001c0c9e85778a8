"""
The reduction calculus on twisted conjugation arrows, and the word-level
non-emptiness criterion for the basic locus.

For a simple affine reflection s and an element w, the arrow w -> s·w·sigma(s)
is admitted when it does not increase length; its kind records whether the
length is preserved or drops by two.  Chains of arrows are written in
superscript order: the word (a_k, ..., a_1, a_0) means "apply s_{a_0} first,
then s_{a_1}, ...", i.e. the input list is consumed right to left.  ``arrow``,
``verify_chain`` and ``ReductionCertificate.verify`` take each step on the
bare window by ``_walk``: O(n) an arrow, Shi's formula on a chain's source.

Equal length elements connected by arrows form classes explored by one
bounded, resumable breadth-first walk, ``_class_walk``, which shares no code
with ``_walk``: a generator that handles one class node at a time.  It
reads each arrow's length change off two descents of the node (Deodhar's
lemma), builds only the images of arrows that keep or drop length, records
the same-length images as parents at discovery, and yields the node once
with its drops, the arrows that lower length by two.  ``approx_equiv`` stops
after the node that discovers the other element; ``find_reduction`` stops at
the first drop into the target's class, advancing the target's own walk node
by node only as far as each drop needs.  Running out of budget raises (it is
never reported as "not equivalent" or "no reduction").

``is_empty_basic`` decides emptiness of the basic-locus piece attached to a
minimal coset representative w = phi^λ·y: the piece is empty iff

    (i)  supp_sigma(w) is the whole affine diagram (the only subset generating
         an infinite reflection subgroup in the affine A cycle), and
    (ii) some r with Inv(r) ⊆ Phi_w has supp_sigma(r·y·sigma(r)⁻¹) a proper
         subset of the finite diagram.

Its ``EmptinessVerdict`` records (i) as ``full_support``: a verdict that
stopped there has it False, so a caller that needs (i) as well, such as
``gu.classify_by_criterion``, reads it off the one call.  It decides (ii) by
a least-fixpoint closure, ``_tiered_witness``.  With
h(p) = y(n+1-p), (ii) asks for disjoint sets T and B with h(T) = B and
h(B) = T, T closed upward and B closed downward along the positive roots
outside Phi_w; the witness is the tiered r that gives B the lowest values,
T the highest and the rest those between, increasing inside each tier.
Those roots, at most ℓ(w) of them, are read off the window in O(n + ℓ(w))
(``roots._excluded_roots``), and the closure runs over the h-cycles of its
2n nodes: O(ℓ(w)) to build their quotient graph once, then O(n) big-integer
steps per seed for at most n seeds.  It never runs out of budget.

The oracles walk the inversion ideal of R(w) instead.  The v-form
``is_empty_basic_v_form`` and positive-Coxeter detection share
``_find_twisted_conjugate``: it forms the finite window u = r·z·sigma(r)⁻¹
with z = y·sigma(x) from w = x·phi^λ·y and stops at the first r, in
breadth-first-by-length order, whose window passes a window-level predicate
(proper twisted support, or twisted Coxeter).  Overrunning the budget raises
BudgetExceededError.  The v-form's witness is v = y⁻¹·r⁻¹, for which u is
the sigma-twist of sigma(v)⁻¹·p(w)·v; tests compare its verdicts with the
closure and its witness with an element-level loop over the same walk.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .weyl import (
    WeylElement,
    decompose_xmy,
    _finite_part,
    _inv,
    _left_mul,
    _mul,
    _right_mul,
    _sigma,
)
from .roots import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    Root,
    _excluded_roots,
    _iter_inv_ideal,
    _proper_twisted_support,
    _sigma_coxeter_window,
    _twisted_images,
    phi_w,
    supp_sigma,
)

__all__ = [
    "ArrowKind",
    "ReductionArrow",
    "IncreasingLengthError",
    "LevelViolationError",
    "NotMinCosetRepError",
    "ChainReport",
    "ReductionCertificate",
    "EmptinessVerdict",
    "arrow",
    "commutes_with_level",
    "level_is_stable",
    "verify_chain",
    "approx_equiv",
    "find_reduction",
    "is_empty_basic",
]


class IncreasingLengthError(ValueError):
    """The proposed arrow would increase length and is not admitted."""


class LevelViolationError(ValueError):
    """The proposed arrow breaks the supplied parahoric-level context."""


class NotMinCosetRepError(ValueError):
    """The emptiness criterion applies to minimal coset representatives only."""


Window = tuple[int, ...]


class ArrowKind(enum.Enum):
    LENGTH_PRESERVING = "length_preserving"
    LENGTH_DROP_TWO = "length_drop_two"


@dataclass(frozen=True, slots=True)
class ReductionArrow:
    source: WeylElement
    s: int
    target: WeylElement
    kind: ArrowKind


def _check_indices(n: int, indices: frozenset[int]) -> None:
    bad = sorted(i for i in indices if not 0 <= i < n)
    if bad:
        raise ValueError(f"simple reflection indices {bad} out of range for rank {n}")


def commutes_with_level(n: int, i: int, level: frozenset[int]) -> bool:
    """Whether s_i lies outside ``level`` and commutes with all of it
    (non-adjacent on the cyclic diagram)."""
    _check_indices(n, level | {i})
    return _commutes(n, i, level)


def _commutes(n: int, i: int, level: frozenset[int]) -> bool:
    """``commutes_with_level`` on indices already checked: neither i nor its
    two neighbours on the cyclic diagram lie in the level."""
    return i not in level and (i - 1) % n not in level and (i + 1) % n not in level


def level_is_stable(w: WeylElement, level: frozenset[int]) -> bool:
    """Whether conjugation-composed-with-twist permutes ``level`` setwise.
    The twisted image is injective, so mapping ``level`` into itself is
    enough."""
    _check_indices(w.n, level)
    image = _twisted_images(w.window)
    return all(image[j] in level for j in level)


def _walk(w: WeylElement, steps: Sequence[int], level: Optional[frozenset[int]]
          ) -> tuple[list[Window], list[int], Optional[ValueError]]:
    """
    The superscript word ``steps`` applied to w on the bare window: the
    windows reached and their lengths from w's on, and the unraised error of
    the first step that is no admitted arrow, or None.  An out-of-range
    letter of ``steps`` or index of ``level`` raises ValueError before any
    step.  A step is the left product by s_i, then the right one by
    sigma(s_i), each adding its own ±1, so Shi's formula measures w alone.
    A ``level``'s stability is checked at the first arrow, ``_commutes`` at
    each: an arrow by s that commutes with a stable level keeps it stable,
    since for j in the level, with w·sigma(s_j)·w⁻¹ = s_a, s commutes with
    s_j and with s_a, so the image s·w·sigma(s) sends sigma(s_j) to
    s·s_a·s = s_a.
    """
    n = w.n
    _check_indices(n, frozenset(steps) if level is None else level.union(steps))
    nodes, lengths = [w.window], [w.length()]
    for i in reversed(steps):
        if level is not None:
            stable = len(nodes) > 1 or level_is_stable(w, level)
            if not _commutes(n, i, level):
                return nodes, lengths, LevelViolationError(
                    f"s_{i} does not commute with the level {sorted(level)}")
            if not stable:
                return nodes, lengths, LevelViolationError(
                    f"level {sorted(level)} is not stable under the source")
        left, change = _left_mul(nodes[-1], i)
        image, more = _right_mul(left, (n - i) % n)
        if change + more > 0:
            return nodes, lengths, IncreasingLengthError(
                f"conjugation by s_{i} increases length by 2")
        nodes.append(image)
        lengths.append(lengths[-1] + change + more)
    return nodes, lengths, None


def arrow(w: WeylElement, i: int,
          level: Optional[frozenset[int]] = None) -> ReductionArrow:
    """
    The admitted arrow w -> s_i·w·sigma(s_i); raises if length would grow.
    With a ``level`` context the arrow must also stay legal at that parahoric
    level: s_i outside the level and commuting with it, and the level stable
    under the twisted conjugation by w.
    """
    nodes, lengths, failure = _walk(w, (i,), level)
    if failure is not None:
        raise failure
    kind = ArrowKind.LENGTH_PRESERVING if lengths[1] == lengths[0] else ArrowKind.LENGTH_DROP_TWO
    return ReductionArrow(w, i, WeylElement(nodes[1], w.similitude), kind)


@dataclass(frozen=True, slots=True)
class ChainReport:
    valid: bool
    lengths: tuple[int, ...]
    final: WeylElement
    failed_at: Optional[int] = None  # index into the superscript word

    def __bool__(self) -> bool:
        return self.valid


def verify_chain(w: WeylElement, steps: tuple[int, ...] | list[int],
                 expected: WeylElement,
                 level: Optional[frozenset[int]] = None) -> ChainReport:
    """Apply the superscript word ``steps`` (rightmost letter first) to w and
    report whether every step is an admitted arrow and the result equals
    ``expected``.  The steps run on the bare window (``_walk``): Shi's
    formula measures w alone, and every later length adds up the changes.
    A ``level`` context is enforced on every step.  An out-of-range letter
    anywhere in ``steps`` or index in ``level`` raises ValueError, even
    after a step that is no admitted arrow."""
    nodes, lengths, failure = _walk(w, steps, level)
    final = WeylElement(nodes[-1], w.similitude)
    return ChainReport(failure is None and final == expected, tuple(lengths), final,
                       None if failure is None else len(steps) - len(nodes))


# ---------------------------------------------------------------------------
# equal-length classes
# ---------------------------------------------------------------------------

def _class_walk(start: Window, budget: int, letters: Sequence[int],
                parents: dict[Window, Optional[tuple[Window, int]]]
                ) -> Iterator[tuple[Window, list[tuple[int, Window]]]]:
    """
    Breadth-first walk of the equal-length class of ``start`` under
    length-preserving arrows by the given letters, one node at a time.  For
    each node it visits, it enters the node's same-length images not yet
    seen in ``parents`` (the root maps to None, any other window to its
    parent and the letter leading to it), then yields ``(node, drops)``:
    the pairs ``(letter, image)``, in letter order, whose arrow lowers
    length by two.  A consumer may stop after any node and resume later.
    Visiting more than ``budget`` nodes raises BudgetExceededError.

    The arrow by s_i is w -> s_i·w·s_j with j = n - i (mod n), and by
    Deodhar's lemma two descents of w decide its length change: s_i on the
    left, i.e. w⁻¹(i) > w⁻¹(i+1), read off the slots p and q of the
    residues i and i+1 as p - w(p) > q - w(q) + 1; s_j on the right, i.e.
    a > b with a = w(x) - shift and b = w(y) for the slots x, y of s_j
    (x = n-1, y = 0 with a shift by n when j = 0).  Exactly one descent
    keeps the length; two drop it by two unless s_i·w·s_j = w, i.e.
    a = b + 1 with b ≡ i; two ascents raise it or loop.  Only a kept or
    dropping arrow builds its image: move the values at p and q up and
    down by one, then swap the slots x, y.  The letter that led to a node
    is skipped, since the arrow is an involution and its image is the
    node's parent.
    """
    n = len(start)
    # per letter: the residues i and i + 1, the slots x, y and the shift
    steps = [(0, 1, n - 1, 0, n) if i == 0 else (i, (i + 1) % n, n - i - 1, n - i, 0)
             for i in letters]
    parents[start] = None
    queue = deque([(start, -1)])
    visited = 0
    pos = [0] * n
    while queue:
        cur, came = queue.popleft()
        visited += 1
        if visited > budget:
            raise BudgetExceededError(
                f"equal-length class search exceeded {budget} nodes "
                f"at depth {len(_path_letters(parents, cur))}")
        for p, v in enumerate(cur):
            pos[v % n] = p
        drops = []
        for i, i1, x, y, shift in steps:
            if i == came:
                continue
            a, b = cur[x] - shift, cur[y]
            p, q = pos[i], pos[i1]
            left = p - cur[p] > q - cur[q] + 1
            drop = left == (a > b)
            if drop and (not left or a == b + 1 and p == y):
                continue
            out = list(cur)
            out[p] += 1
            out[q] -= 1
            out[x], out[y] = out[y] + shift, out[x] - shift
            image = tuple(out)
            if drop:
                drops.append((i, image))
            elif image not in parents:
                parents[image] = (cur, i)
                queue.append((image, i))
        yield cur, drops


def _path_letters(parents, node) -> list[int]:
    """Letters along the BFS tree from the root to ``node``, application order."""
    out: list[int] = []
    while parents[node] is not None:
        node, letter = parents[node]
        out.append(letter)
    out.reverse()
    return out


def approx_equiv(w: WeylElement, other: WeylElement,
                 budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the two elements are connected by length-preserving arrows."""
    if w.n != other.n:
        raise ValueError("rank mismatch")
    if (w.length() != other.length() or w.similitude != other.similitude
            or w.omega() != other.omega()):
        return False
    parents: dict[Window, Optional[tuple[Window, int]]] = {}
    return w.window == other.window or any(
        other.window in parents for _ in _class_walk(w.window, budget, range(w.n), parents))


@dataclass(frozen=True, slots=True)
class ReductionCertificate:
    """
    A witnessed two-step reduction: ``to_pivot`` (a superscript word, rightmost
    letter first) carries ``source`` to ``pivot`` through length-preserving
    arrows; conjugating by s then drops length by two; ``to_target`` carries
    the dropped element to ``target`` through length-preserving arrows.  When
    a ``level`` is recorded, every arrow is legal at that parahoric level.
    """
    source: WeylElement
    to_pivot: tuple[int, ...]
    pivot: WeylElement
    s: int
    dropped: WeylElement
    to_target: tuple[int, ...]
    target: WeylElement
    level: Optional[frozenset[int]] = None

    def verify(self) -> bool:
        """Whether the certificate holds, by one ``_walk`` of its whole word
        from the source: the length is kept up to ``pivot``, drops by two
        at s onto ``dropped`` and is kept up to ``target``.  Shi's formula
        runs once, on the source.  An out-of-range letter anywhere in the
        word or index in the level raises ValueError, even where a wrong
        pivot or an earlier arrow would already make the answer False."""
        p, sim = len(self.to_pivot), self.source.similitude
        nodes, lengths, failure = _walk(
            self.source, (*self.to_target, self.s, *self.to_pivot), self.level)
        ell = lengths[0]
        return (failure is None
                and lengths == [ell] * (p + 1) + [ell - 2] * (len(self.to_target) + 1)
                and all(x.similitude == sim for x in (self.pivot, self.dropped, self.target))
                and (nodes[p], nodes[p + 1], nodes[-1])
                == (self.pivot.window, self.dropped.window, self.target.window))


def find_reduction(w: WeylElement, target: WeylElement,
                   budget: int = DEFAULT_BUDGET,
                   level: Optional[frozenset[int]] = None
                   ) -> Optional[ReductionCertificate]:
    """
    Search for a pivot w'' ≈ w and simple s with s·w''·sigma(s) ≈ target and
    ℓ(s·w''·sigma(s)) = ℓ(w) - 2.  Returns a full certificate, or None if the
    classes are exhausted without a match.

    The source's class is walked breadth first until the first drop whose
    image lies in the target's class, and the target's walk is advanced,
    for each drop, node by node until that image is discovered or the class
    is exhausted; the certificate is the one that exhausting the target's
    class first would give.  ``budget`` bounds the nodes each walk actually
    visits, so a target class larger than the budget is no obstacle when the
    image is found early; an overrun raises BudgetExceededError and is never
    reported as None.

    With a ``level`` context the search only walks arrows legal at that level,
    so a returned certificate witnesses the reduction at the corresponding
    parahoric; the source must itself be minimal for the level and keep it
    stable.
    """
    n = w.n
    if target.n != n:
        raise ValueError("rank mismatch")
    if target.length() != w.length() - 2:
        raise ValueError("target length must be the source length minus two")
    if target.similitude != w.similitude or target.omega() != w.omega():
        return None
    letters: Sequence[int] = range(n)
    if level is not None:
        if not level_is_stable(w, level):  # checks the level's indices, once a call
            raise LevelViolationError(
                f"level {sorted(level)} is not stable under the source")
        if w.left_descents() & level:
            raise LevelViolationError(
                "source is not minimal in its coset at the supplied level")
        letters = [i for i in range(n) if _commutes(n, i, level)]
    # the target's walk advances only as far as each drop needs
    target_parents: dict[Window, Optional[tuple[Window, int]]] = {}
    target_walk = _class_walk(target.window, budget, letters, target_parents)
    source_parents: dict[Window, Optional[tuple[Window, int]]] = {}
    for pivot, drops in _class_walk(w.window, budget, letters, source_parents):
        for s, dropped in drops:
            while dropped not in target_parents and next(target_walk, None):
                pass
            if dropped in target_parents:
                return ReductionCertificate(
                    source=w,
                    to_pivot=tuple(reversed(_path_letters(source_parents, pivot))),
                    pivot=WeylElement(pivot, w.similitude),
                    s=s,
                    dropped=WeylElement(dropped, w.similitude),
                    to_target=tuple(_path_letters(target_parents, dropped)),
                    target=target,
                    level=level,
                )
    return None


# ---------------------------------------------------------------------------
# emptiness of basic-locus pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EmptinessVerdict:
    empty: bool
    # present iff empty: the finite r of is_empty_basic, or the
    # length-positive v = y⁻¹·r⁻¹ of is_empty_basic_v_form
    witness: Optional[WeylElement] = None
    # condition (i): supp_sigma(w) is the whole affine diagram; False means
    # the verdict stopped there (w is DL, so not empty)
    full_support: bool = True


_PROPER_SUPPORT = EmptinessVerdict(False, full_support=False)


def _full_twisted_support(w: WeylElement) -> bool:
    """Condition (i) for a minimal coset representative; raises for any
    other element."""
    if not w.is_min_coset_rep():
        raise NotMinCosetRepError("emptiness criterion needs a minimal coset representative")
    return len(supp_sigma(w)) == w.n


def _tiered_witness(h: Sequence[int], edges: Iterable[Root]) -> Optional[Window]:
    """
    The window of a finite r that keeps every root (a, b) in ``edges``
    increasing, r(a) < r(b), and whose tiers B = r⁻¹{1..i} and
    T = r⁻¹{n-i+1..n}, for some i >= 1, satisfy h(T) = B and h(B) = T; None
    when no r has them.  ``h`` is the window of a permutation of 1..n and
    ``edges`` any positive roots (for emptiness, those outside Phi_w).

    Each edge a -> b closes T upward and B downward.  Conversely a disjoint
    pair (T, B), T closed upward and containing h(B), B closed downward and
    containing h(T), is a solution: h is injective, so |T| = |B| and both
    inclusions are equalities, and the tiered r giving B the lowest values,
    T the highest and the rest those between, increasing with the position
    inside each tier, keeps every edge increasing.  For a seed t the least
    such pair with t in T lies inside every solution with t in T, so a
    solution exists iff some seed's least pair is disjoint.  That pair is
    the set reachable from "t in T" in the graph on the 2n nodes "p in T",
    "p in B" with arrows a∈T -> b∈T and b∈B -> a∈B for every edge, and the
    h-arrows p∈T -> h(p)∈B, p∈B -> h(p)∈T.

    The h-arrows form a permutation of the 2n nodes, so they split them into
    disjoint cycles, and a closure holds each cycle it meets whole.  The
    closure of a seed is therefore the union of the cycles reachable from
    its own in the quotient graph, which the edges give once per call.  The
    seeds are tried in order 1..n; a seed fails as soon as its closure has T
    meet B or reaches the cycle of a failed seed, and the first seed whose
    closure is disjoint gives the witness.
    """
    n = len(h)
    # nodes: p - 1 is "p in T", n + p - 1 is "p in B"; label each h-cycle
    cycle = [-1] * (2 * n)
    nodes: list[int] = []  # node bits of each cycle
    for start in range(2 * n):
        c, bits, v = len(nodes), 0, start
        while cycle[v] < 0:
            cycle[v] = c
            bits |= 1 << v
            v = n + h[v] - 1 if v < n else h[v - n] - 1
        if bits:
            nodes.append(bits)
    succ = [0] * len(nodes)  # cycle bits one edge away
    for a, b in edges:
        succ[cycle[a - 1]] |= 1 << cycle[b - 1]
        succ[cycle[n + b - 1]] |= 1 << cycle[n + a - 1]
    failed = 0
    for t in range(n):
        reach = frontier = 1 << cycle[t]
        inside = 0  # the nodes of the reached cycles
        # stop once T meets B or a failed seed's cycle is reached
        while frontier and not (reach & failed or inside & (inside >> n)):
            step = 0
            while frontier:
                bit = frontier & -frontier
                c = bit.bit_length() - 1
                inside |= nodes[c]
                step |= succ[c]
                frontier ^= bit
            frontier = step & ~reach
            reach |= frontier
        if not (frontier or inside & (inside >> n)):  # complete and disjoint
            top, bottom = inside & ((1 << n) - 1), inside >> n
            # B first, then the rest, then T, each by position: r⁻¹
            tiers = (bottom, ~(top | bottom), top)
            return _inv(tuple([p + 1 for bits in tiers for p in range(n) if bits >> p & 1]))
        failed |= 1 << cycle[t]
    return None


def is_empty_basic(w: WeylElement) -> EmptinessVerdict:
    """
    Decide emptiness for a minimal coset representative (see module
    docstring).  When empty, the witness is the tiered r of
    ``_tiered_witness``: Inv(r) ⊆ Phi_w and supp_sigma(r·y·sigma(r)⁻¹) is
    proper in the finite diagram.  The closure reads the roots outside Phi_w
    off the window (``roots._excluded_roots``), never lists Phi_w or
    decomposes w, and takes no budget.  A verdict with ``full_support``
    False stopped at condition (i).
    """
    if not _full_twisted_support(w):
        return _PROPER_SUPPORT
    # w = phi^λ·y, so y is the window reduced mod n, z = y and h = z∘c
    # with c(p) = n + 1 - p is y read backwards
    r = _tiered_witness(_finite_part(w.window)[::-1], _excluded_roots(w.window))
    return EmptinessVerdict(False) if r is None else EmptinessVerdict(True, WeylElement(r))


def _find_twisted_conjugate(w: WeylElement, budget: int,
                            pred: Callable[[list[int]], bool]) -> Optional[Window]:
    """
    The first r in the walk of the ideal Inv(r) ⊆ Phi_w for which
    ``pred(u)`` holds on the finite window u = r·z·sigma(r)⁻¹, z = y·sigma(x)
    from w = x·phi^λ·y; None when the ideal is exhausted.  With v = y⁻¹·r⁻¹
    in LP(w), u is the sigma-twist of sigma(v)⁻¹·p(w)·v, and z = y when w is
    a minimal coset representative.
    """
    n = w.n
    x, _, y = decompose_xmy(w)
    z = _mul(y.window, _sigma(x.window))
    # sigma(r)⁻¹(i) = n + 1 - r⁻¹(n + 1 - i), so u(i) = r(z(n + 1 - q)) with
    # q = r⁻¹(n + 1 - i); zq[q] is that inner index, 0-based into r
    zq = [0] + [z[n - q] - 1 for q in range(1, n + 1)]
    for r_win, pos in _iter_inv_ideal(n, phi_w(w), budget):
        if pred([r_win[zq[q]] for q in reversed(pos)]):
            return r_win
    return None


def is_empty_basic_v_form(w: WeylElement,
                          budget: int = DEFAULT_BUDGET) -> EmptinessVerdict:
    """
    Oracle for ``is_empty_basic``: condition (ii) decided by the ideal walk
    of ``_find_twisted_conjugate``.  A proper twisted support does not change
    under the sigma-twist, so its first r gives the first length-positive
    v = y⁻¹·r⁻¹ with supp_sigma(sigma(v)⁻¹·p(w)·v) proper: the witness.
    Overrunning ``budget`` nodes raises BudgetExceededError.  A verdict with
    ``full_support`` False stopped at condition (i), before any walk.
    """
    if not _full_twisted_support(w):
        return _PROPER_SUPPORT
    r = _find_twisted_conjugate(w, budget, _proper_twisted_support)
    if r is None:
        return EmptinessVerdict(False)
    # w = phi^λ·y, so p(w) = y is the window reduced mod n
    return EmptinessVerdict(True, WeylElement(_mul(_inv(_finite_part(w.window)), _inv(r))))


def positive_coxeter_generic(w: WeylElement,
                             budget: int = DEFAULT_BUDGET) -> bool:
    """
    Whether some length-positive v makes sigma(v)⁻¹ · p(w) · v a twisted
    Coxeter element of the finite group.
    """
    return _find_twisted_conjugate(
        w, budget, lambda u: _sigma_coxeter_window(u, 0)) is not None
