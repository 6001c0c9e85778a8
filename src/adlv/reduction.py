"""
The reduction calculus on twisted conjugation arrows, and the word-level
non-emptiness criterion for the basic locus.

For a simple affine reflection s and an element w, the arrow w -> s·w·sigma(s)
is admitted when it does not increase length; its kind records whether the
length is preserved or drops by two.  Chains of arrows are written in
superscript order: the word (a_k, ..., a_1, a_0) means "apply s_{a_0} first,
then s_{a_1}, ...", i.e. the input list is consumed right to left.  Equal
length elements connected by arrows form classes explored by one bounded,
resumable breadth-first walk, ``_class_walk``: a generator that yields every
admitted arrow leaving a class node, building only those images, and records
parents at discovery.  ``approx_equiv`` stops at the arrow reaching the other
element; ``find_reduction`` stops at the first length drop into the target's
class, advancing the target's own walk only as far as each drop needs.
Running out of budget raises (it is never reported as "not equivalent" or
"no reduction").

``is_empty_basic`` decides emptiness of the basic-locus piece attached to a
minimal coset representative w = phi^λ·y: the piece is empty iff

    (i)  supp_sigma(w) is the whole affine diagram (the only subset generating
         an infinite reflection subgroup in the affine A cycle), and
    (ii) some r with Inv(r) ⊆ Phi_w has supp_sigma(r·y·sigma(r)⁻¹) a proper
         subset of the finite diagram.

It decides (ii) by a least-fixpoint closure, ``_tiered_witness``, in O(n)
seeds times O(n²) steps.  With h(p) = y(n+1-p), (ii) asks for disjoint sets
T and B with h(T) = B and h(B) = T, T closed upward and B closed downward
along the positive roots outside Phi_w; the witness is the tiered r that
gives B the lowest values, T the highest and the rest those between,
increasing inside each tier.  The closure never runs out of budget.

The oracles walk the inversion ideal of R(w) instead.  ``is_empty_basic_walk``
and positive-Coxeter detection share ``_find_twisted_conjugate``: it forms the
finite window u = r·z·sigma(r)⁻¹ with z = y·sigma(x) from w = x·phi^λ·y and
stops at the first r whose window passes a window-level predicate (proper
twisted support, or twisted Coxeter).  ``is_empty_basic_v_form`` walks the
ideal itself and, for length-positive v = y⁻¹·r⁻¹, forms sigma(v)⁻¹·p(w)·v
and tests its twisted support in one finite-permutation kernel of its own
per node, sharing neither that search nor its predicates.  Both return the
first witness in breadth-first-by-length order, raise BudgetExceededError on
an overrun, and are compared with the closure in tests.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .weyl import (
    WeylElement,
    decompose_xmy,
    simple_ref,
    _finite_part,
    _inv,
    _mul,
    _sigma,
)
from .roots import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    Root,
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
    "is_empty_basic_walk",
    "is_empty_basic_v_form",
    "positive_coxeter_generic",
]


class IncreasingLengthError(ValueError):
    """The proposed arrow would increase length and is not admitted."""


class LevelViolationError(ValueError):
    """The proposed arrow breaks the supplied parahoric-level context."""


class NotMinCosetRepError(ValueError):
    """The emptiness criterion applies to minimal coset representatives only."""


class ArrowKind(enum.Enum):
    LENGTH_PRESERVING = "length_preserving"
    LENGTH_DROP_TWO = "length_drop_two"


@dataclass(frozen=True, slots=True)
class ReductionArrow:
    source: WeylElement
    s: int
    target: WeylElement
    kind: ArrowKind


def conj_by_simple(w: WeylElement, i: int) -> WeylElement:
    """s_i · w · sigma(s_i)."""
    s = simple_ref(w.n, i)
    return s * w * s.sigma()


def _check_indices(n: int, indices: frozenset[int]) -> None:
    bad = sorted(i for i in indices if not 0 <= i < n)
    if bad:
        raise ValueError(f"simple reflection indices {bad} out of range for rank {n}")


def commutes_with_level(n: int, i: int, level: frozenset[int]) -> bool:
    """Whether s_i lies outside ``level`` and commutes with all of it
    (non-adjacent on the cyclic diagram)."""
    _check_indices(n, level | {i})
    return i not in level and all((i - j) % n not in (1, n - 1) for j in level)


def level_is_stable(w: WeylElement, level: frozenset[int]) -> bool:
    """Whether conjugation-composed-with-twist permutes ``level`` setwise.
    The twisted image is injective, so mapping ``level`` into itself is
    enough."""
    _check_indices(w.n, level)
    image = _twisted_images(w.window)
    return all(image[j] in level for j in level)


def arrow(w: WeylElement, i: int,
          level: Optional[frozenset[int]] = None) -> ReductionArrow:
    """
    The admitted arrow w -> s_i·w·sigma(s_i); raises if length would grow.
    With a ``level`` context the arrow must also stay legal at that parahoric
    level: s_i outside the level and commuting with it, and the level stable
    under the twisted conjugation by w.
    """
    return _arrow(w, w.length(), i, level)


def _arrow(w, length: int, i: int, level) -> ReductionArrow:
    """``arrow`` from w, whose length ``length`` the caller has measured."""
    if level is not None:
        if not commutes_with_level(w.n, i, level):
            raise LevelViolationError(
                f"s_{i} does not commute with the level {sorted(level)}")
        if not level_is_stable(w, level):
            raise LevelViolationError(
                f"level {sorted(level)} is not stable under the source")
    t = conj_by_simple(w, i)
    delta = t.length() - length
    if delta > 0:
        raise IncreasingLengthError(
            f"conjugation by s_{i} increases length by {delta}")
    kind = ArrowKind.LENGTH_PRESERVING if delta == 0 else ArrowKind.LENGTH_DROP_TWO
    return ReductionArrow(w, i, t, kind)


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
    ``expected``, measuring each node's length once, as its arrow lands.  A
    ``level`` context is enforced on every step."""
    cur = w
    lengths = [w.length()]
    for idx in reversed(range(len(steps))):
        try:
            arr = _arrow(cur, lengths[-1], steps[idx], level)
        except (IncreasingLengthError, LevelViolationError):
            return ChainReport(False, tuple(lengths), cur, failed_at=idx)
        cur = arr.target
        lengths.append(lengths[-1] - (2 if arr.kind is ArrowKind.LENGTH_DROP_TWO else 0))
    return ChainReport(cur == expected, tuple(lengths), cur)


# ---------------------------------------------------------------------------
# equal-length classes
# ---------------------------------------------------------------------------

Window = tuple[int, ...]


def _class_walk(start: Window, budget: int, letters: Sequence[int],
                parents: dict[Window, Optional[tuple[Window, int]]]
                ) -> Iterator[tuple[Window, int, Window, int]]:
    """
    Breadth-first walk of the equal-length class of ``start`` under
    length-preserving arrows by the given letters.  Each window is entered
    in ``parents`` when first discovered (the root maps to None, any other
    window to its parent and the letter leading to it), and every arrow
    ``(node, letter, image, length change)`` leaving a class node that does
    not raise length is yielded right after that bookkeeping, so a consumer
    may stop at any arrow and resume later.  Visiting more than ``budget``
    nodes raises BudgetExceededError.

    The arrow by s_i is w -> s_i·w·s_j with j = n - i (mod n): the right
    action swaps the slots x, y (x = n-1, y = 0 with a shift by n when
    j = 0) and changes length by -1 iff w(x) - shift > w(y); the left
    action then moves the values of residues i and i+1 (mod n), at slots p
    and q, up and down by one and changes length by -1 iff
    p - u(p) > q - u(q) + 1 on the swapped window u.  The slots of the
    residues are read once per node, and only an arrow that does not raise
    length builds its image.
    """
    n = len(start)
    # per letter: the residues i and i + 1, the slots x, y and the shift
    steps = [(0, 1, n - 1, 0, n) if i == 0 else (i, (i + 1) % n, n - i - 1, n - i, 0)
             for i in letters]
    parents[start] = None
    queue = deque([start])
    visited = 0
    pos = [0] * n
    while queue:
        cur = queue.popleft()
        visited += 1
        if visited > budget:
            raise BudgetExceededError(
                f"equal-length class search exceeded {budget} nodes "
                f"at depth {len(_path_letters(parents, cur))}")
        for p, v in enumerate(cur):
            pos[v % n] = p
        for i, i1, x, y, shift in steps:
            ux, uy = cur[y] + shift, cur[x] - shift
            change = -1 if uy > cur[y] else 1
            p, q = pos[i], pos[i1]
            p = y if p == x else x if p == y else p
            q = y if q == x else x if q == y else q
            up = ux if p == x else uy if p == y else cur[p]
            uq = ux if q == x else uy if q == y else cur[q]
            change += -1 if p - up > q - uq + 1 else 1
            if change > 0:
                continue
            out = list(cur)
            out[x], out[y] = ux, uy
            out[p] += 1
            out[q] -= 1
            image = tuple(out)
            if change == 0 and image not in parents:
                parents[image] = (cur, i)
                queue.append(image)
            yield cur, i, image, change


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
    goal = other.window
    return w.window == goal or any(
        image == goal
        for _, _, image, _ in _class_walk(w.window, budget, range(w.n), {}))


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
        first = verify_chain(self.source, self.to_pivot, self.pivot, self.level)
        if not (first.valid and len(set(first.lengths)) == 1):
            return False
        try:
            arr = _arrow(self.pivot, first.lengths[-1], self.s, self.level)
        except (IncreasingLengthError, LevelViolationError):
            return False
        if arr.kind is not ArrowKind.LENGTH_DROP_TWO or arr.target != self.dropped:
            return False
        second = verify_chain(self.dropped, self.to_target, self.target, self.level)
        return second.valid and len(set(second.lengths)) == 1


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
    for each drop, only until that image is discovered or the class is
    exhausted; the certificate is the one that exhausting the target's
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
        if not level_is_stable(w, level):
            raise LevelViolationError(
                f"level {sorted(level)} is not stable under the source")
        if w.left_descents() & level:
            raise LevelViolationError(
                "source is not minimal in its coset at the supplied level")
        letters = [i for i in range(n) if commutes_with_level(n, i, level)]
    # the target's walk advances only as far as each drop needs
    target_parents: dict[Window, Optional[tuple[Window, int]]] = {}
    target_walk = _class_walk(target.window, budget, letters, target_parents)
    source_parents: dict[Window, Optional[tuple[Window, int]]] = {}
    for pivot, s, dropped, change in _class_walk(w.window, budget, letters,
                                                 source_parents):
        if change == 0:
            continue
        while dropped not in target_parents and next(target_walk, None):
            pass
        if dropped in target_parents:
            break
    else:
        return None
    sim = w.similitude
    return ReductionCertificate(
        source=w,
        to_pivot=tuple(reversed(_path_letters(source_parents, pivot))),
        pivot=WeylElement(pivot, sim),
        s=s,
        dropped=WeylElement(dropped, sim),
        to_target=tuple(_path_letters(target_parents, dropped)),
        target=target,
        level=level,
    )


# ---------------------------------------------------------------------------
# emptiness of basic-locus pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EmptinessVerdict:
    empty: bool
    witness: Optional[WeylElement] = None  # finite r, present iff empty


def _full_twisted_support(w: WeylElement) -> bool:
    """Condition (i) for a minimal coset representative; raises for any
    other element."""
    if not w.is_min_coset_rep():
        raise NotMinCosetRepError("emptiness criterion needs a minimal coset representative")
    return len(supp_sigma(w)) == w.n


def _tiered_witness(h: Sequence[int], allowed: frozenset[Root]) -> Optional[Window]:
    """
    The window of a finite r with Inv(r) ⊆ ``allowed`` whose tiers
    B = r⁻¹{1..i} and T = r⁻¹{n-i+1..n}, for some i >= 1, satisfy h(T) = B
    and h(B) = T; None when no r has them.  ``h`` is the window of a
    permutation of 1..n and ``allowed`` any set of positive roots.

    Each positive root (a, b) outside ``allowed`` is an edge a -> b that r
    must keep increasing, r(a) < r(b); so T is closed upward and B downward
    along the edges.  Conversely a disjoint pair (T, B), T closed upward and
    containing h(B), B closed downward and containing h(T), is a solution:
    h is injective, so |T| = |B| and both inclusions are equalities, and the
    tiered r giving B the lowest values, T the highest and the rest those
    between, increasing with the position inside each tier, keeps every edge
    increasing.  For a seed t the least such pair with t in T lies inside
    every solution with t in T, so a solution exists iff some seed's least
    pair is disjoint.  That pair is the set reachable from "t in T" in the
    graph on the 2n nodes "p in T", "p in B" with arrows a∈T -> b∈T and
    b∈B -> a∈B for every edge a -> b, and p∈T -> h(p)∈B, p∈B -> h(p)∈T.
    A seed whose closure reaches a failed seed fails too.
    """
    n = len(h)
    # bit p - 1 is the node "p in T", bit n + p - 1 the node "p in B"
    succ = [1 << (n + v - 1) for v in h] + [1 << (v - 1) for v in h]
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            if (a, b) not in allowed:
                succ[a - 1] |= 1 << (b - 1)
                succ[n + b - 1] |= 1 << (n + a - 1)
    failed = 0
    for t in range(n):
        reach = frontier = 1 << t
        # stop once T meets B or holds a failed seed
        while frontier and not reach & (failed | reach >> n):
            step = 0
            while frontier:
                bit = frontier & -frontier
                step |= succ[bit.bit_length() - 1]
                frontier ^= bit
            frontier = step & ~reach
            reach |= frontier
        if not frontier:  # the closure is complete and disjoint
            top, bottom = reach & ((1 << n) - 1), reach >> n
            # B first, then the rest, then T, each by position: r⁻¹ 0-based
            by_value = sorted(range(n), key=lambda p: (top >> p & 1) - (bottom >> p & 1))
            return _inv(tuple(p + 1 for p in by_value))
        failed |= 1 << t
    return None


def is_empty_basic(w: WeylElement) -> EmptinessVerdict:
    """
    Decide emptiness for a minimal coset representative (see module
    docstring).  When empty, the witness is the tiered r of
    ``_tiered_witness``: Inv(r) ⊆ Phi_w and supp_sigma(r·y·sigma(r)⁻¹) is
    proper in the finite diagram.  The closure is polynomial and takes no
    budget.
    """
    if not _full_twisted_support(w):
        return EmptinessVerdict(False)
    # w = phi^λ·y, so y is the window reduced mod n, z = y and h = z∘c
    # with c(p) = n + 1 - p is y read backwards
    r = _tiered_witness(_finite_part(w.window)[::-1], phi_w(w))
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


def is_empty_basic_walk(w: WeylElement,
                        budget: int = DEFAULT_BUDGET) -> EmptinessVerdict:
    """
    Oracle for ``is_empty_basic``: condition (ii) decided by walking the
    ideal Inv(r) ⊆ Phi_w and testing the proper twisted support of every
    window r·z·sigma(r)⁻¹.  The witness, when present, is the first r in
    breadth-first-by-length order; overrunning ``budget`` nodes raises
    BudgetExceededError.
    """
    if not _full_twisted_support(w):
        return EmptinessVerdict(False)
    r = _find_twisted_conjugate(w, budget, _proper_twisted_support)
    return EmptinessVerdict(False) if r is None else EmptinessVerdict(True, WeylElement(r))


def is_empty_basic_v_form(w: WeylElement,
                          budget: int = DEFAULT_BUDGET) -> EmptinessVerdict:
    """
    The same criterion with condition (ii) quantified over length-positive
    elements v = y⁻¹·r⁻¹; the witness, when present, is the first v.

    Every v is a permutation of 1..n, so each node of the ideal walk runs
    one finite-permutation kernel, independent of ``_find_twisted_conjugate``
    and ``_proper_twisted_support``: v = y⁻¹∘r⁻¹, then v⁻¹, then
    u(i) = n+1 - v⁻¹(n+1 - p(w)(v(i))), which is sigma(v)⁻¹·p(w)·v because
    sigma(v)⁻¹(j) = n+1 - v⁻¹(n+1-j).  The letter s_i (1 <= i < n) is missing
    from supp(u) iff max u(1..i) = i, and supp_sigma(u) is proper iff some i
    has both s_i and s_(n-i) missing.
    """
    if not _full_twisted_support(w):
        return EmptinessVerdict(False)
    n = w.n
    _, _, y = decompose_xmy(w)
    # 1-based tables: yi[j] = y⁻¹(j), flip[j] = n+1 - p(w)(j)
    yi = [0, *_inv(y.window)]
    flip = [0] + [n + 1 - t for t in _finite_part(w.window)]
    vi = [0] * (n + 1)
    for _, pos in _iter_inv_ideal(n, phi_w(w), budget):
        v = [yi[q] for q in pos]
        for i, t in enumerate(v, 1):
            vi[t] = i
        u = [n + 1 - vi[flip[t]] for t in v]
        top = 0
        gaps = set()  # the i with s_i missing from supp(u)
        for i in range(1, n):
            if u[i - 1] > top:
                top = u[i - 1]
            if top == i:
                gaps.add(i)
        if any(n - i in gaps for i in gaps):
            return EmptinessVerdict(True, WeylElement(tuple(v), -y.similitude))
    return EmptinessVerdict(False)


def positive_coxeter_generic(w: WeylElement,
                             budget: int = DEFAULT_BUDGET) -> bool:
    """
    Whether some length-positive v makes sigma(v)⁻¹ · p(w) · v a twisted
    Coxeter element of the finite group.
    """
    return _find_twisted_conjugate(
        w, budget, lambda u: _sigma_coxeter_window(u, 0)) is not None
