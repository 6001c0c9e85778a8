"""
Root combinatorics for GL_n and the certificate sets controlling basic-locus
non-emptiness.

Roots are ordered pairs (i, j) with i != j in 1..n, modeling the character
t -> t_i / t_j; a root is positive iff i < j.  For an extended affine element
w with normal form x · phi^λ · y (see weyl.decompose_xmy) we compute

    Phi_w = {α > 0 : <α, λ> - δ⁻(y⁻¹α) + δ⁻(xα) = 0},
    R(w)  = {r⁻¹ : Inv(r) ⊆ Phi_w},
    LP(w) = y⁻¹ · R(w),

where Inv(r) = {α > 0 : rα < 0}.  R(w) is enumerated by a breadth-first
search that grows the inversion set one positive root at a time: for a simple
index i with ℓ(s_i r) > ℓ(r), Inv(s_i r) = Inv(r) ∪ {r⁻¹ α_i}, so the search
tree stays inside the order ideal of Phi_w and never touches the rest of the
symmetric group.

Supports: supp(w) is the set of letters of a reduced word of the window part
with the Omega-part split off; supp_sigma closes it under the twist
s_i -> s_{(m - i) mod n} (conjugation by the Omega-part composed with the
Frobenius twist, m the Omega-component).  For finite elements the relevant
twist is s_i -> s_{n-i} inside the finite diagram.  Both twists are
involutions, so adding the image of the support closes it.

An element is twisted Coxeter iff ℓ(w) = |supp(w)| (every support letter
occurs once in a reduced word) and no two support letters are swapped by the
twist.  On finite windows this and "proper twisted support" (u stabilizes
{1..i} and {1..n-i} for some i) are tested without building elements or
reduced words; the reduction module runs them at every node of its ideal
search.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

from .weyl import (
    WeylElement,
    decompose_xmy,
    _inv,
    _mul,
)

__all__ = [
    "Root",
    "pos_roots",
    "act",
    "delta_plus",
    "inv_set",
    "phi_w",
    "r_set",
    "lp_set",
    "supp",
    "supp_sigma",
    "supp_sigma_finite",
    "s_w_sigma",
    "is_sigma_coxeter",
    "is_sigma_coxeter_finite",
    "tau_sigma_orbits",
    "sigma_orbits_finite",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
]

Root = tuple[int, int]

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """A bounded search ran out of node budget; distinct from a negative answer."""


def pos_roots(n: int) -> list[Root]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def delta_plus(root: Root) -> int:
    """Indicator of positivity."""
    return 1 if root[0] < root[1] else 0


def act(u: WeylElement, root: Root) -> Root:
    """Action of a finite element on a root: u · (i, j) = (u(i), u(j))."""
    if not u.is_finite():
        raise ValueError("root action requires an element with zero translation part")
    return (u.window[root[0] - 1], u.window[root[1] - 1])


def inv_set(u: WeylElement) -> frozenset[Root]:
    """Inversions of a finite element: positive roots sent negative."""
    if not u.is_finite():
        raise ValueError("inversion set requires a finite element")
    win = u.window
    return frozenset((i, j) for (i, j) in pos_roots(u.n) if win[i - 1] > win[j - 1])


def phi_w(w: WeylElement) -> frozenset[Root]:
    """The positive roots along which w is length-neutral (see module docstring)."""
    x, lam, y = decompose_xmy(w)
    xw = x.window
    yi = _inv(y.window)
    out = []
    for i, j in pos_roots(w.n):
        val = lam.coords[i - 1] - lam.coords[j - 1]
        if yi[i - 1] > yi[j - 1]:
            val -= 1
        if xw[i - 1] > xw[j - 1]:
            val += 1
        if val == 0:
            out.append((i, j))
    return frozenset(out)


def _iter_inv_ideal(n: int, allowed: frozenset[Root],
                    budget: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """
    Yield (r, r⁻¹) windows for every finite r with Inv(r) ⊆ allowed, in
    breadth-first (length) order starting from the identity.
    """
    # flat lookup: ok[p * (n + 1) + q] iff the root (p, q) may become an inversion
    ok = bytearray((n + 1) * (n + 1))
    for p, q in allowed:
        ok[p * (n + 1) + q] = 1
    ident = tuple(range(1, n + 1))
    seen = {ident}
    queue = deque([(ident, ident)])
    pop = queue.popleft
    push = queue.append
    add = seen.add
    visited = 0
    while queue:
        win, pos = pop()
        visited += 1
        if visited > budget:
            raise BudgetExceededError(f"inversion-ideal search exceeded {budget} nodes")
        yield win, pos
        for i in range(1, n):
            p = pos[i - 1]
            q = pos[i]
            # s_i · r adds the inversion (r⁻¹(i), r⁻¹(i+1)); grow only if positive
            if p < q and ok[p * (n + 1) + q]:
                new = list(win)
                new[p - 1] = i + 1
                new[q - 1] = i
                neww = tuple(new)
                if neww not in seen:
                    add(neww)
                    npos = list(pos)
                    npos[i - 1] = q
                    npos[i] = p
                    push((neww, tuple(npos)))


def r_set(w: WeylElement, budget: int = DEFAULT_BUDGET) -> frozenset[WeylElement]:
    """R(w): inverses of the elements whose inversion set lies inside Phi_w."""
    allowed = phi_w(w)
    return frozenset(WeylElement(pos)
                     for _, pos in _iter_inv_ideal(w.n, allowed, budget))


def lp_set(w: WeylElement, budget: int = DEFAULT_BUDGET) -> frozenset[WeylElement]:
    """The length-positive set LP(w) = y⁻¹ · R(w); always contains y⁻¹."""
    _, _, y = decompose_xmy(w)
    yi = _inv(y.window)
    allowed = phi_w(w)
    return frozenset(WeylElement(_mul(yi, pos))
                     for _, pos in _iter_inv_ideal(w.n, allowed, budget))


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------

def supp(w: WeylElement) -> frozenset[int]:
    """Letters occurring in a (any) reduced word of the window part."""
    word, _ = w.reduced_word()
    return frozenset(word)


def supp_sigma(w: WeylElement) -> frozenset[int]:
    """Smallest subset of the affine diagram containing supp(w) and stable
    under the twist s_i -> s_{(m-i) mod n}, m the Omega-component of w."""
    n, m = w.n, w.omega()
    base = supp(w)
    return base | {(m - i) % n for i in base}


def _supp_finite_window(win: Sequence[int]) -> frozenset[int]:
    # s_i occurs in a reduced word of u iff u does not stabilize {1..i}
    out = set()
    top = 0
    for i in range(1, len(win)):
        top = max(top, win[i - 1])
        if top > i:
            out.add(i)
    return frozenset(out)


def supp_sigma_finite(u: WeylElement) -> frozenset[int]:
    """Smallest subset of the finite diagram containing supp(u) and stable
    under s_i -> s_{n-i}."""
    if not u.is_finite():
        raise ValueError("finite support requires a finite element")
    n = u.n
    base = _supp_finite_window(u.window)
    return base | {n - i for i in base}


def _proper_twisted_support(u: Sequence[int]) -> bool:
    """Whether supp_sigma_finite is proper for the finite window u: u
    stabilizes both {1..i} and {1..n-i} for some 1 <= i <= n/2, i.e. the
    first i entries have maximum i and the last i entries minimum n+1-i."""
    n = len(u)
    top, bottom = 0, n + 1
    for i in range(1, n // 2 + 1):
        if u[i - 1] > top:
            top = u[i - 1]
        if u[n - i] < bottom:
            bottom = u[n - i]
        if top == i and bottom == n + 1 - i:
            return True
    return False


def s_w_sigma(w: WeylElement) -> frozenset[int]:
    """
    The largest subset S' of finite simple reflections with Ad(w)sigma(S') = S',
    computed by pruning: repeatedly delete an index whose image under
    s -> w·sigma(s)·w⁻¹ is not a simple reflection still in the set.

    The image is read off the window: w·sigma(s_i)·w⁻¹ = w·s_{n-i}·w⁻¹ is the
    reflection exchanging the values w(n-i) and w(n-i+1), which is the finite
    simple reflection s_j iff the two values differ by one and j, the residue
    in 1..n of the smaller, is not n (the pair {n, n+1} gives s_0).
    """
    n, win = w.n, w.window
    image: dict[int, int | None] = {}
    for i in range(1, n):
        a, b = win[n - i - 1], win[n - i]
        j = (min(a, b) - 1) % n + 1
        image[i] = j if abs(a - b) == 1 and j != n else None
    cur = {i for i in range(1, n) if image[i] is not None}
    changed = True
    while changed:
        changed = False
        for i in sorted(cur):
            if image[i] not in cur:
                cur.discard(i)
                changed = True
    return frozenset(cur)


# ---------------------------------------------------------------------------
# twisted Coxeter elements
# ---------------------------------------------------------------------------

def tau_sigma_orbits(n: int, m: int) -> list[frozenset[int]]:
    """Orbits on the affine diagram of the twist s_i -> s_{(m-i) mod n}."""
    orbits = {frozenset({i, (m - i) % n}) for i in range(n)}
    return sorted(orbits, key=min)


def sigma_orbits_finite(n: int) -> list[frozenset[int]]:
    """Orbits on the finite diagram of s_i -> s_{n-i}."""
    orbits = {frozenset({i, n - i}) for i in range(1, n)}
    return sorted(orbits, key=min)


def is_sigma_coxeter(w: WeylElement) -> bool:
    """Whether every letter of supp(w) occurs once in a reduced word of the
    window part (ℓ(w) = |supp(w)|) and no two letters of supp(w) are swapped
    by the twist s_i -> s_{(m-i) mod n}, m the Omega-component."""
    word, m = w.reduced_word()
    n, letters = w.n, set(word)
    return len(word) == len(letters) and all(
        (m - i) % n == i or (m - i) % n not in letters for i in letters)


def is_sigma_coxeter_finite(u: WeylElement) -> bool:
    """Finite-diagram variant, with the twist s_i -> s_{n-i}."""
    if not u.is_finite():
        raise ValueError("finite twisted-Coxeter test requires a finite element")
    return _sigma_coxeter_window(u.window)


def _sigma_coxeter_window(u: Sequence[int]) -> bool:
    """is_sigma_coxeter_finite on a finite window: supp(u) holds no pair
    {i, n-i} with i != n-i, and ℓ(u) = |supp(u)|."""
    n = len(u)
    letters = _supp_finite_window(u)
    if any(2 * i != n and n - i in letters for i in letters):
        return False
    return sum(a > b for i, a in enumerate(u) for b in u[i + 1:]) == len(letters)
