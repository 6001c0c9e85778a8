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
symmetric group.  It generates each r ≠ e once, from its canonical parent s_d·r
(d the smallest left descent of r), so it keeps no visited set.

Supports: supp(w) is the smallest set of simple affine reflections whose
parabolic subgroup holds the affine part w·tau1^{-m} (m the Omega-component),
the letters of any of its reduced words.  It is read off the window: s_i is
missing iff the affine part maps {i+1, ..., i+n} onto itself.  supp_sigma
closes it under the twist s_i -> s_{(m - i) mod n} (conjugation by the
Omega-part composed with the Frobenius twist); for finite elements m = 0 and
the twist is s_i -> s_{n-i}.  The twist is an involution, so adding the image
of the support closes it.

An element is twisted Coxeter iff ℓ(w) = |supp(w)| (every support letter
occurs once in a reduced word) and no two support letters are swapped by the
twist.  The twisted image w·sigma(s_j)·w⁻¹ of a simple reflection swaps two
window values, so whether it is simple, and which, is read off them; the
stable set S(w, sigma) and the level checks of the reduction module rest on
that map.  None of these builds a reduced word or multiplies elements, and
the reduction module runs the finite-window predicates (twisted Coxeter,
proper twisted support: u stabilizes {1..i} and {1..n-i} for some i) at every
node of its ideal search.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from typing import Iterator, Optional, Sequence

from .weyl import (
    WeylElement,
    decompose_xmy,
    _affine_window,
    _inv,
    _length,
    _mul,
)

__all__ = [
    "Root",
    "pos_roots",
    "phi_w",
    "supp",
    "supp_sigma",
    "s_w_sigma",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
]

Root = tuple[int, int]

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """A bounded search ran out of node budget; distinct from a negative answer."""


def pos_roots(n: int) -> list[Root]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def inv_set(u: WeylElement) -> frozenset[Root]:
    """Inversions of a finite element: positive roots sent negative."""
    if not u.is_finite():
        raise ValueError("inversion set requires a finite element")
    win = u.window
    return frozenset((i, j) for (i, j) in pos_roots(u.n) if win[i - 1] > win[j - 1])


def phi_w(w: WeylElement) -> frozenset[Root]:
    """The positive roots along which w is length-neutral (see module docstring)."""
    x, lam, y = decompose_xmy(w)
    xw, c, yi = x.window, lam.coords, _inv(y.window)
    n = w.n
    # <α, λ> - δ⁻(y⁻¹α) + δ⁻(xα) = 0 for α = (i+1, j+1)
    return frozenset([(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
                      if c[i] - c[j] == (yi[i] > yi[j]) - (xw[i] > xw[j])])


def _iter_inv_ideal(n: int, allowed: frozenset[Root],
                    budget: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """
    Yield (r, r⁻¹) windows for every finite r with Inv(r) ⊆ allowed, each
    once, in breadth-first (length) order from the identity.  A node pushes
    only the children it is the canonical parent of: the ascent s_i·r has
    smallest left descent i iff i <= d(r)+1 and r⁻¹(i-1) < r⁻¹(i+1).
    Nodes count against ``budget`` when discovered, so the queue holds at most
    ``budget`` windows; an overrun raises, naming the length of its node.
    """
    # flat lookup: ok[p * (n + 1) + q] iff the root (p, q) may become an inversion
    ok = bytearray((n + 1) * (n + 1))
    for p, q in allowed:
        ok[p * (n + 1) + q] = 1
    ident = tuple(range(1, n + 1))
    # entries (r, r⁻¹, d(r)); the identity has no descent, d = n
    queue = deque([(ident, ident, n)])
    pop = queue.popleft
    push = queue.append
    found = 1  # nodes discovered, the identity included
    while queue:
        win, pos, d = pop()
        yield win, pos
        prev = 0  # r⁻¹(i-1), and 0 below i = 1
        for i in range(1, min(d + 2, n)):
            p = pos[i - 1]
            q = pos[i]
            # s_i · r adds the inversion (r⁻¹(i), r⁻¹(i+1)); grow only if it is
            # positive and allowed, and i is the child's smallest left descent
            if p < q and prev < q and ok[p * (n + 1) + q]:
                found += 1
                if found > budget:
                    raise BudgetExceededError(f"inversion-ideal search exceeded "
                                              f"{budget} nodes at length {_length(win) + 1}")
                new = list(win)
                new[p - 1] = i + 1
                new[q - 1] = i
                npos = list(pos)
                npos[i - 1] = q
                npos[i] = p
                push((tuple(new), tuple(npos), i))
            prev = p


def r_set(w: WeylElement, budget: int = DEFAULT_BUDGET) -> frozenset[WeylElement]:
    """R(w): inverses of the elements whose inversion set lies inside Phi_w."""
    return frozenset(WeylElement(pos)
                     for _, pos in _iter_inv_ideal(w.n, phi_w(w), budget))


def lp_set(w: WeylElement, budget: int = DEFAULT_BUDGET) -> frozenset[WeylElement]:
    """The length-positive set LP(w) = y⁻¹ · R(w); always contains y⁻¹."""
    yi = _inv(decompose_xmy(w)[2].window)
    return frozenset(WeylElement(_mul(yi, pos))
                     for _, pos in _iter_inv_ideal(w.n, phi_w(w), budget))


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------

def _supp_window(u: Sequence[int]) -> frozenset[int]:
    """
    supp(u) for the window u of an Omega-0 element.  s_i (0 <= i < n) is
    missing from supp(u) iff u lies in the parabolic subgroup without s_i,
    i.e. u maps {i+1, ..., i+n} onto itself.  The n values u(i+1..i+n) have
    distinct residues and sum to the sum of that interval, so this holds iff
    their maximum is at most i+n: max u(1..i) <= i and max u(i+1..n) <= i+n.
    """
    n = len(u)
    head = [0, *accumulate(u, max)]               # head[i] = max u[:i], i >= 1
    tail = [*accumulate(reversed(u), max)][::-1]  # tail[i] = max u[i:]
    return frozenset([i for i in range(n) if head[i] > i or tail[i] > i + n])


def supp(w: WeylElement) -> frozenset[int]:
    """Letters occurring in a (any) reduced word of the affine part
    w·tau1^{-m}, m the Omega-component of w."""
    return _supp_window(_affine_window(w.window)[0])


def _supp_sigma_window(u: Sequence[int], m: int) -> frozenset[int]:
    """supp(u), u an Omega-0 window, closed under s_i -> s_{(m-i) mod n}."""
    base = _supp_window(u)
    return base | {(m - i) % len(u) for i in base}


def supp_sigma(w: WeylElement) -> frozenset[int]:
    """Smallest subset of the affine diagram containing supp(w) and stable
    under the twist s_i -> s_{(m-i) mod n}, m the Omega-component of w."""
    return _supp_sigma_window(*_affine_window(w.window))


def _proper_twisted_support(u: Sequence[int]) -> bool:
    """Whether supp_sigma of the finite element u is proper: u
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


# ---------------------------------------------------------------------------
# the twisted-image map and stable subsets
# ---------------------------------------------------------------------------

def _twisted_images(win: Sequence[int]) -> list[Optional[int]]:
    """
    For the window of w, the list whose j-th entry is the index a with
    w·sigma(s_j)·w⁻¹ = s_a, or None when that reflection is not simple.
    sigma(s_j) = s_{n-j} swaps the positions p = n-j and p+1 (p = n for
    j = 0), so its conjugate swaps the values w(p) and w(p+1); the reflection
    swapping the values a and a+1 is s_{a mod n}.
    """
    n = len(win)
    vals = (*win, win[0] + n)  # w(1), ..., w(n+1)
    return [min(a, b) % n if abs(a - b) == 1 else None
            for a, b in zip(vals, vals[1:])][::-1]


def s_w_sigma(w: WeylElement) -> frozenset[int]:
    """
    The largest subset S' of finite simple reflections with Ad(w)sigma(S') = S'.

    The twisted-image map is injective, so S' is the union of its cycles
    inside the finite simples: every other index lies on a chain that ends at
    an index mapped outside them (to None or to s_0).  Walking those chains
    back once, along unique preimages, prunes them all.
    """
    n = w.n
    image = _twisted_images(w.window)
    preimage = {a: i for i, a in enumerate(image) if i and a}
    cur = set(range(1, n))
    for j in [i for i in cur if not image[i]]:
        while j is not None:
            cur.discard(j)
            j = preimage.get(j)
    return frozenset(cur)


# ---------------------------------------------------------------------------
# twisted Coxeter elements
# ---------------------------------------------------------------------------

def tau_sigma_orbits(n: int, m: int) -> list[frozenset[int]]:
    """Orbits on the affine diagram of the twist s_i -> s_{(m-i) mod n}."""
    orbits = {frozenset({i, (m - i) % n}) for i in range(n)}
    return sorted(orbits, key=min)


def _sigma_coxeter_window(u: Sequence[int], m: int) -> bool:
    """Twisted Coxeter test on the window u of an Omega-0 element, with the
    twist s_i -> s_{(m-i) mod n}: no two letters of supp(u) are swapped by
    the twist, and ℓ(u) = |supp(u)|."""
    n = len(u)
    letters = _supp_window(u)
    if any((m - i) % n != i and (m - i) % n in letters for i in letters):
        return False
    return _length(tuple(u)) == len(letters)


def is_sigma_coxeter(w: WeylElement) -> bool:
    """Whether every letter of supp(w) occurs once in a reduced word of the
    affine part (ℓ(w) = |supp(w)|) and no two letters of supp(w) are swapped
    by the twist s_i -> s_{(m-i) mod n}, m the Omega-component."""
    return _sigma_coxeter_window(*_affine_window(w.window))


def is_sigma_coxeter_finite(u: WeylElement) -> bool:
    """Finite-diagram variant, with the twist s_i -> s_{n-i}."""
    if not u.is_finite():
        raise ValueError("finite twisted-Coxeter test requires a finite element")
    return _sigma_coxeter_window(u.window, 0)
