"""
Exact arithmetic in the extended affine Weyl group of GL_n, with a similitude tag.

An element is a bijection f: Z -> Z satisfying f(i+n) = f(i)+n, stored by its
window (f(1), ..., f(n)).  The group of such bijections is W_0 ⋉ Z^n where W_0
is the symmetric group on n letters; translations by a cocharacter λ act as
f(i) = i + n·λ_i.  The simple affine reflections are

    s_i  (1 <= i < n):  swap of the residue classes i and i+1,
    s_0:                f(1) = 0, f(n) = n+1, identity elsewhere,

and the length-zero subgroup is infinite cyclic, generated by the shift
tau1: i -> i+1 (which equals phi^{(1,0,...,0)} s_1 s_2 ... s_{n-1}).

The similitude tag is a detached integer factor: it adds under multiplication,
negates under inversion, and is fixed by the Frobenius twist.  It never enters
lengths, orders or supports; reduced words and Omega-parts describe the GL_n
window component only.

The Frobenius twist sigma is the order-two automorphism

    sigma(f)(i) = n + 1 - f(n + 1 - i),

which sends s_i to s_{n-i} (indices mod n) and a translation by λ to the
translation by i -> -λ_{n+1-i}.

Length is Shi's pairwise formula sum_{1 <= i < j <= n} |floor((f(j) - f(i))/n)|;
the classical double-sum formula over positive roots is kept in the test
suite as an independent oracle.  `_left_mul` and `_right_mul` return the
windows of s_i·w and w·s_j with their length changes ±1; reduced words and
the Bruhat order peel the smallest left descent, read off w⁻¹ by
`_left_descents`, until none is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

__all__ = [
    "WeylElement",
    "Cocharacter",
    "identity",
    "simple_ref",
    "translation",
    "tau1",
    "omega_shift",
    "from_word",
    "bruhat_leq",
    "decompose_xmy",
]

_WINDOW_BOUND = 1 << 31  # defensive overflow guard for window entries


# ---------------------------------------------------------------------------
# window-level helpers (tuples of ints, 1-based values at 0-based slots)
# ---------------------------------------------------------------------------

def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Window of a∘b: a(v) = d[(v - 1) mod n] + v, d[r] = a(r + 1) − (r + 1).

    >>> _mul((0, 2, 4), (-2, 2, 6))
    (-3, 2, 7)
    """
    n = len(a)
    d = [x - p for p, x in enumerate(a, start=1)]
    return tuple([d[(v - 1) % n] + v for v in b])


def _inv(a: tuple[int, ...]) -> tuple[int, ...]:
    n = len(a)
    out = [0] * n
    for p, v in enumerate(a, start=1):
        q, r = divmod(v - 1, n)
        out[r] = p - q * n
    return tuple(out)


def _sigma(a: tuple[int, ...]) -> tuple[int, ...]:
    n = len(a)
    return tuple([n + 1 - v for v in reversed(a)])


def _length(window: Sequence[int]) -> int:
    """Shi's pairwise formula: the sum over i < j of |⌊(f(j) − f(i))/n⌋|."""
    n = len(window)
    return sum([abs((b - a) // n) for a, b in combinations(window, 2)])


def _left_mul(window: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int]:
    """
    Window of s_i ∘ w and ℓ(s_i w) − ℓ(w).  The values ≡ i and ≡ i+1 (mod n),
    at positions p and q, move up and down by one; s_i is a descent iff
    w⁻¹(i) > w⁻¹(i+1), and w⁻¹(i) = p + i − w(p).
    """
    n = len(window)
    res = [v % n for v in window]
    p, q = res.index(i), res.index((i + 1) % n)
    out = list(window)
    out[p] += 1
    out[q] -= 1
    return tuple(out), -1 if p - window[p] > q - window[q] + 1 else 1


def _right_mul(window: tuple[int, ...], j: int) -> tuple[tuple[int, ...], int]:
    """Window of w ∘ s_j and ℓ(w s_j) − ℓ(w): swap the slots j and j+1, or
    for j = 0 the slots n and 1, their values shifted by ∓n (s_0 sends 1 to
    0 and n to n+1); s_j is a descent iff w(j) > w(j+1)."""
    n = len(window)
    x, y, shift = (n - 1, 0, n) if j == 0 else (j - 1, j, 0)
    out = list(window)
    out[x], out[y] = window[y] + shift, window[x] - shift
    return tuple(out), -1 if out[y] > window[y] else 1


def _left_descents(window: tuple[int, ...]) -> frozenset[int]:
    """All i in 0..n-1 with ℓ(s_i w) < ℓ(w), i.e. w⁻¹(i) > w⁻¹(i+1)."""
    inv = _inv(window)
    before = (inv[-1] - len(inv), *inv)  # w⁻¹(0), ..., w⁻¹(n-1)
    return frozenset(i for i, (a, b) in enumerate(zip(before, inv)) if a > b)


def _descent_letters(window: tuple[int, ...]) -> Iterator[int]:
    """A reduced word of w: peel the smallest left descent until none is left."""
    while descents := _left_descents(window):
        i = min(descents)
        window = _left_mul(window, i)[0]
        yield i


def _affine_window(window: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The window of the affine part w·tau1^{-m}, p -> w(p - m), and the
    Omega-component m; with -m = q·n + r it is w's window rotated by r."""
    n = len(window)
    m = (sum(window) - n * (n + 1) // 2) // n
    if m == 0:
        return window, 0
    q, r = divmod(-m, n)
    return tuple([v + q * n for v in window[r:]] +
                 [v + q * n + n for v in window[:r]]), m


def _finite_part(window: tuple[int, ...]) -> tuple[int, ...]:
    """Reduce each window entry mod n into [1, n]."""
    n = len(window)
    return tuple((v - 1) % n + 1 for v in window)


# ---------------------------------------------------------------------------
# element types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class WeylElement:
    """
    An element of the extended affine Weyl group of GL_n times a similitude Z.

    >>> w = identity(3)
    >>> w.length(), w.omega()
    (0, 0)
    >>> str(simple_ref(3, 0))
    '[0,2,4];sim=0'
    """

    window: tuple[int, ...]
    similitude: int = 0

    def __post_init__(self) -> None:
        n = len(self.window)
        if n < 2:
            raise ValueError("rank must be at least 2")
        seen = [False] * n
        for v in self.window:
            if not -_WINDOW_BOUND < v < _WINDOW_BOUND:
                raise ValueError(f"window entry {v} out of range")
            r = (v - 1) % n
            if seen[r]:
                raise ValueError("window entries collide modulo n")
            seen[r] = True
        # distinct residues force the Omega-component to be integral

    @property
    def n(self) -> int:
        return len(self.window)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")
        return WeylElement(_mul(self.window, other.window),
                           self.similitude + other.similitude)

    def inv(self) -> "WeylElement":
        return WeylElement(_inv(self.window), -self.similitude)

    def sigma(self) -> "WeylElement":
        """The Frobenius twist; an involution fixing the similitude tag."""
        return WeylElement(_sigma(self.window), self.similitude)

    def length(self) -> int:
        return _length(self.window)

    def omega(self) -> int:
        """Power of tau1 spanning the length-zero coset of the window part."""
        return _affine_window(self.window)[1]

    def affine_part(self) -> tuple["WeylElement", int]:
        """Split off the Omega-part: returns (w · tau1^{-m}, m), first factor in W_a."""
        window, m = _affine_window(self.window)
        return WeylElement(window, self.similitude), m

    def is_finite(self) -> bool:
        """Whether the window is a permutation of 1..n (zero translation
        part); its residues are distinct, so its extremes decide."""
        return 1 <= min(self.window) and max(self.window) <= self.n

    def finite_part(self) -> "WeylElement":
        """Image under the projection to the finite Weyl group (window mod n)."""
        return WeylElement(_finite_part(self.window))

    def left_descents(self) -> frozenset[int]:
        """All i in 0..n-1 with ℓ(s_i w) < ℓ(w)."""
        return _left_descents(self.window)

    def reduced_word(self) -> tuple[tuple[int, ...], int]:
        """
        A reduced word for the window part: (a_1, ..., a_r), m with
        w = s_{a_1} ... s_{a_r} · tau1^m and r = ℓ(w).  Deterministic
        (smallest descent first).
        """
        return tuple(_descent_letters(self.window)), self.omega()

    def is_min_coset_rep(self) -> bool:
        """Whether ℓ(s_i w) > ℓ(w) for every finite i (minimal in W_0 w),
        i.e. w⁻¹(1) < ... < w⁻¹(n); the entries of w⁻¹ are distinct."""
        inv = _inv(self.window)
        return sorted(inv) == list(inv)

    def __str__(self) -> str:
        body = ",".join(str(v) for v in self.window)
        return f"[{body}];sim={self.similitude}"


@dataclass(frozen=True, slots=True)
class Cocharacter:
    """An integer cocharacter of the diagonal torus, with similitude component."""

    coords: tuple[int, ...]
    similitude: int = 0

    @property
    def n(self) -> int:
        return len(self.coords)

    def is_dominant(self) -> bool:
        return all(a >= b for a, b in zip(self.coords, self.coords[1:]))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def identity(n: int) -> WeylElement:
    return WeylElement(tuple(range(1, n + 1)))


def simple_ref(n: int, i: int) -> WeylElement:
    """
    The simple affine reflection s_i, 0 <= i < n.

    >>> simple_ref(4, 2).window
    (1, 3, 2, 4)
    >>> simple_ref(4, 0).window
    (0, 2, 3, 5)
    """
    if not 0 <= i < n:
        raise ValueError(f"simple reflection index {i} out of range for rank {n}")
    w = list(range(1, n + 1))
    if i == 0:
        w[0], w[n - 1] = 0, n + 1
    else:
        w[i - 1], w[i] = i + 1, i
    return WeylElement(tuple(w))


def translation(lam: Cocharacter) -> WeylElement:
    """
    The translation element phi^λ, encoded as f(i) = i + n·λ_i.

    >>> translation(Cocharacter((0, 0, 0, -1, -1), -1)).window
    (1, 2, 3, -1, 0)
    """
    n = lam.n
    return WeylElement(tuple(i + n * lam.coords[i - 1] for i in range(1, n + 1)),
                       lam.similitude)


def omega_shift(n: int, m: int) -> WeylElement:
    """tau1^m, the length-zero shift i -> i+m."""
    return WeylElement(tuple(range(1 + m, n + 1 + m)))


def tau1(n: int) -> WeylElement:
    """The generator of the length-zero subgroup: phi^{(1,0,...,0)} s_1 ... s_{n-1}."""
    return omega_shift(n, 1)


def from_word(n: int, word: Iterable[int], omega: int = 0,
              similitude: int = 0) -> WeylElement:
    """The element s_{a_1} ... s_{a_r} · tau1^omega with the given tag."""
    w = omega_shift(n, omega)
    for a in reversed(list(word)):
        w = simple_ref(n, a) * w
    return WeylElement(w.window, similitude)


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """
    Bruhat order on the extended group.  Elements in different length-zero
    cosets (different Omega-component or similitude) are incomparable.
    """
    if u.n != w.n:
        raise ValueError("rank mismatch")
    if u.similitude != w.similitude or u.omega() != w.omega():
        return False
    # lifting property: for a descent s of w, u <= w iff min(u, su) <= sw,
    # which fails once ℓ(min(u, su)) > ℓ(sw); at length zero only u = w is left
    uw = u.window
    slack = _length(w.window) - _length(uw)
    if slack < 0:
        return False
    for i in _descent_letters(w.window):
        su, du = _left_mul(uw, i)
        if du < 0:
            uw = su
        elif slack == 0:
            return False
        else:
            slack -= 1
    return True


# ---------------------------------------------------------------------------
# the x · phi^λ · y normal form
# ---------------------------------------------------------------------------

def decompose_xmy(w: WeylElement) -> tuple[WeylElement, Cocharacter, WeylElement]:
    """
    The unique normal form w = x · phi^λ · y with λ dominant, x, y finite, and
    phi^λ y minimal in its W_0-coset.  Satisfies ℓ(w) = ℓ(x) + <λ,2ρ> - ℓ(y).

    Left multiplication by W_0 only permutes the residues of the values, so
    write w(p) = r_p + n·q_p with r_p in 1..n.  The minimal representative of
    W_0 · w gives the residues 1..n to the positions in increasing order of
    the key p - n·q_p; that rank is y(p), λ at the rank is q_p, and x sends
    the rank back to r_p.
    """
    n = w.n
    q = [(v - 1) // n for v in w.window]
    x_win, lam, y_win = [0] * n, [0] * n, [0] * n
    for rank, p in enumerate(sorted(range(n), key=lambda p: p - n * q[p])):
        y_win[p] = rank + 1
        x_win[rank] = w.window[p] - n * q[p]
        lam[rank] = q[p]
    lamco = Cocharacter(tuple(lam), w.similitude)
    if not lamco.is_dominant():
        raise AssertionError("minimal coset representative has non-dominant part")
    return WeylElement(tuple(x_win)), lamco, WeylElement(tuple(y_win))
