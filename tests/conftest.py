"""Shared strategies and independent oracles used across the test suite."""

from __future__ import annotations

import itertools
import json
from collections import deque

from hypothesis import HealthCheck, settings, strategies as st

from adlv.gu import (
    StratumClass,
    StratumGraph,
    StratumLabel,
    b_element,
    classify,
    graph_summary,
    mu,
    stratum_record,
    w_kl,
    w_prime,
)
from adlv.reduction import (
    ArrowKind,
    ChainReport,
    IncreasingLengthError,
    LevelViolationError,
    ReductionArrow,
    commutes_with_level,
    level_is_stable,
)
from adlv.roots import DEFAULT_BUDGET, _iter_inv_ideal, phi_w, supp_sigma
from adlv.weyl import (
    Cocharacter,
    WeylElement,
    decompose_xmy,
    from_word,
    omega_shift,
    simple_ref,
    tau1,
    translation,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@st.composite
def weyl_elements(draw, min_n=2, max_n=8, max_len=10, omega_bound=2, sim_bound=2):
    n = draw(st.integers(min_n, max_n))
    word = draw(st.lists(st.integers(0, n - 1), max_size=max_len))
    omega = draw(st.integers(-omega_bound, omega_bound))
    sim = draw(st.integers(-sim_bound, sim_bound))
    return from_word(n, word, omega=omega, similitude=sim)


@st.composite
def weyl_element_pairs(draw, max_n=8, max_len=8):
    """Two elements of the same rank."""
    n = draw(st.integers(2, max_n))
    words = [draw(st.lists(st.integers(0, n - 1), max_size=max_len))
             for _ in range(2)]
    omegas = [draw(st.integers(-2, 2)) for _ in range(2)]
    return tuple(from_word(n, w, omega=m) for w, m in zip(words, omegas))


@st.composite
def weyl_element_triples(draw, max_n=12, max_len=8):
    n = draw(st.integers(2, max_n))
    return tuple(
        from_word(n,
                  draw(st.lists(st.integers(0, n - 1), max_size=max_len)),
                  omega=draw(st.integers(-2, 2)),
                  similitude=draw(st.integers(-2, 2)))
        for _ in range(3))


# ---------------------------------------------------------------------------
# independent oracles (never shared with src/)
# ---------------------------------------------------------------------------

def length_formula(w: WeylElement) -> int:
    """
    The double-sum length formula over positive roots, applied to the
    factorization w = u · phi^λ with u finite:

        sum_{i<j, u(i)>u(j)} |λ_i - λ_j + 1| + sum_{i<j, u(i)<u(j)} |λ_i - λ_j|
    """
    n = w.n
    u = [(v - 1) % n + 1 for v in w.window]
    lam = [(w.window[i] - u[i]) // n for i in range(n)]
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = lam[i] - lam[j]
            total += abs(d + 1) if u[i] > u[j] else abs(d)
    return total


def subword_products(w: WeylElement) -> frozenset[tuple[int, ...]]:
    """All windows obtainable as subword products of one reduced word of w
    (times the Omega part); by the subword property this is the lower Bruhat
    interval of the window part."""
    word, m = w.reduced_word()
    out = set()
    for mask in range(1 << len(word)):
        sub = [word[i] for i in range(len(word)) if mask >> i & 1]
        out.add(from_word(w.n, sub, omega=m).window)
    return frozenset(out)


def s_adm_subword_reference(n: int) -> frozenset[StratumLabel]:
    """
    The admissible labels by their definition, with no use of the double
    coset W_0·phi^μ·W_0: the minimal coset representatives among the subword
    products of every phi^λ, λ ∈ W·μ, matched against the w_{k,l}.  It checks
    the candidate restriction of ``brute_force_s_adm`` empirically
    (exponential in n: n <= 6).
    """
    sim = mu(n).similitude
    below = set()
    for pair in itertools.combinations(range(n), 2):  # W·μ: two -1 slots
        t = translation(Cocharacter(tuple(-(i in pair) for i in range(n)), sim))
        below |= {WeylElement(window, sim) for window in subword_products(t)}
    reps = {w for w in below if w.is_min_coset_rep()}
    by_element = {w_kl(n, k, l): StratumLabel(k, l)
                  for k in range(1, n) for l in range(k + 1, n + 1)}
    if not reps <= by_element.keys():
        raise AssertionError(f"unexpected minimal admissible elements {reps - by_element.keys()}")
    return frozenset(by_element[w] for w in reps)


def bruhat_count_oracle(u: WeylElement, w: WeylElement) -> bool:
    """
    Bruhat order by counting (Björner–Brenti, Combinatorics of Coxeter
    Groups, Thm 8.3.7): u <= w iff u[i,j] <= w[i,j] for all i, j, where
    v[i,j] = #{a <= i : v(a) >= j}.  The theorem is stated for affine
    permutations; inside one Omega-coset, v = v'·tau1^m, tau1^m only shifts
    i.  Periodicity leaves i = 1..n, and with d the largest displacement
    |v(a) - a| of u and w, only the band |i - j| <= d + n can differ.
    """
    if u.similitude != w.similitude or u.omega() != w.omega():
        return False
    n = u.n
    d = max(abs(v - a) for x in (u, w) for a, v in enumerate(x.window, start=1))

    def count(x, i, j):  # v(a) <= a + d, so only a >= j - d can reach j
        return sum(x.window[(a - 1) % n] + n * ((a - 1) // n) >= j
                   for a in range(j - d, i + 1))

    return all(count(u, i, j) <= count(w, i, j)
               for i in range(1, n + 1) for j in range(i - d - n, i + d + n + 1))


def all_perm_elements(n: int):
    """Every finite element of rank n."""
    return [WeylElement(p) for p in itertools.permutations(range(1, n + 1))]


def one_letter_per_orbit(w: WeylElement) -> bool:
    """Twisted Coxeter by definition: a reduced word of the window part uses
    at most one letter from each orbit of the twist s_i -> s_{(m-i) mod n},
    m the Omega-component (m = 0, i.e. s_i -> s_{n-i}, for finite elements)."""
    word, m = w.reduced_word()
    orbits = [min(a, (m - a) % w.n) for a in word]
    return len(orbits) == len(set(orbits))


def s_w_sigma_oracle(w: WeylElement) -> frozenset[int]:
    """The largest subset S' of finite simples with Ad(w)sigma(S') = S', by
    pruning, with each image w·sigma(s_i)·w⁻¹ formed as a product of
    elements and looked up among the finite simple reflections."""
    n = w.n
    simples = {simple_ref(n, j): j for j in range(1, n)}
    image = {i: simples.get(w * simple_ref(n, i).sigma() * w.inv())
             for i in range(1, n)}
    cur = {i for i in range(1, n) if image[i] is not None}
    changed = True
    while changed:
        changed = False
        for i in sorted(cur):
            if image[i] not in cur:
                cur.discard(i)
                changed = True
    return frozenset(cur)


def w_kl_product(n: int, k: int, l: int) -> WeylElement:
    """w_{k,l} = phi^μ · (s_{n-2} ... s_k) · (s_{n-1} ... s_l) as a product of
    simple reflections, μ = ((0^(n-2), -1, -1), -1)."""
    w = translation(Cocharacter((0,) * (n - 2) + (-1, -1), -1))
    for a in list(range(n - 2, k - 1, -1)) + list(range(n - 1, l - 1, -1)):
        w = w * simple_ref(n, a)
    return w


def supp_word(w: WeylElement) -> frozenset[int]:
    """Support by definition: the letters of a reduced word of the affine
    part w·tau1^{-m}, m the Omega-component."""
    word, _ = w.reduced_word()
    return frozenset(word)


def commutes_with_level_oracle(n: int, i: int, level: frozenset[int]) -> bool:
    """s_i outside ``level`` and commuting with every element of it, tested
    by multiplying simple reflections."""
    if i in level:
        return False
    s = simple_ref(n, i)
    return all(s * simple_ref(n, j) == simple_ref(n, j) * s for j in level)


def level_is_stable_oracle(w: WeylElement, level: frozenset[int]) -> bool:
    """Ad(w)sigma permutes ``level``: each w·sigma(s_j)·w⁻¹ formed as a
    product and looked up among the simple reflections."""
    n = w.n
    simples = {simple_ref(n, j).window: j for j in range(n)}
    image = set()
    for j in level:
        conj = w * simple_ref(n, j).sigma() * w.inv()
        got = simples.get(conj.window)
        if got is None or conj.similitude != 0:
            return False
        image.add(got)
    return image == set(level)


def conj_by_simple(w: WeylElement, i: int) -> WeylElement:
    """s_i · w · sigma(s_i) as a product of elements."""
    s = simple_ref(w.n, i)
    return s * w * s.sigma()


def arrow_reference(w: WeylElement, i: int,
                    level: frozenset[int] | None = None) -> ReductionArrow:
    """
    ``reduction.arrow`` by its definition: the level checks of the source
    (``commutes_with_level``, then ``level_is_stable``), the product
    ``conj_by_simple`` and both lengths by Shi's formula.
    """
    if level is not None:
        if not commutes_with_level(w.n, i, level):
            raise LevelViolationError(f"s_{i} does not commute with the level")
        if not level_is_stable(w, level):
            raise LevelViolationError("level is not stable under the source")
    t = conj_by_simple(w, i)
    delta = t.length() - w.length()
    if delta > 0:
        raise IncreasingLengthError(f"conjugation by s_{i} increases length by {delta}")
    kind = ArrowKind.LENGTH_PRESERVING if delta == 0 else ArrowKind.LENGTH_DROP_TWO
    return ReductionArrow(w, i, t, kind)


def chain_reference(w: WeylElement, steps, expected: WeylElement,
                    level: frozenset[int] | None = None) -> ChainReport:
    """``reduction.verify_chain`` by ``arrow_reference``, one arrow a step,
    rightmost letter first, every level check made at every step."""
    cur, lengths = w, [w.length()]
    for idx in reversed(range(len(steps))):
        try:
            cur = arrow_reference(cur, steps[idx], level).target
        except (IncreasingLengthError, LevelViolationError):
            return ChainReport(False, tuple(lengths), cur, failed_at=idx)
        lengths.append(cur.length())
    return ChainReport(cur == expected, tuple(lengths), cur)


def certificate_reference(cert) -> bool:
    """``ReductionCertificate.verify`` by its definition: the chain to the
    pivot keeps the length, the arrow by s drops it by two onto ``dropped``,
    the chain to the target keeps it, all by ``chain_reference`` and
    ``arrow_reference``."""
    first = chain_reference(cert.source, cert.to_pivot, cert.pivot, cert.level)
    if not (first.valid and len(set(first.lengths)) == 1):
        return False
    try:
        drop = arrow_reference(cert.pivot, cert.s, cert.level)
    except (IncreasingLengthError, LevelViolationError):
        return False
    if drop.kind is not ArrowKind.LENGTH_DROP_TWO or drop.target != cert.dropped:
        return False
    second = chain_reference(cert.dropped, cert.to_target, cert.target, cert.level)
    return second.valid and len(set(second.lengths)) == 1


def class_walk_reference(start: WeylElement, letters, parents: dict):
    """
    The equal-length class of ``start`` by its definition on elements:
    breadth first under the arrows x -> s_i·x·sigma(s_i), each product
    formed and measured, letters in the given order, and every image of
    unchanged length entered in ``parents`` at discovery (the root maps to
    None, any other element to its parent and letter).  Yields every arrow
    (x, i, image, length change), raising ones included.
    """
    n = start.n
    parents[start] = None
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for i in letters:
            s = simple_ref(n, i)
            image = s * x * s.sigma()
            change = image.length() - x.length()
            if change == 0 and image not in parents:
                parents[image] = (x, i)
                queue.append(image)
            yield x, i, image, change


def reduction_search_reference(w: WeylElement, target: WeylElement,
                               level: frozenset[int] | None = None):
    """
    The reduction certificate of w onto ``target`` by its definition on
    elements: exhaust the target's equal-length class with
    ``class_walk_reference`` (letters ascending), then walk the source's
    class the same way up to the first arrow that drops length by two into
    it.  Only letters outside ``level`` and commuting with it are used.
    Returns (to_pivot, pivot, s, dropped, to_target), both words in
    superscript order, or None.
    """
    n = w.n
    letters = [i for i in range(n)
               if level is None or commutes_with_level_oracle(n, i, level)]

    def path(parents, x):
        out = []
        while parents[x] is not None:
            x, i = parents[x]
            out.append(i)
        return out[::-1]

    target_parents: dict = {}
    for _ in class_walk_reference(target, letters, target_parents):
        pass
    source_parents: dict = {}
    for x, i, image, change in class_walk_reference(w, letters, source_parents):
        if change == -2 and image in target_parents:
            return (tuple(reversed(path(source_parents, x))), x, i, image,
                    tuple(path(target_parents, image)))
    return None


def v_form_reference(w: WeylElement) -> WeylElement | None:
    """
    The first length-positive v = y⁻¹·r⁻¹ with supp_sigma(sigma(v)⁻¹·p(w)·v)
    proper in the finite diagram, by element arithmetic at every node of the
    ideal walk Inv(r) ⊆ Phi_w; None when the ideal is exhausted.  It shares
    the walk, and so its order, with ``is_empty_basic_v_form``, whose witness
    it pins.
    """
    _, _, y = decompose_xmy(w)
    yi = y.inv()
    pw = w.finite_part()
    for _, pos in _iter_inv_ideal(w.n, phi_w(w), DEFAULT_BUDGET):
        v = yi * WeylElement(pos)
        if len(supp_sigma(v.sigma().inv() * pw * v)) < w.n - 1:
            return v
    return None


def tiered_closure_reference(h, edges) -> tuple[int, ...] | None:
    """
    The witness of ``reduction._tiered_witness`` by one breadth-first
    closure per seed over the 2n nodes "p in T" (bit p - 1) and "p in B"
    (bit n + p - 1), with no h-cycles: arrows a∈T -> b∈T and b∈B -> a∈B per
    edge (a, b), p∈T -> h(p)∈B and p∈B -> h(p)∈T.  The first seed t whose
    closure has T and B disjoint gives the tiered r (B lowest, then the
    rest, then T, by position inside each tier); None when no seed does.
    """
    n = len(h)
    succ = [1 << (n + v - 1) for v in h] + [1 << (v - 1) for v in h]
    for a, b in edges:
        succ[a - 1] |= 1 << (b - 1)
        succ[n + b - 1] |= 1 << (n + a - 1)
    for t in range(n):
        reach = frontier = 1 << t
        while frontier:
            step = 0
            for v in range(2 * n):
                if frontier >> v & 1:
                    step |= succ[v]
            frontier = step & ~reach
            reach |= frontier
        top, bottom = reach & ((1 << n) - 1), reach >> n
        if not top & bottom:
            by_value = sorted(range(n), key=lambda p: (top >> p & 1) - (bottom >> p & 1))
            r = [0] * n
            for value, p in enumerate(by_value, 1):
                r[p] = value
            return tuple(r)
    return None


def dim_stratum_recursive(n: int, k: int, l: int) -> int:
    """Stratum dimension by its definition: the length k + l - 3 on DL
    labels, the target's dimension plus one along each fibration step."""
    if classify(n, k, l) is StratumClass.DL:
        return k + l - 3
    return dim_stratum_recursive(n, *w_prime(n, k, l)) + 1


# ---------------------------------------------------------------------------
# helpers only the tests use
# ---------------------------------------------------------------------------

def w0_element(n: int, k: int, l: int) -> WeylElement:
    """b⁻¹ · tau1 · w_{k,l} · sigma(tau1)⁻¹ on a nonempty label, a plain
    affine element; finite exactly when the shifted support union fills the
    finite diagram (the DL labels with k = 1 and 2l >= n+3)."""
    stratum_record(n, k, l)  # NotApplicableError on an empty label
    t1 = tau1(n)
    out = b_element(n).inv() * t1 * w_kl(n, k, l) * t1.sigma().inv()
    if out.omega() != 0 or out.similitude != 0:
        raise AssertionError("frame-shifted element left the affine subgroup")
    return out


def canonical_graph_bytes(g: StratumGraph) -> bytes:
    """The bytes of the golden fixtures: ``graph_summary`` as indented JSON."""
    return (json.dumps(graph_summary(g), indent=2) + "\n").encode()


def delta_plus(root: tuple[int, int]) -> int:
    """Indicator of positivity of the root (i, j)."""
    return 1 if root[0] < root[1] else 0


def act(u: WeylElement, root: tuple[int, int]) -> tuple[int, int]:
    """Action of a finite element on a root: u · (i, j) = (u(i), u(j))."""
    if not u.is_finite():
        raise ValueError("root action requires an element with zero translation part")
    return (u.window[root[0] - 1], u.window[root[1] - 1])


def pairing_2rho(coords) -> int:
    """<λ, 2ρ> = sum over positive roots (i<j) of λ_i - λ_j."""
    n = len(coords)
    return sum(coords[i - 1] * (n + 1 - 2 * i) for i in range(1, n + 1))


def iter_ball(n: int, max_len: int, omega: int):
    """All elements of length <= max_len in the coset W_a · tau1^omega, grown
    by left multiplication with simple reflections that raise the length."""
    start = omega_shift(n, omega)
    seen = {start}
    frontier = [start]
    yield start
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for i in sorted(set(range(n)) - w.left_descents()):
                new = simple_ref(n, i) * w
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
                    yield new
        frontier = nxt
