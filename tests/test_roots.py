"""Root combinatorics: Phi_w, R(w), LP(w), supports, stable subsets."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from adlv.reduction import commutes_with_level, level_is_stable
from adlv.roots import (
    BudgetExceededError,
    _iter_inv_ideal,
    _proper_twisted_support,
    inv_set,
    is_sigma_coxeter,
    is_sigma_coxeter_finite,
    lp_set,
    phi_w,
    pos_roots,
    r_set,
    s_w_sigma,
    supp,
    supp_sigma,
    tau_sigma_orbits,
)
from adlv.weyl import WeylElement, decompose_xmy, from_word, identity, simple_ref
from adlv.gu import s_admissible, s_closed, w_kl

from conftest import (
    act,
    all_perm_elements,
    commutes_with_level_oracle,
    delta_plus,
    level_is_stable_oracle,
    one_letter_per_orbit,
    s_w_sigma_oracle,
    supp_word,
    weyl_elements,
)


# ---------------------------------------------------------------------------
# roots and the finite action
# ---------------------------------------------------------------------------

def test_act_and_delta():
    s1 = simple_ref(5, 1)
    assert act(s1, (1, 2)) == (2, 1)
    assert act(identity(5), (1, 3)) == (1, 3)
    assert delta_plus((2, 1)) == 0 and delta_plus((1, 2)) == 1
    with pytest.raises(ValueError):
        act(w_kl(5, 1, 2), (1, 2))


@pytest.mark.parametrize("finite_only", [inv_set, is_sigma_coxeter_finite])
def test_finite_only_functions_reject_affine_elements(finite_only):
    with pytest.raises(ValueError, match="requires a finite element"):
        finite_only(w_kl(5, 1, 2))


def test_inv_set_matches_length():
    for u in all_perm_elements(4):
        assert len(inv_set(u)) == u.length()


# ---------------------------------------------------------------------------
# Phi_w
# ---------------------------------------------------------------------------

def test_phi_w_identity_is_all_positive_roots():
    assert phi_w(identity(5)) == frozenset(pos_roots(5))
    assert phi_w(w_kl(5, 1, 2)) == frozenset(pos_roots(5))


def test_phi_w_closed_form_on_strata():
    # the complement is the (k-1)+(l-2) roots ending at the last two slots
    for n in (5, 8, 13):
        for (k, l) in sorted(s_admissible(n)):
            excl = {(i, n - 1) for i in range(1, k)} | {(i, n) for i in range(1, l - 1)}
            assert frozenset(pos_roots(n)) - phi_w(w_kl(n, k, l)) == excl


def test_phi_w_excluded_count_13_7_12():
    assert len(frozenset(pos_roots(13)) - phi_w(w_kl(13, 7, 12))) == 16


# ---------------------------------------------------------------------------
# R(w) and LP(w)
# ---------------------------------------------------------------------------

def _brute_r_set(w):
    allowed = phi_w(w)
    return frozenset(u.inv() for u in all_perm_elements(w.n)
                     if inv_set(u) <= allowed)


def _brute_lp_set(w):
    # direct evaluation of the defining inequalities over the finite group
    n = w.n
    x, lam, y = decompose_xmy(w)
    xy = (x * y).window
    y_mu = tuple(lam.coords[y.window[i] - 1] for i in range(n))
    out = []
    for v in all_perm_elements(n):
        vw = v.window
        for (a, b) in pos_roots(n):
            va, vb = vw[a - 1], vw[b - 1]
            val = y_mu[va - 1] - y_mu[vb - 1]
            val += 1 if va < vb else 0
            val -= 1 if xy[va - 1] < xy[vb - 1] else 0
            if val < 0:
                break
        else:
            out.append(v)
    return frozenset(out)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_r_set_matches_brute_force(n):
    for (k, l) in sorted(s_admissible(n)):
        w = w_kl(n, k, l)
        assert r_set(w) == _brute_r_set(w), (n, k, l)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lp_set_matches_direct_definition(n):
    for (k, l) in sorted(s_admissible(n)):
        w = w_kl(n, k, l)
        assert lp_set(w) == _brute_lp_set(w), (n, k, l)


@given(weyl_elements(max_n=6, max_len=8))
def test_lp_set_random_elements(w):
    assert lp_set(w) == _brute_lp_set(w)


@given(weyl_elements(max_n=6, max_len=8))
def test_lp_contains_y_inverse(w):
    _, _, y = decompose_xmy(w)
    assert y.inv() in lp_set(w)


def test_r_set_unconstrained_is_whole_group():
    for n in (3, 4, 5):
        full = set(all_perm_elements(n))
        assert set(r_set(w_kl(n, 1, 2))) == full
        assert set(lp_set(w_kl(n, 1, 2))) == full
        assert set(lp_set(identity(n))) == full
        assert identity(n) in r_set(w_kl(n, 1, n))


@st.composite
def _allowed_subsets(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pos = pos_roots(n)
    keep = draw(st.lists(st.booleans(), min_size=len(pos), max_size=len(pos)))
    return n, frozenset(r for r, k in zip(pos, keep) if k)


@given(_allowed_subsets())
@settings(max_examples=150, deadline=None)
def test_ideal_walk_visits_each_element_once(case):
    # any subset of positive roots, closed or not, against a filter over S_n
    n, allowed = case
    walked = list(_iter_inv_ideal(n, allowed, 10**6))
    wins = [win for win, _ in walked]
    want = {p for p in itertools.permutations(range(1, n + 1))
            if inv_set(WeylElement(p)) <= allowed}
    assert len(wins) == len(set(wins)) and set(wins) == want
    assert wins[0] == tuple(range(1, n + 1))
    lengths = [WeylElement(win).length() for win in wins]
    assert lengths == sorted(lengths)
    for win, pos in walked:
        assert all(win[pos[v - 1] - 1] == v for v in range(1, n + 1))


@pytest.mark.parametrize("n, k, l", [(6, 2, 5), (7, 3, 6), (8, 2, 7), (8, 4, 8)])
def test_ideal_walk_budget_is_exact(n, k, l):
    w = w_kl(n, k, l)
    allowed, ideal = phi_w(w), r_set(w)
    size = len(ideal)
    assert sum(1 for _ in _iter_inv_ideal(n, allowed, size)) == size
    # the overrun names the length reached: the last level of the walk
    top = max(u.length() for u in ideal)
    with pytest.raises(BudgetExceededError,
                       match=f"^inversion-ideal search exceeded {size - 1} "
                             f"nodes at length {top}$"):
        for _ in _iter_inv_ideal(n, allowed, size - 1):
            pass


def test_ideal_walk_keeps_no_visited_set():
    # w_{3,6} at n = 9 has 32 256 elements; a set of visited windows alone
    # would take several MB, the queue of one breadth-first level far less
    allowed = phi_w(w_kl(9, 3, 6))
    tracemalloc.start()
    try:
        count = sum(1 for _ in _iter_inv_ideal(9, allowed, 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 32256
    assert peak < 3 * 2**20, peak


def test_ideal_walk_queue_is_bounded_by_budget():
    # nodes count against the budget when discovered: an overrun holds at
    # most `budget` queued windows, each two 12-tuples and a 3-tuple (about
    # 340 bytes)
    n, budget = 12, 5000
    w = from_word(n, list(range(n // 2 + 1)), omega=-2, similitude=-1)
    allowed = phi_w(w)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match=f"^inversion-ideal search exceeded {budget} nodes"):
            for _ in _iter_inv_ideal(n, allowed, budget):
                pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400 * budget, peak


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------

def test_supp_basics():
    assert supp(identity(5)) == frozenset()
    assert supp(w_kl(5, 1, 2)) == frozenset()
    assert supp(w_kl(5, 1, 5)) == {0, 1, 2}
    assert supp_sigma(identity(5)) == frozenset()
    assert supp_sigma(simple_ref(5, 1)) == {1, 4}
    assert supp_sigma(simple_ref(5, 2) * simple_ref(5, 3)) == {2, 3}


@given(weyl_elements(max_n=9, max_len=12, omega_bound=3))
def test_supp_matches_reduced_word(w):
    assert supp(w) == supp_word(w)


def test_supp_matches_reduced_word_on_labels_to_20():
    for n in range(2, 21):
        for (k, l) in sorted(s_admissible(n)):
            w = w_kl(n, k, l)
            assert supp(w) == supp_word(w), (n, k, l)


def test_supp_sigma_examples():
    assert supp_sigma(w_kl(13, 1, 7)) == frozenset({0, 1, 2, 3, 4, 7, 8, 9, 10, 11})
    assert supp_sigma(w_kl(13, 3, 12)) == frozenset(range(13))
    assert supp_sigma(w_kl(5, 1, 2)) == frozenset()


@given(weyl_elements(max_n=8, max_len=10),
       st.randoms(use_true_random=False))
def test_supp_sigma_stable_and_minimal(w, rng):
    n, m = w.n, w.omega()
    base = supp(w)
    closed = supp_sigma(w)
    image = {(m - i) % n for i in closed}
    assert image == set(closed)
    assert base <= closed
    # no proper twist-stable subset between supp and supp_sigma
    for _ in range(20):
        if len(closed) <= len(base):
            break
        size = rng.randrange(len(base), len(closed))
        candidate = set(base) | set(rng.sample(sorted(closed - base),
                                               size - len(base)))
        if candidate == set(closed):
            continue
        assert {(m - i) % n for i in candidate} != candidate


def test_tau_sigma_orbit_partition():
    # odd rank: {n-1}, {0, n-2}, {1, n-3}, ..., {(n-3)/2, (n-1)/2}
    for n in (5, 7, 13):
        m = w_kl(n, 1, 2).omega()
        orbits = set(tau_sigma_orbits(n, m))
        expected = {frozenset({n - 1})}
        expected |= {frozenset({i, (n - 2 - i) % n}) for i in range((n - 1) // 2)}
        assert orbits == expected
    # even rank picks up the extra fixed point {n/2 - 1}
    for n in (6, 8, 14):
        m = w_kl(n, 1, 2).omega()
        orbits = set(tau_sigma_orbits(n, m))
        expected = {frozenset({n - 1}), frozenset({n // 2 - 1})}
        expected |= {frozenset({i, (n - 2 - i) % n}) for i in range(n // 2 - 1)}
        assert orbits == expected


def test_untwisted_sigma_orbit_partition():
    # at shift 0 the orbits pair i with n-i: {0}, {1, n-1}, {2, n-2}, ...
    for n in (5, 7):
        orbits = set(tau_sigma_orbits(n, 0))
        expected = {frozenset({0})}
        expected |= {frozenset({i, n - i}) for i in range(1, (n + 1) // 2)}
        assert orbits == expected
    for n in (6, 8):
        orbits = set(tau_sigma_orbits(n, 0))
        expected = {frozenset({0}), frozenset({n // 2})}
        expected |= {frozenset({i, n - i}) for i in range(1, n // 2)}
        assert orbits == expected


# ---------------------------------------------------------------------------
# stable subsets S(w, sigma)
# ---------------------------------------------------------------------------

def _brute_stable_subsets(w):
    """All subsets S' of finite simples with Ad(w)sigma(S') = S'."""
    n = w.n
    simples = {simple_ref(n, j): j for j in range(1, n)}
    image = {}
    for i in range(1, n):
        conj = w * simple_ref(n, i).sigma() * w.inv()
        image[i] = simples.get(conj)
    out = []
    for bits in itertools.product((0, 1), repeat=n - 1):
        sub = {i + 1 for i in range(n - 1) if bits[i]}
        if all(image[i] is not None and image[i] in sub for i in sub):
            img = {image[i] for i in sub}
            if img == sub:
                out.append(frozenset(sub))
    return out


@pytest.mark.parametrize("n", [3, 5, 8])
def test_s_w_sigma_is_maximum_stable_subset(n):
    for (k, l) in sorted(s_admissible(n)):
        w = w_kl(n, k, l)
        got = s_w_sigma(w)
        stable = _brute_stable_subsets(w)
        assert got in stable
        for sub in stable:
            assert sub <= got, (n, k, l, sub, got)


def test_s_w_sigma_examples():
    assert s_w_sigma(w_kl(13, 1, 10)) == {5, 6, 7}
    assert s_w_sigma(w_kl(13, 7, 8)) == frozenset()
    assert s_w_sigma(w_kl(5, 1, 2)) == {1, 2, 4}


def test_s_w_sigma_matches_oracle_on_labels_to_20():
    for n in range(2, 21):
        for (k, l) in sorted(s_admissible(n)):
            w = w_kl(n, k, l)
            assert s_w_sigma(w) == s_w_sigma_oracle(w), (n, k, l)


@given(weyl_elements(max_n=9, max_len=12, omega_bound=3))
def test_s_w_sigma_matches_oracle(w):
    assert s_w_sigma(w) == s_w_sigma_oracle(w)


@given(weyl_elements(max_n=8, max_len=8))
def test_s_w_sigma_stable(w):
    got = s_w_sigma(w)
    n = w.n
    simples = {simple_ref(n, j): j for j in range(1, n)}
    image = set()
    for i in got:
        conj = w * simple_ref(n, i).sigma() * w.inv()
        assert conj in simples
        image.add(simples[conj])
    assert image == set(got)


# ---------------------------------------------------------------------------
# twisted Coxeter elements
# ---------------------------------------------------------------------------

def test_sigma_coxeter_basics():
    assert is_sigma_coxeter(identity(5))
    assert is_sigma_coxeter(w_kl(5, 1, 2))
    # single letter: s_1 · tau
    w = from_word(5, [1], omega=-2, similitude=-1)
    assert is_sigma_coxeter(w)
    # two letters from one orbit: s_1 s_2 · tau ({1,2} is a twist orbit)
    w2 = from_word(5, [1, 2], omega=-2, similitude=-1)
    assert not is_sigma_coxeter(w2)


def test_sigma_coxeter_finite():
    assert is_sigma_coxeter_finite(identity(5))
    assert is_sigma_coxeter_finite(simple_ref(5, 1))
    # s_1 s_4 uses both letters of the orbit {1, 4}
    assert not is_sigma_coxeter_finite(simple_ref(5, 1) * simple_ref(5, 4))
    # the finite part of w_{7,12} at n=13 is a twisted Coxeter element
    assert is_sigma_coxeter_finite(w_kl(13, 7, 12).finite_part())
    finite_orbits = [o for o in tau_sigma_orbits(5, 0) if 0 not in o]
    assert finite_orbits == [frozenset({1, 4}), frozenset({2, 3})]


@pytest.mark.parametrize("n", range(2, 8))
def test_finite_window_predicates_match_definitions(n):
    for u in all_perm_elements(n):
        assert is_sigma_coxeter_finite(u) == one_letter_per_orbit(u), u
        base = supp_word(u)
        assert _proper_twisted_support(u.window) == \
            (len(base | {n - i for i in base}) < n - 1), u


@given(weyl_elements(max_n=8, max_len=8))
def test_sigma_coxeter_matches_definition(w):
    assert is_sigma_coxeter(w) == one_letter_per_orbit(w)


def test_window_predicates_use_no_words_or_products(monkeypatch):
    # every answer is computed first with the oracles, which multiply
    # elements and build reduced words; then both are made to raise
    cases = []
    for n in range(2, 13):
        for (k, l) in sorted(s_admissible(n)):
            w = w_kl(n, k, l)
            level = s_closed(n, k, l)
            base = supp_word(w)
            u = w.finite_part()
            cases.append((w, u, level, {
                "supp": base,
                "supp_sigma": base | {(w.omega() - i) % n for i in base},
                "is_sigma_coxeter": one_letter_per_orbit(w),
                "is_sigma_coxeter_finite": one_letter_per_orbit(u),
                "s_w_sigma": s_w_sigma_oracle(w),
                "level_is_stable": level_is_stable_oracle(w, level),
                "commutes_with_level": [commutes_with_level_oracle(n, i, level)
                                        for i in range(n)],
            }))

    def forbidden(*args, **kwargs):
        raise AssertionError("window predicates must not build words or products")
    monkeypatch.setattr(WeylElement, "reduced_word", forbidden)
    monkeypatch.setattr(WeylElement, "__mul__", forbidden)
    for w, u, level, want in cases:
        got = {
            "supp": supp(w),
            "supp_sigma": supp_sigma(w),
            "is_sigma_coxeter": is_sigma_coxeter(w),
            "is_sigma_coxeter_finite": is_sigma_coxeter_finite(u),
            "s_w_sigma": s_w_sigma(w),
            "level_is_stable": level_is_stable(w, level),
            "commutes_with_level": [commutes_with_level(w.n, i, level)
                                    for i in range(w.n)],
        }
        assert got == want, w
