"""Arrows, chains, equal-length classes, and the emptiness criterion."""

import contextlib
import dataclasses
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from adlv import reduction
from adlv.reduction import (
    ArrowKind,
    BudgetExceededError,
    IncreasingLengthError,
    LevelViolationError,
    NotMinCosetRepError,
    approx_equiv,
    arrow,
    commutes_with_level,
    conj_by_simple,
    find_reduction,
    is_empty_basic,
    is_empty_basic_v_form,
    is_empty_basic_walk,
    level_is_stable,
    positive_coxeter_generic,
    verify_chain,
    _class_walk,
    _tiered_witness,
)
from adlv.roots import inv_set, lp_set, phi_w, supp_sigma
from adlv.weyl import (WeylElement, bruhat_leq, decompose_xmy, from_word, identity,
                       simple_ref, translation)
from adlv.gu import (StratumClass, classify, s_admissible, s_closed, tau_element, w_kl,
                     w_prime)

from conftest import (
    commutes_with_level_oracle,
    level_is_stable_oracle,
    one_letter_per_orbit,
    reduction_search_reference,
    v_form_reference,
    weyl_elements,
)


def _tau_word(n, word):
    return from_word(n, word, omega=-2, similitude=-1)


# ---------------------------------------------------------------------------
# arrows
# ---------------------------------------------------------------------------

def test_arrow_on_length_zero_is_preserving():
    # on a length-zero element every admitted arrow preserves length;
    # at n=5 exactly s_4 is admitted (conjugation by tau shifts indices by 2)
    t = tau_element(5)
    admitted = []
    for i in range(5):
        if conj_by_simple(t, i).length() == 0:
            a = arrow(t, i)
            assert a.kind is ArrowKind.LENGTH_PRESERVING
            admitted.append(i)
        else:
            with pytest.raises(IncreasingLengthError):
                arrow(t, i)
    assert admitted == [4]


def test_arrow_rejects_increasing_length():
    w = w_kl(5, 1, 5)
    with pytest.raises(IncreasingLengthError):
        arrow(w, 3)


def test_arrow_fixed_point():
    # s_2 commutes with s_4... pick w = s_2 at n=4: sigma(s_2) = s_2 and s_2 w s_2 = w
    w = simple_ref(4, 2)
    a = arrow(w, 2)
    assert a.kind is ArrowKind.LENGTH_PRESERVING
    assert a.target == w


@given(weyl_elements(max_n=8, max_len=8), st.data())
def test_arrow_length_step_is_zero_or_minus_two(w, data):
    i = data.draw(st.integers(0, w.n - 1))
    t = conj_by_simple(w, i)
    delta = t.length() - w.length()
    assert delta in (-2, 0, 2)
    if delta > 0:
        with pytest.raises(IncreasingLengthError):
            arrow(w, i)
    else:
        kind = arrow(w, i).kind
        expected = (ArrowKind.LENGTH_PRESERVING if delta == 0
                    else ArrowKind.LENGTH_DROP_TWO)
        assert kind is expected


@given(weyl_elements(max_n=9, max_len=10))
def test_incremental_conjugation_delta(w):
    # the arrows the walk yields out of its root are exactly the letters
    # whose conjugation does not raise length, each with the image and the
    # length change of the full element product; budget 1 ends the walk
    # when it would leave the root
    arrows, parents = [], {}
    with contextlib.suppress(BudgetExceededError):
        arrows.extend(_class_walk(w.window, 1, range(w.n), parents))
    expected = []
    for i in range(w.n):
        t = conj_by_simple(w, i)
        if t.length() <= w.length():
            expected.append((w.window, i, t.window, t.length() - w.length()))
    assert arrows == expected
    assert set(parents) == {w.window} | {image for _, _, image, change in arrows
                                         if change == 0}


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_empty_chain():
    w = w_kl(5, 3, 4)
    rep = verify_chain(w, (), w)
    assert rep.valid and rep.lengths == (4,)


def test_counterexample_chain_convention():
    # the superscript word (s_3, s_0, s_1) applies s_1 first
    rep = verify_chain(w_kl(5, 1, 5), (3, 0, 1), _tau_word(5, [1]))
    assert rep.valid
    assert rep.lengths == (3, 3, 3, 1)
    # consuming the word in the opposite direction fails immediately
    bad = verify_chain(w_kl(5, 1, 5), (1, 0, 3), _tau_word(5, [1]))
    assert not bad.valid and bad.failed_at == 2


@given(weyl_elements(max_n=7, max_len=8), st.data())
def test_chain_lengths_are_the_node_lengths(w, data):
    # a chain measures each node's length once, as the arrow into it lands;
    # the lengths it records are still each node's own
    nodes, word = [w], []
    for _ in range(data.draw(st.integers(0, 6))):
        cur = nodes[-1]
        letters = [i for i in range(w.n)
                   if conj_by_simple(cur, i).length() <= cur.length()]
        if not letters:
            break
        i = data.draw(st.sampled_from(letters))
        word.insert(0, i)  # superscript order: the last letter applies first
        nodes.append(conj_by_simple(cur, i))
    rep = verify_chain(w, word, nodes[-1])
    assert rep.valid and rep.lengths == tuple(v.length() for v in nodes)


def test_reduction_0_chain_n13():
    # w_{3,l} -> s_1...s_{l-3} s_{n-1} s_{n-2} s_{n-1} tau under (s_{n-2}, s_0)
    n, l = 13, 12
    wp = _tau_word(n, list(range(1, l - 2)) + [n - 1, n - 2, n - 1])
    rep = verify_chain(w_kl(n, 3, l), (n - 2, 0), wp)
    assert rep.valid and set(rep.lengths) == {l}
    s = simple_ref(n, n - 1)
    dropped = s * wp * s.sigma()
    assert dropped.length() == l - 2
    assert verify_chain(dropped, (0,), w_kl(n, 1, l)).valid
    # the one-sided product s·w' lands on the (2,l) representative
    halved = s * wp
    assert halved.length() == l - 1
    rep2 = verify_chain(halved, (0, n - 1), w_kl(n, 2, l))
    assert rep2.valid and set(rep2.lengths) == {l - 1}
    # the class search reaches w' as well (it sits two arrows away)
    assert approx_equiv(w_kl(n, 3, l), wp)


# ---------------------------------------------------------------------------
# equal-length classes
# ---------------------------------------------------------------------------

def test_approx_equiv_reflexive_and_rejects_length_mismatch():
    w = w_kl(5, 3, 4)
    assert approx_equiv(w, w)
    assert not approx_equiv(w, w_kl(5, 1, 4))


def test_two_element_queries_reject_rank_mismatch():
    # lengths 4 and 2, the same similitude and Omega, but ranks 5 and 6
    w, other = w_kl(5, 3, 4), w_kl(6, 1, 4)
    with pytest.raises(ValueError, match="rank mismatch"):
        approx_equiv(w, other)
    with pytest.raises(ValueError, match="rank mismatch"):
        bruhat_leq(other, w)
    with pytest.raises(ValueError, match="rank mismatch"):
        find_reduction(w, other)


def test_approx_equiv_symmetric_transitive_small():
    n = 5
    elems = [_tau_word(n, word) for word in
             [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 2, 4]]]
    pairs = [(a, b) for a in elems for b in elems if a.length() == b.length()]
    for a, b in pairs:
        ab = approx_equiv(a, b)
        assert ab == approx_equiv(b, a)
    for a in elems:
        for b in elems:
            for c in elems:
                if a.length() == b.length() == c.length():
                    if approx_equiv(a, b) and approx_equiv(b, c):
                        assert approx_equiv(a, c)


def test_approx_equiv_budget_error():
    # same length, inequivalent: the truncated search must raise, not report False
    w, other = w_kl(9, 5, 8), w_kl(9, 4, 9)
    assert w.length() == other.length()
    # the root and two neighbours fit; the overrun is a depth-1 node
    with pytest.raises(BudgetExceededError,
                       match=r"^equal-length class search exceeded 3 nodes at depth 1$"):
        approx_equiv(w, other, budget=3)
    assert approx_equiv(w, other) is False


def test_reduction_0_statement_via_classes():
    # at n=9: w_{3,l} ~ w' with s w' sigma(s) ~ w_{1,l}, s = s_{n-1}
    n, l = 9, 7
    wp = _tau_word(n, list(range(1, l - 2)) + [n - 1, n - 2, n - 1])
    assert approx_equiv(w_kl(n, 3, l), wp)
    s = simple_ref(n, n - 1)
    assert approx_equiv(s * wp * s.sigma(), w_kl(n, 1, l))


# ---------------------------------------------------------------------------
# find_reduction
# ---------------------------------------------------------------------------

def test_find_reduction_5_3_4():
    cert = find_reduction(w_kl(5, 3, 4), w_kl(5, 1, 4))
    assert cert is not None and cert.verify()


def test_find_reduction_diagonal_case_n14():
    # k + l = n + 3 descends diagonally
    assert w_prime(14, 4, 13) == (3, 12)
    cert = find_reduction(w_kl(14, 4, 13), w_kl(14, 3, 12))
    assert cert is not None and cert.verify()


def test_find_reduction_returns_none_without_a_match():
    # w_{2,4} has the length of w_{3,5}'s target at n = 7 but lies in no
    # class a drop from w_{3,5} reaches: both classes are exhausted
    assert find_reduction(w_kl(7, 3, 5), w_kl(7, 2, 4)) is None
    # the target w_{1,5} with another similitude is never searched for
    assert find_reduction(w_kl(7, 3, 5), WeylElement(w_kl(7, 1, 5).window, 0)) is None


def test_find_reduction_precondition():
    with pytest.raises(ValueError):
        find_reduction(w_kl(5, 3, 4), w_kl(5, 1, 3))


def test_certificate_verify_rejects_tampering():
    cert = find_reduction(w_kl(9, 5, 8), w_kl(9, *w_prime(9, 5, 8)))
    assert cert.verify() and cert.s == 8
    # on the pivot, s_0 would raise the length and s_2 preserves it
    with pytest.raises(IncreasingLengthError):
        arrow(cert.pivot, 0)
    assert arrow(cert.pivot, 2).kind is ArrowKind.LENGTH_PRESERVING
    for change in ({"s": 0}, {"s": 2}, {"pivot": cert.dropped},
                   {"dropped": cert.pivot}, {"target": cert.source}):
        assert dataclasses.replace(cert, **change).verify() is False


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_find_reduction_matches_reference_search(n):
    # field for field against an element-level search that exhausts the
    # target's class before it walks the source's
    for (k, l) in sorted(s_admissible(n)):
        if classify(n, k, l) is not StratumClass.NOT_DL:
            continue
        w, target = w_kl(n, k, l), w_kl(n, *w_prime(n, k, l))
        for level in (None, s_closed(n, k, l)):
            cert = find_reduction(w, target, level=level)
            want = reduction_search_reference(w, target, level)
            assert want is not None, (n, k, l, level)
            assert (cert.to_pivot, cert.pivot, cert.s, cert.dropped,
                    cert.to_target) == want, (n, k, l, level)
            assert (cert.source, cert.target, cert.level) == (w, target, level)


def test_find_reduction_budget_bounds_visited_nodes():
    # the target class of (11, 6, 10) has 8036 nodes, but the drop into it
    # is discovered well within 3000 visited nodes of either walk
    w, target = w_kl(11, 6, 10), w_kl(11, *w_prime(11, 6, 10))
    cert = find_reduction(w, target, budget=3000)
    assert cert is not None and cert.verify()
    # a smaller budget is undecided: an error, never None
    with pytest.raises(BudgetExceededError,
                       match=r"^equal-length class search exceeded 1000 nodes"):
        find_reduction(w, target, budget=1000)


def test_find_reduction_rejects_illegal_levels():
    # {3, 4} is not stable under w_{3,8} at n = 9
    with pytest.raises(LevelViolationError, match="not stable"):
        find_reduction(w_kl(9, 3, 8), w_kl(9, 1, 8), level=frozenset({3, 4}))
    # s_1 s_2 s_1 has the left descent 1, so it is not minimal at the level {1}
    with pytest.raises(LevelViolationError, match="not minimal"):
        find_reduction(from_word(3, [1, 2, 1]), from_word(3, [1]),
                       level=frozenset({1}))


# ---------------------------------------------------------------------------
# parahoric-level guard
# ---------------------------------------------------------------------------

def test_level_guard_predicates():
    # on the cyclic diagram, s_0 commutes with {3, 4} at n = 7 but not with {1}
    assert commutes_with_level(7, 0, frozenset({3, 4}))
    assert not commutes_with_level(7, 0, frozenset({1}))
    assert not commutes_with_level(7, 3, frozenset({3, 4}))
    # the stable subset of a stratum representative is, by construction, stable
    w = w_kl(9, 3, 8)
    assert level_is_stable(w, s_closed(9, 3, 8))
    assert not level_is_stable(w, frozenset({1}))


@given(weyl_elements(max_n=9, max_len=12, omega_bound=3), st.data())
def test_level_predicates_match_products(w, data):
    n = w.n
    level = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    i = data.draw(st.integers(0, n - 1))
    assert level_is_stable(w, level) == level_is_stable_oracle(w, level)
    assert commutes_with_level(n, i, level) == commutes_with_level_oracle(n, i, level)


def test_level_predicates_reject_out_of_range_indices():
    with pytest.raises(ValueError):
        level_is_stable(w_kl(5, 3, 4), frozenset({5}))
    with pytest.raises(ValueError):
        commutes_with_level(5, 0, frozenset({-1}))


def test_arrow_with_level_context():
    w = w_kl(9, 3, 8)
    level = frozenset({3, 4, 5})  # the stable subset for (3,8) at n=9
    a = arrow(w, 0, level)
    assert a.kind is ArrowKind.LENGTH_PRESERVING
    with pytest.raises(LevelViolationError):
        arrow(w, 4, level)          # inside the level
    with pytest.raises(LevelViolationError):
        arrow(w, 2, level)          # adjacent to the level
    with pytest.raises(LevelViolationError, match="does not commute"):
        arrow(w, 0, frozenset({1}))  # adjacent to the level
    # s_6 commutes with {1} at n = 7, but w_{3,5} does not keep {1} stable
    with pytest.raises(LevelViolationError,
                       match=r"^level \[1\] is not stable under the source$"):
        arrow(w_kl(7, 3, 5), 6, level=frozenset({1}))


def test_find_reduction_at_level():
    n, k, l = 9, 3, 8
    level = s_closed(n, k, l)
    cert = find_reduction(w_kl(n, k, l), w_kl(n, *w_prime(n, k, l)), level=level)
    assert cert is not None and cert.level == level and cert.verify()
    # every letter of the certificate commutes with the level
    for a in (*cert.to_pivot, cert.s, *cert.to_target):
        assert commutes_with_level(n, a, level)


# ---------------------------------------------------------------------------
# emptiness
# ---------------------------------------------------------------------------

def test_is_empty_requires_min_coset_rep():
    with pytest.raises(NotMinCosetRepError):
        is_empty_basic(simple_ref(5, 1) * w_kl(5, 3, 4))


def test_emptiness_examples():
    assert is_empty_basic(w_kl(13, 4, 10)).empty
    assert not is_empty_basic(w_kl(10, 3, 9)).empty
    # proper twisted support means nonempty regardless of condition (ii)
    verdict = is_empty_basic(w_kl(13, 1, 10))
    assert not verdict.empty and verdict.witness is None
    # the closure decides a not-DL label at rank 13 without a budget; the
    # walk oracle needs the whole constrained ideal, which overruns any sane
    # budget, and that must surface as an error
    assert not is_empty_basic(w_kl(13, 3, 12)).empty
    with pytest.raises(BudgetExceededError):
        is_empty_basic_walk(w_kl(13, 3, 12), budget=10**4)


def test_empty_witness_recheck():
    for (n, k, l) in [(5, 2, 4), (9, 4, 7), (13, 4, 10), (13, 6, 9)]:
        w = w_kl(n, k, l)
        verdict = is_empty_basic(w)
        assert verdict.empty
        r = verdict.witness
        assert r is not None and r.is_finite()
        # independent recheck through element-level operations
        assert inv_set(r) <= phi_w(w)
        _, _, y = decompose_xmy(w)
        u = r * y * r.sigma().inv()
        assert len(supp_sigma(u)) < n - 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_v_form_matches_r_form(n):
    for (k, l) in sorted(s_admissible(n)):
        w = w_kl(n, k, l)
        closure = is_empty_basic(w).empty
        assert closure == is_empty_basic_v_form(w).empty, (n, k, l)
        assert closure == is_empty_basic_walk(w).empty, (n, k, l)


def test_v_form_witness_recheck():
    count = 0
    for n in range(2, 10):
        for (k, l) in sorted(s_admissible(n)):
            if classify(n, k, l) is not StratumClass.EMPTY:
                continue
            w = w_kl(n, k, l)
            v = is_empty_basic_v_form(w).witness
            assert v is not None, (n, k, l)
            # independent recheck through element-level operations
            _, _, y = decompose_xmy(w)
            assert inv_set((y * v).inv()) <= phi_w(w), (n, k, l)
            u = v.sigma().inv() * w.finite_part() * v
            assert len(supp_sigma(u)) < n - 1, (n, k, l)
            # the first witness in breadth-first order, as the element-level
            # loop finds it
            if n <= 8:
                assert v == v_form_reference(w), (n, k, l)
            count += 1
    assert count == 50


def test_v_form_budget_overrun_raises():
    # a not-DL label: the walk must exhaust |R(w)| = 21 600 nodes, and an
    # overrun is an error, never a "not empty" verdict
    w = w_kl(9, 3, 8)
    assert classify(9, 3, 8) is StratumClass.NOT_DL
    with pytest.raises(BudgetExceededError):
        is_empty_basic_v_form(w, budget=1000)
    # every node of R(w) counts once: exactly |R(w)| is enough, one less is not
    assert not is_empty_basic_v_form(w, budget=21_600).empty
    with pytest.raises(BudgetExceededError):
        is_empty_basic_v_form(w, budget=21_599)


def test_v_form_is_independent_of_the_r_form(monkeypatch):
    # the v-form is an independent oracle: it must reach its verdicts without
    # the r-form's search or its support predicate
    def forbidden(*args, **kwargs):
        raise AssertionError("the v-form called the r-form's machinery")
    monkeypatch.setattr(reduction, "_find_twisted_conjugate", forbidden)
    monkeypatch.setattr(reduction, "_proper_twisted_support", forbidden)
    assert classify(5, 2, 4) is StratumClass.EMPTY
    assert is_empty_basic_v_form(w_kl(5, 2, 4)).empty
    assert classify(5, 3, 4) is StratumClass.NOT_DL
    assert not is_empty_basic_v_form(w_kl(5, 3, 4)).empty


@settings(max_examples=150, deadline=None)
@given(weyl_elements(max_n=6, max_len=12))
def test_v_form_matches_its_reference_on_minimal_representatives(w):
    # any minimal coset representative phi^λ·y, not only the w_{k,l}: the
    # witness is the element-level loop's first v, None when m is not empty
    _, lam, y = decompose_xmy(w)
    m = translation(lam) * y
    verdict = is_empty_basic_v_form(m)
    assert verdict.empty == is_empty_basic(m).empty
    want = v_form_reference(m) if len(supp_sigma(m)) == m.n else None
    assert verdict.witness == want


@settings(max_examples=150, deadline=None)
@given(weyl_elements(max_n=6, max_len=12))
def test_closure_matches_walk_on_minimal_representatives(w):
    # any minimal coset representative phi^λ·y, not only the w_{k,l}
    _, lam, y = decompose_xmy(w)
    m = translation(lam) * y
    verdict = is_empty_basic(m)
    assert verdict.empty == is_empty_basic_walk(m).empty
    if verdict.empty:
        r = verdict.witness
        assert inv_set(r) <= phi_w(m)
        assert len(supp_sigma(r * y * r.sigma().inv())) < m.n - 1


def _tiers_by_brute_force(h, allowed):
    """Whether some r in S_n has Inv(r) ⊆ allowed and makes
    u = r·z·sigma(r)⁻¹, z(p) = h(n+1-p), stabilize {1..i} and {n-i+1..n}
    for some 1 <= i <= n/2; every r is tried."""
    n = len(h)
    forbidden = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if (a, b) not in allowed]
    return any(_stabilizes_tiers(r, h) for r in itertools.permutations(range(1, n + 1))
               if all(r[a - 1] < r[b - 1] for a, b in forbidden))


def _stabilizes_tiers(r, h):
    n = len(r)
    r_inv = [0] * n
    for p, v in enumerate(r, 1):
        r_inv[v - 1] = p
    # sigma(r)⁻¹(p) = n + 1 - r⁻¹(n + 1 - p) and z(q) = h(n + 1 - q)
    u = [r[h[r_inv[n - p] - 1] - 1] for p in range(1, n + 1)]
    return any(set(u[:i]) == set(range(1, i + 1))
               and set(u[n - i:]) == set(range(n - i + 1, n + 1))
               for i in range(1, n // 2 + 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)),
    st.sets(st.sampled_from([(a, b) for a in range(1, n + 1)
                             for b in range(a + 1, n + 1)])))))
def test_tiered_witness_against_brute_force(case):
    # any permutation h and any allowed set, closed or not
    h, allowed = tuple(case[0]), frozenset(case[1])
    r = _tiered_witness(h, allowed)
    assert (r is not None) == _tiers_by_brute_force(h, allowed)
    if r is not None:
        assert sorted(r) == list(range(1, len(h) + 1))
        assert inv_set(WeylElement(r)) <= allowed
        assert _stabilizes_tiers(r, h)


# ---------------------------------------------------------------------------
# positive Coxeter type
# ---------------------------------------------------------------------------

def test_positive_coxeter_examples():
    assert positive_coxeter_generic(tau_element(5))
    assert positive_coxeter_generic(w_kl(9, 5, 6))
    assert not positive_coxeter_generic(w_kl(9, 3, 8))
    # k = (n+1)/2 at n = 13; the finite part itself is the witness
    assert positive_coxeter_generic(w_kl(13, 7, 12))


@given(weyl_elements(max_n=6, max_len=8))
def test_positive_coxeter_generic_off_minimal_representatives(w):
    # reference: sigma(v)⁻¹ · p(w) · v with element arithmetic over all of
    # LP(w), tested against the reduced-word definition
    assume(not w.is_min_coset_rep())
    pw = w.finite_part()
    want = any(one_letter_per_orbit(v.sigma().inv() * pw * v) for v in lp_set(w))
    assert positive_coxeter_generic(w) == want
