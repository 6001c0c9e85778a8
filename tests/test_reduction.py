"""Arrows, chains, equal-length classes, and the emptiness criterion."""

import contextlib
import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from adlv import reduction
from adlv.reduction import (
    ArrowKind,
    BudgetExceededError,
    EmptinessVerdict,
    IncreasingLengthError,
    LevelViolationError,
    NotMinCosetRepError,
    approx_equiv,
    arrow,
    commutes_with_level,
    find_reduction,
    is_empty_basic,
    is_empty_basic_v_form,
    level_is_stable,
    positive_coxeter_generic,
    verify_chain,
    _class_walk,
    _tiered_witness,
)
from adlv import gu, roots, weyl
from adlv.roots import (DEFAULT_BUDGET, inv_set, lp_set, phi_w, pos_roots, supp_sigma,
                        _excluded_roots)
from adlv.weyl import (WeylElement, bruhat_leq, decompose_xmy, from_word, identity,
                       simple_ref, translation)
from adlv.gu import (StratumClass, classify, s_admissible, s_closed, w_kl,
                     w_prime)

from conftest import (
    arrow_reference,
    certificate_reference,
    chain_reference,
    class_walk_reference,
    conj_by_simple,
    commutes_with_level_oracle,
    level_is_stable_oracle,
    one_letter_per_orbit,
    reduction_search_reference,
    tiered_closure_reference,
    v_form_reference,
    weyl_elements,
)


def _tau_word(n, word):
    return from_word(n, word, omega=-2, similitude=-1)


def _outcome(call):
    """A call's result, or the type of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# arrows
# ---------------------------------------------------------------------------

def test_arrow_on_length_zero_is_preserving():
    # on a length-zero element every admitted arrow preserves length;
    # at n=5 exactly s_4 is admitted (conjugation by tau shifts indices by 2)
    t = w_kl(5, 1, 2)
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


@given(weyl_elements(max_n=8, max_len=8), st.data())
def test_arrow_matches_its_product_form_reference(w, data):
    # the same arrow, or the same error, as the element product measured by
    # Shi's formula with the level checked at the step itself
    i = data.draw(st.integers(0, w.n - 1))
    level = data.draw(st.none() | st.frozensets(st.integers(0, w.n - 1), max_size=2))
    assert _outcome(lambda: arrow(w, i, level)) == _outcome(
        lambda: arrow_reference(w, i, level))


@given(weyl_elements(max_n=9, max_len=10))
def test_incremental_conjugation_delta(w):
    # the root's drops are exactly the letters whose conjugation lowers
    # length, each with the image of the full element product, and every
    # other image of the root's length is in parents, reached by the first
    # letter that gives it; budget 1 ends the walk when it would leave the
    # root
    nodes, parents = [], {}
    with contextlib.suppress(BudgetExceededError):
        nodes.extend(_class_walk(w.window, 1, range(w.n), parents))
    drops, kept = [], {}
    for i in range(w.n):
        t = conj_by_simple(w, i)
        if t.length() < w.length():
            drops.append((i, t.window))
        elif t.length() == w.length() and t != w:
            kept.setdefault(t.window, (w.window, i))
    assert nodes == [(w.window, drops)]
    assert parents == {w.window: None, **kept}


@given(weyl_elements(max_n=7, max_len=10), st.data())
def test_class_walk_matches_its_reference(w, data):
    # over a whole class, with all letters or a subset: the same nodes in
    # the same order, the same parents map and, node by node, the same
    # drops as the element-level walk
    letters = range(w.n)
    if data.draw(st.booleans()):
        letters = sorted(data.draw(st.sets(st.integers(0, w.n - 1), min_size=1)))
    parents, ref_parents, ref_drops = {}, {}, {}
    nodes = list(_class_walk(w.window, DEFAULT_BUDGET, letters, parents))
    for x, i, image, change in class_walk_reference(w, letters, ref_parents):
        drops = ref_drops.setdefault(x.window, [])
        if change == -2:
            drops.append((i, image.window))
    assert nodes == list(ref_drops.items())
    assert list(parents.items()) == [
        (x.window, None if p is None else (p[0].window, p[1]))
        for x, p in ref_parents.items()]


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
    # a chain measures its source alone and adds up the arrows' length
    # changes; the lengths it records are still each node's own
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
    # the same windows under another similitude are other elements
    for field in ("pivot", "dropped", "target"):
        x = getattr(cert, field)
        other = dataclasses.replace(cert, **{field: WeylElement(x.window, x.similitude + 1)})
        assert other.verify() is certificate_reference(other) is False


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


@pytest.mark.parametrize("n, k, l, leveled, budget, depth", [
    (11, 6, 10, False, 2276, 11),
    (11, 5, 10, True, 506, 9),  # level s_closed = {5}
])
def test_find_reduction_needs_exactly_its_budget(n, k, l, leveled, budget, depth):
    # the smallest budget that finds each certificate pins the nodes the
    # walks visit: a walk that skipped or added one would move it
    w, target = w_kl(n, k, l), w_kl(n, *w_prime(n, k, l))
    level = s_closed(n, k, l) if leveled else None
    cert = find_reduction(w, target, budget=budget, level=level)
    assert cert == find_reduction(w, target, level=level) and cert.verify()
    with pytest.raises(BudgetExceededError,
                       match=rf"^equal-length class search exceeded {budget - 1} "
                             rf"nodes at depth {depth}$"):
        find_reduction(w, target, budget=budget - 1, level=level)


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


def test_leveled_find_reduction_rejects_out_of_range_level():
    # the level is checked once per search, before any letter is filtered
    n, k, l = 9, 3, 8
    w, target = w_kl(n, k, l), w_kl(n, *w_prime(n, k, l))
    for bad in (frozenset({n}), frozenset({-1}), s_closed(n, k, l) | {n + 3}):
        with pytest.raises(ValueError, match="out of range"):
            find_reduction(w, target, level=bad)


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


def test_find_reduction_at_an_empty_level_is_the_plain_certificate():
    # where the stable set is empty, the leveled search walks every letter in
    # the plain order, so it finds the plain certificate at level frozenset()
    for n in range(5, 12):
        for rec in gu.stratum_records(n):
            if rec.stratum_class is StratumClass.NOT_DL and not rec.s_w_sigma:
                w, target = w_kl(n, *rec.label), w_kl(n, *rec.target)
                plain = reduction.find_reduction(w, target)
                assert reduction.find_reduction(w, target, level=frozenset()) == (
                    dataclasses.replace(plain, level=frozenset()))


def test_leveled_certificate_is_a_plain_certificate():
    # a level-legal arrow is an admitted arrow: every certificate found at the
    # stable set still verifies with the level dropped
    for n in range(5, 12):
        for rec in gu.stratum_records(n):
            if rec.stratum_class is StratumClass.NOT_DL:
                cert = find_reduction(w_kl(n, *rec.label), w_kl(n, *rec.target),
                                      level=rec.s_w_sigma)
                assert cert is not None and cert.verify(), (n, rec.label)
                assert dataclasses.replace(cert, level=None).verify(), (n, rec.label)


def _not_dl_certificates():
    """Every not-DL label's certificate for n = 5..11, plain and at its
    stable set."""
    for n in range(5, 12):
        for rec in gu.stratum_records(n):
            if rec.stratum_class is StratumClass.NOT_DL:
                w, target = w_kl(n, *rec.label), w_kl(n, *rec.target)
                for level in (None, rec.s_w_sigma):
                    yield find_reduction(w, target, level=level)


def _mutants(cert, rng):
    """The certificate and its seeded single-field mutants: a letter changed
    or inserted in either word, another s, a small random level."""
    n, replace = cert.source.n, dataclasses.replace
    yield cert
    for field in ("to_pivot", "to_target"):
        word = getattr(cert, field)
        for _ in range(3):
            at = rng.randrange(len(word) + 1)
            yield replace(cert, **{field: word[:at] + (rng.randrange(n),) + word[at:]})
            if word:
                at = rng.randrange(len(word))
                yield replace(cert, **{field: word[:at] + (rng.randrange(n),) + word[at + 1:]})
    for s in rng.sample([a for a in range(n) if a != cert.s], 3):
        yield replace(cert, s=s)
    for _ in range(3):
        yield replace(cert, level=frozenset(rng.sample(range(n), rng.randrange(3))))


def test_verify_matches_the_product_form_reference_on_mutants():
    # verify() and verify_chain, which take each step on the bare window, give
    # what the element-product re-walk gives, on every certificate and mutant:
    # the two chains, and the whole word as one chain
    rng, verdicts, certs = random.Random(3301), Counter(), list(_not_dl_certificates())
    assert len(certs) == 60 and all(certs)
    for cert in certs:
        for c in _mutants(cert, rng):
            got = c.verify()
            assert got == certificate_reference(c), c
            verdicts[got] += 1
            for chain in ((c.source, c.to_pivot, c.pivot),
                          (c.dropped, c.to_target, c.target),
                          (c.source, (*c.to_target, c.s, *c.to_pivot), c.target)):
                assert verify_chain(*chain, c.level) == chain_reference(*chain, c.level), c
    # some mutants stay certificates (another legal letter, a stable level)
    assert verdicts[True] > 100 and verdicts[False] > 500, verdicts


def test_verify_measures_only_the_source_by_shi(monkeypatch):
    n, k, l = 11, 4, 10
    cert = find_reduction(w_kl(n, k, l), w_kl(n, *w_prime(n, k, l)), level=s_closed(n, k, l))
    assert cert.to_pivot and cert.to_target
    measured, shi = [], weyl._length
    monkeypatch.setattr(weyl, "_length", lambda window: measured.append(window) or shi(window))
    assert cert.verify()
    assert measured == [cert.source.window]


def test_out_of_range_letters_and_levels_raise():
    n, k, l = 9, 3, 8
    w, replace = w_kl(n, k, l), dataclasses.replace
    cert = find_reduction(w, w_kl(n, *w_prime(n, k, l)), level=s_closed(n, k, l))
    for bad in (n, -1):
        for c in (replace(cert, s=bad), replace(cert, to_pivot=(bad, *cert.to_pivot)),
                  replace(cert, to_target=(*cert.to_target, bad)),
                  replace(cert, level=cert.level | {bad})):
            with pytest.raises(ValueError, match="out of range"):
                c.verify()
            with pytest.raises(ValueError, match="out of range"):
                certificate_reference(c)
        with pytest.raises(ValueError, match="out of range"):
            verify_chain(w, (0, bad), w)
        with pytest.raises(ValueError, match="out of range"):
            verify_chain(w, (0,), w, level=frozenset({bad}))
        with pytest.raises(ValueError, match="out of range"):
            arrow(w, bad)
        with pytest.raises(ValueError, match="out of range"):
            arrow(w, 0, level=frozenset({bad}))
        # malformed input raises even where the product-form re-walk stops
        # early with False: a wrong pivot, or an arrow that is not admitted,
        # before the bad letter; an empty word with a bad level index
        ascent = next(i for i in range(n) if conj_by_simple(w, i).length() > w.length())
        for c in (replace(cert, pivot=cert.dropped, to_target=(*cert.to_target, bad)),
                  replace(cert, to_pivot=(bad, *cert.to_pivot, ascent))):
            assert not certificate_reference(c)
            with pytest.raises(ValueError, match="out of range"):
                c.verify()
        assert not chain_reference(w, (bad, ascent), w)
        with pytest.raises(ValueError, match="out of range"):
            verify_chain(w, (bad, ascent), w)
        assert chain_reference(w, (), w, frozenset({bad}))
        with pytest.raises(ValueError, match="out of range"):
            verify_chain(w, (), w, level=frozenset({bad}))


# ---------------------------------------------------------------------------
# emptiness
# ---------------------------------------------------------------------------

def test_is_empty_requires_min_coset_rep():
    with pytest.raises(NotMinCosetRepError):
        is_empty_basic(simple_ref(5, 1) * w_kl(5, 3, 4))


def test_emptiness_examples():
    empty, not_dl = is_empty_basic(w_kl(13, 4, 10)), is_empty_basic(w_kl(10, 3, 9))
    assert empty.empty and empty.full_support
    assert not not_dl.empty and not_dl.full_support
    # proper twisted support means nonempty regardless of condition (ii)
    verdict = is_empty_basic(w_kl(13, 1, 10))
    assert verdict == EmptinessVerdict(False, None, full_support=False)
    # the closure decides a not-DL label at rank 13 without a budget; the
    # walk oracle needs the whole constrained ideal, which overruns any sane
    # budget, and that must surface as an error
    assert not is_empty_basic(w_kl(13, 3, 12)).empty
    with pytest.raises(BudgetExceededError):
        is_empty_basic_v_form(w_kl(13, 3, 12), budget=10**4)


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


@settings(max_examples=150, deadline=None)
@given(weyl_elements(max_n=6, max_len=12))
def test_v_form_matches_its_reference_on_minimal_representatives(w):
    # any minimal coset representative phi^λ·y, not only the w_{k,l}: the
    # witness is the element-level loop's first v, None when m is not empty
    _, lam, y = decompose_xmy(w)
    m = translation(lam) * y
    full = len(supp_sigma(m)) == m.n
    verdict = is_empty_basic_v_form(m)
    assert verdict.full_support == full
    assert verdict.empty == is_empty_basic(m).empty
    assert verdict.witness == (v_form_reference(m) if full else None)


@settings(max_examples=150, deadline=None)
@given(weyl_elements(max_n=6, max_len=12))
def test_closure_matches_walk_on_minimal_representatives(w):
    # any minimal coset representative phi^λ·y, not only the w_{k,l}
    _, lam, y = decompose_xmy(w)
    m = translation(lam) * y
    verdict, walk = is_empty_basic(m), is_empty_basic_v_form(m)
    assert verdict.full_support == walk.full_support == (len(supp_sigma(m)) == m.n)
    assert verdict.empty == walk.empty
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
    r = _tiered_witness(h, [a for a in pos_roots(len(h)) if a not in allowed])
    assert (r is not None) == _tiers_by_brute_force(h, allowed)
    if r is not None:
        assert sorted(r) == list(range(1, len(h) + 1))
        assert inv_set(WeylElement(r)) <= allowed
        assert _stabilizes_tiers(r, h)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)),
    st.lists(st.sampled_from([(a, b) for a in range(1, n + 1)
                              for b in range(a + 1, n + 1)])))))
def test_tiered_witness_matches_per_seed_closure(case):
    # the closure over whole h-cycles gives the same window as one
    # breadth-first closure per seed; edges may repeat
    h, edges = tuple(case[0]), case[1]
    assert _tiered_witness(h, edges) == tiered_closure_reference(h, edges)


@st.composite
def minimal_representatives(draw, max_n=9, max_shift=3):
    """phi^λ·y for a random window: any λ, minuscule or not."""
    n = draw(st.integers(2, max_n))
    perm = draw(st.permutations(range(1, n + 1)))
    shifts = draw(st.lists(st.integers(-max_shift, max_shift), min_size=n, max_size=n))
    _, lam, y = decompose_xmy(WeylElement(tuple(v + n * t for v, t in zip(perm, shifts))))
    return translation(lam) * y


def _check_excluded_roots(w):
    got = _excluded_roots(w.window)
    assert len(got) == len(set(got))
    assert set(got) == set(pos_roots(w.n)) - phi_w(w)
    assert len(got) <= w.length()
    return got


def test_excluded_roots_on_labels_to_30():
    # the complement of Phi_w, one root each, exactly ℓ(w) of them: λ is minuscule
    for n in range(2, 31):
        for k in range(1, n):
            for l in range(k + 1, n + 1):
                w = w_kl(n, k, l)
                assert len(_check_excluded_roots(w)) == w.length(), (n, k, l)


@settings(max_examples=300, deadline=None)
@given(minimal_representatives())
def test_excluded_roots_on_minimal_representatives(w):
    got = _check_excluded_roots(w)
    coords = decompose_xmy(w)[1].coords
    if max(coords) - min(coords) <= 1:
        assert len(got) == w.length()


def test_emptiness_never_lists_phi_w(monkeypatch):
    # the closure reads the excluded roots off the window: it neither
    # builds Phi_w nor decomposes w
    labels = [(n, k, l) for n in range(2, 15) for k in range(1, n) for l in range(k + 1, n + 1)]
    want = [classify(*label) is StratumClass.EMPTY for label in labels]
    elements = [w_kl(*label) for label in labels]

    def forbidden(*args, **kwargs):
        raise AssertionError("is_empty_basic listed Phi_w")
    for module in (reduction, roots):
        monkeypatch.setattr(module, "phi_w", forbidden)
        monkeypatch.setattr(module, "decompose_xmy", forbidden)
    assert [is_empty_basic(w).empty for w in elements] == want


# ---------------------------------------------------------------------------
# positive Coxeter type
# ---------------------------------------------------------------------------

def test_positive_coxeter_examples():
    assert positive_coxeter_generic(w_kl(5, 1, 2))
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
