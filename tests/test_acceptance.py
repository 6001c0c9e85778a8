"""
Acceptance criteria.

Every criterion is exact (combinatorial equality, zero tolerance).  Each test
prints one PASS line on success; a failing criterion surfaces as an ordinary
pytest failure naming the first counterexample.
"""

import itertools
import random

import pytest

from adlv import roots
from adlv.gu import (
    StratumClass,
    brute_force_s_adm,
    classify,
    classify_by_criterion,
    closure_leq,
    dim_basic_locus,
    geq_s_sigma,
    graph_summary,
    load_golden_summary,
    positive_coxeter_closed,
    s_admissible,
    s_closed,
    stratum_graph,
    stratum_record,
    supp_sigma_closed,
    top_strata,
    w_kl,
    w_prime,
)
from adlv.reduction import (
    ArrowKind,
    find_reduction,
    is_empty_basic,
    is_empty_basic_v_form,
    positive_coxeter_generic,
    verify_chain,
)
from adlv.weyl import (
    WeylElement,
    bruhat_leq,
    decompose_xmy,
    from_word,
    simple_ref,
    tau1,
)
from adlv.gu import b_element
from adlv.roots import inv_set, phi_w, supp_sigma

from conftest import (
    arrow_reference,
    canonical_graph_bytes,
    iter_ball,
    length_formula,
    subword_products,
)

BUDGET = 10**6


def _passed(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_oracle_equivalence():
    """Closed-form classification equals the criterion, n in [2, 20], which
    covers the figures at n = 13 and 14."""
    for n in range(2, 21):
        for (k, l) in sorted(s_admissible(n)):
            got = classify_by_criterion(n, k, l)
            want = classify(n, k, l)
            assert got is want, (
                f"counterexample ({k},{l}) at n={n}: closed form {want.value}, "
                f"criterion {got.value}")
    _passed(1, "oracle equivalence n=2..20")


def test_criterion_2_golden_figures():
    """The n=13 and n=14 graphs reproduce the transcribed figures, bytewise."""
    from importlib import resources
    for n in (13, 14):
        g = stratum_graph(n)
        assert graph_summary(g) == load_golden_summary(n), f"graph mismatch at n={n}"
        fixture = resources.files("adlv").joinpath(f"fixtures/golden_n{n}.json")
        assert canonical_graph_bytes(g) == fixture.read_bytes(), \
            f"serialization not byte-stable against fixture at n={n}"
    g13 = stratum_graph(13)
    assert ((7, 12), (7, 10)) in g13.edges
    assert ((4, 12), (3, 11)) in g13.edges
    assert ((4, 13), (3, 12)) in stratum_graph(14).edges
    _passed(2, "golden figures n=13, n=14")


def test_criterion_3_closed_form_cross_checks():
    """Lengths, root complements, supports and stable subsets for all labels;
    commuting J-sets for all not-DL labels; n in [2, 20]."""
    for n in range(2, 21):
        for (k, l) in sorted(s_admissible(n)):
            w = w_kl(n, k, l)
            assert w.length() == k + l - 3, (n, k, l)
            excl = ({(i, n - 1) for i in range(1, k)}
                    | {(i, n) for i in range(1, l - 1)})
            assert frozenset(roots.pos_roots(n)) - phi_w(w) == excl, (n, k, l)
            assert roots.supp_sigma(w) == supp_sigma_closed(n, k, l), (n, k, l)
            assert roots.s_w_sigma(w) == s_closed(n, k, l), (n, k, l)
            if classify(n, k, l) is StratumClass.NOT_DL:
                stable = s_closed(n, k, l)
                for j in stratum_record(n, k, l).j_set:
                    sj = simple_ref(n, j)
                    for s in stable:
                        ss = simple_ref(n, s)
                        assert sj * ss == ss * sj, (n, k, l, j, s)
    _passed(3, "closed-form cross-checks n=2..20")


def test_criterion_4_dimensions_and_components():
    """dim = n-2, component-orbit count = floor(n/2), explicit top strata."""
    for n in range(2, 21):
        assert dim_basic_locus(n) == n - 2, n
        assert len(top_strata(n)) == n // 2, n
        expected = {(1, n)} | {(k, n - 1) for k in range(3, (n + 1) // 2 + 1)}
        if n % 2 == 0:
            expected |= {(n // 2, n // 2 + 1)}
        assert top_strata(n) == expected, n
    _passed(4, "dimensions and irreducible components n=2..20")


def _reverify_certificate(cert):
    """Walk the certificate arrow by arrow with the product-form
    ``arrow_reference``, independently of cert.verify() and of its step."""
    cur = cert.source
    for letter in reversed(cert.to_pivot):
        a = arrow_reference(cur, letter, cert.level)
        assert a.kind is ArrowKind.LENGTH_PRESERVING
        cur = a.target
    assert cur == cert.pivot
    a = arrow_reference(cur, cert.s, cert.level)
    assert a.kind is ArrowKind.LENGTH_DROP_TWO
    cur = a.target
    assert cur == cert.dropped
    for letter in reversed(cert.to_target):
        a = arrow_reference(cur, letter, cert.level)
        assert a.kind is ArrowKind.LENGTH_PRESERVING
        cur = a.target
    assert cur == cert.target


def test_criterion_5_reduction_certificates():
    """find_reduction succeeds on every non-DL label for n in [7, 12], both
    plain and restricted to arrows legal at the stratum's parahoric level;
    the verbatim three-step chain at n=5 verifies."""
    rep = verify_chain(w_kl(5, 1, 5), (3, 0, 1),
                       from_word(5, [1], omega=-2, similitude=-1))
    assert rep.valid and rep.lengths == (3, 3, 3, 1)
    count = 0
    for n in range(7, 13):
        for (k, l) in sorted(s_admissible(n)):
            if classify(n, k, l) is not StratumClass.NOT_DL:
                continue
            w, target = w_kl(n, k, l), w_kl(n, *w_prime(n, k, l))
            cert = find_reduction(w, target, BUDGET)
            assert cert is not None, f"no certificate for ({k},{l}) at n={n}"
            assert cert.verify()
            _reverify_certificate(cert)
            leveled = find_reduction(w, target, BUDGET, level=s_closed(n, k, l))
            assert leveled is not None and leveled.verify(), \
                f"no level-certified reduction for ({k},{l}) at n={n}"
            _reverify_certificate(leveled)
            count += 1
    assert count == 38
    _passed(5, f"reduction certificates ({count} labels, plain and leveled) "
               "and the verbatim chain")


def test_criterion_6_emptiness_witnesses():
    """Every empty label at n in [2, 40] is certified empty with a validated
    witness; the closure agrees with the ideal walk (the v-form) for
    n <= 9."""
    for n in range(2, 41):
        for (k, l) in sorted(s_admissible(n)):
            if classify(n, k, l) is not StratumClass.EMPTY:
                continue
            w = w_kl(n, k, l)
            verdict = is_empty_basic(w)
            assert verdict.empty, f"({k},{l}) at n={n} not detected empty"
            r = verdict.witness
            assert r is not None and r.is_finite()
            # independent recheck of the witness
            assert inv_set(r) <= phi_w(w), (n, k, l)
            _, _, y = decompose_xmy(w)
            u = r * y * r.sigma().inv()
            assert len(supp_sigma(u)) < n - 1, (n, k, l)
    for n in range(2, 10):
        for (k, l) in sorted(s_admissible(n)):
            w = w_kl(n, k, l)
            closure = is_empty_basic(w).empty
            assert closure == is_empty_basic_v_form(w, BUDGET).empty, (n, k, l)
    _passed(6, "emptiness witnesses n=2..40, closure = ideal walk n=2..9")


def test_criterion_7_positive_coxeter():
    """Closed form equals the search over length-positive conjugators on all
    non-DL labels, n <= 9."""
    for n in range(2, 10):
        for (k, l) in sorted(s_admissible(n)):
            if classify(n, k, l) is not StratumClass.NOT_DL:
                continue
            got = positive_coxeter_closed(n, k, l)
            want = positive_coxeter_generic(w_kl(n, k, l), BUDGET)
            assert got == want, (n, k, l, got, want)
    _passed(7, "positive-Coxeter detection n<=9")


def test_criterion_8_group_substrate():
    """Frame identities, diagram twists, dual length formulas, brute-force
    admissible set, Bruhat versus the subword oracle."""
    for n in range(2, 21):
        t1, t, b = tau1(n), w_kl(n, 1, 2), b_element(n)
        assert t1.inv() * b * t1.sigma() == t, n
        for i in range(n):
            assert simple_ref(n, i).sigma() == simple_ref(n, (n - i) % n), (n, i)
            assert t * simple_ref(n, i) * t.inv() == simple_ref(n, (i - 2) % n), (n, i)

    rng = random.Random(20260809)
    for _ in range(10**4):
        n = rng.randint(2, 10)
        word = [rng.randrange(n) for _ in range(rng.randint(0, 14))]
        w = from_word(n, word, omega=rng.randint(-2, 2))
        assert w.length() == length_formula(w), w

    for n in range(2, 7):
        assert brute_force_s_adm(n) == s_admissible(n), n

    for n in range(2, 6):
        for omega in (0, -2):
            ball = list(iter_ball(n, 5, omega))
            products = {w: subword_products(w) for w in ball}
            for w in ball:
                prods = products[w]
                for u in ball:
                    assert bruhat_leq(u, w) == (u.window in prods), (n, u, w)
    _passed(8, "group-theory substrate")


def test_criterion_9_closure_order():
    """Twisted conjugation order agrees with the componentwise label order on
    DL pairs with k, k' >= 2, n <= 7."""
    for n in range(2, 8):
        dl = [(k, l) for (k, l) in sorted(s_admissible(n))
              if classify(n, k, l) is StratumClass.DL and k >= 2]
        for a in dl:
            for b in dl:
                got = geq_s_sigma(w_kl(n, *a), w_kl(n, *b))
                assert got == closure_leq(b, a), (n, a, b)
    assert geq_s_sigma(w_kl(5, 2, 3), w_kl(5, 1, 2))
    _passed(9, "closure order on DL strata n<=7")
