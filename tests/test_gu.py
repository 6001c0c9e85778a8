"""Stratum classification, fibrations, dimensions, closure order, records."""

import itertools

import pytest

from adlv.gu import (
    NotApplicableError,
    StratumClass,
    StratumLabel,
    b_element,
    brute_force_s_adm,
    classify,
    classify_by_criterion,
    closure_leq,
    dim_basic_locus,
    geq_s_sigma,
    graph_summary,
    load_golden_summary,
    mu,
    positive_coxeter_closed,
    s_admissible,
    s_closed,
    stratum_graph,
    stratum_record,
    stratum_records,
    supp_sigma_closed,
    top_strata,
    w_kl,
    w_prime,
)
from adlv import gu, roots
from adlv.reduction import positive_coxeter_generic
from adlv.weyl import WeylElement, from_word, identity, simple_ref, translation

from conftest import (
    canonical_graph_bytes,
    dim_stratum_recursive,
    s_adm_subword_reference,
    w0_element,
    w_kl_product,
)


# ---------------------------------------------------------------------------
# representatives
# ---------------------------------------------------------------------------

def test_w_kl_values():
    assert w_kl(5, 1, 2).length() == 0
    assert w_kl(5, 3, 4).length() == 4
    assert w_kl(5, 1, 5) == from_word(5, [0, 1, 2], omega=-2, similitude=-1)
    with pytest.raises(ValueError):
        w_kl(5, 3, 3)
    with pytest.raises(ValueError):
        w_kl(5, 0, 4)


def test_w_kl_alternative_word_form():
    # w_{k,l} = (s_0 s_1 ... s_{l-3}) (s_{n-1} s_0 ... s_{k-3}) tau
    for n in range(2, 12):
        for (k, l) in sorted(s_admissible(n)):
            word = list(range(0, l - 2)) + [i % n for i in range(n - 1, n + k - 2)]
            assert w_kl(n, k, l) == from_word(n, word, omega=-2, similitude=-1)


def test_w_kl_matches_product_to_20():
    for n in range(2, 21):
        for (k, l) in sorted(s_admissible(n)):
            assert w_kl(n, k, l) == w_kl_product(n, k, l), (n, k, l)


def test_length_closed_form_to_20():
    for n in range(2, 21):
        for (k, l) in sorted(s_admissible(n)):
            assert w_kl(n, k, l).length() == k + l - 3


def test_s_admissible_counts():
    assert s_admissible(3) == {(1, 2), (1, 3), (2, 3)}
    assert len(s_admissible(5)) == 10


@pytest.mark.parametrize("n", [*range(2, 15), 20, 30])
def test_brute_force_s_adm(n):
    assert brute_force_s_adm(n) == s_admissible(n)
    if n <= 6:  # every admissible minimal representative is a coset candidate
        assert s_adm_subword_reference(n) == s_admissible(n)


def test_brute_force_s_adm_stays_polynomial(monkeypatch):
    # no reduced word, so no subword enumeration
    def forbidden(*args, **kwargs):
        raise AssertionError("brute_force_s_adm built a reduced word")
    monkeypatch.setattr(WeylElement, "reduced_word", forbidden)
    for n in range(2, 21):
        assert brute_force_s_adm(n) == s_admissible(n), n


def test_brute_force_s_adm_catches_a_wrong_closed_form(monkeypatch):
    # with every w_kl sent to w_{1,2}, the first candidate that is not w_{1,2}
    # matches no label, and the oracle names it
    real = gu.w_kl
    monkeypatch.setattr(gu, "w_kl", lambda n, k, l: real(n, 1, 2))
    with pytest.raises(AssertionError) as exc:
        brute_force_s_adm(6)
    assert str(exc.value).startswith(f"{real(6, 1, 3)}, the coset representative of ")
    assert str(exc.value).endswith(" is not a minimal admissible w_kl")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classification_examples():
    assert classify(5, 3, 4) is StratumClass.NOT_DL
    assert classify(5, 2, 4) is StratumClass.EMPTY
    assert classify(13, 4, 10) is StratumClass.EMPTY
    assert classify(13, 7, 12) is StratumClass.NOT_DL
    assert classify(13, 1, 13) is StratumClass.DL
    assert classify(2, 1, 2) is StratumClass.DL


@pytest.mark.parametrize("n", range(2, 9))
def test_classify_matches_criterion(n):
    for (k, l) in sorted(s_admissible(n)):
        assert classify(n, k, l) is classify_by_criterion(n, k, l), (n, k, l)


def _empty_lemma_cases(n):
    """The three families of provably empty labels, straight from the closed
    conditions (doubled to stay in integers)."""
    out = set()
    for (k, l) in s_admissible(n):
        if 2 * k >= n + 2:
            out.add((k, l))
        if (l - n) % 2 == 0 and 2 * l >= n + 3 and n - l + 2 <= k and 2 * k <= n + 1:
            out.add((k, l))
        if k % 2 == 0 and 2 * k <= n - 1 and 2 * l >= n + 3 and l <= n - k + 2:
            out.add((k, l))
    return out


@pytest.mark.parametrize("n", range(2, 15))
def test_empty_set_equals_lemma_families(n):
    empties = {(k, l) for (k, l) in s_admissible(n)
               if classify(n, k, l) is StratumClass.EMPTY}
    assert empties == _empty_lemma_cases(n)


# ---------------------------------------------------------------------------
# fibration structure
# ---------------------------------------------------------------------------

def test_w_prime_examples():
    assert w_prime(13, 7, 12) == (7, 10)
    assert w_prime(13, 3, 12) == (1, 12)
    assert w_prime(14, 4, 13) == (3, 12)
    rec = stratum_record(13, 7, 12)
    assert rec.rank == 5
    assert rec.base == (1, 8)
    # a single-label reader raises on each class outside its own, naming it
    with pytest.raises(NotApplicableError, match=r"the dl label \(1,12\) at n=13"):
        w_prime(13, 1, 12)
    with pytest.raises(NotApplicableError, match=r"the empty label \(4,10\) at n=13"):
        w_prime(13, 4, 10)
    with pytest.raises(NotApplicableError, match=r"the empty label \(4,10\) at n=13"):
        stratum_record(13, 4, 10)


def test_w_prime_iteration_reaches_base():
    for n in range(2, 21):
        for (k, l) in sorted(s_admissible(n)):
            if classify(n, k, l) is not StratumClass.NOT_DL:
                continue
            lab, steps = StratumLabel(k, l), 0
            while classify(n, *lab) is StratumClass.NOT_DL:
                lab = w_prime(n, *lab)
                steps += 1
            assert classify(n, *lab) is StratumClass.DL
            rec = stratum_record(n, k, l)
            assert steps == rec.rank, (n, k, l)
            assert lab == rec.base, (n, k, l)


# ---------------------------------------------------------------------------
# closed-form supports, parahoric data
# ---------------------------------------------------------------------------

def test_closed_forms_match_generic_to_20():
    from adlv.reduction import level_is_stable
    for n in range(2, 21):
        for (k, l) in sorted(s_admissible(n)):
            w = w_kl(n, k, l)
            assert roots.supp_sigma(w) == supp_sigma_closed(n, k, l), (n, k, l)
            assert roots.s_w_sigma(w) == s_closed(n, k, l), (n, k, l)
            # the closed-form stable set is indeed permuted by the twisted
            # conjugation, not merely contained in its image
            assert level_is_stable(w, s_closed(n, k, l)), (n, k, l)


def test_closed_form_examples():
    assert s_closed(13, 1, 10) == {5, 6, 7}
    assert s_closed(13, 7, 8) == frozenset()
    assert stratum_record(13, 3, 12).j_set == {0, 11, 12}
    assert supp_sigma_closed(13, 1, 7) == {0, 1, 2, 3, 4, 7, 8, 9, 10, 11}


def test_j_set_commutes_with_stable_subset():
    for n in range(2, 21):
        for (k, l) in sorted(s_admissible(n)):
            if classify(n, k, l) is not StratumClass.NOT_DL:
                continue
            stable = s_closed(n, k, l)
            for j in stratum_record(n, k, l).j_set:
                sj = simple_ref(n, j)
                for s in stable:
                    ss = simple_ref(n, s)
                    assert sj * ss == ss * sj, (n, k, l, j, s)


def test_parahoric_types():
    # non-DL strata decompose over the hyperspecial level
    assert stratum_record(13, 3, 12).parahoric == frozenset(range(1, 13))
    # the length-zero stratum: shift of the diagram minus {s_0, s_{n-2}}
    for n in range(3, 15):
        assert stratum_record(n, 1, 2).parahoric == frozenset(range(n)) - {1, n - 1}
    # the even-rank extra top stratum sits at the diagram minus one node
    assert stratum_record(14, 7, 8).parahoric == frozenset(range(14)) - {7}
    with pytest.raises(NotApplicableError):
        stratum_record(5, 2, 4)


def test_w0_element():
    w0 = w0_element(5, 1, 5)
    assert w0.is_finite()
    for n in (5, 8, 13):
        for (k, l) in sorted(s_admissible(n)):
            cls = classify(n, k, l)
            if cls is StratumClass.EMPTY:
                continue
            v = w0_element(n, k, l)
            assert v.omega() == 0 and v.similitude == 0
            if cls is StratumClass.DL and k == 1 and 2 * l >= n + 3:
                assert v.is_finite(), (n, k, l)


# ---------------------------------------------------------------------------
# dimensions and components
# ---------------------------------------------------------------------------

def test_dimensions_and_counts():
    for n in range(2, 21):
        assert dim_basic_locus(n) == n - 2
        assert len(top_strata(n)) == n // 2


def test_top_strata_lists():
    assert top_strata(13) == {(1, 13)} | {(k, 12) for k in range(3, 8)}
    assert top_strata(14) == ({(1, 14)} | {(k, 13) for k in range(3, 8)}
                              | {(7, 8)})
    assert top_strata(2) == {(1, 2)}
    assert top_strata(4) == {(1, 4), (2, 3)}


def test_dim_stratum_matches_recursive_definition_to_30():
    for n in range(2, 31):
        for (k, l) in sorted(s_admissible(n)):
            if classify(n, k, l) is not StratumClass.EMPTY:
                assert stratum_record(n, k, l).dim == dim_stratum_recursive(n, k, l), (n, k, l)


def test_dim_examples():
    assert dim_basic_locus(13) == 11
    assert len(top_strata(13)) == 6
    assert stratum_record(5, 3, 4).dim == stratum_record(5, 1, 4).dim + 1
    with pytest.raises(NotApplicableError):
        stratum_record(5, 2, 4)


# ---------------------------------------------------------------------------
# closure order
# ---------------------------------------------------------------------------

def test_closure_leq():
    labels = [lab for lab in sorted(s_admissible(6))
              if classify(6, *lab) is not StratumClass.EMPTY]
    for lab in labels:
        assert closure_leq((1, 2), lab)
    for a in labels:
        for b in labels:
            if closure_leq(a, b) and closure_leq(b, a):
                assert a == b


@pytest.mark.parametrize("n", [5, 6, 7])
def test_geq_s_sigma_matches_componentwise_on_dl(n):
    dl = [(k, l) for (k, l) in sorted(s_admissible(n))
          if classify(n, k, l) is StratumClass.DL and k >= 2]
    for a in dl:
        for b in dl:
            assert geq_s_sigma(w_kl(n, *a), w_kl(n, *b)) == closure_leq(b, a), (n, a, b)


def test_closure_leq_is_exact_only_below_dl_labels():
    # the twisted order puts (1,5) below the not-DL (3,4) at n = 5, and (1,6)
    # below the not-DL (3,5) and the empty (4,5) at n = 6; closure_leq denies
    # all three, the only disagreements over all ordered pairs at n <= 6
    for n, a, b in [(5, (1, 5), (3, 4)), (6, (1, 6), (3, 5)), (6, (1, 6), (4, 5))]:
        assert classify(n, *b) is not StratumClass.DL
        assert geq_s_sigma(w_kl(n, *b), w_kl(n, *a)) and not closure_leq(a, b)
    for n in range(2, 7):
        labels = sorted(s_admissible(n))
        for b in (b for b in labels if classify(n, *b) is StratumClass.DL):
            for a in labels:
                assert geq_s_sigma(w_kl(n, *b), w_kl(n, *a)) == closure_leq(a, b), (n, a, b)


def test_geq_s_sigma_example_and_guard():
    assert geq_s_sigma(w_kl(5, 2, 3), w_kl(5, 1, 2))
    with pytest.raises(ValueError):
        geq_s_sigma(w_kl(8, 2, 3), w_kl(8, 1, 2))


# ---------------------------------------------------------------------------
# positive Coxeter
# ---------------------------------------------------------------------------

def test_positive_coxeter_closed_examples():
    assert positive_coxeter_closed(13, 7, 10)
    assert positive_coxeter_closed(13, 3, 8)
    assert not positive_coxeter_closed(13, 3, 12)
    with pytest.raises(NotApplicableError, match=r"the dl label \(1,12\) at n=13"):
        positive_coxeter_closed(13, 1, 12)
    with pytest.raises(NotApplicableError, match=r"the empty label \(4,10\) at n=13"):
        positive_coxeter_closed(13, 4, 10)


@pytest.mark.parametrize("n", range(5, 9))
def test_positive_coxeter_closed_matches_generic(n):
    for (k, l) in sorted(s_admissible(n)):
        if classify(n, k, l) is StratumClass.NOT_DL:
            got = positive_coxeter_closed(n, k, l)
            assert got == positive_coxeter_generic(w_kl(n, k, l)), (n, k, l)


# ---------------------------------------------------------------------------
# records and graphs
# ---------------------------------------------------------------------------

def test_stratum_record_fields():
    rec = stratum_record(13, 7, 12)
    assert rec.stratum_class is StratumClass.NOT_DL
    assert rec.length == 16 and rec.dim == 11
    assert rec.target == (7, 10) and rec.rank == 5 and rec.base == (1, 8)
    assert rec.parahoric == frozenset(range(1, 13))
    assert rec.positive_coxeter

    rec_dl = stratum_record(13, 1, 13)
    assert rec_dl.target is None and rec_dl.rank is None and rec_dl.j_set is None
    with pytest.raises(NotApplicableError):
        stratum_record(13, 4, 10)


def test_stratum_records_cover_every_label():
    # n <= 60 reaches every branch of s_closed and of the keys records share
    # their sets under; each field is checked against its per-label source
    for n in range(2, 61):
        records = stratum_records(n)
        assert [rec.label for rec in records] == sorted(s_admissible(n))
        for rec in records:
            k, l = rec.label
            supp, stable = supp_sigma_closed(n, k, l), s_closed(n, k, l)
            assert rec.stratum_class is classify(n, k, l)
            assert (rec.supp_sigma, rec.s_w_sigma) == (supp, stable)
            if rec.stratum_class is StratumClass.EMPTY:
                assert (rec.dim, rec.parahoric, rec.target, rec.rank, rec.base,
                        rec.j_set, rec.positive_coxeter) == (None,) * 6 + (False,)
                continue
            assert rec == stratum_record(n, k, l)
            if rec.stratum_class is StratumClass.DL:
                assert rec.parahoric == frozenset((i + 1) % n for i in supp | stable)
                assert rec.j_set is None
            else:
                assert rec.parahoric == frozenset(range(1, n))
        # graph_summary relies on its order
        graph = stratum_graph(n)
        assert graph.records == tuple(rec for rec in records
                                      if rec.stratum_class is not StratumClass.EMPTY)
        assert graph.edges == tuple(sorted(graph.edges))


def test_set_bounds_are_increasing_disjoint_runs():
    # `adlv classify` formats a set straight from its runs, in their order
    for n in range(2, 61):
        for k, l in s_admissible(n):
            for runs in (gu._supp_runs(n, k, l), gu._stable_runs(n, k, l)):
                ints = list(itertools.chain(*runs))
                assert ints == sorted(set(ints)), (n, k, l, runs)


def test_stratum_records_share_sets_within_one_call_only():
    # one call builds each distinct set once, however many of its n(n-1)/2
    # labels hold it; a second call builds its own, so no call keeps a set
    n = 200
    fields = ("supp_sigma", "s_w_sigma", "parahoric", "j_set")
    first, second = stratum_records(n), stratum_records(n)

    def objects(records, field):
        return {id(s) for rec in records if (s := getattr(rec, field)) is not None}

    for field in fields:
        assert len(objects(first, field)) <= 2 * n, field
    assert set().union(*(objects(first, f) for f in fields)).isdisjoint(
        set().union(*(objects(second, f) for f in fields)))


@pytest.mark.parametrize("n", [1, 0, -1])
@pytest.mark.parametrize("fn", [mu, s_admissible, brute_force_s_adm,
                                dim_basic_locus, top_strata])
def test_rank_below_two_is_rejected(fn, n):
    with pytest.raises(ValueError, match="rank must be at least 2"):
        fn(n)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_stratum_records_and_graph_reject_rank_below_two(n):
    # both builders refuse the same ranks, with the same message
    with pytest.raises(ValueError, match="rank must be at least 2"):
        stratum_records(n)
    with pytest.raises(ValueError, match="rank must be at least 2"):
        stratum_graph(n)


def test_stratum_graph_small():
    g = stratum_graph(2)
    assert [rec.label for rec in g.records] == [(1, 2)]
    assert g.edges == ()

    g5 = stratum_graph(5)
    assert {rec.label for rec in g5.records} == {
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4)}
    assert g5.edges == (((3, 4), (1, 4)),)


def test_stratum_graph_record_lookup():
    by_label = {rec.label: rec for rec in stratum_graph(13).records}
    rec = by_label[7, 12]
    assert rec == stratum_record(13, 7, 12) and rec.dim == 11
    assert rec.target == (7, 10) and rec.rank == 5 and rec.base == (1, 8)
    assert (4, 10) not in by_label  # empty, so not in the graph


def test_golden_figures():
    for n in (13, 14):
        assert graph_summary(stratum_graph(n)) == load_golden_summary(n)
    with pytest.raises(ValueError, match="n = 13 and n = 14 only"):
        load_golden_summary(12)


def test_golden_figures_byte_stable():
    from importlib import resources
    for n in (13, 14):
        path = resources.files("adlv").joinpath(f"fixtures/golden_n{n}.json")
        assert canonical_graph_bytes(stratum_graph(n)) == path.read_bytes()


def test_graph_edge_example():
    g = stratum_graph(13)
    assert ((6, 10), (5, 9)) in g.edges
    assert ((4, 12), (3, 11)) in g.edges
    g14 = stratum_graph(14)
    assert ((4, 13), (3, 12)) in g14.edges
