"""Group arithmetic, length, descent and Bruhat machinery."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from adlv.weyl import (
    Cocharacter,
    WeylElement,
    bruhat_leq,
    decompose_xmy,
    from_word,
    identity,
    omega_shift,
    simple_ref,
    tau1,
    translation,
    _left_mul,
    _length,
    _mul,
    _right_mul,
)
from adlv.gu import b_element, mu, w_kl

from conftest import (
    bruhat_count_oracle,
    iter_ball,
    length_formula,
    pairing_2rho,
    subword_products,
    weyl_element_pairs,
    weyl_element_triples,
    weyl_elements,
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_translation_identity():
    assert translation(Cocharacter((0, 0, 0, 0))) == identity(4)


def test_translation_mu_window():
    assert translation(mu(5)).window == (1, 2, 3, -1, 0)
    assert translation(mu(5)).similitude == -1


def test_translation_omega_is_coordinate_sum():
    lam = Cocharacter((2, -1, 0, 3, -4, 1))
    assert translation(lam).omega() == sum(lam.coords)
    assert translation(lam).finite_part() == identity(6)


def test_tau1_is_translation_times_cycle():
    for n in range(2, 9):
        w = translation(Cocharacter((1,) + (0,) * (n - 1)))
        for i in range(1, n):
            w = w * simple_ref(n, i)
        assert w == tau1(n)


def test_s0_is_translation_times_transposition():
    for n in range(2, 9):
        chi_1n = Cocharacter((1,) + (0,) * (n - 2) + (-1,))
        transposition = list(range(1, n + 1))
        transposition[0], transposition[-1] = n, 1
        assert translation(chi_1n) * WeylElement(tuple(transposition)) == simple_ref(n, 0)


def test_window_validation():
    with pytest.raises(ValueError):
        WeylElement((1, 1, 3))        # residue collision
    with pytest.raises(ValueError):
        WeylElement((1, 4, 2))        # residue collision across a period
    with pytest.raises(ValueError):
        WeylElement((5,))             # rank too small
    with pytest.raises(ValueError, match="out of range"):
        simple_ref(5, 5)


def test_rank_mismatch():
    with pytest.raises(ValueError):
        identity(3) * identity(4)


def test_str_form():
    assert str(w_kl(5, 1, 2)) == "[-1,0,1,2,3];sim=-1"


# ---------------------------------------------------------------------------
# group axioms
# ---------------------------------------------------------------------------

@given(weyl_element_triples(max_n=12))
def test_group_axioms(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * a.inv() == identity(a.n) and a.inv() * a == identity(a.n)
    assert (a * b).inv() == b.inv() * a.inv()


@given(weyl_element_pairs())
def test_mul_window_is_composite(pair):
    a, b = pair
    assume(a.omega() != 0 and b.omega() != 0)
    n = a.n

    def at(f, i):  # f(i + qn) = f(i) + qn with i in 1..n
        q, r = divmod(i - 1, n)
        return f.window[r] + q * n

    assert _mul(a.window, b.window) == tuple(at(a, at(b, i)) for i in range(1, n + 1))


def test_simple_reflection_involution_and_braid():
    s1, s2 = simple_ref(4, 1), simple_ref(4, 2)
    assert s1 * s1 == identity(4)
    assert s1 * s2 != s2 * s1
    assert s1 * s2 * s1 == s2 * s1 * s2


# ---------------------------------------------------------------------------
# length
# ---------------------------------------------------------------------------

def test_length_basics():
    assert identity(6).length() == 0
    assert w_kl(5, 1, 2).length() == 0
    assert w_kl(5, 3, 4).length() == 4
    for n in range(2, 9):
        for i in range(n):
            assert simple_ref(n, i).length() == 1


@st.composite
def wide_windows(draw, max_n=12, bound=4):
    """Arbitrary windows with translation parts up to ±bound; words of
    bounded length reach only small translations."""
    n = draw(st.integers(2, max_n))
    perm = draw(st.permutations(range(1, n + 1)))
    shifts = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    return WeylElement(tuple(v + n * t for v, t in zip(perm, shifts)))


@given(st.one_of(weyl_elements(max_n=10, max_len=14), wide_windows()))
@settings(max_examples=300)
def test_length_against_double_sum_formula(w):
    assert w.length() == length_formula(w)


@given(weyl_elements(max_n=9))
def test_simple_actions_return_product_and_length_change(w):
    # both one-sided actions, by every letter s_0 included, on w and on
    # w·tau1, whose Omega-component differs from w's by one; each length
    # change agrees with the double sum and with Shi's formula
    for x in (w, w * tau1(w.n)):
        ell = length_formula(x)
        for i in range(x.n):
            for got, product in ((_left_mul(x.window, i), simple_ref(x.n, i) * x),
                                 (_right_mul(x.window, i), x * simple_ref(x.n, i))):
                change = length_formula(product) - ell
                assert got == (product.window, change)
                assert change == _length(product.window) - _length(x.window)


@given(weyl_elements(max_n=9))
def test_sigma_is_length_preserving_automorphism(w):
    assert w.sigma().length() == w.length()
    assert w.sigma().sigma() == w


@given(weyl_element_triples(max_n=9, max_len=6))
def test_sigma_is_multiplicative(triple):
    a, b, _ = triple
    assert (a * b).sigma() == a.sigma() * b.sigma()


def test_sigma_on_simples_and_translations():
    for n in range(2, 21):
        for i in range(n):
            assert simple_ref(n, i).sigma() == simple_ref(n, (n - i) % n)
    lam = Cocharacter((3, -1, 0, 2), 5)
    expect = Cocharacter((-2, 0, 1, -3), 5)
    assert translation(lam).sigma() == translation(expect)


def test_tau_conjugation_shifts_simples_by_two():
    for n in range(2, 21):
        t = w_kl(n, 1, 2)
        for i in range(n):
            assert t * simple_ref(n, i) * t.inv() == simple_ref(n, (i - 2) % n)


def test_tau1_frame_identity():
    for n in range(2, 21):
        t1 = tau1(n)
        assert t1.inv() * b_element(n) * t1.sigma() == w_kl(n, 1, 2)


# ---------------------------------------------------------------------------
# Omega components
# ---------------------------------------------------------------------------

def test_omega_component_values():
    assert tau1(7).omega() == 1
    assert identity(7).omega() == 0
    # the base coset sits at Omega-component -2 (the coordinate sum of mu)
    t = w_kl(5, 1, 2)
    assert t.omega() == -2
    v, m = t.affine_part()
    assert m == -2 and v.window == identity(5).window


@given(weyl_elements(max_n=9))
def test_affine_part_lands_in_affine_subgroup(w):
    v, m = w.affine_part()
    assert v.omega() == 0
    assert v * omega_shift(w.n, m) == WeylElement(w.window, v.similitude)
    # constructive membership in the subgroup generated by the s_i
    word, mm = v.reduced_word()
    assert mm == 0
    assert from_word(v.n, word) == WeylElement(v.window)


# ---------------------------------------------------------------------------
# descents and reduced words
# ---------------------------------------------------------------------------

def test_descents_and_reduced_word_basics():
    assert identity(5).left_descents() == frozenset()
    assert identity(5).reduced_word() == ((), 0)
    assert simple_ref(5, 2).reduced_word() == ((2,), 0)
    word, m = w_kl(5, 1, 5).reduced_word()
    assert len(word) == 3 and m == -2
    assert from_word(5, word, omega=m, similitude=-1) == w_kl(5, 1, 5)


@given(weyl_elements(max_n=9, max_len=12))
def test_reduced_word_roundtrip(w):
    word, m = w.reduced_word()
    assert len(word) == w.length()
    assert from_word(w.n, word, omega=m, similitude=w.similitude) == w
    descents = w.left_descents()
    for i in range(w.n):
        s = simple_ref(w.n, i)
        assert ((s * w).length() < w.length()) == (i in descents)


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def test_bruhat_basics():
    s1, s2 = simple_ref(5, 1), simple_ref(5, 2)
    w = s1 * s2
    assert bruhat_leq(w, w)
    assert bruhat_leq(s1, w)
    assert not bruhat_leq(w, s1)
    # different Omega-cosets are incomparable
    assert not bruhat_leq(identity(5), tau1(5))
    assert not bruhat_leq(tau1(5), identity(5))
    # different similitude tags are incomparable
    assert not bruhat_leq(identity(5), WeylElement(identity(5).window, 1))


def test_bruhat_within_base_coset():
    # w_{1,3} = s0·tau and w_{1,5} = s0s1s2·tau share their Omega-part
    assert bruhat_leq(w_kl(5, 1, 3), w_kl(5, 1, 5))
    assert not bruhat_leq(w_kl(5, 1, 5), w_kl(5, 1, 3))


def _ball(n, radius):
    return list(iter_ball(n, radius, 0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_equals_subword_oracle_small(n):
    ball = _ball(n, 4)
    for w in ball:
        products = subword_products(w)
        for u in ball:
            assert bruhat_leq(u, w) == (u.window in products), (u, w)


def test_bruhat_equals_counting_oracle():
    answers = set()

    @settings(max_examples=150)
    @given(st.data())
    def check(data):
        # w, a subword of its reduced word (so below it), and a stranger,
        # all in one Omega-coset
        n = data.draw(st.integers(2, 7))
        m = data.draw(st.integers(-2, 2))
        words = st.lists(st.integers(0, n - 1), max_size=10)
        w = from_word(n, data.draw(words), omega=m)
        word, _ = w.reduced_word()
        keep = data.draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
        below = from_word(n, [a for a, k in zip(word, keep) if k], omega=m)
        other = from_word(n, data.draw(words), omega=m)
        for u, v in ((below, w), (w, below), (other, w), (w, other)):
            got = bruhat_leq(u, v)
            assert got == bruhat_count_oracle(u, v), (u, v)
            answers.add(got)

    check()
    assert answers == {True, False}


# ---------------------------------------------------------------------------
# minimal coset representatives and the x·phi^λ·y normal form
# ---------------------------------------------------------------------------

def test_min_coset_rep():
    assert identity(5).is_min_coset_rep()
    assert not simple_ref(5, 1).is_min_coset_rep()
    assert simple_ref(5, 0).is_min_coset_rep()
    for n in range(2, 13):
        for k in range(1, n):
            for l in range(k + 1, n + 1):
                assert w_kl(n, k, l).is_min_coset_rep()


@given(weyl_elements(max_n=12, max_len=12))
def test_min_coset_rep_means_no_finite_left_descent(w):
    # w and the minimal representative of its coset W_0·w
    _, lam, y = decompose_xmy(w)
    for u in (w, translation(lam) * y):
        assert u.is_min_coset_rep() == (u.left_descents() <= {0})


def test_decompose_identity_and_dominant_translation():
    x, lam, y = decompose_xmy(identity(4))
    assert x == identity(4) and y == identity(4) and lam.coords == (0, 0, 0, 0)
    w = translation(Cocharacter((3, 1, 0, -2)))
    x, lam, y = decompose_xmy(w)
    assert x == identity(4) and y == identity(4) and lam.coords == (3, 1, 0, -2)


@given(weyl_elements(max_n=12, max_len=12))
def test_decompose_contract(w):
    x, lam, y = decompose_xmy(w)
    assert x.is_finite() and y.is_finite()
    assert lam.is_dominant()
    assert x * translation(lam) * y == w
    assert (translation(lam) * y).is_min_coset_rep()
    assert w.length() == x.length() + pairing_2rho(lam.coords) - y.length()


def test_decompose_w_kl_has_trivial_x():
    for n in (5, 8, 13):
        for (k, l) in [(1, 2), (3, 4), (1, n), (n - 1, n)]:
            x, lam, y = decompose_xmy(w_kl(n, k, l))
            assert x == identity(n)
            assert lam == mu(n)
