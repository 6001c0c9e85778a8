"""
The GU(2, n-2) stratification data.

The relevant cocharacter is μ = ((0,...,0,-1,-1), -1); the basic frame element
b is the pure similitude shift phi^{((0,...,0),-1)}.  Strata of the basic
locus are indexed by pairs (k, l), 1 <= k < l <= n, through the minimal coset
representatives

    w_{k,l} = phi^μ · (s_{n-2} s_{n-3} ... s_k) · (s_{n-1} s_{n-2} ... s_l)

of length k + l - 3 (a factor is skipped when its range is empty).  Every
closed-form answer exposed here (classification into DL / not-DL / empty,
fibration targets and ranks, supports, parahoric types, dimensions, closure
order, positive-Coxeter detection) is mirrored by a generic computation in
``weyl``/``roots``/``reduction`` and the two are compared in the test suite;
the closed form is the API's answer, the generic computation its oracle.
The class oracle ``classify_by_criterion`` is one ``is_empty_basic`` verdict
per label: its ``full_support`` flag (condition (i)) separates DL from the
rest, and its ``empty`` flag EMPTY from NOT_DL.

The closed forms of a label live in one place, the row loop ``_rows``, which
yields one plain tuple per label, for empty labels too (only the supports and
stable set are defined there).  Its sets come from one bounds function per
kind (``_supp_runs``, ``_stable_runs``), in whatever form the caller asks for,
or not at all; ``supp_sigma_closed`` and ``s_closed`` wrap the same bounds.
``_records`` turns rows into ``StratumRecord``s with frozensets:
``stratum_records`` runs it on all labels, ``stratum_graph`` on the nonempty
ones, and ``stratum_record``, ``w_prime`` and ``positive_coxeter_closed`` on
one label (the last two build no set).  ``adlv classify`` formats the rows
directly, with no record.  The oracles and those two readers stay out of
``__all__``: ``verify``, the tests and the benchmark reach them here.
"""

from __future__ import annotations

import enum
import itertools
import json
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .weyl import (
    WeylElement,
    Cocharacter,
    bruhat_leq,
    decompose_xmy,
    translation,
)
from . import reduction

__all__ = [
    "StratumLabel",
    "StratumClass",
    "StratumRecord",
    "StratumGraph",
    "NotApplicableError",
    "mu",
    "b_element",
    "w_kl",
    "s_admissible",
    "classify",
    "supp_sigma_closed",
    "s_closed",
    "dim_basic_locus",
    "top_strata",
    "closure_leq",
    "stratum_record",
    "stratum_records",
    "stratum_graph",
    "graph_summary",
    "load_golden_summary",
]


class NotApplicableError(ValueError):
    """The requested datum is not defined for this stratum class."""


class StratumLabel(NamedTuple):
    k: int
    l: int


class StratumClass(enum.Enum):
    DL = "dl"
    NOT_DL = "not_dl"
    EMPTY = "empty"


# bound once: an Enum class-attribute read costs a quarter of a classify call
_DL, _NOT_DL, _EMPTY = StratumClass.DL, StratumClass.NOT_DL, StratumClass.EMPTY
_SIMILITUDE = -1  # of μ, and so of every w_{k,l}


def _check_rank(n: int) -> None:
    if n < 2:
        raise ValueError("rank must be at least 2")


def _check_label(n: int, k: int, l: int) -> None:
    if not (n >= 2 and 1 <= k < l <= n):
        raise ValueError(f"invalid stratum label ({k},{l}) for n={n}")


# ---------------------------------------------------------------------------
# the basic elements
# ---------------------------------------------------------------------------

def mu(n: int) -> Cocharacter:
    """The GU(2, n-2) cocharacter ((0^(n-2), -1, -1), -1)."""
    _check_rank(n)
    return Cocharacter((0,) * (n - 2) + (-1, -1), _SIMILITUDE)


def b_element(n: int) -> WeylElement:
    """The basic frame element: trivial window, similitude -1."""
    return translation(Cocharacter((0,) * n, -1))


def w_kl(n: int, k: int, l: int) -> WeylElement:
    """
    The stratum representative phi^μ s_{[n-2,k]} s_{[n-1,l]}, built on its
    window.  phi^μ has window (1, ..., n-2, -1, 0), and right multiplication
    by s_a swaps the positions a and a+1, so s_{[n-2,k]} moves the entry -1
    from position n-1 to position k and s_{[n-1,l]} then moves the entry 0
    from position n to position l.

    >>> w_kl(5, 3, 4).window
    (1, 2, -1, 0, 3)
    """
    _check_label(n, k, l)
    window = list(range(1, k)) + [-1] + list(range(k, n - 1))
    window.insert(l - 1, 0)
    return WeylElement(tuple(window), _SIMILITUDE)


def _pairs(n: int) -> Iterator[tuple[int, int]]:
    """All labels (k, l) as plain pairs, in (k, l) order (rank >= 2)."""
    _check_rank(n)
    return ((k, l) for k in range(1, n) for l in range(k + 1, n + 1))


def s_admissible(n: int) -> frozenset[StratumLabel]:
    """All stratum labels (k, l), 1 <= k < l <= n."""
    return frozenset(itertools.starmap(StratumLabel, _pairs(n)))


def brute_force_s_adm(n: int) -> frozenset[StratumLabel]:
    """
    The admissible labels from first definitions, in polynomial time.  For
    minuscule μ in GL_n, Adm(μ) = Perm(μ) lies in W_0·phi^μ·W_0 (Kottwitz and
    Rapoport, "Minuscule alcoves for GL_n and GSp_2n", Manuscripta Math. 102,
    2000); that no admissible element lies outside this double coset is taken
    on trust.  The candidates are the minimal representatives phi^λ'·y of the
    cosets W_0·phi^λ, λ ∈ W·μ, read off the normal form of phi^λ; each must be
    a minimal coset representative below phi^λ in Bruhat order and equal some
    w_{k,l}, else AssertionError.  s_admissible is the production answer.
    """
    by_element = {w_kl(n, *lab): lab for lab in s_admissible(n)}
    labels = set()
    for pair in itertools.combinations(range(n), 2):  # W·μ: two -1 slots
        t = translation(Cocharacter(tuple(-(i in pair) for i in range(n)), _SIMILITUDE))
        _, lam, y = decompose_xmy(t)
        rep = translation(lam) * y
        if not (rep.is_min_coset_rep() and bruhat_leq(rep, t) and rep in by_element):
            raise AssertionError(f"{rep}, the coset representative of {t}, "
                                 "is not a minimal admissible w_kl")
        labels.add(by_element[rep])
    return frozenset(labels)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify(n: int, k: int, l: int) -> StratumClass:
    """Closed-form stratum class.  All parity-sensitive bounds use doubled
    integers, never rational division."""
    _check_label(n, k, l)
    if k == 1 or 2 * l <= n + 2:
        return _DL
    if 3 <= k and 2 * k < n + 2 and l <= n - 1 and (
            k % 2 == 1 if k + l <= n + 2 else (n - 1 - l) % 2 == 0):
        return _NOT_DL
    return _EMPTY


def classify_by_criterion(n: int, k: int, l: int) -> StratumClass:
    """Stratum class recomputed from first definitions by one emptiness
    verdict: DL when it stops at the support test (condition (i)), else
    EMPTY or NOT_DL.  Oracle for ``classify``."""
    verdict = reduction.is_empty_basic(w_kl(n, k, l))
    if not verdict.full_support:
        return _DL
    return _EMPTY if verdict.empty else _NOT_DL


# ---------------------------------------------------------------------------
# the closed-form record of a label
# ---------------------------------------------------------------------------

class StratumRecord(NamedTuple):
    """
    Every closed-form datum of one label (k, l).  On every label: ``label``,
    ``stratum_class``, ``length`` = k + l - 3, the twisted support
    ``supp_sigma`` (``supp_sigma_closed``) and the largest Ad(w)sigma-stable
    set ``s_w_sigma`` (``s_closed``).

    On nonempty labels (None on empty ones): ``dim``, the length on DL
    labels and on not-DL labels the target's dimension plus one per
    fibration step, i.e. the dimension l' - 2 of the DL base (1, l') plus the
    rank; ``parahoric``, the type of the parahoric indexing the stratum
    decomposition: the shift by one (mod n) of supp_sigma ∪ s_w_sigma on DL
    labels, the full finite set {1, ..., n-1} (hyperspecial) on not-DL ones.

    On not-DL labels only (None elsewhere): ``target``, the one-step
    fibration target w' (three sub-cases: k+l <= n+2, = n+3, >= n+4);
    ``rank``, the number of one-dimensional steps down to the DL base;
    ``base``, the terminal DL label under iterated targets; ``j_set``, the
    letters the reduction chains from (k, l) to its target consume.
    ``positive_coxeter`` is positive-Coxeter detection there, else False.
    """
    label: StratumLabel
    stratum_class: StratumClass
    length: int
    supp_sigma: frozenset[int]
    s_w_sigma: frozenset[int]
    dim: Optional[int] = None
    target: Optional[StratumLabel] = None
    rank: Optional[int] = None
    base: Optional[StratumLabel] = None
    parahoric: Optional[frozenset[int]] = None
    j_set: Optional[frozenset[int]] = None
    positive_coxeter: bool = False


def _supp_runs(n: int, k: int, l: int) -> tuple[range, ...]:
    """``supp_sigma_closed`` as increasing disjoint runs."""
    top = n - (k == 1)
    if 2 * l >= n + 3:  # the two runs meet
        return (range(top),)
    return range(l - 2), range(n - l + 1, top)


def _stable_runs(n: int, k: int, l: int) -> tuple[range, ...]:
    """``s_closed`` as increasing disjoint runs (where the odd letters join,
    hi >= lo-1 keeps them apart)."""
    if 2 * l <= n + 2:
        lo, hi = l - 1, n - l
    elif 2 * k <= n:
        lo, hi = max(k, n - l + 2), min(n - k, l - 2)
    else:
        lo, hi = n - k + 2, k - 1
    if l == k + 1 and lo % 2 == 1 and 2 * k != n + 1:
        return range(1, lo - 1, 2), range(lo, hi), range(n - 1, hi, -2)[::-1]
    return (range(lo, hi),)


def supp_sigma_closed(n: int, k: int, l: int) -> frozenset[int]:
    """Closed form of the twisted support of w_{k,l}, on every label: the
    letters i and n-2-i for i < l-2, plus n-1 when k >= 2.

    >>> sorted(supp_sigma_closed(7, 1, 6))  # 2l > n+2: the two runs meet
    [0, 1, 2, 3, 4, 5]
    """
    _check_label(n, k, l)
    return frozenset(itertools.chain(*_supp_runs(n, k, l)))


def s_closed(n: int, k: int, l: int) -> frozenset[int]:
    """Closed form of the largest Ad(w_{k,l})sigma-stable set of finite
    simple reflections, on every label (``roots.s_w_sigma`` is its oracle).
    In half-open intervals it is [lo, hi) = [l-1, n-l) when 2l <= n+2, else
    [k, n-k) clipped to [n-l+2, l-2) (2k <= n) or [n-k+2, k-1) (2k > n).
    When l = k+1 with lo odd and 2k != n+1, the odd letters below lo-1 and
    the letters n-1, n-3, ... above hi join it.

    >>> sorted(s_closed(12, 9, 10))
    [1, 3, 5, 6, 7, 9, 11]
    """
    _check_label(n, k, l)
    return frozenset(itertools.chain(*_stable_runs(n, k, l)))


_Form = Optional[Callable[[Iterable[int]], object]]  # a set's increasing ints -> its form


def _rows(n: int, labels: Optional[Iterable[tuple[int, int]]] = None,
          keep: tuple = tuple(StratumClass), sets: _Form = None,
          parahoric: _Form = None, letters: _Form = None) -> Iterator[tuple]:
    """
    The closed forms of ``labels`` (default: all), one plain tuple per label
    in order, one ``classify`` each: the fields of ``StratumRecord`` with the
    label split into k, l and ``target`` and ``base`` as plain pairs.  A label
    of a class not in ``keep`` raises NotApplicableError, naming its class,
    the label and n, when the caller names ``labels``; in the sweep of all
    labels it is dropped before any of its sets is built.

    ``sets`` makes the form of the support and the stable set, ``parahoric``
    and ``letters`` that of their kind, each from the set's increasing ints
    and built once per distinct int key; a kind without a form is None in
    every row.  Equal stable sets share one form.
    """
    cap, hyperspecial = (n + 4) // 2, parahoric and parahoric(range(1, n))
    supps, stables, parahorics, letter_sets, distinct = {}, {}, {}, {}, {}
    for k, l in _pairs(n) if labels is None else labels:
        if (cls := classify(n, k, l)) not in keep:
            if labels is not None:
                raise NotApplicableError(f"undefined on the {cls.value} label "
                                         f"({k},{l}) at n={n}")
            continue
        skey = (l if l < cap else cap) * 2 + (k == 1)  # the runs meet once 2l >= n+3
        # l fixes the stable set when k+l <= n+1, else k; odd letters join only at l = k+1
        key = (l if k + l <= n + 1 else -k) * 2 + (l == k + 1)
        s = t = None
        if sets and (s := supps.get(skey)) is None:
            s = supps[skey] = sets(itertools.chain(*_supp_runs(n, k, l)))
        if sets and (t := stables.get(key)) is None:
            t = stables[key] = distinct.setdefault(t := sets(
                itertools.chain(*_stable_runs(n, k, l))), t)
        length = k + l - 3
        if cls is _EMPTY:
            yield k, l, cls, length, s, t, None, None, None, None, None, None, False
        elif cls is _DL:
            p = None
            key = key * 2 + (k == 1)  # DL labels have k+l <= n+1: the stable key holds l
            if parahoric and (p := parahorics.get(key)) is None:
                p = parahorics[key] = parahoric(sorted({(i + 1) % n for i in itertools.chain(
                    *_supp_runs(n, k, l), *_stable_runs(n, k, l))}))
            yield k, l, cls, length, s, t, length, None, None, None, p, None, False
        else:
            near = k + l <= n + 2  # else k-2 joins the letters
            if near:
                target, rank, base = (k - 2, l), (k - 1) // 2, l
            else:
                target = (k - 1, l - 1) if k + l == n + 3 else (k, l - 2)
                rank, base = k + (l - n - 3) // 2, n - k + 2
            j = None
            if letters and (j := letter_sets.get(key := k * 2 + near)) is None:
                j = letter_sets[key] = letters(itertools.chain(range(k - 1 - near),
                                                               range(n - k + 1, n)))
            yield (k, l, cls, length, s, t, base - 2 + rank, target, rank, (1, base),
                   hyperspecial, j, k == (n + 1) // 2 or l == cap)


_FROZENSETS = dict.fromkeys(("sets", "parahoric", "letters"), frozenset)


def _records(n: int, labels: Optional[Iterable[tuple[int, int]]] = None,
             keep: tuple = tuple(StratumClass), forms: dict = _FROZENSETS
             ) -> list[StratumRecord]:
    """``_rows`` as records, sets as frozensets; without ``forms``, no sets."""
    return [StratumRecord(StratumLabel(k, l), cls, length, s, t, dim,
                          target and StratumLabel(*target), rank,
                          base and StratumLabel(*base), p, j, pos)
            for k, l, cls, length, s, t, dim, target, rank, base, p, j, pos
            in _rows(n, labels, keep, **forms)]


def stratum_record(n: int, k: int, l: int) -> StratumRecord:
    """The closed-form record of a nonempty label (fields: ``StratumRecord``),
    the one per-label entry point; NotApplicableError on an empty label."""
    return _records(n, ((k, l),), (_DL, _NOT_DL))[0]


def stratum_records(n: int) -> list[StratumRecord]:
    """Every label's closed-form record, in label order, one classify each."""
    return _records(n)


def w_prime(n: int, k: int, l: int) -> StratumLabel:
    """One-step fibration target of a non-DL stratum."""
    return _records(n, ((k, l),), (_NOT_DL,), {})[0].target


def positive_coxeter_closed(n: int, k: int, l: int) -> bool:
    """Closed form of positive-Coxeter detection on non-DL labels.

    >>> [positive_coxeter_closed(n, k, l) for n, k, l in  # k, k, l, l, neither
    ...  [(13, 7, 10), (12, 6, 9), (13, 3, 8), (12, 3, 8), (13, 3, 12)]]
    [True, True, True, True, False]
    """
    return _records(n, ((k, l),), (_NOT_DL,), {})[0].positive_coxeter


# ---------------------------------------------------------------------------
# closure order
# ---------------------------------------------------------------------------

def closure_leq(a: StratumLabel | tuple[int, int],
                b: StratumLabel | tuple[int, int]) -> bool:
    """Whether stratum a lies in the closure of stratum b, by the
    componentwise order.  The order is exact only when the upper label b is
    DL: the twisted order ``geq_s_sigma`` puts (1,5) below the not-DL (3,4)
    at n = 5, which this order denies (the tests pin every disagreement and
    the agreement below each DL label at n <= 6)."""
    return a[0] <= b[0] and a[1] <= b[1]


def geq_s_sigma(w: WeylElement, other: WeylElement) -> bool:
    """Whether w >= u⁻¹ · other · sigma(u) for some finite u (exhaustive over
    the finite group; guarded to n <= 7).  Each twisted conjugate is tested
    as it is formed, a repeated one is skipped, and the first one below w
    answers."""
    n = w.n
    if n > 7:
        raise ValueError("exhaustive twisted-order search is limited to n <= 7")
    seen = set()
    for perm in itertools.permutations(range(1, n + 1)):
        u = WeylElement(perm)
        c = u.inv() * other * u.sigma()
        if c not in seen:
            if bruhat_leq(c, w):
                return True
            seen.add(c)
    return False


# ---------------------------------------------------------------------------
# the fibration graph, dimensions and components
# ---------------------------------------------------------------------------

class StratumGraph(NamedTuple):
    n: int
    records: tuple[StratumRecord, ...]
    edges: tuple[tuple[StratumLabel, StratumLabel], ...]


def stratum_graph(n: int) -> StratumGraph:
    """All nonempty strata with their records, plus the fibration arrows
    (records in label order, so the arrows come out sorted)."""
    records = tuple(_records(n, keep=(_DL, _NOT_DL)))
    edges = tuple((rec.label, rec.target) for rec in records if rec.target is not None)
    return StratumGraph(n, records, edges)


def dim_basic_locus(n: int) -> int:
    return max(rec.dim for rec in stratum_graph(n).records)


def top_strata(n: int) -> frozenset[StratumLabel]:
    records = stratum_graph(n).records
    d = max(rec.dim for rec in records)
    return frozenset(rec.label for rec in records if rec.dim == d)


def graph_summary(g: StratumGraph) -> dict:
    """Node/edge summary in the canonical shape used by the golden fixtures."""
    return {
        "n": g.n,
        "nodes": [list(rec.label) for rec in g.records],
        "edges": [[list(a), list(b)] for a, b in g.edges],
    }


def load_golden_summary(n: int) -> dict:
    """The checked-in node/edge transcription of the n=13 / n=14 figures."""
    if n not in (13, 14):
        raise ValueError("golden figures exist for n = 13 and n = 14 only")
    from importlib import resources  # only here: keeps it off ``import adlv``
    path = resources.files("adlv").joinpath(f"fixtures/golden_n{n}.json")
    return json.loads(path.read_text())
