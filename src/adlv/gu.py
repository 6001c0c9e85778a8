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

The closed forms of a label live in one place: ``_build_record`` branches on
the class and the not-DL sub-case (never on the parity of n) and fills a
whole ``StratumRecord``, for empty labels too, where only the class-free
supports and stable set (``supp_sigma_closed``, ``s_closed``) are defined.
``stratum_record`` is the one per-label entry point; ``stratum_records``,
which ``stratum_graph`` filters, classifies each label once and builds each
distinct set once per call for all to share.  Two per-field readers remain,
``w_prime`` and ``positive_coxeter_closed``, because the benchmark traces and
calls them by name; each raises NotApplicableError off the not-DL labels.
"""

from __future__ import annotations

import enum
import itertools
import json
from importlib import resources
from typing import Iterator, NamedTuple, Optional

from .weyl import (
    WeylElement,
    Cocharacter,
    bruhat_leq,
    decompose_xmy,
    translation,
)
from . import roots
from . import reduction

__all__ = [
    "StratumLabel",
    "StratumClass",
    "StratumRecord",
    "StratumGraph",
    "NotApplicableError",
    "mu",
    "b_element",
    "tau_element",
    "w_kl",
    "s_admissible",
    "brute_force_s_adm",
    "classify",
    "classify_by_criterion",
    "w_prime",
    "supp_sigma_closed",
    "s_closed",
    "dim_basic_locus",
    "top_strata",
    "closure_leq",
    "geq_s_sigma",
    "positive_coxeter_closed",
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
    return Cocharacter((0,) * (n - 2) + (-1, -1), -1)


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
    return WeylElement(tuple(window), mu(n).similitude)


def tau_element(n: int) -> WeylElement:
    """The length-zero stratum representative w_{1,2}."""
    return w_kl(n, 1, 2)


def _labels(n: int) -> Iterator[StratumLabel]:
    """All stratum labels (k, l), 1 <= k < l <= n, in (k, l) order (rank >= 2)."""
    _check_rank(n)
    return (StratumLabel(k, l) for k in range(1, n) for l in range(k + 1, n + 1))


def s_admissible(n: int) -> frozenset[StratumLabel]:
    """All stratum labels (k, l), 1 <= k < l <= n."""
    return frozenset(_labels(n))


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
    sim = mu(n).similitude
    by_element = {w_kl(n, *lab): lab for lab in _labels(n)}
    labels = set()
    for pair in itertools.combinations(range(n), 2):  # W·μ: two -1 slots
        t = translation(Cocharacter(tuple(-(i in pair) for i in range(n)), sim))
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
        return StratumClass.DL
    if 3 <= k and 2 * k < n + 2 and l <= n - 1 and (
            k % 2 == 1 if k + l <= n + 2 else (n - 1 - l) % 2 == 0):
        return StratumClass.NOT_DL
    return StratumClass.EMPTY


def classify_by_criterion(n: int, k: int, l: int) -> StratumClass:
    """Stratum class recomputed from first definitions: the support test for
    DL, then the emptiness criterion.  Oracle for ``classify``."""
    w = w_kl(n, k, l)
    if len(roots.supp_sigma(w)) != n:
        return StratumClass.DL
    verdict = reduction.is_empty_basic(w)
    return StratumClass.EMPTY if verdict.empty else StratumClass.NOT_DL


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


def supp_sigma_closed(n: int, k: int, l: int) -> frozenset[int]:
    """Closed form of the twisted support of w_{k,l}, on every label: the
    letters i and n-2-i for i < l-2, plus n-1 when k >= 2.

    >>> sorted(supp_sigma_closed(7, 1, 6))  # 2l > n+2: the two runs meet
    [0, 1, 2, 3, 4, 5]
    """
    _check_label(n, k, l)
    return frozenset(range(l - 2)).union(range(n - l + 1, n - (k == 1)))


def _s_bounds(n: int, k: int, l: int) -> tuple[int, int, bool]:
    """``s_closed``'s interval ends lo, hi and whether its odd letters join."""
    if 2 * l <= n + 2:
        lo, hi = l - 1, n - l
    elif 2 * k <= n:
        lo, hi = max(k, n - l + 2), min(n - k, l - 2)
    else:
        lo, hi = n - k + 2, k - 1
    return lo, hi, l == k + 1 and lo % 2 == 1 and 2 * k != n + 1


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
    lo, hi, odd = _s_bounds(n, k, l)
    out = frozenset(range(lo, hi))
    if odd:
        out |= frozenset(range(1, lo - 1, 2)) | frozenset(range(n - 1, hi, -2))
    return out


def _build_record(n: int, label: StratumLabel, cls: StratumClass, sets: dict) -> StratumRecord:
    """The record of a label of class ``cls``.  Each set is read from
    ``sets`` under the parameters its closed form depends on, and built on
    the first miss."""
    k, l = label
    # the support's two runs meet once 2l >= n+3; past that l no longer matters
    supp_key, stable_key = ("supp", min(l, (n + 4) // 2), k == 1), _s_bounds(n, k, l)
    if (supp := sets.get(supp_key)) is None:
        supp = sets[supp_key] = supp_sigma_closed(n, k, l)
    if (stable := sets.get(stable_key)) is None:
        stable = sets[stable_key] = s_closed(n, k, l)
    length = k + l - 3
    if cls is StratumClass.EMPTY:
        return StratumRecord(label, cls, length, supp, stable)
    if cls is StratumClass.DL:
        if (parahoric := sets.get((supp_key, stable_key))) is None:
            parahoric = sets[supp_key, stable_key] = frozenset(
                (i + 1) % n for i in supp | stable)
        return StratumRecord(label, cls, length, supp, stable, dim=length, parahoric=parahoric)
    near = k + l <= n + 2  # else k-2 joins the letters
    if near:
        target, rank, base = StratumLabel(k - 2, l), (k - 1) // 2, StratumLabel(1, l)
    else:
        target = StratumLabel(k - 1, l - 1) if k + l == n + 3 else StratumLabel(k, l - 2)
        rank, base = k + (l - n - 3) // 2, StratumLabel(1, n - k + 2)
    if (parahoric := sets.get("hyperspecial")) is None:
        parahoric = sets["hyperspecial"] = frozenset(range(1, n))
    if (letters := sets.get(("j_set", k, near))) is None:
        letters = sets["j_set", k, near] = frozenset(range(k - 1 - near)).union(
            range(n - k + 1, n))
    return StratumRecord(label, cls, length, supp, stable, base.l - 2 + rank, target, rank,
                         base, parahoric, letters, k == (n + 1) // 2 or l == (n + 4) // 2)


_NONEMPTY = frozenset({StratumClass.DL, StratumClass.NOT_DL})
_NOT_DL = frozenset({StratumClass.NOT_DL})


def _record(n: int, k: int, l: int, allowed: frozenset[StratumClass],
            what: str) -> StratumRecord:
    """Classify once and return the record, or raise NotApplicableError when
    the class is not ``allowed`` (``what`` names the datum asked for)."""
    cls = classify(n, k, l)
    if cls not in allowed:
        raise NotApplicableError(f"{what} is undefined on the {cls.value} label ({k},{l})")
    return _build_record(n, StratumLabel(k, l), cls, {})


def stratum_record(n: int, k: int, l: int) -> StratumRecord:
    """The closed-form record of a nonempty label (fields: ``StratumRecord``),
    the one per-label entry point; NotApplicableError on an empty label."""
    return _record(n, k, l, _NONEMPTY, "the stratum record")


def stratum_records(n: int) -> list[StratumRecord]:
    """Every label's closed-form record, in label order, one classify each."""
    sets: dict = {}
    return [_build_record(n, lab, classify(n, *lab), sets) for lab in _labels(n)]


def w_prime(n: int, k: int, l: int) -> StratumLabel:
    """One-step fibration target of a non-DL stratum."""
    return _record(n, k, l, _NOT_DL, "the fibration target").target


def positive_coxeter_closed(n: int, k: int, l: int) -> bool:
    """Closed form of positive-Coxeter detection on non-DL labels.

    >>> [positive_coxeter_closed(n, k, l) for n, k, l in  # k, k, l, l, neither
    ...  [(13, 7, 10), (12, 6, 9), (13, 3, 8), (12, 3, 8), (13, 3, 12)]]
    [True, True, True, True, False]
    """
    return _record(n, k, l, _NOT_DL, "positive-Coxeter detection").positive_coxeter


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
    records = tuple(rec for rec in stratum_records(n)
                    if rec.stratum_class is not StratumClass.EMPTY)
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
    path = resources.files("adlv").joinpath(f"fixtures/golden_n{n}.json")
    return json.loads(path.read_text())
