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
The other per-field helpers (``w_prime``, ``dim_stratum``, ...) classify once
and read one field of that record, raising NotApplicableError where it is
undefined; ``stratum_records`` builds every record, one classify per label.

Dimension bookkeeping: a DL stratum has dimension equal to its length; a
not-DL stratum fibers over its target with one-dimensional fibers, so its
dimension is the target's plus one.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, NamedTuple, Optional

from .weyl import (
    WeylElement,
    Cocharacter,
    bruhat_leq,
    decompose_xmy,
    tau1,
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
    "fibration_rank",
    "fibration_base",
    "supp_sigma_closed",
    "s_closed",
    "j_set",
    "parahoric_type",
    "w0_element",
    "dim_stratum",
    "dim_basic_locus",
    "irr_orbit_count",
    "top_strata",
    "closure_leq",
    "geq_s_sigma",
    "positive_coxeter_closed",
    "stratum_record",
    "stratum_records",
    "stratum_graph",
    "graph_summary",
    "canonical_graph_bytes",
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

@dataclass(frozen=True, slots=True)
class StratumRecord:
    label: StratumLabel
    stratum_class: StratumClass
    length: int
    dim: Optional[int]
    target: Optional[StratumLabel]
    rank: Optional[int]
    base: Optional[StratumLabel]
    supp_sigma: frozenset[int]
    s_w_sigma: frozenset[int]
    parahoric: Optional[frozenset[int]]
    j_set: Optional[frozenset[int]]
    positive_coxeter: bool


def supp_sigma_closed(n: int, k: int, l: int) -> frozenset[int]:
    """Closed form of the twisted support of w_{k,l}, on every label: the
    letters i and n-2-i for i < l-2, plus n-1 when k >= 2.

    >>> sorted(supp_sigma_closed(7, 1, 6))  # 2l > n+2: the two runs meet
    [0, 1, 2, 3, 4, 5]
    """
    _check_label(n, k, l)
    return frozenset(range(l - 2)).union(range(n - l + 1, n - (k == 1)))


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
    if 2 * l <= n + 2:
        lo, hi = l - 1, n - l
    elif 2 * k <= n:
        lo, hi = max(k, n - l + 2), min(n - k, l - 2)
    else:
        lo, hi = n - k + 2, k - 1
    out = frozenset(range(lo, hi))
    if l == k + 1 and lo % 2 == 1 and 2 * k != n + 1:
        out |= frozenset(range(1, lo - 1, 2)) | frozenset(range(n - 1, hi, -2))
    return out


def _build_record(n: int, k: int, l: int, cls: StratumClass) -> StratumRecord:
    """
    Every closed-form datum of a label of class ``cls`` (an empty label has
    its supports and stable set only).

    A DL stratum has dimension equal to its length, and its parahoric type is
    the shift by one (mod n) of supp_sigma ∪ S(w,sigma).  A not-DL stratum
    fibers over its target w_prime (three sub-cases: k+l <= n+2, = n+3,
    >= n+4) with one-dimensional fibers, down to a DL base (1, l'); its
    dimension is l' - 2 plus the fibration rank, its parahoric level is
    hyperspecial, and its reduction chains consume the letters ``j_set``.
    """
    supp, stable = supp_sigma_closed(n, k, l), s_closed(n, k, l)
    dim = parahoric = target = rank = base = letters = None
    positive_coxeter = False
    if cls is StratumClass.DL:
        dim = k + l - 3
        parahoric = frozenset((i + 1) % n for i in supp | stable)
    elif cls is StratumClass.NOT_DL:
        letters = frozenset(range(k - 2)) | frozenset(range(n - k + 1, n))
        if k + l <= n + 2:
            target, rank, base = StratumLabel(k - 2, l), (k - 1) // 2, StratumLabel(1, l)
        else:
            target = (StratumLabel(k - 1, l - 1) if k + l == n + 3
                      else StratumLabel(k, l - 2))
            rank, base = k + (l - n - 3) // 2, StratumLabel(1, n - k + 2)
            letters |= {k - 2}
        dim = base.l - 2 + rank
        parahoric = frozenset(range(1, n))
        positive_coxeter = k == (n + 1) // 2 or l == (n + 4) // 2
    return StratumRecord(StratumLabel(k, l), cls, k + l - 3, dim, target, rank,
                         base, supp, stable, parahoric, letters,
                         positive_coxeter)


_NONEMPTY = frozenset({StratumClass.DL, StratumClass.NOT_DL})
_NOT_DL = frozenset({StratumClass.NOT_DL})


def _record(n: int, k: int, l: int, allowed: frozenset[StratumClass],
            what: str) -> StratumRecord:
    """Classify once and return the record, or raise NotApplicableError when
    the class is not ``allowed`` (``what`` names the datum asked for)."""
    cls = classify(n, k, l)
    if cls not in allowed:
        raise NotApplicableError(f"{what} is undefined on the {cls.value} label ({k},{l})")
    return _build_record(n, k, l, cls)


def stratum_record(n: int, k: int, l: int) -> StratumRecord:
    """The closed-form record of a nonempty label."""
    return _record(n, k, l, _NONEMPTY, "the stratum record")


def stratum_records(n: int) -> list[StratumRecord]:
    """Every label's closed-form record, in label order, one classify each."""
    return [_build_record(n, k, l, classify(n, k, l)) for k, l in _labels(n)]


def w_prime(n: int, k: int, l: int) -> StratumLabel:
    """One-step fibration target of a non-DL stratum."""
    return _record(n, k, l, _NOT_DL, "the fibration target").target


def fibration_rank(n: int, k: int, l: int) -> int:
    """Number of one-dimensional fibration steps down to the DL base."""
    return _record(n, k, l, _NOT_DL, "the fibration rank").rank


def fibration_base(n: int, k: int, l: int) -> StratumLabel:
    """Terminal DL label under iterated w_prime."""
    return _record(n, k, l, _NOT_DL, "the fibration base").base


def j_set(n: int, k: int, l: int) -> frozenset[int]:
    """Letters consumed by the reduction chains from (k,l) to its target."""
    return _record(n, k, l, _NOT_DL, "the reduction-letter set").j_set


def parahoric_type(n: int, k: int, l: int) -> frozenset[int]:
    """
    Type of the parahoric indexing the stratum decomposition: the shift by
    one (mod n) of supp_sigma ∪ S(w,sigma) for DL labels, and the full finite
    set (hyperspecial level) for non-DL labels.
    """
    return _record(n, k, l, _NONEMPTY, "the parahoric type").parahoric


def dim_stratum(n: int, k: int, l: int) -> int:
    """Stratum dimension: the length for DL labels, target dimension plus one
    along each fibration step, i.e. the dimension l - 2 of the DL base (1, l)
    plus the fibration rank."""
    return _record(n, k, l, _NONEMPTY, "the dimension").dim


def positive_coxeter_closed(n: int, k: int, l: int) -> bool:
    """Closed form of positive-Coxeter detection on non-DL labels.

    >>> [positive_coxeter_closed(n, k, l) for n, k, l in  # k, k, l, l, neither
    ...  [(13, 7, 10), (12, 6, 9), (13, 3, 8), (12, 3, 8), (13, 3, 12)]]
    [True, True, True, True, False]
    """
    return _record(n, k, l, _NOT_DL, "positive-Coxeter detection").positive_coxeter


def w0_element(n: int, k: int, l: int) -> WeylElement:
    """b⁻¹ · tau1 · w_{k,l} · sigma(tau1)⁻¹, a plain affine element; finite
    exactly when the shifted support union fills the finite diagram (the DL
    labels with k = 1 and 2l >= n+3)."""
    _record(n, k, l, _NONEMPTY, "the hyperspecial-frame element")
    t1 = tau1(n)
    out = b_element(n).inv() * t1 * w_kl(n, k, l) * t1.sigma().inv()
    if out.omega() != 0 or out.similitude != 0:
        raise AssertionError("frame-shifted element left the affine subgroup")
    return out


# ---------------------------------------------------------------------------
# closure order
# ---------------------------------------------------------------------------

def closure_leq(a: StratumLabel | tuple[int, int],
                b: StratumLabel | tuple[int, int]) -> bool:
    """Whether stratum a lies in the closure of stratum b (componentwise
    order; the closure statement is guaranteed for DL labels)."""
    return a[0] <= b[0] and a[1] <= b[1]


def geq_s_sigma(w: WeylElement, other: WeylElement) -> bool:
    """Whether w >= u⁻¹ · other · sigma(u) for some finite u (exhaustive over
    the finite group; guarded to n <= 7)."""
    n = w.n
    if n > 7:
        raise ValueError("exhaustive twisted-order search is limited to n <= 7")
    conjugates = set()
    for perm in itertools.permutations(range(1, n + 1)):
        u = WeylElement(perm)
        conjugates.add(u.inv() * other * u.sigma())
    return any(bruhat_leq(c, w) for c in conjugates)


# ---------------------------------------------------------------------------
# the fibration graph, dimensions and components
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StratumGraph:
    n: int
    records: tuple[StratumRecord, ...]
    edges: tuple[tuple[StratumLabel, StratumLabel], ...]

    def record(self, k: int, l: int) -> StratumRecord:
        """The record of the nonempty label (k, l), found by a scan."""
        for rec in self.records:
            if rec.label == (k, l):
                return rec
        raise KeyError(f"({k},{l}) is not a nonempty stratum here")


def stratum_graph(n: int) -> StratumGraph:
    """All nonempty strata with their records, plus the fibration arrows
    (records in label order, so the arrows come out sorted)."""
    records = tuple(_build_record(n, k, l, cls) for k, l in _labels(n)
                    if (cls := classify(n, k, l)) is not StratumClass.EMPTY)
    edges = tuple((rec.label, rec.target) for rec in records if rec.target is not None)
    return StratumGraph(n, records, edges)


def dim_basic_locus(n: int) -> int:
    return max(rec.dim for rec in stratum_graph(n).records)


def top_strata(n: int) -> frozenset[StratumLabel]:
    records = stratum_graph(n).records
    d = max(rec.dim for rec in records)
    return frozenset(rec.label for rec in records if rec.dim == d)


def irr_orbit_count(n: int) -> int:
    """Number of orbits of irreducible components under the group action."""
    return len(top_strata(n))


def graph_summary(g: StratumGraph) -> dict:
    """Node/edge summary in the canonical shape used by the golden fixtures."""
    return {
        "n": g.n,
        "nodes": [list(rec.label) for rec in g.records],
        "edges": [[list(a), list(b)] for a, b in g.edges],
    }


def canonical_graph_bytes(g: StratumGraph) -> bytes:
    return (json.dumps(graph_summary(g), indent=2) + "\n").encode()


def load_golden_summary(n: int) -> dict:
    """The checked-in node/edge transcription of the n=13 / n=14 figures."""
    if n not in (13, 14):
        raise ValueError("golden figures exist for n = 13 and n = 14 only")
    path = resources.files("adlv").joinpath(f"fixtures/golden_n{n}.json")
    return json.loads(path.read_text())
