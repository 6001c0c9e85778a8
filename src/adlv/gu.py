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

The closed forms of a label live in one place: ``_build_record`` branches
once on the class (and once on the not-DL sub-case) and fills a whole
``StratumRecord``, for empty labels too, where only the class-free supports
and stable set (``supp_sigma_closed``, ``s_closed``) are defined.  The other
per-field helpers (``w_prime``, ``dim_stratum``, ...) classify once and read
one field of that record, raising NotApplicableError where it is undefined;
``stratum_records`` builds every record with one classification per label.

Dimension bookkeeping: a DL stratum has dimension equal to its length; a
not-DL stratum fibers over its target with one-dimensional fibers, so its
dimension is the target's plus one.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple, Optional

from .weyl import (
    WeylElement,
    Cocharacter,
    bruhat_leq,
    simple_ref,
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


def _check_label(n: int, k: int, l: int) -> None:
    if not (n >= 2 and 1 <= k < l <= n):
        raise ValueError(f"invalid stratum label ({k},{l}) for n={n}")


# ---------------------------------------------------------------------------
# the basic elements
# ---------------------------------------------------------------------------

def mu(n: int) -> Cocharacter:
    """The GU(2, n-2) cocharacter ((0^(n-2), -1, -1), -1)."""
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


def s_admissible(n: int) -> frozenset[StratumLabel]:
    """All stratum labels (k, l), 1 <= k < l <= n."""
    return frozenset(StratumLabel(k, l)
                     for k in range(1, n) for l in range(k + 1, n + 1))


def _lower_interval(w: WeylElement,
                    cache: dict[WeylElement, frozenset[WeylElement]]
                    ) -> frozenset[WeylElement]:
    cached = cache.get(w)
    if cached is not None:
        return cached
    descents = w.left_descents()
    if not descents:
        out = frozenset({w})
    else:
        i = min(descents)
        s = simple_ref(w.n, i)
        below = _lower_interval(s * w, cache)
        out = below | frozenset(s * v for v in below)
    cache[w] = out
    return out


def brute_force_s_adm(n: int) -> frozenset[StratumLabel]:
    """
    Recompute the admissible labels from first definitions: enumerate all
    elements below some phi^{uμ} in Bruhat order (by descent recursion on
    lower intervals), keep the minimal coset representatives, and match them
    against the w_{k,l}.  Guarded to n <= 7; the closed form s_admissible is
    the production answer.
    """
    if n > 7:
        raise ValueError("brute-force admissible-set enumeration is limited to n <= 7")
    muc = mu(n).coords
    sim = mu(n).similitude
    tops = {translation(Cocharacter(perm, sim))
            for perm in set(itertools.permutations(muc))}
    cache: dict[WeylElement, frozenset[WeylElement]] = {}
    admissible: set[WeylElement] = set()
    for t in tops:
        admissible |= _lower_interval(t, cache)
    reps = {w for w in admissible if w.is_min_coset_rep()}
    by_element = {w_kl(n, k, l): StratumLabel(k, l)
                  for k, l in s_admissible(n)}
    labels = set()
    for w in reps:
        if w not in by_element:
            raise AssertionError(f"unexpected minimal admissible element {w}")
        labels.add(by_element[w])
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
    if 3 <= k and 2 * k < n + 2 and 2 * l > n + 2 and l <= n - 1:
        if k % 2 == 1 and k + l <= n + 2:
            return StratumClass.NOT_DL
        if (l - (n - 1)) % 2 == 0 and k + l >= n + 3:
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
    """Closed form of the twisted support of w_{k,l}, on every label (empty
    labels have k >= 2 and take the k >= 2 branch): the letters i and n-2-i
    for i < l-2, plus n-1 when k >= 2."""
    _check_label(n, k, l)
    if k == 1 and 2 * l > n + 2:
        return frozenset(range(n - 1))
    out = frozenset(range(l - 2)) | frozenset(range(n - l + 1, n - 1))
    return out | {n - 1} if k >= 2 else out


def s_closed(n: int, k: int, l: int) -> frozenset[int]:
    """Closed form of the largest Ad(w_{k,l})sigma-stable set of finite
    simple reflections, on every label (``roots.s_w_sigma`` is its oracle).
    In half-open intervals it is [lo, hi) = [l-1, n-l) when 2l <= n+2, else
    [k, n-k) (2k <= n) or [n-k+2, k-1) (2k > n) clipped to [n-l+2, l-2).
    When l = k+1 with lo odd and 2k != n+1, the odd letters below lo-1 and
    the letters n-1, n-3, ... above hi join it.

    >>> sorted(s_closed(12, 9, 10))
    [1, 3, 5, 6, 7, 9, 11]
    """
    _check_label(n, k, l)
    if 2 * l <= n + 2:
        lo, hi = l - 1, n - l
    else:
        lo, hi = (k, n - k) if 2 * k <= n else (n - k + 2, k - 1)
        lo, hi = max(lo, n - l + 2), min(hi, l - 2)
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
        if n % 2 == 1:
            positive_coxeter = 2 * k == n + 1 or 2 * l == n + 3
        else:
            positive_coxeter = 2 * k == n or 2 * l == n + 4
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
        if StratumClass.DL in allowed:
            raise NotApplicableError(f"{what} is undefined on the empty stratum ({k},{l})")
        raise NotApplicableError(
            f"{what} is defined for not_dl labels; ({k},{l}) at n={n} is {cls.value}")
    return _build_record(n, k, l, cls)


def stratum_record(n: int, k: int, l: int) -> StratumRecord:
    """The closed-form record of a nonempty label."""
    return _record(n, k, l, _NONEMPTY, "the stratum record")


def stratum_records(n: int) -> list[StratumRecord]:
    """Every label's closed-form record, in label order, one classify each."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    return [_build_record(n, k, l, classify(n, k, l))
            for k, l in sorted(s_admissible(n))]


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
    """Closed form of positive-Coxeter detection on non-DL labels."""
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
    _index: dict[StratumLabel, StratumRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {rec.label: rec for rec in self.records})

    def record(self, k: int, l: int) -> StratumRecord:
        if (k, l) not in self._index:
            raise KeyError(f"({k},{l}) is not a nonempty stratum here")
        return self._index[k, l]


def stratum_graph(n: int) -> StratumGraph:
    """All nonempty strata with their records, plus the fibration arrows
    (records in label order, so the arrows come out sorted)."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    records = tuple(_build_record(n, k, l, cls) for k, l in sorted(s_admissible(n))
                    if (cls := classify(n, k, l)) is not StratumClass.EMPTY)
    edges = tuple((rec.label, rec.target) for rec in records
                  if rec.target is not None)
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
        "nodes": [list(rec.label) for rec in
                  sorted(g.records, key=lambda r: r.label)],
        "edges": [[list(a), list(b)] for a, b in sorted(g.edges)],
    }


def canonical_graph_bytes(g: StratumGraph) -> bytes:
    return (json.dumps(graph_summary(g), indent=2) + "\n").encode()


def load_golden_summary(n: int) -> dict:
    """The checked-in node/edge transcription of the n=13 / n=14 figures."""
    if n not in (13, 14):
        raise ValueError("golden figures exist for n = 13 and n = 14 only")
    path = resources.files("adlv").joinpath(f"fixtures/golden_n{n}.json")
    return json.loads(path.read_text())
