"""
The benchmark's workloads: which public calls one request makes, and how its
answer is checked.

A request is one public call (or a short fixed group of them) with a checked
answer.  ``execute`` makes the calls and is timed; ``check`` only compares
what ``execute`` returned against the reference answer and is not timed.  A
workload seed permutes the order of the requests; the set stays the same.

Why these three workloads (see also README.md next to this file):

* ``classify_sweep`` is the ``adlv classify`` user path at n = 2..40, both
  JSON and DOT.  It runs the closed forms plus the generic support code that
  ``classify_json`` still calls on empty labels, and never walks an inversion
  ideal or a conjugation class.  It is built to show ROADMAP item 4
  (closed-form-only ``classify``) and bypasses the searches of items 2 and 3.
* ``emptiness_oracle`` is ``adlv verify --suite oracle --n-max 10``: every
  label for n = 2..10, closed form against the emptiness-criterion oracle.
  Nearly all of its time is ``is_empty_basic`` over whole inversion ideals
  of up to 259 200 elements.  It shows ROADMAP items 2 (set-stabilizer
  emptiness search) and 3 (one ideal walk); it makes no class-BFS calls and
  renders no output.
* ``certify_search`` finds and re-verifies reduction certificates and runs
  the v-form and positive-Coxeter searches on small ideals.  It shows ROADMAP
  item 3 (one class BFS, window-level predicates) and never calls
  ``is_empty_basic``, so item 2 should not move it.  It drives ``weyl`` with
  hundreds of thousands of small windows, where ``classify_sweep`` uses a few
  large ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from adlv import cli, gu, reduction, roots

# The 30 NOT_DL labels with n = 5..11 and the 42 labels with full twisted
# support (NOT_DL or EMPTY) with n <= 8.  They are fixed data, not computed by
# the program under test, so a wrong classification shows as a failed check
# rather than as a different request set.
NOT_DL_LABELS = (
    (5, 3, 4), (6, 3, 5), (7, 3, 5), (7, 3, 6), (7, 4, 6), (8, 3, 6),
    (8, 3, 7), (8, 4, 7), (9, 3, 6), (9, 3, 7), (9, 3, 8), (9, 4, 8),
    (9, 5, 6), (9, 5, 8), (10, 3, 7), (10, 3, 8), (10, 3, 9), (10, 4, 9),
    (10, 5, 7), (10, 5, 9), (11, 3, 7), (11, 3, 8), (11, 3, 9), (11, 3, 10),
    (11, 4, 10), (11, 5, 7), (11, 5, 8), (11, 5, 10), (11, 6, 8), (11, 6, 10),
)
FULL_SUPPORT_LABELS = (
    (3, 2, 3), (4, 2, 4), (4, 3, 4), (5, 2, 4), (5, 2, 5), (5, 3, 4),
    (5, 3, 5), (5, 4, 5), (6, 2, 5), (6, 2, 6), (6, 3, 5), (6, 3, 6),
    (6, 4, 5), (6, 4, 6), (6, 5, 6), (7, 2, 5), (7, 2, 6), (7, 2, 7),
    (7, 3, 5), (7, 3, 6), (7, 3, 7), (7, 4, 5), (7, 4, 6), (7, 4, 7),
    (7, 5, 6), (7, 5, 7), (7, 6, 7), (8, 2, 6), (8, 2, 7), (8, 2, 8),
    (8, 3, 6), (8, 3, 7), (8, 3, 8), (8, 4, 6), (8, 4, 7), (8, 4, 8),
    (8, 5, 6), (8, 5, 7), (8, 5, 8), (8, 6, 7), (8, 6, 8), (8, 7, 8),
)
NOT_DL = frozenset(NOT_DL_LABELS)


@dataclass
class Outcome:
    """What ``execute`` returned.  ``walks`` lists (function, n, k, l) for
    every search in the request that walked the whole inversion ideal of
    w_{k,l}; ``searches``/``empty`` count ``is_empty_basic`` calls and their
    empty verdicts.  The traced run turns these into search-rate metrics."""
    answer: Any
    walks: list[tuple[str, int, int, int]] = field(default_factory=list)
    searches: int = 0
    empty: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Callable[[bool], list[tuple]]  # tiny -> request list
    execute: Callable[[tuple], Outcome]
    check: Callable[[tuple, Outcome, dict], bool]  # golden summaries by n


def _labels(n_lo: int, n_hi: int) -> list[tuple[int, int, int]]:
    return [(n, k, l) for n in range(n_lo, n_hi + 1)
            for l in range(2, n + 1) for k in range(1, l)]


# ---------------------------------------------------------------------------
# classify_sweep
# ---------------------------------------------------------------------------

def _classify_requests(tiny: bool) -> list[tuple]:
    top = 6 if tiny else 40
    return [(n, fmt) for n in range(2, top + 1) for fmt in ("json", "dot")]


def _classify_execute(req: tuple) -> Outcome:
    n, fmt = req
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["classify", "--n", str(n), "--format", fmt])
    return Outcome((code, buf.getvalue()))


_DOT_NODE = re.compile(r'^  "w_(\d+)_(\d+)" \[label=')
_DOT_EDGE = re.compile(r'^  "w_(\d+)_(\d+)" -> "w_(\d+)_(\d+)";$')
_DOT_RANK = re.compile(r"^  \{ rank=same; (.*) \}$")


def _graph_sets(nodes, edges) -> tuple[set, set]:
    return ({tuple(v) for v in nodes},
            {(tuple(a), tuple(b)) for a, b in edges})


def _check_json(n: int, text: str, golden: dict) -> bool:
    data = json.loads(text)
    strata = data["strata"]
    if data["schema"] != 1 or data["n"] != n:
        return False
    if any(s["length"] != s["k"] + s["l"] - 3 for s in strata):
        return False
    dims = [s["dim"] for s in strata if s["dim"] is not None]
    if max(dims) != n - 2 or dims.count(n - 2) != n // 2:
        return False
    if n in golden:
        nodes = [(s["k"], s["l"]) for s in strata if s["class"] != "empty"]
        edges = [((s["k"], s["l"]), (s["target"]["k"], s["target"]["l"]))
                 for s in strata if s["target"] is not None]
        want = golden[n]
        return _graph_sets(nodes, edges) == _graph_sets(want["nodes"], want["edges"])
    return True


def _check_dot(n: int, text: str, golden: dict) -> bool:
    lines = text.splitlines()
    if lines[0] != "digraph strata {" or lines[-1] != "}":
        return False
    nodes, edges, ranks = [], [], []
    for line in lines:
        if m := _DOT_NODE.match(line):
            nodes.append((int(m[1]), int(m[2])))
        elif m := _DOT_EDGE.match(line):
            edges.append(((int(m[1]), int(m[2])), (int(m[3]), int(m[4]))))
        elif m := _DOT_RANK.match(line):
            ranks.append(m[1].count(";"))
    # rank rows are written by increasing dimension: the last one is the top
    if not ranks or ranks[-1] != n // 2:
        return False
    node_set, edge_set = _graph_sets(nodes, edges)
    if any(a not in node_set or b not in node_set for a, b in edge_set):
        return False
    if n in golden:
        want = golden[n]
        return (node_set, edge_set) == _graph_sets(want["nodes"], want["edges"])
    return True


def _classify_check(req: tuple, out: Outcome, golden: dict) -> bool:
    n, fmt = req
    code, text = out.answer
    if code != 0:
        return False
    if fmt == "json":
        return _check_json(n, text, golden)
    return _check_dot(n, text, golden)


# ---------------------------------------------------------------------------
# emptiness_oracle
# ---------------------------------------------------------------------------

def _oracle_requests(tiny: bool) -> list[tuple]:
    return _labels(2, 5 if tiny else 10)


def _oracle_execute(req: tuple) -> Outcome:
    n, k, l = req
    got = gu.classify_by_criterion(n, k, l)
    want = gu.classify(n, k, l)
    out = Outcome((got, want))
    # classify_by_criterion searches exactly when the support is full, i.e.
    # when the answer is not DL; a NOT_DL answer means no witness was found,
    # so the whole ideal was walked.
    if got is not gu.StratumClass.DL:
        out.searches = 1
        out.empty = int(got is gu.StratumClass.EMPTY)
        if got is gu.StratumClass.NOT_DL:
            out.walks.append(("is_empty_basic", n, k, l))
    return out


def _oracle_check(req: tuple, out: Outcome, golden: dict) -> bool:
    got, want = out.answer
    return got is want


# ---------------------------------------------------------------------------
# certify_search
# ---------------------------------------------------------------------------

def _certify_requests(tiny: bool) -> list[tuple]:
    lo, hi = (5, 7) if tiny else (5, 11)
    reductions = [("reduction", *lab) for lab in NOT_DL_LABELS
                  if lo <= lab[0] <= hi]
    top = 6 if tiny else 8
    supports = [("support", *lab) for lab in FULL_SUPPORT_LABELS
                if lab[0] <= top]
    return reductions + supports


def _certify_execute(req: tuple) -> Outcome:
    kind, n, k, l = req
    w = gu.w_kl(n, k, l)
    if kind == "reduction":
        target = gu.w_kl(n, *gu.w_prime(n, k, l))
        plain = reduction.find_reduction(w, target)
        leveled = reduction.find_reduction(w, target, level=gu.s_closed(n, k, l))
        return Outcome((plain is not None and plain.verify(),
                        leveled is not None and leveled.verify()))
    cls = gu.classify(n, k, l)
    verdict = reduction.is_empty_basic_v_form(w)
    out = Outcome((cls, verdict.empty))
    # the v-form builds the whole LP(w) before it tests any element
    out.walks.append(("is_empty_basic_v_form", n, k, l))
    if (n, k, l) in NOT_DL:
        generic = reduction.positive_coxeter_generic(w)
        out.answer += (generic, gu.positive_coxeter_closed(n, k, l))
        if not generic:
            out.walks.append(("positive_coxeter_generic", n, k, l))
    return out


def _certify_check(req: tuple, out: Outcome, golden: dict) -> bool:
    kind, n, k, l = req
    if kind == "reduction":
        return out.answer == (True, True)
    cls, empty = out.answer[:2]
    if cls is gu.StratumClass.DL or empty != (cls is gu.StratumClass.EMPTY):
        return False
    if (n, k, l) in NOT_DL:
        generic, closed = out.answer[2:]
        return generic == closed
    return True


WORKLOADS = {
    w.name: w for w in (
        Workload("classify_sweep", _classify_requests, _classify_execute,
                 _classify_check),
        Workload("emptiness_oracle", _oracle_requests, _oracle_execute,
                 _oracle_check),
        Workload("certify_search", _certify_requests, _certify_execute,
                 _certify_check),
    )
}


def ideal_size(n: int, k: int, l: int) -> int:
    """|R(w_{k,l})|, the node count of a search that walks the whole ideal."""
    return len(roots.r_set(gu.w_kl(n, k, l)))
